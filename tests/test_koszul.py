import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencillab as pl
from pencillab import cli
from pencillab.generators import random_commuting_pair
from pencillab.io import pencil_from_json
from pencillab.kronecker import KroneckerStructure
from pencillab.linalg import numerical_rank, rank_decision, svd


def by_coords(points):
    return sorted(points, key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))

from conftest import REPO, complex_matrix


def _cross_oracle_disagreements(a, b, tol):
    """Grid points where Koszul exactness and shifted-pencil regularity disagree."""
    from pencillab.linalg import eigenvalues

    n = a.shape[0]
    return sum(
        pl.koszul_at(a, b, z1, z2, tol).exact
        == bool(pl.is_singular(pl.Pencil(a - z1 * np.eye(n), b - z2 * np.eye(n)), tol))
        for z1 in eigenvalues(a).values
        for z2 in eigenvalues(b).values
    )


class TestCheckCommuting:
    def test_diagonal_pairs(self):
        assert pl.check_commuting(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))

    def test_ladder_pair_fails(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert not pl.check_commuting(a, b)

    def test_polynomials_commute(self, rng):
        m = complex_matrix(rng, 5, 5)
        a = m @ m - 2.0 * m
        b = m @ m @ m + 0.25 * np.eye(5)
        assert pl.check_commuting(a, b)

    def test_zero_pair(self):
        assert pl.check_commuting(np.zeros((3, 3)), np.zeros((3, 3)))


class TestKoszulAt:
    def test_identity_zero_pair(self):
        res = pl.koszul_at(np.eye(3), np.zeros((3, 3)), 0.0, 0.0)
        assert res.exact and res.rank_d1 == 3 and res.rank_d2 == 3

    def test_zero_pair_not_exact(self):
        res = pl.koszul_at(np.zeros((2, 2)), np.zeros((2, 2)), 0.0, 0.0)
        assert not res.exact
        assert res.rank_d1 == 0 and res.rank_d2 == 0

    def test_fixture_at_member(self):
        a, b = np.diag([1.0, -1.0]), np.diag([2.0, -2.0])
        assert not pl.koszul_at(a, b, 1.0, 2.0).exact

    def test_rank_sum_bound(self, rng):
        for _ in range(10):
            a, b = random_commuting_pair(rng, max_n=6)
            z1, z2 = complex(rng.standard_normal()), complex(rng.standard_normal())
            res = pl.koszul_at(a, b, z1, z2)
            assert res.rank_d1 + res.rank_d2 <= 2 * res.dim

    def test_noncommuting_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(pl.NotCommuting):
            pl.koszul_at(a, b, 0.0, 0.0)


EMPTY = np.zeros((0, 0))
NO_POINTS = pl.TaylorSpectrum((), (), (), ())


class TestEmptyPair:
    def test_taylor_spectrum(self):
        assert pl.taylor_spectrum(EMPTY, EMPTY) == NO_POINTS

    def test_spectrum_via_singularity(self):
        assert pl.spectrum_via_singularity(EMPTY, EMPTY) == NO_POINTS

    def test_commuting_structure(self):
        assert pl.commuting_structure(EMPTY, EMPTY) == (KroneckerStructure(), NO_POINTS)

    def test_condition_matrix(self):
        # the empty range misses the origin, and the 0 x 0 pencil is regular
        report = pl.condition_matrix(EMPTY, EMPTY)
        assert report.koszul.exact and not report.zero_in_taylor
        assert not report.pencil_singular and not report.origin_in_joint_range
        assert not report.range_is_plane and report.certificate is None
        assert report.membership.verdict == "outside"
        assert report.membership.certificate.is_valid(EMPTY, EMPTY)
        assert all(ok for _, ok in report.implications)


@pytest.mark.parametrize("call", [
    lambda a, b: pl.check_commuting(a, b),
    lambda a, b: pl.koszul_at(a, b, 1.0, 3.0),
    lambda a, b: pl.taylor_spectrum(a, b),
    lambda a, b: pl.spectrum_via_singularity(a, b),
    lambda a, b: pl.spectrum_invertible_characterization(a, b),
    lambda a, b: pl.commuting_structure(a, b),
    lambda a, b: pl.condition_matrix(a, b),
    lambda a, b: pl.commuting_analysis(a, b),
    lambda a, b: cli.analyze_pencil(pl.Pencil(a, b), pl.DEFAULT_TOL),
], ids=["check_commuting", "koszul_at", "taylor_spectrum", "spectrum_via_singularity",
        "spectrum_invertible_characterization", "commuting_structure", "condition_matrix",
        "commuting_analysis", "analyze_pencil"])
def test_each_public_call_validates_the_pair_once(monkeypatch, call):
    from pencillab import koszul

    calls = []
    require = koszul._require_commuting

    def counted(a, b):
        calls.append((a, b))
        return require(a, b)

    monkeypatch.setattr(koszul, "_require_commuting", counted)
    call(np.diag([1.0, 2.0, 4.0]), np.diag([3.0, 1.0, 2.0]))
    assert len(calls) == 1


class TestTaylorSpectrum:
    def test_signed_diag(self):
        ts = pl.taylor_spectrum(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        got = by_coords(ts.points)
        assert len(got) == 2
        np.testing.assert_allclose(got[0], (-1.0, -2.0), atol=1e-10)
        np.testing.assert_allclose(got[1], (1.0, 2.0), atol=1e-10)

    def test_zero_pair(self):
        ts = pl.taylor_spectrum(np.zeros((3, 3)), np.zeros((3, 3)))
        assert ts.points == ((0.0, 0.0),)

    def test_swapped_diagonals(self):
        ts = pl.taylor_spectrum(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
        np.testing.assert_allclose(by_coords(ts.points), [(1.0, 2.0), (2.0, 1.0)], atol=1e-10)

    def test_witness_residuals(self, rng):
        a, b = random_commuting_pair(rng, max_n=6, kind="poly")
        ts = pl.taylor_spectrum(a, b)
        assert ts.points  # nonempty for every commuting pair
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        for (ra, rb) in ts.residuals:
            assert ra <= 1e-8 * max(1.0, na)
            assert rb <= 1e-8 * max(1.0, nb)

    def test_nonempty_spectrum(self, rng):
        for _ in range(10):
            a, b = random_commuting_pair(rng, max_n=7)
            ts = pl.taylor_spectrum(a, b)
            assert ts.points
            assert sum(ts.multiplicities) == a.shape[0]
            assert len(ts.witnesses) == len(ts.points)

    def test_simple_spectrum_takes_one_schur_form(self, monkeypatch):
        import scipy.linalg

        calls = []
        schur = scipy.linalg.schur

        def counted(*args, **kwargs):
            calls.append(args)
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counted)
        x = pl.kronecker.random_well_conditioned(4, np.random.default_rng(3), 30.0)
        a = x @ np.diag([1.0, -2.0, 0.5j, 3.0]) @ np.linalg.inv(x)
        ts = pl.taylor_spectrum(a, a @ a)
        # A's n clusters are simple, so every restriction of B is one 1 x 1 cluster, its own basis
        assert len(calls) == 1 and ts.multiplicities == (1, 1, 1, 1)
        np.testing.assert_allclose(by_coords(ts.points), [(-2.0, 4.0), (0.5j, -0.25),
                                                          (1.0, 1.0), (3.0, 9.0)], atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_jordan_block(self, seed):
        # A = X J X^-1 with a 2x2 Jordan block at 1 and B = A^2
        x = pl.kronecker.random_well_conditioned(3, np.random.default_rng(seed), 30.0)
        a = x @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]) @ np.linalg.inv(x)
        b = a @ a
        ts = pl.taylor_spectrum(a, b)
        got = by_coords(ts.points)
        assert len(got) == 2, got
        np.testing.assert_allclose(got, [(-1.0, 1.0), (1.0, 1.0)], atol=1e-8)
        assert ts.points == tuple(got) and ts.multiplicities == (1, 2)
        assert pl.spectra_match(got, pl.spectrum_via_singularity(a, b).points)[0]

    @pytest.mark.parametrize("seed", range(4, 200, 5))
    def test_structured_nilpotent_pair(self, seed):
        # every "structured" pair is nilpotent: its only joint point is (0, 0)
        a, b = random_commuting_pair(np.random.default_rng(seed), max_n=8, kind="structured")
        ts = pl.taylor_spectrum(a, b)
        got = ts.points
        scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
        assert len(got) == 1 and max(abs(got[0][0]), abs(got[0][1])) < 1e-8 * scale, got
        assert ts.multiplicities == (a.shape[0],)


# "structured" draws (s < 3000, B scaled by 1, 1e-3 and 1e3, plus seed 5944)
# on which taylor_spectrum raised OracleDisagreement when the generator's
# multipliers commuted only to 1e-11 relative: their nilpotents carry more
# than rounding error and split into rings wider than the eigenvalue discs.
SPLIT_NILPOTENT_PAIRS = json.loads(
    (REPO / "fixtures" / "split_nilpotent" / "pairs.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "entry", SPLIT_NILPOTENT_PAIRS, ids=lambda e: f"seed{e['seed']}-scale{e['scale']:g}"
)
def test_pinned_split_nilpotent_pair(entry):
    p = pencil_from_json(entry)
    n = p.rows
    assert pl.check_commuting(p.a, p.b)
    assert pl.is_singular(p)
    # Once eigenvalue clustering merges a split nilpotent (ROADMAP open
    # item 2), OracleDisagreement is no longer allowed here.
    try:
        ts = pl.taylor_spectrum(p.a, p.b)
    except (pl.OracleDisagreement, pl.RankDecisionUnstable):
        return
    scale = max(1.0, np.linalg.norm(p.a), np.linalg.norm(p.b))
    assert ts.multiplicities == (n,)
    assert max(abs(ts.points[0][0]), abs(ts.points[0][1])) < 1e-8 * scale, ts.points


class TestSpectrumOracles:
    def test_via_singularity_agrees(self, rng):
        for _ in range(8):
            a, b = random_commuting_pair(rng, max_n=6)
            direct = pl.taylor_spectrum(a, b)
            oracle = pl.spectrum_via_singularity(a, b)
            equal, mismatches = pl.spectra_match(direct.points, oracle.points)
            assert equal, mismatches

    def test_one_sweep_per_joint_point(self, monkeypatch):
        from pencillab import koszul

        calls = []

        def counted(p, tol=pl.DEFAULT_TOL):
            calls.append(p)
            return pl.is_singular(p, tol)

        monkeypatch.setattr(koszul, "is_singular", counted)
        ts = pl.spectrum_via_singularity(
            np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([4.0, 3.0, 2.0, 1.0]))
        assert ts.multiplicities == (1, 1, 1, 1)
        assert len(calls) == 4

    def test_completeness_check_catches_a_moved_multiplicity(self, monkeypatch):
        from pencillab import koszul

        x = pl.kronecker.random_well_conditioned(3, np.random.default_rng(0), 30.0)
        a = x @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]) @ np.linalg.inv(x)
        b = a @ a
        true = koszul.taylor_spectrum(a, b)
        assert true.multiplicities == (1, 2)
        moved = dataclasses.replace(true, multiplicities=(2, 1))
        monkeypatch.setattr(koszul, "taylor_spectrum", lambda a, b, tol=pl.DEFAULT_TOL: moved)
        with pytest.raises(pl.OracleDisagreement):
            pl.spectrum_via_singularity(a, b)

    def test_pointwise_koszul_vs_singularity(self, rng, tol):
        a, b = random_commuting_pair(rng, max_n=5, kind="poly")
        n = a.shape[0]
        from pencillab.linalg import eigenvalues

        for z1 in eigenvalues(a).values:
            for z2 in eigenvalues(b).values:
                exact = pl.koszul_at(a, b, z1, z2, tol).exact
                shifted = pl.Pencil(a - z1 * np.eye(n), b - z2 * np.eye(n))
                assert exact == (not pl.is_singular(shifted, tol))

    def test_unbalanced_pair_koszul_vs_singularity(self, tol):
        # B a thousandfold larger than A: each shifted block has its own scale
        a, b = random_commuting_pair(np.random.default_rng(935), max_n=10, kind="poly")
        assert _cross_oracle_disagreements(a, 1e3 * b, tol) == 0

    def test_rescaled_pairs_koszul_vs_singularity(self, tol):
        rng = np.random.default_rng(1203)
        disagreements = 0
        for _ in range(40):
            a, b = random_commuting_pair(rng, max_n=10)
            a, b = a * 10 ** rng.uniform(-3, 3), b * 10 ** rng.uniform(-3, 3)
            disagreements += _cross_oracle_disagreements(a, b, tol)
        assert disagreements == 0

    def test_off_grid_points_exact(self, rng, tol):
        a, b = random_commuting_pair(rng, max_n=5)
        for _ in range(50):
            z1 = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
            z2 = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
            assert pl.koszul_at(a, b, z1, z2, tol).exact


def _shifted_oracle(a, b, z1, z2):
    """A - z1 I and B - z2 I from A, B and z alone, each over its term size |M|_F + |z| sqrt(n)."""
    blocks = []
    for m, z in ((a, z1), (b, z2)):
        m = np.asarray(m, dtype=complex)
        shifted = m.copy()
        shifted[np.diag_indices(len(m))] -= z
        size = np.linalg.norm(m) + abs(z) * np.sqrt(len(m))
        blocks.append(shifted / max(size, np.finfo(float).tiny))
    return blocks


def _witness_oracle(a, b, z1, z2, tol):
    """The per-point witness computation: rank and smallest right singular vector of one stack."""
    stacked = np.vstack(_shifted_oracle(a, b, z1, z2))
    _, s, v = svd(stacked)
    return int(rank_decision(s, stacked.shape, 1.0, tol)[0]), v[:, -1]


def _koszul_rank_oracle(a, b, z1, z2, tol):
    """Ranks of d1 = [S_A; S_B] and of d2 = [-S_B, S_A], each from its own SVD."""
    sa, sb = _shifted_oracle(a, b, z1, z2)
    return (numerical_rank(np.vstack([sa, sb]), tol, scale=1.0),
            numerical_rank(np.hstack([-sb, sa]), tol, scale=1.0))


def _ulp_edge_values(count):
    """Seeded complex z whose numpy and Python moduli differ, where the platform has any."""
    rng = np.random.default_rng(3001)
    draws = [complex(*rng.standard_normal(2)) for _ in range(2000)]
    edge = [z for z in draws if float(np.abs(np.complex128(z))) != abs(z)]
    return (edge or draws)[:count]


def _assert_batched_paths_match_oracles(a, b, off_points, tol):
    """taylor_spectrum and koszul_at against the per-point oracles, on the pair and off it.

    Ranks and witnesses are bit for bit those of one SVD per point;
    residuals, a batched product, agree to rounding.  Returns the spectrum.
    """
    n = a.shape[0]
    scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
    ts = pl.taylor_spectrum(a, b, tol)
    assert sum(ts.multiplicities) == n
    for (z1, z2), w, residual in zip(ts.points, ts.witnesses, ts.residuals):
        rank, x = _witness_oracle(a, b, z1, z2, tol)
        assert rank < n
        np.testing.assert_array_equal(w, x)
        np.testing.assert_allclose(
            residual, (np.linalg.norm(a @ x - z1 * x), np.linalg.norm(b @ x - z2 * x)),
            rtol=0.0, atol=1e-14 * scale)
    for z1, z2 in ts.points + tuple(off_points):
        got = pl.koszul_at(a, b, z1, z2, tol)
        assert (got.rank_d1, got.rank_d2) == _koszul_rank_oracle(a, b, z1, z2, tol)
        assert got.exact == (got.rank_d1 == got.rank_d2 == n)
    return ts


class TestBatchedOracles:
    def test_batched_paths_match_per_point_oracles(self, tol):
        rng = np.random.default_rng(2202)
        several = 0
        for kind in ["poly", "poly-singular", "blockdiag", "zero-block"] * 12:
            a, b = random_commuting_pair(rng, max_n=8, kind=kind)
            off = (complex(*rng.standard_normal(2)) * 3.0, complex(*rng.standard_normal(2)) * 3.0)
            ts = _assert_batched_paths_match_oracles(a, b, [off], tol)
            several += len(ts.points) > 1
        assert several >= 12

    @pytest.mark.parametrize("kind", ["poly", "poly-singular", "blockdiag", "zero-block",
                                      "structured"])
    @pytest.mark.parametrize("c, d", [(1e-3, 1e3), (1e3, 1.0), (1.0, 1e-3)])
    def test_every_kind_at_scaled_coefficients(self, tol, kind, c, d):
        rng = np.random.default_rng(2203)
        for _ in range(3):
            a, b = random_commuting_pair(rng, max_n=7, kind=kind)
            _assert_batched_paths_match_oracles(c * a, d * b, [(0.0, 0.0), (c, -1j * d)], tol)

    def test_empty_and_one_by_one_pairs(self, tol):
        empty = np.zeros((0, 0))
        assert _assert_batched_paths_match_oracles(empty, empty, [(1.0, 2.0)], tol).points == ()
        got = pl.koszul_at(empty, empty, 1.0, 2.0, tol)
        assert (got.rank_d1, got.rank_d2, got.exact) == (0, 0, True)
        rng = np.random.default_rng(2204)
        for _ in range(5):
            a, b = (np.array([[complex(*rng.standard_normal(2))]]) for _ in range(2))
            ts = _assert_batched_paths_match_oracles(a, b, [(a[0, 0], 0.5), (0.0, b[0, 0])], tol)
            assert ts.points == ((a[0, 0], b[0, 0]),)
        zero = np.zeros((1, 1))
        assert _assert_batched_paths_match_oracles(zero, zero, [(1.0, 0.0)], tol).points == ((0, 0),)

    def test_shifts_far_beyond_the_coefficients(self, tol):
        # the term size |M|_F + |z| sqrt(n) is |z| sqrt(n) to rounding
        a, b = random_commuting_pair(np.random.default_rng(2205), max_n=6, kind="poly")
        far = [(1e8, 0.0), (0.0, -1e8j), (3e12 * np.exp(0.3j), 1e9 + 2e9j)]
        _assert_batched_paths_match_oracles(a, b, far, tol)
        ts = _assert_batched_paths_match_oracles(a + 1e7 * np.eye(len(a)), b, [], tol)
        assert all(abs(z1) > 1e6 * np.linalg.norm(a) / len(a) for z1, _ in ts.points)

    def test_points_whose_numpy_and_python_moduli_differ(self, tol):
        # each term size takes |z| of the scalar it is given, as the per-point oracle does:
        # a modulus taken by numpy where Python's was due moves the witness bits
        def differ(z):
            return float(np.abs(np.complex128(z))) != abs(complex(z))

        edge = _ulp_edge_values(4)
        rng = np.random.default_rng(2206)
        hits = 0
        for _ in range(4):
            u = np.linalg.qr(complex_matrix(rng, 4, 4))[0]
            a, b = (u @ np.diag(rng.permutation(edge)) @ u.conj().T for _ in range(2))
            off = [(z, w) for z in edge[:2] for w in (edge[2], np.complex128(edge[3]))]
            ts = _assert_batched_paths_match_oracles(a, b, off, tol)
            hits += sum(differ(z) for point in ts.points for z in point)
        assert hits or not differ(edge[0])  # computed points on the edge, where it exists

    def test_one_svd_per_decision(self, monkeypatch):
        calls = []
        factor = np.linalg.svd

        def spy(m, *args, **kwargs):
            calls.append(np.shape(m))
            return factor(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        a, b = np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([4.0, 3.0, 2.0, 1.0])
        assert pl.taylor_spectrum(a, b).multiplicities == (1, 1, 1, 1)
        assert not pl.koszul_at(a, b, 1.0, 4.0).exact
        # the four witnesses from one stack, both Koszul ranks from another
        assert calls == [(4, 8, 4), (2, 8, 4)]

    def test_first_point_without_a_common_eigenvector_raises(self, monkeypatch):
        from pencillab import koszul

        # of the three bases only e1 spans a common eigenvector of diag(1, 2) and diag(3, 4);
        # sorted, the first point without one is the halfway mean (1.5, 3.5)
        e1 = np.array([[1.0], [0.0]])
        halfway = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        skewed = np.array([[1.0], [2.0]]) / np.sqrt(5.0)
        monkeypatch.setattr(koszul, "invariant_subspaces", lambda a: (None, (skewed, halfway, e1)))
        with pytest.raises(pl.OracleDisagreement) as info:
            pl.taylor_spectrum(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_allclose(info.value.point, (1.5, 3.5), atol=1e-12)
        assert str(info.value) == f"no common eigenvector at {info.value.point}"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["poly", "poly-singular", "blockdiag", "zero-block", "structured"]),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
def test_taylor_path_verdicts_survive_scaling_and_unitary_coordinates(seed, kind, log_c, log_d):
    # (A, B) -> (c Q A Q*, d Q B Q*) maps each joint point and each point of
    # the joint range (z1, z2) to (c z1, d z2), so no verdict may change
    rng = np.random.default_rng(seed)
    a, b = random_commuting_pair(rng, max_n=8, kind=kind)
    n = a.shape[0]
    c, d = 10.0**log_c, 10.0**log_d
    q = np.linalg.qr(complex_matrix(rng, n, n))[0]
    pairs = ((a, b), (c * q @ a @ q.conj().T, d * q @ b @ q.conj().T))
    off = (complex(*rng.standard_normal(2)) * 3.0, complex(*rng.standard_normal(2)) * 3.0)
    try:
        singular = [bool(pl.is_singular(pl.Pencil(x, y))) for x, y in pairs]
        spectra = [pl.taylor_spectrum(x, y) for x, y in pairs]
        at_points = [pl.koszul_at(*pairs[1], c * z1, d * z2).exact for z1, z2 in spectra[0].points]
        at_off = [pl.koszul_at(*pairs[0], *off).exact,
                  pl.koszul_at(*pairs[1], c * off[0], d * off[1]).exact]
        hulls = [pl.conv_hull_membership(x, y) for x, y in pairs]
    except pl.RankDecisionUnstable:
        return
    assert singular[0] == singular[1]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    moved = list(zip(spectra[1].points, spectra[1].multiplicities))
    for (z1, z2), m in zip(spectra[0].points, spectra[0].multiplicities):
        hit = next((i for i, ((w1, w2), k) in enumerate(moved) if k == m
                    and abs(w1 - c * z1) <= 1e-8 * c * na and abs(w2 - d * z2) <= 1e-8 * d * nb),
                   None)
        assert hit is not None, ((z1, z2), m, c, d, spectra[1])
        moved.pop(hit)
    assert not moved
    assert not any(at_points)
    assert at_off[0] == at_off[1]
    assert hulls[0].verdict == hulls[1].verdict
    for (x, y), hull in zip(pairs, hulls):
        certificate = {"outside": hull.certificate, "inside": hull.inside_certificate}
        if hull.verdict in certificate:
            assert certificate[hull.verdict].is_valid(x, y)


KINDS = ["poly", "poly-singular", "blockdiag", "zero-block", "structured"]


def _scaled(structure, factor):
    """The structure of (cA, dB) from that of (A, B): each eigenvalue times factor = c / d."""
    return KroneckerStructure(structure.col_minimal, structure.row_minimal,
                              [(size, factor * lam) for size, lam in structure.jordan],
                              structure.nilpotent)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from(KINDS),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
def test_structure_and_conditions_survive_scaling_and_unitary_coordinates(seed, kind, log_c,
                                                                          log_d):
    # (A, B) -> (c Q A Q*, d Q B Q*) is a strict equivalence of (A, (d / c) B) up to the
    # factor c, so minimal indices and sizes stay and each eigenvalue scales by c / d
    rng = np.random.default_rng(seed)
    a, b = random_commuting_pair(rng, max_n=8, kind=kind)
    n = a.shape[0]
    c, d = 10.0**log_c, 10.0**log_d
    q = np.linalg.qr(complex_matrix(rng, n, n))[0]
    pairs = ((a, b), (c * q @ a @ q.conj().T, d * q @ b @ q.conj().T))
    try:
        stairs = [pl.staircase_structure(pl.Pencil(x, y)) for x, y in pairs]
        read = [pl.commuting_structure(x, y)[0] for x, y in pairs]
        conditions = [pl.condition_matrix(x, y) for x, y in pairs]
    except pl.RankDecisionUnstable:
        return
    expected = _scaled(stairs[0], c / d)
    assert pl.structures_match(expected, stairs[1]), (stairs, c, d)
    assert pl.structures_match(_scaled(read[0], c / d), read[1]), (read, c, d)
    assert pl.structures_match(stairs[0], read[0]), (stairs, read)
    assert len({(m.zero_in_taylor, m.pencil_singular, m.origin_in_joint_range,
                 m.range_is_plane) for m in conditions}) == 1


class TestCommutingStructure:
    def test_matches_the_staircase_on_every_kind(self, tol):
        # the draws are unscaled and at (cA, dB); the staircase and the Taylor
        # spectrum are the references, and this may raise only where one of them does
        outcomes = {"agree": 0, "both raise": 0}
        for k, kind in enumerate(KINDS):
            for s in range(60):
                rng = np.random.default_rng([23, k, s])
                a, b = random_commuting_pair(rng, max_n=10, kind=kind)
                c, d = 10 ** rng.uniform(-3, 3, 2)
                for x, y in ((a, b), (c * a, d * b)):
                    try:
                        got = pl.commuting_structure(x, y, tol)[0]
                    except pl.RankDecisionUnstable:
                        with pytest.raises((pl.RankDecisionUnstable, pl.OracleDisagreement)):
                            pl.staircase_structure(pl.Pencil(x, y), tol)
                            pl.taylor_spectrum(x, y, tol)
                        outcomes["both raise"] += 1
                        continue
                    assert pl.structures_match(pl.staircase_structure(pl.Pencil(x, y), tol),
                                               got), (kind, s, got)
                    outcomes["agree"] += 1
        assert outcomes["agree"] >= 590, outcomes

    def test_pinned_split_nilpotent_pairs_agree_or_raise(self):
        for entry in SPLIT_NILPOTENT_PAIRS:
            p = pencil_from_json(entry)
            try:
                got = pl.commuting_structure(p.a, p.b)[0]
            except (pl.OracleDisagreement, pl.RankDecisionUnstable):
                continue
            assert pl.structures_match(pl.staircase_structure(p), got), entry["seed"]

    def test_fixtures(self, fixtures_dir):
        from pencillab.io import load_pencil

        zero = load_pencil(fixtures_dir / "zero_pencil_2x2.json")
        assert pl.commuting_structure(zero.a, zero.b)[0] == KroneckerStructure(
            col_minimal=[(0, 2)], row_minimal=[(0, 2)])
        signed = load_pencil(fixtures_dir / "signed_diag_pair.json")
        got = pl.commuting_structure(signed.a, signed.b)[0]
        assert pl.structures_match(got, KroneckerStructure(jordan=[(1, 0.5), (1, 0.5)]))
        assert not got.col_minimal and not got.row_minimal and not got.nilpotent

    def test_spectrum_is_that_of_taylor_spectrum(self, rng):
        for _ in range(6):
            a, b = random_commuting_pair(rng, max_n=7)
            got, want = pl.commuting_structure(a, b)[1], pl.taylor_spectrum(a, b)
            assert (got.points, got.multiplicities, got.residuals) == (
                want.points, want.multiplicities, want.residuals)
            assert all(np.array_equal(x, y) for x, y in zip(got.witnesses, want.witnesses))

    @pytest.fixture
    def staircase_calls(self, monkeypatch):
        from pencillab import koszul

        calls = []
        staircase = koszul.staircase_structure

        def counted(p, tol=pl.DEFAULT_TOL):
            calls.append(p)
            return staircase(p, tol)

        monkeypatch.setattr(koszul, "staircase_structure", counted)
        return calls

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_multiple_points_take_the_staircase(self, n, staircase_calls):
        # (I (+) M_n) + lam (M_n (+) I) is J_n(0) (+) N_n: the points (0, 1) and
        # (1, 0) are simple only at n = 1
        a, b = pl.shift_truncation_pair(n)
        got = pl.commuting_structure(a, b)[0]
        assert pl.structures_match(got, KroneckerStructure(jordan=[(n, 0.0)], nilpotent=[n]))
        assert len(staircase_calls) == (n > 1)

    def test_small_alpha_beside_a_clear_beta_is_read_off(self, staircase_calls):
        # |alpha| = 1e-9 lies in the guard band, but beta = 1 decides J_1(1e-9)
        a, b = np.diag([1.0, 1e-9]), np.eye(2)
        got = pl.commuting_structure(a, b)[0]
        assert not staircase_calls
        assert pl.structures_match(got, pl.staircase_structure(pl.Pencil(a, b)))
        assert sorted(lam.real for _, lam in got.jordan) == pytest.approx([1e-9, 1.0])

    def test_guard_band_point_takes_the_staircase(self, staircase_calls):
        # beta = 0 at both points, so |alpha| = 1e-9 decides, and it lies in the band
        with pytest.raises(pl.RankDecisionUnstable, match="within a factor 10"):
            pl.commuting_structure(np.diag([1.0, 1e-9]), np.zeros((2, 2)))
        assert len(staircase_calls) == 1

    def test_ill_conditioned_eigenvectors_take_the_staircase(self, staircase_calls):
        # eigenvectors 1e-6 apart: a backward error of 1e-16 in their coordinates
        # is one of 1e-4 in the pencil's, so the read-off is not trusted
        a = np.array([[1.0, 1e6], [0.0, 2.0]])
        got = pl.commuting_structure(a, a @ a)[0]
        assert len(staircase_calls) == 1
        assert pl.structures_match(got, pl.staircase_structure(pl.Pencil(a, a @ a)))
        assert got.nilpotent == (1,) and len(got.jordan) == 1

    def test_skewed_split_takes_the_staircase(self, monkeypatch, staircase_calls):
        from pencillab import koszul

        # e1 and a basis 1e-6 off it are each nearly invariant, with nearly a common
        # eigenvector, but T = [e1, skewed] puts a backward error of about 1 off its blocks
        e1 = np.array([[1.0], [0.0]])
        skewed = np.array([[1.0], [1e-6]]) / np.hypot(1.0, 1e-6)
        monkeypatch.setattr(koszul, "invariant_subspaces", lambda a: (None, (e1, skewed)))
        got = pl.commuting_structure(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))[0]
        assert len(staircase_calls) == 1
        assert pl.structures_match(got, KroneckerStructure(jordan=[(1, 1 / 3), (1, 0.5)]))

    def test_backward_error_counts_the_basis_conditioning(self, monkeypatch, staircase_calls):
        from pencillab import koszul

        # eigenvectors e1 and (h, 1) of A = [[1, h], [0, 2]], the second off by 1e-9:
        # the split's backward error, 1.4e-9, clears the cutoff 2e-7 by a factor 140,
        # but cond(T) = 2h = 2000 times it does not
        h = 1e3
        a = np.array([[1.0, h], [0.0, 2.0]])
        e1 = np.array([[1.0], [0.0]])
        off = np.array([[h], [1.0 + 1e-9]]) / np.hypot(h, 1.0 + 1e-9)
        monkeypatch.setattr(koszul, "invariant_subspaces", lambda a: (None, (e1, off)))
        got = pl.commuting_structure(a, a + 2.0 * np.eye(2))[0]
        assert len(staircase_calls) == 1
        assert pl.structures_match(got, KroneckerStructure(jordan=[(1, 1 / 3), (1, 0.5)]))

    def test_noncommuting_rejected(self):
        with pytest.raises(pl.NotCommuting):
            pl.commuting_structure(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                   np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestInvertibleCharacterization:
    def test_swapped_diagonals(self):
        ts = pl.spectrum_invertible_characterization(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
        np.testing.assert_allclose(by_coords(ts.points), [(1.0, 2.0), (2.0, 1.0)], atol=1e-10)

    def test_repeated_first_coefficient(self):
        ts = pl.spectrum_invertible_characterization(np.diag([3.0, 3.0]), np.diag([2.0, 5.0]))
        np.testing.assert_allclose(by_coords(ts.points), [(3.0, 2.0), (3.0, 5.0)], atol=1e-10)

    def test_identity_pair(self):
        ts = pl.spectrum_invertible_characterization(np.eye(2), np.eye(2))
        np.testing.assert_allclose(ts.points, [(1.0, 1.0)], atol=1e-12)

    def test_ratio_shared_by_two_points(self):
        # ratio 1 belongs to (1, 1) and (2, 2); (2, 1) has ratio 2 but is no joint point
        a, b = np.diag([1.0, 2.0, 4.0]), np.diag([1.0, 2.0, 2.0])
        ts = pl.spectrum_invertible_characterization(a, b)
        np.testing.assert_allclose(ts.points, [(1.0, 1.0), (2.0, 2.0), (4.0, 2.0)], atol=1e-12)
        assert ts.multiplicities == (1, 1, 1)
        assert all(np.isfinite(r).all() and max(r) < 1e-12 for r in ts.residuals)

    def test_rejects_singular_coefficient(self):
        with pytest.raises(pl.NotInvertible):
            pl.spectrum_invertible_characterization(np.diag([1.0, 0.0]), np.eye(2))

    def test_agrees_with_direct(self, rng):
        done = 0
        while done < 6:
            a, b = random_commuting_pair(rng, max_n=6)
            n = a.shape[0]
            if pl.numerical_rank(a) < n or pl.numerical_rank(b) < n:
                continue
            done += 1
            direct = pl.taylor_spectrum(a, b)
            ratio = pl.spectrum_invertible_characterization(a, b)
            equal, mismatches = pl.spectra_match(direct.points, ratio.points)
            assert equal, mismatches
            assert ratio.multiplicities == direct.multiplicities


class TestConditionMatrix:
    def test_signed_diag_fixture(self):
        report = pl.condition_matrix(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        assert report.zero_in_taylor is False
        assert report.pencil_singular is False
        assert report.origin_in_joint_range is True
        assert report.range_is_plane is True
        assert report.certificate.method == "joint-eigenvectors"
        assert all(ok for _, ok in report.implications)

    def test_zero_pair_all_true(self):
        report = pl.condition_matrix(np.zeros((2, 2)), np.zeros((2, 2)))
        assert report.zero_in_taylor and report.pencil_singular
        assert report.origin_in_joint_range and report.range_is_plane

    def test_nilpotent_proportional_pair(self):
        # singular commuting pair with a shared kernel: all four conditions hold
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        report = pl.condition_matrix(a, 2.0 * a)
        assert report.zero_in_taylor and report.pencil_singular
        assert report.origin_in_joint_range and report.range_is_plane
        assert report.certificate is not None

    def test_singular_pair_sweeps_once(self, monkeypatch):
        # one sigma_n sweep decides (i), and the kernel that proves it gives (ii)
        from pencillab import kronecker, numrange

        sweeps, built = [], []
        verdict, resultant = kronecker._sweep_verdict, kronecker._toeplitz_resultant

        def counted(p, sweep, tol):
            sweeps.append(p)
            return verdict(p, sweep, tol)

        def counted_resultant(p, k, *args):
            built.append(k)
            return resultant(p, k, *args)

        monkeypatch.setattr(kronecker, "_sweep_verdict", counted)
        monkeypatch.setattr(numrange, "_sweep_verdict", counted)
        monkeypatch.setattr(kronecker, "_toeplitz_resultant", counted_resultant)
        for a in (np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])):
            sweeps.clear()
            built.clear()
            report = pl.condition_matrix(a, 2.0 * a)
            assert report.pencil_singular and report.certificate.method == "kernel"
            assert len(sweeps) == 1 and built == [0]

    def test_separated_hull_skips_isotropic_search(self, monkeypatch):
        from pencillab import numrange

        calls = []
        search = numrange.isotropic_search

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(numrange, "isotropic_search", counted)
        report = pl.condition_matrix(np.diag([1.0, 1.2]), np.diag([0.3j, -0.5j]))
        assert report.membership.verdict == "outside"
        assert not report.origin_in_joint_range and report.certificate is None
        assert calls == []

    def test_singular_pencil_with_exact_koszul_violates_theorem(self, monkeypatch, fixtures_dir):
        # the paper's theorem read backwards: a singular pencil puts the
        # origin in the Taylor spectrum, so an exact complex there is a bug
        from pencillab import koszul
        from pencillab.io import load_pencil

        p = load_pencil(fixtures_dir / "zero_pencil_2x2.json")

        def exact(a, b, z1, z2, tol=pl.DEFAULT_TOL):
            return koszul.KoszulAssessment((z1, z2), rank_d1=2, rank_d2=2, dim=2, exact=True)

        monkeypatch.setattr(koszul, "koszul_at", exact)
        with pytest.raises(pl.ImplicationViolated, match=r"\(i\) implies \(0\)"):
            pl.condition_matrix(p.a, p.b)

    def test_noncommuting_rejected(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        p = pl.assemble(s)
        assert not pl.check_commuting(p.a, p.b)
        with pytest.raises(pl.NotCommuting):
            pl.condition_matrix(p.a, p.b)


def _hull_holds_origin(z1, z2) -> bool:
    """Whether convex weights on the points (z1_k, z2_k) average to 0, by linear programming."""
    from scipy.optimize import linprog

    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    equalities = np.vstack([z1.real, z1.imag, z2.real, z2.imag, np.ones(len(z1))])
    result = linprog(np.zeros(len(z1)), A_eq=equalities, b_eq=np.eye(5)[4], bounds=(0, None))
    assert result.status in (0, 2), result.message  # feasible or infeasible, nothing else
    return result.status == 0


def _normal_joint_points():
    rng = np.random.default_rng(2402)
    inside = complex_matrix(rng, 2, 6)
    inside -= inside.mean(axis=1, keepdims=True)
    outside = complex_matrix(rng, 2, 4)
    outside[0] = rng.uniform(0.5, 1.5, 4) + 1j * outside[0].imag  # Re x*Ax >= 0.5
    return {
        "inside": inside,
        "outside": outside,
        # the origin halves the edge from (1, 2) to (-1, -2); Im z1 > 0 at the other points
        "edge": np.array([[1, -1, 0.5 + 1j, -0.2 + 0.7j], [2, -2, 1 - 0.3j, 0.4 + 0.5j]]),
        "repeated-inside": np.array([[1, 1, -1, -1, 2j], [2, 2, -2, -2, 1]]),
        "repeated-outside": np.array([[1, 1, 1.5 + 1j, 1.5 + 1j, 0.7], [2, 2, -1, -1, 3j]]),
    }


NORMAL_JOINT_POINTS = _normal_joint_points()


def _normal_pair(z1, z2, variant):
    """U diag(z1) U*, U diag(z2) U*, then at (cA, dB) or in other unitary coordinates."""
    rng = np.random.default_rng(29)
    n = len(z1)
    u = np.linalg.qr(complex_matrix(rng, n, n))[0]
    a, b = (u * z1) @ u.conj().T, (u * z2) @ u.conj().T
    if variant == "scaled":
        return 1e3 * a, 1e-2 * b, 1e3 * z1, 1e-2 * z2
    if variant == "rotated":
        q = np.linalg.qr(complex_matrix(rng, n, n))[0]
        return q @ a @ q.conj().T, q @ b @ q.conj().T, z1, z2
    return a, b, z1, z2


@pytest.fixture
def search_calls(monkeypatch):
    from pencillab import numrange

    calls = []
    search = numrange.isotropic_search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(numrange, "isotropic_search", counted)
    return calls


class TestNormalPairs:
    @pytest.mark.parametrize("variant", ["plain", "scaled", "rotated"])
    @pytest.mark.parametrize("case", list(NORMAL_JOINT_POINTS))
    def test_joint_eigenvectors_decide_condition_ii(self, case, variant, search_calls):
        a, b, z1, z2 = _normal_pair(*NORMAL_JOINT_POINTS[case], variant)
        inside = _hull_holds_origin(z1, z2)
        assert inside == ("inside" in case or case == "edge")
        report = pl.condition_matrix(a, b)
        assert not report.pencil_singular
        # W(A, B) is the hull of the joint points, so (ii) and (iii) both say "inside"
        assert report.origin_in_joint_range == inside
        assert report.range_is_plane == inside
        if inside:
            assert report.certificate.method == "joint-eigenvectors"
            assert report.certificate.is_valid(a, b)
        else:
            assert report.certificate is None
        assert search_calls == []

    def test_commuting_analysis_shares_its_spectrum(self, monkeypatch, search_calls):
        from pencillab import koszul

        computed = []
        joint = koszul._joint_spectrum

        def counted(*args):
            computed.append(args)
            return joint(*args)

        monkeypatch.setattr(koszul, "_joint_spectrum", counted)
        a, b, *_ = _normal_pair(*NORMAL_JOINT_POINTS["inside"], "plain")
        structure, spectrum, conditions = pl.commuting_analysis(a, b)
        assert conditions.certificate.method == "joint-eigenvectors"
        assert len(computed) == 1 and search_calls == []

    def test_an_invalid_vector_is_false_without_a_search(self, monkeypatch, search_calls):
        # with no separation certificate the construction runs; its vector
        # is not isotropic when the origin is outside, and (ii) is false
        from pencillab import numrange

        membership = numrange.conv_hull_membership
        monkeypatch.setattr(numrange, "conv_hull_membership", lambda a, b: dataclasses.replace(
            membership(a, b), verdict="boundary", certificate=None))
        a, b, *_ = _normal_pair(*NORMAL_JOINT_POINTS["outside"], "plain")
        report = pl.condition_matrix(a, b)
        assert not report.origin_in_joint_range and report.certificate is None
        assert search_calls == []

    def test_an_inside_hull_without_an_isotropic_vector_is_a_disagreement(self, monkeypatch):
        from pencillab import numrange

        def skewed(a, b, points, bases):
            return numrange._certificate(a, b, bases[0][:, 0], "joint-eigenvectors")

        monkeypatch.setattr(numrange, "_joint_eigenvector_certificate", skewed)
        with pytest.raises(pl.OracleDisagreement, match="joint eigenvectors"):
            pl.condition_matrix(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))

    def test_a_doubly_commuting_pair_that_is_not_normal_is_searched(self, search_calls):
        # J_2(0) and I commute doubly, but J_2(0) is not normal; the block
        # (-1, -1) brings the origin into the range, since W(4 J_2(0)) holds 1
        from pencillab import koszul

        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert pl.is_doubly_commuting(jordan, np.eye(2))
        assert not koszul.check_commuting(jordan, jordan.T)
        a = np.block([[4.0 * jordan, np.zeros((2, 1))], [np.zeros((1, 2)), -np.eye(1)]])
        b = np.diag([1.0, 1.0, -1.0])
        report = pl.condition_matrix(a, b)
        assert not report.pencil_singular and report.range_is_plane
        assert report.origin_in_joint_range and report.certificate.method == "random-search"
        assert len(search_calls) == 1

    @staticmethod
    def _near_normal_pair():
        # A has a departure from normality of 5e-8 over an eigenvalue gap of 1e-3,
        # so its commutator with A* passes the normality test, but the Schur
        # vectors of 0.5 and 0.501 meet at 5e-5; B = f(A) takes the eigenvalues
        # to 1, 0.9995 and -0.99975, and weights (1/4, 1/4, 1/2) average the joint points to 0
        a = np.array([[0.5, 5e-8, 0.0], [0.0, 0.501, 0.0], [0.0, 0.0, -0.5005]])
        f = np.polyfit(np.diag(a), [1.0, 0.9995, -0.99975], 2)
        return a, f[0] * a @ a + f[1] * a + f[2] * np.eye(3)

    @staticmethod
    def _hidden_jordan_pair():
        # the double joint point (0, 1) carries J_2(8e-6), whose range is a disk
        # of radius 4e-6: the origin lies 1e-6 outside the hull of the joint
        # points but inside W(A, B); the first Schur vector e_1 is an exact eigenvector
        a = np.diag([0.0, 0.0, 2e-6, 1.0])
        a[0, 1] = 8e-6
        return a, np.diag([1.0, 1.0, -1.0, 0.0])

    @pytest.mark.parametrize("pair", ["_near_normal_pair", "_hidden_jordan_pair"])
    def test_eigenspaces_that_are_not_orthonormal_and_invariant_are_searched(
            self, pair, search_calls):
        from pencillab import koszul, numrange

        a, b, _ = koszul._require_commuting(*getattr(self, pair)())
        assert koszul.check_commuting(a, a.conj().T) and koszul.check_commuting(b, b.conj().T)
        spectrum, bases = koszul._schur_joint_spectrum(a, b, pl.DEFAULT_TOL)
        assert numrange._joint_eigenvector_certificate(a, b, spectrum.points, bases) is None
        report = pl.condition_matrix(a, b)
        assert report.membership.verdict == "inside"
        assert report.origin_in_joint_range and report.certificate.method == "random-search"
        assert len(search_calls) == 1

    def test_the_analyze_path_searches_a_near_normal_pair(self, search_calls):
        # commuting_analysis hands its own joint spectrum to the same gate
        from pencillab import koszul

        _, _, conditions = koszul.commuting_analysis(*self._near_normal_pair())
        assert conditions.origin_in_joint_range
        assert conditions.certificate.method == "random-search"
        assert len(search_calls) == 1


class TestShiftPairs:
    @pytest.mark.parametrize("n", [21, 22])
    def test_long_jordan_blocks_raise_no_warning(self, n):
        # the left and right eigenvectors of J_n(2) are numerically orthogonal, so
        # its eigenvalue condition number overflows; the suite makes that warning an error
        a, b = pl.invertible_shift_pair(n)
        direct = pl.taylor_spectrum(a, b)
        ratio = pl.spectrum_invertible_characterization(a, b)
        assert pl.spectra_match(direct.points, ratio.points)[0]
        assert direct.multiplicities == ratio.multiplicities == (n, n)

    def test_n1_values(self):
        a, b = pl.shift_truncation_pair(1)
        np.testing.assert_allclose(a, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(b, np.diag([0.0, 1.0]))

    def test_n1_members(self):
        a, b = pl.shift_truncation_pair(1)
        ts = pl.taylor_spectrum(a, b)
        np.testing.assert_allclose(by_coords(ts.points), [(0.0, 1.0), (1.0, 0.0)], atol=1e-12)

    def test_n2_determinant_profile(self):
        from pencillab.linalg import pencil_determinant_coefficients

        a, b = pl.shift_truncation_pair(2)
        p = pl.Pencil(a, b)
        coeffs = pencil_determinant_coefficients(p) * p.norm_scale() ** 4
        np.testing.assert_allclose(coeffs, [0.0, 0.0, 1.0, 0.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_multiplicities(self, n):
        ts = pl.taylor_spectrum(*pl.shift_truncation_pair(n))
        np.testing.assert_allclose(ts.points, [(0.0, 1.0), (1.0, 0.0)], atol=1e-12)
        assert ts.multiplicities == (n, n)

    def test_commuting_all_sizes(self):
        for n in range(1, 8):
            a, b = pl.shift_truncation_pair(n)
            assert pl.check_commuting(a, b)
            ia, ib = pl.invertible_shift_pair(n)
            assert pl.check_commuting(ia, ib)
            assert pl.numerical_rank(ia) == 2 * n and pl.numerical_rank(ib) == 2 * n
