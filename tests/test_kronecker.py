import json

import numpy as np
import pytest

import pencillab as pl
from pencillab.generators import random_commuting_pair, random_singular_pencil
from pencillab.kronecker import _toeplitz_resultant
from pencillab.linalg import RANK_GUARD, node_stack, rank_decision

from conftest import REPO, complex_matrix


def _unitary(n, rng):
    return np.linalg.qr(complex_matrix(rng, n, n))[0]


def _resultant_cutoff(p, k, tol):
    """Rank cutoff of the degree-k Toeplitz resultant of the balanced pencil."""
    q = p.balanced()[0]
    t = _toeplitz_resultant(q, k)
    return rank_decision(np.linalg.svd(t, compute_uv=False), t.shape, q.norm_scale(), tol)[1]


def _on_node_pencil(rank, shape, rng, turn=0.0):
    """diag(-r w^k) + lam I, k < rank, padded with zeros to shape, in random unitary coordinates.

    w = exp(2 pi i / (max(shape) + 1)) and the sweep circle has radius
    |A| / |B| = r, so the eigenvalues r w^k sit on rank of the
    max(shape) + 1 nodes; ``turn`` rotates them that far off the nodes.
    """
    rows, cols = shape
    r = 10 ** rng.uniform(-1, 1)
    lam = r * np.exp(1j * (2 * np.pi * np.arange(rank) / (max(shape) + 1) + turn))
    a = np.zeros(shape, dtype=complex)
    b = np.zeros(shape, dtype=complex)
    a[:rank, :rank] = np.diag(-lam)
    b[:rank, :rank] = np.eye(rank)
    u, v = _unitary(rows, rng), _unitary(cols, rng)
    return pl.Pencil(u @ a @ v, u @ b @ v), lam


class TestPencil:
    @pytest.mark.parametrize("bad", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, -np.inf]],
        [[1.0, complex(0.0, np.inf)], [0.0, 1.0]],
        np.ones((2, 2, 2)),
    ], ids=["nan", "inf", "complex-inf", "3-d"])
    def test_public_constructor_validates_each_coefficient(self, bad):
        good = np.eye(2)
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(pl.InvalidMatrix):
                pl.Pencil(a, b)

    def test_derived_pencils_are_read_only_and_equal_to_rebuilt_ones(self, rng):
        p = pl.Pencil(complex_matrix(rng, 3, 4), 1e3 * complex_matrix(rng, 3, 4))
        q, rho = p.balanced()
        for derived, rebuilt in ((q, pl.Pencil(p.a, rho * p.b)),
                                 (p.transposed(), pl.Pencil(p.a.T, p.b.T))):
            for m, want in ((derived.a, rebuilt.a), (derived.b, rebuilt.b)):
                assert m.dtype == complex and m.flags.c_contiguous and not m.flags.writeable
                np.testing.assert_array_equal(m, want)
            assert derived.norms == rebuilt.norms


class TestBlocks:
    def test_l_block_display(self):
        p = pl.build_block("L", 1)
        np.testing.assert_allclose(p.a, [[0.0, 1.0]])
        np.testing.assert_allclose(p.b, [[1.0, 0.0]])

    def test_jordan_1x1(self):
        p = pl.build_block("jordan", 1, 5.0)
        np.testing.assert_allclose(p.a, [[5.0]])
        np.testing.assert_allclose(p.b, [[1.0]])

    def test_nilpotent_display(self):
        p = pl.build_block("nilpotent", 2)
        np.testing.assert_allclose(p.a, np.eye(2))
        np.testing.assert_allclose(p.b, [[0.0, 1.0], [0.0, 0.0]])

    def test_degenerate_l_blocks(self):
        assert pl.build_block("L", 0).shape == (0, 1)
        assert pl.build_block("L_transpose", 0).shape == (1, 0)

    def test_bad_kind(self):
        with pytest.raises(pl.InvalidStructure):
            pl.build_block("X", 1)


class TestAssemble:
    def test_one_by_one_zero(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1)], col_minimal=[(0, 1)])
        p = pl.assemble(s)
        assert p.shape == (1, 1)
        np.testing.assert_allclose(p.a, [[0.0]])
        np.testing.assert_allclose(p.b, [[0.0]])

    def test_single_jordan(self):
        s = pl.KroneckerStructure(jordan=[(1, 2.0)])
        p = pl.assemble(s)
        np.testing.assert_allclose(p.a, [[2.0]])
        np.testing.assert_allclose(p.b, [[1.0]])

    def test_four_by_four_singular(self):
        s = pl.KroneckerStructure(
            row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)]
        )
        p = pl.assemble(s)
        assert p.shape == (4, 4)
        assert bool(pl.is_singular(p))

    def test_shape_arithmetic(self, rng):
        from pencillab.generators import random_structure

        for _ in range(30):
            s = random_structure(rng, max_size=10)
            p = pl.assemble(s)
            assert p.shape == (s.rows, s.cols)


class TestScramble:
    def test_round_trip_identity(self):
        s = pl.KroneckerStructure(jordan=[(2, 1.0)], col_minimal=[(1, 1)], row_minimal=[(1, 1)])
        p = pl.assemble(s)
        scrambled, pair = pl.scramble(p, seed=5)
        recovered = pair.apply(scrambled)
        assert np.linalg.norm(recovered.a - p.a) <= 1e-10 * max(1, np.linalg.norm(p.a))
        assert np.linalg.norm(recovered.b - p.b) <= 1e-10 * max(1, np.linalg.norm(p.b))

    def test_different_seeds_same_structure(self):
        s = pl.KroneckerStructure(col_minimal=[(1, 1)], row_minimal=[(1, 1)], jordan=[(1, 0.5)])
        p = pl.assemble(s)
        p1, _ = pl.scramble(p, seed=1)
        p2, _ = pl.scramble(p, seed=2)
        assert np.linalg.norm(p1.a - p2.a) > 1e-6
        assert pl.structures_match(pl.staircase_structure(p1), pl.staircase_structure(p2))

    def test_condition_bound(self):
        p = pl.assemble(pl.KroneckerStructure(jordan=[(3, 1.0)]))
        for seed in range(10):
            _, pair = pl.scramble(p, seed=seed, max_cond=100.0)
            assert np.linalg.cond(pair.s) < 100.0
            assert np.linalg.cond(pair.t) < 100.0


class TestStaircase:
    def test_jordan_round_trip(self, tol):
        s = pl.KroneckerStructure(jordan=[(2, 0.5)])
        scrambled, _ = pl.scramble(pl.assemble(s), seed=11)
        assert pl.structures_match(pl.staircase_structure(scrambled, tol), s)

    def test_one_by_one_zero(self):
        p = pl.Pencil(np.zeros((1, 1)), np.zeros((1, 1)))
        s = pl.staircase_structure(p)
        assert s.row_minimal == ((0, 1),)
        assert s.col_minimal == ((0, 1),)

    def test_l1_pair(self):
        s = pl.KroneckerStructure(col_minimal=[(1, 1)], row_minimal=[(1, 1)])
        p = pl.assemble(s)
        got = pl.staircase_structure(p)
        assert got.col_minimal == ((1, 1),)
        assert got.row_minimal == ((1, 1),)
        assert not got.jordan and not got.nilpotent

    def test_signed_diag_fixture(self, tol):
        p = pl.Pencil(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        s = pl.staircase_structure(p, tol)
        assert not s.col_minimal and not s.row_minimal and not s.nilpotent
        assert len(s.jordan) == 2
        for size, lam in s.jordan:
            assert size == 1
            assert abs(lam - 0.5) < 1e-8

    def test_rectangular(self, tol):
        s = pl.KroneckerStructure(col_minimal=[(0, 1), (2, 1)], jordan=[(2, -1.0)])
        scrambled, _ = pl.scramble(pl.assemble(s), seed=3)
        assert pl.structures_match(pl.staircase_structure(scrambled, tol), s)

    def test_round_trip_battery(self, tol):
        from pencillab.generators import random_structure

        rng = np.random.default_rng(314)
        for i in range(60):
            s = random_structure(rng, max_size=12)
            scrambled, _ = pl.scramble(pl.assemble(s), seed=9000 + i, max_cond=100.0)
            got = pl.staircase_structure(scrambled, tol)
            assert pl.structures_match(s, got), f"case {i}: {s} -> {got}"


class TestSingularity:
    def test_signed_diag_not_singular(self):
        p = pl.Pencil(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        verdict = pl.is_singular(p)
        assert not verdict
        assert verdict.normal_rank == 2 and verdict.kernel is None

    def test_zero_pencil(self):
        assert bool(pl.is_singular(pl.Pencil(np.zeros((2, 2)), np.zeros((2, 2)))))

    def test_minimal_blocks_singular(self):
        s = pl.KroneckerStructure(row_minimal=[(1, 1)], col_minimal=[(1, 1)])
        assert bool(pl.is_singular(pl.assemble(s)))

    @pytest.mark.parametrize("a, b", [
        (np.diag([1.0, 1e-8]), np.zeros((2, 2))),
        (np.diag([1.0, 1e-6]), 1e-4 * np.diag([1.0, 1e-6])),
    ])
    def test_unbalanced_regular(self, tol, a, b):
        # the node radius |A|/|B| is clipped to 1e3, so anchoring a node at
        # max(|A|, |B|) max(1, |lam|) would overstate |A + lam B| a thousandfold
        verdict = pl.is_singular(pl.Pencil(a, b), tol)
        assert not verdict and verdict.normal_rank == 2 and verdict.rank_margin > 10

    def test_norms_taken_once_per_pencil(self, monkeypatch):
        import dataclasses

        calls = []
        norm = np.linalg.norm

        def counted(x, *args, **kwargs):
            calls.append(np.shape(x))
            return norm(x, *args, **kwargs)

        p = pl.Pencil(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        monkeypatch.setattr(np.linalg, "norm", counted)
        assert not pl.is_singular(p)
        assert not pl.is_singular(p)
        monkeypatch.undo()
        # the node radius and the node anchors both read |A|_F and |B|_F
        assert calls == [(3, 3), (3, 3)]
        assert p.norms == (norm(p.a), norm(p.b)) and p.norm_scale() == norm(p.a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.norms = (1.0, 1.0)

    def test_every_node_in_guard_band(self, tol):
        # sigma_2 = 1e-9 sits a factor 5 above the cutoff 2e-10 at every node
        with pytest.raises(pl.RankDecisionUnstable):
            pl.is_singular(pl.Pencil(np.diag([1.0, 1e-9]), np.zeros((2, 2))), tol)

    @pytest.mark.parametrize("t", [1e6, 1e9])
    def test_deficiency_hidden_from_the_qr_diagonal(self, tol, t):
        # A + lam A: sigma_min / sigma_1 ~ 2 / t^2 reads singular at every
        # node, though the unpivoted QR diagonal's ratio is only ~ 1 / t;
        # the common kernel vector of A and A proves it
        a = np.array([[1.0, t], [0.0, 2.0]])
        p = pl.Pencil(a, a)
        verdict = pl.is_singular(p, tol)
        assert verdict.singular and verdict.normal_rank == 1
        kernel = verdict.kernel
        t0 = _toeplitz_resultant(p.balanced()[0], 0)
        assert kernel.degree == 0 and kernel.margin > RANK_GUARD
        assert kernel.residual == pytest.approx(np.linalg.norm(t0 @ kernel.coefficients))
        assert kernel.residual <= _resultant_cutoff(p, 0, tol) / RANK_GUARD

    @pytest.mark.parametrize("seed", range(10))
    def test_node_on_eigenvalue(self, tol, seed):
        # A = cB here, so the node circle has radius |c| and one node lands
        # on the eigenvalue, where A + lam B is pure rounding noise
        s = pl.KroneckerStructure(
            col_minimal=[(0, 1)], row_minimal=[(0, 1)], jordan=[(1, -1.4 - 1.4j)] * 3
        )
        p, _ = pl.scramble(pl.assemble(s), seed, max_cond=100.0)
        verdict = pl.is_singular(p, tol)
        assert verdict.singular and verdict.kernel.degree == 0
        assert verdict.normal_rank == 3 and verdict.rank_margin > 10

    def test_singular_iff_minimal_blocks(self, tol):
        from pencillab.generators import random_structure

        rng = np.random.default_rng(55)
        for i in range(25):
            s = random_structure(rng, max_size=10, square=True)
            scrambled, _ = pl.scramble(pl.assemble(s), seed=100 + i)
            verdict = pl.is_singular(scrambled, tol)
            got = pl.staircase_structure(scrambled, tol)
            assert bool(verdict) == bool(got.col_minimal)
            assert bool(verdict) == bool(got.row_minimal)

    @pytest.mark.parametrize("turn", [0.0, 1e-7])
    def test_eigenvalues_on_all_but_one_node(self, tol, turn):
        rng = np.random.default_rng(1201)
        for n in range(1, 25):
            p, lam = _on_node_pencil(n, (n, n), rng, turn)
            nodes = node_stack(p)[0]
            assert np.abs(nodes[:n] - lam).max() <= (turn + 1e-12) * abs(lam[0])
            verdict = pl.is_singular(p, tol)
            assert not verdict and verdict.normal_rank == n and verdict.node_count == n + 1
            # the one node off the spectrum proves regularity
            assert verdict.deciding_node == pytest.approx(nodes[n])
            sigma = np.linalg.svd(p.at(verdict.deciding_node), compute_uv=False)[-1]
            assert verdict.sigma_min == pytest.approx(sigma) and sigma > 1e-3 * abs(lam[0])

    def test_singular_with_eigenvalues_on_nodes(self, tol):
        # n - 1 of the n + 1 nodes sit on eigenvalues, where the rank drops to n - 2
        rng = np.random.default_rng(1204)
        for n in range(2, 25):
            p, lam = _on_node_pencil(n - 1, (n, n), rng)
            assert np.abs(node_stack(p)[0][: n - 1] - lam).max() <= 1e-12 * abs(lam[0])
            verdict = pl.is_singular(p, tol)
            assert verdict.singular and verdict.kernel is not None
            assert verdict.normal_rank == n - 1 and verdict.node_count == n + 1

    def test_scrambled_minimal_pairs(self, tol):
        for eps in range(11):
            for delta in range(11):
                s = pl.KroneckerStructure(col_minimal=[(eps, 1)], row_minimal=[(delta, 1)])
                p, _ = pl.scramble(pl.assemble(s), seed=100 * eps + delta, max_cond=100.0)
                verdict = pl.is_singular(p, tol)
                assert verdict.singular and verdict.kernel.degree == eps
                assert verdict.normal_rank == eps + delta and verdict.node_count == p.rows + 1

    @pytest.mark.parametrize("index", [0, 1, 3, 15])
    def test_poly_singular_pair_with_no_clean_node(self, tol, index):
        # sigma_n is negligible at every node, while sigma_(n-1) lies in the
        # guard band at each one: the normal rank is unknown, the verdict is not
        rng = np.random.default_rng(2026)
        for _ in range(index + 1):
            p = pl.Pencil(*random_commuting_pair(rng, max_n=40, kind="poly-singular"))
        verdict = pl.is_singular(p, tol)
        assert verdict.singular and verdict.normal_rank is None and verdict.rank_margin <= RANK_GUARD
        kernel = verdict.kernel
        t = _toeplitz_resultant(p.balanced()[0], kernel.degree)
        assert kernel.degree == 0 and np.linalg.norm(t @ kernel.coefficients) <= _resultant_cutoff(
            p, kernel.degree, tol)

    def test_regularity_bound(self, tol):
        # any (E, F) with |E|_2 + |lam*| |F|_2 < sigma_min keeps A + E + lam* (B + F)
        # invertible; the last draw spends the budget along the least singular pair
        rng = np.random.default_rng(2027)
        for n in range(1, 13):
            p = pl.Pencil(complex_matrix(rng, n, n), 10.0 ** rng.uniform(-3, 3) * complex_matrix(rng, n, n))
            verdict = pl.is_singular(p, tol)
            lam, bound = verdict.deciding_node, verdict.sigma_min
            u, _, vh = np.linalg.svd(p.at(lam))
            for draw in range(5):
                e, f = complex_matrix(rng, n, n), complex_matrix(rng, n, n)
                if draw == 4:  # lam* F in phase with E
                    e = -np.outer(u[:, -1], vh[-1])
                    f = e * abs(lam) / lam
                share = rng.uniform()
                e = e * (0.99 * share * bound / np.linalg.norm(e, 2))
                f = f * (0.99 * (1.0 - share) * bound / (abs(lam) * np.linalg.norm(f, 2)))
                sigma = np.linalg.svd(p.a + e + lam * (p.b + f), compute_uv=False)[-1]
                assert sigma >= 0.01 * bound * (1.0 - 1e-8)

    def test_regular_sweep_takes_one_values_only_svd(self, monkeypatch, tol):
        calls = []

        def spy(name):
            kernel = getattr(np.linalg, name)

            def counted(m, *args, **kwargs):
                calls.append((name, np.shape(m), kwargs.get("compute_uv", True)))
                return kernel(m, *args, **kwargs)
            return counted

        rng = np.random.default_rng(16)
        p = pl.Pencil(complex_matrix(rng, 9, 9), complex_matrix(rng, 9, 9))
        for name in ("qr", "svd"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        assert not pl.is_singular(p, tol)
        assert calls == [("svd", (10, 9, 9), False)]

    def test_seeded_corpus(self, tol):
        # a slice of the corpus in CHANGES.md: each verdict is the planted one,
        # also for (cA, dB), and carries its certificate
        rng = np.random.default_rng(2028)
        planted = {"poly": False, "blockdiag": False, "poly-singular": True, "zero-block": True,
                   "structured": True}
        cases = [(random_singular_pencil(rng, max_size=10)[0], True) for _ in range(50)]
        for kind, singular in planted.items():
            cases += [(pl.Pencil(*random_commuting_pair(rng, max_n=16, kind=kind)), singular)
                      for _ in range(20)]
        for p, singular in cases:
            c, d = 10.0 ** rng.uniform(-3, 3, 2)
            for q in (p, pl.Pencil(c * p.a, d * p.b)):
                verdict = pl.is_singular(q, tol)
                assert bool(verdict) == singular
                if singular:
                    kernel = verdict.kernel
                    t = _toeplitz_resultant(q.balanced()[0], kernel.degree)
                    assert np.linalg.norm(t @ kernel.coefficients) <= _resultant_cutoff(
                        q, kernel.degree, tol) / RANK_GUARD
                else:
                    sigma = np.linalg.svd(q.at(verdict.deciding_node), compute_uv=False)[-1]
                    assert verdict.sigma_min == pytest.approx(sigma, rel=1e-8)


class TestNormalRank:
    def test_identity(self):
        assert pl.normal_rank(pl.Pencil(np.eye(3), np.zeros((3, 3))))[0] == 3

    def test_zero(self):
        assert pl.normal_rank(pl.Pencil(np.zeros((2, 2)), np.zeros((2, 2))))[0] == 0

    def test_l1_pair(self):
        s = pl.KroneckerStructure(col_minimal=[(1, 1)], row_minimal=[(1, 1)])
        p = pl.assemble(s)
        assert pl.normal_rank(p)[0] == 2
        # brute force over a lambda grid agrees
        brute = max(
            pl.numerical_rank(p.at(lam))
            for lam in np.linspace(-3, 3, 21) + 1j * np.linspace(-2.3, 2.9, 21)
        )
        assert brute == 2

    def test_rectangular_eigenvalues_on_nodes(self, tol):
        # an m x (m + 1) pencil sweeps m + 2 nodes, m of them on its eigenvalues
        rng = np.random.default_rng(1202)
        for m in range(1, 13):
            p, lam = _on_node_pencil(m, (m, m + 1), rng)
            assert np.abs(node_stack(p)[0][:m] - lam).max() <= 1e-12 * abs(lam[0])
            assert pl.normal_rank(p, tol)[0] == m

    def test_square_deficiency_matches_singularity(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        p = pl.assemble(s)
        assert pl.normal_rank(p)[0] < p.rows


class TestEquivalenceTransforms:
    def test_recovers_canonical_form(self, tol):
        s = pl.KroneckerStructure(
            row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)]
        )
        target = pl.assemble(s)
        scrambled, _ = pl.scramble(target, seed=21)
        smat, tmat = pl.canonical_transforms(scrambled, s, tol)
        assert np.linalg.norm(smat @ scrambled.a @ tmat - target.a) < 1e-8
        assert np.linalg.norm(smat @ scrambled.b @ tmat - target.b) < 1e-8
        assert pl.numerical_rank(smat) == pl.numerical_rank(tmat) == 4

    def test_unavailable_for_inequivalent(self, tol):
        p = pl.Pencil(np.eye(3), np.zeros((3, 3)))
        zero = pl.KroneckerStructure(row_minimal=[(0, 3)], col_minimal=[(0, 3)])
        with pytest.raises(pl.TransformUnavailable):
            pl.canonical_transforms(p, zero, tol)
        # a 4 x 4 singular-only structure that is not the scrambled pencil's
        scrambled, _ = pl.scramble(pl.assemble(pl.KroneckerStructure(
            row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])), seed=21)
        other = pl.KroneckerStructure(row_minimal=[(0, 1), (2, 1)], col_minimal=[(0, 2)])
        with pytest.raises(pl.TransformUnavailable):
            pl.canonical_transforms(scrambled, other, tol)
        with pytest.raises(pl.InvalidStructure):
            pl.canonical_transforms(scrambled, pl.KroneckerStructure(jordan=[(4, 1.0)]), tol)


def _scaled(s: pl.KroneckerStructure, c: complex) -> pl.KroneckerStructure:
    """The structure with every finite eigenvalue multiplied by c."""
    return pl.KroneckerStructure(
        col_minimal=s.col_minimal,
        row_minimal=s.row_minimal,
        jordan=[(size, c * lam) for size, lam in s.jordan],
        nilpotent=s.nilpotent,
    )


class TestFiniteSpectrum:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("lam", [0.7 - 0.7j, -1.4j], ids=["0.7-0.7j", "-1.4j"])
    def test_one_by_one_jordan(self, tol, lam, seed):
        # a 1x1 block puts its eigenvalue exactly on the pencil's own scale |A|/|B|
        s = pl.KroneckerStructure(jordan=[(1, lam)])
        scrambled, _ = pl.scramble(pl.assemble(s), seed=seed)
        assert pl.structures_match(pl.staircase_structure(scrambled, tol), s)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_rescaled_b_divides_eigenvalues(self, tol, c):
        s = pl.KroneckerStructure(jordan=[(2, 1.0), (1, 3.0), (1, -2j)])
        p = pl.assemble(s)
        scrambled, _ = pl.scramble(pl.Pencil(p.a, c * p.b), seed=0)
        got = pl.staircase_structure(scrambled, tol)
        assert pl.structures_match(_scaled(got, c), s), f"c={c}: {got}"

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_rescaled_b_singular_structure(self, tol, c):
        # minimal indices and infinite chains are decided on the same scale
        s = pl.KroneckerStructure(
            col_minimal=[(1, 1)], row_minimal=[(2, 1)], jordan=[(2, 1.0), (1, -2j)], nilpotent=[2]
        )
        p = pl.assemble(s)
        scrambled, _ = pl.scramble(pl.Pencil(p.a, c * p.b), seed=0)
        got = pl.staircase_structure(scrambled, tol)
        assert pl.structures_match(_scaled(got, c), s), f"c={c}: {got}"

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_small_close_eigenvalues(self, tol, c):
        diag = np.array([0.003, 0.0045 + 0.001j, -0.006, 0.01j, 0.02, -0.03 + 0.01j])
        p = pl.Pencil(np.diag(diag), -c * np.eye(len(diag)))
        got = pl.staircase_structure(p, tol)
        # the block (a, -c) is strictly equivalent to the Jordan block (-a / c, 1)
        expected = pl.KroneckerStructure(jordan=[(1, -a) for a in diag])
        assert pl.structures_match(_scaled(got, c), expected), f"c={c}: {got}"

    @pytest.mark.parametrize("seed", [101, 202])
    @pytest.mark.parametrize("gap", [1e-2, 1e-3])
    def test_close_simple_eigenvalues(self, tol, gap, seed):
        # once the chain ranks certify two close points, no distance guard may reject them
        lam = np.array([0.5, 0.5 + gap, -1.0 + 0.5j, 1.5j, -2.0, 1.2 - 0.7j])
        x = pl.kronecker.random_well_conditioned(6, np.random.default_rng(seed), 30.0)
        p = pl.Pencil(x @ np.diag(-lam) @ np.linalg.inv(x), np.eye(6))
        expected = pl.KroneckerStructure(jordan=[(1, -v) for v in lam])
        got = pl.staircase_structure(p, tol)
        assert pl.structures_match(got, expected), f"gap={gap}: {got}"

    def test_structures_up_to_size_24(self, tol):
        # every other pencil has B rescaled by 10**U(-3, 3); a wrong answer
        # is a failure, an honest RankDecisionUnstable is not
        from pencillab.generators import random_structure

        rng = np.random.default_rng(2424)
        recovered = 0
        for i in range(200):
            s = random_structure(rng, max_size=24)
            c = 10.0 ** rng.uniform(-3.0, 3.0) if i % 2 else 1.0
            p = pl.assemble(s)
            scrambled, _ = pl.scramble(pl.Pencil(p.a, c * p.b), seed=24000 + i, max_cond=100.0)
            try:
                got = pl.staircase_structure(scrambled, tol)
            except pl.RankDecisionUnstable:
                continue
            assert pl.structures_match(_scaled(got, c), s), f"case {i}, c={c:.3g}: {got}"
            recovered += 1
        assert recovered >= 190  # the loud failures stay rare

    def test_unresolved_names_the_rejecting_check(self, tol, monkeypatch):
        from pencillab import kronecker

        # chain sizes that do not tile the regular block are refused, never returned
        monkeypatch.setattr(kronecker, "_chain_sizes", lambda *args, **kwargs: [])
        p = pl.Pencil(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        with pytest.raises(pl.RankDecisionUnstable, match="at 3 points total 0, not 3"):
            pl.staircase_structure(p, tol)

    def test_independent_of_the_seed(self):
        s = pl.KroneckerStructure(
            col_minimal=[(1, 1)], row_minimal=[(2, 1)],
            jordan=[(2, 1.0), (1, -2j), (1, 0.5 + 0.5j)], nilpotent=[2],
        )
        scrambled, _ = pl.scramble(pl.assemble(s), seed=0, max_cond=100.0)
        first, *others = (pl.staircase_structure(scrambled, pl.ToleranceConfig(rng_seed=k))
                          for k in range(4))
        assert pl.structures_match(first, s)
        assert all(other == first for other in others)


def _stacked_chain_sizes(a0, bc, kernel_offset, cap, tol, scale):
    """Chain sizes from the nullities of the stacked (k+1)m x (k+1)n chain systems.

    The system has A0 on its block diagonal and B below it, so its kernel
    holds the chains of length k+1; the first differences of the
    nullities, less ``kernel_offset``, count the chains of each length.
    """
    from pencillab.kronecker import _staircase_rank

    m, n = a0.shape
    counts_ge: list[int] = []
    prev_nullity = 0
    for k in range(cap + 1):
        system = np.zeros(((k + 1) * m, (k + 1) * n), dtype=complex)
        for j in range(k + 1):
            system[j * m : (j + 1) * m, j * n : (j + 1) * n] = a0
            if j > 0:
                system[j * m : (j + 1) * m, (j - 1) * n : j * n] = bc
        sigma = np.linalg.svd(system, compute_uv=False)
        nullity = (k + 1) * n - _staircase_rank(sigma, system.shape, tol, "stacked", scale)
        count = nullity - prev_nullity - kernel_offset
        if count <= 0:
            break
        counts_ge.append(count)
        prev_nullity = nullity
    sizes: list[int] = []
    for j, c in enumerate(counts_ge):
        nxt = counts_ge[j + 1] if j + 1 < len(counts_ge) else 0
        sizes.extend([j + 1] * (c - nxt))
    return sizes


def _toeplitz_minimal_indices(p, total, tol):
    """Column minimal indices from first differences of block-Toeplitz kernel dimensions.

    The space of polynomial kernel vectors of degree <= k has dimension
    sum over minimal indices e of max(0, k + 1 - e); its first difference
    in k counts the indices <= k, until it reaches ``total``.
    """
    from pencillab.kronecker import _staircase_rank, _toeplitz_resultant

    counts: list[int] = []
    prev_nullity = prev_delta = 0
    while prev_delta < total:
        k = len(counts)
        assert k <= p.cols + 1, "kernel dimensions never reached the normal-rank deficiency"
        t = _toeplitz_resultant(p, k)
        sigma = np.linalg.svd(t, compute_uv=False)
        nullity = (k + 1) * p.cols - _staircase_rank(sigma, t.shape, tol, "resultant",
                                                     p.norm_scale())
        delta = nullity - prev_nullity
        counts.append(delta - prev_delta)
        prev_nullity, prev_delta = nullity, delta
    return tuple((e, c) for e, c in enumerate(counts) if c > 0)


def _direct_sum_corpus(c):
    """24 scrambled direct sums of 1, 2 or 5 random structures, up to about 48 x 48, B times c."""
    from pencillab.generators import random_structure

    rng = np.random.default_rng(1979)
    for i in range(24):
        parts = [random_structure(rng, max_size=12) for _ in range((1, 2, 5)[i % 3])]
        s = pl.KroneckerStructure(*(sum((getattr(part, field) for part in parts), ()) for field
                                    in ("col_minimal", "row_minimal", "jordan", "nilpotent")))
        p = pl.assemble(s)
        scrambled, _ = pl.scramble(pl.Pencil(p.a, c * p.b), seed=19000 + i, max_cond=100.0)
        yield i, s, scrambled


STAIRCASE_FIXTURES = sorted((REPO / "fixtures" / "staircase").glob("*.json"))


class TestChainStaircase:
    @pytest.mark.parametrize("path", STAIRCASE_FIXTURES, ids=lambda path: path.stem)
    def test_pinned_hard_pencil(self, tol, path):
        # a spurious projected eigenvalue beside a Jordan ring moves the
        # first projection's cluster mean off the point
        from pencillab.io import pencil_from_json, structure_from_json

        doc = json.loads(path.read_text(encoding="utf-8"))
        expected = structure_from_json(doc["structure"])
        got = pl.staircase_structure(pencil_from_json(doc), tol)
        assert pl.structures_match(got, expected), got

    def test_size_24_draw_with_a_spoilt_cluster_mean(self, tol):
        # draw 150 of test_structures_up_to_size_24's corpus at rng seed
        # 2428, an even draw and so with B unscaled
        from pencillab.generators import random_structure

        rng = np.random.default_rng(2428)
        for i in range(151):
            s = random_structure(rng, max_size=24)
            if i % 2:
                rng.uniform(-3.0, 3.0)
        scrambled, _ = pl.scramble(pl.assemble(s), seed=26578, max_cond=100.0)
        got = pl.staircase_structure(scrambled, tol)
        assert pl.structures_match(got, s), got

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_chain_sizes_match_the_stacked_systems(self, tol, c, monkeypatch):
        from pencillab import kronecker

        decided = []
        chain_sizes = kronecker._chain_sizes

        def spy(a0, bc, cap, tol, context, scale=0.0):
            sizes = chain_sizes(a0, bc, cap, tol, context, scale)
            decided.append((a0, bc, cap, scale, sizes))
            return sizes

        monkeypatch.setattr(kronecker, "_chain_sizes", spy)
        for i, s, scrambled in _direct_sum_corpus(c):
            got = pl.staircase_structure(scrambled, tol)
            assert pl.structures_match(_scaled(got, c), s), f"case {i}: {got}"
            assert len(decided) == len({lam for _, lam in s.jordan})
            for a0, bc, cap, scale, chains in decided:
                assert _stacked_chain_sizes(a0, bc, 0, cap, tol, scale) == chains
            decided.clear()

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_compressions_match_the_resultant_and_stacked_oracles(self, tol, c):
        seen, largest = set(), 0
        for i, _, scrambled in _direct_sum_corpus(c):
            largest = max(largest, *scrambled.shape)
            got = pl.staircase_structure(scrambled, tol)
            p = scrambled.balanced()[0]
            r = pl.normal_rank(p, tol)[0]
            assert got.col_minimal == _toeplitz_minimal_indices(p, p.cols - r, tol), f"case {i}"
            assert got.row_minimal == _toeplitz_minimal_indices(
                p.transposed(), p.rows - r, tol), f"case {i}"
            # chains at infinity: A and B swapped, each column-minimal block adding one per step
            infinite = _stacked_chain_sizes(p.b, p.a, p.cols - r, p.cols, tol, p.norm_scale())
            assert got.nilpotent == tuple(infinite), f"case {i}"
            seen.update(name for name in ("col_minimal", "row_minimal", "nilpotent")
                        if getattr(got, name))
        assert seen == {"col_minimal", "row_minimal", "nilpotent"} and largest > 24

    def test_chain_stage_factors_no_matrix_larger_than_the_pencil(self, tol, monkeypatch):
        n = 24
        rng = np.random.default_rng(24)
        lam = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
        s = pl.KroneckerStructure(jordan=[(1, z) for z in lam])
        scrambled, _ = pl.scramble(pl.assemble(s), seed=24, max_cond=100.0)
        shapes = []
        svd = np.linalg.svd

        def spy(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        got = pl.staircase_structure(scrambled, tol)
        monkeypatch.undo()
        assert pl.structures_match(got, s), got
        assert max(max(shape[-2:]) for shape in shapes) <= n
        # one factorization at each simple eigenvalue, and one of B, whose
        # full rank ends the column run and leaves no row run to make
        assert shapes.count((n, n)) == n + 1
