import numpy as np
import pytest
from scipy.linalg import schur
from scipy.optimize import linprog

import pencillab as pl
from pencillab.generators import (random_commuting_pair, random_doubly_commuting_pair,
                                  random_singular_pencil)
from pencillab.numrange import BOUNDARY_TOL

from conftest import complex_matrix


class TestJnrSample:
    def test_identity_pair(self):
        points = pl.jnr_sample(np.eye(2), np.eye(2), 10, seed=1)
        for z1, z2 in points:
            assert abs(z1 - 1.0) < 1e-12 and abs(z2 - 1.0) < 1e-12

    def test_proportional_pair(self):
        a = np.diag([1.0, -1.0])
        points = pl.jnr_sample(a, 2.0 * a, 25, seed=2)
        for z1, z2 in points:
            assert abs(z2 - 2.0 * z1) < 1e-12

    def test_empty(self):
        assert pl.jnr_sample(np.eye(2), np.eye(2), 0, seed=3) == []

    def test_deterministic(self):
        p1 = pl.jnr_sample(np.eye(3), np.ones((3, 3)), 5, seed=9)
        p2 = pl.jnr_sample(np.eye(3), np.ones((3, 3)), 5, seed=9)
        assert p1 == p2


class TestIsotropicSearch:
    def test_fixture_high_accuracy(self):
        a, b = np.diag([1.0, -1.0]), np.diag([2.0, -2.0])
        cert = pl.isotropic_search(a, b, restarts=50)
        assert cert is not None
        assert cert.method == "random-search"
        assert cert.residual_a < 1e-10 and cert.residual_b < 1e-10
        assert cert.is_valid(a, b)

    def test_no_false_positive_for_identity(self):
        cert = pl.isotropic_search(np.eye(3), np.eye(3), restarts=40)
        assert cert is None

    def test_one_restart_on_a_doubly_commuting_pair(self):
        rng = np.random.default_rng(17)
        a, b = random_doubly_commuting_pair(rng, 5)
        a, b = a - np.trace(a) / 5 * np.eye(5), b - np.trace(b) / 5 * np.eye(5)
        assert pl.conv_hull_membership(a, b).verdict == "inside"
        cert = pl.isotropic_search(a, b, restarts=1)
        assert cert is not None and cert.is_valid(a, b)

    def test_finds_every_regular_pair_with_the_origin_in_its_hull(self):
        found = missed = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            if seed % 3 == 0:
                a, b = random_doubly_commuting_pair(rng, rng.integers(2, 9))
            else:
                a, b = random_commuting_pair(rng, max_n=8, kind=["poly", "structured"][seed % 2])
            if pl.is_singular(pl.Pencil(a, b)) or pl.conv_hull_membership(a, b).verdict not in (
                    "inside", "boundary"):
                continue
            cert = pl.isotropic_search(a, b, restarts=400)
            if cert is not None and cert.is_valid(a, b):
                found += 1
            else:
                missed += 1
        assert (found, missed) == (80, 0)

    def test_finds_larger_pairs_with_the_origin_in_their_hull(self):
        # the per-start evaluation cap must not cost a certificate at the sizes analyze takes
        sizes = []
        for seed in range(30):
            rng = np.random.default_rng(10_000 + seed)
            if seed % 3 == 0:
                a, b = random_doubly_commuting_pair(rng, rng.integers(12, 17))
            else:
                a, b = random_commuting_pair(rng, max_n=16, kind=["poly", "structured"][seed % 2])
            if len(a) < 12 or pl.is_singular(pl.Pencil(a, b)) or pl.conv_hull_membership(
                    a, b).verdict not in ("inside", "boundary"):
                continue
            cert = pl.isotropic_search(a, b, restarts=400)
            assert cert is not None and cert.is_valid(a, b), seed
            sizes.append(len(a))
        assert sorted(sizes) == [12, 12, 13, 13, 14, 14, 15, 15, 15, 16]

    def test_residuals_recomputed(self):
        a, b = np.diag([1.0, -1.0]), np.diag([2.0, -2.0])
        cert = pl.isotropic_search(a, b, restarts=50)
        x = cert.vector
        assert abs(abs(x.conj() @ a @ x) - cert.residual_a) < 1e-14


class TestIsotropicFromSingular:
    def test_zero_pencil(self):
        p = pl.Pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        cert = pl.isotropic_from_singular(p)
        assert cert.method == "kernel"
        assert cert.residual_a == 0.0 and cert.residual_b == 0.0

    def test_one_by_one(self):
        p = pl.assemble(pl.KroneckerStructure(row_minimal=[(0, 1)], col_minimal=[(0, 1)]))
        cert = pl.isotropic_from_singular(p)
        np.testing.assert_allclose(np.abs(cert.vector), [1.0])

    def test_l1_pair_scrambled_constructive(self):
        s = pl.KroneckerStructure(col_minimal=[(1, 1)], row_minimal=[(1, 1)])
        p, _ = pl.scramble(pl.assemble(s), seed=17)
        cert = pl.isotropic_from_singular(p)
        assert cert.is_valid(p.a, p.b)
        assert cert.method == "kronecker-constructive"
        # no common kernel here, so the kernel path must not have fired
        assert cert.method != "kernel"

    def test_rejects_nonsingular(self):
        p = pl.Pencil(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        with pytest.raises(pl.NotSingular):
            pl.isotropic_from_singular(p)

    @pytest.mark.parametrize("seed", range(10))
    def test_node_on_eigenvalue(self, tol, seed):
        s = pl.KroneckerStructure(
            col_minimal=[(0, 1)], row_minimal=[(0, 1)], jordan=[(1, -1.4 - 1.4j)] * 3
        )
        p, _ = pl.scramble(pl.assemble(s), seed, max_cond=100.0)
        assert pl.isotropic_from_singular(p, tol).is_valid(p.a, p.b)

    def test_constructive_path_without_common_kernel(self, tol):
        rng = np.random.default_rng(60)
        checked = 0
        for _ in range(60):
            p, _ = random_singular_pencil(rng, max_size=10)
            if pl.null_space(np.vstack([p.a, p.b]), tol).shape[1]:
                continue
            cert = pl.isotropic_from_singular(p, tol)
            assert cert.method == "kronecker-constructive"
            assert cert.is_valid(p.a, p.b)
            checked += 1
        assert checked == 30

    def test_scaled_b_never_searches(self, tol):
        rng = np.random.default_rng(11)
        for _ in range(60):
            p, _ = random_singular_pencil(rng, max_size=12)
            p = pl.Pencil(p.a, p.b * 10.0 ** rng.uniform(-3.0, 3.0))
            cert = pl.isotropic_from_singular(p, tol)
            assert cert.is_valid(p.a, p.b)
            assert cert.method in ("kernel", "kronecker-constructive")

    @pytest.mark.parametrize(
        "eps, delta, extra, seed",
        [
            (5, 5, None, 0),
            (5, 8, None, 1),
            (10, 5, None, 2),
            (6, 7, "nilpotent", 3),
            (9, 6, "jordan", 4),
            (10, 10, "jordan", 5),
        ],
    )
    def test_large_minimal_indices(self, tol, eps, delta, extra, seed):
        blocks = [pl.build_block("L", eps), pl.build_block("L_transpose", delta)]
        if extra == "nilpotent":
            blocks.append(pl.build_block("nilpotent", 2))
        elif extra == "jordan":
            blocks.append(pl.build_block("jordan", 2, 0.5 - 0.3j))
        p, _ = pl.scramble(pl.direct_sum(blocks), seed, max_cond=100.0)
        cert = pl.isotropic_from_singular(p, tol)
        assert cert.method == "kronecker-constructive"
        assert cert.is_valid(p.a, p.b)

    def test_chain_on_corpus(self, rng, tol):
        for i in range(15):
            p, _ = random_singular_pencil(rng, max_size=9)
            cert = pl.isotropic_from_singular(p, tol)
            assert cert.is_valid(p.a, p.b)
            assert pl.pencil_nr_is_plane(p.a, p.b, tol)


class TestConvHull:
    def test_identity_outside(self):
        res = pl.conv_hull_membership(np.eye(2), np.eye(2))
        assert res.verdict == "outside"
        assert res.certificate is not None
        assert 0.9 <= res.certificate.margin <= 1.5
        assert res.certificate.is_valid(np.eye(2), np.eye(2))

    def test_fixture_inside(self):
        res = pl.conv_hull_membership(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        assert res.verdict == "inside"

    def test_nilpotent_inside(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = pl.conv_hull_membership(a, np.zeros((2, 2)))
        assert res.verdict in ("inside", "boundary")

    def test_fixture_inside_certificate(self):
        a, b = np.diag([1.0, -1.0]), np.diag([2.0, -2.0])
        res = pl.conv_hull_membership(a, b)
        cert = res.inside_certificate
        assert cert is not None and cert.is_valid(a, b)
        # moving weight off the balanced pair leaves the origin
        tampered = pl.InsideCertificate(cert.vectors, np.array([0.75, 0.25]))
        assert not tampered.is_valid(a, b)

    def test_boundary_corpus_inside(self):
        # A >= 0 with A e = 0 and e*Be = 0: the origin is the range point of
        # e, on a curved part of the hull's boundary
        for a, b in _boundary_corpus(np.random.default_rng(20241), 60):
            res = pl.conv_hull_membership(a, b)
            assert res.verdict == "inside"
            assert res.inside_certificate.is_valid(a, b)
            assert len(res.inside_certificate.weights) <= 5

    def test_empty_pair_reads_outside_with_a_valid_certificate(self):
        # the 0 x 0 pair has an empty range, whose hull misses the origin
        empty = np.zeros((0, 0))
        res = pl.conv_hull_membership(empty, empty)
        assert res.verdict == "outside" and res.inside_certificate is None
        assert res.certificate.is_valid(empty, empty)

    def test_near_miss_reads_boundary(self):
        # the range clears the origin by 4e-8, a factor 2.5 inside the
        # boundary band of BOUNDARY_TOL times the balanced scale 1
        a, b = np.diag([4e-8, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        res = pl.conv_hull_membership(a, b)
        assert res.verdict == "boundary"
        assert res.certificate is None and res.inside_certificate is None
        assert res.scale == pytest.approx(1.0)
        assert res.strongest_min == pytest.approx(4e-8, rel=1e-6)
        assert res.strongest_min <= BOUNDARY_TOL * res.scale / 2

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.zeros((3, 3)), np.zeros((3, 3))),
            (np.outer([1.0, 2.0, 0.0], [1.0, 2.0, 0.0]), np.zeros((3, 3))),
            (np.outer([1.0, 1j, 0.0], [1.0, -1j, 0.0]), np.outer([0.0, 1.0, 1.0], [0.0, 1.0, 1.0])),
            (np.eye(3), np.eye(3)),
            (np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 1.0, -3.0])),
            (np.eye(4), -np.eye(4)),
        ],
        ids=["zero", "rank-one", "two-rank-ones", "identity", "repeated-min", "opposite"],
    )
    def test_degenerate_inputs_certified(self, a, b):
        _assert_certified(pl.conv_hull_membership(a, b), a, b)

    def test_every_verdict_certified(self):
        rng = np.random.default_rng(20242)
        verdicts = set()
        for i in range(40):
            n = int(rng.integers(2, 7))
            shift = (i % 4) * 0.5
            a = shift * np.eye(n) + complex_matrix(rng, n, n)
            b = shift * np.eye(n) + complex_matrix(rng, n, n)
            res = pl.conv_hull_membership(a, b)
            verdicts.add(res.verdict)
            _assert_certified(res, a, b)
        assert verdicts == {"inside", "outside"}

    def test_verdict_survives_rescaling(self):
        # (z1, z2) -> (c z1, d z2) is invertible on R^4, so it cannot move
        # the origin into the hull; deciding at the larger coefficient's
        # scale put the smaller one's coordinates below the slack
        rng = np.random.default_rng(197)
        a, b = random_commuting_pair(rng, max_n=8, kind="blockdiag")
        c, d = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        assert c == pytest.approx(1.063e-3, rel=1e-3) and d == pytest.approx(368.3, rel=1e-3)
        for x, y in ((a, b), (c * a, d * b)):
            res = pl.conv_hull_membership(x, y)
            assert res.verdict == "outside"
            assert res.certificate.is_valid(x, y)

    def test_sample_consistency(self, rng):
        # outside verdicts must dominate every sampled range point
        a = np.eye(3) + 0.1 * complex_matrix(rng, 3, 3)
        b = np.eye(3) + 0.1 * complex_matrix(rng, 3, 3)
        res = pl.conv_hull_membership(a, b)
        if res.verdict == "outside":
            u = res.certificate.direction
            for z1, z2 in pl.jnr_sample(a, b, 200, seed=4):
                value = u[0] * z1.real + u[1] * z1.imag + u[2] * z2.real + u[3] * z2.imag
                assert value >= res.certificate.margin - 1e-8


class TestPencilNrPlane:
    def test_identity_false(self):
        assert not pl.pencil_nr_is_plane(np.eye(2), np.eye(2))

    def test_fixture_true(self):
        assert pl.pencil_nr_is_plane(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))

    def test_zero_true(self):
        assert pl.pencil_nr_is_plane(np.zeros((2, 2)), np.zeros((2, 2)))


class TestNrContains:
    def test_identity_excludes_origin(self):
        p = pl.Pencil(np.eye(2), np.zeros((2, 2)))
        assert not pl.nr_contains(p, 0.7)

    def test_zero_pencil(self):
        p = pl.Pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        assert pl.nr_contains(p, 1.23 + 0.5j)

    def test_fixture_at_half(self):
        p = pl.Pencil(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        assert pl.nr_contains(p, -0.5)

    def test_plane_range_contains_everywhere(self, tol):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        p, _ = pl.scramble(pl.assemble(s), seed=23)
        assert pl.pencil_nr_is_plane(p.a, p.b, tol)
        grid = np.linspace(-2, 2, 5)
        for re in grid:
            for im in grid:
                assert pl.nr_contains(p, complex(re, im), tol)

    def test_normal_matrix_agrees_with_eigenvalue_hull(self):
        # the numerical range of a normal matrix is the hull of its eigenvalues
        rng = np.random.default_rng(20243)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a, b = random_doubly_commuting_pair(rng, n)
            lam0 = complex(rng.standard_normal(), rng.standard_normal())
            eigs = np.linalg.eigvals(a + lam0 * b)
            expected = _hull_feasible([eigs])
            assert pl.nr_contains(pl.Pencil(a, b), lam0) == expected


def _assert_certified(res, a, b):
    if res.verdict == "outside":
        assert res.certificate.is_valid(a, b)
    else:
        assert res.verdict == "inside"
        assert res.inside_certificate.is_valid(a, b)


def _hull_feasible(coordinates) -> bool:
    """Whether the origin is a convex combination of the given complex points.

    ``coordinates`` lists arrays of equal length, one per complex coordinate.
    """
    rows = [part(z) for z in coordinates for part in (np.real, np.imag)]
    count = len(rows[0])
    lp = linprog(
        np.zeros(count),
        A_eq=np.vstack(rows + [np.ones(count)]),
        b_eq=np.r_[np.zeros(len(rows)), 1.0],
        bounds=(0, None),
        method="highs",
    )
    return lp.status == 0


def _boundary_corpus(rng, count):
    """Pairs whose origin lies on a curved part of the boundary of conv W(A, B)."""
    pairs = []
    for _ in range(count):
        n = int(rng.integers(3, 9))
        g = complex_matrix(rng, n - 1, n - 1)
        a = np.zeros((n, n), dtype=complex)
        a[1:, 1:] = g @ g.conj().T
        b = complex_matrix(rng, n, n)
        b[0, 0] = 0.0
        q, _ = np.linalg.qr(complex_matrix(rng, n, n))
        pairs.append((q @ a @ q.conj().T, q @ b @ q.conj().T))
    return pairs


class TestDoublyCommuting:
    def test_normal_pair_detected(self, rng):
        a, b = random_doubly_commuting_pair(rng, 4)
        assert pl.is_doubly_commuting(a, b)

    def test_plain_commuting_not_necessarily(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        a = m
        b = m @ m + m  # commutes with m but not with m*
        assert pl.check_commuting(a, b)
        assert not pl.is_doubly_commuting(a, np.eye(2) + a)

    def test_convexity_equivalence(self, rng, tol):
        # doubly commuting pairs: the joint range is the hull of the joint
        # eigenvalues, so an LP over them decides the verdict; an inside
        # pair has an isotropic vector, an outside pair a separating direction
        for i in range(6):
            a, b = random_doubly_commuting_pair(rng, 3)
            if i % 2 == 0:
                # recenter on a sampled range point so the origin is inside
                z = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                z /= np.linalg.norm(z)
                a = a - (z.conj() @ a @ z) * np.eye(3)
                b = b - (z.conj() @ b @ z) * np.eye(3)
            assert pl.is_doubly_commuting(a, b)
            # a normal matrix with distinct eigenvalues has a unitary Schur basis
            _, q = schur(a + np.pi * b, output="complex")
            joint = (np.diag(q.conj().T @ a @ q), np.diag(q.conj().T @ b @ q))
            res = pl.conv_hull_membership(a, b, tol)
            if _hull_feasible(joint):
                assert res.verdict == "inside"
                cert = pl.isotropic_search(a, b, tol, restarts=2000)
                assert cert is not None and cert.is_valid(a, b)
            else:
                assert res.verdict == "outside"
                assert res.certificate.is_valid(a, b)
