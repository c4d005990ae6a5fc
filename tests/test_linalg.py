import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencillab as pl
from pencillab.generators import random_commuting_pair, random_singular_pencil
from pencillab.linalg import (RANK_GUARD, deficient_at_every_node, invariant_subspaces, node_stack,
                              pencil_determinant_coefficients, rank_cutoff)

from conftest import complex_matrix


class TestSvd:
    def test_identity(self):
        _, sigma, _ = pl.svd(np.eye(3))
        np.testing.assert_allclose(sigma, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        _, sigma, _ = pl.svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(sigma, [3.0, 0.0])

    def test_reconstruction_random(self, rng):
        m = complex_matrix(rng, 5, 3)
        u, sigma, v = pl.svd(m)
        rebuilt = u[:, :3] @ np.diag(sigma) @ v.conj().T
        assert np.linalg.norm(rebuilt - m) < 1e-10 * np.linalg.norm(m)

    def test_reconstruction_battery(self):
        # 1000 seeded matrices up to 12x12
        rng = np.random.default_rng(7)
        for _ in range(1000):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            m = complex_matrix(rng, rows, cols)
            u, sigma, v = pl.svd(m)
            k = min(rows, cols)
            rebuilt = u[:, :k] @ np.diag(sigma) @ v[:, :k].conj().T
            assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)
            dim = max(rows, cols)
            assert np.linalg.norm(u.conj().T @ u - np.eye(rows)) <= 1e-12 * dim * 10
            assert np.linalg.norm(v.conj().T @ v - np.eye(cols)) <= 1e-12 * dim * 10

    def test_rejects_nonfinite(self):
        with pytest.raises(pl.InvalidMatrix):
            pl.svd([[np.inf, 0.0], [0.0, 1.0]])


class TestRankAndKernel:
    def test_zero_matrix(self):
        assert pl.numerical_rank(np.zeros((4, 4))) == 0

    def test_identity(self):
        for n in (1, 3, 6):
            assert pl.numerical_rank(np.eye(n)) == n

    def test_outer_product(self, rng):
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert pl.numerical_rank(np.outer(u, v)) == 1

    def test_rank_unitarily_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = complex_matrix(rng, n, n)
            m[:, -1] = m[:, 0]  # force a deficiency
            q1, _ = np.linalg.qr(complex_matrix(rng, n, n))
            q2, _ = np.linalg.qr(complex_matrix(rng, n, n))
            assert pl.numerical_rank(m) == pl.numerical_rank(q1 @ m @ q2)

    def test_rounding_noise_reads_rank_zero_when_anchored(self, rng):
        noise = 1e-17 * complex_matrix(rng, 5, 5)
        assert pl.numerical_rank(noise) == 5
        assert pl.numerical_rank(noise, scale=1.0) == 0

    def test_rank_decision_on_a_stack(self, rng):
        from pencillab.linalg import rank_decision

        stack = np.stack([
            complex_matrix(rng, 4, 4),
            np.outer(complex_matrix(rng, 4, 1), complex_matrix(rng, 1, 4)),
            1e-17 * complex_matrix(rng, 4, 4),
            np.zeros((4, 4)),
        ])
        scales = np.array([0.0, 1.0, 1.0, 0.0])
        ranks, cutoffs, margins = rank_decision(
            np.linalg.svd(stack, compute_uv=False), (4, 4), scales
        )
        assert list(ranks) == [4, 1, 0, 0]
        for m, scale, rank, cutoff, margin in zip(stack, scales, ranks, cutoffs, margins):
            assert (rank, cutoff, margin) == rank_decision(
                np.linalg.svd(m, compute_uv=False), (4, 4), scale
            )
            assert rank == pl.numerical_rank(m, scale=scale)
        assert np.all(margins[:3] > 10) and margins[3] == np.inf

    def test_rank_decision_one_matrix_path_matches_the_stack(self, rng):
        # a 1-D sigma skips the broadcasting; every output keeps its bits
        from pencillab.linalg import rank_decision

        cases = [np.array([]), np.zeros(3), np.array([0.0, -0.0]), np.array([2.0, 1e-12, -0.0])]
        for _ in range(300):
            k = int(rng.integers(1, 10))
            sigma = np.sort(10.0 ** rng.uniform(-20.0, 2.0, k))[::-1]
            sigma[k - int(rng.integers(0, k + 1)):] = rng.choice([0.0, -0.0])
            cases.append(sigma)
        for i, sigma in enumerate(cases):
            shape, scale = (len(sigma) + i % 2, len(sigma)), (0.0, 1.0, 1e3)[i % 3]
            one = rank_decision(sigma, shape, scale)
            stack = [v[0] for v in rank_decision(sigma[None], shape, np.array([scale]))]
            assert one[0] == stack[0]
            assert [np.float64(v).tobytes() for v in one[1:]] == [v.tobytes() for v in stack[1:]]

    def test_rank_decision_reads_signed_zeros_as_zero(self):
        # a full SVD of a matrix with -0.0 entries can return -0.0
        from pencillab.linalg import rank_decision

        rank, _, margin = rank_decision(np.array([0.0, -0.0]), (2, 2), 1.0)
        assert rank == 0 and margin == np.inf

    def test_null_space_identity(self):
        assert pl.null_space(np.eye(3)).shape == (3, 0)

    def test_null_space_zero(self):
        basis = pl.null_space(np.zeros((3, 3)))
        assert basis.shape == (3, 3)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)

    def test_null_space_diag(self):
        basis = pl.null_space(np.diag([1.0, 0.0]))
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_null_space_residuals(self, rng):
        m = complex_matrix(rng, 6, 8)
        basis = pl.null_space(m)
        assert basis.shape[1] == 8 - pl.numerical_rank(m)
        for k in range(basis.shape[1]):
            assert np.linalg.norm(m @ basis[:, k]) <= 1e-8 * np.linalg.norm(m)


class TestEigenvalues:
    def test_signed_diag(self):
        spec = pl.eigenvalues(np.diag([1.0, -1.0]))
        assert sorted(spec.expanded(), key=lambda z: z.real) == [-1.0, 1.0]

    def test_identity_multiplicity(self):
        spec = pl.eigenvalues(np.eye(3))
        assert spec.values == (1.0 + 0.0j,)
        assert spec.multiplicities == (3,)

    def test_companion_cube_roots(self):
        # companion matrix of z^3 - 1
        comp = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        spec = pl.eigenvalues(comp)
        got = sorted(spec.expanded(), key=lambda z: (round(z.real, 8), round(z.imag, 8)))
        expected = sorted(
            [1.0 + 0.0j, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)],
            key=lambda z: (round(z.real, 8), round(z.imag, 8)),
        )
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_similarity_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            m = complex_matrix(rng, n, n)
            q = complex_matrix(rng, n, n) + 3 * np.eye(n)
            sim = q @ m @ np.linalg.inv(q)
            s1 = sorted(pl.eigenvalues(m).expanded(), key=lambda z: (z.real, z.imag))
            s2 = sorted(pl.eigenvalues(sim).expanded(), key=lambda z: (z.real, z.imag))
            cond = np.linalg.cond(q)
            np.testing.assert_allclose(s1, s2, atol=1e-8 * cond * max(1, np.linalg.norm(m)))

    def test_characteristic_polynomial_agreement(self, rng):
        m = complex_matrix(rng, 5, 5)
        got = sorted(pl.eigenvalues(m).expanded(), key=lambda z: (z.real, z.imag))
        coeffs = np.poly(m)  # leading-first
        roots = sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, roots, atol=1e-7 * max(1, np.linalg.norm(m) ** 5))


class TestDeterminant:
    def test_diag(self):
        assert abs(pl.determinant(np.diag([2.0, 3.0])) - 6.0) < 1e-12

    def test_rank_one_singular(self, rng):
        u = rng.standard_normal(3)
        m = np.outer(u, u)
        assert abs(pl.determinant(m)) < 1e-12 * max(np.linalg.norm(m), 1.0) ** 3

    def test_triangular_product(self, rng):
        m = np.triu(complex_matrix(rng, 5, 5))
        expected = np.prod(np.diag(m))
        assert abs(pl.determinant(m) - expected) < 1e-10 * max(1.0, abs(expected))


class TestPencilEigenvalues:
    def test_signed_diag_pair(self):
        p = pl.Pencil(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        spec = pl.pencil_eigenvalues(p)
        assert spec.multiplicities == (2,)
        assert abs(spec.values[0] - (-0.5)) < 1e-10
        assert spec.infinite == 0

    def test_all_infinite(self):
        p = pl.Pencil(np.eye(2), np.zeros((2, 2)))
        spec = pl.pencil_eigenvalues(p)
        assert spec.values == ()
        assert spec.infinite == 2

    def test_all_infinite_unbalanced(self):
        # |B| = 0 clips the node radius to 1e3; the anchor must not scale with it
        spec = pl.pencil_eigenvalues(pl.Pencil(np.diag([1.0, 1e-7]), np.zeros((2, 2))))
        assert spec.values == ()
        assert spec.infinite == 2

    def test_difference_form(self):
        # pencil A - lam B via (A, -B)
        p = pl.Pencil(np.diag([1.0, 2.0]), -np.diag([2.0, 1.0]))
        spec = pl.pencil_eigenvalues(p)
        got = sorted(spec.expanded(), key=lambda z: z.real)
        np.testing.assert_allclose(got, [0.5, 2.0], atol=1e-10)

    def test_singular_pencil_raises(self):
        p = pl.Pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(pl.SingularPencil):
            pl.pencil_eigenvalues(p)

    @pytest.mark.parametrize("t", [1e6, 1e9])
    def test_deficiency_hidden_from_the_qr_diagonal_raises(self, tol, t):
        # is_singular proves A + lam A singular by a common kernel vector,
        # though the QR diagonal's ratio is only ~ 1 / t
        a = np.array([[1.0, t], [0.0, 2.0]])
        with pytest.raises(pl.SingularPencil, match="degree 0"):
            pl.pencil_eigenvalues(pl.Pencil(a, a), tol)

    def test_matches_inverse_spectrum(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = complex_matrix(rng, n, n)
            b = complex_matrix(rng, n, n) + 3 * np.eye(n)
            p = pl.Pencil(a, b)
            got = sorted(pl.pencil_eigenvalues(p).expanded(), key=lambda z: (z.real, z.imag))
            expected = sorted(
                np.linalg.eigvals(-np.linalg.solve(b, a)), key=lambda z: (z.real, z.imag)
            )
            np.testing.assert_allclose(got, expected, atol=1e-8 * max(1, np.linalg.cond(b)))

    @pytest.mark.parametrize("c", [1.0, 1e-3, 1e-4])
    def test_small_b_keeps_finite_spectrum(self, c):
        s = pl.KroneckerStructure(jordan=[(2, 1.0), (1, 3.0), (1, -2j)])
        p = pl.assemble(s)
        scrambled, _ = pl.scramble(pl.Pencil(p.a, c * p.b), seed=0)
        spec = pl.pencil_eigenvalues(scrambled)
        assert spec.infinite == 0
        assert spec.multiplicities == (1, 2, 1)
        np.testing.assert_allclose(np.array(spec.values) * c, [-3.0, -1.0, 2j], rtol=1e-6)

    def test_small_eigenvalues_to_full_relative_accuracy(self):
        diag = np.array([0.003, 0.0045 + 0.001j, -0.006, 0.01j, 0.02, -0.03 + 0.01j])
        spec = pl.pencil_eigenvalues(pl.Pencil(np.diag(diag), -1000.0 * np.eye(6)))
        assert spec.multiplicities == (1,) * 6 and spec.infinite == 0
        got = sorted(spec.values, key=lambda z: (z.real, z.imag))
        expected = sorted(diag / 1000.0, key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_nodes_distinct(self):
        p = pl.Pencil(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        nodes = node_stack(p)[0]
        assert len(set(np.round(nodes, 12))) == len(nodes) == 3

    def test_coefficients_of_fixture(self):
        p = pl.Pencil(np.diag([1.0, -1.0]), np.diag([2.0, -2.0]))
        coeffs = pencil_determinant_coefficients(p) * p.norm_scale() ** 2
        # det(A + lam B) = -(1 + 2 lam)**2
        np.testing.assert_allclose(coeffs, [-1.0, -4.0, -4.0], atol=1e-12)


class TestDeficiencyScreen:
    def test_a_hit_puts_sigma_n_below_every_cutoff(self, tol):
        # sigma_n <= min |r_kk| and max |r_kk| <= sigma_1, so whenever the QR
        # screen hits, is_singular's sigma_n sweep reads every node negligible
        rng = np.random.default_rng(27)
        kinds = ("poly", "poly-singular", "blockdiag", "zero-block", "structured")
        hits = singular = 0
        for i in range(322):
            family = i % 7
            if family == 0:
                p = random_singular_pencil(rng, max_size=10)[0]
                singular += 1
            elif family == 1:
                n = int(rng.integers(1, 11))
                p = pl.Pencil(complex_matrix(rng, n, n), complex_matrix(rng, n, n))
            else:
                p = pl.Pencil(*random_commuting_pair(rng, max_n=10, kind=kinds[family - 2]))
            if i % 2:
                p = pl.Pencil(p.a, p.b * 10.0 ** rng.uniform(-3.0, 3.0))
            _, stack, anchors = node_stack(p)
            if not deficient_at_every_node(stack, anchors, tol):
                assert family, "the screen missed a singular pencil"
                continue
            hits += 1
            sigma = np.linalg.svd(stack, compute_uv=False)
            cutoffs = rank_cutoff(sigma[:, 0], stack.shape[1:], anchors, tol)
            assert np.all(sigma[:, -1] * RANK_GUARD < cutoffs)
            assert family != 1, "the screen hit a random regular pencil"
        assert hits >= singular == 46


class TestClustering:
    def test_merges_split_double_root(self):
        # rounding splits a scrambled 2x2 Jordan block into a ring of radius ~1e-8
        x = pl.kronecker.random_well_conditioned(2, np.random.default_rng(3), 100.0)
        m = x @ np.array([[0.5, 1.0], [0.0, 0.5]]) @ np.linalg.inv(x)
        spec = pl.eigenvalues(m)
        assert spec.multiplicities == (2,)
        assert abs(spec.values[0] - 0.5) < 1e-10

    def test_keeps_separated_values(self):
        spec = pl.eigenvalues(np.diag([1.0, 2.0, 2.0]))
        assert spec.values == (1.0 + 0.0j, 2.0 + 0.0j)
        assert spec.multiplicities == (1, 2)


class TestInvariantSubspaces:
    def test_matrix_clusters_with_jordan_block(self):
        x = pl.kronecker.random_well_conditioned(4, np.random.default_rng(5), 30.0)
        j = np.diag([1.0, 1.0, -2.0, 0.5j]) + np.diag([1.0, 0.0, 0.0], 1)
        a = x @ j @ np.linalg.inv(x)
        spectrum, bases = invariant_subspaces(a)
        assert spectrum == pl.eigenvalues(a)
        assert [u.shape[1] for u in bases] == list(spectrum.multiplicities)
        for z, u in zip(spectrum.values, bases):
            np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
            restricted = u.conj().T @ a @ u
            assert np.linalg.norm(a @ u - u @ restricted) < 1e-12 * np.linalg.norm(a)
            assert abs(np.trace(restricted) / u.shape[1] - z) < 1e-10

    def test_pencil_deflating_subspaces(self):
        rng = np.random.default_rng(6)
        x = pl.kronecker.random_well_conditioned(4, rng, 30.0)
        y = pl.kronecker.random_well_conditioned(4, rng, 30.0)
        a, b = x @ np.diag([1.0, 1.0, 2.0, 3.0]) @ y, -x @ y  # A + lam B = X (D - lam) Y
        spectrum, bases = invariant_subspaces(a, b)
        np.testing.assert_allclose(spectrum.values, [1.0, 2.0, 3.0], atol=1e-10)
        assert [u.shape[1] for u in bases] == [2, 1, 1]
        ratio = np.linalg.solve(b, a)  # -B^-1 A has the pencil's eigenvalues
        for z, u in zip(spectrum.values, bases):
            restricted = u.conj().T @ ratio @ u
            assert np.linalg.norm(ratio @ u - u @ restricted) < 1e-10 * np.linalg.norm(ratio)
            np.testing.assert_allclose(np.linalg.eigvals(-restricted), z, atol=1e-8)

    @pytest.mark.parametrize("pencil", [False, True])
    def test_one_form_reordered_per_cluster(self, monkeypatch, pencil):
        import scipy.linalg

        calls = []

        def counted(name):
            original = getattr(scipy.linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("schur", "qz", "ordqz"):
            monkeypatch.setattr(scipy.linalg, name, counted(name))
        rng = np.random.default_rng(7)
        x = pl.kronecker.random_well_conditioned(5, rng, 30.0)
        j = np.diag([1.0, 1.0, -2.0, 0.5j, 0.5j]) + np.diag([1.0, 0.0, 0.0, 0.0], 1)
        a = x @ j @ np.linalg.inv(x)  # three clusters: a Jordan block, a simple and a double value
        b = None
        if pencil:
            y = pl.kronecker.random_well_conditioned(5, rng, 30.0)
            a, b = a @ y, -y  # A + lam B = (X J X^-1 - lam) Y
        spectrum, bases = invariant_subspaces(a, b)
        assert calls == ["qz" if pencil else "schur"]
        assert spectrum.multiplicities == (1, 2, 2)
        m = a if b is None else np.linalg.solve(-b, a)  # -B^-1 A has the pencil's eigenvalues
        for u in bases:
            assert np.linalg.norm(m @ u - u @ (u.conj().T @ m @ u)) <= 1e-10 * np.linalg.norm(m)

    @pytest.mark.parametrize("pencil", [False, True])
    def test_one_cluster_is_the_whole_space(self, monkeypatch, pencil):
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("a single cluster needs no Schur form")

        for name in ("schur", "qz"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        x = pl.kronecker.random_well_conditioned(3, np.random.default_rng(5), 30.0)
        a = x @ (2.0 * np.eye(3) + np.diag([1.0, 1.0], 1)) @ np.linalg.inv(x)
        spectrum, bases = invariant_subspaces(a, -np.eye(3) if pencil else None)
        assert spectrum.multiplicities == (3,)
        np.testing.assert_array_equal(bases[0], np.eye(3))

    def test_reordering_that_misses_the_cluster_raises(self, monkeypatch):
        from pencillab import linalg

        # discs of diag(1, 1, 2) against the Schur form of diag(1, 2, 2): the
        # reordering to the simple cluster at 2 would lead with two eigenvalues
        discs = linalg.eigenvalue_discs(np.diag([1.0, 1.0, 2.0]).astype(complex))
        monkeypatch.setattr(linalg, "eigenvalue_discs", lambda a, b=None: discs)
        with pytest.raises(pl.RankDecisionUnstable):
            invariant_subspaces(np.diag([1.0, 2.0, 2.0]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_rank_never_exceeds_min_dim(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n + 2)) + 1j * rng.standard_normal((n, n + 2))
    assert 0 <= pl.numerical_rank(m) <= n


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
def test_eigenvalue_count_matches_dimension(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert pl.eigenvalues(m).total == n
