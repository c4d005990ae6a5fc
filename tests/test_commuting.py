import numpy as np
import pytest

import pencillab as pl
from pencillab.commuting import is_equality_case, multiplier_pattern_matrix
from pencillab.generators import random_commuting_pair

from conftest import complex_matrix


def _pattern_draw(s, rng):
    """Random matrix of the intertwiner pattern, one draw per parameter label."""
    pattern = pl.intertwiner_pattern(s)
    count = pattern.parameter_count + 1
    params = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    params[-1] = 0.0  # label -1 reads the trailing zero
    return params[pattern.labels]


def _loop_intertwiner_basis(a, b):
    """The nullspace of the A M B - B M A operator assembled column by column."""
    n = len(a)
    op = np.zeros((n * n, n * n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for idx in range(n * n):
        i, j = divmod(idx, n)
        unit[i, j] = 1.0
        op[:, idx] = (a @ unit @ b - b @ unit @ a).reshape(-1)
        unit[i, j] = 0.0
    return pl.null_space(op)


def _equality_families(limit):
    """Families (0, m0), (d1, m1), ... with d_i m_i = m0 + ... + m_(i-1).

    Yields (groups, multiplicity sum, index-weighted sum) for every family
    whose two sums add up to at most ``limit``.
    """
    def grow(groups, total, weight):
        yield tuple(groups), total, weight
        for m in range(1, total + 1):
            d = total // m
            if total % m == 0 and d > groups[-1][0] and weight + total <= limit:
                yield from grow(groups + [(d, m)], total + m, weight + d * m)

    for m0 in range(1, limit + 1):
        yield from grow([(0, m0)], m0, 0)


def _equality_structures(max_n):
    """Every square equality-case structure of singular blocks with 0 < n <= max_n.

    Square means equal row and column multiplicity sums; then
    n = (row weight) + (column weight) + (multiplicity sum).
    """
    families = list(_equality_families(max_n))
    return [
        pl.KroneckerStructure(row_minimal=rows, col_minimal=cols)
        for rows, rt, rw in families
        for cols, ct, cw in families
        if rt == ct and rw + cw + rt <= max_n
    ]


class TestIntertwinerSpace:
    def test_identity_pair_full_space(self):
        dim, basis = pl.intertwiner_space(np.eye(3), np.eye(3))
        assert dim == 9
        assert len(basis) == 9

    def test_one_by_one_zero(self):
        p = pl.assemble(pl.KroneckerStructure(row_minimal=[(0, 1)], col_minimal=[(0, 1)]))
        dim, _ = pl.intertwiner_space(p.a, p.b)
        assert dim == 1

    def test_basis_satisfies_equation(self, rng):
        a = complex_matrix(rng, 4, 4)
        b = complex_matrix(rng, 4, 4)
        dim, basis = pl.intertwiner_space(a, b)
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        for m in basis:
            assert np.linalg.norm(a @ m @ b - b @ m @ a) <= 1e-8 * scale

    def test_dimension_bound_enforced(self):
        with pytest.raises(ValueError):
            pl.intertwiner_space(np.eye(13), np.eye(13))

    def test_matches_the_column_by_column_operator(self, catalog, rng):
        # the same products of 0/1 entries give the same bits on the catalog pencils
        for s in catalog:
            d = pl.assemble(s)
            _, basis = pl.intertwiner_space(d.a, d.b)
            reference = _loop_intertwiner_basis(d.a, d.b)
            assert np.array_equal(np.array(basis).reshape(len(basis), -1).T, reference), s
        a, b = complex_matrix(rng, 12, 12), complex_matrix(rng, 12, 12)
        _, basis = pl.intertwiner_space(a, b)
        reference = _loop_intertwiner_basis(a, b)
        got = np.array(basis).reshape(len(basis), -1).T
        assert got.shape == reference.shape
        np.testing.assert_allclose(got @ got.conj().T, reference @ reference.conj().T, atol=1e-12)

    def test_four_by_four_matches_pattern_count(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        p = pl.assemble(s)
        dim, basis = pl.intertwiner_space(p.a, p.b)
        assert dim == pl.pattern_parameter_count(s) == 10


class TestPatternCount:
    def test_one_by_one(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1)], col_minimal=[(0, 1)])
        assert pl.pattern_parameter_count(s) == 1

    def test_two_by_two_zero(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 2)], col_minimal=[(0, 2)])
        assert pl.pattern_parameter_count(s) == 4

    def test_catalog_oracle_equality(self, catalog):
        for s in catalog:
            d = pl.assemble(s)
            dim, _ = pl.intertwiner_space(d.a, d.b)
            assert dim == pl.pattern_parameter_count(s), s


class TestMatchesPattern:
    def test_zero_matrix(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        assert pl.matches_pattern(np.zeros((4, 4)), s)

    def test_basis_elements_conform(self, catalog):
        for s in catalog[:12]:
            d = pl.assemble(s)
            _, basis = pl.intertwiner_space(d.a, d.b)
            for m in basis:
                assert pl.matches_pattern(m, s)

    def test_random_dense_rejected(self, rng):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        for _ in range(5):
            m = complex_matrix(rng, 4, 4)
            assert not pl.matches_pattern(m, s)

    def test_random_pattern_matrices_lie_in_space(self, rng, catalog):
        for s in catalog[:10]:
            d = pl.assemble(s)
            for _ in range(3):
                m = _pattern_draw(s, rng)
                norm = max(np.linalg.norm(m), 1e-300)
                residual = np.linalg.norm(d.a @ m @ d.b - d.b @ m @ d.a)
                assert residual <= 1e-9 * norm * max(1.0, np.linalg.norm(d.a) * np.linalg.norm(d.b))
                assert pl.matches_pattern(m, s)

    def test_regular_blocks_refused(self):
        # the 4 x 4 equality pair plus a Jordan block: a 6 x 6 structure
        s = pl.KroneckerStructure(
            row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)], jordan=[(2, 1.0)]
        )
        with pytest.raises(pl.InvalidStructure):
            pl.intertwiner_pattern(s)
        with pytest.raises(pl.InvalidStructure):
            pl.matches_pattern(np.zeros((6, 6)), s)
        with pytest.raises(pl.InvalidStructure):
            multiplier_pattern_matrix(s)


class TestFeasibility:
    def test_equality_pair_feasible(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        ok, violations = pl.commuting_feasible(s)
        assert ok and not violations

    def test_missing_zero_group_infeasible(self):
        s = pl.KroneckerStructure(row_minimal=[(1, 1)], col_minimal=[(1, 1)])
        ok, violations = pl.commuting_feasible(s)
        assert not ok
        assert {v["family"] for v in violations} == {"row", "col"}

    def test_pure_regular_vacuous(self):
        s = pl.KroneckerStructure(jordan=[(2, 1.0)], nilpotent=(1,))
        ok, violations = pl.commuting_feasible(s)
        assert ok and not violations

    def test_monotone_under_top_group_removal(self, catalog):
        # dropping the largest-index group of a family leaves every other
        # inequality untouched, so feasibility survives; dropping a middle
        # group can break it (its multiplicity feeds later right-hand sums)
        for s in catalog:
            ks = s
            ok, _ = pl.commuting_feasible(ks)
            if not ok:
                continue
            for family in ("row_minimal", "col_minimal"):
                groups = getattr(ks, family)
                if not groups or groups[-1][0] == 0:
                    continue
                reduced = pl.KroneckerStructure(
                    row_minimal=ks.row_minimal[:-1] if family == "row_minimal" else ks.row_minimal,
                    col_minimal=ks.col_minimal[:-1] if family == "col_minimal" else ks.col_minimal,
                )
                still_ok, _ = pl.commuting_feasible(reduced)
                assert still_ok

    def test_middle_group_removal_can_break(self):
        ks = pl.KroneckerStructure(
            row_minimal=[(0, 1), (1, 1), (2, 1)], col_minimal=[(0, 3)]
        )
        assert pl.commuting_feasible(ks)[0]
        without_middle = pl.KroneckerStructure(
            row_minimal=[(0, 1), (2, 1)], col_minimal=[(0, 3)]
        )
        assert not pl.commuting_feasible(without_middle)[0]


class TestVerifyNecessity:
    def test_commuting_corpus(self, rng, tol):
        for _ in range(12):
            a, b = random_commuting_pair(rng, max_n=7)
            assert pl.verify_necessity(a, b, tol)

    def test_diag_pair(self):
        assert pl.verify_necessity(np.diag([1.0, 2.0]), np.diag([5.0, 7.0]))

    def test_zero_pair(self, tol):
        a = np.zeros((2, 2))
        s = pl.staircase_structure(pl.Pencil(a, a), tol)
        assert s.row_minimal == ((0, 2),) and s.col_minimal == ((0, 2),)
        assert pl.verify_necessity(a, a, tol)

    def test_noncommuting_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(pl.NotCommuting):
            pl.verify_necessity(a, b)


class TestMultiplier:
    def test_one_by_one(self):
        p = pl.Pencil(np.zeros((1, 1)), np.zeros((1, 1)))
        e = pl.construct_multiplier(p)
        assert e.shape == (1, 1) and abs(e[0, 0]) > 1e-12

    def test_four_by_four_canonical(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        p = pl.assemble(s)
        e = pl.construct_multiplier(p)
        ea, eb = e @ p.a, e @ p.b
        assert np.linalg.norm(ea @ eb - eb @ ea) <= 1e-10
        assert pl.numerical_rank(e) == 4

    def test_four_by_four_scrambled(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        p, _ = pl.scramble(pl.assemble(s), seed=31)
        e = pl.construct_multiplier(p)
        ea, eb = e @ p.a, e @ p.b
        scale = max(np.linalg.norm(ea) * np.linalg.norm(eb), 1e-300)
        assert np.linalg.norm(ea @ eb - eb @ ea) <= 1e-8 * scale
        assert pl.numerical_rank(e) == 4

    def test_explicit_pattern_matrix_is_intertwiner(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)])
        d = pl.assemble(s)
        pattern = multiplier_pattern_matrix(s)
        assert np.linalg.norm(d.a @ pattern @ d.b - d.b @ pattern @ d.a) < 1e-14
        assert pl.matches_pattern(pattern, s)

    def test_strict_inequality_rejected(self):
        s = pl.KroneckerStructure(row_minimal=[(0, 2), (1, 1)], col_minimal=[(0, 2), (1, 1)])
        assert not is_equality_case(s)
        p = pl.assemble(s)
        with pytest.raises(pl.EqualityConditionFails):
            pl.construct_multiplier(p)

    def test_regular_blocks_rejected(self):
        p = pl.assemble(pl.KroneckerStructure(jordan=[(2, 1.0)]))
        with pytest.raises(pl.EqualityConditionFails):
            pl.construct_multiplier(p)

    def test_misaligned_equality_case(self):
        # consecutive groups tile the shared dimension with misaligned
        # instance grids: an L_1^T instance straddles two L_3^T instances
        s = pl.KroneckerStructure(row_minimal=[(0, 3), (1, 3), (3, 2)], col_minimal=[(0, 8)])
        assert is_equality_case(s)
        p = pl.assemble(s)
        pattern = multiplier_pattern_matrix(s)
        assert np.array_equal(p.a @ pattern @ p.b, p.b @ pattern @ p.a)
        assert pl.matches_pattern(pattern, s)
        e = pl.construct_multiplier(p)
        ea, eb = e @ p.a, e @ p.b
        scale = max(np.linalg.norm(ea) * np.linalg.norm(eb), 1e-300)
        assert np.linalg.norm(ea @ eb - eb @ ea) <= 1e-8 * scale

    def test_every_equality_structure_up_to_twenty(self):
        structures = _equality_structures(20)
        assert len(structures) == 166
        for s in structures:
            assert is_equality_case(s), s
            d = pl.assemble(s)
            pattern = multiplier_pattern_matrix(s)
            assert np.array_equal(d.a @ pattern @ d.b, d.b @ pattern @ d.a), s
            assert np.linalg.matrix_rank(pattern) == s.rows, s
            assert pl.matches_pattern(pattern, s), s

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_scrambled_catalog_with_scaled_b(self, catalog, scale):
        # E A and E B commute exactly when E A and E (cB) do, so the
        # construction must not depend on the scale of B
        for s in filter(is_equality_case, catalog):
            scrambled, _ = pl.scramble(pl.assemble(s), seed=s.rows)
            p = pl.Pencil(scrambled.a, scale * scrambled.b)
            e = pl.construct_multiplier(p)
            ea, eb = e @ p.a, e @ p.b
            scale_ab = max(np.linalg.norm(ea) * np.linalg.norm(eb), 1e-300)
            assert np.linalg.norm(ea @ eb - eb @ ea) <= 1e-8 * scale_ab, s
            assert pl.numerical_rank(e) == p.rows, s

    def test_structured_draws_commute_to_rounding(self):
        for seed in range(300):
            a, b = random_commuting_pair(np.random.default_rng(seed), max_n=10, kind="structured")
            relative = np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert relative <= 1e-13, (seed, relative)


class TestSearchMultiplier:
    def test_feasible_catalog_cases_found(self, catalog):
        hits = 0
        for s in catalog:
            ks = s
            ok, _ = pl.commuting_feasible(ks)
            if not ok or s.rows > 10:
                continue
            p = pl.assemble(ks)
            result = pl.search_multiplier(p, pl.ToleranceConfig(rng_seed=5), restarts=60)
            assert result.evidence == "conjecture-level evidence"
            if result.found:
                hits += 1
                e = result.multiplier
                ea, eb = e @ p.a, e @ p.b
                scale = max(np.linalg.norm(ea) * np.linalg.norm(eb), 1e-300)
                assert np.linalg.norm(ea @ eb - eb @ ea) <= 1e-7 * scale
        assert hits > 0

    def test_infeasible_structure_not_found(self):
        s = pl.KroneckerStructure(row_minimal=[(1, 1)], col_minimal=[(1, 1)])
        p = pl.assemble(s)
        result = pl.search_multiplier(p, pl.ToleranceConfig(rng_seed=5), restarts=40)
        assert not result.found
        assert result.evidence == "conjecture-level evidence"
