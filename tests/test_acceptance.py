"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Budgeted runtimes are asserted where the criterion states one.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import pencillab as pl
from pencillab.commuting import is_equality_case
from pencillab.generators import (STAIRCASE_SAFE_KINDS, random_commuting_pair,
                                   random_singular_pencil, random_structure)
from pencillab.linalg import eigenvalues, pencil_determinant_coefficients

TOL = pl.ToleranceConfig()


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_signed_diag_fixture():
    """Reference pair diag(1,-1), diag(2,-2): all headline quantities."""
    start = time.perf_counter()
    a, b = np.diag([1.0, -1.0]), np.diag([2.0, -2.0])
    p = pl.Pencil(a, b)

    singular = bool(pl.is_singular(p, TOL))
    spec = pl.pencil_eigenvalues(p, TOL)
    eigs_ok = (
        spec.multiplicities == (2,)
        and abs(spec.values[0] - (-0.5)) < 1e-10
        and spec.infinite == 0
    )
    ts = pl.taylor_spectrum(a, b, TOL)
    expected = [(-1.0, -2.0), (1.0, 2.0)]
    got = sorted(ts.points, key=lambda q: (q[0].real, q[0].imag))
    taylor_ok = len(got) == 2 and all(
        abs(g1 - e1) < 1e-8 and abs(g2 - e2) < 1e-8
        for (g1, g2), (e1, e2) in zip(got, expected)
    )
    membership = pl.conv_hull_membership(a, b)
    cert = pl.isotropic_search(a, b, TOL, restarts=100)
    cert_ok = (
        cert is not None
        and cert.method == "random-search"
        and cert.residual_a < 1e-10
        and cert.residual_b < 1e-10
    )
    elapsed = time.perf_counter() - start
    ok = (
        not singular
        and eigs_ok
        and taylor_ok
        and membership.verdict == "inside"
        and cert_ok
        and elapsed < 1.0
    )
    _report(
        "1 (reference fixture)",
        ok,
        f"singular={singular} eigs_ok={eigs_ok} taylor_ok={taylor_ok} "
        f"membership={membership.verdict} cert_ok={cert_ok} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_kronecker_round_trip():
    """500 seeded structures (size <= 12), cond <= 100 scrambles, exact recovery."""
    start = time.perf_counter()
    rng = np.random.default_rng(220001)
    failures = 0
    for i in range(500):
        structure = random_structure(rng, max_size=12)
        seed = int(rng.integers(0, 2**62))
        scrambled, _ = pl.scramble(pl.assemble(structure), seed, max_cond=100.0)
        try:
            recovered = pl.staircase_structure(scrambled, TOL)
        except pl.RankDecisionUnstable:
            failures += 1
            continue
        if not pl.structures_match(structure, recovered):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report("2 (round trip)", ok, f"failures={failures}/500 elapsed={elapsed:.1f}s")


def test_criterion_03_q12_cross_oracle():
    """Koszul exactness vs shifted-pencil singularity on every candidate point."""
    start = time.perf_counter()
    rng = np.random.default_rng(220003)
    disagreements = 0
    pairs = 0
    candidates = 0
    while pairs < 500:
        a, b = random_commuting_pair(rng, max_n=10)
        pairs += 1
        n = a.shape[0]
        for z1 in eigenvalues(a).values:
            for z2 in eigenvalues(b).values:
                candidates += 1
                exact = pl.koszul_at(a, b, z1, z2, TOL).exact
                shifted = pl.Pencil(a - z1 * np.eye(n), b - z2 * np.eye(n))
                if exact != (not bool(pl.is_singular(shifted, TOL))):
                    disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 120.0
    _report(
        "3 (Koszul vs singularity)",
        ok,
        f"disagreements={disagreements} over {candidates} candidates "
        f"from 500 pairs, elapsed={elapsed:.1f}s",
    )


def test_criterion_04_invertible_ratio_description():
    """Eigenvalue-ratio description equals the direct spectrum on invertible pairs."""
    rng = np.random.default_rng(220004)
    mismatched = 0
    invertible = 0
    pairs = 0
    while pairs < 500:
        a, b = random_commuting_pair(rng, max_n=10)
        pairs += 1
        n = a.shape[0]
        if pl.numerical_rank(a, TOL) < n or pl.numerical_rank(b, TOL) < n:
            continue
        invertible += 1
        direct = pl.taylor_spectrum(a, b, TOL)
        ratio = pl.spectrum_invertible_characterization(a, b, TOL)
        equal, _ = pl.spectra_match(direct.points, ratio.points)
        if not equal:
            mismatched += 1
    ok = mismatched == 0 and invertible > 100
    _report(
        "4 (invertible ratio description)",
        ok,
        f"mismatches={mismatched} on {invertible} invertible pairs of 500",
    )


def test_criterion_05_intertwiner_oracle_equality(catalog):
    """Pattern parameter count == brute-force dimension; all basis elements conform."""
    bad = []
    for s in catalog:
        d = pl.assemble(s)
        dim, basis = pl.intertwiner_space(d.a, d.b, TOL)
        count = pl.pattern_parameter_count(s)
        conforms = all(pl.matches_pattern(m, s) for m in basis)
        if dim != count or not conforms:
            bad.append((s, dim, count, conforms))
    ok = not bad and len(catalog) >= 30
    _report(
        "5 (intertwiner oracle equality)",
        ok,
        f"{len(catalog) - len(bad)}/{len(catalog)} structures; mismatches={bad}",
    )


def test_criterion_06_feasibility_necessity():
    """Every commuting pair lands on a feasible Kronecker structure."""
    rng = np.random.default_rng(220006)
    failures = 0
    for _ in range(500):
        a, b = random_commuting_pair(rng, max_n=10, kinds=STAIRCASE_SAFE_KINDS)
        try:
            if not pl.verify_necessity(a, b, TOL):
                failures += 1
        except pl.RankDecisionUnstable:
            failures += 1
    ok = failures == 0
    _report("6 (feasibility necessity)", ok, f"failures={failures}/500")


def test_criterion_07_equality_case_multiplier(catalog):
    """Explicit multiplier construction on every equality-case catalog structure."""
    four_by_four = pl.KroneckerStructure(
        row_minimal=[(0, 1), (1, 1)], col_minimal=[(0, 1), (1, 1)]
    )
    cases = [s for s in catalog if is_equality_case(s)]
    assert any(s == four_by_four for s in cases), "catalog must contain the 4x4 fixture"
    bad = []
    for s in cases:
        p = pl.assemble(s)
        try:
            e = pl.construct_multiplier(p, TOL)
        except pl.PencilLabError as exc:
            bad.append((s, repr(exc)))
            continue
        ea, eb = e @ p.a, e @ p.b
        scale = max(float(np.linalg.norm(ea)) * float(np.linalg.norm(eb)), 1e-300)
        commutator = float(np.linalg.norm(ea @ eb - eb @ ea))
        if pl.numerical_rank(e, TOL) != p.rows or commutator > 1e-8 * scale:
            bad.append((s, f"rank/commutator failure {commutator:.2e}"))
    ok = not bad and len(cases) >= 5
    _report(
        "7 (equality-case multiplier)",
        ok,
        f"{len(cases) - len(bad)}/{len(cases)} equality structures; failures={bad}",
    )


def test_criterion_08_isotropic_chain():
    """500 singular pencils: valid certificate and plane numerical range."""
    rng = np.random.default_rng(220008)
    failures = 0
    methods = {"kernel": 0, "kronecker-constructive": 0, "random-search": 0}
    for _ in range(500):
        p, _ = random_singular_pencil(rng, max_size=10)
        try:
            cert = pl.isotropic_from_singular(p, TOL)
        except pl.PencilLabError:
            failures += 1
            continue
        methods[cert.method] += 1
        if not cert.is_valid(p.a, p.b) or not pl.pencil_nr_is_plane(p.a, p.b):
            failures += 1
    ok = failures == 0
    _report("8 (isotropic chain)", ok, f"failures={failures}/500 methods={methods}")


def test_criterion_09_shift_experiment():
    """Finite shift truncations: never singular, origin never in the spectrum."""
    from pencillab.cli import shift_experiment_rows

    rows = shift_experiment_rows(20, TOL)
    bad = [
        r
        for r in rows
        if r["singular"]
        or r["origin_in_taylor_spectrum"]
        or r["det_coeff_lead_error"] > 1e-8
        or r["det_coeff_max_other"] > 1e-8
    ]
    ok = len(rows) == 20 and not bad
    _report("9 (shift experiment)", ok, f"bad rows={[r['n'] for r in bad]}")


def test_criterion_10_analyze_determinism(fixtures_dir, tmp_path):
    """Repeat runs of the analyze command are byte-identical on all fixtures."""
    mismatched = []
    for fixture in sorted(fixtures_dir.glob("*.json")):
        if fixture.name == "catalog.json":
            continue
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "pencillab.cli", "analyze", str(fixture),
                 "--seed", "123"],
                capture_output=True,
                check=True,
            )
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            mismatched.append(fixture.name)
    ok = not mismatched
    _report("10 (analyze determinism)", ok, f"mismatched={mismatched}")
