"""Tests of the benchmark's own checks, generators and tracer.

Each check gets a hand case with a known answer, which it must accept,
and a deliberately wrong answer, which it must reject.  Run from the
repository root with ``python3 -m pytest bench -q``.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import gen
import oracles
from hostspeed import REFERENCE_S, Sampler
from spans import Tracer


# -- closed-form joint spectrum ----------------------------------------------


def test_spectrum_accepts_the_closed_form_in_any_order():
    expected = [(1, 4), (2, 5), (3j, 6)]
    got = [(3j + 1e-12, 6), (1, 4), (2, 5 - 1e-12)]
    assert oracles.spectrum_mismatch(expected, got) == ""


@pytest.mark.parametrize("got", [
    [(1, 5), (2, 4), (3j, 6)],           # coordinates paired wrongly
    [(1, 4), (2, 5)],                    # a point missing
    [(1, 4), (2, 5), (3j, 6), (0, 0)],   # an extra point
    [(1, 4), (2, 5), (3j, 6), (1, 4)],   # a point reported twice
])
def test_spectrum_rejects_wrong_answers(got):
    assert oracles.spectrum_mismatch([(1, 4), (2, 5), (3j, 6)], got) != ""


@pytest.mark.parametrize("planted", [False, True])
def test_commuting_pair_closed_form_matches_an_eigensolver(planted):
    pair = gen.commuting_pair(np.random.default_rng(7), 6, planted=planted)
    t = 0.37 + 0.21j  # A + tB has the eigenvalues z1_i + t z2_i
    eig = np.sort_complex(np.linalg.eigvals(pair.a + t * pair.b))
    assert np.allclose(eig, np.sort_complex(pair.z1 + t * pair.z2), atol=1e-9)
    assert np.linalg.norm(pair.a @ pair.b - pair.b @ pair.a) < 1e-10
    assert ((pair.z1 == 0) & (pair.z2 == 0)).any() == planted


# -- known Kronecker form ----------------------------------------------------


def _program_shaped(col=(), row=(), jordan=(), nilpotent=()):
    return SimpleNamespace(col_minimal=col, row_minimal=row, jordan=jordan, nilpotent=nilpotent)


KNOWN = gen.Structure(col=[1, 0], row=[0], jordan=[(2, 0.7), (1, -1.4j)], nilpotent=[1])


def test_kronecker_accepts_the_known_form():
    got = _program_shaped(((0, 1), (1, 1)), ((0, 1),), ((1, -1.4j), (2, 0.7 + 1e-9)), (1,))
    assert oracles.kronecker_mismatch(KNOWN, got) == ""


@pytest.mark.parametrize("got", [
    _program_shaped(((0, 2),), ((0, 1),), ((1, -1.4j), (2, 0.7)), (1,)),      # minimal index
    _program_shaped(((0, 1), (1, 1)), ((0, 1),), ((1, -1.4j), (2, 0.71)), (1,)),  # eigenvalue
    _program_shaped(((0, 1), (1, 1)), ((0, 1),), ((1, -1.4j), (1, 0.7)), (1, 1)),  # block sizes
    _program_shaped(((0, 1), (1, 1)), ((0, 1),), ((1, -1.4j), (2, 0.7), (1, 3)), (1,)),
])
def test_kronecker_rejects_wrong_forms(got):
    assert oracles.kronecker_mismatch(KNOWN, got) != ""


def test_kronecker_tolerance_follows_a_rescaled_pencil():
    s = gen.Structure(jordan=[(2, 0.0)], nilpotent=[1]).scaled(1e3)
    assert oracles.kronecker_mismatch(s, _program_shaped(jordan=((2, 1e-14),), nilpotent=(1,))) == ""
    assert oracles.kronecker_mismatch(s, _program_shaped(jordan=((2, 1e-6),), nilpotent=(1,))) != ""


def test_assembled_structure_has_its_eigenvalues():
    s = gen.Structure(jordan=[(1, 0.7), (1, -1.4j), (1, 2.1)], nilpotent=[1]).scaled(100.0)
    a, b = gen.scramble(*gen.assemble(s), np.random.default_rng(3))
    w = scipy.linalg.eigvals(a, -b)  # det(A + w B) = 0 at w = -lam
    finite = np.sort_complex(-w[np.isfinite(w)])
    assert np.isinf(w).sum() == 1
    assert np.allclose(finite, np.sort_complex([lam for _, lam in s.jordan]), atol=1e-10)


def test_guard_pencil_structure_is_its_spectrum():
    a, b, s = gen.guard_pencil(1e-3, 101)
    w = np.sort_complex(scipy.linalg.eigvals(a, b))  # A - w B singular: w = lam
    assert np.allclose(w, np.sort_complex([lam for _, lam in s.jordan]), atol=1e-9)


# -- LP hull oracle ----------------------------------------------------------


def test_hull_lp_on_hand_cases():
    inside = ([1, -1, 1j, -1j, 0.1], [1, 1j, -1, -1j, 0])
    outside = ([0.5, 1.5 + 2j], [-3, 3j])
    assert oracles.hull_contains_origin(*inside)
    assert not oracles.hull_contains_origin(*outside)
    assert oracles.hull_mismatch("inside", *inside) == ""
    assert oracles.hull_mismatch("outside", *outside) == ""
    assert oracles.hull_mismatch("outside", *inside) != ""
    assert oracles.hull_mismatch("inside", *outside) != ""


@pytest.mark.parametrize("inside", [True, False])
def test_normal_pair_hull_is_as_built(inside):
    pair = gen.normal_pair(np.random.default_rng(11), 5, origin_inside=inside)
    assert oracles.hull_contains_origin(pair.z1, pair.z2) == inside


# -- recomputed isotropic residuals ------------------------------------------


def test_isotropic_residuals_on_hand_cases():
    a, b = np.diag([1.0, -1.0]), np.diag([2.0, -2.0])
    assert oracles.isotropic_mismatch(np.array([1, 1]) / np.sqrt(2), a, b) == ""
    assert oracles.isotropic_mismatch(np.array([1.0, 0.0]), a, b) != ""
    assert oracles.isotropic_mismatch(np.array([1.0, 1.0]), a, b) != ""  # not a unit vector


def test_feasibility_inequalities():
    assert oracles.feasibility_mismatch([0, 0, 1], [0]) == ""
    assert oracles.feasibility_mismatch([1], [0]) != ""
    assert oracles.feasibility_mismatch([0], [0, 2]) != ""


# -- tracer ------------------------------------------------------------------


def test_tracer_rebinds_every_imported_name_and_restores_them():
    import pencillab
    from pencillab import kronecker, koszul, numrange

    originals = (kronecker.is_singular, koszul.is_singular, pencillab.is_singular,
                 numrange.least_squares)
    tracer = Tracer()
    tracer.install()
    try:
        assert koszul.is_singular is kronecker.is_singular is not originals[0]
        a, b = np.diag([1.0, -1.0]), np.diag([2.0, -2.0])
        pencillab.taylor_spectrum(a, b)
        koszul.spectrum_via_singularity(a, b)  # calls is_singular through koszul's own name
        numrange.isotropic_search(a, b, restarts=3)
    finally:
        tracer.uninstall()
    assert (kronecker.is_singular, koszul.is_singular, pencillab.is_singular,
            numrange.least_squares) == originals
    m = tracer.metrics()
    assert m["koszul.spectrum_via_singularity.calls"] == 1
    assert m["koszul.taylor_spectrum.calls"] == 2  # once directly, once inside the oracle
    assert m["kronecker.is_singular.calls"] >= 1
    assert m["optimize.least_squares.calls"] >= 1
    assert m["numrange.isotropic_search.found"] == 1
    assert m["kernel.svd.calls"] > 0 and m["kernel.svd.ops"] > 0
    via = tracer.spans["koszul.spectrum_via_singularity"]
    assert 0 < via[2] < via[1]  # self time excludes the wrapped children


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    import spans

    monkeypatch.setattr(spans, "SPANS", spans.SPANS + ("kronecker.no_such_function",))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["kronecker.no_such_function"]
    assert tracer.metrics()["kronecker.no_such_function.calls"] == 0


# -- host speed ----------------------------------------------------------------


def test_sampler_scales_a_stretch_by_the_mean_speed_sampled_in_it():
    sampler = Sampler()
    sampler.speeds = [4.0]
    mark = sampler.mark()
    sampler.speeds += [0.5, 1.5]
    wall, scaled = sampler.scaled(mark)
    assert wall > 0 and scaled == pytest.approx(wall * 1.0)


def test_sampler_uses_the_last_speed_for_a_stretch_without_a_sample():
    sampler = Sampler()
    sampler.speeds = [0.5, 2.0]
    wall, scaled = sampler.scaled(sampler.mark())
    assert scaled == pytest.approx(wall * 2.0)


def test_sampler_takes_its_own_time_out_of_a_stretch():
    sampler = Sampler()
    sampler.sample()
    mark = sampler.mark()
    start = time.perf_counter()
    for _ in range(20):
        sampler.sample()
    wall, _ = sampler.scaled(mark)
    assert wall < 0.1 * (time.perf_counter() - start)


def test_sampler_samples_on_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = Sampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + 0.4
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.speeds) >= 4
    assert all(0 < speed < 100 for speed in sampler.speeds)
    assert sampler.busy_s == pytest.approx(sum(REFERENCE_S / v for v in sampler.speeds))


# -- quick mode ----------------------------------------------------------------


def test_quick_mode_runs_every_workload_and_checks_it():
    proc = subprocess.run(
        [sys.executable, str(Path(gen.__file__).with_name("run.py")), "--quick"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] > result["failed"]
    for workload in ("structure", "taylor", "certificate", "analyze"):
        assert result["metrics"][f"{workload}.instances_per_s"]["value"] > 0
