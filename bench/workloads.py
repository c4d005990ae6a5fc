"""The four workloads: what each round calls in the program and how it is checked.

A workload's ``*_round`` function draws a fixed corpus of pencils from
``default_rng([CORPUS_SEED, 0])`` once per run and returns, for each, a
function of a coordinate stream that builds an instance: the pencil in
random unitary coordinates (:func:`gen.rotate`).  Round r draws its
coordinates from ``default_rng([seed, r])``.  The coordinates change
every matrix entry, so the same seed gives the same inputs, another seed
gives other inputs, and no answer can be served from a cache.  They
change neither the answers nor, in exact arithmetic, the work: rank
decisions see the same singular values and searches over the numerical
range see the same range.

The corpus is shared by every round and every seed because the searches
of ``certificate`` and ``analyze`` (Nelder-Mead polishing in
``conv_hull_membership``, 400 least-squares restarts in
``isotropic_search``) take ten times their usual time on some pencils:
with a corpus drawn afresh per seed, whole 20 s ``certificate`` runs
differed by half.  Rounding still steers those searches differently in
different coordinates, so some spread between seeds remains.

An :class:`Instance` holds the calls into ``pencillab`` (timed) and the
check of their outputs (not part of the latency).  Only the ``structure``
workload has instances that fail: the guard pencils, which do not depend
on the seed and are in every round, so the share of failed instances is
the same in every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import gen
import oracles


@dataclass
class Instance:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]


def _eye_shift(a, b, x, y):
    n = a.shape[0]
    return a - x * np.eye(n), b - y * np.eye(n)


# ---------------------------------------------------------------------------
# structure: staircase_structure alone


def _structure_instance(pl, label, a, b, expected, commuting=False) -> Instance:
    def run():
        recovered = pl.staircase_structure(pl.Pencil(a, b))
        feasible = pl.verify_necessity(a, b) if commuting else True
        return recovered, feasible

    def check(out):
        recovered, feasible = out
        reason = oracles.kronecker_mismatch(expected, recovered)
        if not reason and commuting:
            reason = oracles.feasibility_mismatch(expected.col, expected.row)
            if not reason and not feasible:
                reason = "verify_necessity rejected a commuting pair"
        return reason

    return Instance(label, run, check)


# Guard pencils: two simple eigenvalues 1e-3 apart relative to max(1, |lam|).
GUARD_SEEDS = (101, 202)
GUARD_GAP = 1e-3


def _rotated_structure_instance(pl, label, a, b, expected, commuting, coords) -> Instance:
    return _structure_instance(pl, label, *gen.rotate(a, b, coords), expected, commuting)


def _fixed_structure_instance(pl, label, a, b, expected, coords) -> Instance:
    """The same pencil in every round, whatever the coordinates."""
    return _structure_instance(pl, label, a, b, expected)


def structure_round(pl, corpus, quick: bool) -> list[Callable]:
    """Scrambled canonical pencils, commuting pairs p(M), q(M), guard pencils.

    Canonical sizes 6..48 (square and n x (n+1), singular and regular);
    every other one has B scaled by 10^U(-3, 3).  Commuting pairs at
    n = 6, 12, 24, the first and last with a planted common root.
    """
    canonical = (6, 8) if quick else (6, 8, 12, 16, 24, 32, 48)
    commuting = (6,) if quick else (6, 12, 24)
    out = []
    for i, n in enumerate(canonical):
        s = gen.random_structure(corpus, n, singular=i % 2 == 0, extra_column=i % 3 == 1)
        a, b = gen.scramble(*gen.assemble(s), corpus)
        if i % 2 == 1:
            c = 10.0 ** corpus.uniform(-3, 3)
            b, s = c * b, s.scaled(c)
        out.append(partial(_rotated_structure_instance, pl, f"canonical n={n}", a, b, s, False))
    for i, n in enumerate(commuting):
        pair = gen.commuting_pair(corpus, n, planted=i % 2 == 0)
        out.append(partial(_rotated_structure_instance, pl, f"commuting n={n}", pair.a, pair.b,
                           pair.structure(), True))
    for seed in GUARD_SEEDS:
        a, b, s = gen.guard_pencil(GUARD_GAP, seed)
        out.append(partial(_fixed_structure_instance, pl, f"guard seed={seed}", a, b, s))
    return out


def structure_warmup(pl, corpus, coords) -> Instance:
    s = gen.random_structure(corpus, 12, singular=True)
    return _structure_instance(pl, "warm-up", *gen.pencil_of(s, corpus, coords), s)


# ---------------------------------------------------------------------------
# taylor: the theorem on commuting pairs, no staircase


def _taylor_instance(pl, pair: gen.JointPair) -> Instance:
    a, b = pair.a, pair.b
    grid = [(x, y) for x in pair.z1 for y in pair.z2]

    def run():
        direct = pl.taylor_spectrum(a, b)
        via = pl.spectrum_via_singularity(a, b)
        cross = [
            (pl.koszul_at(a, b, x, y).exact, bool(pl.is_singular(pl.Pencil(*_eye_shift(a, b, x, y)))))
            for x, y in grid
        ]
        singular = bool(pl.is_singular(pl.Pencil(a, b)))
        ratio = None if pair.planted else pl.spectrum_invertible_characterization(a, b)
        return direct, via, cross, singular, ratio

    def check(out):
        direct, via, cross, singular, ratio = out
        expected = pair.joint_spectrum
        for name, spectrum in (("taylor_spectrum", direct), ("spectrum_via_singularity", via),
                               ("spectrum_invertible_characterization", ratio)):
            if spectrum is not None:
                reason = oracles.spectrum_mismatch(expected, spectrum.points)
                if reason:
                    return f"{name}: {reason}"
        n = len(pair.z1)
        for idx, (exact, shifted_singular) in enumerate(cross):
            member = idx // n == idx % n  # (z1_i, z2_j) is a joint eigenvalue iff i == j
            if exact == member or shifted_singular != member:
                i, j = divmod(idx, n)
                return (f"at (z1_{i}, z2_{j}): koszul exact={exact}, shifted pencil "
                        f"singular={shifted_singular}, joint eigenvalue={member}")
        if singular != pair.planted:
            return f"is_singular={singular} but common root planted={pair.planted}"
        return ""

    return Instance(f"taylor n={len(pair.z1)} planted={pair.planted}", run, check)


def _rotated_taylor_instance(pl, pair: gen.JointPair, coords) -> Instance:
    return _taylor_instance(pl, gen.rotate_pair(pair, coords))


def taylor_round(pl, corpus, quick: bool) -> list[Callable]:
    """Commuting pairs p(M), q(M) at n = 3..7, two of five with a planted root."""
    sizes = (3, 4) if quick else (3, 4, 5, 6, 7)
    return [partial(_rotated_taylor_instance, pl,
                    gen.commuting_pair(corpus, n, planted=i in (1, 3)))
            for i, n in enumerate(sizes)]


def taylor_warmup(pl, corpus, coords) -> Instance:
    return _taylor_instance(pl, gen.rotate_pair(gen.commuting_pair(corpus, 4, planted=True), coords))


# ---------------------------------------------------------------------------
# certificate: isotropic vectors of singular pencils


def _certificate_instance(pl, label: str, a, b) -> Instance:
    def run():
        cert = pl.isotropic_from_singular(pl.Pencil(a, b))
        return cert, pl.pencil_nr_is_plane(a, b)

    def check(out):
        cert, plane = out
        if not plane:
            return "numerical range of a singular pencil reported as not the plane"
        return oracles.isotropic_mismatch(cert.vector, a, b)

    return Instance(label, run, check)


CERTIFICATE_SIZES = (3, 4, 5, 6, 7, 8, 9, 10) * 2 + (16,)


def _rotated_certificate_instance(pl, label: str, a, b, coords) -> Instance:
    return _certificate_instance(pl, label, *gen.rotate(a, b, coords))


def certificate_round(pl, corpus, quick: bool) -> list[Callable]:
    """Singular square pencils: two at each n = 3..10 and one at n = 16."""
    out = []
    for n in (4, 6) if quick else CERTIFICATE_SIZES:
        s = gen.random_structure(corpus, n, singular=True)
        out.append(partial(_rotated_certificate_instance, pl, f"certificate n={n}",
                           *gen.scramble(*gen.assemble(s), corpus)))
    return out


def certificate_warmup(pl, corpus, coords) -> Instance:
    s = gen.random_structure(corpus, 4, singular=True)
    return _certificate_instance(pl, "warm-up", *gen.pencil_of(s, corpus, coords))


# ---------------------------------------------------------------------------
# analyze: the command-line report, run in-process


def _analyze_instance(pl, workdir: Path, tag: str, pair: gen.JointPair, normal: bool,
                      lp_inside: bool) -> Instance:
    src = workdir / f"{tag}.json"
    dst = workdir / f"{tag}.out.json"
    src.write_text(json.dumps(gen.pencil_document(pair.a, pair.b)), encoding="utf-8")

    def run():
        return pl.cli.main(["analyze", str(src), "--out", str(dst)])

    def check(code):
        if code != 0:
            return f"analyze exited with {code}"
        report = json.loads(dst.read_text(encoding="utf-8"))
        structure = report["kronecker"]
        got = SimpleNamespace(
            col_minimal=structure["col_minimal"],
            row_minimal=structure["row_minimal"],
            jordan=[(size, complex(*lam)) for size, lam in structure["jordan"]],
            nilpotent=structure["nilpotent"],
        )
        reason = oracles.kronecker_mismatch(pair.structure(), got)
        if reason:
            return f"kronecker: {reason}"
        reason = oracles.feasibility_mismatch(oracles.expand(got.col_minimal),
                                              oracles.expand(got.row_minimal))
        if reason or not report["commuting_feasible"]["feasible"]:
            return f"feasibility inequalities: {reason or 'reported infeasible'}"
        cm = report["condition_matrix"]
        if cm["0_zero_in_taylor"] != pair.planted or cm["i_pencil_singular"] != pair.planted:
            return (f"conditions (0)={cm['0_zero_in_taylor']} (i)={cm['i_pencil_singular']} "
                    f"but common root planted={pair.planted}")
        points = [(complex(*p["z1"]), complex(*p["z2"])) for p in report["taylor_spectrum"]]
        reason = oracles.spectrum_mismatch(pair.joint_spectrum, points)
        if reason:
            return f"taylor spectrum: {reason}"
        verdict = report["membership"]["verdict"]
        reason = oracles.hull_mismatch(verdict, pair.z1, pair.z2) if normal else ""
        if reason:
            return reason
        if (pair.planted or lp_inside) and verdict != "inside":
            return f"hull verdict {verdict} although the origin is in the hull"
        cert = report["certificate"]
        if cm["ii_origin_in_joint_range"] != (cert is not None):
            return "condition (ii) and the certificate disagree"
        if pair.planted and cert is None:
            return "singular pencil without an isotropic certificate"
        if normal and not lp_inside and cert is not None:
            return "isotropic certificate although the hull misses the origin"
        if cert is not None:
            x = np.array([complex(*v) for v in cert["vector"]])
            return oracles.isotropic_mismatch(x, pair.a, pair.b)
        return ""

    kind = "normal" if normal else "commuting"
    return Instance(f"analyze {kind} n={len(pair.z1)} planted={pair.planted}", run, check)


def _rotated_analyze_instance(pl, workdir, tag, pair, normal, lp_inside, coords) -> Instance:
    return _analyze_instance(pl, workdir, tag, gen.rotate_pair(pair, coords), normal, lp_inside)


def analyze_round(pl, corpus, quick: bool, workdir: Path) -> list[Callable]:
    """Commuting pairs (n = 4, 6 planted; n = 6 unplanted with the origin in
    the hull of the joint eigenvalues), normal pairs with the origin inside
    their hull (n = 4, 6) and one outside (n = 2)."""
    specs = [
        ("c4p", gen.commuting_pair(corpus, 4, planted=True), False),
        ("c6p", gen.commuting_pair(corpus, 6, planted=True), False),
        ("c6u", gen.commuting_pair(corpus, 6, planted=False, origin_in_hull=True), False),
        ("n4i", gen.normal_pair(corpus, 4, origin_inside=True), True),
        ("n6i", gen.normal_pair(corpus, 6, origin_inside=True), True),
        ("n2o", gen.normal_pair(corpus, 2, origin_inside=False), True),
    ]
    if quick:
        specs = specs[:1] + specs[3:4]
    return [partial(_rotated_analyze_instance, pl, workdir, tag, pair, normal,
                    oracles.hull_contains_origin(pair.z1, pair.z2))
            for tag, pair, normal in specs]


def analyze_warmup(pl, corpus, coords, workdir: Path) -> Instance:
    pair = gen.commuting_pair(corpus, 4, planted=True)
    return _rotated_analyze_instance(pl, workdir, "warm-up", pair, False,
                                     oracles.hull_contains_origin(pair.z1, pair.z2), coords)


CORPUS_SEED = 2402
WARMUP = 1 << 20  # round index of the warm-up instance


def corpus_stream(warmup: bool = False) -> np.random.Generator:
    """The random stream of the corpus (or of the warm-up instance)."""
    return np.random.default_rng([CORPUS_SEED, WARMUP if warmup else 0])


def coordinate_stream(seed: int, index: int) -> np.random.Generator:
    """The random stream of round ``index``'s coordinates."""
    return np.random.default_rng([seed, index])
