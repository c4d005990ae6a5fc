"""Command-line front end: file analysis, randomized verification campaigns,
and the shift-truncation experiment.

Exit codes: 0 on success, 1 on input errors, 2 when a computation violates
a guaranteed implication or two oracles disagree (either means a bug, not
bad data).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _io
import sys
import zlib
from pathlib import Path

import numpy as np

from . import io as plio
from .commuting import commuting_feasible, verify_necessity
from .config import ToleranceConfig
from .errors import ImplicationViolated, OracleDisagreement, PencilLabError, RankDecisionUnstable
from .generators import (STAIRCASE_SAFE_KINDS, random_commuting_pair,
                         random_singular_pencil, random_structure)
from .koszul import (
    commuting_analysis,
    invertible_shift_pair,
    koszul_at,
    shift_truncation_pair,
    spectra_match,
    spectrum_invertible_characterization,
    spectrum_via_singularity,
    taylor_spectrum,
)
from .kronecker import assemble, is_singular, scramble, staircase_structure, structures_match
from .linalg import pencil_determinant_coefficients
from .numrange import isotropic_from_singular, pencil_nr_is_plane
from .pencil import Pencil

# the ToleranceConfig field that each tolerance or seed option sets, by argparse name
_TOLERANCE_OPTIONS = {"tol_rank": "rank_rel_tol", "seed": "rng_seed"}


def _tolerances(args) -> ToleranceConfig:
    given = {field: getattr(args, name) for name, field in _TOLERANCE_OPTIONS.items()}
    return ToleranceConfig(**{field: value for field, value in given.items() if value is not None})


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# analyze


def analyze_pencil(p: Pencil, tol: ToleranceConfig) -> dict:
    """Full machine-readable analysis of one pencil.

    A square pencil with commuting coefficients takes its Kronecker
    structure, Taylor spectrum and conditions from
    :func:`~pencillab.koszul.commuting_analysis`, which reads the
    structure off the joint spectrum where that is clear and cross-checks
    it against condition (i); any other pencil takes its structure from
    :func:`staircase_structure`.  The pair is validated once.
    """
    report: dict = {
        "input": {
            "rows": p.rows,
            "cols": p.cols,
            "norm_a": p.norms[0],
            "norm_b": p.norms[1],
        },
        "tolerances": {"rank_rel_tol": tol.rank_rel_tol},
        "seed": tol.rng_seed,
    }
    commuting = commuting_analysis(p.a, p.b, tol) if p.is_square else None
    structure, spectrum, conditions = commuting or (staircase_structure(p, tol), None, None)
    report["kronecker"] = plio.structure_to_json(structure)
    feasible, violations = commuting_feasible(structure)
    report["commuting_feasible"] = {"feasible": feasible, "violations": violations}
    if p.is_square:
        verdict = is_singular(p, tol) if conditions is None else conditions.singularity
        kernel = verdict.kernel
        report["singular"] = {
            "verdict": bool(verdict),
            "normal_rank": verdict.normal_rank,  # null unless the deciding node is clean
            # null when every singular value is exactly zero (unbounded margin)
            "rank_margin": verdict.rank_margin if np.isfinite(verdict.rank_margin) else None,
            "deciding_node": plio.complex_to_json(verdict.deciding_node),
            # null for the empty pencil, which has no node
            "sigma_min": verdict.sigma_min if np.isfinite(verdict.sigma_min) else None,
            "regularity_bound": None if verdict or not p.rows else verdict.sigma_min,
            # the polynomial kernel vector that proves a singular verdict
            "kernel_degree": kernel and kernel.degree,
            "kernel_residual": kernel and kernel.residual,
        }
        report["coefficients_commute"] = commuting is not None
        # |AB - BA|_F / (|A|_F |B|_F), the backward error the joint spectrum's discs take
        report["commutator_residual"] = (None if conditions is None
                                         else conditions.koszul.commutator_residual)
        if conditions is not None:
            report["condition_matrix"] = {
                "0_zero_in_taylor": conditions.zero_in_taylor,
                "i_pencil_singular": conditions.pencil_singular,
                "ii_origin_in_joint_range": conditions.origin_in_joint_range,
                "iii_range_is_plane": conditions.range_is_plane,
                "implications": [
                    {"name": name, "holds": ok} for name, ok in conditions.implications
                ],
            }
            report["membership"] = plio.membership_to_json(conditions.membership)
            if conditions.certificate is not None:
                report["certificate"] = plio.certificate_to_json(conditions.certificate)
            else:
                report["certificate"] = None
            report["taylor_spectrum"] = plio.spectrum_report(spectrum)
    return report


def cmd_analyze(args, tol: ToleranceConfig) -> int:
    try:
        report = analyze_pencil(plio.load_pencil(args.pencil), tol)
    except (ImplicationViolated, OracleDisagreement) as exc:
        sys.stderr.write(f"computation violated a guaranteed property: {exc}\n")
        return 2
    except PencilLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(plio.dumps(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# campaign


def _check_roundtrip(rng: np.random.Generator, tol: ToleranceConfig, index: int) -> dict:
    structure = random_structure(rng, max_size=12)
    seed = int(rng.integers(0, 2**63 - 1))
    scrambled, _ = scramble(assemble(structure), seed, max_cond=100.0)
    recovered = staircase_structure(scrambled, tol)
    ok = structures_match(structure, recovered)
    return {
        "ok": ok,
        "pencil": plio.pencil_to_json(scrambled),
        "detail": {
            "expected": plio.structure_to_json(structure),
            "recovered": plio.structure_to_json(recovered),
        },
    }


def _check_q12(rng: np.random.Generator, tol: ToleranceConfig, index: int) -> dict:
    a, b = random_commuting_pair(rng, max_n=8)
    spectrum = spectrum_via_singularity(a, b, tol)  # raises OracleDisagreement on mismatch
    mismatches = [("koszul-exact-at-member", p) for p in spectrum.points
                  if koszul_at(a, b, *p, tol).exact]
    return {
        "ok": not mismatches,
        "pencil": plio.pencil_to_json(Pencil(a, b)),
        "detail": {"mismatches": [str(m) for m in mismatches], "points": len(spectrum.points)},
    }


def _check_hypo(rng: np.random.Generator, tol: ToleranceConfig, index: int) -> dict:
    """The ratio description against the direct spectrum, points repeated by multiplicity."""
    a, b = random_commuting_pair(rng, max_n=8)
    direct = taylor_spectrum(a, b, tol)
    ratio = spectrum_invertible_characterization(a, b, tol)
    ok, mismatches = spectra_match(*(np.repeat(s.points, s.multiplicities, axis=0)
                                     for s in (direct, ratio)))
    return {
        "ok": ok,
        "pencil": plio.pencil_to_json(Pencil(a, b)),
        "detail": {"mismatches": [str(m) for m in mismatches]},
    }


def _check_dopico(rng: np.random.Generator, tol: ToleranceConfig, index: int) -> dict:
    p, _ = random_singular_pencil(rng, max_size=10)
    cert = isotropic_from_singular(p, tol)
    ok = cert.is_valid(p.a, p.b) and pencil_nr_is_plane(p.a, p.b)
    return {
        "ok": ok,
        "pencil": plio.pencil_to_json(p),
        "detail": {"method": cert.method, "residual_a": cert.residual_a,
                   "residual_b": cert.residual_b},
    }


def _check_necessity(rng: np.random.Generator, tol: ToleranceConfig, index: int) -> dict:
    a, b = random_commuting_pair(rng, max_n=8, kinds=STAIRCASE_SAFE_KINDS)
    ok = verify_necessity(a, b, tol)
    return {"ok": ok, "pencil": plio.pencil_to_json(Pencil(a, b)), "detail": {}}


_CHECKS = {
    "roundtrip": _check_roundtrip,
    "q12": _check_q12,
    "hypo": _check_hypo,
    "dopico": _check_dopico,
    "necessity": _check_necessity,
}


def campaign_rng(seed: int, name: str, index: int) -> np.random.Generator:
    """Generator for one campaign instance; CRC-32, unlike ``hash``, is not salted per process."""
    return np.random.default_rng((seed, zlib.crc32(name.encode()) & 0xFFFF, index))


def run_campaign(generator: str, count: int, tol: ToleranceConfig,
                 failure_dir: str) -> dict:
    """Run each check ``count`` times and count its outcomes.

    Per check: passed, failed and unstable instances, and once one is
    unstable, ``unstable_reasons``: the unstable ones by exception class.
    """
    names = list(_CHECKS) if generator == "all" else [generator]
    summary: dict = {"campaign": generator, "count": count, "seed": tol.rng_seed, "results": {}}
    failures: list[str] = []
    for name in names:
        check = _CHECKS[name]
        stats = {"passed": 0, "failed": 0, "unstable": 0}
        for index in range(count):
            rng = campaign_rng(tol.rng_seed, name, index)
            try:
                outcome = check(rng, tol, index)
            except RankDecisionUnstable as exc:
                stats["unstable"] += 1
                reasons = stats.setdefault("unstable_reasons", {})
                reasons[type(exc).__name__] = reasons.get(type(exc).__name__, 0) + 1
                continue
            except (OracleDisagreement, ImplicationViolated) as exc:
                outcome = {"ok": False, "pencil": None, "detail": {"error": str(exc)}}
            if outcome["ok"]:
                stats["passed"] += 1
            else:
                stats["failed"] += 1
                Path(failure_dir).mkdir(parents=True, exist_ok=True)
                artifact = {
                    "check": name,
                    "index": index,
                    "seed": tol.rng_seed,
                    "tolerances": {"rank_rel_tol": tol.rank_rel_tol},
                    "pencil": outcome["pencil"],
                    "detail": outcome["detail"],
                }
                path = Path(failure_dir) / f"{name}-{index:04d}.json"
                plio.save_json(path, artifact)
                failures.append(str(path))
        summary["results"][name] = stats
    summary["failure_artifacts"] = failures
    return summary


def replay_artifact(path: str) -> dict:
    """Rerun a failure artifact's instance at its tolerances and seed; retired keys are ignored.

    An artifact that lacks a field, or holds one of the wrong kind, raises
    :class:`~pencillab.io.ParseError`.
    """
    artifact = plio.load_json(path)
    try:
        name, index, seed = artifact["check"], artifact["index"], artifact["seed"]
        check = _CHECKS[name]
        tol = ToleranceConfig(rank_rel_tol=artifact["tolerances"]["rank_rel_tol"], rng_seed=seed)
        rng = campaign_rng(seed, name, index)
    except (KeyError, TypeError, ValueError) as exc:
        raise plio.ParseError(f"{path}: malformed failure artifact "
                              f"({type(exc).__name__}: {exc})") from exc
    outcome = check(rng, tol, index)
    return {"check": name, "index": index, "ok": outcome["ok"], "detail": outcome["detail"]}


def cmd_campaign(args, tol: ToleranceConfig) -> int:
    if args.replay:
        given = ["--" + name.replace("_", "-") for name in _TOLERANCE_OPTIONS
                 if getattr(args, name) is not None]
        if given:
            sys.stderr.write(f"error: --replay runs at the artifact's tolerances and seed; "
                             f"drop {', '.join(given)}\n")
            return 1
        try:
            result = replay_artifact(args.replay)
        except (OracleDisagreement, ImplicationViolated) as exc:
            sys.stderr.write(f"replayed failure: {exc}\n")
            return 2
        except PencilLabError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        _emit(plio.dumps(result), args.out)
        return 0 if result["ok"] else 2
    if args.generator not in _CHECKS and args.generator != "all":
        sys.stderr.write(
            f"error: unknown generator {args.generator!r}; choose from "
            f"{', '.join(list(_CHECKS) + ['all'])}\n"
        )
        return 1
    if args.count < 1:
        sys.stderr.write("error: --count must be at least 1\n")
        return 1
    summary = run_campaign(args.generator, args.count, tol, args.failure_dir)
    _emit(plio.dumps(summary), args.out)
    failed = sum(stats["failed"] for stats in summary["results"].values())
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# shift experiment


def shift_experiment_rows(n_max: int, tol: ToleranceConfig) -> list[dict]:
    """Finite-truncation behavior of the shift-pair construction.

    Every row certifies the finite-dimensional equivalence: the pencil of
    (I (+) M_n, M_n (+) I) has determinant lam**n (never identically
    zero), the origin stays outside the Taylor spectrum, and the Koszul
    complex at the origin stays exact.  The invertible variant's spectrum
    is recomputed through the eigenvalue-ratio description as a
    cross-check.
    """
    rows = []
    for n in range(1, n_max + 1):
        a, b = shift_truncation_pair(n)
        p = Pencil(a, b)
        size = 2 * n
        coeffs = pencil_determinant_coefficients(p)
        scale = p.norm_scale() ** size
        true_coeffs = coeffs * scale
        lead_err = abs(true_coeffs[n] - 1.0)
        others = np.abs(np.delete(true_coeffs, n))
        singular = bool(is_singular(p, tol))
        spectrum = taylor_spectrum(a, b, tol)
        origin_member = spectrum.contains(0.0, 0.0)
        assessment = koszul_at(a, b, 0.0, 0.0, tol)

        ia, ib = invertible_shift_pair(n)
        inv_direct = taylor_spectrum(ia, ib, tol)
        inv_ratio = spectrum_invertible_characterization(ia, ib, tol)
        inv_match, _ = spectra_match(inv_direct.points, inv_ratio.points)
        rows.append(
            {
                "n": n,
                "size": size,
                "det_coeff_lead_error": float(lead_err),
                "det_coeff_max_other": float(others.max()) if others.size else 0.0,
                "singular": singular,
                "origin_in_taylor_spectrum": bool(origin_member),
                "koszul_rank_d1": assessment.rank_d1,
                "koszul_rank_d2": assessment.rank_d2,
                "koszul_exact_at_origin": assessment.exact,
                "invertible_variant_points": ";".join(
                    f"{z1.real:g}{z1.imag:+g}j/{z2.real:g}{z2.imag:+g}j"
                    for z1, z2 in inv_direct.points
                ),
                "invertible_variant_ratio_matches": bool(inv_match),
            }
        )
    return rows


def cmd_shift_experiment(args, tol: ToleranceConfig) -> int:
    if not (1 <= args.nmax <= 50):
        sys.stderr.write("error: --nmax must lie in 1..50\n")
        return 1
    rows = shift_experiment_rows(args.nmax, tol)
    if args.format == "json":
        _emit(plio.dumps(rows), args.out)
    else:
        buf = _io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))  # columns in row order
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    # unset options take the ToleranceConfig defaults
    parser.add_argument("--tol-rank", type=float, default=None,
                        help="relative rank cutoff (default 1e-10)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")


class _Parser(argparse.ArgumentParser):
    """A rejected argument raises ValueError, for ``main`` to report as an input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pencillab",
        description="Analyze complex matrix pencils: Kronecker structure, singularity, "
        "Taylor spectrum and joint numerical range conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full JSON report for a pencil file")
    p_an.add_argument("pencil", help="path to a pencil JSON file {a: matrix, b: matrix}")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_camp = sub.add_parser("campaign", help="randomized cross-verification campaigns")
    p_camp.add_argument("generator", nargs="?", default="all",
                        help="one of roundtrip, q12, hypo, dopico, necessity, all")
    p_camp.add_argument("--count", type=int, default=100,
                        help="instances per check (default 100)")
    p_camp.add_argument("--failure-dir", default="campaign-failures",
                        help="directory for replayable failure artifacts")
    p_camp.add_argument("--replay", default=None,
                        help="replay one failure artifact file and exit")
    _add_common(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_shift = sub.add_parser("shift-experiment",
                             help="finite truncations of the shift-operator pair")
    p_shift.add_argument("--nmax", type=int, default=20, help="largest truncation (default 20)")
    p_shift.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
    _add_common(p_shift)
    p_shift.set_defaults(func=cmd_shift_experiment)
    return parser


_parser = functools.cache(build_parser)  # built once per process


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        tol = _tolerances(args)
    except ValueError as exc:  # a malformed option, or a value ToleranceConfig refuses
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        return args.func(args, tol)
    except OSError as exc:  # a file that cannot be read or written, such as --out
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
