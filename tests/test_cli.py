import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pencillab import Pencil
from pencillab.cli import main
from pencillab.io import load_pencil, pencil_to_json

from conftest import REPO


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_fixture_report(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["analyze", str(fixtures_dir / "signed_diag_pair.json")], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["singular"]["verdict"] is False
        assert report["singular"]["rank_margin"] > 10
        cm = report["condition_matrix"]
        assert cm["0_zero_in_taylor"] is False
        assert cm["i_pencil_singular"] is False
        assert cm["ii_origin_in_joint_range"] is True
        assert cm["iii_range_is_plane"] is True
        points = {(round(p["z1"][0]), round(p["z2"][0])) for p in report["taylor_spectrum"]}
        assert points == {(1, 2), (-1, -2)}
        assert [p["multiplicity"] for p in report["taylor_spectrum"]] == [1, 1]
        # the trace point of I/2 is the origin, so no oracle call is needed
        membership = report["membership"]
        assert membership["verdict"] == "inside"
        assert membership["iterations"] == 0
        assert membership["inside_weights"] == [0.5, 0.5]
        # a normal pair: the vector comes from its joint eigenvectors, with no search
        assert report["certificate"]["method"] == "joint-eigenvectors"

    def test_regularity_witness(self, fixtures_dir, capsys):
        fixture = fixtures_dir / "signed_diag_pair.json"
        code, out, _ = run_cli(["analyze", str(fixture)], capsys)
        assert code == 0
        singular = json.loads(out)["singular"]
        # A + lam* B at the deciding node is invertible, which proves regularity
        p = load_pencil(fixture)
        sigma = np.linalg.svd(p.at(complex(*singular["deciding_node"])), compute_uv=False)[-1]
        assert singular["sigma_min"] == pytest.approx(sigma) and sigma > 0.1
        assert singular["regularity_bound"] == singular["sigma_min"]
        assert singular["kernel_degree"] is None and singular["kernel_residual"] is None

    def test_zero_pencil_all_true(self, fixtures_dir, capsys):
        code, out, _ = run_cli(["analyze", str(fixtures_dir / "zero_pencil_2x2.json")], capsys)
        assert code == 0
        cm = json.loads(out)["condition_matrix"]
        assert all(
            cm[key]
            for key in (
                "0_zero_in_taylor",
                "i_pencil_singular",
                "ii_origin_in_joint_range",
                "iii_range_is_plane",
            )
        )

    def test_minimal_four_by_four(self, fixtures_dir, capsys):
        # canonical minimal-block sums do not have commuting coefficients,
        # so the report carries singularity but no condition matrix
        code, out, _ = run_cli(["analyze", str(fixtures_dir / "minimal_pair_4x4.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["singular"]["verdict"] is True
        assert report["coefficients_commute"] is False
        assert report["commutator_residual"] is None
        assert "condition_matrix" not in report
        assert report["kronecker"]["row_minimal"] == [[0, 1], [1, 1]]
        assert report["kronecker"]["col_minimal"] == [[0, 1], [1, 1]]

    def test_split_nilpotent_pair_is_one_joint_point(self, fixtures_dir, tmp_path, capsys):
        # the pair commutes to 1.6e-13 relative, far above rounding; discs that
        # take that residual keep its 7-fold nilpotent ring one point
        pairs = json.loads((fixtures_dir / "split_nilpotent" / "pairs.json").read_text())
        entry = next(e for e in pairs if e["seed"] == 831 and e["scale"] == 1e-3)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"a": entry["a"], "b": entry["b"]}), encoding="utf-8")
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["coefficients_commute"] is True
        assert 1e-14 < report["commutator_residual"] <= 1e-10
        assert [point["multiplicity"] for point in report["taylor_spectrum"]] == [7]

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": {"rows": 1, "cols": 1, "entries": [[1, 0], [2, 0]]}, '
                       '"b": {"rows": 1, "cols": 1, "entries": [[0, 0]]}}',
                       encoding="utf-8")
        code, _, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 1
        assert "expected 1 entries" in err

    def test_guard_band_pencil_exit_one(self, tmp_path, capsys):
        # A = diag(1, 1e-9), B = 0: every sweep node's rank lies inside the
        # guard band, which is an ordinary error, not a violated property
        band = tmp_path / "band.json"
        entries = [[1, 0], [0, 0], [0, 0], [1e-9, 0]]
        band.write_text(json.dumps({
            "a": {"rows": 2, "cols": 2, "entries": entries},
            "b": {"rows": 2, "cols": 2, "entries": [[0, 0]] * 4},
        }), encoding="utf-8")
        code, out, err = run_cli(["analyze", str(band)], capsys)
        assert code == 1
        assert out == ""
        assert "within a factor 10" in err

    @pytest.mark.parametrize("t", [1e6, 1e9])
    def test_deficiency_hidden_from_the_qr_diagonal_reads_singular(self, tmp_path, capsys, t):
        # A = B = [[1, t], [0, 2]] commute, and sigma_min(A) / sigma_1(A) ~ 2 / t^2
        # lies below the rank cutoff, though the QR diagonal hides it: the
        # pencil reads singular, proved by a common kernel vector of A and B
        skewed = tmp_path / "skewed.json"
        entries = [[1, 0], [t, 0], [0, 0], [2, 0]]
        matrix = {"rows": 2, "cols": 2, "entries": entries}
        skewed.write_text(json.dumps({"a": matrix, "b": matrix}), encoding="utf-8")
        code, out, _ = run_cli(["analyze", str(skewed)], capsys)
        assert code == 0
        report = json.loads(out)
        singular = report["singular"]
        assert singular["verdict"] is True and singular["regularity_bound"] is None
        assert singular["kernel_degree"] == 0 and singular["kernel_residual"] <= 1e-9 * t
        assert report["kronecker"]["col_minimal"] == [[0, 1]]
        assert report["certificate"]["method"] == "kernel"

    def test_syntax_error_positions(self, tmp_path, capsys):
        bad = tmp_path / "syntax.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 1
        assert "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["analyze", "/nonexistent/p.json"], capsys)
        assert code == 1

    def test_byte_identical_reruns(self, fixtures_dir, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                ["analyze", str(fixtures_dir / "signed_diag_pair.json"), "--seed", "42"],
                capsys,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_out_file(self, fixtures_dir, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["analyze", str(fixtures_dir / "zero_pencil_2x2.json"), "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        json.loads(target.read_text(encoding="utf-8"))


    def test_commuting_pencil_reads_its_structure_off_the_joint_spectrum(
            self, fixtures_dir, monkeypatch, capsys):
        from pencillab import cli, koszul

        def refuse(*args, **kwargs):
            raise AssertionError("the staircase ran on a commuting pencil")

        monkeypatch.setattr(cli, "staircase_structure", refuse)
        monkeypatch.setattr(koszul, "staircase_structure", refuse)
        code, out, _ = run_cli(["analyze", str(fixtures_dir / "signed_diag_pair.json")], capsys)
        assert code == 0
        kronecker = json.loads(out)["kronecker"]
        assert [size for size, _ in kronecker["jordan"]] == [1, 1]
        assert all(lam == pytest.approx([0.5, 0.0]) for _, lam in kronecker["jordan"])
        assert kronecker["col_minimal"] == kronecker["row_minimal"] == []

    def test_structure_contradicting_singularity_exit_two(
            self, fixtures_dir, monkeypatch, capsys):
        # a singular pencil has minimal indices: a structure without them is a bug
        from pencillab import koszul
        from pencillab.kronecker import KroneckerStructure

        monkeypatch.setattr(koszul, "_simple_point_structure", lambda *args: (
            KroneckerStructure(jordan=[(1, 0.0), (1, 0.0)])))
        code, out, err = run_cli(["analyze", str(fixtures_dir / "zero_pencil_2x2.json")], capsys)
        assert code == 2
        assert out == ""
        assert "minimal indices" in err

    def test_small_eigenvalue_of_a_regular_commuting_pencil(self, tmp_path, capsys):
        # A = diag(1, 1e-9), B = I: |alpha| = 1e-9 is in the guard band, but it
        # is never read, since beta = 1 makes both blocks J_1
        small = tmp_path / "small.json"
        entries = [[1, 0], [0, 0], [0, 0], [1e-9, 0]]
        small.write_text(json.dumps({
            "a": {"rows": 2, "cols": 2, "entries": entries},
            "b": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
        }), encoding="utf-8")
        code, out, _ = run_cli(["analyze", str(small)], capsys)
        assert code == 0
        kronecker = json.loads(out)["kronecker"]
        assert sorted(lam[0] for _, lam in kronecker["jordan"]) == pytest.approx([1e-9, 1.0])
        assert kronecker["col_minimal"] == kronecker["nilpotent"] == []

    @pytest.mark.parametrize("scale, code", [(1e-14, 0), (1e140, 0), (1e153, 0), (1e154, 1)])
    def test_scaled_triangular_pair(self, tmp_path, capsys, scale, code):
        # the analysis of c (A, B) is that of (A, B) until |(A, B)|_F overflows,
        # which is an input error
        path = tmp_path / "scaled.json"
        a, b = np.array([[1.0, 1.0], [0.0, 2.0]]), np.array([[3.0, 2.0], [0.0, 5.0]])
        path.write_text(json.dumps(pencil_to_json(Pencil(scale * a, scale * b))),
                        encoding="utf-8")
        got, out, err = run_cli(["analyze", str(path)], capsys)
        assert got == code, err
        if code:
            assert err.startswith("error: ") and "Frobenius norm overflows" in err
            return
        report = json.loads(out)
        assert report["coefficients_commute"] is True
        points = sorted((p["z1"][0] / scale, p["z2"][0] / scale)
                        for p in report["taylor_spectrum"])
        np.testing.assert_allclose(points, [(1.0, 3.0), (2.0, 5.0)], rtol=1e-12)

    def test_empty_pencil(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        matrix = {"rows": 0, "cols": 0, "entries": []}
        empty.write_text(json.dumps({"a": matrix, "b": matrix}), encoding="utf-8")
        code, out, _ = run_cli(["analyze", str(empty)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["taylor_spectrum"] == [] and report["certificate"] is None
        assert report["membership"]["verdict"] == "outside"
        assert not any(v for k, v in report["condition_matrix"].items() if k != "implications")


class TestCampaign:
    def test_small_all_clean(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["campaign", "all", "--count", "2", "--failure-dir", str(tmp_path / "fails")],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        for stats in summary["results"].values():
            assert stats["failed"] == 0
        assert summary["failure_artifacts"] == []

    def test_loose_tolerance_reports_unstable(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "campaign", "roundtrip", "--count", "8",
                "--tol-rank", "1e-2",
                "--failure-dir", str(tmp_path / "fails"),
            ],
            capsys,
        )
        summary = json.loads(out)
        assert summary["results"]["roundtrip"]["unstable"] > 0

    def test_unstable_reasons_counted_by_exception(self, tmp_path, monkeypatch):
        from pencillab import RankDecisionUnstable, ToleranceConfig, cli

        def check(rng, tol, index):
            if index % 2:
                raise RankDecisionUnstable("margin too small")
            return {"ok": True, "pencil": None, "detail": {}}

        monkeypatch.setitem(cli._CHECKS, "dopico", check)
        summary = cli.run_campaign("dopico", 5, ToleranceConfig(), str(tmp_path))
        assert summary["results"]["dopico"] == {
            "passed": 3, "failed": 0, "unstable": 2,
            "unstable_reasons": {"RankDecisionUnstable": 2},
        }

    def test_replay_reruns_a_failed_instance(self, tmp_path, monkeypatch, capsys):
        from pencillab import ToleranceConfig, cli

        def check(rng, tol, index):
            draw = int(rng.integers(2**62))
            return {"ok": False, "pencil": None, "detail": {"draw": draw, "index": index}}

        monkeypatch.setitem(cli._CHECKS, "dopico", check)
        summary = cli.run_campaign("dopico", 2, ToleranceConfig(rng_seed=3), str(tmp_path))
        path = summary["failure_artifacts"][1]
        with open(path, encoding="utf-8") as fh:
            artifact = json.load(fh)
        code, out, _ = run_cli(["campaign", "--replay", path], capsys)
        assert code == 2
        replay = json.loads(out)
        assert replay == {"check": "dopico", "index": 1, "ok": False, "detail": artifact["detail"]}

    def test_replay_ignores_a_retired_tolerance_key(self, fixtures_dir, monkeypatch, capsys):
        # an artifact written while ToleranceConfig had more floats still
        # replays, at its rank cutoff and seed
        from pencillab import ToleranceConfig, cli

        path = fixtures_dir / "campaign" / "roundtrip-0000-old-format.json"
        artifact = json.loads(path.read_text(encoding="utf-8"))
        assert set(artifact["tolerances"]) - {"rank_rel_tol"} == {"det_zero_tol", "eig_cluster_tol"}
        calls = []
        check = cli._CHECKS["roundtrip"]

        def recorded(rng, tol, index):
            calls.append(tol)
            return check(rng, tol, index)

        monkeypatch.setitem(cli._CHECKS, "roundtrip", recorded)
        code, out, _ = run_cli(["campaign", "--replay", str(path)], capsys)
        assert code == 0 and calls == [ToleranceConfig(rng_seed=3)]
        assert json.loads(out) == {"check": "roundtrip", "index": 0, "ok": True,
                                   "detail": artifact["detail"]}

    # the ids keep the case names from when a --tol-cluster case sat between these two
    @pytest.mark.parametrize("option", [["--tol-rank", "1e-3"], ["--seed", "4"]],
                             ids=["option0", "option2"])
    def test_replay_rejects_tolerance_and_seed_options(self, tmp_path, monkeypatch, capsys,
                                                       option):
        # the replay runs at the artifact's tolerances and seed, so an option
        # that would set them is refused, not ignored
        from pencillab import ToleranceConfig, cli

        calls = []

        def check(rng, tol, index):
            calls.append(tol)
            return {"ok": False, "pencil": None, "detail": {}}

        monkeypatch.setitem(cli._CHECKS, "dopico", check)
        path = cli.run_campaign("dopico", 1, ToleranceConfig(), str(tmp_path))["failure_artifacts"][0]
        calls.clear()
        code, out, err = run_cli(["campaign", "--replay", path] + option, capsys)
        assert code == 1 and out == "" and calls == []
        assert f"drop {option[0]}" in err

    def test_unknown_generator(self, capsys):
        code, _, err = run_cli(["campaign", "bogus", "--count", "1"], capsys)
        assert code == 1
        assert "unknown generator" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_refused(self, tmp_path, capsys, count):
        code, out, err = run_cli(
            ["campaign", "necessity", "--count", count,
             "--failure-dir", str(tmp_path / "fails")],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == "error: --count must be at least 1\n"

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        ('{"check": "roundtrip"}', "malformed failure artifact (KeyError: 'index')"),
        ('{"check": "roundtrip", "index": 0, "seed": 0}',
         "malformed failure artifact (KeyError: 'tolerances')"),
        ('{"check": "bogus", "index": 0, "seed": 0, "tolerances": {"rank_rel_tol": 1e-10}}',
         "malformed failure artifact (KeyError: 'bogus')"),
        ('{"check": "roundtrip", "index": 0, "seed": -1, "tolerances": {"rank_rel_tol": 1e-10}}',
         "rng_seed must be a nonnegative integer"),
        ("[1, 2]", "malformed failure artifact (TypeError: "),
        ("{", "invalid JSON at line 1"),
    ])
    def test_replay_of_a_bad_artifact_is_an_input_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "artifact.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code, out, err = run_cli(["campaign", "--replay", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_replay_that_turns_unstable_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        from pencillab import RankDecisionUnstable, ToleranceConfig, cli

        outcomes = iter([{"ok": False, "pencil": None, "detail": {}}])

        def check(rng, tol, index):
            outcome = next(outcomes, None)
            if outcome is None:
                raise RankDecisionUnstable("margin too small")
            return outcome

        monkeypatch.setitem(cli._CHECKS, "dopico", check)
        path = cli.run_campaign("dopico", 1, ToleranceConfig(), str(tmp_path))["failure_artifacts"][0]
        code, out, err = run_cli(["campaign", "--replay", path], capsys)
        assert code == 1 and out == ""
        assert err == "error: margin too small\n"

    def test_instances_independent_of_hash_seed(self, tmp_path):
        script = (
            "import json, sys\n"
            "from pencillab import ToleranceConfig, cli\n"
            "draws = []\n"
            "def record(rng, tol, index):\n"
            "    draws.append(int(rng.integers(2**62)))\n"
            "    return {'ok': True, 'pencil': None, 'detail': {}}\n"
            "cli._CHECKS['dopico'] = record\n"
            "cli.run_campaign('dopico', 3, ToleranceConfig(), sys.argv[1])\n"
            "print(json.dumps(draws))\n"
        )
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        draws = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            draws.append(json.loads(proc.stdout))
        assert len(draws[0]) == 3 and draws[0] == draws[1]


class TestShiftExperiment:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(["shift-experiment", "--nmax", "4"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == ["1", "2", "3", "4"]
        for row in rows:
            assert row["singular"] == "False"
            assert row["origin_in_taylor_spectrum"] == "False"
            assert float(row["det_coeff_lead_error"]) <= 1e-8
            assert float(row["det_coeff_max_other"]) <= 1e-8
            assert row["koszul_exact_at_origin"] == "True"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["shift-experiment", "--nmax", "2", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 1
        assert rows[0]["koszul_rank_d1"] == 2

    def test_nmax_bounds(self, capsys):
        code, _, err = run_cli(["shift-experiment", "--nmax", "0"], capsys)
        assert code == 1
        assert "1..50" in err


class TestExitCodes:
    @pytest.mark.parametrize("argv, message", [
        (["analyze"], "the following arguments are required: pencil"),
        (["analyze", "p.json", "--tol-rank", "abc"], "argument --tol-rank: invalid float value"),
        (["shift-experiment", "--format", "xml"], "argument --format: invalid choice"),
        ([], "the following arguments are required: command"),
        (["analyze", "p.json", "--tol-rank", "0"], "rank_rel_tol must be strictly positive"),
        (["campaign", "--seed", "-1"], "rng_seed must be a nonnegative integer"),
    ])
    def test_rejected_argument_is_an_input_error(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        # argparse's usage lines may come first
        last = err.splitlines()[-1]
        assert err.count("error") == 1 and last.startswith("error: ") and message in last

    @pytest.mark.parametrize("argv", [
        ["analyze", "{fixtures}/signed_diag_pair.json"],
        ["campaign", "roundtrip", "--count", "1", "--failure-dir", "{tmp}/failures"],
        ["shift-experiment", "--nmax", "2"],
    ], ids=["analyze", "campaign", "shift-experiment"])
    def test_unwritable_out_is_an_input_error(self, fixtures_dir, tmp_path, capsys, argv):
        argv = [arg.format(fixtures=fixtures_dir, tmp=tmp_path) for arg in argv]
        code, out, err = run_cli(argv + ["--out", str(tmp_path / "missing" / "r.json")], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "missing" in err and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", "--help"])
        assert exit_.value.code == 0
        assert "--tol-rank" in capsys.readouterr().out
