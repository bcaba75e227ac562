"""Command-line surface: file formats, JSON schema, exit codes, and
reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kfwer
from kfwer import (
    ConfigError,
    SimulationConfig,
    closed_testing,
    constant_family,
    lehmann_romano_schedule,
    order_pvalues,
    scaled_family,
)
from kfwer import cli
from kfwer.cli import (
    EXIT_BAD_DATA,
    EXIT_BAD_FLAGS,
    EXIT_COUNTEREXAMPLE,
    EXIT_OK,
    build_parser,
    main,
)
from kfwer.procedures import FAMILY_PROCEDURES, PROCEDURES, SCHEDULES
from kfwer.simulation import build_procedure
from kfwer.verify import random_family, random_pvalues
from oracles import closed_testing_oracle

FIVE_PVALUES = "0.2\n0.015\n0.8\n0.001\n0.03\n"


@pytest.fixture
def pfile(tmp_path):
    path = tmp_path / "pvalues.txt"
    path.write_text(FIVE_PVALUES)
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCmdTest:
    def test_stepdown_lehmann_romano_report(self, pfile, capsys):
        code, out, _ = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", pfile],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["n"] == 5 and report["k"] == 2 and report["alpha"] == 0.05
        assert report["procedure"] == "stepdown"
        assert report["rejected"] == [2, 4]  # 1-based positions of the two smallest
        assert report["detail"] == {"r": 2}
        assert report["critical_values"][0] == 0.02

    def test_csv_input_with_header(self, tmp_path, capsys):
        path = tmp_path / "pvalues.csv"
        path.write_text("id,p\nalpha,0.2\nbeta,0.015\ngamma,0.8\ndelta,0.001\nepsilon,0.03\n")
        code, out, _ = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", str(path)],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["rejected"] == [2, 4]

    def test_stdin_matches_file(self, pfile, capsys, monkeypatch):
        code_file, out_file, _ = run_main(
            ["test", "--k", "1", "--alpha", "0.1", "--procedure", "stepup",
             "--schedule", "lehmann-romano", "--input", pfile],
            capsys,
        )
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(FIVE_PVALUES))
        code_stdin, out_stdin, _ = run_main(
            ["test", "--k", "1", "--alpha", "0.1", "--procedure", "stepup",
             "--schedule", "lehmann-romano"],
            capsys,
        )
        assert code_file == code_stdin == EXIT_OK
        assert out_file == out_stdin

    def test_hommel_constant_family_report(self, pfile, capsys):
        code, out, _ = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "hommel",
             "--schedule", "constant", "--input", pfile],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert isinstance(report["critical_values"][0], list)  # triangular table
        assert "j_hat" in report["detail"]

    def test_closed_detail_is_null(self, pfile, capsys):
        code, out, _ = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "closed",
             "--schedule", "constant", "--input", pfile],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["detail"] is None

    def test_empty_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", str(path)],
            capsys,
        )
        assert code == EXIT_BAD_DATA
        assert "no p-values" in err

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.1\n0.2\nnot-a-number\n0.4\n")
        code, _, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", str(path)],
            capsys,
        )
        assert code == EXIT_BAD_DATA
        assert "line 3" in err

    def test_out_of_range_pvalue_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.1\n1.2\n")
        code, _, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", str(path)],
            capsys,
        )
        assert code == EXIT_BAD_DATA and "line 2" in err

    def test_out_of_range_line_counts_header_and_blank_lines(self, tmp_path, capsys):
        """The header and a blank line put the second p-value on line 4."""
        path = tmp_path / "bad.csv"
        path.write_text("id,p\n\na,0.1\nb,nan\n")
        code, _, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", str(path)],
            capsys,
        )
        assert code == EXIT_BAD_DATA
        assert "line 4: p-value nan outside [0, 1]" in err

    def test_malformed_token_reported_before_out_of_range_value(self, tmp_path, capsys):
        """Every token is parsed before any value is range-checked."""
        path = tmp_path / "bad.txt"
        path.write_text("0.1\n1.5\nabc\n")
        code, _, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", str(path)],
            capsys,
        )
        assert code == EXIT_BAD_DATA
        assert "line 3: 'abc' is not a number" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", "/nonexistent/p.txt"],
            capsys,
        )
        assert code == EXIT_BAD_DATA

    def test_hommel_with_single_indexed_schedule_exits_3(self, pfile, capsys):
        code, _, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "hommel",
             "--schedule", "lehmann-romano", "--input", pfile],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS
        assert "family" in err

    @pytest.mark.parametrize("n", [19, 1000])
    def test_closed_has_no_enumeration_limit(self, n, tmp_path, capsys):
        """`--procedure closed` decides through the Hommel shortcut, which
        Theorem 5.1 makes equal to closed testing, so it runs past the
        enumeration limit and reports Hommel's critical values and
        rejections with a null detail."""
        rng = np.random.default_rng(n)
        values = np.where(rng.random(n) < 0.2, rng.uniform(0.0, 1e-4, n), rng.uniform(0.0, 1.0, n))
        path = tmp_path / "p.txt"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        reports = {}
        for procedure in ("closed", "hommel"):
            code, out, _ = run_main(
                ["test", "--k", "2", "--alpha", "0.05", "--procedure", procedure,
                 "--schedule", "constant", "--input", str(path)],
                capsys,
            )
            assert code == EXIT_OK
            reports[procedure] = json.loads(out)
        closed, hommel = reports["closed"], reports["hommel"]
        assert closed["rejected"] and closed["rejected"] == hommel["rejected"]
        assert closed["critical_values"] == hommel["critical_values"]
        assert closed["detail"] is None and hommel["detail"] is not None

    def test_oversized_family_exits_3(self, pfile, capsys, monkeypatch):
        from kfwer import procedures

        monkeypatch.setattr(procedures, "MAX_FAMILY_ENTRIES", 14)
        code, out, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "hommel",
             "--schedule", "constant", "--input", pfile],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS
        assert out == "" and "n=5" in err and "14" in err

    def test_k_larger_than_n_exits_3(self, pfile, capsys):
        code, _, _ = run_main(
            ["test", "--k", "9", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", pfile],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS

    def test_unknown_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--nope"])
        assert exc.value.code == EXIT_BAD_FLAGS

    def test_schedule_file(self, pfile, tmp_path, capsys):
        sched = tmp_path / "sched.txt"
        sched.write_text("0.02\n0.025\n0.033333\n0.05\n")
        code, out, _ = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", f"file:{sched}", "--input", pfile],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["rejected"] == [2, 4]

    def test_schedule_file_wrong_length_exits_2(self, pfile, tmp_path, capsys):
        sched = tmp_path / "sched.txt"
        sched.write_text("0.02\n0.025\n")
        code, _, _ = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", f"file:{sched}", "--input", pfile],
            capsys,
        )
        assert code == EXIT_BAD_DATA

    def test_family_csv_file(self, tmp_path, capsys):
        pv = tmp_path / "p.txt"
        pv.write_text("0.01\n0.04\n0.5\n")
        fam = tmp_path / "family.csv"
        rows = ["m,i,alpha", "2,2,0.05", "3,2,0.0333333333", "3,3,0.0333333333"]
        fam.write_text("\n".join(rows) + "\n")
        code, out, _ = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "closed",
             "--schedule", f"file:{fam}", "--input", str(pv)],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["rejected"] == [1]

    def test_family_csv_incomplete_exits_2(self, tmp_path, capsys):
        pv = tmp_path / "p.txt"
        pv.write_text("0.01\n0.04\n0.5\n")
        fam = tmp_path / "family.csv"
        fam.write_text("m,i,alpha\n2,2,0.05\n3,2,0.03\n")  # missing (3,3)
        code, _, err = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "closed",
             "--schedule", f"file:{fam}", "--input", str(pv)],
            capsys,
        )
        assert code == EXIT_BAD_DATA
        assert "missing" in err

    def test_romano_shaikh_requires_base(self, pfile, capsys):
        code, _, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepup",
             "--schedule", "romano-shaikh", "--input", pfile],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS
        assert "--base-schedule" in err

    def test_romano_shaikh_with_base(self, pfile, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_text("0.25\n0.5\n0.75\n1.0\n0.05\n")  # not sorted: exits 2
        code, _, _ = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepup",
             "--schedule", "romano-shaikh", "--base-schedule", str(base), "--input", pfile],
            capsys,
        )
        assert code == EXIT_BAD_DATA
        base.write_text("0.2\n0.4\n0.6\n0.8\n1.0\n")
        code, out, _ = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepup",
             "--schedule", "romano-shaikh", "--base-schedule", str(base), "--input", pfile],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert len(report["critical_values"]) == 5

    @pytest.mark.parametrize("procedure", ["stepdown", "hommel"])
    def test_base_schedule_refused_without_romano_shaikh(self, procedure, pfile, tmp_path, capsys):
        """--base-schedule is used only by romano-shaikh; any other schedule
        refuses it instead of ignoring it."""
        base = tmp_path / "base.txt"
        base.write_text("0.2\n0.4\n0.6\n0.8\n1.0\n")
        code, out, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", procedure,
             "--schedule", "constant", "--base-schedule", str(base), "--input", pfile],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS
        assert out == "" and "--base-schedule" in err and "constant" in err

    def test_unknown_schedule_name_exits_3(self, pfile, capsys):
        code, out, err = run_main(
            ["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "holm", "--input", pfile],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS
        assert out == "" and "holm" in err

    def test_output_file(self, pfile, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", pfile, "--output", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(out_path.read_text())["rejected"] == [2, 4]

    def test_unwritable_output_exits_3(self, pfile, tmp_path, capsys):
        out_path = tmp_path / "missing-dir" / "report.json"
        code, out, err = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", pfile, "--output", str(out_path)],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS
        assert out == "" and err == f"error: {out_path}: No such file or directory\n"

    @pytest.mark.parametrize("target, reason", [("missing-dir/report.json", "No such file or directory"),
                                                (".", "Is a directory")])
    def test_output_checked_before_input_is_read(self, target, reason, tmp_path, capsys):
        """A bad --output wins over a missing --input: it is refused first."""
        out_path = tmp_path / target
        code, out, err = run_main(
            ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown",
             "--schedule", "lehmann-romano", "--input", str(tmp_path / "absent.txt"),
             "--output", str(out_path)],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS
        assert out == "" and err == f"error: {out_path}: {reason}\n"


@pytest.mark.parametrize("schedule", ["constant", "romano-shaikh", "file"])
def test_closed_agrees_with_exhaustive_closure(schedule, tmp_path, capsys):
    """Within the enumeration limit, `kfwer test --procedure closed` rejects
    exactly what the exhaustive engine and the itertools oracle reject, on
    p-values with ties and exact hits on critical values."""
    rng = np.random.default_rng(17)
    alpha = 0.05
    for _ in range(12):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        argv = ["test", "--k", str(k), "--alpha", str(alpha), "--procedure", "closed"]
        if schedule == "constant":
            fam = constant_family(k, n, alpha)
            argv += ["--schedule", "constant"]
        elif schedule == "romano-shaikh":
            base = lehmann_romano_schedule(k, n, alpha)
            fam = scaled_family(base, alpha)
            base_path = tmp_path / "base.txt"
            base_path.write_text("".join(f"{v!r}\n" for v in base.alphas))
            argv += ["--schedule", "romano-shaikh", "--base-schedule", str(base_path)]
        else:
            fam = random_family(rng, k, n)
            fam_path = tmp_path / "family.csv"
            fam_path.write_text("m,i,alpha\n" + "".join(
                f"{m},{i},{fam.value(i, m)!r}\n" for m in range(k, n + 1) for i in range(k, m + 1)))
            argv += ["--schedule", f"file:{fam_path}"]
        p = random_pvalues(rng, n, [v for row in fam.rows for v in row])
        p_path = tmp_path / "p.txt"
        p_path.write_text("".join(f"{v!r}\n" for v in p.values))
        code, out, _ = run_main(argv + ["--input", str(p_path)], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["critical_values"] == [list(row) for row in fam.rows]
        got = {j - 1 for j in report["rejected"]}
        assert got == set(closed_testing(p, fam).rejected_indices())
        assert got == closed_testing_oracle(p.values, k, fam.rows)


PARITY_PVALUES = [0.003, 0.04, 0.011, 0.2, 0.0004, 0.6]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("procedure", PROCEDURES)
def test_test_and_simulate_resolve_alike(procedure, schedule, k, tmp_path, capsys):
    """`kfwer test` and `build_procedure` pair names with critical values by
    one rule: given the Lehmann-Romano base that simulate rescales, they
    build the same critical values and reject the same hypotheses, and
    both refuse lehmann-romano for a family procedure."""
    n, alpha = len(PARITY_PVALUES), 0.05
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PARITY_PVALUES))
    argv = ["test", "--k", str(k), "--alpha", str(alpha), "--procedure", procedure,
            "--schedule", schedule, "--input", str(pfile)]
    if schedule == "romano-shaikh":
        base = tmp_path / "base.txt"
        base.write_text("".join(f"{v!r}\n" for v in lehmann_romano_schedule(k, n, alpha).alphas))
        argv += ["--base-schedule", str(base)]
    code, out, err = run_main(argv, capsys)
    config = dict(n=n, n_true=n, k=k, alpha=alpha, procedure=procedure, schedule=schedule)
    if schedule == "lehmann-romano" and procedure in FAMILY_PROCEDURES:
        assert code == EXIT_BAD_FLAGS and out == "" and "family" in err
        with pytest.raises(ConfigError, match="family"):
            SimulationConfig(**config)
        return
    assert code == EXIT_OK
    report = json.loads(out)
    result = build_procedure(SimulationConfig(**config))(order_pvalues(PARITY_PVALUES))
    if result.schedule is not None:
        expected = list(result.schedule.alphas)
    else:
        expected = [list(row) for row in result.family.rows]
    assert report["critical_values"] == expected
    assert report["rejected"] == [j + 1 for j in result.rejected_indices()]


class TestCmdSimulate:
    BASE = ["simulate", "--n", "5", "--true-nulls", "5", "--k", "2", "--alpha", "0.05",
            "--reps", "50", "--seed", "9"]

    def test_report_fields(self, capsys):
        code, out, _ = run_main(self.BASE, capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == {"kfwer_estimate", "std_error", "avg_power", "config_echo"}
        assert report["config_echo"]["seed"] == 9
        assert report["avg_power"] is None

    def test_single_rep_is_binary(self, capsys):
        code, out, _ = run_main(
            ["simulate", "--n", "4", "--true-nulls", "4", "--k", "1", "--alpha", "0.05",
             "--reps", "1", "--seed", "3"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["kfwer_estimate"] in (0.0, 1.0)

    def test_same_seed_byte_identical(self, capsys):
        _, first, _ = run_main(self.BASE, capsys)
        _, second, _ = run_main(self.BASE, capsys)
        assert first == second

    def test_true_nulls_above_n_exits_3(self, capsys):
        code, _, _ = run_main(
            ["simulate", "--n", "4", "--true-nulls", "5", "--k", "1", "--alpha", "0.05",
             "--reps", "10"],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS

    def test_closed_runs_beyond_enumeration_limit(self, capsys):
        argv = ["simulate", "--n", "19", "--true-nulls", "10", "--k", "1", "--alpha", "0.05",
                "--schedule", "constant", "--reps", "20", "--delta", "3"]
        reports = []
        for procedure in ("closed", "hommel"):
            code, out, _ = run_main(argv + ["--procedure", procedure], capsys)
            assert code == EXIT_OK
            reports.append(json.loads(out))
        closed, hommel = reports
        assert closed.pop("config_echo")["procedure"] == "closed"
        hommel.pop("config_echo")
        assert closed == hommel and closed["avg_power"] > 0

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        out_path = tmp_path / "missing-dir" / "report.json"
        code, out, err = run_main(self.BASE + ["--output", str(out_path)], capsys)
        assert code == EXIT_BAD_FLAGS
        assert out == "" and err == f"error: {out_path}: No such file or directory\n"

    @pytest.mark.parametrize("target, reason", [("missing-dir/report.json", "No such file or directory"),
                                                (".", "Is a directory")])
    def test_output_checked_before_any_replication(self, target, reason, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("simulation ran before --output was checked")

        monkeypatch.setattr("kfwer.cli.estimate_kfwer", no_run)
        out_path = tmp_path / target
        code, out, err = run_main(self.BASE + ["--output", str(out_path)], capsys)
        assert code == EXIT_BAD_FLAGS
        assert out == "" and err == f"error: {out_path}: {reason}\n"

    def test_bad_rho_exits_3(self, capsys):
        code, _, _ = run_main(
            ["simulate", "--n", "4", "--true-nulls", "4", "--k", "1", "--alpha", "0.05",
             "--reps", "10", "--dependence", "equicorrelated", "--rho", "1.0"],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_3(self, delta, capsys):
        code, out, err = run_main(
            ["simulate", "--n", "4", "--true-nulls", "2", "--k", "1", "--alpha", "0.05",
             "--reps", "10", "--delta", delta],
            capsys,
        )
        assert code == EXIT_BAD_FLAGS
        assert out == "" and "delta" in err

    def test_seed_env_fallback(self, capsys, monkeypatch):
        argv = ["simulate", "--n", "4", "--true-nulls", "4", "--k", "1", "--alpha", "0.05",
                "--reps", "20"]
        monkeypatch.setenv("KFWER_SEED", "777")
        _, out_env, _ = run_main(argv, capsys)
        assert json.loads(out_env)["config_echo"]["seed"] == 777
        monkeypatch.delenv("KFWER_SEED")
        _, out_default, _ = run_main(argv, capsys)
        assert json.loads(out_default)["config_echo"]["seed"] == 0
        monkeypatch.setenv("KFWER_SEED", "777")
        _, out_flag, _ = run_main(argv + ["--seed", "5"], capsys)
        assert json.loads(out_flag)["config_echo"]["seed"] == 5


class TestCmdVerify:
    def test_theorem_42_passes(self, capsys):
        code, out, _ = run_main(["verify", "--theorem", "4.2", "--trials", "60", "--seed", "7"], capsys)
        assert code == EXIT_OK
        assert "theorem 4.2" in out and "ok" in out

    def test_all_theorems(self, capsys):
        code, out, _ = run_main(["verify", "--theorem", "all", "--trials", "25", "--seed", "1"], capsys)
        assert code == EXIT_OK
        for theorem in ("4.1", "4.2", "4.3", "4.4", "5.1"):
            assert f"theorem {theorem}" in out

    def test_reproducible_with_seed(self, capsys):
        argv = ["verify", "--theorem", "4.4", "--trials", "40", "--seed", "13"]
        _, first, _ = run_main(argv, capsys)
        _, second, _ = run_main(argv, capsys)
        assert first == second

    def test_self_test_rejects_invalid_family(self, capsys):
        code, out, _ = run_main(["verify", "--theorem", "5.1", "--self-test"], capsys)
        assert code == EXIT_OK
        assert "rejected before comparison" in out

    def test_bad_n_max_exits_3(self, capsys):
        code, _, _ = run_main(["verify", "--theorem", "4.2", "--n-max", "25"], capsys)
        assert code == EXIT_BAD_FLAGS

    @pytest.mark.parametrize("flags", [["--n-max", "1"], ["--trials", "0"]])
    def test_bad_size_flags_exit_3_before_any_trial(self, flags, capsys):
        code, out, err = run_main(["verify", "--theorem", "4.2", *flags], capsys)
        assert code == EXIT_BAD_FLAGS
        assert out == "" and err.startswith(f"error: {flags[0]} must")

    @pytest.mark.parametrize("flags, env", [(["--seed", "-1"], None), ([], "-1")])
    def test_negative_seed_exits_3(self, flags, env, capsys, monkeypatch):
        """From the flag or from KFWER_SEED, a negative seed is a flag error
        (exit 3, not the counterexample code 1) before any trial runs."""
        if env is not None:
            monkeypatch.setenv("KFWER_SEED", env)
        code, out, err = run_main(["verify", "--theorem", "4.2", "--trials", "5", *flags], capsys)
        assert code == EXIT_BAD_FLAGS
        assert out == "" and err == "error: seed must be a nonnegative integer, got -1\n"

    def test_counterexample_exit_code_reserved(self):
        assert EXIT_COUNTEREXAMPLE == 1


def test_one_parser_serves_every_call(pfile, capsys, monkeypatch):
    """``main`` reuses one parser across calls with different subcommands,
    a flag error and a repeat, and each call prints, returns and writes
    what it does with a parser built for it alone."""
    calls = [
        ["test", "--k", "2", "--alpha", "0.05", "--procedure", "hommel", "--schedule", "constant", "--input", pfile],
        ["simulate", "--n", "6", "--true-nulls", "3", "--k", "2", "--alpha", "0.05", "--reps", "50", "--seed", "4"],
        ["verify", "--theorem", "4.2", "--trials", "10", "--seed", "2"],
        ["test", "--k", "9", "--alpha", "0.05", "--procedure", "stepdown", "--schedule", "lehmann-romano",
         "--input", pfile],
        ["simulate", "--n", "6", "--true-nulls", "3", "--k", "1", "--alpha", "0.05", "--procedure", "stepup",
         "--reps", "50", "--seed", "4"],
        ["test", "--k", "2", "--alpha", "0.05", "--procedure", "hommel", "--schedule", "constant", "--input", pfile],
    ]
    assert cli._shared_parser() is cli._shared_parser()
    shared = [run_main(argv, capsys) for argv in calls]
    monkeypatch.setattr(cli, "_shared_parser", build_parser)
    fresh = [run_main(argv, capsys) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_BAD_FLAGS, EXIT_OK, EXIT_OK]
    assert shared[0] == shared[-1]
    assert json.loads(shared[1][1])["config_echo"]["procedure"] == "stepdown"


def test_console_entry_point_runs():
    """Smoke the module entry end to end in a subprocess, which imports the
    same kfwer package as the tests, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kfwer.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "kfwer", "verify", "--theorem", "4.2", "--trials", "10", "--seed", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "theorem 4.2" in proc.stdout
