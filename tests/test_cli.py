from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rpusim import (
    Strategy,
    SweepSpec,
    calibrated_profile,
    default_scenario,
    mine_sequences,
    normalize_query,
    parse_log,
    report_csv,
    run_sweep,
    scale_sequence,
    set_gaps,
    set_selectivity,
    sweep_csv,
    workload_dict,
)
import rpusim
import rpusim.cli
from rpusim.cli import main
from test_miner import A_ID, B_ID, C_ID, BAD_CATALOG_FIELDS, catalog_doc, planted_log_lines


@pytest.fixture
def workload_file(tmp_path):
    from rpusim import save_workload

    path = tmp_path / "workload.json"
    save_workload(path, default_scenario(), calibrated_profile())
    return str(path)


class TestPlanCommand:
    def test_reference_scenario_picks_iii(self, capsys):
        assert main(["plan", "--hints"]) == 0
        out = capsys.readouterr().out
        assert "strategy: III" in out
        assert "total_ms: 58.360" in out
        assert "next_accelerators=acc0" in out

    def test_no_hints_falls_back(self, capsys):
        assert main(["plan", "--no-hints"]) == 0
        out = capsys.readouterr().out
        assert "strategy: I" in out  # partial pushdown wins without lookahead

    def test_hints_are_printed_only_with_hints(self, capsys):
        # a plan chosen with no knowledge of upcoming queries gets no hints
        assert main(["plan", "--no-hints"]) == 0
        out = capsys.readouterr().out
        assert out == "strategy: I\ntotal_ms: 62.631\n  Q0: 58.214\n  Q1: 3.417\n"
        assert main(["plan", "--hints"]) == 0
        out = capsys.readouterr().out.encode()
        assert b"\nhint: " in out
        assert hashlib.sha256(out).hexdigest() == "7821b4469f0490ac8231318a77dd2ce4c3a786d9353ecbeb9118ca9b9546c549"

    def test_reads_workload_file(self, capsys, workload_file):
        assert main(["plan", "--workload", workload_file]) == 0
        assert "strategy: III" in capsys.readouterr().out


class TestCostCommand:
    def test_single_strategy(self, capsys):
        assert main(["cost", "--strategy", "S"]) == 0
        out = capsys.readouterr().out
        assert "total_ms: 72.360" in out

    def test_auto_lists_all(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        for name in ("S", "I", "II", "III", "IV"):
            assert f"{name} " in out
        assert "best: III" in out

    def test_no_hints_lists_and_picks_only_s_and_i(self, capsys):
        assert main(["cost", "--no-hints"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split()[0] for line in lines if not line.startswith("best:")]
        assert rows == ["S", "I"]
        best = [line for line in lines if line.startswith("best:")]
        assert len(best) == 1
        assert best[0].split()[1] in ("S", "I")

    def test_auto_costs_each_plan_once(self, capsys, monkeypatch):
        # the baseline S is costed first; costed_plans finds it in the memo
        import rpusim.cost

        folded = []
        original = rpusim.cost._fold

        def counted(plan, *args):
            folded.append(plan.strategy)
            return original(plan, *args)

        monkeypatch.setattr(rpusim.cost, "_fold", counted)
        assert main(["cost"]) == 0
        assert "best: III" in capsys.readouterr().out
        assert folded == list(Strategy)


class TestSimulateCommand:
    def test_makespan_matches_cost(self, capsys, tmp_path):
        timeline_path = tmp_path / "timeline.csv"
        assert main(["simulate", "--strategy", "S", "--timeline", str(timeline_path)]) == 0
        out = capsys.readouterr().out
        assert "makespan_ms: 72.360" in out
        text = timeline_path.read_text(encoding="utf-8")
        assert text.startswith("resource,label,query,start_ms,end_ms\n")
        ends = [float(line.split(",")[4]) for line in text.splitlines()[1:]]
        assert max(ends) == pytest.approx(72.360417, abs=1e-6)

    def test_auto_uses_chosen_plan(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "strategy: III" in out
        assert "makespan_ms: 58.360" in out

    def test_unwritable_timeline_is_io_error_before_any_output(self, capsys, tmp_path):
        assert main(["simulate", "--timeline", str(tmp_path / "nodir" / "t.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "I/O error" in err

    def test_timeline_to_a_device_is_written_like_a_file(self, capsys):
        assert main(["simulate", "--timeline", os.devnull]) == 0
        assert capsys.readouterr().out.endswith(f"timeline: {os.devnull}\n")

    def test_timeline_line_comes_last(self, capsys, tmp_path):
        timeline_path = tmp_path / "t.csv"
        assert main(["simulate", "--timeline", str(timeline_path)]) == 0
        assert capsys.readouterr().out == (
            f"strategy: III\nmakespan_ms: 58.360\ntimeline: {timeline_path}\n"
        )

    # sha256 of (stdout, timeline CSV) for each strategy on the default
    # scenario, computed with the position-indexed simulator
    PINNED = {
        "S": ("394d8084c809bf3837ea163a01eba8dd6234bc2bcbcc69a5cd30b69a1ccdf0a2",
              "eec989a845dae327fd36a433a044e79715d4ca27da4801b9a11b5330c056126a"),
        "I": ("24839380a64b2082340ac0bdc83a1c4003b45fd52d5cd99720d11bb0133fc1d2",
              "fcb70aeb155412bcc1195fa6205cd96eb99d31e9b84c74ac318f0afd99491bbb"),
        "II": ("1d5d3ae1021704b89ffeab85c01379b816f469ed9bf422efaa475abe18e0213a",
               "88eed89bce7aaf40b72170b208f7e89a112fbe53a83d50ef7ab5bb8b680a4e60"),
        "III": ("e5c9096811b565d31767494cfd7d7ffda0ebd4d7952c9c39db810cbf61f815e9",
                "fcddb07395a498c8c9ae1e7ca1386c99ab6186d48ec7f8deb0a94baf959c70e7"),
        "IV": ("71cb6729dcb9ff712cae0b2180ed7da13b299e8f70c0047e57a7e30e7a780015",
               "fb3fa35d7018cce294450dcbf434a6f57008213a242aa5e4560548ea2ce0439f"),
    }

    @pytest.mark.parametrize("strategy", list(PINNED))
    def test_stdout_and_timeline_bytes_pinned(self, capsys, tmp_path, monkeypatch, strategy):
        monkeypatch.chdir(tmp_path)  # a relative --timeline keeps stdout path-free
        assert main(["simulate", "--strategy", strategy, "--timeline", "timeline.csv"]) == 0
        out = capsys.readouterr().out.encode()
        csv = (tmp_path / "timeline.csv").read_bytes()
        sha = lambda data: hashlib.sha256(data).hexdigest()
        assert (sha(out), sha(csv)) == self.PINNED[strategy]


class TestSweepCommand:
    def test_csv_matches_library(self, capsys):
        args = ["sweep", "--sweep", "scale", "--from", "1", "--to", "5", "--steps", "5",
                "--strategies", "I,II"]
        assert main(args) == 0
        out = capsys.readouterr().out
        spec = SweepSpec("scale", 1.0, 5.0, 5, (Strategy.I, Strategy.II))
        expected = sweep_csv(run_sweep(default_scenario(), calibrated_profile(), spec))
        assert out == expected

    @pytest.mark.parametrize(
        "flag, fix", [("--fix-scale", scale_sequence), ("--fix-selectivity", set_selectivity), ("--fix-gap", set_gaps)]
    )
    def test_fix_flag_presets_the_scenario(self, capsys, flag, fix):
        # sweep a variable the flag does not fix: fixing the swept one is an error
        swept = "gap" if flag == "--fix-scale" else "scale"
        args = ["sweep", "--sweep", swept, "--from", "1", "--to", "3", "--steps", "3",
                "--strategies", "I,III,IV"]
        spec = SweepSpec(swept, 1.0, 3.0, 3, (Strategy.I, Strategy.III, Strategy.IV))
        expected = sweep_csv(run_sweep(fix(default_scenario(), 0.5), calibrated_profile(), spec))
        assert main(args + [flag, "0.5"]) == 0
        assert capsys.readouterr().out == expected
        assert main(args) == 0
        assert capsys.readouterr().out != expected  # the flag changed the scenario

    @pytest.mark.parametrize("variable", ["scale", "selectivity", "gap"])
    def test_fixing_the_swept_variable_is_validation_error(self, capsys, variable):
        args = ["sweep", "--sweep", variable, "--from", "1", "--to", "1", "--steps", "2",
                f"--fix-{variable}", "0.5"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --fix-{variable} and --sweep {variable} both set the {variable}; give one\n"

    GAP = ["sweep", "--sweep", "gap", "--from", "0", "--to", "1", "--steps", "2"]

    def test_unwritable_out_is_io_error_before_any_output(self, capsys, tmp_path):
        assert main(self.GAP + ["--out", str(tmp_path / "nodir" / "s.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "I/O error" in err

    def test_out_to_a_device_is_written_like_a_file(self, capsys):
        assert main(self.GAP + ["--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    def test_deterministic_output_file(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--sweep", "gap", "--from", "0.5", "--to", "30", "--steps", "10",
                "--fix-scale", "3", "--strategies", "III,IV"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    # the README's four sweeps, byte for byte
    @pytest.mark.parametrize(
        "args, sha256",
        [
            (["scale", "--from", "1", "--to", "5", "--steps", "9", "--strategies", "I,II"],
             "a0b6b8db6562f38cf9834d032ae5232a732a55ce16f717bbefb800219ffb6fbc"),
            (["selectivity", "--from", "0", "--to", "1", "--steps", "21", "--strategies", "III,IV"],
             "2dcaad4d28a272836f18b0fa8a1d064d690c35355c71469d430c1d114b2d0d67"),
            (["selectivity", "--from", "0", "--to", "1", "--steps", "21", "--fix-scale", "3",
              "--strategies", "III,IV"],
             "d157a4ba8171cd9a17b84f6f829b3f1dc1458f5643674f26737fbb425f2484f3"),
            (["gap", "--from", "0.5", "--to", "30", "--steps", "60", "--fix-scale", "3",
              "--strategies", "III,IV"],
             "141049918d0bf9813d47696e5ba1f44e9b4017411c5243bc61bbbd953b651eb3"),
        ],
        ids=["scale", "sel1", "sel3", "gap"],
    )
    def test_readme_sweeps_golden(self, tmp_path, args, sha256):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_repeated_strategy_is_validation_error(self, capsys):
        args = ["sweep", "--sweep", "gap", "--from", "0", "--to", "1", "--steps", "2",
                "--strategies", "S,S,III"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and "strategies must not repeat" in err

    def test_bad_strategy_is_validation_error(self, capsys):
        args = ["sweep", "--sweep", "gap", "--from", "0", "--to", "1", "--steps", "2",
                "--strategies", "V"]
        assert main(args) == 1
        assert "unknown strategy" in capsys.readouterr().err

    def test_bad_range_is_validation_error(self, capsys):
        args = ["sweep", "--sweep", "selectivity", "--from", "0.5", "--to", "1.5", "--steps", "3"]
        assert main(args) == 1

    @pytest.mark.parametrize(
        "start, stop, named",
        [("0", "inf", "stop must be finite"), ("nan", "1", "start must be finite"),
         ("-1e308", "1e308", "overflows a float")],
    )
    def test_non_finite_range_is_validation_error(self, capsys, start, stop, named):
        args = ["sweep", "--sweep", "gap", f"--from={start}", f"--to={stop}", "--steps", "3"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert named in err and "non-finite gap" not in err

    def test_huge_step_count_is_validation_error(self, capsys):
        steps = "1" + "0" * 400
        args = ["sweep", "--sweep", "gap", "--from", "0", "--to", "1", "--steps", steps, "--strategies", "III"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: steps must be <= {sys.maxsize}, got {steps}\n"

    def test_out_of_memory_is_validation_error(self, capsys, monkeypatch):
        # a grid too large for memory raises MemoryError from run_sweep;
        # stand in for it, so no test allocates one or limits its memory
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(rpusim.cli, "run_sweep", exhausted)
        args = ["sweep", "--sweep", "gap", "--from", "0", "--to", "1", "--steps", "100000000000",
                "--strategies", "III"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory: the inputs need more memory than is available\n"


class TestNoHints:
    """``--no-hints`` rules out II, III and IV wherever a strategy is named."""

    SWEEP = ["sweep", "--sweep", "gap", "--from", "0", "--to", "1", "--steps", "2"]

    @pytest.mark.parametrize(
        "args, named",
        [
            (["cost", "--strategy", "IV", "--no-hints"], "IV"),
            (["cost", "--no-hints", "--strategy", "II"], "II"),
            (["simulate", "--strategy", "III", "--no-hints"], "III"),
            (SWEEP + ["--no-hints"], "II"),
            (SWEEP + ["--no-hints", "--strategies", "I,IV"], "IV"),
        ],
    )
    def test_hint_strategy_is_validation_error(self, capsys, args, named):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: strategy {named} needs hints about upcoming queries; --no-hints allows S and I\n"
        )

    @pytest.mark.parametrize("command", ["cost", "simulate"])
    @pytest.mark.parametrize("strategy", ["S", "I"])
    def test_non_hint_strategy_output_unchanged(self, capsys, command, strategy):
        assert main([command, "--strategy", strategy, "--no-hints"]) == 0
        without = capsys.readouterr().out
        assert main([command, "--strategy", strategy]) == 0
        assert capsys.readouterr().out == without

    def test_sweep_of_s_and_i_unchanged(self, capsys):
        args = self.SWEEP + ["--strategies", "S,I"]
        assert main(args + ["--no-hints"]) == 0
        without = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == without


class TestMineCommand:
    def test_planted_log_report(self, capsys, tmp_path):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        args = ["mine", "--log", str(log), "--min-support", "2", "--max-len", "4",
                "--max-gap", "50", "--out", str(report)]
        assert main(args) == 0
        text = report.read_text(encoding="utf-8")
        assert text.startswith("templates,support,avg_gaps_ms\n")
        planted = f"{A_ID}|{B_ID}"
        assert any(line.startswith(planted) for line in text.splitlines())
        out = capsys.readouterr().out
        assert "template " in out

    def test_workload_emission(self, tmp_path, capsys):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog = {
            A_ID: {
                "table": {"name": "t0", "size_mb": 9.0},
                "ops": [{"id": "acc0", "selectivity": 0.33}, {"id": "acc1", "selectivity": 0.43}],
            },
            B_ID: {
                "table": {"name": "t1", "size_mb": 1.0},
                "ops": [{"id": "acc0", "selectivity": 0.14}],
            },
            C_ID: {
                "table": {"name": "t2", "size_mb": 2.0},
                "ops": [{"id": "acc0", "selectivity": 0.5}],
            },
        }
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog), encoding="utf-8")
        workload_path = tmp_path / "mined_workload.json"
        report = tmp_path / "report.csv"
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-len", "2",
                "--max-gap", "50", "--out", str(report),
                "--catalog", str(catalog_path), "--workload-out", str(workload_path)]
        assert main(args) == 0
        # the emitted workload is immediately plannable
        assert main(["plan", "--workload", str(workload_path)]) == 0
        out = capsys.readouterr().out
        assert "strategy:" in out

    def test_missing_catalog_entry(self, tmp_path, capsys):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text("{}", encoding="utf-8")
        args = ["mine", "--log", str(log), "--min-support", "5",
                "--catalog", str(catalog_path), "--workload-out", str(tmp_path / "w.json")]
        assert main(args) == 1
        assert "catalog missing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change,message", [case[1:] for case in BAD_CATALOG_FIELDS], ids=[case[0] for case in BAD_CATALOG_FIELDS]
    )
    def test_bad_catalog_field_is_validation_error(self, tmp_path, capsys, change, message):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        doc = catalog_doc()
        change(doc[A_ID])
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(doc), encoding="utf-8")
        workload_path = tmp_path / "w.json"
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-len", "2", "--max-gap", "50",
                "--out", str(tmp_path / "report.csv"),
                "--catalog", str(catalog_path), "--workload-out", str(workload_path)]
        assert main(args) == 1
        assert re.search(message, capsys.readouterr().err)
        assert not workload_path.exists()

    def test_one_table_name_with_two_sizes_writes_no_workload(self, tmp_path, capsys):
        """The top sequence's two templates name table ``t`` with two sizes,
        which one workload document cannot hold."""
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        doc = catalog_doc()
        for tid, size in ((A_ID, 9.0), (B_ID, 5.0), (C_ID, 9.0)):
            doc[tid]["table"] = {"name": "t", "size_mb": size}
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(doc), encoding="utf-8")
        report, workload_path = tmp_path / "report.csv", tmp_path / "w.json"
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-len", "2", "--max-gap", "50",
                "--out", str(report), "--catalog", str(catalog_path), "--workload-out", str(workload_path)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: table 't' has two sizes, 5.0 and 9.0 MB\n"
        assert not report.exists() and not workload_path.exists()

    @pytest.mark.parametrize("flag", ["--log", "--catalog"])
    def test_input_that_is_not_utf8_names_the_file(self, tmp_path, capsys, flag):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog_doc()), encoding="utf-8")
        bad = log if flag == "--log" else catalog_path
        bad.write_bytes(b"\xff" + bad.read_bytes())
        workload_path = tmp_path / "w.json"
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-gap", "50",
                "--catalog", str(catalog_path), "--workload-out", str(workload_path)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)\n"
        )
        assert not workload_path.exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"a": ', "Expecting value: line 1 column 7 (char 6)"),
            ('{"a": ' + "1" * 5000 + "}", "an integer literal has too many digits"),
        ],
        ids=["malformed", "huge-integer"],
    )
    def test_catalog_that_is_not_json_names_the_file(self, tmp_path, capsys, text, reason):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(text, encoding="utf-8")
        workload_path = tmp_path / "w.json"
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-gap", "50",
                "--catalog", str(catalog_path), "--workload-out", str(workload_path)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {catalog_path}: not valid JSON ({reason})\n"
        assert "set_int_max_str_digits" not in captured.err
        assert not workload_path.exists()

    @pytest.mark.parametrize(
        "catalog, min_support, message",
        [
            ("size-null", "5", "size_mb must be a number, got None"),
            (None, "5", "--workload-out requires --catalog"),
            ("empty", "5", "catalog missing template"),
            ("valid", "1000", "no recurring sequence found"),
        ],
        ids=["bad-catalog", "no-catalog", "missing-template", "nothing-mined"],
    )
    def test_workload_out_checked_before_any_output(self, tmp_path, capsys, catalog, min_support, message):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        doc = {} if catalog == "empty" else catalog_doc()
        if catalog == "size-null":
            doc[A_ID]["table"]["size_mb"] = None
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(doc), encoding="utf-8")
        report = tmp_path / "r.csv"
        args = ["mine", "--log", str(log), "--min-support", min_support, "--max-gap", "50", "--out", str(report),
                "--workload-out", str(tmp_path / "w.json"), *(["--catalog", str(catalog_path)] if catalog else [])]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert not report.exists()

    @pytest.mark.parametrize("exists", [True, False], ids=["valid-catalog", "missing-catalog"])
    def test_catalog_without_workload_out_is_an_error(self, tmp_path, capsys, exists):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        if exists:
            catalog_path.write_text(json.dumps(catalog_doc()), encoding="utf-8")
        report = tmp_path / "r.csv"
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-gap", "50", "--out", str(report),
                "--catalog", str(catalog_path)]
        assert main(args) == 1
        assert capsys.readouterr() == ("", "error: --catalog is read only with --workload-out\n")
        assert not report.exists()

    def test_unwritable_workload_out_is_io_error_before_any_output(self, tmp_path, capsys):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog_doc()), encoding="utf-8")
        report = tmp_path / "r.csv"
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-len", "2", "--max-gap", "50",
                "--out", str(report), "--catalog", str(catalog_path),
                "--workload-out", str(tmp_path / "nodir" / "w.json")]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and "I/O error" in err
        assert not report.exists()

    def test_unwritable_out_is_io_error_before_any_output(self, tmp_path, capsys):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog_doc()), encoding="utf-8")
        workload = tmp_path / "w.json"

        def mine(report):
            return main(["mine", "--log", str(log), "--min-support", "5", "--max-len", "2", "--max-gap", "50",
                         "--out", str(report), "--catalog", str(catalog_path), "--workload-out", str(workload)])

        assert mine(tmp_path / "nodir" / "r.csv") == 2
        out, err = capsys.readouterr()
        assert out == "" and "I/O error" in err
        assert not workload.exists()
        # a file that was already there is left as it was
        workload.write_text("kept", encoding="utf-8")
        assert mine(tmp_path / "nodir" / "r.csv") == 2
        assert workload.read_text(encoding="utf-8") == "kept"
        # and overwritten in full once both paths can be written
        report = tmp_path / "r.csv"
        report.write_text("x" * 10_000, encoding="utf-8")
        assert mine(report) == 0
        assert report.read_text(encoding="utf-8").startswith("templates,")
        assert "x" not in report.read_text(encoding="utf-8")
        assert main(["plan", "--workload", str(workload)]) == 0

    def test_out_to_a_device_is_written_like_a_file(self, tmp_path, capsys):
        """A device such as /dev/null cannot be truncated; it is written all the same."""
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog_doc()), encoding="utf-8")
        workload = tmp_path / "w.json"
        base = ["mine", "--log", str(log), "--min-support", "5", "--max-len", "2", "--max-gap", "50"]
        assert main(base + ["--out", str(tmp_path / "r.csv"), "--catalog", str(catalog_path),
                            "--workload-out", str(workload)]) == 0
        expected_out = capsys.readouterr().out
        expected_workload = workload.read_text(encoding="utf-8")
        workload.unlink()

        assert main(base + ["--out", os.devnull, "--catalog", str(catalog_path),
                            "--workload-out", str(workload)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == expected_out.replace(str(tmp_path / "r.csv"), os.devnull)
        assert workload.read_text(encoding="utf-8") == expected_workload
        assert main(base + ["--out", str(tmp_path / "r2.csv"), "--catalog", str(catalog_path),
                            "--workload-out", os.devnull]) == 0
        assert (tmp_path / "r2.csv").read_text(encoding="utf-8") == (tmp_path / "r.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "other, existed",
        [("x", False), ("x", True), ("./x", False), ("./x", True), ("y", True)],
        ids=["same-new", "same-existing", "dot-slash-new", "dot-slash-existing", "hard-link"],
    )
    def test_out_and_workload_out_naming_one_file_is_validation_error(
        self, tmp_path, capsys, monkeypatch, other, existed
    ):
        """Two outputs that resolve to one regular file are refused before
        anything is opened: exit 1, one ``error:`` line, no file written,
        created or truncated."""
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog_doc()), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        if existed:
            Path("x").write_text("kept", encoding="utf-8")
        if other == "y":
            os.link("x", "y")
        before = sorted(p.name for p in tmp_path.iterdir())
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-len", "2", "--max-gap", "50",
                "--out", other, "--catalog", str(catalog_path), "--workload-out", "x"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: x and {other} name one file; give each output its own path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if existed:
            assert Path("x").read_text(encoding="utf-8") == "kept"

    def test_out_and_workload_out_may_both_name_a_device(self, tmp_path, capsys):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog_doc()), encoding="utf-8")
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-len", "2", "--max-gap", "50",
                "--out", os.devnull, "--catalog", str(catalog_path), "--workload-out", os.devnull]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"report: {os.devnull} ") and out.endswith(f"workload: {os.devnull}\n")

    def test_log_line_breaks_inside_query_text_are_kept(self, tmp_path, capsys):
        """A U+2028 inside a string literal does not end the log line."""
        lines = planted_log_lines()
        lines[0] = lines[0].replace("folder = 0", "folder = 'in\u2028box'")
        log = tmp_path / "queries.log"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        args = ["mine", "--log", str(log), "--min-support", "5", "--max-gap", "50", "--out", str(report)]
        assert main(args) == 0
        assert f"{A_ID}|{B_ID}|{C_ID},5," in report.read_text(encoding="utf-8")
        assert capsys.readouterr().out.startswith(f"report: {report} (3 sequences)\n")

    @pytest.mark.parametrize("max_gap", ["nan", "inf", "-5"])
    def test_max_gap_out_of_range_is_validation_error(self, tmp_path, capsys, max_gap):
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        assert main(["mine", "--log", str(log), f"--max-gap={max_gap}"]) == 1
        assert "max_gap must be finite and >= 0" in capsys.readouterr().err

    def test_golden_stdout_and_report(self, tmp_path, capsys):
        # Templates first occur as n, c, a, b; the report ranks a|b first.
        # Template lines are printed in first-occurrence order, for used
        # templates only, each with its first occurrence normalized.
        log = tmp_path / "queries.log"
        log.write_text(
            "0\tSELECT n FROM t0\t1\n"
            "1000\tSELECT c FROM t3 WHERE k = 1\t2\n"
            "1010\tselect a from t1 where k = 5\t1\n"
            "1014\tSELECT b FROM t2 WHERE k = 'x'\t3\n"
            "1500\tSELECT noise FROM t9\t1\n"
            "2000\tSELECT c FROM t3 WHERE k = 2\t2\n"
            "2005\tSELECT a FROM t1 WHERE k = 6.5\t1\n"
            "2008\tSELECT b FROM t2 WHERE k = 'y'\t3\n"
            "3000\tSELECT a FROM t1 WHERE k = 7\t1\n"
            "3010\tSelect b From t2 Where k = 'z'\t3\n",
            encoding="utf-8",
        )
        report = tmp_path / "report.csv"
        assert main(["mine", "--log", str(log), "--max-gap", "50", "--out", str(report)]) == 0
        assert capsys.readouterr().out == (
            f"report: {report} (3 sequences)\n"
            "template 8c27a273a37e: select c from t3 where k = ?\n"
            "template df83ec984908: select a from t1 where k = ?\n"
            "template 82e9ed4bc03e: select b from t2 where k = ?\n"
        )
        assert report.read_text(encoding="utf-8") == (
            "templates,support,avg_gaps_ms\n"
            "df83ec984908|82e9ed4bc03e,3,4.666667\n"
            "8c27a273a37e|df83ec984908|82e9ed4bc03e,2,5.500000|2.500000\n"
            "8c27a273a37e|df83ec984908,2,5.500000\n"
        )

    def test_first_text_scan_stops_once_every_template_has_one(self, tmp_path, capsys, monkeypatch):
        """The planted templates first occur in lines 1-3; the scan for each
        template's first text reads no row of the id and text columns after
        that."""
        log = tmp_path / "queries.log"
        log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        real_read, real_mine = rpusim.cli._read_log, rpusim.cli._mine
        read = []

        class Unread:
            def __hash__(self):
                raise AssertionError("row read after every template had its text")

        def read_log(source):
            read.append(real_read(source))
            return read[-1]

        def mine_then_poison(stamps, durations, templates, *params):
            mined = real_mine(stamps, durations, templates, *params)
            # one more row in the columns the scan walks
            templates.append(Unread())
            read[-1][1].append(Unread())
            return mined

        monkeypatch.setattr(rpusim.cli, "_read_log", read_log)
        monkeypatch.setattr(rpusim.cli, "_mine", mine_then_poison)
        assert main(["mine", "--log", str(log), "--min-support", "5", "--max-gap", "50"]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("template ")]
        assert [line.split()[1].rstrip(":") for line in printed] == [A_ID, B_ID, C_ID]
        assert isinstance(read[-1][3][-1], Unread)

    def test_shuffled_logs_mine_as_their_parsed_entries(self, tmp_path, capsys):
        """On shuffled logs with repeated timestamps, ``rpusim mine``'s report
        and template lines equal those of mining ``parse_log``'s entries,
        which are the entries built line by line in a stable sort: the
        columns are sorted in the order the entries are."""
        rng = random.Random(37)
        # the first and last shapes share a template but not a text
        shapes = ["SELECT a FROM t WHERE k = {}", "select b from t where k = '{}'",
                  "SELECT c FROM u WHERE k > {}", "Select a From t Where k = {}"]
        log, report = tmp_path / "queries.log", tmp_path / "report.csv"
        durations = ["", "\t0", "\t1.5"]
        seen = {"ties": 0, "mined": 0}
        for _ in range(80):
            lines = [
                f"{rng.randrange(12)}\t{rng.choice(shapes).format(rng.randrange(10))}{rng.choice(durations)}"
                for _ in range(rng.randrange(40))
            ]
            rng.shuffle(lines)
            log.write_text("\n".join(lines) + "\n", encoding="utf-8")
            entries = parse_log(lines)
            assert entries == sorted((parse_log([line])[0] for line in lines), key=lambda e: e.timestamp_ms)
            mined = mine_sequences(entries, min_support=2, max_len=4, max_gap=1.0)
            args = ["mine", "--log", str(log), "--min-support", "2", "--max-gap", "1", "--out", str(report)]
            assert main(args) == 0
            assert report.read_bytes() == report_csv(mined).encode("utf-8")
            used = {tid for m in mined for tid in m.templates}
            first = {}
            for e in entries:
                if e.template_id in used:
                    first.setdefault(e.template_id, e.text)
            assert capsys.readouterr().out.splitlines()[1:] == [
                f"template {tid}: {normalize_query(text)}" for tid, text in first.items()
            ]
            seen["ties"] += len({e.timestamp_ms for e in entries}) < len(entries)
            seen["mined"] += bool(mined)
        assert min(seen.values()) > 0


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys, tmp_path):
        assert main(["plan", "--workload", str(tmp_path / "nope.json")]) == 2
        assert "I/O error" in capsys.readouterr().err

    def test_invalid_workload_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "tables": [{"name": "t", "size_mb": 1.0}],
            "queries": [
                {"id": "Q0", "table": "t", "ops": [{"id": "a", "selectivity": 1.2}]},
                {"id": "Q1", "table": "t", "ops": [{"id": "a", "selectivity": 0.5}]},
            ],
            "sequence": {"order": ["Q0", "Q1"], "gaps_ms": [1.0]},
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["plan", "--workload", str(path)]) == 1
        assert "selectivity range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d["tables"][1].update(size_mb=math.nan), "non-finite table size"),
            (lambda d: d["sequence"].update(gaps_ms=[math.inf]), "non-finite gap"),
        ],
        ids=["nan-table-size", "inf-gap"],
    )
    def test_non_finite_workload_is_validation_error(self, capsys, tmp_path, mutate, fragment):
        doc = workload_dict(default_scenario(), calibrated_profile())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # writes NaN / Infinity literals
        assert main(["plan", "--workload", str(path)]) == 1
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, where",
        [
            (lambda d: d["tables"][0].update(size_mb=10 ** 400), "tables[0].size_mb"),
            (lambda d: d["queries"][1]["ops"][0].update(selectivity=10 ** 400), "queries[1].ops[0].selectivity"),
            (lambda d: d["sequence"].update(gaps_ms=[-10 ** 400]), "sequence.gaps_ms[0]"),
            (lambda d: d["profile"].update(r_scan_mb_per_ms=10 ** 400), "profile.r_scan_mb_per_ms"),
        ],
        ids=["size", "selectivity", "gap", "profile"],
    )
    def test_integer_too_large_for_a_float_is_validation_error(self, capsys, tmp_path, mutate, where):
        doc = workload_dict(default_scenario(), calibrated_profile())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["plan", "--workload", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {where} must be a finite number\n")

    @pytest.mark.parametrize("digits", [5000, 100_000])
    def test_integer_literal_too_long_to_read_names_the_file(self, capsys, tmp_path, digits):
        """``json`` refuses an integer literal longer than Python's int
        string-conversion limit with a plain ``ValueError``; that is a
        format error naming the file, with no advice about interpreter
        settings."""
        doc = workload_dict(default_scenario(), calibrated_profile())
        doc["tables"][0]["size_mb"] = "SIZE"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"SIZE"', "9" * digits), encoding="utf-8")
        assert main(["plan", "--workload", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not valid JSON (an integer literal has too many digits)\n"

    def test_workload_that_is_not_utf8_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff" + json.dumps(workload_dict(default_scenario())).encode("utf-8"))
        assert main(["cost", "--workload", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)\n"
        )

    def test_unknown_key_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"tables": [], "queries": [], "sequence": {"order": [], "gaps_ms": []}, "x": 1}',
                        encoding="utf-8")
        assert main(["plan", "--workload", str(path)]) == 1
        assert "unknown key" in capsys.readouterr().err


def test_one_parser_serves_every_call_with_no_option_left_over(tmp_path, capsys):
    """The parser is built once per process; a command run after another
    prints exactly what it prints as the process's first call."""
    log = tmp_path / "queries.log"
    log.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
    sweep = ["sweep", "--sweep", "gap", "--from", "0", "--to", "10", "--steps", "3"]
    runs = [(sweep + ["--fix-scale", "2"], sweep), (["plan", "--no-hints"], ["plan"]),
            (["plan"], ["mine", "--log", str(log), "--max-gap", "50"])]

    def first_call(argv):
        rpusim.cli._build_parser.cache_clear()
        assert main(argv) == 0
        return capsys.readouterr().out

    for before, after in runs:
        expected = first_call(after)
        assert first_call(before) != expected
        assert main(after) == 0
        assert capsys.readouterr().out == expected
    assert rpusim.cli._build_parser() is rpusim.cli._build_parser()


def test_python_dash_m_runs_the_cli(capsys):
    """``python -m rpusim`` runs the same command line as ``rpusim.cli.main``."""
    assert main(["cost"]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    src = str(Path(rpusim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rpusim", "cost"], capture_output=True, env=env, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


class TestIdsPrintParseably:
    """An id that could split a printed line prints as its JSON string
    literal; a plain id prints as it is."""

    @pytest.mark.parametrize("name", ["Q\n0", "Q: 1", "acc,0", "", "acc 0", 'Q"0', "Q=0", "Q\x000"])
    def test_an_id_that_is_not_plain_reads_back_through_json(self, name):
        text = rpusim.cli._id_text(name)
        assert text == json.dumps(name)
        assert json.loads(text) == name

    @pytest.mark.parametrize("name", ["Q0", "acc3", "t-1.b_2", "Ω0"])
    def test_a_plain_id_prints_as_it_is(self, name):
        assert rpusim.cli._id_text(name) == name

    def test_cost_and_plan_lines_split_back_into_their_ids(self, tmp_path, capsys):
        from rpusim import FilterOp, Query, QuerySequence, save_workload

        def renamed(op):
            return FilterOp("acc,0", op.selectivity, op.commutes) if op.id == "acc0" else op

        seq = default_scenario()
        queries = tuple(
            Query(qid, q.table, tuple(map(renamed, q.ops))) for qid, q in zip(("Q\n0", "Q: 1"), seq.queries)
        )
        workload = tmp_path / "w.json"
        save_workload(workload, QuerySequence(queries, seq.gaps), calibrated_profile())
        assert main(["cost", "--strategy", "S", "--workload", str(workload)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.strip().rpartition(": ") for line in lines[2:]]
        assert [(json.loads(qid), ms) for qid, _, ms in rows] == [("Q\n0", "53.944"), ("Q: 1", "17.417")]
        assert main(["plan", "--workload", str(workload)]) == 0
        hints = [line for line in capsys.readouterr().out.splitlines() if line.startswith("hint: ")]
        fields = dict(field.split("=", 1) for field in hints[0].split()[1:])
        assert json.loads(fields["next_accelerators"]) == "acc,0"


def _readme_cli_lines() -> list[list[str]]:
    """Each ``rpusim`` command of the README's CLI block, split into its
    arguments: ``#`` comments stripped, ``\\`` continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    text = "\n".join(line.split("#", 1)[0].rstrip() for line in block.splitlines())
    commands = [line.split() for line in text.replace("\\\n", " ").splitlines()]
    return [words[1:] for words in commands if words and words[0] == "rpusim"]


@pytest.mark.parametrize("args", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_examples_run(args, tmp_path, monkeypatch, capsys):
    """Every command of the README's CLI block exits 0 in an empty
    directory; the ``mine`` commands read a small log and a catalog of its
    templates written there."""
    from rpusim import fingerprint

    monkeypatch.chdir(tmp_path)
    texts = ["SELECT * FROM t0 WHERE a < {}", "SELECT * FROM t1 WHERE b = {}"]
    lines = [f"{100.0 * i + 10.0 * j}\t{text.format(i)}\t1" for i in range(3) for j, text in enumerate(texts)]
    (tmp_path / "queries.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
    entry = {"table": {"name": "t0", "size_mb": 9.0}, "ops": [{"id": "acc0", "selectivity": 0.33}]}
    catalog = {fingerprint(text.format(0)): entry for text in texts}
    (tmp_path / "catalog.json").write_text(json.dumps(catalog), encoding="utf-8")
    assert main(args) == 0, capsys.readouterr().err


def test_the_readme_cli_block_holds_every_command():
    commands = [args[0] for args in _readme_cli_lines()]
    assert commands == ["cost"] * 3 + ["plan"] * 2 + ["simulate"] + ["sweep"] * 4 + ["mine"] * 2
