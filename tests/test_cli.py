import re

import pytest

from ldovco.cli import (
    CORNERS,
    PROBLEM_FILE,
    CONSTANTS_FILE,
    RUNCONFIG_FILE,
    RunConfig,
    format_runconfig,
    main,
    parse_runconfig,
)
from ldovco.flows import run_codesign
from ldovco.iofmt import parse_problem_file
from ldovco.optimizer import OptConfig


@pytest.fixture()
def workdir(tmp_path):
    assert main(["init", str(tmp_path)]) == 0
    return tmp_path


class TestRunConfig:
    def test_default_round_trips_unchanged(self):
        cfg = RunConfig()
        text = format_runconfig(cfg)
        assert parse_runconfig(text) == cfg
        assert format_runconfig(parse_runconfig(text)) == text

    def test_partial_file_uses_defaults(self):
        cfg = parse_runconfig("budget 120\nflow seq\n")
        assert cfg.budget == 120
        assert cfg.flow == "seq"
        assert cfg.seed == RunConfig().seed

    def test_defaults_are_the_optimizer_defaults(self):
        assert RunConfig().opt_config() == OptConfig(eval_budget=500, seed=1)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            parse_runconfig("bogus 3\n")

    def test_rejects_bad_flow(self):
        with pytest.raises(ValueError):
            parse_runconfig("flow sideways\n")

    def test_rejects_repeated_key(self):
        with pytest.raises(ValueError, match="duplicate config key 'seed'"):
            parse_runconfig("seed 1\nbudget 40\nseed 2\n")

    def test_flag_overrides_its_line(self):
        assert parse_runconfig("seed 1\n", {"seed": "2"}).seed == 2

    def test_seed_list_formats(self):
        assert parse_runconfig("seeds 1,2,3\n").seeds == (1, 2, 3)
        assert parse_runconfig("seeds 4 5 6\n").seeds == (4, 5, 6)


class TestInit:
    def test_emits_three_files_with_43_vars(self, workdir):
        for name in (PROBLEM_FILE, CONSTANTS_FILE, RUNCONFIG_FILE):
            assert (workdir / name).exists()
        space, constraints = parse_problem_file((workdir / PROBLEM_FILE).read_text())
        assert space.dim == 43
        assert len(constraints) == 9

    def test_refuses_overwrite_without_force(self, workdir, capsys):
        marker = (workdir / PROBLEM_FILE).read_text()
        assert main(["init", str(workdir)]) == 1
        assert (workdir / PROBLEM_FILE).read_text() == marker
        assert main(["init", str(workdir), "--force"]) == 0

    def test_emitted_config_round_trips(self, workdir):
        text = (workdir / RUNCONFIG_FILE).read_text()
        assert format_runconfig(parse_runconfig(text)) == text


class TestRun:
    def test_artifacts_and_exit_code(self, workdir, capsys):
        code = main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "60", "--seed", "4"])
        out_dir = workdir / "runs" / "co_seed4"
        assert (out_dir / "run_log.csv").exists()
        assert (out_dir / "best_design.txt").exists()
        assert (out_dir / "summary.txt").exists()
        log = (out_dir / "run_log.csv").read_text().splitlines()
        assert log[0].startswith("eval_index,origin,objective,violation")
        assert len(log) == 61  # header + one row per true evaluation
        if code == 1:
            assert "violates" in capsys.readouterr().err

    def test_deterministic_artifacts(self, workdir):
        main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "55", "--seed", "2",
              "--out", "a"])
        main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "55", "--seed", "2",
              "--out", "b"])
        a = (workdir / "a" / "co_seed2" / "run_log.csv").read_bytes()
        b = (workdir / "b" / "co_seed2" / "run_log.csv").read_bytes()
        assert a == b
        da = (workdir / "a" / "co_seed2" / "best_design.txt").read_bytes()
        db = (workdir / "b" / "co_seed2" / "best_design.txt").read_bytes()
        assert da == db

    def test_run_log_is_machine_parseable(self, workdir):
        main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "60", "--seed", "4",
              "--out", "reparse"])
        lines = (workdir / "reparse" / "co_seed4" / "run_log.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            float(row["objective"])
            float(row["violation"])
            int(row["eval_index"])
            assert row["origin"] in ("initial", "de")

    def test_budget_or_stagnation_accounting(self, workdir):
        main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "60", "--seed", "4",
              "--out", "acct"])
        log = (workdir / "acct" / "co_seed4" / "run_log.csv").read_text().splitlines()
        n_rows = len(log) - 1
        cfg = parse_runconfig((workdir / RUNCONFIG_FILE).read_text())
        assert n_rows == 60 or n_rows < 60  # budget hit, or stagnation stop

    def test_best_design_reevaluates_with_eq1(self, workdir):
        main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "60", "--seed", "4"])
        from ldovco.iofmt import parse_sections, parse_keyvalues
        from ldovco.problem import fom

        record = (workdir / "runs" / "co_seed4" / "best_design.txt").read_text()
        sections = parse_sections(record)
        nominal = parse_keyvalues(sections["nominal"])
        assert nominal["fom"] == pytest.approx(
            fom(nominal["f0"], 1e6, nominal["pn1m"], nominal["pdyn"]), abs=1e-6
        )
        # worst-case fom is the minimum per-corner fom, not Eq-1 arithmetic
        # on the pessimized fields; it can only sit at or below nominal
        worst = parse_keyvalues(sections["worst"])
        assert worst["fom"] <= nominal["fom"] + 1e-9

    def test_seq_flow_writes_stage_column(self, workdir):
        main(["run", str(workdir / RUNCONFIG_FILE), "--flow", "seq", "--budget", "72",
              "--seed", "1"])
        log = (workdir / "runs" / "seq_seed1" / "run_log.csv").read_text().splitlines()
        assert log[0].endswith(",stage")
        stages = {line.rsplit(",", 1)[1] for line in log[1:]}
        assert stages == {"1", "2"}

    @pytest.mark.parametrize("flow", ["co", "seq"])
    @pytest.mark.parametrize("limit,reason", [(100, "budget"), (2, "stagnation")])
    def test_summary_says_why_it_stopped_and_what_failed(self, workdir, flow, limit, reason):
        config = workdir / "why.txt"
        config.write_text((workdir / RUNCONFIG_FILE).read_text().replace(
            "no_improve_limit 100", f"no_improve_limit {limit}"))
        main(["run", str(config), "--flow", flow, "--budget", "72", "--seed", "1"])
        out = workdir / "runs" / f"{flow}_seed1"
        log = (out / "run_log.csv").read_text().splitlines()
        summary = (out / "summary.txt").read_text().splitlines()
        stop = reason if flow == "co" else f"stage 1 {reason}, stage 2 {reason}"
        assert summary[3] == f"stop reason: {stop}"
        assert (len(log) - 1 < 72) == (reason == "stagnation")
        # the failed evaluations are the log rows without a worst case, by
        # failing quantity and corner, most frequent first
        header = log[0].split(",")
        failed = sum(dict(zip(header, row.split(",")))["worst_fom"] == "nan" for row in log[1:])
        match = re.fullmatch(rf"failed evaluations: (\d+) of {len(log) - 1} \((.+)\)", summary[4])
        assert match and int(match[1]) == failed > 0
        labels = {c.label() for c in CORNERS}
        counts = [re.fullmatch(r"pass_headroom at (\S+): (\d+)", part)
                  for part in match[2].split(", ")]
        assert all(m and m[1] in labels for m in counts)
        assert sum(int(m[2]) for m in counts) == failed
        assert [int(m[2]) for m in counts] == sorted((int(m[2]) for m in counts), reverse=True)

    def test_failed_final_design_is_exit_1(self, workdir, capsys):
        # every one of the 5 evaluations fails pass_headroom, so the final
        # design fails its coupled re-score
        assert main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "5", "--seed", "4"]) == 1
        err = capsys.readouterr().err
        assert err == ("final design failed: corner nominal: evaluation failed at "
                       "pass_headroom: needs 1.658 V gate drive from 1.62 V\n")
        # the run log survives; there is no re-scored design to record
        out = workdir / "runs" / "co_seed4"
        assert len((out / "run_log.csv").read_text().splitlines()) == 1 + 5
        assert sorted(p.name for p in out.iterdir()) == ["run_log.csv"]

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.txt")]) == 2

    def test_bad_config_value_is_exit_2(self, workdir):
        bad = workdir / "bad.txt"
        bad.write_text("budget ten\n")
        assert main(["run", str(bad)]) == 2

    def test_missing_problem_file_is_exit_3(self, workdir):
        cfg = workdir / "cfg3.txt"
        cfg.write_text("problem missing.txt\nbudget 30\n")
        assert main(["run", str(cfg)]) == 3


    def test_best_design_record_round_trips_exactly(self, workdir, monkeypatch):
        from ldovco import cli
        from ldovco.iofmt import parse_point_file

        results = []

        def spy(*args):
            results.append(run_codesign(*args))
            return results[-1]

        monkeypatch.setattr(cli, "run_codesign", spy)
        main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "60", "--seed", "4",
              "--out", "exact"])
        record = (workdir / "exact" / "co_seed4" / "best_design.txt").read_text()
        space, _ = parse_problem_file((workdir / PROBLEM_FILE).read_text())
        values = parse_point_file(record)
        assert [values[n] for n in space.names] == results[0].final_point.tolist()

class TestEval:
    def test_prints_33_corner_rows(self, workdir, capsys, co_point_file):
        assert main(["eval", str(co_point_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        corner_rows = [l for l in out if l and not l.startswith(("corner,", "worst_case,", "violation,"))]
        assert len(corner_rows) == 33
        assert out[0].startswith("corner,f0,")
        assert sum(1 for l in out if l.startswith("worst_case,")) == 1

    def test_sweep_artifacts(self, workdir, capsys, co_point_file, tmp_path):
        out_dir = tmp_path / "sweeps"
        assert main(["eval", str(co_point_file), "--sweep", "--out", str(out_dir)]) == 0
        sweep = (out_dir / "pn_sweep.csv").read_text().splitlines()
        assert sweep[0] == "offset_hz,pn_ideal_dbchz,pn_coupled_dbchz"
        assert len(sweep) == 82  # header + 20 points/decade over 4 decades
        first = sweep[1].split(",")
        last = sweep[-1].split(",")
        assert float(first[0]) == pytest.approx(1e4)
        assert float(last[0]) == pytest.approx(1e8)
        for line in sweep[1:]:
            _, ideal, coupled = (float(x) for x in line.split(","))
            assert coupled >= ideal - 1e-9
        corners = (out_dir / "pn_corners.csv").read_text().splitlines()
        assert corners[0] == "corner,pn100k,pn1m,pn10m"
        assert len(corners) == 34

    def test_missing_variable_named(self, workdir, capsys, tmp_path):
        partial = tmp_path / "partial.txt"
        partial.write_text("M2 300\n")
        assert main(["eval", str(partial)]) == 1
        assert "L_34" in capsys.readouterr().err

    def test_unknown_name_rejected(self, workdir, capsys, co_point_file):
        # a fixed element and a misspelt variable are not design variables
        co_point_file.write_text(co_point_file.read_text() + "c_byp 1p\nM2x 5\n")
        assert main(["eval", str(co_point_file)]) == 1
        assert capsys.readouterr().err == "design error: design names non-variables: c_byp, M2x\n"

    def test_failing_design_exits_1_naming_corner_and_quantity(
        self, workdir, capsys, co_point_file
    ):
        # a one-finger pass device needs more gate drive than the 1.62 V input gives
        text = re.sub(r"^M_pass .*$", "M_pass 1", co_point_file.read_text(), flags=re.M)
        co_point_file.write_text(text)
        assert main(["eval", str(co_point_file)]) == 1
        err = capsys.readouterr().err
        assert "corner nominal" in err
        assert "pass_headroom" in err

    def test_design_failing_at_a_later_corner_names_that_corner(self, capsys, tmp_path):
        # this LHS design regulates at the nominal corner, but its pass device
        # runs out of gate drive at the slow-slow hot corner (index 18)
        from ldovco import load_bundled_problem
        from ldovco.space import sample_initial

        space, _ = load_bundled_problem()
        point = sample_initial(space, 64, seed=2024)[22]
        design = tmp_path / "lhs22.txt"
        design.write_text("".join(f"{n} {x!r}\n" for n, x in zip(space.names, point.tolist())))
        assert main(["eval", str(design)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("corner snsp_minL_minC_125C: evaluation failed at pass_headroom")

    def test_sweep_failure_is_exit_1_without_artifacts(self, capsys, tmp_path):
        # this LHS design passes on an ideal supply, but the sweep's coupled
        # column runs out of pass-device gate drive at the nominal corner
        from ldovco import load_bundled_problem
        from ldovco.space import sample_initial

        space, _ = load_bundled_problem()
        point = sample_initial(space, 64, seed=2024)[0]
        design = tmp_path / "lhs0.txt"
        design.write_text("".join(f"{n} {x!r}\n" for n, x in zip(space.names, point.tolist())))
        out_dir = tmp_path / "sweeps"
        args = ["eval", str(design), "--mode", "ideal", "--sweep", "--out", str(out_dir)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith("violation,")
        assert captured.err.startswith(
            "sweep failed: corner nominal: evaluation failed at pass_headroom: ")
        assert captured.err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("value,mode", [("0", "coupled"), ("-1", "coupled"), ("-1", "ideal")])
    def test_value_outside_bounds_is_exit_1_naming_it(
        self, capsys, co_point_file, value, mode
    ):
        text = re.sub(r"^M2 .*$", f"M2 {value}", co_point_file.read_text(), flags=re.M)
        co_point_file.write_text(text)
        assert main(["eval", str(co_point_file), "--mode", mode]) == 1
        assert capsys.readouterr().err == f"design error: M2 = {value} outside [1, 1000]\n"

    @pytest.mark.parametrize("args,message", [
        (["--mode", "ldo"], "argument --mode: invalid choice: 'ldo'"),
        (["--iload", "0"], "unrecognized arguments: --iload 0"),
        (["--iload", "-0.002"], "unrecognized arguments: --iload -0.002"),
    ], ids=["mode_ldo", "iload_zero", "iload_negative"])
    def test_removed_ldo_inputs_are_exit_2(self, capsys, co_point_file, args, message):
        # eval has no LDO-alone mode, so no load current to give it
        with pytest.raises(SystemExit) as info:
            main(["eval", str(co_point_file), *args])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_best_design_record_is_evaluable(self, workdir, capsys):
        main(["run", str(workdir / RUNCONFIG_FILE), "--budget", "60", "--seed", "4",
              "--out", "evalrt"])
        record = workdir / "evalrt" / "co_seed4" / "best_design.txt"
        assert main(["eval", str(record)]) == 0


class TestCompare:
    def test_csv_rows_and_rerun_identical(self, workdir):
        args = ["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "1,2",
                "--budget", "60", "--workers", "2"]
        assert main(args + ["--out", "cmp_a"]) == 0
        assert main(args + ["--out", "cmp_b"]) == 0
        a = (workdir / "cmp_a" / "comparison" / "comparison.csv").read_bytes()
        b = (workdir / "cmp_b" / "comparison" / "comparison.csv").read_bytes()
        assert a == b
        lines = a.decode().splitlines()
        assert len(lines) == 3  # header + one row per seed
        assert lines[0].startswith("seed,codesign_fom")

    def test_summary_reports_percentage(self, workdir):
        main(["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "1,2",
              "--budget", "60", "--out", "cmp_pct"])
        summary = (workdir / "cmp_pct" / "comparison" / "summary.txt").read_text()
        assert "%" in summary
        assert "win rate" in summary

    def test_worker_pool_is_capped_at_the_task_count(self, workdir, monkeypatch):
        # the pool starts every worker it is given at once, so it gets no
        # more than the 2 flows x 2 seeds it has tasks for
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        args = ["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "1,2", "--budget", "60",
                "--workers", "64", "--out", "cmp_cap"]
        assert main(args) == 0
        assert opened == [4]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_final_design_is_exit_1(self, workdir, capsys, workers):
        args = ["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "4,5", "--budget", "5",
                "--workers", workers]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("final design failed: corner nominal: evaluation failed at "
                              "pass_headroom: ")
        assert not (workdir / "runs" / "comparison").exists()

    def test_single_seed_rejected(self, workdir):
        assert main(["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "1"]) == 2

    def test_bad_seed_list_is_exit_2(self, workdir, capsys):
        assert main(["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "a,b"]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid literal for int()")

    def test_repeated_seed_is_exit_2(self, workdir, capsys):
        assert main(["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "1,2,1"]) == 2
        assert capsys.readouterr().err == (
            "config error: compare seeds must be distinct; repeated: [1]\n")
        assert not (workdir / "runs" / "comparison").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_exit_2(self, workdir, capsys, workers):
        args = ["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "1,2", "--workers", workers]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"config error: compare needs at least one worker, got {workers}\n")
        assert not (workdir / "runs" / "comparison").exists()

    def test_budget_below_stage_samples_is_exit_2(self, workdir, capsys):
        # the sequential flow's first stage gets too few evaluations
        args = ["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "1,2", "--budget", "3"]
        assert main(args) == 2
        assert capsys.readouterr().err == ("config error: sequential stage 1 gets 1 of budget 3,"
                                           " too few evaluations for its initial sample\n")
        assert not (workdir / "runs" / "comparison").exists()

    def test_negative_seed_is_exit_2_before_any_run(self, workdir, capsys, monkeypatch):
        from ldovco import flows

        calls = []
        monkeypatch.setattr(flows, "run_codesign", lambda *args: calls.append(args))
        assert main(["compare", str(workdir / RUNCONFIG_FILE), "--seeds", "1,-1"]) == 2
        assert capsys.readouterr().err == "config error: seed must be non-negative, got -1\n"
        assert calls == []
        assert not (workdir / "runs").exists()


@pytest.mark.parametrize("argv,code,prefix", [
    (["run", "{config}", "--budget", "ten"], 2, "config error: "),
    (["compare", "{config}", "--workers", "x"], 2, "config error: "),
    (["run", "{config}", "--seed", "1.5"], 2, "config error: "),
    (["run", "{bogus}"], 2, "config error: unknown config keys: bogus"),
    (["eval", "{design}", "--config", "{bogus}"], 2, "config error: "),
    (["compare", "{no_problem}"], 3, "evaluator setup error: "),
    (["eval", "{design}", "--config", "{no_problem}"], 3, "evaluator setup error: "),
], ids=["run-budget", "compare-workers", "run-seed", "unknown-key", "eval-config",
        "compare-no-problem", "eval-no-problem"])
def test_exit_codes(workdir, co_point_file, capsys, argv, code, prefix):
    (workdir / "bogus.txt").write_text("bogus 3\n")
    (workdir / "no_problem.txt").write_text("problem missing.txt\n")
    paths = {"config": workdir / RUNCONFIG_FILE, "bogus": workdir / "bogus.txt",
             "no_problem": workdir / "no_problem.txt", "design": co_point_file}
    assert main([a.format(**paths) for a in argv]) == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("line,message", [
    ("seed -1", "seed must be non-negative, got -1"),
    ("init_samples 1", "init_samples must be at least 2, got 1"),
    ("no_improve_limit 0", "no_improve_limit must be positive, got 0"),
    ("no_improve_limit -5", "no_improve_limit must be positive, got -5"),
])
def test_optimizer_setting_that_cannot_run_is_exit_2(workdir, capsys, command, line, message):
    # rejected with the config, before the initial sample is evaluated
    config = workdir / "bad_setting.txt"
    config.write_text(f"budget 30\nseeds 1,2\n{line}\n")
    assert main([command, str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (workdir / "runs").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_config_with_a_refit_epochs_line_is_exit_2(workdir, capsys, command):
    # the refit epochs and the DE and prescreen settings are constants, so
    # an old config's line for any of them names an unknown key
    config = workdir / RUNCONFIG_FILE
    text = config.read_text()
    for line in ("refit_epochs 60", "lambda_parents 20", "children_per_iter 50", "de_f 0.8",
                 "de_cr 0.8", "beta 0.7"):
        config.write_text(f"{text}{line}\n")
        assert main([command, str(config)]) == 2
        key = line.split()[0]
        assert capsys.readouterr().err == f"config error: unknown config keys: {key}\n"
        assert not (workdir / "runs").exists()


@pytest.mark.parametrize("command", ["run", "eval", "compare"])
@pytest.mark.parametrize("line", ["pmx >= 50", "pm >= 0", "f0 >= NaN", "f0 >= Infinity",
                                  "f0 <= 6G", "pm <= 80", "pdyn >= 1m", "pn100k <= -94"])
def test_bad_constraint_is_exit_3(workdir, co_point_file, capsys, command, line):
    problem = (workdir / PROBLEM_FILE).read_text() + line + "\n"
    (workdir / "bad_problem.txt").write_text(problem)
    config = workdir / "bad_constraint.txt"
    config.write_text("problem bad_problem.txt\nbudget 30\n")
    argv = {"run": ["run", str(config)], "compare": ["compare", str(config)],
            "eval": ["eval", str(co_point_file), "--config", str(config)]}[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluator setup error: constraint")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "eval", "compare"])
@pytest.mark.parametrize("pattern,repl,message", [
    (r"^(M2 \S+ \S+) \S+", r"\1 -1", "M2: negative lower bound -1"),
    (r"^(L_56 \S+ \S+) \S+", r"\1 -60n", "L_56: negative lower bound -60n"),
    (r"^c_byp .*\n", "", "problem file is missing c_byp, read by the evaluator"),
    (r"^R_F .*\n", "", "problem file is missing R_F, read by the evaluator"),
    (r"^c_byp \S+", "c_byp -60p", "c_byp: negative fixed element -60p"),
    (r"^r_div \S+", "r_div -1K", "r_div: negative fixed element -1K"),
    (r"^c_byp \S+", "c_byp NaN", "c_byp: non-finite fixed element nan"),
    (r"^c_var \S+", "c_var Infinity", "c_var: non-finite fixed element inf"),
    (r"^(W_ind \S+ \S+ \S+) \S+", r"\1 Infinity",
     "invalid problem file: W_ind: non-finite bounds [3e-06, inf]"),
    (r"^(W_ind \S+ \S+ \S+) \S+", r"\1 1e400",
     "invalid problem file: W_ind: non-finite bounds [3e-06, inf]"),
    (r"^(M2 \S+ \S+ \S+) \S+", r"\1 1e400",
     "invalid problem file: M2: non-finite bounds [1.0, inf]"),
    (r"^beta_fb \S+", "beta_fb 0", "beta_fb: divider ratio 0 outside (0, 1]"),
    (r"^beta_fb \S+", "beta_fb 2", "beta_fb: divider ratio 2 outside (0, 1]"),
], ids=["negative-M2", "negative-L_56", "no-c_byp", "no-R_F", "negative-c_byp",
        "negative-r_div", "nan-c_byp", "inf-c_var", "inf-W_ind", "huge-W_ind", "huge-M2",
        "zero-beta_fb", "big-beta_fb"])
def test_bad_problem_file_is_exit_3(workdir, co_point_file, capsys, command, pattern, repl,
                                    message):
    problem = re.sub(pattern, repl, (workdir / PROBLEM_FILE).read_text(), count=1, flags=re.M)
    (workdir / "bad_problem.txt").write_text(problem)
    config = workdir / "bad_problem_config.txt"
    config.write_text("problem bad_problem.txt\nbudget 5\n")
    argv = {"run": ["run", str(config)], "compare": ["compare", str(config)],
            "eval": ["eval", str(co_point_file), "--config", str(config)]}[command]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"evaluator setup error: {message}\n"


def test_zero_valued_variable_is_exit_1_naming_the_quantity(workdir, co_point_file, capsys):
    # a lower bound of 0 is legal; with no bias current the tank has no swing
    problem = re.sub(r"^(M2 \S+ \S+) \S+", r"\1 0", (workdir / PROBLEM_FILE).read_text(),
                     flags=re.M)
    (workdir / "zero_problem.txt").write_text(problem)
    config = workdir / "zero_config.txt"
    config.write_text("problem zero_problem.txt\n")
    co_point_file.write_text(re.sub(r"^M2 .*$", "M2 0", co_point_file.read_text(), flags=re.M))
    assert main(["eval", str(co_point_file), "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "corner nominal: evaluation failed at p_sig: nonpositive or non-finite value 0.0\n"
    )


@pytest.fixture()
def co_point_file(tmp_path):
    from importlib import resources

    path = tmp_path / "co.txt"
    path.write_text((resources.files("ldovco.data") / "point_codesign.txt").read_text())
    return path
