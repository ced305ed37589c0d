"""Command-line and package surface: argument handling, CSV shape,
determinism, exported names."""

import argparse
import csv
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isarith
from isarith import bivariate, cli, expr, interval, model, oracle, univariate
from isarith.cli import (
    RECURSION_DOMAIN,
    RunConfig,
    main,
    parse_domain_spec,
    run_compare,
    run_recursion,
    run_sweep,
)


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [l for l in lines if l.startswith("#")]
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    return meta, rows


class TestDomainSpec:
    def test_basic(self):
        d = parse_domain_spec("x1=[0,1];x2=[0,2]", branches=4)
        assert d.dim == 2 and d.branches == 4
        assert d.boxes[1].hi == 2.0

    def test_pi_in_endpoints(self):
        d = parse_domain_spec("x1=[-0.25*pi,0.25*pi]", branches=2)
        assert d.boxes[0].lo == pytest.approx(-math.pi / 4)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_domain_spec("x1=[0,1];x3=[0,1]", branches=2)  # x2 missing
        with pytest.raises(ValueError):
            parse_domain_spec("y1=[0,1]", branches=2)
        with pytest.raises(ValueError):
            parse_domain_spec("", branches=2)

    @pytest.mark.parametrize(
        "text", ["-0.0", "0.0", "1e-320", ".5", "5.", "-3e-2", " 2.5 ", "1e999", "+1", "0.25*pi"]
    )
    def test_endpoint_fast_path_matches_the_parser(self, text):
        def through_parser():
            e = expr.parse(text, 0)
            return e.nodes[e.outputs[0]][1]

        results = []
        for evaluate in (lambda: cli._const_eval(text), through_parser):
            try:
                results.append(struct.pack("<d", evaluate()))
            except (ValueError, OverflowError) as err:
                results.append(type(err))
        assert results[0] == results[1]

    def test_repeated_axis(self, capsys):
        with pytest.raises(ValueError, match="axis x1 given twice"):
            parse_domain_spec("x1=[0,1];x1=[2,3]", branches=2)
        assert main(["bound", "--expr", "x1", "--domain", "x1=[0,1];x1=[2,3]"]) == 2
        assert "given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["x0=[5,6];x1=[0,1]", "x0=[0,1]", "x1=[0,1];x00=[2,3]"])
    def test_axis_zero_is_a_bad_name(self, spec, capsys):
        # axes count from x1, as in the expression grammar; x0 is no axis
        with pytest.raises(ValueError, match="bad axis name"):
            parse_domain_spec(spec, branches=2)
        assert main(["bound", "--expr", "x1", "--domain", spec]) == 2
        assert "bad axis name" in capsys.readouterr().err


class TestBound:
    def test_monotone_function(self, capsys):
        rc = main(["bound", "--expr", "exp(x1)", "--domain", "x1=[0,1]", "-N", "4"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        isa = out[0].split()
        ia = out[1].split()
        assert isa[0] == "isa" and ia[0] == "ia"
        lo, hi = float(isa[1]), float(isa[2])
        assert abs(lo - 1.0) < 1e-9 and abs(hi - math.e) < 1e-9

    def test_self_cancellation_stays_inside_baseline(self, capsys):
        rc = main(["bound", "--expr", "x1-x1", "--domain", "x1=[0,1]", "-N", "10"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        isa_lo, isa_hi = (float(v) for v in out[0].split()[1:])
        ia_lo, ia_hi = (float(v) for v in out[1].split()[1:])
        assert (ia_lo, ia_hi) == (-1.0, 1.0)
        # branch alignment narrows the cancellation to one branch pair
        assert -1.0 <= isa_lo <= 0.0 <= isa_hi <= 1.0
        assert isa_hi - isa_lo <= 0.2 + 1e-12

    def test_bad_expression_exits_2(self, capsys):
        assert main(["bound", "--expr", "x1+", "--domain", "x1=[0,1]"]) == 2
        assert main(["bound", "--expr", "log(x1)", "--domain", "x1=[-1,1]"]) == 2
        assert main(["bound", "--expr", "x1"]) == 2  # missing domain

    @pytest.mark.parametrize(
        "text",
        ["(" * 201 + "x1" + ")" * 201, "exp(" * 400 + "x1" + ")" * 400],
        ids=["parentheses", "calls"],
    )
    def test_deep_nesting_exits_2(self, text, capsys):
        # the recursive-descent parser stops at a documented depth instead of
        # running out of interpreter stack
        assert main(["bound", f"--expr={text}", "--domain", "x1=[0,1]"]) == 2
        assert f"nested deeper than {expr.MAX_NESTING} levels" in capsys.readouterr().err

    def test_many_unary_minuses_bound(self):
        assert main(["bound", "--expr=" + "-" * 1000 + "x1", "--domain", "x1=[0,1]"]) == 0

    @pytest.mark.parametrize("command", ["bound", "compare"])
    @pytest.mark.parametrize("expr_args", [[], ["--expr", ""]], ids=["absent", "empty"])
    def test_missing_expression_exits_2(self, command, expr_args, capsys):
        assert main([command, "--domain", "x1=[0,1];x2=[0,1]"] + expr_args) == 2
        captured = capsys.readouterr()
        assert "--expr is required" in captured.err and captured.out == ""

    @pytest.mark.parametrize("text, spec", [
        ("exp(x1-1000)", "x1=[0,710]"),  # e^710 overflows, the range is below 1.2e-126
        ("exp(-100*x1)", "x1=[8,9]"),  # both ends of the exp row underflow to 0
    ])
    def test_exp_whose_row_ends_leave_the_floats(self, text, spec, capsys):
        assert main(["bound", "--expr", text, "--domain", spec]) == 0
        (isa_lo, isa_hi), (ia_lo, ia_hi) = (
            map(float, line.split()[1:]) for line in capsys.readouterr().out.splitlines()
        )
        e = expr.parse(text, 1)
        box = parse_domain_spec(spec, 1).boxes[0]
        for x in np.linspace(box.lo, box.hi, 2000):
            v = expr.eval_point(e, [x])[0]
            assert isa_lo <= v <= isa_hi and ia_lo <= v <= ia_hi

    def test_product_of_rows_one_ulp_wide(self, capsys):
        # each row is one ulp wide, so its float center is one of its ends
        # and its radius the whole width: the remainder is 4x the
        # exact-arithmetic quarter-width cap, inside the cap the float
        # centering allows
        text, lo, hi = "x3*x1", -1.1454123247037766, -1.1454123247037764
        spec = f"x1=[{lo!r},{hi!r}];x2=[0,1];x3=[{lo!r},{hi!r}]"
        assert main(["bound", "--expr", text, "--domain", spec, "-N", "4"]) == 0
        (isa_lo, isa_hi), (ia_lo, ia_hi) = (
            map(float, line.split()[1:]) for line in capsys.readouterr().out.splitlines()
        )
        e = expr.parse(text, 3)
        axes = [np.linspace(b.lo, b.hi, 7) for b in parse_domain_spec(spec, 4).boxes]
        for x in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3):
            v = expr.eval_point(e, x)[0]
            assert isa_lo <= v <= isa_hi and ia_lo <= v <= ia_hi

    def test_exp_whose_range_overflows_exits_2(self, capsys):
        assert main(["bound", "--expr", "exp(x1)", "--domain", "x1=[0,710]"]) == 2
        assert "range error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["(1e300)^2+x1", "exp(1000)+x1"])
    def test_constant_fold_overflow_exits_2(self, text, capsys):
        # the float ** and math.exp raise OverflowError of their own
        assert main(["bound", "--expr", text, "--domain", "x1=[0,1]"]) == 2
        assert capsys.readouterr().err == "error: constant folded to a non-finite value\n"

    def test_sin_over_a_width_whose_rounding_overflows(self, capsys):
        # 710 - (-max) rounds to the largest float, and rounding it up overflows
        assert main(["bound", "--expr", "sin(-x1)", "--domain", "x1=[-1.7976931348623157e308,710]"]) == 0
        (isa_lo, isa_hi), (ia_lo, ia_hi) = (
            map(float, line.split()[1:]) for line in capsys.readouterr().out.splitlines()
        )
        assert (ia_lo, ia_hi) == (-1.0, 1.0) and isa_lo <= -1.0 and 1.0 <= isa_hi

    def test_bad_axis_name_exits_2(self, capsys):
        assert main(["bound", "--expr", "x1", "--domain", "foo=[0,1]"]) == 2
        assert "bad axis name" in capsys.readouterr().err

    def test_quarter_cap_failure_exits_3(self, monkeypatch, capsys):
        from isarith import bivariate

        monkeypatch.setattr(bivariate, "_CAP_SLACK", -1.0)  # every product trips the cap
        rc = main(["bound", "--expr", "(x1+x2)*(x1-x2)", "--domain", "x1=[0,1];x2=[0,1]",
                   "-N", "4"])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "quarter-width cap" in err[0]


class TestCompare:
    def cfg(self, expr, domain, branches, grid=40_000, seed=0):
        return RunConfig(expr=expr, domain=domain, branches=branches,
                         grid=grid, seed=seed, out=None, depth=1)

    def test_constant_expression(self):
        row = run_compare(self.cfg("1.5+0*x1", "x1=[0,1]", 4))
        assert row["isa_lo"] == row["isa_hi"] == 1.5
        assert row["dH_isa"] == row["dH_ia"] == 0.0

    def test_separable_sum_never_behind_baseline(self):
        row = run_compare(self.cfg("sin(x1)+sin(x2)", "x1=[0,2*pi];x2=[0,2*pi]", 64))
        assert row["dH_isa"] <= row["dH_ia"] + 1e-9

    def test_oracle_inside_both_enclosures(self):
        row = run_compare(self.cfg("exp(sin(x1)+sin(x2)*cos(x2))", "x1=[0,3];x2=[0,4]", 16))
        assert row["isa_lo"] <= row["oracle_lo"] <= row["oracle_hi"] <= row["isa_hi"]
        assert row["ia_lo"] <= row["oracle_lo"] <= row["oracle_hi"] <= row["ia_hi"]

    def test_refinement_improves_distance(self):
        dists = [
            run_compare(self.cfg("exp(sin(x1)+sin(x2)*cos(x2))", "x1=[0,10];x2=[0,20]", cap))["dH_isa"]
            for cap in (1, 10, 100)
        ]
        assert dists[0] >= dists[1] >= dists[2]

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        rc = main([
            "compare", "--expr", "sqr(x1)", "--domain", "x1=[-1,2]",
            "-N", "8", "--grid", "10000", "--out", str(out),
        ])
        assert rc == 0
        meta, rows = read_csv(out)
        assert any(l.startswith("# seed=") for l in meta)
        assert any(l.startswith("# version=") for l in meta)
        assert len(rows) == 1
        assert set(rows[0]) == {
            "expr", "N", "seed", "isa_lo", "isa_hi", "ia_lo", "ia_hi",
            "oracle_lo", "oracle_hi", "dH_isa", "dH_ia", "wall_ms",
        }

    def test_soundness_violation_exits_3(self, monkeypatch, capsys):
        from isarith import cli
        from isarith.oracle import SoundnessViolation

        def boom(cfg):
            raise SoundnessViolation("synthetic")

        monkeypatch.setattr(cli, "run_compare", boom)
        rc = main(["compare", "--expr", "x1", "--domain", "x1=[0,1]"])
        assert rc == 3
        assert "soundness" in capsys.readouterr().err

    def test_reruns_identical_except_walltime(self, tmp_path):
        args = ["compare", "--expr", "sin(x1)", "--domain", "x1=[0,3]",
                "-N", "6", "--grid", "4000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        strip = lambda p: [l.rsplit(",", 1)[0] for l in p.read_text().splitlines()]
        assert strip(a) == strip(b)


class TestSweep:
    def test_small_sweep(self, tmp_path):
        paths = run_sweep(str(tmp_path), points=4, grid_budget=10_000, seed=1)
        assert [p.name for p in paths] == [
            "sweep_x1max_0.1.csv", "sweep_x1max_1.csv", "sweep_x1max_10.csv",
        ]
        for p in paths:
            meta, rows = read_csv(p)
            assert len(rows) == 4
            assert list(rows[0]) == ["x2max", "dH_isa_N1", "dH_isa_N10", "dH_isa_N100", "dH_ia"]
            for row in rows:
                assert row["dH_isa_N1"] != ""  # no failures on this function
                assert float(row["dH_isa_N100"]) <= float(row["dH_isa_N1"]) + 1e-12

    def test_command_prints_each_csv_path(self, tmp_path, capsys):
        assert main(["experiment", "sweep", "--points", "1", "--grid", "100", "--out", str(tmp_path)]) == 0
        names = ["sweep_x1max_0.1.csv", "sweep_x1max_1.csv", "sweep_x1max_10.csv"]
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in names]

    def test_sweep_bytes_reproducible(self, tmp_path):
        a = run_sweep(str(tmp_path / "a"), points=3, grid_budget=4_000, seed=7)
        b = run_sweep(str(tmp_path / "b"), points=3, grid_budget=4_000, seed=7)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


class TestRecursionCmd:
    def test_shallow_run(self, tmp_path):
        out = tmp_path / "rec.csv"
        rc = main([
            "experiment", "recursion", "--depth", "2", "-N", "6",
            "--grid", "30000", "--out", str(out),
        ])
        assert rc == 0
        meta, rows = read_csv(out)
        assert len(rows) == 2
        assert list(rows[0])[:3] == ["k", "dH_isa", "dH_ia"]
        assert f"# domain={RECURSION_DOMAIN}" in meta
        for row in rows:
            assert float(row["dH_isa"]) >= 0.0
            assert float(row["oracle_lo_1"]) <= float(row["oracle_hi_1"])

    def test_programmatic_rows(self):
        rows = run_recursion(depth=2, branches=5, grid_budget=20_000, seed=0)
        assert [r[0] for r in rows] == [1, 2]
        assert rows[1][1] <= rows[1][2]  # piecewise enclosure inside baseline

    def test_range_disjoint_from_the_trivial_bound_exits_3(self, monkeypatch, capsys):
        far = lambda e, boxes: tuple(isarith.Interval(1e6, 1e6 + 1) for _ in e.outputs)
        monkeypatch.setattr(cli, "eval_interval", far)
        assert main(["experiment", "recursion", "--depth", "1", "-N", "2", "--grid", "1000"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"soundness violation: stage 1: range \[\S+, \S+\] disjoint from "
                            r"trivial bound \[1000000\.0, 1000001\.0\]\n", err), err


# each command with cheap valid arguments, then one flag it does not read
_BOUND = ["bound", "--expr", "x1", "--domain", "x1=[0,1]"]
_COMPARE = ["compare", "--expr", "x1", "--domain", "x1=[0,1]", "--grid", "100"]
_SWEEP = ["experiment", "sweep", "--points", "2", "--grid", "100", "--out", "{tmp}"]
_RECURSION = ["experiment", "recursion", "--depth", "1", "-N", "2", "--grid", "1000",
              "--out", "{tmp}/rec.csv"]


class TestUnreadFlags:
    @pytest.mark.parametrize("argv", [
        _BOUND + ["--grid", "100"],
        _BOUND + ["--seed", "1"],
        _BOUND + ["--out", "{tmp}/bound.txt"],
        _BOUND + ["--depth", "2"],
        _COMPARE + ["--depth", "2"],
        _SWEEP + ["--expr", "x1"],
        _SWEEP + ["--domain", "x1=[0,1]"],
        _SWEEP + ["-N", "2"],
        _SWEEP + ["--depth", "2"],
        _RECURSION + ["--expr", "x1"],
    ], ids=["bound-grid", "bound-seed", "bound-out", "bound-depth", "compare-depth", "sweep-expr",
            "sweep-domain", "sweep-N", "sweep-depth", "recursion-expr"])
    def test_exits_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1", "0", "-5"])
@pytest.mark.parametrize("argv", [_COMPARE, _SWEEP, _RECURSION], ids=["compare", "sweep", "recursion"])
def test_grid_below_two_points_per_axis_exits_2(argv, grid, tmp_path, capsys):
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--grid", grid]) == 2
    assert "cannot hold 2 points" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv,flag", [(_SWEEP, "--points"), (_RECURSION, "--depth")],
                         ids=["sweep", "recursion"])
def test_points_or_depth_below_one_exits_2(argv, flag, value, tmp_path, capsys):
    assert main([a.format(tmp=tmp_path) for a in argv] + [flag, value]) == 2
    assert f"{flag[2:]} must be positive, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_package_exports_every_module_name():
    modules = (interval, model, univariate, bivariate, expr, oracle)
    assert isarith.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    for name in isarith.__all__:
        assert getattr(isarith, name) is not None
    assert isarith.ULP_MARGIN == interval.ULP_MARGIN


def test_each_command_runs_with_its_own_defaults(monkeypatch, tmp_path):
    calls = []
    real_parse_domain_spec = cli.parse_domain_spec

    def parse_domain_spec(spec, branches):
        calls.append(("parse_domain_spec", spec, branches))
        return real_parse_domain_spec(spec, branches)

    monkeypatch.setattr(cli, "parse_domain_spec", parse_domain_spec)
    monkeypatch.setattr(cli, "run_compare", lambda cfg: calls.append(("compare", cfg)) or {"x": 1})
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **kw: calls.append(("sweep", a, kw)) or [])
    monkeypatch.setattr(cli, "run_recursion", lambda **kw: calls.append(("recursion", kw)) or [])
    monkeypatch.chdir(tmp_path)

    assert main(["bound", "--expr", "x1", "--domain", "x1=[0,1]"]) == 0
    assert calls.pop() == ("parse_domain_spec", "x1=[0,1]", 16)
    assert main(["compare", "--expr", "x1", "--domain", "x1=[0,1]"]) == 0
    (name, cfg), = calls
    assert name == "compare" and (cfg.expr, cfg.domain) == ("x1", "x1=[0,1]")
    assert (cfg.branches, cfg.grid, cfg.seed, cfg.out) == (16, 10**6, 0, None)
    calls.clear()
    assert main(["experiment", "sweep"]) == 0
    assert calls.pop() == ("sweep", (".",), {"points": 40, "grid_budget": 10**6, "seed": 0})
    assert main(["experiment", "recursion"]) == 0
    assert calls.pop() == ("recursion", {"depth": 10, "branches": 20, "grid_budget": 10**6,
                                         "seed": 0, "domain_spec": RECURSION_DOMAIN})
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_a_sample_rounded_out_of_the_enclosure_exits_2(capsys):
    # x1 + 1e16 rounds to a multiple of 2: the samples are 0 and 2, while the
    # function is x1 and its enclosure [1, 1.5] is right
    argv = ["compare", "--expr", "(x1+1e16)-1e16", "--domain", "x1=[1,1.5]", "-N", "4", "--grid", "1000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "soundness violation" not in err
    assert "x=[1.0005005005005005]" in err and "interval value [0.0, 2.0]" in err


def test_experiments_record_an_inaccurate_sample_as_a_failed_cell(monkeypatch, tmp_path, capsys):
    def inaccurate(*args, **kwargs):
        raise oracle.SampleInaccurate("synthetic")

    monkeypatch.setattr(cli, "hausdorff_enclosure", inaccurate)
    monkeypatch.setattr(cli, "hausdorff_piecewise", inaccurate)
    for path in run_sweep(str(tmp_path), points=1, grid_budget=100):
        assert read_csv(path)[1][0] == {"x2max": "0.1", "dH_isa_N1": "", "dH_isa_N10": "",
                                        "dH_isa_N100": "", "dH_ia": ""}
    assert run_recursion(depth=1, branches=2, grid_budget=1000) == [[1] + [None] * 8]
    assert capsys.readouterr().err.count("synthetic") == 3 * 4 + 1


def _readme_flag_table():
    """README's "Flags per command" table: per command, each flag's names
    and the note in parentheses after them ("" where there is none)."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("| command | flags |", 1)[1].split("\n\n", 1)[0]
    commands = {}
    for line in table.splitlines()[2:]:
        _, command, flags, _ = line.split("|")
        commands[command.strip().strip("`")] = {
            tuple(names.split("/")): note for names, note in re.findall(r"`([^`]+)`(?: \(([^)]*)\))?", flags)
        }
    return commands


def _commands(parser, prefix=""):
    """Each command's parser by its words, such as "experiment sweep"."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix.strip(): parser}
    return {k: v for name, sp in subs[0].choices.items() for k, v in _commands(sp, f"{prefix}{name} ").items()}


def test_readme_flag_table_matches_the_parser(monkeypatch, tmp_path):
    # each command's flag values as the callee it hands them to receives them
    seen = {}
    monkeypatch.setattr(cli, "parse_domain_spec", lambda spec, branches: seen.update(
        domain=spec, branches=branches) or parse_domain_spec("x1=[0,1]", 1))
    monkeypatch.setattr(cli, "run_compare", lambda cfg: seen.update(vars(cfg)) or {"x": 1})
    monkeypatch.setattr(cli, "run_sweep", lambda out_dir, points, grid_budget, seed: seen.update(
        out=out_dir, points=points) or [])
    monkeypatch.setattr(cli, "run_recursion", lambda depth, branches, grid_budget, seed, domain_spec:
                        seen.update(depth=depth, branches=branches, domain=domain_spec) or [])
    monkeypatch.chdir(tmp_path)
    required_values = {("--expr",): "x1", ("--domain",): "x1=[0,1]"}

    table = _readme_flag_table()
    parsers = _commands(cli._build_parser())
    assert sorted(table) == sorted(parsers) == ["bound", "compare", "experiment recursion", "experiment sweep"]
    stated = 0
    for command, flags in table.items():
        dests = {tuple(a.option_strings): a.dest for a in parsers[command]._actions if a.dest != "help"}
        assert set(flags) == set(dests), command
        seen.clear()
        argv = command.split()
        for names, note in flags.items():
            if note == "required":
                argv += [names[0], required_values[names]]
        assert main(argv) == 0
        for names, note in flags.items():
            default = re.search(r"default:? `?([^`]*)`?$", note)
            if default:
                want = RECURSION_DOMAIN if default[1] == "the bundled map's box" else default[1]
                assert str(seen[dests[names]]) == want, (command, names)
                stated += 1
    assert stated == 7


def test_a_lattice_that_cannot_be_allocated_exits_2(monkeypatch, capsys):
    # the allocation is refused, never tried: under overcommit a real one can
    # get the process killed instead of raising
    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape)) > 10**9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse)
    argv = ["compare", "--expr", "exp(x1)*x2", "--domain", "x1=[0,1];x2=[0,2]", "-N", "4",
            "--grid", "100000000000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate an array with shape (316227, 316227, 1)\n"


def test_scipy_is_imported_only_to_build_a_kd_tree():
    # a fresh process, since this one may hold scipy already
    code = """if True:
        import sys
        import isarith
        from isarith import cli, oracle
        assert "scipy" not in sys.modules, "import isarith"
        args = ["--expr", "exp(x1)*x2", "--domain", "x1=[0,1];x2=[0,2]", "-N", "4"]
        assert cli.main(["bound", *args]) == 0
        assert "scipy" not in sys.modules, "bound"
        assert cli.main(["compare", *args, "--grid", "10000"]) == 0
        assert "scipy" not in sys.modules, "compare"
        # a scan of two outputs builds a tree
        img = oracle.sample_image(isarith.parse_vector(["x1", "x2"], 2), [isarith.Interval(0, 1)] * 2, grid=5)
        oracle.hausdorff_enclosure(img, [isarith.Interval(0, 2)] * 2, budget=100)
        assert "scipy.spatial" in sys.modules
    """
    env = {**os.environ, "PYTHONPATH": str(Path(isarith.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
