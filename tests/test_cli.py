"""Command-line surface: argument handling, CSV shape, determinism."""

import csv
import math
from pathlib import Path

import pytest

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
