"""Command-line behavior: parsing, record emission, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relplasma import cli
from relplasma.checks import CheckResult
from relplasma.core import E2_DEFAULT

PI2 = math.pi**2

SWEEP_HEADER = ("t,zeta,omega,qmag,aStar,bStar,cStar,eps,muInv,epsPrime,tau,"
                "chiE,chiM,regime,errEst,flags")


def run_sweep(tmp_path, extra, name="out.csv"):
    out = tmp_path / name
    rc = cli.main(["sweep", "--out", str(out)] + extra)
    return rc, out


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]], lines


class TestAxisParsing:
    def test_scalar(self):
        assert cli.parse_axis("0.25") == (0.25,)

    def test_comma_list(self):
        assert cli.parse_axis("1,2.5,3") == (1.0, 2.5, 3.0)

    def test_range_is_inclusive(self):
        assert cli.parse_axis("0:1:5") == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_negative_values(self):
        assert cli.parse_axis("-2:-1:3") == (-2.0, -1.5, -1.0)

    def test_malformed(self):
        for bad in ("0:1", "0:1:1", "0:1:x", "abc", ""):
            with pytest.raises(ValueError):
                cli.parse_axis(bad)


class TestToleranceResolution:
    def test_default(self):
        assert cli.resolve_tolerance(None, None, {}) == 1e-9

    def test_env_overrides_default(self):
        assert cli.resolve_tolerance(None, None, {"RELPLASMA_TOL": "1e-7"}) == 1e-7

    def test_config_overrides_env(self):
        env = {"RELPLASMA_TOL": "1e-7"}
        assert cli.resolve_tolerance(None, 1e-6, env) == 1e-6

    def test_cli_overrides_all(self):
        env = {"RELPLASMA_TOL": "1e-7"}
        assert cli.resolve_tolerance(1e-5, 1e-6, env) == 1e-5

    def test_invalid_env(self):
        with pytest.raises(ValueError):
            cli.resolve_tolerance(None, None, {"RELPLASMA_TOL": "tiny"})
        with pytest.raises(ValueError):
            cli.resolve_tolerance(None, None, {"RELPLASMA_TOL": "-1e-9"})


class TestSweep:
    def test_stationary_row(self, tmp_path):
        rc, out = run_sweep(tmp_path, ["--t", "0", "--zeta", "2",
                                       "--omega", "0", "--q", "0.002"])
        assert rc == 0
        rows, lines = read_rows(out)
        assert lines[0] == SWEEP_HEADER
        assert len(rows) == 1
        row = rows[0]
        assert row["regime"] == "Stationary"
        assert row["flags"] == ""
        closed = (E2_DEFAULT / (6.0 * PI2)) * math.acosh(2.0)
        assert float(row["chiM"]) == pytest.approx(closed, rel=1e-10)
        assert float(row["eps"]) < 0.0 or float(row["eps"]) > 0.0

    def test_seventeen_digit_roundtrip(self, tmp_path):
        rc, out = run_sweep(tmp_path, ["--t", "0", "--zeta", "2",
                                       "--omega", "0.04", "--q", "0.0002"])
        assert rc == 0
        rows, _ = read_rows(out)
        for key in ("aStar", "bStar", "cStar", "eps", "muInv", "epsPrime",
                    "tau", "chiE", "chiM", "errEst"):
            text = rows[0][key]
            assert f"{float(text):.17g}" == text

    def test_vacuum_point(self, tmp_path):
        rc, out = run_sweep(tmp_path, ["--t", "0", "--zeta", "0.5",
                                       "--omega", "0.3", "--q", "0.1"])
        assert rc == 0
        rows, _ = read_rows(out)
        assert rows[0]["regime"] == "Vacuum"
        assert float(rows[0]["chiE"]) == 0.0
        assert float(rows[0]["chiM"]) == 0.0

    def test_light_cone_row_flagged_and_empty(self, tmp_path):
        rc, out = run_sweep(tmp_path, ["--t", "0", "--zeta", "2",
                                       "--omega", "0.1", "--q", "0.1"])
        assert rc == 0
        rows, _ = read_rows(out)
        row = rows[0]
        assert row["flags"] == "LightConeSkipped"
        assert float(row["omega"]) == 0.1
        for key in ("aStar", "bStar", "cStar", "eps", "muInv", "epsPrime",
                    "tau", "chiE", "chiM", "regime", "errEst"):
            assert row[key] == ""

    def test_grid_order_q_fastest(self, tmp_path):
        rc, out = run_sweep(tmp_path, ["--t", "0", "--zeta", "2",
                                       "--omega", "0.02,0.04",
                                       "--q", "0.0002,0.0004"])
        assert rc == 0
        rows, _ = read_rows(out)
        got = [(float(r["omega"]), float(r["qmag"])) for r in rows]
        assert got == [(0.02, 0.0002), (0.02, 0.0004),
                       (0.04, 0.0002), (0.04, 0.0004)]

    def test_json_matches_csv(self, tmp_path):
        args = ["--t", "0", "--zeta", "2", "--omega", "0", "--q", "0.002"]
        rc_csv, out_csv = run_sweep(tmp_path, args)
        out_json = tmp_path / "out.json"
        rc_json = cli.main(["sweep", "--format", "json",
                            "--out", str(out_json)] + args)
        assert rc_csv == 0 and rc_json == 0
        rows, _ = read_rows(out_csv)
        data = json.loads(out_json.read_text())
        assert isinstance(data, list) and len(data) == 1
        assert data[0]["regime"] == "Stationary"
        assert data[0]["eps"] == float(rows[0]["eps"])
        assert data[0]["flags"] == ""

    def test_json_nulls_on_skipped_row(self, tmp_path):
        out = tmp_path / "cone.json"
        rc = cli.main(["sweep", "--t", "0", "--zeta", "2", "--omega", "0.1",
                       "--q", "0.1", "--format", "json", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data[0]["eps"] is None
        assert data[0]["flags"] == "LightConeSkipped"

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["--t", "0", "--zeta", "2", "--omega", "0,0.04", "--q", "0.0002"]
        _, first = run_sweep(tmp_path, args, name="a.csv")
        _, second = run_sweep(tmp_path, args, name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_regime_override(self, tmp_path):
        rc, out = run_sweep(tmp_path, ["--t", "0", "--zeta", "2",
                                       "--omega", "0.04", "--q", "0.0002",
                                       "--regime", "longwave"])
        assert rc == 0
        rows, _ = read_rows(out)
        assert rows[0]["regime"] == "LongWavelength"

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": "0", "zeta": "2", "omega": "0",
                                   "q": "0.002"}))
        rc, out = run_sweep(tmp_path, ["--config", str(cfg), "--q", "0.004"])
        assert rc == 0
        rows, _ = read_rows(out)
        assert float(rows[0]["qmag"]) == 0.004
        assert float(rows[0]["zeta"]) == 2.0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": "2", "qmax": "1"}))
        rc, _ = run_sweep(tmp_path, ["--config", str(cfg)])
        assert rc == 2

    def test_pair_threshold_rejected_up_front(self, tmp_path):
        rc, _ = run_sweep(tmp_path, ["--t", "0", "--zeta", "2",
                                     "--omega", "4.2", "--q", "0.1"])
        assert rc == 2

    def test_zero_omega_and_q_rejected_up_front(self, tmp_path):
        rc, _ = run_sweep(tmp_path, ["--t", "0", "--zeta", "2",
                                     "--omega", "0,0.1", "--q", "0,0.05"])
        assert rc == 2

    def test_negative_axis_rejected(self, tmp_path):
        rc, _ = run_sweep(tmp_path, ["--t", "-1", "--zeta", "2",
                                     "--omega", "0", "--q", "0.002"])
        assert rc == 2

    def test_malformed_axis_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--q", "abc"])
        assert err.value.code == 2

    def test_bad_regime_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--regime", "bogus"])
        assert err.value.code == 2

    def test_nonconverged_row_exits_one(self, tmp_path):
        rc, out = run_sweep(tmp_path, ["--t", "0", "--zeta", "2",
                                       "--omega", "0.2", "--q", "1.2",
                                       "--tol", "1e-18"])
        assert rc == 1
        rows, _ = read_rows(out)
        assert rows[0]["flags"] == "NonConverged"
        assert rows[0]["eps"] == ""


class TestLimits:
    def test_degenerate_report(self, capsys):
        rc = cli.main(["limits", "--t", "0", "--zeta", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("screening-mass"))
        parts = line.split()
        assert float(parts[3]) < 1e-8
        assert parts[-1] == "OK"
        assert "FAIL" not in text

    def test_near_threshold_report(self, capsys):
        rc = cli.main(["limits", "--t", "0", "--zeta", "1.00005"])
        assert rc == 0
        text = capsys.readouterr().out
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("pauli-landau-sum"))
        assert float(line.split()[3]) < 5e-3
        assert "FAIL" not in text

    def test_empty_sea_all_zero(self, capsys):
        rc = cli.main(["limits", "--t", "0", "--zeta", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        for ln in text.splitlines():
            if ln.startswith(("screening-mass", "static-cross",
                              "pauli-landau-sum", "collective-scale",
                              "collective-root")):
                parts = ln.split()
                assert float(parts[1]) == 0.0
                assert float(parts[2]) == 0.0

    def test_vector_state_rejected(self):
        rc = cli.main(["limits", "--t", "0", "--zeta", "1,2"])
        assert rc == 2


class TestDispersion:
    def test_band_scan_json(self, tmp_path):
        out = tmp_path / "band.json"
        rc = cli.main(["dispersion", "--t", "0", "--zeta", "2",
                       "--omega", "0.05:0.12:15", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        lo, hi = data["negativeBand"]
        # the band reaches below the scan window, so its lower edge clamps
        assert lo == pytest.approx(0.05, abs=1e-12)
        assert lo < hi < 0.12
        assert hi == pytest.approx(8.9658684e-2, rel=1e-4)
        assert len(data["records"]) == 15
        for rec in data["records"]:
            assert set(rec) == {"omega", "eps", "muInv", "nIndex", "inBand"}
            if rec["inBand"]:
                assert rec["eps"] < 0.0 and rec["muInv"] < 0.0
            ratio = rec["eps"] / rec["muInv"]
            if ratio > 0.0:
                assert rec["nIndex"] == pytest.approx(math.sqrt(ratio),
                                                      rel=1e-12)
            else:
                assert rec["nIndex"] is None

    def test_vacuum_band_is_null(self, tmp_path):
        out = tmp_path / "vac.json"
        rc = cli.main(["dispersion", "--t", "0", "--zeta", "0.5",
                       "--omega", "0.05:0.12:5", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["negativeBand"] is None

    def test_csv_records(self, tmp_path):
        out = tmp_path / "band.csv"
        rc = cli.main(["dispersion", "--t", "0", "--zeta", "2",
                       "--omega", "0.05:0.12:9", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,eps,muInv,nIndex,inBand"
        assert len(lines) == 10

    def test_selfconsistent_roots_column(self, tmp_path):
        out = tmp_path / "sc.json"
        rc = cli.main(["dispersion", "--t", "0", "--zeta", "2",
                       "--omega", "0.055:0.065:2", "--mode", "selfconsistent",
                       "--q-grid", "24", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        for rec in data["records"]:
            assert "qroots" in rec
            assert isinstance(rec["qroots"], list)

    def test_single_omega_rejected(self, tmp_path):
        rc = cli.main(["dispersion", "--t", "0", "--zeta", "2",
                       "--omega", "0.1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestCheckReporting:
    def test_all_pass_exits_zero(self, capsys):
        ok = CheckResult("alpha", True, 1.0, 1.0, 0.1, "fine")
        assert cli.report_checks([ok]) == 0
        text = capsys.readouterr().out
        assert "PASS alpha" in text
        assert "1/1" in text

    def test_any_fail_exits_one(self, capsys):
        ok = CheckResult("alpha", True, 1.0, 1.0, 0.1)
        bad = CheckResult("beta", False, 2.0, 1.0, 0.1)
        assert cli.report_checks([ok, bad]) == 1
        text = capsys.readouterr().out
        assert "FAIL beta" in text
        assert "1/2" in text


def test_cli_import_loads_no_scipy():
    # only the two quadrature oracles (lindhard_chi_e and the spectral vacuum
    # check) use scipy, and they import it when called
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, relplasma.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
