import json

import numpy as np
import pytest

from antibragg.cli import _config, build_parser, main, parse_range


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def strip_header(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


class TestParseRange:
    def test_scalar(self):
        assert parse_range("0.25") == [0.25]

    def test_inclusive_range(self):
        vals = parse_range("0.1:0.5:5")
        assert vals == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    @pytest.mark.parametrize("bad", ["1:2", "1:2:3:4", "1:2:0"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_range(bad)


class TestSpectrumCommand:
    def test_single_qubit_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "1", "--d-over-lambda", "0.25")
        assert code == 0
        rows = strip_header(out)
        assert rows[0] == "index,re,im"
        res = sorted(float(r.split(",")[1]) for r in rows[1:])
        assert res == pytest.approx([-2.0, -1.0, -1.0, 0.0], abs=1e-10)

    def test_deterministic_modulo_timestamp(self, capsys):
        a = run(capsys, "spectrum", "--n", "2", "--omega-r", "3")[1]
        b = run(capsys, "spectrum", "--n", "2", "--omega-r", "3")[1]
        assert strip_header(a) == strip_header(b)
        assert "# config:" in a and "# generated:" in a

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run(capsys, "spectrum", "--n", "1", "--out", str(path))
        assert code == 0 and out == ""
        assert "index,re,im" in path.read_text()


class TestDarkcountCommand:
    def test_half_wave_quartet(self, capsys):
        code, out, _ = run(capsys, "darkcount", "--n", "4",
                           "--d-over-lambda", "0.5", "--omega-r", "5")
        assert code == 0
        rows = strip_header(out)
        assert rows[0] == "n_qubits,phi,d_over_lambda,omega_r,count"
        assert rows[1].split(",")[-1] == "14"


class TestSweepCommand:
    def test_grid_shape_and_columns(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2",
                           "--d-over-lambda", "0.1:0.5:3",
                           "--omega-r", "1:2:2",
                           "--observable", "second_slowest_rate")
        assert code == 0
        rows = strip_header(out)
        assert rows[0] == ("phi,d_over_lambda,omega_r,n_qubits,observable,"
                           "value,zero_multiplicity,status")
        assert len(rows) == 1 + 6  # 3 periods x 2 drives
        # row order: period-major, drive-minor
        d_col = [float(r.split(",")[1]) for r in rows[1:]]
        assert d_col == pytest.approx([0.1, 0.1, 0.3, 0.3, 0.5, 0.5])
        assert all(r.split(",")[-1] == "ok" for r in rows[1:])

    def test_dark_kernel_row(self, capsys):
        _, out, _ = run(capsys, "sweep", "--n", "2",
                        "--d-over-lambda", "0.5", "--omega-r", "10",
                        "--observable", "second_slowest_rate")
        row = strip_header(out)[1].split(",")
        assert float(row[5]) == 0.0
        assert row[6] == "2"


class TestPtCommand:
    def test_trimer_report(self, capsys):
        code, out, _ = run(capsys, "pt", "--n", "3",
                           "--d-over-lambda", "0.25", "--omega-r", "50")
        assert code == 0
        d = json.loads(out)
        assert d["zero_dim"] == 20
        assert d["order1_nullspace_dim"] == 2
        assert abs(d["xi_pt"] - 59.0 / 9.0) / (59.0 / 9.0) < 0.05
        assert d["slope_fit"] == pytest.approx(-2.0, abs=0.15)

    def test_generic_point_skips_fit(self, capsys):
        code, out, _ = run(capsys, "pt", "--n", "2",
                           "--d-over-lambda", "0.25", "--omega-r", "5")
        assert code == 0
        d = json.loads(out)
        assert d["zero_dim"] == 6
        assert d["xi_pt"] is None


class TestEvolveCommand:
    def test_correlator_columns(self, capsys):
        code, out, _ = run(capsys, "evolve", "--n", "2", "--omega-r", "1",
                           "--t-max", "2", "--samples", "10")
        assert code == 0
        rows = strip_header(out)
        cols = rows[0].split(",")
        assert cols[0] == "t"
        assert "re_c_1_2" in cols and "im_c_2_1" in cols
        assert cols[-2:] == ["trace_drift", "purity"]
        assert len(rows) == 1 + 10
        first = dict(zip(cols, map(float, rows[1].split(","))))
        # starts fully excited
        assert first["re_c_1_1"] == pytest.approx(1.0)
        assert first["purity"] == pytest.approx(1.0)


class TestErrors:
    def test_error_reported_as_json(self, capsys):
        code, out, err = run(capsys, "darkcount", "--n", "9")
        assert code == 1 and out == ""
        d = json.loads(err)
        assert d["error"] == "ResourceLimitError"

    def test_bad_range_syntax(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "2", "--omega-r", "1:2")
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"


class TestFlags:
    COMMON = {"command", "n", "d_over_lambda", "omega_r", "gamma", "out", "drive_from_right"}
    OWN = {
        "spectrum": set(),
        "darkcount": {"zero_tol"},
        "sweep": {"observable", "jobs", "subradiant_threshold"},
        "pt": set(),
        "evolve": {"t_max", "samples", "tol_integrator"},
    }

    @pytest.mark.parametrize("command", sorted(OWN))
    def test_config_echoes_only_own_flags(self, command):
        args = build_parser().parse_args([command, "--n", "2"])
        assert set(_config(args)) == self.COMMON | self.OWN[command]

    def test_header_has_only_own_flags(self, capsys):
        _, out, _ = run(capsys, "darkcount", "--n", "1")
        config = json.loads(out.splitlines()[0].removeprefix("# config: "))
        assert set(config) == self.COMMON | self.OWN["darkcount"]

    def test_flag_of_another_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["pt", "--n", "2", "--jobs", "2"])
        assert "--jobs" in capsys.readouterr().err
