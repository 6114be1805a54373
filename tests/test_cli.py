import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wireqed import OMEGA_A, SpectralPoint, fit_plasmon_lorentzian
from wireqed import cli, green_wire, validate
from wireqed.cli import main
from wireqed.config import RunConfig, SCHEMA_TAG, config_from_dict, load_config
from wireqed.emitters import PairInteraction
from wireqed.errors import ConfigError, ConvergenceError
from wireqed.green_wire import SpectralEvaluator, _k_window

from conftest import SRC, subprocess_env

DEFAULT_CONFIG = SRC.parent / "configs" / "default.json"

# a geometry that converges with a short azimuthal ladder, for fast CLI runs
FAST_CONFIG = {
    "schema": SCHEMA_TAG,
    "radius": 0.01,
    "rho_1": 0.03,
    "rho_2": 0.03,
    "sweep": {"z_min": 0.5, "z_max": 1.5, "n_points": 3, "log_spacing": False},
    "tol_wire": 1e-4,
}


_SWEEP = FAST_CONFIG["sweep"]
NAN, INF = float("nan"), float("inf")
# each exits 2 with "config error" and the reason before any spectrum is
# computed: id -> (overrides, a fragment of the reason)
INVALID_CONFIGS = {
    "rho_2_off_axis_line": ({"rho_2": 0.02}, "one axial line"),
    "dipole_not_unit": ({"dipole_1": [1.0, 1.0, 0.0]}, "unit"),
    "n_points_not_integer": ({"sweep": {"z_min": 0.5, "z_max": 1.5, "n_points": 2.5}},
                             "n_points"),
    "eps_inf_nan": ({"eps_inf": NAN}, "eps_inf"),
    "eps_inf_inf": ({"eps_inf": INF}, "eps_inf"),
    "omega_p_nan": ({"omega_p_over_omega_a": NAN}, "omega_p"),
    "omega_p_inf": ({"omega_p_over_omega_a": INF}, "omega_p"),
    "gamma_p_nan": ({"gamma_p_over_omega_p": NAN}, "gamma_p"),
    "rho_nan": ({"rho_1": NAN, "rho_2": NAN}, "radial coordinates"),
    "rho_inf": ({"rho_1": INF, "rho_2": INF}, "radial coordinates"),
    "radius_inf": ({"radius": INF}, "radius"),
    "dipole_nan": ({"dipole_1": [NAN, 0.0, 0.0]}, "unit"),
    "radius_not_a_number": ({"radius": "abc"}, "radius must be a number"),
    "radius_bool": ({"radius": True}, "radius must be a number"),
    "dipole_not_a_list": ({"dipole_1": "xyz"}, "dipole_1"),
    # not 5: without the check, open(5, "w") would write to this process's fd 5
    "output_path_not_a_string": ({"output_path": ["sweep.csv"]}, "output_path"),
    "z_max_inf": ({"sweep": {**_SWEEP, "z_max": INF}}, "z_max"),
    "log_spacing_not_bool": ({"sweep": {**_SWEEP, "log_spacing": "no"}}, "log_spacing"),
    "gamma0_abs_nan": ({"gamma0_abs": NAN}, "gamma0_abs"),
    "gamma0_abs_negative": ({"gamma0_abs": -1.0}, "gamma0_abs"),
}


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "wireqed.cli"] + args,
                          capture_output=True, text=True, env=subprocess_env())
    return proc


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = dict(FAST_CONFIG)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_default_config_file_lists_every_key(self):
        # README points to configs/default.json for every key: a field added
        # to RunConfig must land there too, at its default
        assert DEFAULT_CONFIG.read_text() == RunConfig().to_json() + "\n"

    def test_round_trip(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(RunConfig().to_json())
        cfg = load_config(p)
        assert cfg.radius == 0.01
        assert cfg.sweep.n_points == 100

    def test_schema_tag_required(self):
        with pytest.raises(ConfigError):
            config_from_dict({"radius": 0.01})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schema": SCHEMA_TAG, "radiuss": 0.01})

    def test_degenerate_sweep_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schema": SCHEMA_TAG,
                              "sweep": {"z_min": 1.0, "z_max": 1.0, "n_points": 2}})

    def test_tolerance_window(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schema": SCHEMA_TAG, "tol_wire": 1e-2})

    def test_tol_model_is_accepted_and_ignored(self):
        # wireqed-config/1 files may set it
        base = {"schema": SCHEMA_TAG, "radius": 0.02, "rho_1": 0.03, "rho_2": 0.03}
        assert config_from_dict({**base, "tol_model": 1e-5}) == config_from_dict(base)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"sweep": {"z_min": 1.0, "z_max": 1.0,
                                                 "n_points": 2}})
        proc = run_cli(["sweep", "--config", path])
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("overrides, reason", list(INVALID_CONFIGS.values()),
                             ids=list(INVALID_CONFIGS))
    def test_invalid_config_exit_2(self, tmp_path, capsys, overrides, reason):
        path = write_config(tmp_path, overrides)
        assert main(["sweep", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and reason in err

    @pytest.mark.parametrize("dz", ["0", "-0.5", "nan", "inf"])
    def test_point_nonpositive_dz_exit_2(self, dz):
        proc = run_cli(["point", f"--dz={dz}"])
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("command", [["sweep"], ["point", "--dz", "1.0"]])
    def test_convergence_failure_exit_3_with_diagnostics(self, command, monkeypatch,
                                                         capsys):
        def failing(*args, **kwargs):
            raise ConvergenceError("kz quadrature did not converge", {"nmax": 40})

        monkeypatch.setattr(cli, "PairInteraction", failing)
        assert main(command) == 3
        err = capsys.readouterr().err
        assert "convergence failure" in err and "diagnostics: nmax = 40" in err

    @pytest.mark.parametrize("order", [0, 50, 2.5, True, "4"])
    def test_bad_azimuthal_order_exit_2(self, tmp_path, capsys, order):
        path = write_config(tmp_path, {"azimuthal_order": order})
        assert main(["point", "--config", path, "--dz", "1.0"]) == 2
        assert "azimuthal_order" in capsys.readouterr().err

    def test_unconverged_point_exit_3(self, tmp_path, capsys):
        # the azimuthal tail at order 3 takes the resonant error over its
        # bound on this geometry
        path = write_config(tmp_path, {"azimuthal_order": 3})
        out = tmp_path / "p.json"
        assert main(["point", "--config", path, "--dz", "1.0", "--out", str(out)]) == 3
        assert "unconverged point: dz=1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, rows", [(["sweep"], 3), (["point", "--dz", "1.0"], 1)],
                             ids=["sweep", "point"])
    def test_unconverged_rows_name_their_failed_checks(self, tmp_path, capsys, command,
                                                       rows):
        # at order 3 the real-axis table's azimuthal tail alone takes the
        # resonant error over its bound on this geometry: one stderr line
        # names that check with its value and bound
        path = write_config(tmp_path, {"azimuthal_order": 3})
        out = tmp_path / "out"
        assert main(command + ["--config", path, "--out", str(out)]) == 3
        cfg = load_config(path)
        engine = PairInteraction(cfg.geometry(), cfg.pair(1.0), tol=cfg.tol_wire, nmax=3)
        tab = engine.table_res
        failed = engine.at(1.0).diagnostics["failed_checks"]
        assert list(failed) == ["resonant_tensor_err"]
        err_, bound = failed["resonant_tensor_err"]
        assert err_ == 2.0 * (tab.panel_err + tab.tail_bound + tab.azimuthal_err)
        assert 2.0 * (tab.panel_err + tab.tail_bound) <= bound < 2.0 * tab.azimuthal_err
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (f"failed checks: resonant_tensor_err {err_:.3g} > {bound:.3g} "
                           f"({rows} of {rows} rows)")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--omega-over-omega-a", "0"],
                                      ["--omega-over-omega-a", "-1"],
                                      ["--omega-over-omega-a", "inf"],
                                      ["--n-points", "1"], ["--n-points", "0"]])
    def test_dispersion_bad_arguments_exit_2(self, monkeypatch, capsys, argv):
        def unreachable(*args, **kwargs):
            raise AssertionError("an evaluator was built")

        monkeypatch.setattr(cli, "settle_azimuthal_order", unreachable)
        monkeypatch.setattr(cli, "SpectralEvaluator", unreachable)
        assert main(["dispersion"] + argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"schema": "\xff"}')
        assert main(["sweep", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, stage", [
        (["dispersion", "--config", str(DEFAULT_CONFIG)], "settle_azimuthal_order"),
        (["point", "--dz", "1.0"], "PairInteraction"),
    ], ids=["dispersion", "point"])
    @pytest.mark.parametrize("out, reason", [("no/such/x.json", "does not exist"),
                                             (".", "is a directory")],
                             ids=["missing_directory", "directory"])
    def test_unwritable_output_exit_2(self, tmp_path, monkeypatch, capsys, command, stage,
                                      out, reason):
        def unreachable(*args, **kwargs):
            raise AssertionError("the run computed before checking --out")

        monkeypatch.setattr(cli, stage, unreachable)
        assert main(command + ["--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and reason in err

    def test_validate_passes(self):
        proc = run_cli(["validate"])
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_validate_runs_the_fit_round_trip(self, capsys):
        # fit_two_lorentzian recovers (A, gamma, kc) = (3, 0.2, 9.42) from a
        # guess off by 30%, 100% and 20%
        (suite,) = validate.fit_suite()
        assert suite.passed and suite.residual <= 1e-6 and suite.tolerance == 1e-6
        assert main(["validate"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == suite.line()

    @pytest.mark.parametrize("command", [
        ["validate", "--out", "v.txt"],
        ["validate", "--tol", "1e-8"],
        ["validate", "--config", "c.json"],
        ["point", "--dz", "1.5", "--format", "csv"],
        ["dispersion", "--synthetic", "3.0,0.2,9.42"],
    ], ids=["validate_out", "validate_tol", "validate_config", "point_format",
            "dispersion_synthetic"])
    def test_option_without_effect_exit_2(self, tmp_path, command):
        # validate prints its suites at their own inputs and tolerances,
        # point writes JSON, and dispersion always samples the wire: an
        # option that would change none of them is rejected before anything
        # runs, and no file is written
        proc = subprocess.run([sys.executable, "-m", "wireqed.cli", *command],
                              capture_output=True, text=True, env=subprocess_env(),
                              cwd=tmp_path, timeout=60)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
        assert proc.stdout == "" and list(tmp_path.iterdir()) == []

    def test_injected_sign_flip_fails_validation(self, monkeypatch, capsys):
        rotated_shift = validate.rotated_shift

        def flipped(model, omega_a):
            # the resonant term pi w^2 Re G(w) with its sign flipped
            res = math.pi * omega_a**2 * complex(model(omega_a)).real
            return rotated_shift(model, omega_a) - 2.0 * res

        monkeypatch.setattr(validate, "rotated_shift", flipped)
        assert main(["validate"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_fit_failure_exit_3(self, tmp_path):
        # transparent wire: no bound plasmon anywhere
        path = write_config(tmp_path, {"omega_p_over_omega_a": 0.01,
                                       "radius": 1e-5, "rho_1": 0.05, "rho_2": 0.05})
        proc = run_cli(["dispersion", "--config", path])
        assert proc.returncode == 3
        assert "fit failure" in proc.stderr

    def test_lossless_metal_dispersion_is_a_fit_failure(self, tmp_path):
        # gamma_p = 0 leaves the plasmon peak a width guess of about 1e-15,
        # which the fit rejects instead of crashing
        cfg = json.loads(DEFAULT_CONFIG.read_text())
        cfg["gamma_p_over_omega_p"] = 0.0
        path = tmp_path / "lossless.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli(["dispersion", "--config", str(path), "--out", str(tmp_path / "d.csv")])
        assert proc.returncode == 3
        assert "fit failure:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", [["sweep"], ["point", "--dz", "1.5"]],
                             ids=["sweep", "point"])
    def test_lossless_metal_pole_on_the_axis_exits_3(self, tmp_path, command):
        # gamma_p = 0 puts the guided plasmon pole on the real kz axis; the
        # real-axis table used to split toward it until a node hit it, with
        # numpy warnings and exit 4
        cfg = json.loads(DEFAULT_CONFIG.read_text())
        cfg["gamma_p_over_omega_p"] = 0.0
        path = tmp_path / "lossless.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli(command + ["--config", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 3
        assert "plasmon pole on the real kz axis" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


class TestSweep:
    def test_plasmon_peak_beyond_the_table_leaves_no_fit(self, tmp_path):
        # near eps = -1 the TM0 pole of this geometry lies at kz = 5,490, where
        # its field has died out before the emitters, so the real-axis table
        # does not seed it and ends at kz = 303; the fit's window leaves the
        # table, and the rows carry no approximation (an exit 4 before, from
        # the fit's own evaluator past the overflow guard)
        cfg = json.loads(DEFAULT_CONFIG.read_text())
        cfg.update(omega_p_over_omega_a=1.42, rho_1=0.05, rho_2=0.05)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert not any(line.startswith("# fit_") for line in lines)
        rows = [line.split(",") for line in lines if line[0].isdigit()]
        assert len(rows) == 100 and all(r[6:] == ["nan", "nan", "true"] for r in rows)

    def test_every_evaluator_call_is_the_pair_build(self, tmp_path, monkeypatch):
        # the plasmon fit reads the pair's real-axis table, so a default sweep
        # calls the evaluator only while PairInteraction builds its tables
        calls, inside = [], []
        call, init = SpectralEvaluator.__call__, PairInteraction.__init__

        def counted(self, *args, **kwargs):
            calls.append(bool(inside))
            return call(self, *args, **kwargs)

        def build(self, *args, **kwargs):
            inside.append(True)
            try:
                init(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(SpectralEvaluator, "__call__", counted)
        monkeypatch.setattr(PairInteraction, "__init__", build)
        assert main(["sweep", "--config", str(DEFAULT_CONFIG), "--threads", "1",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert calls and all(calls)

    def test_csv_deterministic_across_worker_counts(self, tmp_path):
        path = write_config(tmp_path)
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        p1 = run_cli(["sweep", "--config", path, "--out", str(out1), "--threads", "1"])
        p2 = run_cli(["sweep", "--config", path, "--out", str(out2), "--threads", "2"])
        assert p1.returncode == 0 and p2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

        header = [l for l in out1.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header.split(",") == [
            "dz", "gamma11_over_gamma0", "gamma12_over_gamma11",
            "shift12_total_over_gamma11", "shift12_resonant_over_gamma11",
            "shift12_integral_over_gamma11", "gamma12_appr_over_gamma11_appr",
            "shift12_appr_over_gamma11_appr", "converged"]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_a_config_error(self, tmp_path, capsys, threads):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", path, "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_capped_at_cpu_count(self, tmp_path, monkeypatch):
        # a stand-in pool that records its size and maps serially, so no
        # worker process is started for the huge count asked for
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, xs):
                return map(fn, xs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["sweep", "--config", path, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["sweep", "--config", path, "--out", str(out2),
                     "--threads", str(10**6)]) == 0
        assert sizes == [3]
        assert out1.read_bytes() == out2.read_bytes()

    def test_tolerance_refinement_regression(self, tmp_path):
        # rows must be stable against a tightened quadrature budget
        path = write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(["sweep", "--config", path, "--out", str(out1)]).returncode == 0
        assert run_cli(["sweep", "--config", path, "--out", str(out2),
                        "--tol", "5e-5"]).returncode == 0

        def rows(path):
            lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            return np.array([[float(x) for x in l.split(",")[:-1]]
                             for l in lines[1:]])

        r1, r2 = rows(out1), rows(out2)
        scale = np.maximum(np.abs(r1).max(axis=0), 1.0)
        assert np.max(np.abs(r1 - r2) / scale) < 1e-4

    def test_sweep_from_a_near_coincident_separation(self, tmp_path):
        # the vacuum rate has no coincidence guard: a sweep may start below
        # the closed-form tensor's 1e-9
        path = write_config(tmp_path, {"sweep": {"z_min": 1e-10, "z_max": 1.5, "n_points": 3,
                                                 "log_spacing": True}})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if l[0].isdigit()]
        assert float(rows[0][0]) == 1e-10
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-8)

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, {"output_format": "json"})
        out = tmp_path / "s.json"
        assert run_cli(["sweep", "--config", path, "--out", str(out)]).returncode == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["schema"] == "wireqed-sweep/1"
        assert len(payload["rows"]) == 3
        assert all(r["converged"] for r in payload["rows"])


def default_config_with(tmp_path, **overrides):
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPlasmonRoot:
    @pytest.mark.parametrize("command", [["sweep", "--threads", "1"], ["point", "--dz", "1.5"],
                                         ["dispersion"]], ids=["sweep", "point", "dispersion"])
    def test_one_tm0_search_per_run(self, tmp_path, monkeypatch, command):
        # the real-axis kz window searches the TM0 root, and the plasmon fit
        # reads it from there (it searched again before)
        calls = []
        search = green_wire.plasmon_wavenumber

        def counted(*args):
            calls.append(args)
            return search(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "wireqed" and hasattr(module, "plasmon_wavenumber"):
                monkeypatch.setattr(module, "plasmon_wavenumber", counted)
        assert main(command + ["--config", str(DEFAULT_CONFIG),
                               "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command, code", [(["sweep"], 0), (["point", "--dz", "1.5"], 0),
                                               (["dispersion"], 3)],
                             ids=["sweep", "point", "dispersion"])
    def test_overflowing_root_search_reads_as_no_root(self, tmp_path, capsys, command, code):
        # the window's TM0 search meets the overflow guard here (|z| = 2.1e3)
        # and takes it as no root, so the fit scans the spectrum; the fit's
        # own search met it too and every command exited 4
        path = default_config_with(tmp_path, omega_p_over_omega_a=1.4142,
                                   gamma_p_over_omega_p=5e-4)
        assert main(command + ["--config", path, "--out", str(tmp_path / "out")]) == code
        if code:
            assert "fit failure" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["4.2", "4.5"])
    def test_dispersion_fit_out_of_range_is_a_fit_failure(self, tmp_path, capsys, omega):
        # at 4.2 the fit's log width ran to 2,060 and math.exp raised
        # OverflowError (exit 1); at 4.5 its center lay far past its window
        # and the spectrum sampled out to 4 times it met the overflow guard
        assert main(["dispersion", "--config", str(DEFAULT_CONFIG), "--omega-over-omega-a",
                     omega, "--out", str(tmp_path / "d.csv")]) == 3
        err = capsys.readouterr().err
        assert "fit failure" in err and "Traceback" not in err
        assert not (tmp_path / "d.csv").exists()

    def test_fit_center_outside_its_window_leaves_no_fit(self, tmp_path):
        # the fit sampled kz up to 26 here and reported a center at 1.05e8,
        # with amplitude 4e15; point's approximation read gamma11 2.5e18
        path = default_config_with(tmp_path, omega_p_over_omega_a=1.4142)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert not any(line.startswith("# fit_") for line in lines)
        rows = [line.split(",") for line in lines if line[0].isdigit()]
        assert len(rows) == 100 and all(r[6:8] == ["nan", "nan"] for r in rows)
        out = tmp_path / "p.json"
        assert main(["point", "--config", path, "--dz", "1.5", "--out", str(out)]) == 0
        assert "approximation" not in json.loads(out.read_text())

    @pytest.mark.parametrize("wp, fit_lines", [(6.0, True), (1.5, False)],
                             ids=["default", "omega_p_1.5"])
    def test_fit_above_the_residual_bound_leaves_no_fit(self, tmp_path, capsys, wp, fit_lines):
        # the default fit reads residual 0.0068 and is reported; with
        # omega_p 1.5 omega_A it reads 0.633, above FIT_MAX_RESIDUAL, and
        # sweep printed its approximations from it.  Now sweep and point
        # take the no-fit path and dispersion exits 3
        path = default_config_with(tmp_path, omega_p_over_omega_a=wp)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert any(line.startswith("# fit_residual") for line in lines) is fit_lines
        rows = [line.split(",") for line in lines if line[0].isdigit()]
        assert len(rows) == 100 and all((r[6:8] == ["nan", "nan"]) is not fit_lines
                                        for r in rows)
        out = tmp_path / "p.json"
        assert main(["point", "--config", path, "--dz", "1.5", "--out", str(out)]) == 0
        assert ("approximation" in json.loads(out.read_text())) is fit_lines
        code = main(["dispersion", "--config", path, "--out", str(tmp_path / "d.csv")])
        assert code == (0 if fit_lines else 3)
        if not fit_lines:
            assert "fit failure: fit residual 0.633" in capsys.readouterr().err


class TestDispersion:
    def test_wire_dispersion_reports_bound_mode(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "d.csv"
        proc = run_cli(["dispersion", "--config", path, "--out", str(out),
                        "--n-points", "60"])
        assert proc.returncode == 0
        text = out.read_text()
        meta = {l.split("=")[0].strip("# "): float(l.split("=")[1])
                for l in text.splitlines() if l.startswith("#")}
        assert meta["fit_center_kz_pl"] > 2 * np.pi  # kz_pl above the light line

    def test_explicit_azimuthal_order_is_fixed(self, tmp_path):
        # order 4 fails the tail test here, yet both the fit and the
        # spectrum must use it as given, with no order search
        path = write_config(tmp_path, {"azimuthal_order": 4})
        out = tmp_path / "d.csv"
        assert main(["dispersion", "--config", path, "--out", str(out),
                     "--n-points", "40"]) == 0
        lines = out.read_text().splitlines()
        meta = {l.split("=")[0].strip("# "): float(l.split("=")[1])
                for l in lines if l.startswith("#")}
        kz, vals = np.array([[float(x) for x in l.split(",")]
                             for l in lines if l[0].isdigit()]).T
        cfg = load_config(path)
        geom = cfg.geometry()
        ev = SpectralEvaluator(geom, SpectralPoint.real_axis(OMEGA_A), cfg.rho_1,
                               cfg.rho_1, 0.0, nmax=4)
        want = ev(kz)[:, 0, 0].imag
        assert np.abs(vals - want).max() <= 1e-12 * np.abs(want).max()
        _, pole = _k_window(geom, SpectralPoint.real_axis(OMEGA_A), cfg.rho_1, cfg.rho_1)
        fit = fit_plasmon_lorentzian(OMEGA_A, ev, pole)
        assert meta["fit_center_kz_pl"] == pytest.approx(fit.center_kz_pl, rel=1e-12)


    def test_explicit_order_tail_is_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, {"azimuthal_order": 4})
        assert main(["dispersion", "--config", path, "--out", str(tmp_path / "d.csv"),
                     "--n-points", "40"]) == 0
        assert "azimuthal tail ratio" in capsys.readouterr().err


class TestPoint:
    def test_full_report(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "p.json"
        proc = run_cli(["point", "--config", path, "--dz", "1.0",
                        "--out", str(out)])
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["converged"]
        s = payload["shift12"]
        assert s["total"] == pytest.approx(s["resonant"] + s["integral"], rel=1e-12)
        d = payload["dicke"]
        assert d["symmetric_decay"] == pytest.approx(
            payload["gamma11_over_gamma0"] + payload["gamma12_over_gamma0"], rel=1e-12)
        assert "markov" in payload


    def test_near_coincident_separation(self, tmp_path):
        # default config, dz below the closed-form tensor's coincidence guard
        out = tmp_path / "p.json"
        assert main(["point", "--dz", "1e-10", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"]
        assert payload["gamma12_over_gamma0"] == pytest.approx(payload["gamma11_over_gamma0"],
                                                                rel=1e-8)


def test_main_entry_point_runs_in_process(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_no_command_loads_scipy(tmp_path):
    # the Bessel ladders and the Lorentzian fits run on numpy, and kk_check
    # imports PCHIP only for a sampled grid, so neither a cold import nor any
    # of these commands loads any scipy module
    commands = [["validate"], ["point", "--dz", "1.5", "--out", str(tmp_path / "p.json")],
                ["dispersion", "--config", str(DEFAULT_CONFIG),
                 "--out", str(tmp_path / "d.csv")],
                ["sweep", "--config", str(DEFAULT_CONFIG), "--threads", "1",
                 "--out", str(tmp_path / "sweep.csv")]]
    script = f"""
import json, sys
import wireqed.cli as cli
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = {{"import": loaded(), "exits": [], "run": []}}
for argv in {commands!r}:
    seen["exits"].append(cli.main(argv))
    seen["run"].append(loaded())
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "exits": [0] * len(commands), "run": [[]] * len(commands)}
