"""Command-line entry points, output formats, and error paths."""

import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qorsim
from qorsim import __version__
from qorsim.cli import main
from qorsim.fiber import BANDS, DEFAULT_FIBER_TYPES
from qorsim.planner import PARAMS, _interval, load_fiber_table, validate_report

from conftest import write_route


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _checkout_env() -> dict:
    """This process's environment, with this checkout's qorsim first on
    PYTHONPATH."""
    src_dir = os.path.dirname(os.path.dirname(qorsim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def _python(args, **kwargs) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports qorsim from this
    checkout, so modules the test suite loaded do not count."""
    return subprocess.run([sys.executable, *args], env=_checkout_env(), capture_output=True,
                          text=True, **kwargs)


def _fresh_interpreter(probe: str) -> str:
    """Stdout of ``python -c probe`` in a fresh interpreter."""
    return _python(["-c", probe], check=True).stdout


class TestRuntimeImports:
    def test_cli_import_loads_no_scipy(self):
        out = _fresh_interpreter(
            "import sys, qorsim, qorsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert out.strip() == "[]"

    def test_cli_import_loads_no_process_pool(self):
        # The worker pool is imported only by a Monte Carlo run with
        # workers > 1.
        out = _fresh_interpreter(
            "import sys, qorsim, qorsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process' "
            "or m == 'multiprocessing' or m.startswith('multiprocessing.')))"
        )
        assert out.strip() == "[]"

    def test_plan_loads_no_numpy_random(self, tmp_path):
        # The Monte Carlo key is folded from the seed by the stream's own
        # SplitMix64 mix, so a plan that runs Monte Carlo never imports
        # numpy.random.
        route = write_route(tmp_path, [0.0, 20.0, 40.0])
        out = _fresh_interpreter(
            "import sys; from qorsim import planner; "
            f"reports = planner.run_plan(planner.load_route({route!r}), 'both', trials=200); "
            "assert reports[0]['end_to_end']['fidelity'] > 0.25; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        )
        assert out.strip() == "[]"


class TestFibers:
    def test_json_lists_builtin_types(self, capsys):
        code, out, err = _run(capsys, ["fibers"])
        assert code == 0 and err == ""
        data = json.loads(out)
        assert "NDSF" in data
        assert data["NDSF"]["attenuation_db_per_km"]["O"] == 0.35

    def test_csv_rows(self, capsys):
        code, out, _ = _run(capsys, ["fibers", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "type,band,attenuation_db_per_km,group_index"
        assert any(line.startswith("NDSF,O,0.35") for line in lines)

    def test_custom_table(self, capsys, tmp_path):
        path = tmp_path / "fibers.json"
        path.write_text(json.dumps(
            {"XX": {"attenuation_db_per_km": {"O": 0.5}}}))
        code, out, _ = _run(capsys, ["fibers", "--fibers", str(path)])
        assert code == 0
        assert set(json.loads(out)) == {"XX"}

    def test_misspelled_key_is_an_error(self, capsys, tmp_path):
        # group_idx would otherwise leave group_index, and so every span's
        # latency, at its default.
        path = tmp_path / "fibers.json"
        path.write_text(json.dumps(
            {"XX": {"attenuation_db_per_km": {"O": 0.5}, "group_idx": 1.6}}))
        code, out, err = _run(capsys, ["fibers", "--fibers", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "fiber type 'XX' has unknown key 'group_idx'" in err

    def test_unknown_band_is_an_error(self, capsys, tmp_path):
        # A band outside fiber.BANDS ("c" for "C") would be listed, and a
        # route on the band it was meant for would fail much later.
        path = tmp_path / "fibers.json"
        path.write_text(json.dumps({"XX": {"attenuation_db_per_km": {"Q": 0.5, "O": 0.3}}}))
        code, out, err = _run(capsys, ["fibers", "--fibers", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"{path}: fiber type 'XX' has unknown band 'Q'" in err

    def test_table_round_trips(self, capsys, tmp_path):
        # fibers --out writes the format that --fibers reads back.
        builtin = tmp_path / "builtin.json"
        assert _run(capsys, ["fibers", "--out", str(builtin)])[0] == 0
        assert load_fiber_table(str(builtin)) == DEFAULT_FIBER_TYPES
        custom = tmp_path / "custom.json"
        custom.write_text(json.dumps(
            {"XS": {"attenuation_db_per_km": {"O": 0.33, "L": 0.25}, "group_index": 1.47}}))
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        assert _run(capsys, ["fibers", "--fibers", str(custom), "--out", str(first)])[0] == 0
        assert _run(capsys, ["fibers", "--fibers", str(first), "--out", str(again)])[0] == 0
        assert again.read_bytes() == first.read_bytes()


class TestPlan:
    @pytest.mark.parametrize("site, key", [
        ({"nmae": "hut-a", "position_km": 10.0, "kind": "ila"}, "nmae"),
        ({"name": "hut-a", "position_km": 10.0, "kind": "ila", "cryo": True}, "cryo"),
    ], ids=["misspelled-name", "extra-key"])
    def test_unknown_site_key_is_an_error(self, capsys, tmp_path, site, key):
        route = write_route(tmp_path, [0.0, 10.0, 20.0])
        with open(route, encoding="utf-8") as fh:
            body = json.load(fh)
        body["sites"][1] = site
        with open(route, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        err = _one_error(capsys, ["plan", "--tech", "oneway"], route)
        assert f"sites[1] has unknown key '{key}'" in err

    def test_oneway_long_span_is_infeasible(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 100.0])
        code, out, _ = _run(capsys, ["plan", "--route", route,
                                     "--tech", "oneway"])
        assert code == 0
        rep = json.loads(out)
        assert rep["technology"] == "one_way"
        assert rep["verdict"]["feasible"] is False
        codes = [v["requirement"] for v in rep["verdict"]["violations"]]
        assert "R2-span-reach" in codes

    def test_unreachable_route_is_a_verdict(self, capsys, tmp_path):
        # 450 km of O band passes about 1e-16 of the photons.
        route = write_route(tmp_path, [0.0, 450.0])
        code, out, _ = _run(capsys, ["plan", "--route", route, "--tech", "oneway"])
        assert code == 0
        assert json.loads(out)["verdict"]["feasible"] is False
        code, out, _ = _run(capsys, ["channel", "--route", route])
        assert code == 0
        assert json.loads(out)[0]["length_km"] == 450.0

    def test_insertion_loss_over_budget_is_a_verdict(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 5.0], defaults={
            "mux_insertion_loss_db": 3.0, "one_way_loss_threshold_db": 3.0})
        code, out, _ = _run(capsys, ["plan", "--route", route, "--tech", "oneway"])
        assert code == 0
        (r2, _) = json.loads(out)["verdict"]["violations"]
        assert r2["requirement"] == "R2-span-reach"
        assert "insertion loss 3 dB" in r2["detail"]

    def test_entanglement_small_route(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 20.0, 40.0])
        code, out, _ = _run(capsys, ["plan", "--route", route,
                                     "--tech", "entanglement",
                                     "--trials", "200", "--seed", "7"])
        assert code == 0
        rep = json.loads(out)
        assert rep["end_to_end"]["fidelity"] > 0.9
        assert rep["provenance"]["seed"] == 7

    def test_both_returns_two_reports(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 20.0, 40.0])
        code, out, _ = _run(capsys, ["plan", "--route", route,
                                     "--tech", "both", "--trials", "100"])
        assert code == 0
        reports = json.loads(out)
        assert [r["technology"] for r in reports] == ["entanglement",
                                                      "one_way"]

    def test_qber_above_half_gives_no_key(self, capsys, tmp_path):
        # A drift angle of pi between tracker resets takes the span fidelity
        # to 3e-4 and the QBER past 1/2: the plan answers for both
        # technologies, with no key.
        route = write_route(tmp_path, [0.0, 5.0], defaults={
            "sop_drift_rate": 3141592.653589793, "sop_recalibration_interval": 1e-6})
        code, out, err = _run(capsys, ["plan", "--route", route, "--tech", "both",
                                       "--trials", "200"])
        assert (code, err) == (0, "")
        entanglement, one_way = json.loads(out)
        key = entanglement["qkd"]
        assert key["qber"] == pytest.approx(0.6665, abs=1e-4)
        assert key["secret_key_rate_hz"] == 0.0 and key["secure"] is False
        assert one_way["technology"] == "one_way"

    def test_out_writes_file(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 20.0, 40.0])
        target = tmp_path / "report.json"
        code, out, _ = _run(capsys, ["plan", "--route", route,
                                     "--tech", "oneway",
                                     "--out", str(target)])
        assert code == 0
        assert out == ""
        rep = json.loads(target.read_text())
        assert rep["technology"] == "one_way"


def _finite_json(text: str):
    """Decoded JSON; fails on NaN and Infinity."""
    def reject(name):
        raise AssertionError(f"non-finite JSON number {name}")
    return json.loads(text, parse_constant=reject)


class TestLongSpans:
    # Hut-less O-band routes: 8700 km heralds about 3e-305 of the attempts,
    # so the waits reach 1e304 s and their squares pass the float range.
    @pytest.mark.parametrize("km", [5000.0, 8700.0])
    @pytest.mark.parametrize("command", [
        ["plan", "--tech", "entanglement"], ["simulate"], ["simulate", "--engine", "analytic"],
    ])
    def test_report_is_finite(self, capsys, tmp_path, km, command):
        route = write_route(tmp_path, [0.0, km])
        code, out, err = _run(capsys, command + ["--route", route, "--trials", "2000"])
        assert code == 0 and err == ""
        rep = _finite_json(out)
        latency = rep["end_to_end"]["latency_s"] if command[0] == "plan" else rep["latency_s"]
        assert latency > 1e170

    def test_latency_past_float_range_is_an_error(self, capsys, tmp_path):
        # At 8787 km, just inside the heralding floor, some sampled waits
        # pass 1.8e308 s; the analytic mean still fits.
        route = write_route(tmp_path, [0.0, 8787.0])
        for command in (["plan"], ["simulate"]):
            code, out, err = _run(capsys, command + ["--route", route, "--trials", "2000"])
            assert code == 1 and out == ""
            assert err.startswith("error:") and "float range" in err
        code, out, err = _run(capsys, ["simulate", "--engine", "analytic", "--route", route])
        assert code == 0 and err == ""
        assert _finite_json(out)["latency_s"] > 1e306


def _one_error(capsys, command, route):
    """The stderr of a command that must fail with exactly one error line."""
    code, out, err = _run(capsys, command + ["--route", route])
    assert code == 1 and out == "", command
    assert err.startswith("error:") and len(err.splitlines()) == 1, (command, err)
    return err


# The commands that run an engine; Monte Carlo with few trials, since each
# route below fails or gives up early.
_ENGINE_COMMANDS = (
    ["simulate", "--engine", "analytic"],
    ["simulate", "--trials", "20"],
    ["plan", "--trials", "20"],
)


class TestFloatRangeParameters:
    # Every parameter below passes its own range check, but a rate, a
    # probability or a wait formed from it leaves the float range. A numpy
    # warning on the way fails the suite (pyproject's filterwarnings).
    @pytest.mark.parametrize("cutoff", [{}, {"memory_cutoff": 1.0}], ids=["", "cutoff"])
    def test_overflowing_decay_rate_is_rejected(self, capsys, tmp_path, cutoff):
        route = write_route(tmp_path, [0.0, 20.0, 45.0],
                            defaults={"memory_coherence_time": 1e-310, **cutoff})
        for command in _ENGINE_COMMANDS:
            assert "coherence_time 1e-310" in _one_error(capsys, command, route)

    @pytest.mark.parametrize("defaults, message", [
        ({"memory_read_efficiency": 1e-162}, "node 0's swap probability"),
        ({"memory_write_efficiency": 1e-300, "mux_insertion_loss_db": 300.0},
         "span 0's success probability"),
    ], ids=["swap", "span"])
    def test_zero_probability_is_an_error(self, capsys, tmp_path, defaults, message):
        route = write_route(tmp_path, [0.0, 20.0, 45.0], defaults=defaults)
        for command in _ENGINE_COMMANDS:
            err = _one_error(capsys, command, route)
            assert message in err and "underflows to 0" in err
        # The span table needs neither probability.
        code, out, err = _run(capsys, ["channel", "--route", route])
        assert code == 0 and err == ""
        _finite_json(out)

    @pytest.mark.parametrize("positions, band, defaults, analytic_fidelity", [
        # A subnormal span success probability: the mean wait overflows.
        ([0.0, 20.0, 45.0], "O", {"memory_write_efficiency": 1e-300,
                                  "mux_insertion_loss_db": 200.0}, None),
        # Decay rates of 2e307 /s: the analytic engine gives the fully
        # decayed pair, and Monte Carlo's cutoff, the coherence time of
        # 1e-307 s, is too short for any trial to finish.
        ([0.0, 150.0, 300.0], "C", {"memory_coherence_time": 1e-307}, 0.25),
    ], ids=["subnormal-success", "c-band-fast-decay"])
    def test_non_finite_result_is_an_error(self, capsys, tmp_path, positions, band, defaults,
                                           analytic_fidelity):
        route = write_route(tmp_path, positions, band=band, defaults=defaults)
        for command in _ENGINE_COMMANDS:
            if analytic_fidelity is not None and "analytic" in command:
                code, out, err = _run(capsys, command + ["--route", route])
                assert code == 0 and err == ""
                assert _finite_json(out)["fidelity"] == analytic_fidelity
            else:
                _one_error(capsys, command, route)

    def test_fully_decayed_pair_has_an_answer(self, capsys, tmp_path):
        # Decay rates of 2e307 /s with a 100 s cutoff: every delivered pair
        # is maximally mixed, and both engines give the same rate.
        route = write_route(tmp_path, [0.0, 150.0, 300.0], band="C", defaults={
            "memory_coherence_time": 1e-307, "memory_cutoff": 100.0})
        results = []
        for command in (["simulate", "--engine", "analytic"],
                        ["simulate", "--trials", "2000", "--seed", "42"]):
            code, out, err = _run(capsys, command + ["--route", route])
            assert code == 0 and err == ""
            results.append(_finite_json(out))
        analytic, mc = results
        assert analytic["fidelity"] == 0.25 and mc["fidelity"] == 0.25
        assert abs(analytic["pair_rate_hz"] - mc["pair_rate_hz"]) < 3 * mc["rate_stderr"]

    @pytest.mark.parametrize("defaults", [
        {"memory_read_efficiency": 1e-12}, {"bsm_success_prob": 1e-300},
    ], ids=["read-efficiency", "bsm"])
    def test_hopeless_swap_fails_before_the_first_draw(self, tmp_path, defaults):
        # Swap probabilities of 5e-25 and 8e-301: a trial needs more span
        # generations than its stream has draws, so Monte Carlo fails at
        # once rather than run until killed. The analytic engine answers.
        route = write_route(tmp_path, [0.0, 20.0, 45.0], defaults=defaults)
        proc = _python(["-m", "qorsim.cli", "plan", "--trials", "20", "--route", route],
                       timeout=20)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
        assert "Monte Carlo cannot finish" in proc.stderr
        proc = _python(["-m", "qorsim.cli", "simulate", "--engine", "analytic",
                        "--route", route], timeout=20)
        assert proc.returncode == 0 and proc.stderr == ""
        assert 0.0 < _finite_json(proc.stdout)["pair_rate_hz"] < 1e-20

    def test_overflowing_drift_angle_is_rejected(self, capsys, tmp_path):
        # Each factor is finite; their product, the span's drift angle, is not.
        route = write_route(tmp_path, [0.0, 20.0, 45.0], defaults={
            "sop_drift_rate": 1e9, "sop_recalibration_interval": 1e300})
        for command in (["channel"], *_ENGINE_COMMANDS):
            err = _one_error(capsys, command, route)
            assert err.startswith("error: route 'test-route': SOP drift angle")
            assert "sop_drift_rate * sop_recalibration_interval" in err

    def test_slow_attempts_fail_only_in_monte_carlo(self, capsys, tmp_path):
        # 1e-305 attempts per second: the analytic mean latency still fits,
        # some sampled latencies do not.
        route = write_route(tmp_path, [0.0, 20.0, 45.0], defaults={"attempt_rate": 1e-305})
        code, out, err = _run(capsys, ["simulate", "--engine", "analytic", "--route", route])
        assert code == 0 and err == ""
        assert _finite_json(out)["latency_s"] > 1e305
        for command in _ENGINE_COMMANDS[1:]:
            assert "float range" in _one_error(capsys, command, route)


class TestSimulate:
    def test_analytic_engine(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 25.0, 50.0])
        code, out, _ = _run(capsys, ["simulate", "--route", route,
                                     "--engine", "analytic"])
        assert code == 0
        res = json.loads(out)
        assert res["engine"] == "analytic"
        assert res["seed"] is None
        assert 0.9 < res["fidelity"] <= 1.0

    def test_mc_engine_matches_direct_call(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 25.0, 50.0])
        code, out, _ = _run(capsys, ["simulate", "--route", route,
                                     "--engine", "mc", "--trials", "400",
                                     "--seed", "11", "--workers", "2"])
        assert code == 0
        res = json.loads(out)
        assert res["engine"] == "mc"
        assert res["trials"] == 400 and res["seed"] == 11

        from qorsim.planner import build_chain, load_route
        from qorsim.repeater import simulate_chain_mc
        direct = simulate_chain_mc(build_chain(load_route(route)),
                                   trials=400, seed=11, workers=2)
        assert res["fidelity"] == direct.fidelity
        assert res["pair_rate_hz"] == direct.pair_rate_hz


class TestChannel:
    def test_csv_header_and_rows(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 30.0, 60.0])
        code, out, _ = _run(capsys, ["channel", "--route", route,
                                     "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,length_km,transmittance,fidelity"
        assert len(lines) == 3

    def test_json_rows(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 30.0])
        code, out, _ = _run(capsys, ["channel", "--route", route])
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["index"] == 0
        assert rows[0]["length_km"] == 30.0


class TestErrorHandling:
    def test_missing_route_file(self, capsys):
        code, out, err = _run(capsys, ["plan", "--route", "/nope/missing.json"])
        assert code == 1
        assert err.startswith("error:")

    def test_invalid_route_content(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = _run(capsys, ["plan", "--route", str(path)])
        assert code == 1
        assert "invalid JSON" in err

    def test_overlong_integer_is_an_error(self, capsys, tmp_path):
        route = tmp_path / "route.json"
        route.write_text(json.dumps({"sites": [
            {"name": "A", "position_km": 0.0, "kind": "endpoint"},
            {"name": "B", "position_km": 10.0, "kind": "endpoint"},
        ]}).replace("10.0", "1" * 5001))
        code, out, err = _run(capsys, ["plan", "--route", str(route)])
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert "route.json" in err

    def test_monte_carlo_budget_is_an_error(self, capsys, tmp_path):
        # A 10 ns cutoff against ~0.2 ms span cycles: pairs almost never meet.
        route = write_route(tmp_path, [0.0, 20.0, 45.0], defaults={"memory_cutoff": 1e-8})
        code, out, err = _run(capsys, ["plan", "--route", route, "--trials", "20"])
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert "memory_cutoff" in err

    @pytest.mark.parametrize("command, seed", [("plan", "-1"), ("simulate", "-5")])
    def test_negative_seed_is_an_error(self, capsys, tmp_path, command, seed):
        route = write_route(tmp_path, [0.0, 20.0, 45.0])
        code, out, err = _run(capsys, [command, "--route", route, "--trials", "20",
                                       "--seed", seed])
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert "seed must be a non-negative integer" in err

    def test_infinite_group_index_is_an_error(self, capsys, tmp_path):
        fibers = tmp_path / "fibers.json"
        fibers.write_text('{"NDSF": {"attenuation_db_per_km": {"O": 0.35}, "group_index": Infinity}}')
        route = write_route(tmp_path, [0.0, 10.0])
        code, out, err = _run(capsys, ["plan", "--route", route, "--fibers", str(fibers)])
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert "group_index" in err

    def test_unknown_tech_is_usage_error(self, capsys, tmp_path):
        route = write_route(tmp_path, [0.0, 10.0])
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--route", route, "--tech", "pigeon"])
        assert exc.value.code == 2

    def test_plan_has_no_format_flag(self, capsys, tmp_path):
        # The span table's CSV is `channel --format csv`.
        route = write_route(tmp_path, [0.0, 10.0])
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--route", route, "--format", "csv"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # stdout is a pipe whose read end is closed before the command
        # starts, so its first write of the report meets a broken pipe.
        route = write_route(tmp_path, [9.0 * i for i in range(14)])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qorsim.cli", "plan", "--route", route,
                 "--tech", "oneway"],
                env=_checkout_env(), stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


def _floats(lo, hi, exclude_min=False, exclude_max=False):
    """Finite floats from lo to hi, with the boundary values drawn often."""
    edges = [math.nextafter(lo, hi) if exclude_min else lo,
             math.nextafter(hi, lo) if exclude_max else hi]
    return st.sampled_from(edges) | st.floats(lo, hi, exclude_min=exclude_min,
                                              exclude_max=exclude_max, allow_nan=False)


_BIG = sys.float_info.max


def _domain_values(domain: str):
    """The values a PARAMS domain holds: booleans, or finite floats in its
    interval."""
    if domain == "bool":
        return st.booleans()
    lo, hi, lo_open, hi_open = _interval(domain)
    return _floats(lo, min(hi, _BIG), exclude_min=lo_open, exclude_max=hi_open and hi < _BIG)


class TestRouteKeyDomains:
    """A route key outside its domain is one error line naming the file,
    the key, the domain and the value, whether or not the plan reads the
    key (coexistence_noise_prob with coexistence off)."""

    @pytest.mark.parametrize("key, bad, coexistence", [
        ("memory_coherence_time", -1.0, True),
        ("dephasing_p", 1.5, True),
        ("attempt_rate", 0, True),
        ("detector_efficiency", 2.0, True),
        ("max_heralding_km", -5.0, True),
        ("one_way_loss_threshold_db", 0.0, True),
        ("coexistence_noise_prob", 1.0, True),
        ("coexistence_noise_prob", 1.0, False),
    ])
    def test_one_error_line_names_the_key(self, capsys, tmp_path, key, bad, coexistence):
        route = write_route(tmp_path, [0.0, 20.0, 45.0], coexistence=coexistence,
                            defaults={key: bad})
        code, out, err = _run(capsys, ["plan", "--tech", "oneway", "--route", route])
        assert (code, out) == (1, "")
        assert err == f"error: {route}: defaults {key!r} must lie in {PARAMS[key][1]}, got {bad!r}\n"


class TestRouteFuzz:
    """Every route file gives each command that runs no Monte Carlo finite
    output, or one error line and exit code 1, in bounded time: no
    traceback, no NaN or Infinity, and no numpy RuntimeWarning (pyproject's
    filterwarnings turns one into a failure). So does Monte Carlo ``plan
    --tech both`` on routes without huts, where one span has no swap and no
    cutoff race. On routes with huts it stays out: its work budget can
    still take long to stop a hopeless run; a 5-span C-band route with
    detector_efficiency 1e-6 ran plan --trials 20 for more than 5 s."""

    COMMANDS = (["channel"], ["simulate", "--engine", "analytic"], ["plan", "--tech", "oneway"])
    MC_PLAN = ["plan", "--tech", "both", "--trials", "50"]
    # Wall time a command may take; each takes a few milliseconds.
    COMMAND_S = 2.0

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        positions=st.lists(_floats(0.0, 3000.0), min_size=2, max_size=5, unique=True).map(sorted),
        band=st.sampled_from(sorted(BANDS)),
        coexistence=st.booleans(),
        defaults=st.fixed_dictionaries(
            {}, optional={key: _domain_values(row[1]) for key, row in PARAMS.items()}),
    )
    def test_answer_or_one_error_line(self, capsys, tmp_path, positions, band, coexistence,
                                      defaults):
        route = write_route(tmp_path, positions, band=band, coexistence=coexistence,
                            defaults=defaults)
        for command in self.COMMANDS + ((self.MC_PLAN,) if len(positions) == 2 else ()):
            start = time.perf_counter()
            code, out, err = _run(capsys, command + ["--route", route])
            assert time.perf_counter() - start < self.COMMAND_S, command
            if code == 0:
                assert err == "", command
                answer = _finite_json(out)
                if command[0] == "plan":
                    for report in answer if isinstance(answer, list) else [answer]:
                        validate_report(report)
            else:
                assert code == 1 and out == "", command
                assert err.startswith("error:") and len(err.splitlines()) == 1, (command, err)
