"""Route files, chain construction, and report assembly."""

import copy
import inspect
import json
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import qorsim.repeater as repeater
import qorsim.channels
import qorsim.fiber
from qorsim.linalg import DensityMatrix
from qorsim.planner import (
    DEFAULT_PARAMS,
    PARAMS,
    ConfigError,
    _config_hash,
    build_chain,
    load_fiber_table,
    load_route,
    run_plan,
    spans_table,
    validate_report,
)
from qorsim.qkd import (
    TECH_ENTANGLEMENT,
    TECH_ONE_WAY,
    FeasibilityVerdict,
    OneWayRepeaterSpec,
    QkdMetrics,
    Violation,
    assess_chain,
    qec_max_span,
)

from conftest import write_route


class TestLoadRoute:
    def test_happy_path(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        assert rc.name == "test-route"
        assert [s.position_km for s in rc.sites] == [0.0, 25.0, 50.0]
        assert rc.fiber.type_name == "NDSF"
        assert rc.quantum_band.name == "O"
        assert rc.coexistence
        assert rc.params == DEFAULT_PARAMS
        assert rc.length_km == 50.0

    def test_defaults_override_params(self, tmp_path):
        path = write_route(tmp_path, [0.0, 10.0],
                           defaults={"detector_efficiency": 0.5,
                                     "memory_cryogenic": True})
        rc = load_route(path)
        assert rc.params["detector_efficiency"] == 0.5
        assert rc.params["memory_cryogenic"] is True
        assert rc.params["attempt_rate"] == DEFAULT_PARAMS["attempt_rate"]

    def _reject(self, tmp_path, mutate, match):
        raw = {
            "name": "r",
            "fiber_type": "NDSF",
            "quantum_band": "O",
            "coexistence": True,
            "sites": [
                {"name": "A", "position_km": 0.0, "kind": "endpoint"},
                {"name": "B", "position_km": 10.0, "kind": "endpoint"},
            ],
        }
        mutate(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=match):
            load_route(str(path))

    def test_rejects_unknown_key(self, tmp_path):
        self._reject(tmp_path, lambda r: r.update(watts=3), "unknown route key")

    def test_rejects_single_site(self, tmp_path):
        self._reject(tmp_path, lambda r: r["sites"].pop(), "at least two")

    def test_rejects_nonincreasing_positions(self, tmp_path):
        def mut(r):
            r["sites"][1]["position_km"] = 0.0
        self._reject(tmp_path, mut, "does not increase")

    def test_rejects_interior_endpoint(self, tmp_path):
        def mut(r):
            r["sites"].insert(
                1, {"name": "M", "position_km": 5.0, "kind": "endpoint"})
        self._reject(tmp_path, mut, "interior site")

    def test_rejects_ila_terminus(self, tmp_path):
        def mut(r):
            r["sites"][-1]["kind"] = "ila"
        self._reject(tmp_path, mut, "last site must be an endpoint")

    def test_rejects_unknown_fiber(self, tmp_path):
        self._reject(tmp_path, lambda r: r.update(fiber_type="KRYPTONITE"),
                     "not in table")

    def test_rejects_unknown_band(self, tmp_path):
        self._reject(tmp_path, lambda r: r.update(quantum_band="X"),
                     "quantum_band")

    def test_rejects_unknown_default(self, tmp_path):
        self._reject(tmp_path, lambda r: r.update(defaults={"warp": 9}),
                     "unknown defaults key")

    def test_rejects_bool_for_number(self, tmp_path):
        self._reject(tmp_path,
                     lambda r: r.update(defaults={"attempt_rate": True}),
                     "must be a number")

    def test_rejects_number_for_bool(self, tmp_path):
        for bad in (1, 0.0, "true", None):
            self._reject(tmp_path,
                         lambda r: r.update(defaults={"memory_cryogenic": bad}),
                         "'memory_cryogenic' must be a boolean")

    def test_rejects_string_for_number(self, tmp_path):
        self._reject(tmp_path,
                     lambda r: r.update(defaults={"attempt_rate": "fast"}),
                     "'attempt_rate' must be a number")

    def test_rejects_string_for_bool(self, tmp_path):
        self._reject(tmp_path,
                     lambda r: r.update(defaults={"memory_cryogenic": "yes"}),
                     "'memory_cryogenic' must be a boolean")

    def test_every_default_key_is_type_checked(self, tmp_path):
        # RouteConfig checks its params when it is built, so build_chain and
        # run_plan read route.params as they find it.
        for key, default in DEFAULT_PARAMS.items():
            if isinstance(default, bool):
                bad, want = 1, "must be a boolean"
            else:
                bad, want = "3", "must be a number"
            self._reject(tmp_path, lambda r: r.update(defaults={key: bad}),
                         re.escape(f"defaults {key!r} {want}, got {bad!r}"))

    def test_rejects_bool_or_nonfinite_position(self, tmp_path):
        # JSON true would otherwise read as 1 km.
        for bad in (True, float("inf"), float("nan")):
            self._reject(tmp_path, lambda r: r["sites"][1].update(position_km=bad),
                         rf"sites\[1\].position_km must be a nonnegative number, got {bad!r}")

    def test_rejects_nan_default(self, tmp_path):
        # A NaN cutoff would compare false against every wait and never bind.
        # JSON writes the floats as NaN, Infinity and -Infinity; the integer
        # has 400 digits, past the float range.
        for bad in (float("nan"), float("inf"), float("-inf"), 10**399):
            self._reject(tmp_path, lambda r: r.update(defaults={"memory_cutoff": bad}),
                         re.escape(f"'memory_cutoff' must be a number, got {bad!r}"))

    def test_replaced_params_are_checked(self, tmp_path):
        # A route whose params are replaced in code is checked as a route
        # file's defaults are, by key.
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        for params, match in [
            ({**rc.params, "attempt_rate": "fast"}, "'attempt_rate' must be a number, got 'fast'"),
            ({**rc.params, "attempt_rate": 10**400}, "'attempt_rate' must be a number"),
            ({}, "params missing key 'sop_drift_rate'"),
            ({**rc.params, "bogus": 1}, "unknown defaults key 'bogus'"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(match)):
                replace(rc, params=params)
        # A valid integer is kept as the float a route file gives.
        fast = replace(rc, params={**rc.params, "attempt_rate": 2_000_000})
        assert type(fast.params["attempt_rate"]) is float
        from_file = load_route(write_route(tmp_path, [0.0, 25.0, 50.0], filename="fast.json",
                                           defaults={"attempt_rate": 2_000_000}))
        assert _config_hash(fast) == _config_hash(from_file)

    def test_replaced_sites_are_checked(self, tmp_path):
        # A route whose sites, name or coexistence flag are replaced in code
        # is checked as a route file's are.
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        s0, _, s2 = rc.sites
        for change, match in [
            ({"sites": (s0, s0, s2)}, "sites[1] position 0.0 does not increase past 0.0"),
            ({"sites": (s0,)}, "sites must be a list of at least two entries"),
            ({"coexistence": "yes"}, "coexistence must be a boolean"),
            ({"name": 5}, "route name must be a nonempty string"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(match)):
                replace(rc, **change)
        # A valid integer position is kept as the float a route file gives.
        moved = replace(rc, sites=(replace(s0, position_km=0), s2))
        assert type(moved.sites[0].position_km) is float

    def test_params_are_read_only(self, tmp_path):
        # Changed in place, params would skip the check that replace runs;
        # the assignment itself fails and the route keeps its value.
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        with pytest.raises(TypeError):
            rc.params["attempt_rate"] = "fast"
        assert rc.params["attempt_rate"] == 1e6
        assert run_plan(rc, "both", trials=20)[0]["route"]["name"] == rc.name
        with pytest.raises(ConfigError, match="'attempt_rate' must be a number, got 'fast'"):
            replace(rc, params={**rc.params, "attempt_rate": "fast"})
        slow = replace(rc, params={**rc.params, "attempt_rate": 5e5})
        assert slow.params["attempt_rate"] == 5e5 and rc.params["attempt_rate"] == 1e6
        with pytest.raises(TypeError):
            slow.params["attempt_rate"] = 1e6

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_route(str(path))

    def test_rejects_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ConfigError, match=r"latin1\.json: invalid JSON"):
            load_route(str(path))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_route(str(tmp_path / "nope.json"))


class TestRouteKeyTable:
    def test_readme_table_is_params(self):
        # README's route-key table, row by row: key, default as a route
        # file writes it, domain, unit and meaning.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme[readme.index("| key | default | domain | unit | meaning |"):]
        lines = table.split("\n\n")[0].splitlines()[2:]
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
        written = [(key.strip("`"), json.loads(default), domain, unit, meaning)
                   for key, default, domain, unit, meaning in rows]
        assert written == [(key, *row) for key, row in PARAMS.items()]
        assert [type(row[1]) for row in written] == [type(row[0]) for row in PARAMS.values()]


class TestLoadFiberTable:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "fibers.json"
        path.write_text(json.dumps({
            "CUSTOM": {"attenuation_db_per_km": {"O": 0.4, "C": 0.25},
                       "group_index": 1.5},
        }))
        table = load_fiber_table(str(path))
        assert set(table) == {"CUSTOM"}
        assert table["CUSTOM"].attenuation_db_per_km["O"] == 0.4
        assert table["CUSTOM"].group_index == 1.5

    def test_route_can_use_custom_table(self, tmp_path):
        fibers = tmp_path / "fibers.json"
        fibers.write_text(json.dumps({
            "CUSTOM": {"attenuation_db_per_km": {"O": 0.4}},
        }))
        table = load_fiber_table(str(fibers))
        path = write_route(tmp_path, [0.0, 10.0], fiber_type="CUSTOM")
        rc = load_route(path, fiber_table=table)
        assert rc.fiber.type_name == "CUSTOM"

    def test_rejects_negative_attenuation(self, tmp_path):
        path = tmp_path / "fibers.json"
        path.write_text(json.dumps({
            "BAD": {"attenuation_db_per_km": {"O": -0.1}},
        }))
        with pytest.raises(ConfigError, match="must be positive"):
            load_fiber_table(str(path))

    def test_rejects_nonfinite_numbers(self, tmp_path):
        path = tmp_path / "fibers.json"
        for body, match in (
            ({"attenuation_db_per_km": {"O": 0.35}, "group_index": float("inf")},
             "group_index must be a number of at least 1, got inf"),
            ({"attenuation_db_per_km": {"O": float("nan")}}, "attenuation must be positive"),
            ({"attenuation_db_per_km": {"O": True}}, "attenuation must be positive, got True"),
        ):
            path.write_text(json.dumps({"BAD": body}))
            with pytest.raises(ConfigError, match=match):
                load_fiber_table(str(path))

    def test_rejects_overlong_integer(self, tmp_path):
        # Past the interpreter's integer-string digit limit json.load raises
        # a plain ValueError, not a JSONDecodeError.
        path = tmp_path / "fibers.json"
        path.write_text('{"BAD": {"attenuation_db_per_km": {"O": 0.35}, "group_index": '
                        + "1" * 5001 + "}}")
        with pytest.raises(ConfigError, match=r"fibers\.json: invalid JSON"):
            load_fiber_table(str(path))

    def test_rejects_missing_attenuation(self, tmp_path):
        path = tmp_path / "fibers.json"
        path.write_text(json.dumps({"BAD": {"group_index": 1.4}}))
        with pytest.raises(ConfigError, match="attenuation_db_per_km"):
            load_fiber_table(str(path))

    def test_rejects_unnamed_fiber_type(self, tmp_path):
        path = tmp_path / "fibers.json"
        path.write_text(json.dumps({"": {"attenuation_db_per_km": {"O": 0.35}}}))
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: fiber '': fiber type needs a name")):
            load_fiber_table(str(path))

    @pytest.mark.parametrize("band", ["Q", "c"])
    def test_rejects_unknown_band(self, tmp_path, band):
        path = tmp_path / "fibers.json"
        path.write_text(json.dumps({"XX": {"attenuation_db_per_km": {band: 0.5, "O": 0.3}}}))
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: fiber type 'XX' has unknown band {band!r}, not one of ['C', 'L', 'O']")):
            load_fiber_table(str(path))

    def test_route_band_missing_from_table(self, tmp_path):
        fibers = tmp_path / "fibers.json"
        fibers.write_text(json.dumps({"CUSTOM": {"attenuation_db_per_km": {"C": 0.2}}}))
        table = load_fiber_table(str(fibers))
        path = write_route(tmp_path, [0.0, 10.0], fiber_type="CUSTOM", band="O")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: fiber type CUSTOM has no attenuation entry for band O")):
            load_route(path, fiber_table=table)


class TestBuildChain:
    def test_spans_and_nodes_from_sites(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 20.0, 45.0, 80.0]))
        chain = build_chain(rc)
        assert [s.length_km for s in chain.spans] == [20.0, 25.0, 35.0]
        assert len(chain.nodes) == 2
        assert chain.attempt_rate == DEFAULT_PARAMS["attempt_rate"]

    def test_coexistence_off_zeroes_noise(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0], coexistence=False))
        chain = build_chain(rc)
        assert chain.spans[0].coexistence_noise_prob == 0.0

    def test_cutoff_defaults_to_coherence_time(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        chain = build_chain(rc)
        assert chain.memory_cutoff == rc.params["memory_coherence_time"]
        rc2 = load_route(write_route(tmp_path, [0.0, 25.0, 50.0],
                                     defaults={"memory_cutoff": 0.01},
                                     filename="r2.json"))
        assert build_chain(rc2).memory_cutoff == 0.01

    def test_defaults_reach_every_node(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0, 75.0],
                                    defaults={"bsm_success_prob": 0.4}))
        chain = build_chain(rc)
        assert [n.bsm_success_prob for n in chain.nodes] == [0.4, 0.4]

    def test_overrides_apply_and_validate(self, tmp_path):
        # Callers that set parameters in code replace route.params; the
        # chain reads them, and replace runs the same range checks as a
        # route file's defaults get.
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        chain = build_chain(replace(rc, params={**rc.params, "bsm_success_prob": 0.4}))
        assert chain.nodes[0].bsm_success_prob == 0.4
        assert rc.params["bsm_success_prob"] == DEFAULT_PARAMS["bsm_success_prob"]
        for key, bad in (("bsm_success_prob", 1.5), ("detector_efficiency", 2.0)):
            with pytest.raises(ConfigError, match=re.escape(f"defaults '{key}' must lie in (0, 1], got {bad}")):
                replace(rc, params={**rc.params, key: bad})

    def test_nonfinite_overrides_rejected(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        # RouteConfig rejects them by key before any chain is built.
        for bad in (float("nan"), float("inf"), float("-inf")):
            for key in ("attempt_rate", "memory_coherence_time"):
                with pytest.raises(ConfigError, match=re.escape(f"{key!r} must be a number, got {bad!r}")):
                    build_chain(replace(rc, params={**rc.params, key: bad}))

    def test_bad_value_becomes_config_error(self, tmp_path):
        path = write_route(tmp_path, [0.0, 25.0, 50.0], defaults={"detector_efficiency": 2.0})
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: defaults 'detector_efficiency' must lie in (0, 1], got 2.0")):
            load_route(path)

    @pytest.mark.parametrize("bad", [{"bsm_success_prob": 0}, {"detector_efficiency": 5}])
    def test_node_parameters_checked_without_huts(self, tmp_path, bad):
        # A route without huts builds no node, yet its node keys are checked.
        (key, val), = bad.items()
        with pytest.raises(ConfigError, match=re.escape(f"defaults '{key}' must lie in (0, 1], got {val}")):
            load_route(write_route(tmp_path, [0.0, 25.0], defaults=bad))

    def test_unknown_technology(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0]))
        with pytest.raises(ConfigError, match="unknown technology"):
            build_chain(rc, technology="smoke-signals")


class TestSpansTable:
    def test_rows_match_chain(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        rows = spans_table(build_chain(rc))
        assert [r["index"] for r in rows] == [0, 1]
        for r in rows:
            assert 0.0 < r["transmittance"] < 1.0
            assert 0.5 < r["fidelity"] <= 1.0

    def test_endpoint_spans_skip_node_efficiencies(self, tmp_path):
        # single span: no repeater hardware factors in its success probability
        rc = load_route(write_route(tmp_path, [0.0, 25.0]))
        row = spans_table(build_chain(rc))[0]
        from qorsim.fiber import transmittance as eta
        assert row["transmittance"] == pytest.approx(
            eta(build_chain(rc).spans[0]), abs=1e-15)


class TestRunPlan:
    def test_entanglement_report_sections(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        rep = run_plan(rc, technology=TECH_ENTANGLEMENT, trials=300, seed=3)
        validate_report(rep)
        assert rep["technology"] == TECH_ENTANGLEMENT
        assert rep["end_to_end"]["fidelity"] > 0.9
        assert rep["qkd"]["secure"]
        assert rep["verdict"]["feasible"]
        assert rep["provenance"]["trials"] == 300
        assert len(rep["spans"]) == 2

    def test_one_way_report_has_null_simulation(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        rep = run_plan(rc, technology=TECH_ONE_WAY, trials=300, seed=3)
        validate_report(rep)
        assert rep["end_to_end"] is None
        assert rep["qkd"] is None
        assert not rep["verdict"]["feasible"]
        codes = [v["requirement"] for v in rep["verdict"]["violations"]]
        assert "R2-span-reach" in codes

    def test_both_returns_pair(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        reports = run_plan(rc, technology="both", trials=200, seed=3)
        assert isinstance(reports, list) and len(reports) == 2
        assert [r["technology"] for r in reports] == [TECH_ENTANGLEMENT,
                                                      TECH_ONE_WAY]
        for r in reports:
            validate_report(r)

    def test_unknown_technology(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0]))
        with pytest.raises(ConfigError, match="unknown technology"):
            run_plan(rc, technology="drone")

    def test_numpy_integer_provenance_serialises(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        for tech in (TECH_ENTANGLEMENT, TECH_ONE_WAY, "both"):
            plain = run_plan(rc, technology=tech, trials=20, seed=3)
            numpy = run_plan(rc, technology=tech, trials=np.int64(20),
                             seed=np.uint32(3))
            assert json.dumps(numpy, indent=2) == json.dumps(plain, indent=2)

    def test_config_hash_stable_and_sensitive(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        a = run_plan(rc, technology=TECH_ONE_WAY, trials=10, seed=1)
        b = run_plan(rc, technology=TECH_ONE_WAY, trials=10, seed=1)
        assert a["provenance"]["config_hash"] == b["provenance"]["config_hash"]
        rc2 = load_route(write_route(tmp_path, [0.0, 25.0, 50.0],
                                     defaults={"detector_efficiency": 0.81},
                                     filename="r2.json"))
        c = run_plan(rc2, technology=TECH_ONE_WAY, trials=10, seed=1)
        assert a["provenance"]["config_hash"] != c["provenance"]["config_hash"]

    def test_config_hash_covers_params(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        base = _config_hash(rc)
        # A default equal to the built-in value leaves the parameters, and
        # so the hash, unchanged.
        same = load_route(write_route(tmp_path, [0.0, 25.0, 50.0],
                                      defaults={"memory_coherence_time": 1},
                                      filename="same.json"))
        assert _config_hash(same) == base
        longer = load_route(write_route(tmp_path, [0.0, 25.0, 50.0],
                                        defaults={"memory_coherence_time": 2},
                                        filename="longer.json"))
        assert _config_hash(longer) != base

    def test_config_hash_covers_overrides(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        base = _config_hash(rc)
        assert _config_hash(replace(rc, params=dict(rc.params))) == base
        short = replace(rc, params={**rc.params, "memory_coherence_time": 1e-3})
        assert _config_hash(short) != base
        a = run_plan(rc, technology=TECH_ENTANGLEMENT, trials=50, seed=1)
        b = run_plan(short, technology=TECH_ENTANGLEMENT, trials=50, seed=1)
        assert a["end_to_end"]["fidelity"] != b["end_to_end"]["fidelity"]
        assert a["provenance"]["config_hash"] == base
        assert b["provenance"]["config_hash"] == _config_hash(short)

    def test_both_attempts_each_span_once_per_consumer(self, tmp_path, monkeypatch):
        # One set of span attempts for the shared span table, one for the
        # Monte Carlo engine.
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0, 75.0]))
        calls = []
        original = repeater.span_entanglement_attempt

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(repeater, "span_entanglement_attempt", counted)
        reports = run_plan(rc, technology="both", trials=20, seed=1)
        assert len(calls) == 2 * 3
        assert reports[0]["spans"] == reports[1]["spans"]
        assert reports[0]["spans"] == spans_table(build_chain(rc))

    def test_plan_builds_no_dense_pair_state(self, tmp_path, monkeypatch):
        # Span attempts are closed form and hand on Bell weights: no
        # DensityMatrix of any size is built on a plan's path.
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        dims = []
        validate = DensityMatrix.__post_init__

        def counted(state):
            dims.append(np.shape(state.matrix)[0])
            validate(state)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        run_plan(rc, technology="both", trials=100, seed=1)
        assert dims == []

    @pytest.mark.parametrize("engine", ["run_plan", "analytic"])
    def test_plan_path_skips_the_dense_layer(self, tmp_path, monkeypatch, engine):
        # Every qorsim binding of span_channel_stack and apply_to_subsystem
        # raises, and plans and engines still run.
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        dense = (qorsim.fiber.span_channel_stack, qorsim.channels.apply_to_subsystem)

        def refuse(*args, **kwargs):
            raise AssertionError("dense span layer called")

        for name, module in list(sys.modules.items()):
            if name == "qorsim" or name.startswith("qorsim."):
                for key, value in list(vars(module).items()):
                    if any(value is fn for fn in dense):
                        monkeypatch.setattr(module, key, refuse)
        assert qorsim.fiber.span_channel_stack is refuse
        if engine == "run_plan":
            run_plan(rc, technology="both", trials=100, seed=1)
        else:
            repeater.simulate_chain_analytic(build_chain(rc))

    def test_defaults_flow_into_verdict(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0],
                                    defaults={"max_heralding_km": 20.0}))
        rep = run_plan(rc, technology=TECH_ENTANGLEMENT, trials=50, seed=1)
        assert not rep["verdict"]["feasible"]

    def test_overrides_flow_into_verdict(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        assert run_plan(rc, technology=TECH_ENTANGLEMENT, trials=50, seed=1)["verdict"]["feasible"]
        short = replace(rc, params={**rc.params, "max_heralding_km": 20.0})
        rep = run_plan(short, technology=TECH_ENTANGLEMENT, trials=50, seed=1)
        assert not rep["verdict"]["feasible"]
        with pytest.raises(ConfigError, match=re.escape(
                "defaults 'max_heralding_km' must lie in (0, inf), got -5.0")):
            replace(rc, params={**rc.params, "max_heralding_km": -5.0})

    @pytest.mark.parametrize("tech", [TECH_ONE_WAY, TECH_ENTANGLEMENT, "both"])
    @pytest.mark.parametrize("kw, message", [
        ({"trials": -5, "seed": "abc"}, "trials must be a positive integer"),
        ({"seed": "abc"}, "seed must be a non-negative integer"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"trials": 2.0}, "trials must be a positive integer"),
        ({"trials": 2**32 + 1}, "at most 4294967296 trials"),
        ({"workers": 0}, "worker count must be a positive integer"),
    ])
    def test_run_parameters_checked_for_every_technology(self, tmp_path, monkeypatch,
                                                         tech, kw, message):
        # A one-way plan runs no Monte Carlo, yet its report records the
        # seed and trials; every plan checks them before building anything.
        import qorsim.planner as planner

        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        monkeypatch.setattr(planner, "build_chain", lambda *a, **k: pytest.fail("plan ran"))
        with pytest.raises(ConfigError, match=message):
            run_plan(rc, technology=tech, **{"trials": 10, "seed": 1, **kw})

    @pytest.mark.parametrize("tech", [TECH_ONE_WAY, TECH_ENTANGLEMENT])
    @pytest.mark.parametrize("params, message", [
        ({"one_way_loss_threshold_db": 0}, "'one_way_loss_threshold_db' must lie in (0, inf), got 0"),
        ({"max_heralding_km": -5}, "'max_heralding_km' must lie in (0, inf), got -5"),
    ], ids=["loss-threshold", "heralding-reach"])
    def test_requirement_parameters_checked_for_every_technology(
            self, tmp_path, monkeypatch, tech, params, message):
        # Each technology reads only one of the two keys; the route is
        # refused when it is loaded, before a plan of either.
        import qorsim.planner as planner

        path = write_route(tmp_path, [0.0, 25.0, 50.0], defaults=params)
        monkeypatch.setattr(planner, "build_chain", lambda *a, **k: pytest.fail("plan ran"))
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_plan(load_route(path), technology=tech, trials=10)


def _brace_keys(tokens) -> dict:
    """Keys of a brace group of README's report layout, read from the token
    after its "{": "a, b: [{c}]}" gives {"a": None, "b": {"c": None}}."""
    keys = {}
    for tok in tokens:
        if tok == "}":
            return keys
        if tok == "{":
            keys[key] = _brace_keys(tokens)
        else:
            key = tok
            keys[key] = None
    raise AssertionError("unclosed brace in README's report layout")


def _key_tree(val):
    """A report value's keys as _brace_keys gives them; a list of objects
    by its first entry."""
    if isinstance(val, list) and val:
        val = val[0]
    return {k: _key_tree(v) for k, v in val.items()} if isinstance(val, dict) else None


class TestReportLayout:
    def test_readme_layout_is_report(self, tmp_path):
        # README's report layout, section by section: against a real report
        # (the one-way one for its violations), and the qkd and verdict
        # sections against the fields of the types they serialise.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme[readme.index("## Reports"):].split("```")[1]
        layout = {}
        for line in block.strip().splitlines():
            name, _, rest = line.partition(" ")
            tokens = iter(re.findall(r"\w+|[{}]", rest))
            layout[name] = _brace_keys(tokens) if next(tokens, None) == "{" else None
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        entanglement, one_way = run_plan(rc, "both", trials=50, seed=1)
        assert one_way["verdict"]["violations"]
        assert list(layout) == list(entanglement)
        report = {**entanglement, "verdict": one_way["verdict"]}
        for name, keys in layout.items():
            # Compared as JSON text, so that key order counts too.
            assert json.dumps(_key_tree(report[name])) == json.dumps(keys), name

        def names(cls):
            return [f.name for f in fields(cls)]
        assert list(layout["qkd"]) == names(QkdMetrics)
        assert list(layout["verdict"]) == names(FeasibilityVerdict)
        assert list(layout["verdict"]["violations"]) == names(Violation)


# A key the corrupted report drops.
_DROP = object()


class TestValidateReport:
    @pytest.fixture()
    def report(self, tmp_path):
        rc = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        return run_plan(rc, technology=TECH_ENTANGLEMENT, trials=50, seed=1)

    def _expect_fail(self, rep, match):
        with pytest.raises(ConfigError, match=match):
            validate_report(rep)

    def test_missing_section(self, report):
        rep = copy.deepcopy(report)
        del rep["qkd"]
        self._expect_fail(rep, "bad keys")

    def test_extra_key(self, report):
        rep = copy.deepcopy(report)
        rep["notes"] = "hello"
        self._expect_fail(rep, "bad keys")

    def test_wrong_schema_version(self, report):
        rep = copy.deepcopy(report)
        rep["schema_version"] = 99
        self._expect_fail(rep, "schema_version")

    def test_span_index_order(self, report):
        rep = copy.deepcopy(report)
        rep["spans"][0], rep["spans"][1] = rep["spans"][1], rep["spans"][0]
        self._expect_fail(rep, "index out of order")

    def test_nan_span_field(self, report):
        rep = copy.deepcopy(report)
        for bad in (float("nan"), float("inf"), float("-inf")):
            rep["spans"][0]["fidelity"] = bad
            self._expect_fail(rep, "finite number")

    def test_entanglement_requires_simulation(self, report):
        rep = copy.deepcopy(report)
        rep["end_to_end"] = None
        self._expect_fail(rep, "end_to_end")

    def test_feasible_with_violations_rejected(self, report):
        rep = copy.deepcopy(report)
        rep["verdict"]["violations"] = [
            {"requirement": "R1-coexistence", "span_index": None, "detail": "x"}
        ]
        self._expect_fail(rep, "cannot carry violations")

    @pytest.mark.parametrize("path, value, match", [
        ((), ["not", "an", "object"], "report must be an object"),
        (("technology",), "smoke-signals", "technology must be one of"),
        (("route", "length_km"), _DROP, "route must have exactly"),
        (("spans",), [], "spans must be a nonempty list"),
        (("spans", 0, "fidelity"), _DROP, "spans\\[0\\] must have exactly"),
        (("qkd", "secure"), _DROP, "qkd must have exactly"),
        (("technology",), TECH_ONE_WAY, "one_way reports carry null"),
        (("verdict", "feasible"), _DROP, "verdict must have exactly"),
        (("verdict", "feasible"), "yes", "feasible must be a boolean"),
        (("verdict", "violations"), 5, "violations must be a list"),
        (("verdict", "violations"), None, "violations must be a list"),
        (("provenance", "seed"), _DROP, "provenance must have exactly"),
    ], ids=[
        "not-object", "technology", "route-key", "no-spans", "span-keys", "qkd-keys",
        "one-way-simulation", "verdict-keys", "feasible-type", "violations-int",
        "violations-none", "provenance-keys",
    ])
    def test_malformed_report_is_config_error(self, report, path, value, match):
        rep = copy.deepcopy(report)
        if not path:
            rep = value
        else:
            *parents, key = path
            target = rep
            for step in parents:
                target = target[step]
            if value is _DROP:
                del target[key]
            else:
                target[key] = value
        self._expect_fail(rep, match)

    @pytest.mark.parametrize("section, key, value", [
        ("end_to_end", "latency_s", math.inf),
        ("end_to_end", "fidelity", "x"),
        ("end_to_end", "pair_rate_hz", True),
        ("qkd", "qber", math.nan),
        ("qkd", "sifted_rate_hz", None),
        ("qkd", "secret_key_rate_hz", -math.inf),
        ("qkd", "secure", 1.0),
        ("qkd", "secure", None),
    ], ids=[
        "latency-inf", "fidelity-str", "rate-bool", "qber-nan", "sifted-none",
        "key-rate-neg-inf", "secure-float", "secure-none",
    ])
    def test_simulation_numbers_are_checked(self, report, section, key, value):
        rep = copy.deepcopy(report)
        rep[section][key] = value
        kind = "a boolean" if key == "secure" else "a finite number"
        self._expect_fail(rep, re.escape(f"{section}.{key} must be {kind}"))

    @pytest.mark.parametrize("edits, match", [
        ({("schema_version",): True}, "schema_version must be 1"),
        ({("route", "length_km"): math.nan}, "route.length_km must be a finite number"),
        ({("route", "notes"): "x"}, "route must have exactly"),
        ({("route", "coexistence"): "yes"}, "route.coexistence must be a boolean"),
        ({("route", "site_count"): "three"}, "route.site_count must be an integer"),
        ({("spans", 1, "index"): True}, "spans[1].index must be an integer"),
        ({("spans", 0, "index"): 0.0}, "spans[0].index must be an integer"),
        ({("provenance", "seed"): "x"}, "provenance.seed must be an integer"),
        ({("provenance", "trials"): math.nan}, "provenance.trials must be an integer"),
        ({("provenance", "config_hash"): 5}, "provenance.config_hash must be a string"),
        ({("verdict", "feasible"): False, ("verdict", "violations"): [
            {"requirement": "R1-coexistence", "span_index": "0", "detail": 5}]},
         "violations[0].span_index must be an integer or null"),
        ({("verdict", "feasible"): False}, "infeasible verdict must carry violations"),
    ], ids=[
        "schema-version-bool", "route-length-nan", "route-extra-key", "route-coexistence-str",
        "route-site-count-str", "span-index-bool", "span-index-float", "provenance-seed-str",
        "provenance-trials-nan", "provenance-hash-int", "violation-types", "infeasible-no-violations",
    ])
    def test_every_value_type_is_checked(self, report, edits, match):
        # Each probe breaks one value's type, one section's key set, or the
        # agreement of verdict.feasible with its violations.
        rep = copy.deepcopy(report)
        for (*parents, key), value in edits.items():
            target = rep
            for step in parents:
                target = target[step]
            target[key] = value
        self._expect_fail(rep, re.escape(match))

    def test_violation_shape(self, report):
        rep = copy.deepcopy(report)
        rep["verdict"]["feasible"] = False
        rep["verdict"]["violations"] = [{"requirement": "R1-coexistence"}]
        self._expect_fail(rep, "violations\\[0\\]")


# Library defaults that restate a route key's default: (owner, parameter,
# route key). The route key memory_cutoff defaults to 0, "the coherence
# time", so RepeaterChain's cutoff restates memory_coherence_time.
LIBRARY_DEFAULTS = [
    (repeater.MemorySpec, "coherence_time", "memory_coherence_time"),
    (repeater.MemorySpec, "write_efficiency", "memory_write_efficiency"),
    (repeater.MemorySpec, "read_efficiency", "memory_read_efficiency"),
    (repeater.MemorySpec, "cryogenic_required", "memory_cryogenic"),
    (repeater.QorsNode, "bsm_success_prob", "bsm_success_prob"),
    (repeater.QorsNode, "bsm_visibility_penalty", "bsm_visibility_penalty"),
    (repeater.QorsNode, "detector_efficiency", "detector_efficiency"),
    (repeater.RepeaterChain, "attempt_rate", "attempt_rate"),
    (repeater.RepeaterChain, "memory_cutoff", "memory_coherence_time"),
    (OneWayRepeaterSpec, "loss_threshold_db", "one_way_loss_threshold_db"),
    (OneWayRepeaterSpec, "cryogenic_required", "one_way_cryogenic"),
    (assess_chain, "max_heralding_km", "max_heralding_km"),
    (qec_max_span, "loss_threshold_db", "one_way_loss_threshold_db"),
]


@pytest.mark.parametrize("owner, name, key", LIBRARY_DEFAULTS,
                         ids=[f"{o.__name__}.{n}" for o, n, _ in LIBRARY_DEFAULTS])
def test_library_defaults_are_the_route_defaults(owner, name, key):
    # A library default that drifted from PARAMS would give a chain built
    # in code other numbers than the same route loaded from a file.
    default = inspect.signature(owner).parameters[name].default
    want = DEFAULT_PARAMS[key]
    assert (type(default), default) == (type(want), want)
