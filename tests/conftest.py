"""Shared fixtures: deterministic RNG, route files."""

import json

import numpy as np
import pytest


ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def write_route(tmp_path, positions, name="test-route", band="O",
                fiber_type="NDSF", coexistence=True, defaults=None,
                filename="route.json"):
    """Route file with endpoint/ila kinds inferred from position order."""
    sites = []
    for i, pos in enumerate(positions):
        kind = "endpoint" if i in (0, len(positions) - 1) else "ila"
        sites.append({"name": f"S{i}", "position_km": pos, "kind": kind})
    body = {
        "name": name,
        "fiber_type": fiber_type,
        "quantum_band": band,
        "coexistence": coexistence,
        "sites": sites,
    }
    if defaults is not None:
        body["defaults"] = defaults
    path = tmp_path / filename
    path.write_text(json.dumps(body))
    return str(path)
