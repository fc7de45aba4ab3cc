"""Shared benchmark fixtures: the reference sweep + the --bench-quick knob."""

from __future__ import annotations

import pytest

from repro.experiment import run_all_domains


def pytest_addoption(parser):
    parser.addoption(
        "--bench-quick",
        action="store_true",
        default=False,
        help="shrink benchmark workloads for CI smoke runs; timing "
             "assertions that depend on the host are skipped",
    )


@pytest.fixture(scope="session")
def bench_quick(request) -> bool:
    """True when the suite runs in CI-smoke mode (small workloads, no
    hardware-dependent timing assertions)."""
    return bool(request.config.getoption("--bench-quick"))


@pytest.fixture(scope="session")
def reference_runs():
    """The seed-0 sweep over all seven domains (the paper's 150 sources)."""
    return run_all_domains(seed=0)
