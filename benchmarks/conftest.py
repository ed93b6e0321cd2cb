"""Shared fixtures and result persistence for the benchmark harness.

Every benchmark writes the table(s) it regenerates to
``benchmarks/results/<experiment>.txt`` — the paper-versus-measured rows
of :mod:`repro.reporting.records` — in addition to asserting the
claims.  Alongside each table, a machine-readable
``benchmarks/results/<experiment>.json`` record (variant timings,
speedups) makes the perf trajectory diffable across PRs.

``REPRO_BENCH_SMOKE=1`` shrinks the workloads and skips the
performance assertions — the CI smoke job uses it to keep the scripts
importable and runnable without paying full benchmark time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Set by the CI smoke job: tiny sizes, no perf assertions.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


@pytest.fixture(scope="session")
def save_result():
    """Persist a named result table under benchmarks/results/.

    Smoke runs skip the write so tiny-size tables never clobber the
    committed full-size artifacts.
    """

    def _save(name: str, text: str) -> Path | None:
        if SMOKE:
            return None
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return _save


def _git_revision() -> str | None:
    """The repo's HEAD commit, or None outside a usable git checkout."""
    try:
        import subprocess

        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = proc.stdout.strip()
    return revision if proc.returncode == 0 and revision else None


@pytest.fixture(scope="session")
def save_json():
    """Persist a named machine-readable record under benchmarks/results/.

    Smoke runs skip the write: tiny-size numbers would otherwise
    clobber the committed full-size records.  Every record is stamped
    with the machine's ``cpu_count`` and the ``git_revision`` it was
    measured at, so committed numbers stay comparable across boxes.
    """

    def _save(name: str, record: dict) -> Path | None:
        if SMOKE:
            return None
        record = dict(record)
        record.setdefault("cpu_count", os.cpu_count())
        record.setdefault("git_revision", _git_revision())
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
        path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path

    return _save


@pytest.fixture(scope="session")
def tvtouch_world():
    """The Table 1 world with the Section 4.2 context installed."""
    from repro.workloads import build_tvtouch, set_breakfast_weekend_context

    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    return world


@pytest.fixture(scope="session")
def section5_world():
    """The full-size Section 5 test database (~11,000 tuples)."""
    from repro.workloads import generate_test_database, install_context_series

    world = generate_test_database(seed=7)
    install_context_series(world, k=12, seed=11)
    return world
