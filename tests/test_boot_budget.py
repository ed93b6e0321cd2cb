"""The boot budget: a worker loads what serving uses.

``repro serve`` on the default TVTouch world ranks four programs.  It
must not import numpy for that (the kernel's size rule compiles sets
under ``VECTOR_MIN`` rows on flat lists), nor the subsystems no request
has asked for — the SQL front end and sqlite3, the miner, the history
log, the IR baseline, the multi-user ranker, the report tables, the
traffic generator, ``http.server`` and ``email``, and the oracle
probability engines.  Everything runs in subprocesses:
what *this* interpreter has loaded says nothing about a fresh worker.
The subprocess helpers and the boot twin are ``scripts/boot_report.py``'s
— the table that script prints and the budget asserted here read the
same boot.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("boot_report", ROOT / "scripts" / "boot_report.py")
boot_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(boot_report)

#: Modules a TVTouch worker must not have loaded after its first rank.
FORBIDDEN = (
    "numpy",
    "sqlite3",
    "http.server",
    "email",
    "repro.storage.sql",
    "repro.storage.algebra",
    "repro.mining",
    "repro.history",
    "repro.ir",
    "repro.multiuser",
    "repro.reporting",
    "repro.workloads.traffic",
    "repro.workloads.generator",
    "repro.events.bdd",
    "repro.events.dnf",
    "repro.events.montecarlo",
)

#: ``repro`` modules a worker may hold after boot + one rank, the
#: event-loop gateway included (the parent of this budget held 102),
#: and after a bare ``import repro``.
MAX_REPRO_MODULES = 60
MAX_BARE_IMPORT = 5

CONTEXT = ["Weekend", "Breakfast"]
RANK_PATH = "/rank?tenant=alice&context=Weekend&context=Breakfast"

#: ``repro serve --port 0`` on the default world — the CLI's own config
#: and factory — with one ``service.rank`` where the loop would start.
TWIN = boot_report.twin(CONTEXT, [])


def repro_modules(modules):
    return [name for name in modules if name == "repro" or name.startswith("repro.")]


def loaded(modules, name):
    return [m for m in modules if m == name or m.startswith(name + ".")]


def assert_table1_winner(item):
    assert item["document"] == "channel5_news"
    assert item["score"] == pytest.approx(0.6006, abs=1e-9)


def test_bare_import_loads_almost_nothing():
    modules = boot_report.run_child(boot_report.BARE_IMPORT, SRC)["modules"]
    assert len(repro_modules(modules)) <= MAX_BARE_IMPORT, repro_modules(modules)
    assert not loaded(modules, "numpy")


def test_twin_boot_stays_inside_the_budget():
    twin = boot_report.run_child(TWIN, SRC)
    assert_table1_winner(twin["top"])
    modules = twin["modules"]
    dragged_in = {name: loaded(modules, name) for name in FORBIDDEN if loaded(modules, name)}
    assert not dragged_in, dragged_in
    ours = repro_modules(modules)
    assert len(ours) <= MAX_REPRO_MODULES, (len(ours), ours)


def test_real_serve_answers_table1_without_numpy():
    reading = boot_report.boot_once(SRC, [], RANK_PATH, None)
    assert reading["status"] == 200
    assert_table1_winner(reading["top"])
    assert reading["numpy_loaded"] is False
    assert 0 < reading["repro_modules_loaded"] <= MAX_REPRO_MODULES, reading
    assert reading["exit_code"] == 0
