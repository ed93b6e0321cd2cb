"""Smoke test of the serving ledger (collected by the tier-1 run).

One ``run.py --smoke`` — tiny worlds, sub-second windows, the traced
run included — must name every workload and metric ``BENCHMARK.json``
declares, with its unit, see no failed operation, resolve every traced
target, and send exactly the request bytes the seed-42 digests pin.
It measures nothing: no assertion here looks at a time.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: SHA-256 of the first ``digest_ops`` request payloads at seed 42.  A
#: change here means the load changed: every earlier record is void.
SEED_42_DIGESTS = {
    "zipf_steady": "7c3af6e9b5b8eb92dfdc2c475d600290d51acfbe0f284195345c2c11188ffc36",
    "herd_miss": "4b487662c2b3ef3d041f953fd4ba69228cde53bf605a7bfcb33271a3d3cbf37c",
    "full_ranking": "fdc7d841a248da83fffd46c8e149295e0c118dce6e41fe482c3895119669bc43",
    "churn_writes": "a8843134bb8a76bc02ef38aa0f10f3a6de17e438615c369e6aa30e0057379cd5",
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_is_well_formed():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[section]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    for entry in MANIFEST["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25, entry
    setup = next(entry for entry in MANIFEST["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(SEED_42_DIGESTS) == {entry["name"] for entry in MANIFEST["workloads"]}


@pytest.fixture(scope="module")
def smoke_run():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "42"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_smoke_names_every_metric_with_its_unit(smoke_run):
    printed, record = smoke_run
    for workload in SEED_42_DIGESTS:
        for section, title in (("end_to_end", "end to end"), ("per_layer", "per layer")):
            start = next(
                index for index, line in enumerate(printed)
                if line.startswith(f"{workload}: {title}")
            )
            block = []
            for line in printed[start + 1 :]:
                if not line.startswith("  "):
                    break
                block.append(line.split())
            shown = {fields[0]: fields[-1] for fields in block}
            for entry in MANIFEST[section]:
                assert shown.get(entry["name"]) == entry["unit"], (workload, entry)
            assert set(record["workloads"][workload][section]["metrics"]) == {
                entry["name"] for entry in MANIFEST[section]
            }


def test_smoke_answers_are_right_and_traced(smoke_run):
    _printed, record = smoke_run
    for workload, entry in record["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            assert entry[section]["failed"] == 0, (workload, section)
            assert entry[section]["attempted"] >= 1
        assert entry["end_to_end"]["also"]["failed_share"] == 0
        layers = entry["per_layer"]["metrics"]
        assert layers["trace.resolved_share"] >= 0.99, entry["per_layer"]["also"]
        assert layers["trace.joined_share"] >= 0.99
        assert layers["aio.requests"] > 0
    assert record["workloads"]["herd_miss"]["per_layer"]["metrics"]["cache.hit_ratio"] <= 0.01


def test_seed_42_sends_the_pinned_bytes(smoke_run):
    _printed, record = smoke_run
    assert record["stamp"]["seed"] == 42
    assert {
        workload: entry["digest"] for workload, entry in record["workloads"].items()
    } == SEED_42_DIGESTS
