"""Ledger smoke: short traced runs of the miss, hit and churn paths.

Runs ``benchmarks/ledger/run.py --workload W --seed 7 --seconds 5
--trace 1`` for ``full_ranking``, ``herd_miss``, ``zipf_steady`` (95 %
hits) and ``churn_writes`` (the one workload that evicts and re-mints
sessions beside engines carrying their last context binding; its
oracle checks answers with eviction semantics) and fails when the run's JSON line reports a failed
operation or ``trace.resolved_share`` below 1 — a traced entry point
that was renamed (or an answer that stopped matching the oracle) then
breaks CI instead of silently blanking a row of the per-layer account.
No timing is asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("full_ranking", "herd_miss", "zipf_steady", "churn_writes")


def smoke(workload: str) -> list[str]:
    """Problems found in one traced run (empty = fine)."""
    command = [
        sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "5", "--trace", "1",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"no JSON line (exit {done.returncode}): {done.stderr.strip()[-400:]}"]
    problems = []
    if done.returncode != 0:
        problems.append(f"exit code {done.returncode}")
    if record.get("failed", 1) > 0 or not record.get("correct", False):
        problems.append(f"failed {record.get('failed')} of {record.get('attempted')} operations")
    resolved = record.get("metrics", {}).get("trace.resolved_share", {}).get("value", 0.0)
    if resolved < 1.0:
        problems.append(f"trace.resolved_share {resolved} < 1: a traced target no longer resolves")
    return problems


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        problems = smoke(workload)
        print(f"ledger-smoke: {workload}: {'ok' if not problems else '; '.join(problems)}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
