"""Bench record: one ledger run kept at the repo root as ``BENCH_<n>.json``.

``python scripts/bench_record.py`` runs the serving ledger
(``benchmarks/ledger/run.py --out FILE``, unmodified: the four workloads,
end to end and traced) into a temporary file, adds the box it ran on —
``nproc`` and the CPU model from ``/proc/cpuinfo`` — and writes the
record as the next ``BENCH_<n>.json`` beside this repository's earlier
ones.  It then prints every end-to-end metric beside the latest earlier
record's.

It asserts nothing: records made on different boxes do not compare, and
the box is in each record so a reader can tell, as is whether the
measured tree had uncommitted changes on top of its stamped revision
(``worktree_modified``).  ``--checkout DIR`` runs another checkout's
ledger (say, the parent commit's, exported with ``git archive``) while
still writing the record here, so two commits are recorded on one box
by one script.  Other arguments (``--seconds``, ``--seed``) go to
``run.py`` as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"BENCH_(\d+)\.json$")


def box() -> dict:
    """What the record was measured on."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def modified(checkout: Path) -> bool | None:
    """Do the checkout's tracked files differ from its git revision?

    The ledger stamps ``git rev-parse HEAD``; an uncommitted change
    measured on top of it says so here.  ``None`` outside a git checkout
    (an exported tree: its stamp has no revision either).
    """
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=checkout, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def records(root: Path) -> list[tuple[int, Path]]:
    """The ``BENCH_<n>.json`` files at ``root``, oldest first."""
    found = []
    for path in root.iterdir():
        match = RECORD.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def end_to_end(record: dict) -> dict[str, dict]:
    """``workload -> metric -> value`` of one record."""
    return {
        name: workload["end_to_end"]["metrics"]
        for name, workload in record.get("workloads", {}).items()
    }


def show(new: dict, old: dict | None) -> None:
    """Each end-to-end metric of ``new`` beside ``old``'s, when there is one."""
    for workload, metrics in end_to_end(new).items():
        earlier = end_to_end(old).get(workload, {}) if old is not None else {}
        print(f"  {workload}")
        for metric, value in metrics.items():
            before = earlier.get(metric)
            if before is None:
                print(f"    {metric:<24}{value:>12.4g}")
            else:
                change = (value / before - 1.0) * 100 if before else float("nan")
                print(f"    {metric:<24}{value:>12.4g}  (was {before:.4g}, {change:+.1f} %)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--checkout", default=str(ROOT), help="the tree whose ledger runs (default: this one)"
    )
    args, passed = parser.parse_known_args(argv)
    ledger = Path(args.checkout).resolve() / "benchmarks" / "ledger" / "run.py"
    if not ledger.is_file():
        print(f"error: no ledger at {ledger}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        out = Path(scratch) / "record.json"
        done = subprocess.run(
            [sys.executable, str(ledger), "--out", str(out), *passed], cwd=ledger.parents[2]
        )
        if not out.is_file():
            print(f"error: the ledger wrote no record (exit {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        record = json.loads(out.read_text(encoding="utf-8"))[-1]
    record["box"] = box()
    record["worktree_modified"] = modified(ledger.parents[2])
    earlier = records(ROOT)
    number = earlier[-1][0] + 1 if earlier else 1
    path = ROOT / f"BENCH_{number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    previous = json.loads(earlier[-1][1].read_text(encoding="utf-8")) if earlier else None
    print(f"{path.name}: {record['box']}")
    if previous is not None:
        print(f"beside {earlier[-1][1].name}: {previous.get('box')}")
    show(record, previous)
    return done.returncode


if __name__ == "__main__":
    raise SystemExit(main())
