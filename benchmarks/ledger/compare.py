"""Compare two ledger files, metric by metric, against the fixed bounds.

    python benchmarks/ledger/compare.py BASE.json NEW.json

Each file is what ``run.py --out`` writes: a JSON list of records, one
per run of the same commit.  For every workload x end-to-end metric the
medians of the two sides are compared with the bound ``BENCHMARK.json``
fixes for that metric.  When a side's own records differ by more than
the bound the row says ``unresolved`` — the runs cannot tell a change
of that size from noise — never ``unchanged``.  Exit status is 1 on any
regression or on more failed operations than the base saw.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def _records(path: str) -> list[dict]:
    loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    return loaded if isinstance(loaded, list) else [loaded]


def _values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [
        record["workloads"][workload]["end_to_end"]["metrics"][metric]
        for record in records
        if workload in record["workloads"]
    ]


def _spread(values: list[float]) -> float:
    """Range over median of one side's own runs (0 with a single run)."""
    return (max(values) - min(values)) / statistics.median(values) if len(values) > 1 else 0.0


def _failed_share(records: list[dict], workload: str) -> float:
    runs = [
        run
        for record in records
        if workload in record["workloads"]
        for run in (record["workloads"][workload]["end_to_end"], record["workloads"][workload]["per_layer"])
    ]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(base: list[dict], new: list[dict], manifest: dict) -> tuple[list[str], bool]:
    """The report lines and whether anything regressed."""
    lines = [
        f"{'workload':<14} {'metric':<24} {'base':>12} {'new':>12} {'new/base':>9}  verdict"
    ]
    regressed = False
    for workload in (entry["name"] for entry in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old, cur = _values(base, workload, name), _values(new, workload, name)
            if not old or not cur:
                lines.append(f"{workload:<14} {name:<24} {'-':>12} {'-':>12} {'-':>9}  missing")
                continue
            old_median, cur_median = statistics.median(old), statistics.median(cur)
            change = (cur_median - old_median) / old_median
            worse_by = change if metric["better"] == "lower" else -change
            own = max(_spread(old), _spread(cur))
            if own > bound:
                verdict = f"unresolved (own runs differ by {own:.0%} > {bound:.0%})"
            elif worse_by > bound:
                verdict = f"REGRESSION (worse by {worse_by:.1%} > {bound:.0%})"
                regressed = True
            elif worse_by < -bound:
                verdict = f"improved by {-worse_by:.1%}"
            else:
                verdict = "unchanged"
            lines.append(
                f"{workload:<14} {name:<24} {old_median:>12.5g} {cur_median:>12.5g} "
                f"{cur_median / old_median:>9.3f}  {verdict}"
            )
        old_failed, cur_failed = _failed_share(base, workload), _failed_share(new, workload)
        verdict = "unchanged"
        if cur_failed > old_failed:
            verdict, regressed = "MORE FAILURES", True
        lines.append(
            f"{workload:<14} {'failed_share':<24} {old_failed:>12.5g} {cur_failed:>12.5g} "
            f"{'-':>9}  {verdict}"
        )
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, regressed = compare(_records(argv[0]), _records(argv[1]), manifest)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
