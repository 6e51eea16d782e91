"""A/A steadiness report: two interleaved sets of runs of one commit.

Usage (from the root of a checkout)::

    python3 perfbench/aa.py                       # 2 sets x 10 seeds, all workloads
    python3 perfbench/aa.py --workloads design_sweep --runs 5
    python3 perfbench/aa.py --exact-counts        # two traced runs per workload

Runs ``BENCHMARK.json``'s command ``--runs`` times in each of two sets
on each workload, seed ``i`` for the ``i``-th run of both sets,
alternating the sets run by run (A1 B1 A2 B2 ...).  For every workload x
end-to-end metric it prints each set's quartiles, the spread
(q3 - q1) / median, and whether the metric passes: both sets' spreads
within the metric's bound, and the two medians apart by at most the
bound (as a share of set A's median, in either direction).  Exits 1 when
any metric fails or a run fails.

``--exact-counts`` instead makes two traced runs of seed 1 per workload
and checks that they agree on every count in ``ledger.EXACT_COUNTS``
(service_mixed is open loop and timing-dependent, so it is reported but
not required to agree).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import EXACT_COUNTS  # noqa: E402
from stats import quartile_spread  # noqa: E402

#: Workloads whose exact counts must repeat for a fixed seed.
_EXACT_WORKLOADS = ("management_loop", "design_sweep", "mc_fleet")


def _run(command: list[str], workload: str, seed: int, seconds: int,
         trace: int = 0) -> tuple[dict, str]:
    """One benchmark run: its metrics and everything it printed."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed, "
                           f"correct={result['correct']}")
    return result["metrics"], proc.stdout


def _drift(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Negative when ``second`` is better.
    """
    change = (second - first) / first
    return change if better == "lower" else -change


def _exact_counts(command: list[str], workloads: list[str], seconds: int) -> bool:
    ok = True
    for workload in workloads:
        (first, printed), (second, _) = (
            _run(command, workload, 1, seconds, trace=1) for _ in range(2)
        )
        print(f"\n{workload}")
        print("\n".join(printed.splitlines()[:-2]))
        for name in EXACT_COUNTS:
            a, b = first[name]["value"], second[name]["value"]
            required = workload in _EXACT_WORKLOADS
            verdict = "ok" if a == b else ("DIFFERS" if required else "differs (timing)")
            ok = ok and (a == b or not required)
            print(f"  {name:<30} {a:>12.6g} {b:>12.6g}  {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--exact-counts", action="store_true",
                        help="compare exact counts of two traced runs instead")
    args = parser.parse_args(argv)
    if args.exact_counts:
        return 0 if _exact_counts(spec["command"], args.workloads, args.seconds) else 1

    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads:
        sets: list[list[dict]] = [[], []]
        for seed in range(1, args.runs + 1):
            for index in range(2):
                started = time.monotonic()
                sets[index].append(_run(spec["command"], workload, seed, args.seconds)[0])
                values = " ".join(f"{m['name']}={sets[index][-1][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"# {workload} set {'AB'[index]} seed {seed}: "
                      f"{time.monotonic() - started:.1f} s {values}", file=sys.stderr)
        print(f"\n{workload}")
        print(f"  {'metric':<20} {'set':<3} {'q1':>10} {'median':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            rows = [
                quartile_spread([run[name]["value"] for run in runs]) for runs in sets
            ]
            verdicts = []
            if any(row[3] > bound for row in rows):
                verdicts.append("spread>bound")
            drift = _drift(rows[0][1], rows[1][1], metric["better"])
            if abs(drift) > bound:
                verdicts.append(f"B {'worse' if drift > 0 else 'better'} by {abs(drift):.1%}")
            verdict = ", ".join(verdicts) or "ok"
            ok = ok and verdict == "ok"
            for index, (q1, median, q3, spread) in enumerate(rows):
                print(f"  {name:<20} {'AB'[index]:<3} {q1:>10.4g} {median:>10.4g} "
                      f"{q3:>10.4g} {spread:>7.1%} {bound:>6.0%}  "
                      f"{verdict if index == 1 else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
