"""The benchmark command: one workload, one seed, one timed window.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload management_loop --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs ``SESSIONS[workload]`` session processes one
after another, each setting the workload up with a fresh cache root and
timing an equal share of the window, and reports the six end-to-end
metrics over their pooled requests, except that ``latency_p50_ms`` is the
mean of the sessions' medians and ``setup_s`` the median set-up.
With ``--trace 1`` it runs one untraced session and one traced session,
each timing the whole window, and reports the per-layer ledger
(``perfbench/README.md``).  The
last stdout line is the JSON result; earlier lines record the
environment and, for traced runs, the self-time table.  The exit code is
1 when a request failed or a correctness check mismatched (the result
line is still printed), 2 on a bad environment, 1 when a session crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ledger import LAYER_METRICS  # noqa: E402
from stats import percentile, samples_beyond  # noqa: E402

WORKLOADS = ("management_loop", "design_sweep", "service_mixed", "mc_fleet")
#: Session processes per untraced run.  Each gives one set-up for
#: ``setup_s`` and one median for ``latency_p50_ms``'s average.
#: service_mixed keeps three, so that each session's share of a 20 s
#: window holds two whole blocks of 20 arrivals at 6/s; mc_fleet, whose
#: set-up boots two servers, keeps three to bound the run's length.
SESSIONS = {"management_loop": 5, "design_sweep": 5, "service_mixed": 3, "mc_fleet": 3}
#: Kernel switches that must sit at their defaults for comparable runs.
DEFAULTS = {"REPRO_PRECISION": "float64", "REPRO_KERNELS": "on", "REPRO_ARTIFACTS": "on"}
#: Every session must end within this many seconds (a run has 180).
SESSION_TIMEOUT_S = 150.0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def _environment(repo: Path) -> dict[str, Any]:
    """Where and with what the run measured (recorded with the result)."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    fs_type = "unknown"
    try:
        best = ""
        for line in Path("/proc/mounts").read_text().splitlines():
            mount, kind = line.split()[1], line.split()[2]
            if str(repo).startswith(mount) and len(mount) > len(best):
                best, fs_type = mount, kind
    except (OSError, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "libraries": versions,
        "load_average": os.getloadavg(),
        "cache_filesystem": fs_type,
        **{name: os.environ.get(name, default) for name, default in DEFAULTS.items()},
    }


def _session_env(repo: Path, root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for name in _THREAD_VARS:
        env[name] = "1"
    env.pop("REPRO_JOBS", None)
    env["REPRO_EXEC_BACKEND"] = "serial"
    env["PYTHONPATH"] = str(repo / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(root / "cache")
    env["REPRO_ARTIFACT_CACHE_DIR"] = str(root / "artifacts")
    env["REPRO_SHARED_CACHE_DIR"] = str(root / "shared-cache")
    return env


def _session(args: argparse.Namespace, repo: Path, run_root: Path, mode: str,
             part: int, seconds: float, deadline: float) -> dict[str, Any]:
    """One session process with a fresh cache root; returns its report.

    ``part`` numbers the session within the run: it selects the session's
    request stream, and the last untraced session (or any traced run's
    session) also runs the correctness checks.
    """
    root = run_root / f"{mode}-{part}"
    checks = bool(args.trace) or part == SESSIONS[args.workload] - 1
    root.mkdir(parents=True)
    launch = time.time()
    with open(root / "session.stderr", "wb") as err:
        # Its own session, so a timeout can kill the servers it started too.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "session.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--part", str(part), "--seconds", str(seconds),
             "--rate", str(args.rate), "--checks", str(int(checks)),
             "--mode", mode, "--root", str(root), "--launch", repr(launch)],
            stdout=subprocess.PIPE,
            stderr=err,
            env=_session_env(repo, root),
            cwd=repo,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, min(SESSION_TIMEOUT_S, deadline - time.monotonic()))
            )
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (root / "session.stderr").read_text(errors="replace")[-3000:]
        raise RuntimeError(f"{mode} session failed ({proc.returncode}):\n{tail}")
    return json.loads(lines[-1])


def _latencies_ms(report: dict[str, Any], seconds: float) -> list[float]:
    """Latencies in ms; a failed request counts as the whole window."""
    return [
        1e3 * (value if value != float("inf") else seconds)
        for value in report["latencies_s"]
    ]


def _pool(reports: list[dict[str, Any]], seconds: float) -> dict[str, Any]:
    """The sessions' timed windows as one: samples joined, counts summed."""
    return {
        "latencies_ms": [v for r in reports for v in _latencies_ms(r, seconds)],
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "wall_s": sum(r["wall_s"] for r in reports),
        "cpu_s": sum(r["cpu_s"] for r in reports),
    }


def _end_to_end(reports: list[dict[str, Any]],
                seconds: float) -> dict[str, dict[str, Any]]:
    """The six end-to-end metrics of an untraced run's sessions.

    The median is taken per session and averaged over the sessions: the
    shared host changes speed for tens of seconds at a time, and a median
    of the pooled requests jumps between the two speeds as their shares
    of the run cross one half, while the mean of per-session medians
    moves in proportion, as throughput does.  p90 stays pooled, because
    it needs the whole run's samples beyond it.
    """
    pooled = _pool(reports, seconds)
    latencies = pooled["latencies_ms"]
    completed = max(pooled["attempted"] - pooled["failed"], 1)
    medians = [percentile(_latencies_ms(r, seconds), 50) for r in reports]
    values = {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "latency_p50_ms": (statistics.fmean(medians), "ms"),
        "latency_p90_ms": (percentile(latencies, 90), "ms"),
        "throughput_rps": (completed / pooled["wall_s"], "req/s"),
        "cpu_ms_per_request": (1e3 * pooled["cpu_s"] / completed, "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=6.0,
                        help="service_mixed open-loop arrival rate (req/s)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + 175.0

    repo = Path.cwd()
    if not (repo / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout (no src/repro)",
              file=sys.stderr)
        return 2
    for name, default in DEFAULTS.items():
        if os.environ.get(name, default).strip().lower() != default:
            print(f"error: {name} must be unset or {default!r} for comparable runs",
                  file=sys.stderr)
            return 2
    environment = _environment(repo)
    run_root = repo / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    try:
        if args.trace:
            plain = _session(args, repo, run_root, "measure", 0, args.seconds, deadline)
            traced = _session(args, repo, run_root, "trace", 0, args.seconds, deadline)
            reports = [plain, traced]
            window = [plain]
            metrics = {
                name: {"value": traced["layers"].get(name, 0.0), "unit": unit}
                for name, unit, _ in LAYER_METRICS
            }
            overhead = (
                percentile(_latencies_ms(traced, args.seconds), 50)
                / percentile(_latencies_ms(plain, args.seconds), 50) - 1.0
            )
            metrics["bench.trace_overhead"]["value"] = overhead
            print(traced["ledger"])
        else:
            sessions = SESSIONS[args.workload]
            reports = [
                _session(args, repo, run_root, "measure", part,
                         args.seconds / sessions, deadline)
                for part in range(sessions)
            ]
            window = reports
            metrics = _end_to_end(reports, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        try:
            run_root.parent.rmdir()
        except OSError:
            pass

    mismatches = [m for report in reports for m in report["mismatches"]]
    for message in mismatches:
        print(f"mismatch: {message}", file=sys.stderr)
    pooled = _pool(window, args.seconds)
    environment["samples"] = len(pooled["latencies_ms"])
    environment["samples_beyond_p90"] = samples_beyond(pooled["latencies_ms"], 90)
    print("environment: " + json.dumps(environment))
    failed = pooled["failed"] + len(mismatches)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": pooled["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    # The result line is printed either way; the exit code flags the run.
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
