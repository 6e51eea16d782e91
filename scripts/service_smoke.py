#!/usr/bin/env python
"""Smoke test for ``repro serve``: boot, submit, verify, drain. Stdlib only.

The CI ``service-smoke`` job runs this against a real subprocess:

1. start ``repro serve --port 0`` and parse the bound port from the
   ``serving on http://host:port`` banner;
2. hit ``/healthz`` and ``/readyz``;
3. submit a tiny lifetime job, poll it to completion, and assert the
   result body is byte-identical to the equivalent CLI invocation;
4. submit a second job for the same design at another ppm: the server
   serves it from its stored design model, and the result is still
   byte-identical to the CLI's;
5. submit a two-phase multi-mechanism scenario job and assert the same
   byte-identity against ``repro scenario run --json``;
6. check ``/metrics`` exposes the job counters and a design-store hit;
7. submit a long Monte-Carlo job, send SIGTERM mid-run, and assert the
   server drains and exits cleanly (checkpointing the interrupted job).

Exit code 0 means every step passed.
"""

from __future__ import annotations

import json
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

TINY_JOB = {"kind": "lifetime", "design": "C1", "grid": 6}
TINY_CLI = ["lifetime", "--design", "C1", "--grid", "6", "--json"]
STORED_JOB = {"kind": "lifetime", "design": "C1", "grid": 6, "ppm": 50.0}
STORED_CLI = [*TINY_CLI, "--ppm", "50"]
LONG_MC_JOB = {
    "kind": "lifetime",
    "design": "C1",
    "grid": 6,
    "methods": ["mc"],
    "mc_chips": 20_000,
}
SCENARIO_DOC = {
    "phases": [
        {"name": "burnin", "duration_hours": 500.0, "temperature_c": 110.0},
        {"name": "field"},
    ],
    "mechanisms": ["obd", "nbti", "em"],
}
SCENARIO_JOB = {
    "kind": "scenario",
    "design": "C1",
    "grid": 6,
    "scenario": SCENARIO_DOC,
}


def _call(
    method: str, url: str, body: bytes | None = None
) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url,
        data=body,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _start_server(args: list[str]) -> tuple[subprocess.Popen[str], str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    assert process.stdout is not None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("serving on "):
            return process, line.split("serving on ", 1)[1].strip()
        if process.poll() is not None:
            break
        time.sleep(0.05)
    process.kill()
    raise SystemExit("server did not print its serving banner")


def _wait_done(base: str, job_id: str, timeout: float = 120.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body = _call("GET", f"{base}/v1/jobs/{job_id}")
        state = json.loads(body)["state"]
        if state in ("done", "failed", "cancelled"):
            return state
        time.sleep(0.2)
    raise SystemExit(f"job {job_id} did not finish within {timeout}s")


def _metric(body: bytes, name: str) -> float:
    """One sample's value from a ``/metrics`` exposition (0 when absent)."""
    for line in body.decode("utf-8").splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def smoke_round_trip(checkpoint_dir: str) -> None:
    # --no-cache so reruns on a warm machine still exercise the compute
    # path (a cache hit answers 200, not 201, and runs nothing).
    process, base = _start_server(
        ["--checkpoint-dir", checkpoint_dir, "--no-cache"]
    )
    try:
        status, body = _call("GET", f"{base}/healthz")
        _check(status == 200, "healthz returns 200")
        status, _ = _call("GET", f"{base}/readyz")
        _check(status == 200, "readyz returns 200 while accepting")

        status, body = _call(
            "POST", f"{base}/v1/jobs", json.dumps(TINY_JOB).encode()
        )
        _check(status == 201, "job submission returns 201")
        job_id = json.loads(body)["id"]
        _check(_wait_done(base, job_id) == "done", "tiny job completes")

        _, http_body = _call("GET", f"{base}/v1/jobs/{job_id}/result")
        cli = subprocess.run(
            [sys.executable, "-m", "repro", *TINY_CLI],
            capture_output=True,
            text=True,
            check=True,
        )
        _check(
            http_body.decode("utf-8") == cli.stdout,
            "HTTP result is byte-identical to the CLI payload",
        )

        status, body = _call(
            "POST", f"{base}/v1/jobs", json.dumps(STORED_JOB).encode()
        )
        _check(status == 201, "second job on the same design returns 201")
        job_id = json.loads(body)["id"]
        _check(_wait_done(base, job_id) == "done", "second job completes")
        _, http_body = _call("GET", f"{base}/v1/jobs/{job_id}/result")
        cli = subprocess.run(
            [sys.executable, "-m", "repro", *STORED_CLI],
            capture_output=True,
            text=True,
            check=True,
        )
        _check(
            http_body.decode("utf-8") == cli.stdout,
            "stored-design result is byte-identical to the CLI payload",
        )

        status, body = _call(
            "POST", f"{base}/v1/jobs", json.dumps(SCENARIO_JOB).encode()
        )
        _check(status == 201, "scenario job submission returns 201")
        job_id = json.loads(body)["id"]
        _check(_wait_done(base, job_id) == "done", "scenario job completes")

        _, http_body = _call("GET", f"{base}/v1/jobs/{job_id}/result")
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as handle:
            json.dump(SCENARIO_DOC, handle)
            scenario_path = handle.name
        cli = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "scenario",
                "run",
                "--design",
                "C1",
                "--grid",
                "6",
                "--scenario",
                scenario_path,
                "--json",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        pathlib.Path(scenario_path).unlink()
        _check(
            http_body.decode("utf-8") == cli.stdout,
            "scenario result is byte-identical to the CLI payload",
        )

        status, body = _call("GET", f"{base}/metrics")
        _check(status == 200, "metrics returns 200")
        _check(
            b"repro_service_jobs_completed_total" in body,
            "metrics expose job counters",
        )
        _check(
            _metric(body, "repro_analyzer_store_hit_total") >= 1,
            "the second job was served from the design store",
        )
        _check(
            _metric(body, "repro_analyzer_store_entries") >= 1,
            "metrics show at least one stored design",
        )
    finally:
        process.send_signal(signal.SIGTERM)
        _check(process.wait(timeout=60) == 0, "clean exit after SIGTERM")


def smoke_sigterm_drain(checkpoint_dir: str) -> None:
    process, base = _start_server(
        ["--checkpoint-dir", checkpoint_dir, "--drain-timeout", "1", "--no-cache"]
    )
    try:
        status, body = _call(
            "POST", f"{base}/v1/jobs", json.dumps(LONG_MC_JOB).encode()
        )
        _check(status == 201, "long MC job accepted")
        # Give the MC run time to start and complete some shards.
        time.sleep(3.0)
    finally:
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=60)
    _check(code == 0, "SIGTERM during MC run exits cleanly")
    checkpoints = list(pathlib.Path(checkpoint_dir).glob("*.ckpt.npz"))
    _check(
        len(checkpoints) >= 1,
        "interrupted MC job left a checkpoint for resume",
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        smoke_round_trip(str(pathlib.Path(tmp) / "ckpt-a"))
        smoke_sigterm_drain(str(pathlib.Path(tmp) / "ckpt-b"))
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
