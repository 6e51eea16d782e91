"""Server processes and per-process CPU / peak-RSS accounting (Linux)."""

from __future__ import annotations

import http.client
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

_BANNER = re.compile(r"serving on (http://[\w.\-]+:\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve`` subprocess on an ephemeral port.

    With ``spans_path`` the server starts through the benchmark's
    tracing bootstrap, which installs the span wrappers and writes the
    spans to that file when the server exits.
    """

    def __init__(
        self,
        args: list[str],
        workdir: Path,
        env: dict[str, str],
        spans_path: Path | None = None,
    ) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.stdout_path = workdir / "stdout.log"
        self.stderr_path = workdir / "stderr.log"
        env = dict(env)
        if spans_path is not None:
            env["PERFBENCH_SPANS"] = str(spans_path)
            entry = [sys.executable, str(Path(__file__).with_name("traceboot.py"))]
        else:
            entry = [sys.executable, "-m", "repro"]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                [*entry, "serve", "--port", "0", *args],
                stdout=out,
                stderr=err,
                env=env,
            )
        self.url = ""

    def wait_ready(self, timeout_s: float = 60.0) -> str:
        """Block until the banner names the port and ``/readyz`` says ready."""
        deadline = time.monotonic() + timeout_s
        while not self.url:
            match = _BANNER.search(self.stdout_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
                break
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.stderr_path.read_text(errors="replace")[-2000:]
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server did not print its banner in time")
            time.sleep(0.01)
        host, port = self.url.split("://", 1)[1].split(":")
        while True:
            try:
                conn = http.client.HTTPConnection(host, int(port), timeout=5)
                conn.request("GET", "/readyz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return self.url
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never reported ready")
            time.sleep(0.01)

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM (graceful drain, spans written), then SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


def proc_cpu_s(pid: int) -> float:
    """User+sys CPU seconds of another process (all its threads)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
