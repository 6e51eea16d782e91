"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure of the paper and
writes its report to ``benchmarks/results/<name>.txt`` (also echoed to
stdout, visible with ``pytest -s``).

Scale control
-------------
``REPRO_BENCH_SCALE=quick`` (default) runs reduced Monte-Carlo sample
counts and the smaller designs so the whole harness finishes in minutes.
``REPRO_BENCH_SCALE=full`` reproduces the paper's full setup (C1-C6 at
real device counts, 1000-chip MC references, 10000-chip failure-time MC).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ConfigurationError

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    """The current benchmark scale ("quick" or "full")."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if scale not in ("quick", "full"):
        raise ConfigurationError(
            f"REPRO_BENCH_SCALE must be quick/full, got {scale!r}"
        )
    return scale


def is_full_scale() -> bool:
    """True when the paper's full experimental scale was requested."""
    return bench_scale() == "full"


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory) -> None:
    """Point the kernels artifact cache at a per-session scratch dir.

    A ``canonical_model`` entry another process wrote under another BLAS
    thread count carries another PCA basis, which moves the Monte-Carlo
    numbers the reports commit; so the harness never reads (or fills) the
    developer's ``~/.cache/repro/artifacts``.
    """
    root = tmp_path_factory.mktemp("artifact-cache")
    os.environ["REPRO_ARTIFACT_CACHE_DIR"] = str(root)


@pytest.fixture(scope="session")
def scale() -> str:
    """Fixture form of :func:`bench_scale`."""
    return bench_scale()


#: Report files already written this session (first write truncates,
#: subsequent tests of the same module append).
_WRITTEN: set[str] = set()


class ReportWriter:
    """Accumulates a text report and persists it under results/."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []

    def line(self, text: str = "") -> None:
        """Append one line to the report."""
        self.lines.append(text)

    def table(self, header: list[str], rows: list[list[str]]) -> None:
        """Append an aligned text table."""
        widths = [
            max(len(str(header[i])), *(len(str(r[i])) for r in rows))
            if rows
            else len(str(header[i]))
            for i in range(len(header))
        ]
        fmt = "  ".join(f"{{:>{w}}}" for w in widths)
        self.lines.append(fmt.format(*header))
        self.lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            self.lines.append(fmt.format(*[str(c) for c in row]))

    def flush(self) -> str:
        """Write the report to disk and stdout; returns the text."""
        RESULTS_DIR.mkdir(exist_ok=True)
        text = "\n".join(self.lines) + "\n"
        path = RESULTS_DIR / f"{self.name}.txt"
        if self.name in _WRITTEN:
            with path.open("a") as handle:
                handle.write("\n" + text)
        else:
            path.write_text(text)
            _WRITTEN.add(self.name)
        sys.stdout.write(f"\n===== {self.name} =====\n{text}\n")
        return text


@pytest.fixture()
def report(request) -> ReportWriter:
    """A report writer named after the requesting module."""
    name = request.module.__name__.removeprefix("test_")
    writer = ReportWriter(name)
    yield writer
    if writer.lines:
        writer.flush()


#: Metrics files already written this session (first write truncates).
_METRICS_WRITTEN: set[str] = set()


@pytest.fixture(autouse=True)
def _stage_metrics(request):
    """Record per-stage wall times and counters for every benchmark test.

    Each benchmark module gets a ``results/metrics_<name>.json`` with one
    entry per test: the flattened stage timings (``repro.obs`` spans) and
    the counter/gauge registry, so the perf trajectory carries per-stage
    breakdowns, not just end-to-end totals.
    """
    obs.reset()
    obs.enable()
    yield
    snapshot = obs.observability_snapshot()
    obs.disable()
    obs.reset()

    name = request.module.__name__.removeprefix("test_")
    path = RESULTS_DIR / f"metrics_{name}.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    data: dict = {}
    if name in _METRICS_WRITTEN and path.exists():
        data = json.loads(path.read_text())
    data[request.node.name] = {
        "stages": snapshot["stages"],
        "counters": snapshot["metrics"]["counters"],
        "gauges": snapshot["metrics"]["gauges"],
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    _METRICS_WRITTEN.add(name)
