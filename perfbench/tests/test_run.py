"""How run.py folds its sessions into the end-to-end metrics."""

import pytest

from run import _end_to_end


def _report(latencies_s, setup_s, cpu_s, rss_mb):
    return {"latencies_s": latencies_s, "attempted": len(latencies_s), "failed": 0,
            "wall_s": sum(latencies_s), "cpu_s": cpu_s, "setup_s": setup_s,
            "peak_rss_mb": rss_mb}


def test_p50_is_the_mean_of_session_medians_and_the_rest_pool():
    fast = _report([0.010] * 9 + [0.030], setup_s=2.0, cpu_s=0.1, rss_mb=200.0)
    slow = _report([0.020] * 9 + [0.040], setup_s=3.0, cpu_s=0.2, rss_mb=250.0)
    third = _report([0.015] * 10, setup_s=2.5, cpu_s=0.15, rss_mb=210.0)
    metrics = _end_to_end([fast, slow, third], seconds=1.0)
    values = {name: metric["value"] for name, metric in metrics.items()}
    # The sessions' medians are 10, 20 and 15 ms.
    assert values["latency_p50_ms"] == pytest.approx(15.0)
    assert values["latency_p90_ms"] == pytest.approx(20.0)
    assert values["throughput_rps"] == pytest.approx(30 / (0.12 + 0.22 + 0.15))
    assert values["cpu_ms_per_request"] == pytest.approx(1e3 * 0.45 / 30)
    assert values["setup_s"] == 2.5
    assert values["peak_rss_mb"] == 250.0


def test_p50_moves_with_the_share_of_slow_sessions():
    fast = _report([0.010] * 11, setup_s=1.0, cpu_s=0.1, rss_mb=1.0)
    slow = _report([0.020] * 11, setup_s=1.0, cpu_s=0.1, rss_mb=1.0)

    def p50(sessions):
        return _end_to_end(sessions, seconds=1.0)["latency_p50_ms"]["value"]

    # A pooled median would read 10 ms for the first two and 20 ms for the rest.
    assert [p50([fast] * (5 - k) + [slow] * k) for k in range(1, 5)] == pytest.approx(
        [12.0, 14.0, 16.0, 18.0]
    )


def test_a_failed_request_counts_as_the_whole_window():
    report = _report([0.010, 0.010, float("inf")], setup_s=1.0, cpu_s=0.1, rss_mb=1.0)
    report["failed"] = 1
    metrics = _end_to_end([report], seconds=20.0)
    assert metrics["latency_p90_ms"]["value"] == pytest.approx(0.8 * 20_000 + 0.2 * 10)
