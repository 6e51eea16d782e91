"""Seeded request generators for the four workloads.

The seed changes only drawn values (ppm, t_max, temperatures, activity
factors, Monte-Carlo seeds, arrival times); class counts and request
sizes are fixed by the workload, so two seeds load the program with the
same mix of work.  Each generator derives request ``i`` from
``(seed, i)`` alone, so closed-loop streams can run as long as the timed
window lasts and still be reproduced exactly.
"""

from __future__ import annotations

import random
from typing import Any


#: Lifetime methods of the service mix.  Each timed lifetime request
#: carries one: a block's four C1 and four C2 requests take one method
#: each, its three C3 requests three of them in rotation.  Warm-up
#: requests carry all four, so every method's tables are built untimed.
SERVICE_METHODS = ("st_fast", "hybrid", "temp_unaware", "guard")

#: design_sweep: designs cycled, uniform temperatures per sweep, grid.
#: Two temperatures on C1-C2 (rather than four on C1-C6) keep a fresh
#: sweep near 150-270 ms, so a 20 s window holds over 100 requests:
#: enough for ten samples beyond p90.  Two is the fewest temperatures
#: that still takes the fused temperature axis.
SWEEP_DESIGNS = ("C1", "C2")
SWEEP_TEMPS = 2
SWEEP_GRID = 15
SWEEP_METHODS = ("st_fast", "temp_unaware", "hybrid", "guard")

#: mc_fleet: grid, chips per request, shard indices per dispatched
#: group and the coordinator's status-poll interval.  Shards hold 64
#: chips, so 128 chips is one 1-shard group per worker, about 100 ms of
#: Monte Carlo at grid 10.  The transport's default poll interval
#: (100 ms) would put request latency on a 100 ms lattice; polling every
#: 10 ms makes latency follow the shard work within 10 ms.
FLEET_GRID = 10
FLEET_CHIPS = 128
FLEET_GROUP_SIZE = 1
FLEET_POLL_S = 0.01

#: service_mixed: fresh classes per block of 20 arrivals.  The remaining
#: four slots are three repeats of an older request (result cache) and one
#: immediate repeat of the block's first C3 request (coalescing).
SERVICE_FRESH = {
    "life_c1": 4,
    "life_c2": 4,
    "life_c3": 3,
    "curve_c1": 3,
    "scenario_c2": 2,
}
SERVICE_BLOCK = 20
_LIFETIME_DESIGNS = {"life_c1": ("C1", 10), "life_c2": ("C2", 15), "life_c3": ("C3", 25)}
#: Positions of the repeat-an-older-request slots inside a block; each
#: has at least ten earlier arrivals, counting from the first block.
_REPEAT_SLOTS = (10, 14, 18)
_REPEAT_MIN_AGE = 10


def _rng(seed: int, *stream: object) -> random.Random:
    """An independent generator for one (seed, stream...) coordinate."""
    return random.Random(":".join(str(part) for part in (seed, *stream)))


# ----------------------------------------------------------------------
# management_loop
# ----------------------------------------------------------------------


def activity_factors(seed: int, index: int, n_blocks: int) -> list[float]:
    """Per-block activity factors in [0.05, 0.95] for request ``index``."""
    rng = _rng(seed, "mgmt", index)
    return [round(rng.uniform(0.05, 0.95), 6) for _ in range(n_blocks)]


# ----------------------------------------------------------------------
# design_sweep
# ----------------------------------------------------------------------


def sweep_request(seed: int, index: int) -> dict[str, Any]:
    """Request ``index`` of the design sweep stream.

    Fresh sweeps cycle C1..C6; every fourth request repeats an earlier
    fresh sweep verbatim (so it is served by the result cache).
    """
    if index % 4 == 3:
        rng = _rng(seed, "sweep-repeat", index)
        earlier = rng.randrange(0, index)
        while earlier % 4 == 3:
            earlier -= 1
        return dict(sweep_request(seed, earlier), repeat_of=earlier)
    fresh_number = index - index // 4
    rng = _rng(seed, "sweep", index)
    temps = sorted(round(rng.uniform(50.0, 110.0), 2) for _ in range(SWEEP_TEMPS))
    return {
        "design": SWEEP_DESIGNS[fresh_number % len(SWEEP_DESIGNS)],
        "temperatures_c": temps,
        "repeat_of": None,
    }


def sweep_warmups(seed: int) -> list[dict[str, Any]]:
    """One untimed fresh sweep per design (the repeat class reuses C1's)."""
    rng = _rng(seed, "sweep-warmup")
    return [
        {
            "design": design,
            "temperatures_c": sorted(
                round(rng.uniform(50.0, 110.0), 2) for _ in range(SWEEP_TEMPS)
            ),
            "repeat_of": None,
        }
        for design in SWEEP_DESIGNS
    ]


# ----------------------------------------------------------------------
# mc_fleet
# ----------------------------------------------------------------------


def fleet_warmup(seed: int) -> dict[str, Any]:
    """The untimed warm-up request (sent twice: fresh, then repeat)."""
    doc = dict(fleet_request(seed, 0)["doc"])
    doc["seed"] = _rng(seed, "fleet-warmup").randrange(1, 2**31)
    return doc


def fleet_request(seed: int, index: int) -> dict[str, Any]:
    """Request ``index`` of the Monte-Carlo stream.

    Every fifth request repeats an earlier request's MC seed, so the
    coordinator serves it from the shared cache tier.
    """
    if index % 5 == 4:
        rng = _rng(seed, "fleet-repeat", index)
        earlier = rng.randrange(0, index)
        while earlier % 5 == 4:
            earlier -= 1
        return dict(fleet_request(seed, earlier), repeat_of=earlier)
    rng = _rng(seed, "fleet", index)
    return {
        "doc": {
            "kind": "lifetime",
            "design": "C1",
            "grid": FLEET_GRID,
            "methods": ["mc"],
            "mc_chips": FLEET_CHIPS,
            "seed": rng.randrange(1, 2**31),
        },
        "repeat_of": None,
    }


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------


def _fresh_doc(cls: str, rng: random.Random,
               methods: tuple[str, ...] = SERVICE_METHODS) -> dict[str, Any]:
    ppm = round(rng.uniform(1.0, 100.0), 4)
    if cls in _LIFETIME_DESIGNS:
        design, grid = _LIFETIME_DESIGNS[cls]
        return {"kind": "lifetime", "design": design, "grid": grid,
                "methods": list(methods), "ppm": ppm}
    if cls == "curve_c1":
        return {"kind": "curve", "design": "C1", "grid": 10,
                "methods": ["st_fast"], "t_min": 1000.0,
                "t_max": round(rng.uniform(2e5, 2e6), 1), "points": 50}
    if cls == "scenario_c2":
        return {
            "kind": "scenario",
            "design": "C2",
            "grid": 15,
            "ppm": ppm,
            "scenario": {
                "phases": [
                    {"name": "burnin", "duration_hours": 168,
                     "temperature_c": 125, "vdd": 1.3},
                    {"name": "field", "power_scale": 1.2},
                ],
                "mechanisms": ["obd", "nbti", "em"],
                "composition": "ordered",
            },
        }
    raise ValueError(f"unknown service class {cls!r}")


def service_warmups(seed: int) -> list[tuple[str, dict[str, Any]]]:
    """One untimed fresh request per fresh class, C3 sent twice (coalesce).

    The repeat class is warmed by resubmitting the first of these once it
    has finished.
    """
    rng = _rng(seed, "service-warmup")
    warmups: list[tuple[str, dict[str, Any]]] = []
    for cls in SERVICE_FRESH:
        warmups.append((cls, _fresh_doc(cls, rng)))
        if cls == "life_c3":
            warmups.append(("coalesce", warmups[-1][1]))
    return warmups


def service_arrivals(rate: float, seconds: float) -> int:
    """Arrivals in a window: ``rate * seconds`` rounded to whole blocks."""
    blocks = max(1, round(rate * seconds / SERVICE_BLOCK))
    return blocks * SERVICE_BLOCK


def service_schedule(seed: int, rate: float, seconds: float) -> list[dict[str, Any]]:
    """The open-loop arrival schedule for one service_mixed run.

    The window is cut into one interval per block, and each block's
    arrivals are sorted uniform draws over its own interval: a Poisson
    process conditioned on ``SERVICE_BLOCK`` arrivals per interval.  So
    the count per interval (and with it every class count and the load in
    each part of the window) stays fixed while the gaps follow the seed.
    The coalescing repeat takes its C3 request's time, so it is sent
    right after it, while that job is still queued or running.
    Each entry has ``at`` (seconds from the window start), ``cls``,
    ``doc`` (the job document) and ``repeat_of`` (index or ``None``).
    """
    n = service_arrivals(rate, seconds)
    interval = seconds * SERVICE_BLOCK / n
    times_rng = _rng(seed, "arrivals")
    times = [
        block * interval + at
        for block in range(n // SERVICE_BLOCK)
        for at in sorted(times_rng.uniform(0.0, interval) for _ in range(SERVICE_BLOCK))
    ]
    schedule: list[dict[str, Any]] = []
    for block in range(n // SERVICE_BLOCK):
        rng = _rng(seed, "block", block)
        fresh = [cls for cls, count in SERVICE_FRESH.items() for _ in range(count)]
        rng.shuffle(fresh)
        slots = list(fresh)
        for position in _REPEAT_SLOTS:
            slots.insert(position, "repeat")
        slots.insert(slots.index("life_c3") + 1, "coalesce")
        base = block * SERVICE_BLOCK
        seen: dict[str, int] = {}
        for offset, cls in enumerate(slots):
            index = base + offset
            if cls == "repeat":
                older = [
                    j for j in range(index - _REPEAT_MIN_AGE + 1)
                    if schedule[j]["repeat_of"] is None
                ]
                ref = older[rng.randrange(len(older))]
            elif cls == "coalesce":
                ref = index - 1
            else:
                ref = None
            if ref is not None:
                doc = schedule[ref]["doc"]
            else:
                k = seen[cls] = seen.get(cls, -1) + 1
                method = SERVICE_METHODS[(k + block * (cls == "life_c3")) % 4]
                doc = _fresh_doc(cls, rng, (method,))
            schedule.append(
                {"at": schedule[ref]["at"] if cls == "coalesce" else times[index],
                 "cls": cls, "doc": doc, "repeat_of": ref}
            )
    return schedule
