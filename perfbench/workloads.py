"""Workload definitions shared by the runner and the pass process.

Every workload is a closed loop: one caller (the experiment runner)
starts the next case or scenario only after the previous one returned.
A run of a workload is a fixed number of fresh-interpreter passes
(:func:`pass_count`), each on its own program seed derived from the
benchmark seed (:func:`pass_seeds`), so one run averages over several
inputs and over the slow phases of a shared machine.  Why each workload
was chosen is its one-line ``why`` in BENCHMARK.json; README.md has the
longer reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: Unit of work timed one by one: ``"case"`` is one
    #: ``ConcatenationPolicy.evaluate_case`` call, ``"scenario"`` one
    #: ``IlmAccountant.process_scenario`` call.
    op: str
    scale: str
    ilm: str
    jobs: int
    #: Table 2 failure modes run (the runner's product run always runs all four).
    modes: tuple[str, ...]
    #: Typical length of one pass on a 2-vCPU box, which sets how many
    #: passes fit in ``--seconds``.
    pass_seconds: float
    #: Tail percentile of the per-op latency: the highest one with at
    #: least ten samples beyond it in a single pass.
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-small", "case", "small", "per-pair", 1,
            ("link", "two-links", "router", "two-routers"), 15.0, 99.9,
        ),
        Workload(
            "ilm-fanout", "scenario", "tiny", "per-link", 2, ("link", "two-links"), 10.0, 97.0,
        ),
    )
}


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes in a run of *seconds*: the nearest whole number of typical passes, at least one."""
    return max(1, round(seconds / workload.pass_seconds))


def pass_seeds(seed: int, passes: int) -> list[int]:
    """Program seeds of a run's passes; the first is the benchmark seed itself."""
    return [seed + 1000 * j for j in range(passes)]
