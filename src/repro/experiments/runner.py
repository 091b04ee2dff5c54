"""Run the complete evaluation: every table and figure, in paper order.

``python -m repro.experiments.runner [--scale small] [--out results.txt]``
"""

from __future__ import annotations

import argparse
from pathlib import Path as FilePath

from ..obs import TRACER, activate_from_args, add_obs_arguments
from ..kernels import add_kernel_argument, apply_kernel
from ..policies import add_policy_arguments, apply_policy_arguments
from . import figure10, table1, table2, table3, theory_figures
from .bench import add_repair_fallback_argument, apply_repair_fallback, bench_run
from .networks import cached_suite, scales


def run_all(
    scale: str = "small",
    seed: int = 1,
    ilm: str = "per-pair",
    jobs: int = 1,
) -> str:
    """Run every table and figure in paper order; returns the report.

    Each section runs in a ``runner.<section>`` span — the consolidated
    ``BENCH_runner.json`` reads its ``sections`` from them.
    """
    sections = []
    for name, stage, runner in (
        ("Table 1", "table1", lambda: table1.render(table1.collect(cached_suite(scale=scale, seed=seed)))),
        ("Table 2", "table2", lambda: table2.render(table2.run(scale=scale, seed=seed, ilm_accounting=ilm, jobs=jobs))),
        ("Table 3", "table3", lambda: table3.render(table3.run(scale=scale, seed=seed, jobs=jobs))),
        ("Figure 10", "figure10", lambda: figure10.render(figure10.run(scale=scale, seed=seed, jobs=jobs))),
        ("Figures 2-5", "theory_figures", lambda: theory_figures.render(theory_figures.run())),
    ):
        with TRACER.span(f"runner.{stage}") as span:
            body = runner()
        sections.append(f"==== {name} ({span.duration:.1f}s) ====\n{body}")
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; prints and returns the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=scales(), default="small")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--ilm", choices=("per-pair", "per-link"), default="per-pair")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment fan-outs (0 = auto)",
    )
    parser.add_argument(
        "--bench-json", type=str, default=None,
        help="path for the consolidated BENCH JSON "
             "(default results/BENCH_runner.json; '-' disables)",
    )
    add_repair_fallback_argument(parser)
    add_kernel_argument(parser)
    add_policy_arguments(parser)
    add_obs_arguments(parser)
    args = parser.parse_args(argv)
    apply_repair_fallback(args)  # before any worker fork
    apply_kernel(args)  # before any worker fork
    apply_policy_arguments(args)  # before any worker fork
    activate_from_args(args)
    with bench_run(
        "runner", args, scale=args.scale, seed=args.seed, jobs=args.jobs
    ) as payload:
        report = run_all(
            scale=args.scale, seed=args.seed, ilm=args.ilm, jobs=args.jobs
        )
        print(report)
        if args.out:
            FilePath(args.out).write_text(report + "\n")
        payload.update(
            ilm_accounting=args.ilm,
            ilm_max_scenarios=table2.ILM_MAX_SCENARIOS,
            sections=TRACER.stages("runner"),
        )
    return report


if __name__ == "__main__":
    main()
