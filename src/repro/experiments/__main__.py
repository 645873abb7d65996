"""Command-line figure regeneration:  ``python -m repro.experiments``.

Examples::

    python -m repro.experiments list
    python -m repro.experiments fig8
    python -m repro.experiments fig11 --horizon 20 --seed 3
    python -m repro.experiments all --quick
    python -m repro.experiments all --jobs 4

``--quick`` shrinks every sweep to a 2x2 grid for a fast smoke pass; the
full defaults match the benchmark suite.  ``--jobs N`` (or ``REPRO_JOBS``)
fans sweep points out to N worker processes — tables are byte-identical
for any value.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, List, Optional

from repro.experiments import figures
from repro.parallel import cli
from repro.units import ms

FIGURES = {
    "fig6": figures.figure6_response_time_with_admission,
    "fig6fp": figures.figure6_fastpath_overlay,
    "fig7": figures.figure7_response_time_without_admission,
    "fig7fp": figures.figure7_fastpath_overlay,
    "fig8": figures.figure8_distance_vs_loss,
    "fig9": figures.figure9_distance_with_admission,
    "fig10": figures.figure10_distance_without_admission,
    "fig11": figures.figure11_inconsistency_normal,
    "fig12": figures.figure12_inconsistency_compressed,
    "fig13": figures.figure13_read_throughput_vs_replicas,
    "fig14": figures.figure14_read_staleness_vs_window,
    "fig15": figures.figure15_flash_crowd_scaleout,
}

_QUICK_OVERRIDES = {
    "fig6": dict(object_counts=(8, 32), windows=(ms(100), ms(400))),
    "fig6fp": dict(object_counts=(8, 32)),
    "fig7": dict(object_counts=(8, 56), windows=(ms(100), ms(400))),
    "fig7fp": dict(object_counts=(8, 56)),
    "fig8": dict(loss_probabilities=(0.0, 0.1),
                 write_periods=(ms(50), ms(200))),
    "fig9": dict(object_counts=(8, 56), windows=(ms(100),)),
    "fig10": dict(object_counts=(8, 56), windows=(ms(100),)),
    "fig11": dict(loss_probabilities=(0.0, 0.1),
                  windows=(ms(50), ms(200))),
    "fig12": dict(loss_probabilities=(0.0, 0.1),
                  windows=(ms(50), ms(200))),
    "fig13": dict(replica_counts=(0, 2), read_periods=(ms(1.0), ms(2.0)),
                  horizon=6.0),
    "fig14": dict(windows=(ms(100), ms(400)), horizon=6.0),
    "fig15": dict(burst_factors=(1.0, 8.0), horizon=10.0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures (6-12) and "
                    "the extension figures (13-14 read replicas, 15 "
                    "elastic scale-out).")
    parser.add_argument("figure",
                        choices=sorted(FIGURES) + ["all", "list"],
                        help="which figure to regenerate")
    parser.add_argument("--horizon", type=float, default=None,
                        help="virtual-time horizon per run (seconds)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root random seed")
    parser.add_argument("--quick", action="store_true",
                        help="shrink sweeps to a fast 2x2 smoke pass")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes per sweep (0 = one per CPU; "
                             "default: $REPRO_JOBS or 1); output is "
                             "byte-identical for any value")
    return parser


def run_figure(name: str, args: argparse.Namespace, *,
               stopwatch: Callable[[], float] = time.perf_counter) -> None:
    """Regenerate one figure, timing the sweep with ``stopwatch``.

    The stopwatch is injected (defaulting to a *reference* to
    ``time.perf_counter``) so the wall clock never leaks into model code
    and tests can pin the elapsed-time report.
    """
    kwargs: dict = {"seed": args.seed, "jobs": args.jobs}
    if args.horizon is not None:
        kwargs["horizon"] = args.horizon
    if args.quick:
        kwargs.update(_QUICK_OVERRIDES[name])
    started = stopwatch()
    series = FIGURES[name](**kwargs)
    elapsed = stopwatch() - started
    print(series.render())
    print(f"[{name}: {elapsed:.1f}s wall]")
    print()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.jobs = cli.jobs(parser, args)
    if args.figure == "list":
        for name, func in sorted(FIGURES.items()):
            summary = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{name:6s} {summary}")
        return 0
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        run_figure(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
