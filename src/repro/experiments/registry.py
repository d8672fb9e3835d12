"""The experiment registry: what the CLI, the record writer and CI read.

:data:`EXPERIMENTS` is a literal tuple — no discovery, no decorators.
Each :class:`Experiment` says how one harness meets the command line:
``add_arguments`` declares exactly the flags that apply to it (so a
foreign flag is an argparse error, not a silent no-op), ``run`` turns the
parsed namespace into a result and ``format`` renders it.  The five
record-bearing entries also carry ``record`` (result →
:class:`~repro.experiments.record.Record`), which gives them ``--json``
and their :meth:`~Experiment.verdict`: the pinned invariants the record
declares as ``bool`` headlines, stated once — the CLI exits 1 on a broken
one, the ``pins`` gate fails on it and ``bench-diff`` never lets it flip.

Flags are declared with ``dest=`` the keyword their harness takes, so
:func:`_call` hands every entry's namespace straight over.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable

from ..runtime import EXECUTORS
from . import chaos, dse, fig15_window, fig18_window, scaling, serving
from .fig01_breakdown import format_fig1, run_fig1
from .fig06_prior import run_fig6
from .fig10_exma_tradeoff import run_fig10
from .fig13_index_error import format_fig13, run_fig13
from .fig18_throughput import format_fig18, format_fig18_batching, run_fig18, run_fig18_batching
from .fig21_23_memory import run_fig21, run_fig23
from .tables import format_table2, run_table2

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "add_serving_flags",
    "add_sharding_flags",
    "experiment_named",
    "non_negative_int",
    "positive_int",
]


@dataclass(frozen=True)
class Experiment:
    """One runnable harness and its command-line face."""

    name: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], object]
    format: Callable[[object], str]
    #: result → Record; present on the record-bearing entries (``--json``).
    record: "Callable | None" = None

    def verdict(self, result) -> list[str]:
        """The broken pins of *result* (empty = every exactness pin held)."""
        if self.record is None:
            return []
        return [
            f"pinned invariant {name} does not hold"
            for name in self.record(result).broken_pins()
        ]


#: Namespace attributes that belong to the CLI, not to a harness.
_CLI_KEYS = ("command", "name", "entry", "json")


def _kwargs(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key not in _CLI_KEYS}


def _call(harness: Callable) -> Callable[[argparse.Namespace], object]:
    """``run`` for a harness whose flags are named after its keywords."""
    return lambda args: harness(**_kwargs(args))


def _csv(cast: type) -> Callable[[str], tuple]:
    """argparse ``type=`` for comma-separated values like ``1,2,4``."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(cast(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated values, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values

    return parse


def positive_int(text: str) -> int:
    """argparse ``type=`` for a length or step: refused at the parser, in
    one ``error:`` line naming the flag, unless an integer > 0."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type=`` for a seed: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _window_sweep(text: str) -> tuple:
    """``--window W`` → the aligned power-of-two capacities up to W."""
    windows = [1]
    while windows[-1] * 2 <= max(1, int(text)):
        windows.append(windows[-1] * 2)
    return tuple(windows)


# --------------------------------------------------------------------- #
# Flags: shared groups, then one function per experiment that needs more
# --------------------------------------------------------------------- #


def _reference_flags(parser) -> None:
    parser.add_argument(
        "--genome-length", type=positive_int, default=20_000, help="reference length, bp"
    )
    parser.add_argument("--seed", type=non_negative_int, default=0, help="workload seed")


def _query_flags(parser, batch_size: int, dest: str = "batch_size") -> None:
    parser.add_argument(
        "--batch-size", dest=dest, type=positive_int, default=batch_size, help="queries per batch"
    )
    parser.add_argument("--query-length", type=positive_int, default=48, help="query length, bp")


def _window_flag(parser) -> None:
    parser.add_argument(
        "--window",
        dest="windows",
        type=_window_sweep,
        default=_window_sweep("8"),
        help="largest coalescing window W (sweeps powers of two up to W)",
    )


def _repeats_flag(parser) -> None:
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")


def _load_flags(parser, rate: float, duration: float) -> None:
    """The open-loop load generator's two values (serving and chaos)."""
    parser.add_argument("--rate", type=float, default=rate, help="mean client arrivals per second")
    parser.add_argument(
        "--duration", type=float, default=duration, help="offered-load horizon in seconds"
    )


def add_sharding_flags(parser: argparse.ArgumentParser) -> None:
    """The parallel-search knobs shared by search and serve."""
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split query batches across up to this many workers (default: 1, serial)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="thread",
        help="worker pool for --shards (default: thread)",
    )


def add_serving_flags(parser: argparse.ArgumentParser) -> None:
    """The dynamic-batching knobs shared by serve and the serving benchmark."""
    parser.add_argument("--max-batch", type=int, default=64, help="most queries per dynamic batch")
    parser.add_argument(
        "--max-delay",
        type=float,
        default=0.005,
        help="admission window in seconds (longest a query waits for a batch)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=4096,
        help="bounded admission queue; submits beyond it are rejected",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=2,
        help="coalescing window W (dynamic batches merged per flush replay)",
    )


def _chaos_flags(parser) -> None:
    _reference_flags(parser)
    _load_flags(parser, rate=400.0, duration=0.5)
    parser.add_argument(
        "--fault-rate", type=float, default=0.2, help="per-probe Bernoulli fault rate"
    )


def _dse_flags(parser) -> None:
    _reference_flags(parser)
    _query_flags(parser, 800, dest="query_count")
    parser.add_argument("--batch-count", dest="batches", type=int, default=8, help="query batches")
    parser.add_argument(
        "--grid",
        default=None,
        metavar="SPEC",
        help="the sweep grid as ';'-separated axes, e.g. "
        '"cam=64,128;base_ways=4,8;page=close,dynamic;window=1,2;mtl=16,64" '
        "(default: the built-in 4-knob toy grid)",
    )
    parser.add_argument("--workers", type=int, default=1, help="concurrent design-point jobs")
    parser.add_argument(
        "--replay-executor",
        dest="executor",
        choices=EXECUTORS,
        default="thread",
        help="worker pool kind (default: thread)",
    )


def _fig15_window_flags(parser) -> None:
    _reference_flags(parser)
    _window_flag(parser)


def _fig18_window_flags(parser) -> None:
    _reference_flags(parser)
    _window_flag(parser)
    parser.add_argument("--batch-count", type=int, default=16, help="consecutive query batches")
    _query_flags(parser, 64)


def _scaling_flags(parser) -> None:
    _reference_flags(parser)
    _query_flags(parser, 256)
    _repeats_flag(parser)
    parser.add_argument(
        "--workers",
        type=_csv(positive_int),
        default=(2, 4),
        metavar="N[,N...]",
        help="worker counts each layer is timed at, against its serial run",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="time only this worker pool kind (default: both)",
    )


def _serving_flags(parser) -> None:
    _reference_flags(parser)
    parser.add_argument("--step", dest="k", type=positive_int, default=6, help="EXMA step number k")
    _load_flags(parser, rate=500.0, duration=1.0)
    parser.add_argument("--tenants", type=int, default=4, help="round-robin client tenants")
    parser.add_argument("--queries-per-arrival", type=int, default=4, help="queries per arrival")
    parser.add_argument("--query-length", type=int, default=28, help="query length, bp")
    parser.add_argument("--pool-size", type=int, default=512, help="queries in the Zipf pool")
    parser.add_argument("--zipf-s", type=float, default=1.1, help="Zipf skew of the query pool")
    parser.add_argument(
        "--workers",
        type=_csv(int),
        default=(1,),
        help="comma-separated batcher worker counts to sweep (e.g. 1,2,4)",
    )
    parser.add_argument(
        "--rate-sweep",
        type=_csv(float),
        default=None,
        metavar="MULTIPLIERS",
        help="comma-separated offered-load multipliers of --rate (e.g. 1,2,4,8,16); "
        "runs the saturation sweep to the knee and records its curves",
    )
    parser.add_argument(
        "--sweep-duration", type=float, default=0.5, help="horizon in seconds per sweep rung"
    )
    parser.add_argument(
        "--sweep-queue-capacity",
        type=int,
        default=512,
        help="admission-queue bound during the sweep (tighter than "
        "--queue-capacity so the top rung actually saturates)",
    )
    add_serving_flags(parser)


def _format_normalised(title: str, attribute: str, width: int) -> Callable[[object], str]:
    def render(result) -> str:
        lines = [title]
        for scheme, value in getattr(result, attribute).items():
            lines.append(f"  {scheme:{width}s} {value:5.2f}x")
        return "\n".join(lines)

    return render


def _format_fig21(utilisation: dict) -> str:
    return "\n".join(f"  {device:6s} {value * 100:5.1f}%" for device, value in utilisation.items())


def _format_fig23(comparison) -> str:
    return (
        f"LISA-21 + BdI  : {comparison.lisa_bdi_gb:7.1f} GB\n"
        f"EXMA-15 + CHAIN: {comparison.exma_chain_gb:7.1f} GB"
    )


# --------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------- #

EXPERIMENTS: "tuple[Experiment, ...]" = (
    Experiment("chaos", _chaos_flags, _call(chaos.run_chaos), chaos.format_chaos, chaos.record),
    Experiment("dse", _dse_flags, _call(dse.run_dse), dse.format_dse, dse.record),
    Experiment("fig1", _reference_flags, _call(run_fig1), format_fig1),
    Experiment(
        "fig6",
        _reference_flags,
        _call(run_fig6),
        _format_normalised("CPU throughput normalised to FM-1:", "cpu_throughput_normalised", 10),
    ),
    Experiment(
        "fig10",
        _reference_flags,
        _call(run_fig10),
        _format_normalised("throughput normalised to LISA-21:", "throughput_normalised", 9),
    ),
    Experiment("fig13", _reference_flags, _call(run_fig13), format_fig13),
    Experiment(
        "fig15-window",
        _fig15_window_flags,
        _call(fig15_window.run_fig15_window),
        fig15_window.format_fig15,
    ),
    Experiment("fig18", _reference_flags, _call(run_fig18), format_fig18),
    Experiment(
        "fig18-batching", _reference_flags, _call(run_fig18_batching), format_fig18_batching
    ),
    Experiment(
        "fig18-window",
        _fig18_window_flags,
        _call(fig18_window.run_fig18_window),
        fig18_window.format_fig18_window,
        fig18_window.record,
    ),
    Experiment("fig21", lambda parser: None, _call(run_fig21), _format_fig21),
    Experiment("fig23", _reference_flags, _call(run_fig23), _format_fig23),
    Experiment(
        "scaling",
        _scaling_flags,
        _call(scaling.run_scaling),
        scaling.format_scaling,
        scaling.record,
    ),
    # Also spelled `repro-exma serving-bench`.
    Experiment(
        "serving",
        _serving_flags,
        _call(serving.run_serving_bench),
        serving.format_serving,
        serving.record,
    ),
    Experiment("table2", lambda parser: None, _call(run_table2), format_table2),
)


def experiment_named(name: str) -> Experiment:
    """The registry entry called *name* (``KeyError`` when there is none)."""
    for entry in EXPERIMENTS:
        if entry.name == name:
            return entry
    raise KeyError(f"no experiment named {name!r}")
