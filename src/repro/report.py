"""Command-line report generator: every table and figure to CSV/stdout.

Usage::

    python -m repro.report --out results/ [--scale small] [figures...]

Regenerates the paper's evaluation artifacts on the simulated machine and
writes one CSV per table/figure (plus a summary to stdout).  ``--scale
small`` runs a 16x-reduced sweep for quick checks; the default runs the
paper's 16K/32K/64K processor counts (several minutes of wall clock).

Available figure names: fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table1
eq1 eq2_7 inputread (default: all).

``python -m repro.report campaign ...`` delegates to the campaign CLI
(:mod:`repro.campaign.cli`): expand/run declarative sweep specs, serve
the sharded sweep service over HTTP, or submit to a running one.

``python -m repro.report profile SPEC [--index N] [--top N]`` runs one
expanded campaign point under cProfile and prints the top-N functions by
cumulative time — the first stop when a sweep suddenly gets slow.

``python -m repro.report trace APPROACH --np N --out trace.json`` runs one
checkpoint step with full tracing and writes a Chrome ``trace_event`` JSON
(open it in ``chrome://tracing`` or Perfetto).  ``python -m repro.report
timeline APPROACH --np N`` renders the same span store as a per-rank ASCII
Gantt chart plus a critical-path summary, straight to the terminal.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Callable, Iterable

from .experiments import (
    APPROACH_LABELS,
    eq1_production_improvement,
    eq2_7_speedup,
    fig5_write_bandwidth,
    fig6_overall_time,
    fig7_checkpoint_ratio,
    fig8_file_sweep,
    fig9_distribution_1pfpp,
    fig10_distribution_coio,
    fig11_distribution_rbio,
    fig12_write_activity,
    table1_perceived,
)
from .experiments.inputread import input_read_time

__all__ = ["main", "profile_main", "FIGURES"]


def _write_csv(path: str, header: list, rows: Iterable[list]) -> int:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        count = 0
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def _per_approach_table(series: dict, sizes: list[int], value_name: str):
    header = ["approach"] + [f"np={n}" for n in sizes]
    rows = [
        [APPROACH_LABELS[key]] + [series[key][n] for n in sizes]
        for key in series
    ]
    return header, rows


def _report_fig5(outdir: str, sizes) -> str:
    series = fig5_write_bandwidth(sizes=sizes)
    header, rows = _per_approach_table(series, list(sizes), "GB/s")
    path = os.path.join(outdir, "fig5_write_bandwidth_gbps.csv")
    _write_csv(path, header, rows)
    return path

def _report_fig6(outdir: str, sizes) -> str:
    series = fig6_overall_time(sizes=sizes)
    header, rows = _per_approach_table(series, list(sizes), "s")
    path = os.path.join(outdir, "fig6_overall_time_s.csv")
    _write_csv(path, header, rows)
    return path

def _report_fig7(outdir: str, sizes) -> str:
    series = fig7_checkpoint_ratio(sizes=sizes)
    header, rows = _per_approach_table(series, list(sizes), "ratio")
    path = os.path.join(outdir, "fig7_checkpoint_ratio.csv")
    _write_csv(path, header, rows)
    return path

def _report_fig8(outdir: str, sizes) -> str:
    series = fig8_file_sweep(sizes=sizes)
    n_files = sorted({nf for per in series.values() for nf in per})
    header = ["np"] + [f"nf={nf}" for nf in n_files]
    rows = [
        [n] + [series[n].get(nf, "") for nf in n_files] for n in series
    ]
    path = os.path.join(outdir, "fig8_rbio_file_sweep_gbps.csv")
    _write_csv(path, header, rows)
    return path

def _report_fig9(outdir: str, sizes) -> str:
    n = max(sizes) if min(sizes) > 16384 else (16384 if 16384 in sizes else min(sizes))
    ranks, times = fig9_distribution_1pfpp(n_ranks=n)
    path = os.path.join(outdir, "fig9_1pfpp_per_rank_io_time.csv")
    _write_csv(path, ["rank", "io_time_s"], zip(ranks.tolist(), times.tolist()))
    return path

def _report_fig10(outdir: str, sizes) -> str:
    n = max(sizes)
    ranks, times = fig10_distribution_coio(n_ranks=n)
    path = os.path.join(outdir, "fig10_coio_per_rank_io_time.csv")
    _write_csv(path, ["rank", "io_time_s"], zip(ranks.tolist(), times.tolist()))
    return path

def _report_fig11(outdir: str, sizes) -> str:
    n = max(sizes)
    out = fig11_distribution_rbio(n_ranks=n)
    path = os.path.join(outdir, "fig11_rbio_per_rank_io_time.csv")
    _write_csv(
        path, ["rank", "io_time_s", "is_writer"],
        zip(out["ranks"].tolist(), out["io_time"].tolist(),
            out["writer_mask"].astype(int).tolist()),
    )
    return path

def _report_fig12(outdir: str, sizes) -> str:
    mid = sorted(sizes)[len(sizes) // 2]
    out = fig12_write_activity(n_ranks=mid)
    path = os.path.join(outdir, "fig12_write_activity.csv")
    rows = []
    for key in ("rbio_ng", "coio_64"):
        for t, c in zip(out[key]["bin_starts"], out[key]["active_writers"]):
            rows.append([APPROACH_LABELS[key], float(t), int(c)])
    _write_csv(path, ["approach", "bin_start_s", "active_writers"], rows)
    return path

def _report_table1(outdir: str, sizes) -> str:
    rows = table1_perceived(sizes=sizes)
    path = os.path.join(outdir, "table1_perceived_bandwidth.csv")
    _write_csv(
        path, ["np", "max_isend_us", "cpu_cycles", "perceived_tbps"],
        [[r["np"], r["time_us"], r["time_cycles"], r["perceived_tbps"]]
         for r in rows],
    )
    return path

def _report_eq1(outdir: str, sizes) -> str:
    out = eq1_production_improvement(n_ranks=max(sizes))
    path = os.path.join(outdir, "eq1_production_improvement.csv")
    _write_csv(path, list(out.keys()), [list(out.values())])
    return path

def _report_eq2_7(outdir: str, sizes) -> str:
    out = eq2_7_speedup(n_ranks=max(sizes))
    path = os.path.join(outdir, "eq2_7_speedup_model.csv")
    _write_csv(path, list(out.keys()), [list(out.values())])
    return path

def _report_inputread(outdir: str, sizes) -> str:
    cases = ([(32768, 136_000), (65536, 546_000)]
             if max(sizes) >= 32768 else [(max(sizes), 8_000)])
    rows = [input_read_time(n, e) for n, e in cases]
    path = os.path.join(outdir, "inputread_presetup.csv")
    keys = ["n_ranks", "elements", "file_mb", "read", "parse", "bcast", "total"]
    _write_csv(path, keys, [[r[k] for k in keys] for r in rows])
    return path


FIGURES: dict[str, Callable] = {
    "fig5": _report_fig5,
    "fig6": _report_fig6,
    "fig7": _report_fig7,
    "fig8": _report_fig8,
    "fig9": _report_fig9,
    "fig10": _report_fig10,
    "fig11": _report_fig11,
    "fig12": _report_fig12,
    "table1": _report_table1,
    "eq1": _report_eq1,
    "eq2_7": _report_eq2_7,
    "inputread": _report_inputread,
}


def profile_main(argv: list[str]) -> int:
    """``repro-report profile``: cProfile one campaign point, print top-N.

    Runs in a fresh process with cold in-memory caches, so the profile
    shows the real simulation cost of the point (the figure-run disk/memory
    caches that make repeated sweeps cheap are per-process).
    """
    import cProfile
    import pstats

    from .campaign.compiler import expand, run_point
    from .campaign.spec import CampaignSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro.report profile",
        description="Profile one expanded campaign point with cProfile.",
    )
    parser.add_argument("spec", help="campaign spec file (YAML/JSON)")
    parser.add_argument("--index", type=int, default=0,
                        help="point to profile, in expansion order (default 0)")
    parser.add_argument("--top", type=int, default=25,
                        help="how many functions to print (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "calls"],
                        help="pstats sort key (default cumulative)")
    args = parser.parse_args(argv)

    spec = CampaignSpec.from_file(args.spec)
    expanded = expand(spec)
    if not expanded.points:
        print(f"profile: spec {args.spec!r} expands to no points",
              file=sys.stderr)
        return 2
    if not 0 <= args.index < len(expanded.points):
        print(f"profile: --index {args.index} out of range "
              f"(spec expands to {len(expanded.points)} points)",
              file=sys.stderr)
        return 2
    point = expanded.points[args.index]
    print(f"profiling point {args.index}/{len(expanded.points)}: "
          f"{point.approach} np={point.n_ranks} steps={point.n_steps} "
          f"hash={point.content_hash[:12]}")
    profiler = cProfile.Profile()
    profiler.enable()
    out = run_point(point)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(f"point result: overall_time={out.get('overall_time'):.6g} s  "
          f"gbps={out.get('gbps'):.4g}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type: a positive integer."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _trace_parser(prog: str, description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("approach",
                        help="strategy key (e.g. rbio_ng, coio_64, 1pfpp)")
    parser.add_argument("--np", type=_positive_int, default=128,
                        dest="n_ranks", help="rank count (default 128)")
    parser.add_argument("--steps", type=_positive_int, default=1,
                        help="checkpoint steps to run (default 1)")
    parser.add_argument("--delta", default="off",
                        choices=["off", "auto", "require"])
    parser.add_argument("--tam", default="off",
                        choices=["off", "auto", "require"])
    return parser


def _traced_run(parser, args):
    """Run one traced checkpoint experiment; returns the populated tracer.
    An unknown approach key exits 2 with ``parser``'s usage."""
    from .experiments.figures import problem_for, strategy_for
    from .experiments.runner import run_checkpoint_steps
    from .mpi import RunConfig

    try:
        strategy = strategy_for(args.approach, args.n_ranks, delta=args.delta,
                                tam=args.tam)
    except ValueError as exc:
        parser.error(str(exc))
    data = problem_for(args.n_ranks).data()
    run = run_checkpoint_steps(strategy, args.n_ranks, data, args.steps,
                               run_config=RunConfig(trace="full"))
    return run.job.tracer


def trace_main(argv: list[str]) -> int:
    """``repro-report trace``: run one traced step, export Chrome JSON."""
    parser = _trace_parser(
        "python -m repro.report trace",
        "Run one checkpoint experiment with full tracing and write a "
        "Chrome trace_event JSON (Perfetto-loadable).")
    parser.add_argument("--out", default="trace.json",
                        help="output path (default trace.json)")
    args = parser.parse_args(argv)
    from .trace.export import write_chrome_trace

    tracer = _traced_run(parser, args)
    doc = write_chrome_trace(tracer, args.out)
    print(f"{args.out}: {len(doc['traceEvents'])} events "
          f"({len(tracer.spans)} spans, {len(tracer.events)} instants) — "
          f"open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def timeline_main(argv: list[str]) -> int:
    """``repro-report timeline``: per-rank ASCII Gantt + critical path."""
    parser = _trace_parser(
        "python -m repro.report timeline",
        "Run one traced checkpoint experiment and render a per-rank "
        "terminal Gantt chart plus a critical-path summary.")
    parser.add_argument("--width", type=int, default=72,
                        help="chart width in characters (default 72)")
    parser.add_argument("--rows", type=int, default=32,
                        help="max rank rows before elision (default 32)")
    args = parser.parse_args(argv)
    from .trace.timeline import render_critical_path, render_timeline

    tracer = _traced_run(parser, args)
    sys.stdout.write(render_timeline(tracer, width=args.width,
                                     max_rows=args.rows))
    sys.stdout.write("\n")
    sys.stdout.write(render_critical_path(tracer))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "campaign":
        from .campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "timeline":
        return timeline_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Regenerate the paper's tables and figures as CSV files.",
    )
    parser.add_argument("figures", nargs="*", default=[],
                        help=f"subset to run (default all): {' '.join(FIGURES)}")
    parser.add_argument("--out", default="results",
                        help="output directory (default: results/)")
    parser.add_argument("--scale", choices=["paper", "small"], default="paper",
                        help="paper = 16K/32K/64K ranks; small = 1K/2K/4K")
    args = parser.parse_args(argv)

    wanted = args.figures or list(FIGURES)
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")
    sizes = (16384, 32768, 65536) if args.scale == "paper" else (1024, 2048, 4096)
    os.makedirs(args.out, exist_ok=True)
    for name in wanted:
        path = FIGURES[name](args.out, sizes)
        print(f"{name:>10} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
