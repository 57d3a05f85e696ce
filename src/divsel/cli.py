"""Command-line interface.

Subcommands: select (run a selection, emit a run report), oracle (compare
against the exact optimizer), eval-metrics (score predictions),
gen-synth (write the synthesized benchmark as dense CSV), bench (objective
and runtime across modes and k values). All JSON goes to stdout or
--output with sorted keys.

Exit status: 0 success (also when the reader closes stdout early), 2 usage
error, 3 data error (parse/validation), 4 oracle budget refusal, 1 violated
guarantee or internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import (
    BinningSpec,
    generate_synthesized,
    load_dense_csv,
    load_sparse_multilabel,
    write_dense_csv,
)
from .errors import BudgetError, DataError, GuaranteeError
from .greedy import GreedyVariant
from .info import InfoCache
from .metrics import PredictionMatrix, multilabel_metrics
from .objective import ObjectiveConfig
from .oracle import DEFAULT_BUDGET, approximation_report
from .runner import centralized_select, default_machine_count, distributed_select, streaming_select

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BUDGET = 4

MODES = ("centralized", "distributed", "streaming")


def _add_dataset_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", default="-", help="input path, '-' for stdin")
    sub.add_argument("--format", choices=("dense-csv", "sparse-ml"), default="dense-csv")
    sub.add_argument("--labels", type=int, help="dense-csv: number of trailing label columns")
    sub.add_argument("--n-features", type=int, help="sparse-ml: feature count")
    sub.add_argument("--n-labels", type=int, help="sparse-ml: label count")
    sub.add_argument("--no-header", action="store_true", help="dense-csv has no header row")
    sub.add_argument(
        "--binning",
        choices=("equal-frequency", "equal-width", "none"),
        default="equal-frequency",
    )
    sub.add_argument("--bins", type=int, default=5)
    sub.add_argument("--max-raw-categories", type=int, default=32)


def _add_objective_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, required=True, help="number of features to select")
    sub.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sub.add_argument("--p", type=int, default=10, help="per-label top-p relevance depth")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divsel",
        description="Select diverse, label-relevant feature subsets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_select = subs.add_parser("select", help="run one selection")
    _add_dataset_flags(p_select)
    _add_objective_flags(p_select)
    p_select.add_argument("--mode", choices=MODES, default="centralized")
    p_select.add_argument("--algorithm", choices=("greedy", "altgreedy"), default="altgreedy")
    p_select.add_argument("--machines", type=int, help="default: ceil(sqrt(d/k))")
    p_select.add_argument("--seed", type=int, default=0)
    p_select.add_argument("--parallelism", type=int, default=1)
    p_select.add_argument("--output", help="write JSON here instead of stdout")

    p_oracle = subs.add_parser("oracle", help="compare against the exact optimizer")
    _add_dataset_flags(p_oracle)
    _add_objective_flags(p_oracle)
    p_oracle.add_argument("--machines", type=int)
    p_oracle.add_argument("--seeds", default="0", help="comma-separated distributed seeds")
    p_oracle.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_oracle.add_argument("--output")

    p_eval = subs.add_parser("eval-metrics", help="score a prediction matrix")
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--output")

    p_synth = subs.add_parser("gen-synth", help="write the synthesized benchmark")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", help="write CSV here instead of stdout")

    p_bench = subs.add_parser("bench", help="objective and runtime per mode and k")
    _add_dataset_flags(p_bench)
    p_bench.add_argument("--k", required=True, help="comma-separated k values")
    p_bench.add_argument("--modes", default="centralized,distributed")
    p_bench.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_bench.add_argument("--p", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--parallelism", type=int, default=1)
    p_bench.add_argument("--output")
    return parser


def _load_dataset(args, parser, k: int):
    """The dataset the flags name, with at least ``k`` features."""
    if args.bins < 2 and args.binning != "none":
        parser.error("--bins must be >= 2")
    binning = BinningSpec(args.binning.replace("-", "_"), args.bins, args.max_raw_categories)
    stream = sys.stdin if args.input == "-" else args.input
    if args.format == "dense-csv":
        if args.labels is None:
            parser.error("--labels is required for dense-csv input")
        data = load_dense_csv(stream, args.labels, has_header=not args.no_header, binning=binning)
    else:
        if args.n_features is None or args.n_labels is None:
            parser.error("--n-features and --n-labels are required for sparse-ml input")
        data = load_sparse_multilabel(stream, args.n_features, args.n_labels, binning=binning)
    if k > data.n_features:
        parser.error(f"--k {k} exceeds the {data.n_features} available features")
    return data


def _to_stdout(write) -> None:
    """Run ``write(sys.stdout)`` and flush. A reader that closes the pipe
    early (e.g. ``| head``) is not an error: the rest of the output is
    dropped and stdout is pointed at devnull, so that the interpreter's
    final flush prints nothing."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(payload, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _to_stdout(lambda out: out.write(text))


# The least value of each integer flag, by argparse dest; an unset flag
# (None) is not checked.
_FLOORS = {
    "k": 1, "p": 1, "machines": 1, "parallelism": 1, "budget": 1, "seed": 0,
    "labels": 1, "n_features": 1, "n_labels": 1, "max_raw_categories": 1,
}


def _check_flags(args, parser) -> None:
    """Usage errors that need no data: an integer flag below its floor, or
    a --lambda outside [0, 1]."""
    for dest, floor in _FLOORS.items():
        value = getattr(args, dest, None)
        if isinstance(value, int) and value < floor:
            parser.error(f"--{dest.replace('_', '-')} must be >= {floor}")
    if hasattr(args, "lam") and not 0.0 <= args.lam <= 1.0:
        parser.error("--lambda must be in [0, 1]")


def _run_mode(mode, data, k, cfg, cache, algorithm, machines, seed, parallelism):
    """One selection run in ``mode``; ``cache`` and ``algorithm`` serve the
    centralized run, ``machines`` (None: the default count) the others."""
    if mode == "centralized":
        return centralized_select(data, k, cfg, GreedyVariant(algorithm), cache)
    if mode == "distributed":
        return distributed_select(data, k, cfg, m=machines, seed=seed, parallelism=parallelism)
    return streaming_select(data, k, cfg, m=machines, seed=seed)


def _cmd_select(args, parser) -> int:
    data = _load_dataset(args, parser, args.k)
    cache = InfoCache(data)
    cfg = ObjectiveConfig.weighted(cache.mi_table(), args.k, args.lam, args.p)
    report = _run_mode(
        args.mode, data, args.k, cfg, cache, args.algorithm, args.machines, args.seed, args.parallelism
    )
    payload = report.to_json_dict()
    payload["config"]["bins"] = args.bins
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_oracle(args, parser) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        parser.error("--seeds must be comma-separated integers")
    if not seeds:
        parser.error("--seeds must name at least one seed")
    if min(seeds) < 0:
        parser.error("--seeds must be >= 0")
    data = _load_dataset(args, parser, args.k)
    cache = InfoCache(data)
    cfg = ObjectiveConfig.weighted(cache.mi_table(), args.k, args.lam, args.p)
    machines = args.machines or default_machine_count(data.n_features, args.k)
    report = approximation_report(data, args.k, cfg, machines, seeds, budget=args.budget)
    payload = report.to_json_dict()
    payload["config"] = {
        "k": args.k,
        "lambda": args.lam,
        "p": args.p,
        "machines": machines,
        "seeds": seeds,
        "budget": args.budget,
    }
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_eval_metrics(args, parser) -> int:
    truth = PredictionMatrix.from_csv(args.truth)
    pred = PredictionMatrix.from_csv(args.pred)
    _emit(multilabel_metrics(truth, pred), args.output)
    return EXIT_OK


def _cmd_gen_synth(args, parser) -> int:
    data = generate_synthesized(args.seed)
    if args.output:
        write_dense_csv(data, args.output)
    else:
        _to_stdout(lambda out: write_dense_csv(data, out))
    return EXIT_OK


def _cmd_bench(args, parser) -> int:
    try:
        ks = [int(s) for s in args.k.split(",") if s.strip() != ""]
    except ValueError:
        parser.error("--k must be comma-separated integers")
    if not ks or any(k < 1 for k in ks):
        parser.error("--k values must be >= 1")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        parser.error("--modes must name at least one mode")
    for mode in modes:
        if mode not in MODES:
            parser.error(f"--modes: unknown mode {mode!r}")
    data = _load_dataset(args, parser, max(ks))
    cache = InfoCache(data)
    runs = []
    for k in ks:
        cfg = ObjectiveConfig.weighted(cache.mi_table(), k, args.lam, args.p)
        machines = default_machine_count(data.n_features, k)
        for mode in modes:
            rep = _run_mode(mode, data, k, cfg, cache, "altgreedy", machines, args.seed, args.parallelism)
            runs.append(
                {
                    "mode": mode,
                    "k": k,
                    "machines": machines if mode != "centralized" else None,
                    "objective_h": rep.objective["h"],
                    "relevance_term": rep.objective["relevance_term"],
                    "diversity_term": rep.objective["diversity_term"],
                    "runtime_ms": rep.timings_ms["total"],
                    "partition_ms": rep.timings_ms["partition"],
                    "map_ms": rep.timings_ms["map"],
                    "reduce_ms": rep.timings_ms["reduce"],
                }
            )
    payload = {
        "dataset": {
            "n_features": data.n_features,
            "n_instances": data.n_instances,
            "n_labels": data.n_labels,
        },
        "config": {"lambda": args.lam, "p": args.p, "seed": args.seed, "parallelism": args.parallelism},
        "runs": runs,
    }
    _emit(payload, args.output)
    return EXIT_OK


_COMMANDS = {
    "select": _cmd_select,
    "oracle": _cmd_oracle,
    "eval-metrics": _cmd_eval_metrics,
    "gen-synth": _cmd_gen_synth,
    "bench": _cmd_bench,
}


def run(argv) -> int:
    """Parse argv (without the program name) and execute one subcommand."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        _check_flags(args, parser)
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    except (DataError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GuaranteeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
