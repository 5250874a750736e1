"""Command line: generate datasets, verify them, report stats, run evals.

The default seed comes from the GRIDMIND_SEED environment variable when
--seed is not given, falling back to 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bridge import bridge_agent_factory
from .cogmap import CotVariant, VARIANT_NAMES
from .dataset import (
    SPLITS,
    generate_dataset,
    load_specs,
    split_params,
    stats_from_files,
    verify_dataset,
)
from .generate import GenParams
from .harness import (
    DEFAULT_MAX_STEPS,
    MODES,
    evaluate_batch,
    load_plans,
    plans_agent_factory,
    scripted_agent_factory,
)
from .stats import METRICS, export_heatmap, sidecar_text

SEED_ENV_VAR = "GRIDMIND_SEED"


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmind",
        description="Gridworld path-planning datasets and agent evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write dataset shards and a stats sidecar")
    gen.add_argument("--split", choices=SPLITS, required=True)
    gen.add_argument("--variant", choices=VARIANT_NAMES, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--shards", type=int, default=1)
    gen.add_argument("--out", required=True)
    gen.add_argument("--size-min", type=int, default=None)
    gen.add_argument("--size-max", type=int, default=None)
    gen.add_argument("--wall-density", type=float, default=None)
    gen.add_argument("--pit-density", type=float, default=None)
    gen.add_argument(
        "--strict-backtrack",
        action="store_true",
        help="glue the first forward Backtrack state to its move word",
    )

    ver = sub.add_parser("verify", help="re-derive and check every record")
    ver.add_argument("targets", nargs="+", help="dataset files or directories")

    st = sub.add_parser("stats", help="aggregate metrics over a dataset")
    st.add_argument("target", help="dataset file or directory")
    st.add_argument("--heatmap", action="append", choices=METRICS, default=None)
    st.add_argument("--out", default=None, help="directory for stats.json and heatmaps")

    ev = sub.add_parser("eval", help="run an agent over a test file")
    ev.add_argument("--test-file", required=True)
    ev.add_argument(
        "--agent",
        required=True,
        help="oracle | random | dfs | bridge:<http url or stdio:cmd> | plans:<file>",
    )
    ev.add_argument("--mode", choices=MODES, required=True)
    ev.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    ev.add_argument("--workers", type=int, default=1)
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--timeout", type=float, default=30.0)
    ev.add_argument("--report", default=None, help="write the full report JSON here")
    return parser


def _gen_params(args, seed: int) -> GenParams | None:
    names = ("size_min", "size_max", "wall_density", "pit_density")
    overrides = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    return replace(split_params(args.split, seed), **overrides) if overrides else None


def cmd_generate(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    paths = generate_dataset(
        out_dir=args.out,
        split=args.split,
        variant=CotVariant.from_name(args.variant),
        count=args.count,
        seed=seed,
        shards=args.shards,
        params=_gen_params(args, seed),
        strict=args.strict_backtrack,
    )
    for path in paths:
        print(path)
    return 0


def cmd_verify(args) -> int:
    total = 0
    bad = 0
    for target in args.targets:
        report = verify_dataset(target)
        total += report.records
        bad += len(report.violations)
        for violation in report.violations:
            print(violation)
    print(f"checked {total} records: {bad} violation(s)")
    return 0 if bad == 0 else 1


def cmd_stats(args) -> int:
    if args.heatmap and not args.out:
        raise SystemExit("--heatmap requires --out")
    out = Path(args.out) if args.out else None
    if out:  # an unusable directory fails before the dataset is read
        out.mkdir(parents=True, exist_ok=True)
    report = stats_from_files(args.target)
    summary = report.to_json_dict()
    print(f"records: {summary['count']}")
    for metric in METRICS:
        agg = summary["overall"][metric]
        if agg["count"]:
            print(
                f"{metric}: mean={agg['mean']:.4f} min={agg['min']:.4f} "
                f"max={agg['max']:.4f}"
            )
    if out:
        stats_path = out / "stats.json"
        stats_path.write_text(sidecar_text(report))
        print(stats_path)
        for metric in args.heatmap or []:
            for path in export_heatmap(report, metric, out):
                print(path)
    return 0


def _agent_factory(agent: str, mode: str, timeout: float, episodes: int):
    if agent.startswith("bridge:"):
        return bridge_agent_factory(agent[len("bridge:"):], timeout)
    if agent.startswith("plans:"):
        replies = load_plans(agent[len("plans:"):])
        if len(replies) < episodes:  # fail before any episode runs
            raise ValueError(f"no recorded reply for episode {len(replies)}")
        return plans_agent_factory(replies, mode)
    return scripted_agent_factory(agent, mode)


def cmd_eval(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    path = Path(args.report) if args.report else None
    if path:  # an unusable path fails before the test file is read
        path.parent.mkdir(parents=True, exist_ok=True)
        path.open("a").close()
    specs = load_specs(args.test_file)
    report = evaluate_batch(
        specs,
        _agent_factory(args.agent, args.mode, args.timeout, len(specs)),
        mode=args.mode,
        max_steps=args.max_steps,
        workers=args.workers,
        seed=seed,
    )
    payload = report.to_json_dict()
    for outcome, count in payload["counts"].items():
        print(f"{outcome}: {count} ({payload['rates'][outcome]:.1%})")
    print(f"aborted: {payload['aborted']}")
    if path:
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "verify": cmd_verify,
        "stats": cmd_stats,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
