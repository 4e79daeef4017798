"""Command-line front door: segment, plan, synth, eval, oracle-check, sweep.

Exit codes: 0 success, 1 invariant or data failure, 2 flag misuse. All
numeric flags are validated before anything is written, human-readable
summaries go to stdout, and machine-readable content only to --out files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import io
from .errors import CandidateCountMismatchError, KtsError
from .metrics import _against_uniform, _uniform_gather, boundary_metrics
from .oracle import _check_size, brute_force
from .sampling import VideoTimeline, plan_samples, uniform_change_points
from .segmentation import (
    DEFAULT_CANDIDATE_CAP,
    KernelSpec,
    build_variance_table,
    compute_gram,
    solve_auto,
    solve_fixed,
    solve_range,
)
from .synth import SynthConfig, generate

#: Divisors of the candidate count forming the sweep's segment-count grid.
SWEEP_DIVISORS = (1, 2, 3, 4, 6)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be nonnegative and finite, got {value}")
    return value


def _kernel(text: str) -> KernelSpec:
    try:
        return KernelSpec.from_tag(text)
    except KtsError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _candidate_cap(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("KTS_MAX_CANDIDATES")
    if raw is None:
        return DEFAULT_CANDIDATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        parser.error(f"KTS_MAX_CANDIDATES must be an integer, got {raw!r}")
    if cap < 1:
        parser.error(f"KTS_MAX_CANDIDATES must be positive, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktseg",
        description="Kernel temporal segmentation and adaptive frame sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="detect change points in a feature file")
    seg.set_defaults(run=_cmd_segment)
    seg.add_argument("--features", required=True, help="feature matrix (.csv or .ktsf)")
    mode = seg.add_mutually_exclusive_group(required=True)
    mode.add_argument("--m", type=_positive_int, help="exact segment count")
    mode.add_argument("--auto", action="store_true", help="choose the segment count automatically")
    seg.add_argument("--max-segments", type=_positive_int, help="upper bound for --auto")
    seg.add_argument("--penalty-weight", type=_positive_float, default=1.0)
    seg.add_argument("--kernel", type=_kernel, default=KernelSpec(), help="dot, cosine, or rbf:BW")
    seg.add_argument("--min-seg-len", type=_positive_int, default=1)
    seg.add_argument("--out", required=True, help="segmentation JSON to write")

    plan = sub.add_parser("plan", help="turn a segmentation into an m x k frame schedule")
    plan.set_defaults(run=_cmd_plan)
    plan.add_argument("--segmentation", required=True)
    plan.add_argument("--k", type=_positive_int, required=True, help="frames per segment")
    plan.add_argument("--duration", type=_positive_float, required=True, help="video length in seconds")
    plan.add_argument("--fps", type=_positive_float, required=True, help="source frame rate")
    plan.add_argument("--rate", type=_positive_float, required=True, help="candidates per second")
    plan.add_argument("--out", required=True, help="plan JSON to write")

    synth = sub.add_parser("synth", help="generate a synthetic instance with planted boundaries")
    synth.set_defaults(run=_cmd_synth)
    synth.add_argument("--n", type=_positive_int, required=True)
    synth.add_argument("--d", type=_positive_int, required=True)
    synth.add_argument("--segments", type=_positive_int, required=True)
    synth.add_argument("--separation", type=_nonnegative_float, required=True)
    synth.add_argument("--sigma", type=_nonnegative_float, required=True)
    synth.add_argument("--seed", type=_nonnegative_int, required=True)
    synth.add_argument("--min-seg-len", type=_positive_int, default=1)
    synth.add_argument("--features-out", required=True, help=".csv or .ktsf to write")
    synth.add_argument("--truth-out", required=True, help="ground-truth JSON to write")

    ev = sub.add_parser("eval", help="score predicted boundaries against ground truth")
    ev.set_defaults(run=_cmd_eval)
    ev.add_argument("--pred", required=True, help="segmentation or truth JSON")
    ev.add_argument("--truth", required=True, help="segmentation or truth JSON")
    ev.add_argument("--tolerance", type=_nonnegative_int, default=0)

    oc = sub.add_parser("oracle-check", help="compare the DP solver against enumeration")
    oc.set_defaults(run=_cmd_oracle_check)
    oc.add_argument("--features", required=True)
    oc.add_argument("--m", type=_positive_int, required=True)
    oc.add_argument("--kernel", type=_kernel, default=KernelSpec())
    oc.add_argument("--min-seg-len", type=_positive_int, default=1)

    sweep = sub.add_parser(
        "sweep", help="KTS vs uniform across the segment counts n/{1,2,3,4,6}",
        description="Compare KTS with uniform sampling on synthetic instances of seeds 0..seeds-1 "
        "at the segment counts n // {1,2,3,4,6} (at least 1, duplicates once).",
    )
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("--seeds", type=_positive_int, default=5, help="number of seeds (0..seeds-1)")
    sweep.add_argument("--n", type=_positive_int, required=True)
    sweep.add_argument("--d", type=_positive_int, required=True)
    sweep.add_argument("--segments", type=_positive_int, required=True)
    sweep.add_argument("--separation", type=_nonnegative_float, required=True)
    sweep.add_argument("--sigma", type=_nonnegative_float, required=True)
    sweep.add_argument("--min-seg-len", type=_positive_int, default=1,
                       help="shortest planted segment; the solver may cut shorter ones")
    sweep.add_argument("--tolerance", type=_nonnegative_int, default=2)
    sweep.add_argument("--out", required=True, help="CSV to write")
    return parser


def _cmd_segment(parser, args) -> int:
    if args.auto and args.max_segments is None:
        parser.error("--auto requires --max-segments")
    scatter = compute_gram(
        io.read_features(args.features), args.kernel, max_candidates=_candidate_cap(parser)
    )
    if args.auto:
        seg = solve_auto(
            scatter,
            args.max_segments,
            penalty_weight=args.penalty_weight,
            min_segment_length=args.min_seg_len,
        )
    else:
        seg = solve_fixed(scatter, args.m, min_segment_length=args.min_seg_len)
    io.write_segmentation(seg, args.out, kernel=args.kernel.tag)
    print(f"m={seg.m} changePoints={list(seg.change_points)} objective={seg.objective:.17g}")
    return 0


def _cmd_plan(parser, args) -> int:
    seg = io.read_segmentation(args.segmentation)
    timeline = VideoTimeline(duration_seconds=args.duration, source_fps=args.fps)
    plan = plan_samples(seg, args.k, timeline, args.rate)
    io.write_plan(plan, args.out)
    frames = plan.all_source_frames()
    print(f"m={plan.m} k={plan.k} frames={len(frames)} first={frames[0]} last={frames[-1]}")
    return 0


def _cmd_synth(parser, args) -> int:
    config = SynthConfig(
        n=args.n,
        d=args.d,
        segment_count=args.segments,
        mean_separation=args.separation,
        noise_sigma=args.sigma,
        seed=args.seed,
        min_segment_length=args.min_seg_len,
    )
    instance = generate(config)
    io.write_features(instance.features, args.features_out)
    io.write_truth(
        io.GroundTruth(n=config.n, change_points=instance.true_change_points, seed=config.seed),
        args.truth_out,
    )
    print(
        f"n={config.n} d={config.d} segments={config.segment_count} "
        f"changePoints={list(instance.true_change_points)}"
    )
    return 0


def _cmd_eval(parser, args) -> int:
    pred_n, pred = io.read_boundaries(args.pred)
    truth_n, truth = io.read_boundaries(args.truth)
    if pred_n != truth_n:
        raise CandidateCountMismatchError(
            f"{args.pred} covers {pred_n} candidates but {args.truth} covers {truth_n}"
        )
    metrics = boundary_metrics(pred, truth, args.tolerance)
    doc = {
        "precision": metrics.precision,
        "recall": metrics.recall,
        "f1": metrics.f1,
        "matchedCount": metrics.matched_count,
        "tolerance": metrics.tolerance,
    }
    print(io.render_document(doc), end="")
    return 0


def _cmd_oracle_check(parser, args) -> int:
    features = io.read_features(args.features)
    _check_size(features.n)  # before the solves, which the oracle would then refuse
    gram = compute_gram(features, args.kernel, max_candidates=_candidate_cap(parser))
    dp = solve_fixed(gram, args.m, min_segment_length=args.min_seg_len)
    bf = brute_force(build_variance_table(gram), args.m, min_segment_length=args.min_seg_len)
    same = dp.change_points == bf.change_points and abs(dp.objective - bf.objective) <= 1e-9
    if same:
        print(f"MATCH m={args.m} changePoints={list(dp.change_points)} objective={dp.objective:.17g}")
        return 0
    print(
        f"MISMATCH dp={list(dp.change_points)} ({dp.objective:.17g}) "
        f"bf={list(bf.change_points)} ({bf.objective:.17g})"
    )
    return 1


def _cmd_sweep(parser, args) -> int:
    cap = _candidate_cap(parser)
    grid = list(dict.fromkeys(max(args.n // div, 1) for div in SWEEP_DIVISORS))  # distinct, in order
    rows = []
    for seed in range(args.seeds):
        config = SynthConfig(
            n=args.n,
            d=args.d,
            segment_count=args.segments,
            mean_separation=args.separation,
            noise_sigma=args.sigma,
            seed=seed,
            min_segment_length=args.min_seg_len,
        )
        instance = generate(config)
        gram = compute_gram(instance.features, max_candidates=cap)
        truth = list(instance.true_change_points)
        gather = _uniform_gather(gram, grid)
        solved = solve_range(gather, grid)  # its one block pass also reads the uniform windows
        comparisons = _against_uniform(solved, gather)
        for m, seg, comparison in zip(grid, solved, comparisons):
            kts_f1 = boundary_metrics(list(seg.change_points), truth, args.tolerance).f1
            uni_f1 = boundary_metrics(uniform_change_points(args.n, m), truth, args.tolerance).f1
            rows.append((seed, m, comparison.kts_objective, comparison.uniform_objective, kts_f1, uni_f1))

    lines = ["seed,m,ktsObjective,uniformObjective,ktsF1,uniformF1"]
    for seed, m, kts_obj, uni_obj, kts_f1, uni_f1 in rows:
        lines.append(f"{seed},{m},{kts_obj:.17g},{uni_obj:.17g},{kts_f1:.17g},{uni_f1:.17g}")
    io.atomic_write_text(args.out, "\n".join(lines) + "\n")

    for m in grid:
        cells = [r for r in rows if r[1] == m]
        mean_kts = sum(r[4] for r in cells) / len(cells)
        mean_uni = sum(r[5] for r in cells) / len(cells)
        print(f"m={m}: mean ktsF1={mean_kts:.4f} mean uniformF1={mean_uni:.4f}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(parser, args)
    except (KtsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
