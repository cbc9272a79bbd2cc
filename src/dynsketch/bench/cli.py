"""Command-line benchmark harness.

Subcommands:
  insert        run the feature-insertion experiment: the update rules against
                re-sketching, as CSV or a human table of RMSE, timing and speedup
  delete        the same experiment for feature deletion
  uniformity    empirical minwise-uniformity check of the permutation sources
                (random generation, lifted, dropped)
  parse-check   parse a docword file and report its shape

Exit codes: 0 success, 1 validation problem, 2 I/O or malformed input.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dynsketch.core import ValidationError
from dynsketch.estimate import minwise_uniformity_test
from dynsketch.ingest import ParseError, load_docword
from dynsketch.permgen import PermutationSeed, drop_perm, lift_perm, random_permutation
from dynsketch.bench.experiment import (
    ExperimentConfig,
    emit_report,
    run_experiment,
)

_UNIFORMITY_SOURCES = ("random", "drop", "lift")


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as validation errors."""

    def error(self, message):
        raise ValidationError(message)


def _parse_synthetic(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("--synthetic expects 'dim,support_size,points'")
    try:
        d, k, pts = (int(p) for p in parts)
    except ValueError:
        raise ValidationError("--synthetic values must be integers") from None
    return d, k, pts


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise ValidationError(f"{flag} values must be integers") from None
    if not values:
        raise ValidationError(f"{flag} needs at least one value")
    return values


def _add_experiment_flags(sub):
    sub.add_argument("--data", help="docword corpus file (optionally gzipped)")
    sub.add_argument(
        "--synthetic",
        help="generate a corpus instead: dim,support_size,points",
    )
    sub.add_argument("--sample", type=int, default=None, help="sample this many points")
    sub.add_argument("--num-perms", type=int, default=500, help="sketch width K")
    sub.add_argument("--n", default="64", help="batch size(s), comma separated")
    sub.add_argument(
        "--one-prob",
        type=float,
        default=0.1,
        help="probability an inserted bit is 1 (insert mode)",
    )
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument(
        "--paths",
        default="sequential,batch,scratch",
        help="comma separated subset of sequential,batch,scratch",
    )
    sub.add_argument(
        "--scratch-perms",
        choices=("fresh", "lineage"),
        default="fresh",
        help="scratch baseline: fresh permutations (default) or lifted/dropped lineage",
    )
    sub.add_argument("--reps", type=int, default=5, help="timed repetitions (after one warm-up)")
    sub.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    sub.add_argument("--format", choices=("csv", "human"), default="csv")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="dynsketch", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for mode, help_text in (
        ("insert", "run the feature-insertion experiment"),
        ("delete", "run the feature-deletion experiment"),
    ):
        sub = subs.add_parser(mode, help=help_text)
        _add_experiment_flags(sub)

    uni = subs.add_parser("uniformity", help="empirical minwise-uniformity check")
    uni.add_argument(
        "--source",
        default="drop,lift",
        help=f"comma separated subset of {','.join(_UNIFORMITY_SOURCES)}",
    )
    uni.add_argument("--dim", type=int, default=None, help="permutation dimension before lift/drop")
    uni.add_argument("--set-size", type=int, default=5)
    uni.add_argument("--trials", type=int, default=200_000)
    uni.add_argument("--seed", type=int, default=0)
    uni.add_argument("--fixed-r", type=int, default=None, help="slot used by the drop source")
    uni.add_argument("--out", default=None)

    chk = subs.add_parser("parse-check", help="parse a docword file and report its shape")
    chk.add_argument("--data", required=True)

    return parser


def _experiment_command(args) -> str:
    config = ExperimentConfig(
        mode=args.command,
        num_perms=args.num_perms,
        n_features=_parse_int_list(args.n, "--n"),
        insert_one_prob=args.one_prob,
        master_seed=args.seed,
        paths=tuple(p.strip() for p in args.paths.split(",") if p.strip()),
        scratch_perms=args.scratch_perms,
        repetitions=args.reps,
        threads=args.threads,
        data=args.data,
        synthetic=_parse_synthetic(args.synthetic) if args.synthetic else None,
        sample_size=args.sample,
    )
    return emit_report(run_experiment(config), args.format)


def _uniformity_defaults(source: str) -> tuple[int, int]:
    # dimension before lift/drop, and the fixed drop slot
    if source == "lift":
        return 256, 1
    return 32, 7


def _uniformity_command(args) -> str:
    sources = tuple(s.strip() for s in args.source.split(",") if s.strip())
    if not sources or any(s not in _UNIFORMITY_SOURCES for s in sources):
        raise ValidationError(
            f"--source must be a subset of {','.join(_UNIFORMITY_SOURCES)}"
        )
    if args.set_size < 2:
        raise ValidationError("--set-size must be at least 2")
    lines = ["source,element,frequency"]
    summary = []
    for source in sources:
        default_dim, default_r = _uniformity_defaults(source)
        dim = args.dim if args.dim is not None else default_dim
        if dim < args.set_size + 2:
            raise ValidationError("--dim too small for the requested set size")
        out_dim = dim + 1 if source == "lift" else (dim - 1 if source == "drop" else dim)
        # The streams [seed, 17] here and [seed, 19] below are also those of
        # the permutations of trials 17 and 19.
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 17]))
        support = tuple(
            int(u) for u in np.sort(rng.choice(out_dim, size=args.set_size, replace=False) + 1)
        )
        if source == "random":
            perm_source = lambda t: random_permutation(dim, PermutationSeed(args.seed, t))
        elif source == "drop":
            fixed_r = args.fixed_r if args.fixed_r is not None else default_r
            if not 1 <= fixed_r <= dim:
                raise ValidationError(f"--fixed-r must lie in 1..{dim}")
            perm_source = lambda t: drop_perm(
                random_permutation(dim, PermutationSeed(args.seed, t)), fixed_r
            )
        else:
            # A negative trial count draws no slot, so that the test below
            # refuses it as it does for the other sources.
            slots = np.random.default_rng(
                np.random.SeedSequence([args.seed, 19])
            ).integers(1, dim + 1, size=max(args.trials, 0))
            perm_source = lambda t: lift_perm(
                random_permutation(dim, PermutationSeed(args.seed, t)), int(slots[t])
            )
        result = minwise_uniformity_test(perm_source, support, args.trials)
        for element in sorted(result.frequencies):
            lines.append(f"{source},{element},{result.frequencies[element]:.6f}")
        summary.append(
            f"# {source}: trials={result.trials} max_deviation={result.max_deviation:.6f}"
        )
    return "\n".join(lines + summary) + "\n"


def _parse_check_command(args) -> str:
    corpus = load_docword(args.data)
    sizes = [v.support_index().size for v in corpus.vectors]
    nnz = sum(sizes)
    empty = sizes.count(0)
    return (
        f"docs={corpus.num_docs} vocab={corpus.vocab_size} "
        f"nnz={nnz} empty_docs={empty}\n"
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("insert", "delete"):
            text = _experiment_command(args)
        elif args.command == "uniformity":
            text = _uniformity_command(args)
        else:
            text = _parse_check_command(args)
        out = getattr(args, "out", None)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
