"""Command-line interface.

Subcommands: ``necklaces``, ``convolve``, ``pathsum``, ``analyze``, ``demo``.
Exit codes: 0 success, 2 configuration error, 3 input error, 4 resource limit.
Identical configuration and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analysis, moments, pathsum
from .errors import ConfigError, InputError, ResourceLimitError
from .matrices import EnsembleSpec, load_pair_file
from .words import Word, enumerate_necklaces

_DEMOS = ("arcsine", "pauli", "example19")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialfree",
        description="Quantify how close two random matrices are to free independence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_neck = sub.add_parser("necklaces", help="enumerate cyclic word classes")
    p_neck.add_argument("n", type=int, help="word length")
    p_neck.add_argument("k", type=int, help="alphabet size")
    p_neck.add_argument("--format", choices=("text", "json"), default="text")
    p_neck.add_argument("--fold-reflections", action="store_true",
                        help="merge mirror-image classes (real-symmetric data only)")

    p_conv = sub.add_parser("convolve", help="convolve two moment sequences")
    mode = p_conv.add_mutually_exclusive_group(required=True)
    mode.add_argument("--free", action="store_true")
    mode.add_argument("--classical", action="store_true")
    p_conv.add_argument("--moments-a", required=True,
                        help="comma-separated mu_0,mu_1,... of the first law")
    p_conv.add_argument("--moments-b", required=True)
    p_conv.add_argument("--order", type=int, default=None)

    p_path = sub.add_parser("pathsum", help="exact word value on a chain model")
    p_path.add_argument("--word", required=True,
                        help="flattened two-letter word, e.g. ABABABAB")
    p_path.add_argument("--chain", type=int, required=True, help="number of sites")
    p_path.add_argument("--circulant", action="store_true")
    p_path.add_argument("--moments", required=True,
                        help="comma-separated entry moments m_1,m_2,...")

    def add_run_flags(p, with_input: bool):
        if with_input:
            p.add_argument("--input", required=True, help="JSONL file of matrix pairs")
            p.add_argument("--t", type=int, default=None,
                           help="number of records to use (default: all)")
        else:
            p.add_argument("--n", type=int, default=None, help="matrix dimension")
            p.add_argument("--t", type=int, default=None, help="number of sample pairs")
        p.add_argument("--k", type=int, default=None, help="largest moment order tested")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--no-exact-sum", action="store_true",
                       help="omit the exact sum's density f_sum")
        p.add_argument("--no-classical", action="store_true",
                       help="skip the permutation-paired spectrum")

    p_an = sub.add_parser("analyze", help="analyze matrix pairs from a file")
    add_run_flags(p_an, with_input=True)

    p_demo = sub.add_parser("demo", help="run a built-in ensemble")
    p_demo.add_argument("name", choices=_DEMOS)
    add_run_flags(p_demo, with_input=False)
    return parser


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what} must be a comma-separated list of numbers, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} must hold finite numbers, got {text!r}")
    return values


def _cmd_necklaces(args) -> int:
    if args.k > 26:
        raise ConfigError(f"necklaces are written in the 26 letters A-Z, got k = {args.k}")
    necklaces = enumerate_necklaces(args.n, args.k,
                                    fold_reflections=args.fold_reflections)
    if args.format == "json":
        payload = [{"representative": n.word.to_string(), "multiplicity": n.multiplicity}
                   for n in necklaces]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for n in necklaces:
            print(f"{n.word.to_string()} {n.multiplicity}")
    return 0


def _cmd_convolve(args) -> int:
    mu_a = _parse_floats(args.moments_a, "--moments-a")
    mu_b = _parse_floats(args.moments_b, "--moments-b")
    convolve = moments.free_convolve if args.free else moments.classical_convolve
    result = convolve(mu_a, mu_b, args.order)
    print(",".join(repr(float(v)) for v in result))
    return 0


def _cmd_pathsum(args) -> int:
    entry_moments = _parse_floats(args.moments, "--moments")
    word = Word.from_string(args.word, k=2)
    model = pathsum.LatticeModel.chain(args.chain, entry_moments, circulant=args.circulant)
    value = pathsum.exact_word_net(word, model)
    print(repr(float(value)))
    return 0


def _run_report(args, spec: EnsembleSpec, sample_count: int, order: int) -> int:
    """Run the analysis and write its report; a missing --output directory fails first."""
    if args.output and not os.path.isdir(os.path.dirname(args.output) or "."):
        raise InputError(f"{args.output}: the directory does not exist")
    report = analysis.run_analysis(analysis.AnalysisConfig(
        ensemble=spec,
        sample_count=sample_count,
        order=order,
        alpha=args.alpha,
        include_exact_sum=not args.no_exact_sum,
        include_classical=not args.no_classical,
        threads=args.threads,
    ))
    text = report.to_json() if args.format == "json" else report.densities_csv()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_analyze(args) -> int:
    spec = EnsembleSpec.from_file(args.input, seed=args.seed)
    available = len(load_pair_file(args.input))
    count = args.t if args.t is not None else available
    if count > available:
        raise InputError(f"{args.input}: requested {count} samples, file has {available}")
    order = args.k if args.k is not None else 6
    return _run_report(args, spec, count, order)


def _cmd_demo(args) -> int:
    if args.name == "arcsine":
        spec = EnsembleSpec.rotation_pair(seed=args.seed)
        count = args.t if args.t is not None else 10000
        order = args.k if args.k is not None else 6
        if args.n not in (None, 2):
            raise ConfigError("the arcsine demo is fixed at dimension 2")
    elif args.name == "pauli":
        dimension = args.n if args.n is not None else 12
        spec = EnsembleSpec.pauli_block_pair(dimension, seed=args.seed)
        count = args.t if args.t is not None else 32
        order = args.k if args.k is not None else dimension
    else:  # example19
        dimension = args.n if args.n is not None else 200
        spec = EnsembleSpec.tridiagonal_adjacency(dimension, seed=args.seed, circulant=True)
        count = args.t if args.t is not None else 500
        order = args.k if args.k is not None else 8
    return _run_report(args, spec, count, order)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "necklaces": _cmd_necklaces,
        "convolve": _cmd_convolve,
        "pathsum": _cmd_pathsum,
        "analyze": _cmd_analyze,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
