"""Command-line front end.

Every subcommand reads/writes the JSON formats from `formats` and prints a
machine-readable report (stable key order).  Exit codes: 0 pass, 1
validation failure, 2 input error or unwritable output, 3 budget error.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import formats
from .bushes import dyadic_bush, lambda_max, random_bush, validate_bush
from .errors import BudgetError, InputError
from .families import (
    brute_force_alpha,
    challenge_respond,
    random_challenge,
    validate_witness,
)
from .gauge import gauge_renorm
from .lines import (
    format_label,
    intermediate_for_label,
    line_for_label,
    parse_label,
    sibling_deviation,
)
from .rationals import format_rational, parse_rational, parse_vector

PASS, FAIL, INPUT_ERROR, BUDGET_ERROR = 0, 1, 2, 3


def _emit(args, doc) -> None:
    text = formats.dumps_report(doc)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_bush(args):
    return formats.bush_from_dict(formats.load_json(args.bush))


def cmd_bush_gen(args) -> int:
    if args.dyadic is not None:
        bush = dyadic_bush(args.dyadic)
    elif args.random is not None:
        bush = random_bush(
            args.random,
            depth=args.depth,
            extra_atoms=args.extra_atoms,
            tight_epsilon=not args.loose_epsilon,
        )
    else:
        raise InputError("bush-gen needs --dyadic N or --random SEED")
    formats.dump_json(formats.bush_to_dict(bush), args.output or "bush.json")
    print(
        formats.dumps_report(
            {
                "written": args.output or "bush.json",
                "depth": bush.depth,
                "dimension": bush.space.dimension,
                "epsilon": format_rational(bush.epsilon),
                "lambda_max": format_rational(lambda_max(bush)),
            }
        )
    )
    return PASS


def cmd_bush_validate(args) -> int:
    bush = _load_bush(args)
    report = validate_bush(bush, normalized=not args.raw)
    doc = report.as_dict()
    doc["epsilon"] = format_rational(bush.epsilon)
    doc["lambda_max"] = format_rational(lambda_max(bush)) if bush.depth else None
    _emit(args, doc)
    return PASS if report.passed else FAIL


def cmd_line_build(args) -> int:
    bush = _load_bush(args)
    label = parse_label(args.label)
    if args.intermediate:
        line = intermediate_for_label(bush, label)
    else:
        line = line_for_label(bush, label)
    doc = {
        "label": format_label(label) or "()",
        "intermediate": bool(args.intermediate),
        "terms": len(line.terms),
        "vertices": len(line.terms) + 1,
        "total_arclength": format_rational(line.total_length),
        "max_gap": format_rational(line.max_gap()),
    }
    if args.export:
        with open(args.export, "w") as fh:
            fh.writelines(formats.line_table(line, args.number_format))
        doc["exported"] = args.export
    _emit(args, doc)
    return PASS


def cmd_deviation_report(args) -> int:
    bush = _load_bush(args)
    label = parse_label(args.label)
    selection = None
    if args.selection is not None:
        try:
            selection = [int(i) for i in args.selection.split(",") if i.strip() != ""]
        except ValueError as exc:
            raise InputError(f"--selection must be comma-separated gap indices: {exc}") from exc
    report = sibling_deviation(bush, label, selection)
    doc = report.as_dict()
    doc["epsilon_half"] = format_rational(bush.epsilon / 2)
    _emit(args, doc)
    return PASS


def cmd_challenge(args) -> int:
    bush = _load_bush(args)
    if args.challenge:
        geo, ts = formats.challenge_from_dict(bush, formats.load_json(args.challenge))
    else:
        rng = random.Random(args.seed)
        geo, ts = random_challenge(bush, rng)
    response = challenge_respond(bush, geo, ts, depth_limit=args.depth_limit)
    doc = formats.response_to_dict(
        response.geodesic,
        response.witness,
        deepened=response.deepened,
        challenge=response.challenge,
    )
    if not args.challenge:
        doc["generated_challenge"] = formats.challenge_to_dict(geo, ts)
    doc["deviation_total"] = format_rational(response.witness.deviation_total)
    doc["epsilon_quarter"] = format_rational(bush.epsilon / 4)
    _emit(args, doc)
    return PASS


def cmd_witness_validate(args) -> int:
    bush = _load_bush(args)
    geo, ts = formats.challenge_from_dict(bush, formats.load_json(args.challenge))
    response = formats.load_json(args.response)
    g_tilde, witness, challenge = formats.response_from_dict(bush, response)
    geo = challenge or geo
    alpha = parse_rational(args.alpha) if args.alpha else bush.epsilon / 4
    report = validate_witness(geo, g_tilde, ts, witness, alpha)
    doc = report.as_dict()
    doc["alpha"] = format_rational(alpha)
    _emit(args, doc)
    return PASS if report.passed else FAIL


def cmd_alpha_bruteforce(args) -> int:
    bush = _load_bush(args)
    family = formats.family_from_dict(bush, formats.load_json(args.family))
    if args.grid:
        grid = [parse_rational(x) for x in args.grid.split(",")]
    elif args.grid_depth < 0:
        raise InputError(f"grid depth must be >= 0, got {args.grid_depth}")
    else:
        grid = line_for_label(bush, (0,) * args.grid_depth).arclengths
    report = brute_force_alpha(bush, family, args.n_max, grid)
    _emit(args, report.as_dict())
    return PASS


def cmd_gauge_eval(args) -> int:
    bush = _load_bush(args)
    generators = [vec for lev in bush.levels for vec in lev]
    doc = {"base_norm_kind": bush.space.kind, "values": []}
    targets = []
    if args.vector:
        targets.append(("input", parse_vector(args.vector.split(","))))
    if args.bush_vectors or not args.vector:
        for n, lev in enumerate(bush.levels):
            for j, vec in enumerate(lev):
                targets.append((f"x[{n}][{j}]", vec))
    for name, vec in targets:
        doc["values"].append(
            {
                "vector": name,
                "gauge": format_rational(gauge_renorm(bush.space, generators, vec)),
                "base_norm": format_rational(bush.space.norm(vec)),
                "functional": format_rational(bush.functional(vec)),
            }
        )
    _emit(args, doc)
    return PASS


def cmd_export(args) -> int:
    bush = _load_bush(args)
    if args.label is not None:
        label = parse_label(args.label)
        line = (
            intermediate_for_label(bush, label)
            if args.intermediate
            else line_for_label(bush, label)
        )
        rows = formats.line_table(line, args.number_format)  # checks the size budget
    elif args.geodesic:
        geo = formats.geodesic_from_dict(bush, formats.load_json(args.geodesic))
        rows = [formats.geodesic_table(geo, samples=args.samples, mode=args.number_format)]
    else:
        raise InputError("export needs --label or --geodesic")
    with open(args.out, "w") as fh:
        fh.writelines(rows)
    _emit(args, {"exported": args.out})
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bushgeo",
        description="Bushes, broken-line geodesics, and the thickness game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bush-gen", help="generate a canonical bush")
    p.add_argument("--dyadic", type=int, metavar="N")
    p.add_argument("--random", type=int, metavar="SEED")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--extra-atoms", type=int, default=3)
    p.add_argument("--loose-epsilon", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bush_gen)

    p = sub.add_parser("bush-validate", help="run all bush axioms")
    p.add_argument("bush")
    p.add_argument("--raw", action="store_true", help="skip the normalized-bush checks")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bush_validate)

    p = sub.add_parser("line-build", help="build a labelled broken line")
    p.add_argument("bush")
    p.add_argument("--label", required=True)
    p.add_argument("--intermediate", action="store_true")
    p.add_argument("--export", metavar="FILE")
    p.add_argument("--number-format", choices=("rational", "decimal"), default="rational")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_line_build)

    p = sub.add_parser("deviation-report", help="sibling deviation across a label's gaps")
    p.add_argument("bush")
    p.add_argument("--label", required=True)
    p.add_argument("--selection", help="comma-separated gap indices (default: all)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_deviation_report)

    p = sub.add_parser("challenge", help="respond to a thickness challenge")
    p.add_argument("bush")
    p.add_argument("--challenge", metavar="FILE", help="JSON challenge (geodesic + t-points)")
    p.add_argument("--seed", type=int, default=0, help="generate a random challenge instead")
    p.add_argument("--depth-limit", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_challenge)

    p = sub.add_parser("witness-validate", help="validate a thickness witness")
    p.add_argument("bush")
    p.add_argument("--challenge", required=True, metavar="FILE")
    p.add_argument("--response", required=True, metavar="FILE")
    p.add_argument("--alpha", help="rational threshold (default epsilon/4)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_witness_validate)

    p = sub.add_parser("alpha-bruteforce", help="exhaustive thickness bound on a grid")
    p.add_argument("bush")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--n-max", type=int, default=1)
    p.add_argument("--grid", help="comma-separated rational arclengths")
    p.add_argument("--grid-depth", type=int, default=2)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_alpha_bruteforce)

    p = sub.add_parser("gauge-eval", help="gauge of conv(ball ∪ ±bush vectors)")
    p.add_argument("bush")
    p.add_argument("--vector", help="comma-separated rational coordinates")
    p.add_argument("--bush-vectors", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gauge_eval)

    p = sub.add_parser("export", help="tabular export of a line or pasted geodesic")
    p.add_argument("bush")
    p.add_argument("--label")
    p.add_argument("--intermediate", action="store_true")
    p.add_argument("--geodesic", metavar="FILE")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--number-format", choices=("rational", "decimal"), default="rational")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


_parser = functools.cache(build_parser)  # built on the first `main` call, then reused


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except (InputError, OSError) as exc:  # reads raise InputError; writes raise OSError
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
