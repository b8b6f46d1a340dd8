"""File formats: JSON documents with rational-string scalars, TSV exports.

All scalars travel as rational strings ("3/2"), so write-then-read
round-trips are bit-exact.  Decimal output (12 significant digits,
round-half-even) exists only for exports feeding plotters and is never
used on validation paths.
"""

from __future__ import annotations

import decimal
import itertools
import json
from fractions import Fraction
from typing import Optional, Sequence

from .bushes import Bush
from .errors import InputError, check_budget
from .families import (BranchSpec, DeviationPoint, PastedGeodesic, PieceRecord,
                       ThicknessWitness, paste)
from .lines import BrokenLine, format_label
from .rationals import format_rational, format_vector, parse_rational
from .spaces import Functional, NormedSpace

_DECIMAL_CTX = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)

# what reading a field of a malformed document raises: a missing key, or a
# value of the wrong type or form (a list where a number is due, "x" as an int)
_MALFORMED = (KeyError, TypeError, ValueError)


def _malformed(what: str, exc: Exception) -> InputError:
    if isinstance(exc, KeyError):
        return InputError(f"{what} document is missing field {exc}")
    return InputError(f"malformed {what} document: {exc}")


def format_decimal(value) -> str:
    frac = Fraction(value)
    return str(_DECIMAL_CTX.divide(decimal.Decimal(frac.numerator), decimal.Decimal(frac.denominator)))


def format_number(value, mode: str = "rational") -> str:
    if mode == "rational":
        return format_rational(value)
    if mode == "decimal":
        return format_decimal(value)
    raise InputError(f"unknown number format {mode!r}")


# ---------------------------------------------------------------- spaces


def space_to_dict(space: NormedSpace) -> dict:
    doc = {"dimension": space.dimension, "norm": space.kind}
    if space.weights is not None:
        doc["weights"] = format_vector(space.weights)
    return doc


def space_from_dict(doc: dict, rational=parse_rational) -> NormedSpace:
    try:
        dimension = int(doc["dimension"])
        kind = doc["norm"]
        weights = (tuple(map(rational, doc["weights"]))
                   if "weights" in doc and doc["weights"] else None)
    except _MALFORMED as exc:
        raise _malformed("space", exc) from exc
    return NormedSpace(dimension, kind, weights)


# ---------------------------------------------------------------- bushes


def bush_to_dict(bush: Bush) -> dict:
    return {
        "space": space_to_dict(bush.space),
        "epsilon": format_rational(bush.epsilon),
        "levels": [[format_vector(vec) for vec in lev] for lev in bush.levels],
        "partitions": [[list(block) for block in lev] for lev in bush.partitions],
        "weights": [format_vector(lev) for lev in bush.weights],
        "functional": format_vector(bush.functional.coefficients),
    }


def bush_from_dict(doc: dict) -> Bush:
    """The bush of a `bush_to_dict` document.  Each distinct rational string
    is parsed once per document: a bush repeats few values many times."""
    parsed = {}  # rational string -> Fraction

    def rational(text):
        if type(text) is not str:  # parsed (or refused) on its own
            return parse_rational(text)
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_rational(text)
        return value

    def vector(items):
        return tuple(map(rational, items))

    try:
        space = space_from_dict(doc["space"], rational)
        levels = tuple(tuple(vector(vec) for vec in lev) for lev in doc["levels"])
        partitions = tuple(
            tuple(tuple(int(j) for j in block) for block in lev) for lev in doc["partitions"]
        )
        weights = tuple(vector(lev) for lev in doc["weights"])
        return Bush(
            space=space,
            levels=levels,
            partitions=partitions,
            weights=weights,
            epsilon=rational(doc["epsilon"]),
            functional=Functional(vector(doc["functional"])),
        )
    except _MALFORMED as exc:
        raise _malformed("bush", exc) from exc


# ------------------------------------------------------------- geodesics


def branch_spec_to_dict(spec: BranchSpec) -> dict:
    return {"bits": list(spec.bits), "depth": spec.depth}


def branch_spec_from_dict(doc: dict) -> BranchSpec:
    try:
        return BranchSpec(tuple(int(b) for b in doc["bits"]), int(doc["depth"]))
    except _MALFORMED as exc:
        raise _malformed("branch", exc) from exc


def geodesic_to_dict(geo: PastedGeodesic) -> dict:
    return {
        "breakpoints": [format_rational(h) for h in geo.breakpoints],
        "pieces": [branch_spec_to_dict(p) for p in geo.pieces],
    }


def geodesic_from_dict(bush: Bush, doc: dict) -> PastedGeodesic:
    try:
        breakpoints = tuple(parse_rational(h) for h in doc["breakpoints"])
        pieces = tuple(branch_spec_from_dict(p) for p in doc["pieces"])
    except _MALFORMED as exc:
        raise _malformed("geodesic", exc) from exc
    return paste(bush, breakpoints, pieces)


def challenge_to_dict(geo: PastedGeodesic, t_points: Sequence) -> dict:
    return {
        "geodesic": geodesic_to_dict(geo),
        "t_points": [format_rational(t) for t in t_points],
    }


def challenge_from_dict(bush: Bush, doc: dict):
    try:
        geo_doc = doc["geodesic"]
        ts = [parse_rational(t) for t in doc.get("t_points", [])]
    except _MALFORMED as exc:
        raise _malformed("challenge", exc) from exc
    return geodesic_from_dict(bush, geo_doc), ts


def witness_to_dict(witness: ThicknessWitness) -> dict:
    return {
        "q": [format_rational(x) for x in witness.q],
        "s": [format_rational(x) for x in witness.s],
        "deviation_total": format_rational(witness.deviation_total),
        "deviations": [
            {"s": format_rational(r.arclength), "deviation": format_rational(r.deviation)}
            for r in witness.gap_records
        ],
        "pieces": [
            {
                "start": format_rational(p.start),
                "end": format_rational(p.end),
                "refine_depth": p.refine_depth,
                "flip_position": p.flip_position,
                "covers": [[format_rational(a), format_rational(b)] for a, b in p.covers],
                "complements": [
                    [format_rational(a), format_rational(b)] for a, b in p.complements
                ],
            }
            for p in witness.piece_records
        ],
    }


def witness_from_dict(doc: dict) -> ThicknessWitness:
    try:
        return ThicknessWitness(
            q=tuple(parse_rational(x) for x in doc["q"]),
            s=tuple(parse_rational(x) for x in doc["s"]),
            deviation_total=parse_rational(doc["deviation_total"]),
            gap_records=tuple(
                DeviationPoint(parse_rational(r["s"]), parse_rational(r["deviation"]))
                for r in doc.get("deviations", [])
            ),
            piece_records=tuple(
                PieceRecord(
                    start=parse_rational(p["start"]),
                    end=parse_rational(p["end"]),
                    refine_depth=int(p["refine_depth"]),
                    flip_position=int(p["flip_position"]),
                    covers=tuple(tuple(map(parse_rational, ab)) for ab in p["covers"]),
                    complements=tuple(
                        tuple(map(parse_rational, ab)) for ab in p["complements"]
                    ),
                )
                for p in doc.get("pieces", [])
            ),
        )
    except _MALFORMED as exc:
        raise _malformed("witness", exc) from exc


def response_to_dict(geo: PastedGeodesic, witness: ThicknessWitness, deepened: bool = False,
                     challenge: Optional[PastedGeodesic] = None) -> dict:
    doc = {
        "geodesic": geodesic_to_dict(geo),
        "witness": witness_to_dict(witness),
        "deepened": bool(deepened),
    }
    if challenge is not None:
        doc["challenge_geodesic"] = geodesic_to_dict(challenge)
    return doc


def response_from_dict(bush: Bush, doc: dict):
    """The geodesic, witness and challenge geodesic (None when absent) of a
    `response_to_dict` document."""
    try:
        geo_doc, witness_doc = doc["geodesic"], doc["witness"]
        challenge_doc = doc.get("challenge_geodesic")
    except _MALFORMED as exc:
        raise _malformed("response", exc) from exc
    geo, witness = geodesic_from_dict(bush, geo_doc), witness_from_dict(witness_doc)
    return geo, witness, geodesic_from_dict(bush, challenge_doc) if challenge_doc else None


def family_from_dict(bush: Bush, doc: dict) -> list:
    try:
        geo_docs = list(doc["geodesics"])
    except _MALFORMED as exc:
        raise _malformed("family", exc) from exc
    return [geodesic_from_dict(bush, g) for g in geo_docs]


def family_to_dict(family: Sequence[PastedGeodesic]) -> dict:
    return {"geodesics": [geodesic_to_dict(g) for g in family]}


# ----------------------------------------------------------------- files


def dump_json(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON document {path}: {exc}") from exc


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# --------------------------------------------------------------- exports


def line_table(line: BrokenLine, mode: str = "rational"):
    """Vertex table of a broken line, an iterator of text rows: two header
    rows, then the arclength and coordinates of each vertex, one row at a
    time.  The line is built, and so checked against the size budget, when
    this is called: before a caller opens the file the rows go to."""
    tag = "~" if line.intermediate else ""
    dim = line.bush.space.dimension
    header = (
        f"# label={tag}{format_label(line.label) or '()'} "
        f"terms={len(line.terms)} dimension={dim} format={mode}\n",
        "arclength\t" + "\t".join(f"x{i}" for i in range(dim)) + "\n",
    )
    rows = ("\t".join(format_number(x, mode) for x in (arc, *point)) + "\n"
            for arc, point in line.vertices())
    return itertools.chain(header, rows)


def geodesic_table(geo: PastedGeodesic, samples: int = 64, mode: str = "rational") -> str:
    """Sampled table of a pasted geodesic (breakpoints always included)."""
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    check_budget(f"a {samples}-sample geodesic table",
                 (samples + 1) * geo.bush.space.dimension)
    points = sorted(
        set(Fraction(k, samples) for k in range(samples + 1)) | set(geo.breakpoints)
    )
    values = geo.eval_batch(points)
    header = (
        f"# pieces={len(geo.pieces)} "
        f"breakpoints={','.join(format_rational(h) for h in geo.breakpoints)} format={mode}"
    )
    rows = [header, "arclength\t" + "\t".join(f"x{i}" for i in range(geo.bush.space.dimension))]
    for p, val in zip(points, values):
        rows.append(
            format_number(p, mode) + "\t" + "\t".join(format_number(x, mode) for x in val)
        )
    return "\n".join(rows) + "\n"
