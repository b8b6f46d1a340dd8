import json
from fractions import Fraction

import pytest

from bushgeo import bushes
from bushgeo import InputError, branch_geodesic, dyadic_bush, make_branch, paste, random_bush
from bushgeo.formats import (
    bush_from_dict,
    bush_to_dict,
    challenge_from_dict,
    challenge_to_dict,
    format_decimal,
    geodesic_from_dict,
    geodesic_to_dict,
    line_table,
    space_from_dict,
    space_to_dict,
    witness_from_dict,
    witness_to_dict,
)
from bushgeo.lines import line_for_label

F = Fraction


def _same_bush(a, b):
    return (
        a.levels == b.levels
        and a.partitions == b.partitions
        and a.weights == b.weights
        and a.epsilon == b.epsilon
        and a.space == b.space
        and a.functional == b.functional
    )


@pytest.mark.parametrize("bush_factory", [lambda: dyadic_bush(2), lambda: random_bush(5, depth=2)])
def test_bush_round_trip_is_bit_exact(bush_factory):
    bush = bush_factory()
    doc = bush_to_dict(bush)
    # through an actual JSON serialization
    recovered = bush_from_dict(json.loads(json.dumps(doc)))
    assert _same_bush(bush, recovered)
    # and idempotent on the document level
    assert bush_to_dict(recovered) == doc


def _dense_document(bush):
    """The bush as a document that gives every vector by its coordinates."""
    doc = bush_to_dict(bush)
    del doc["runs"]
    doc.pop("order", None)
    doc["levels"] = [[[str(x) for x in vec] for vec in lev] for lev in bush.levels]
    return doc


@pytest.mark.parametrize(
    "bush_factory",
    [lambda: dyadic_bush(4), lambda: random_bush(7, depth=3, extra_atoms=3)],
    ids=["dyadic-4", "random-shuffled"],
)
def test_run_document_round_trips_both_ways(bush_factory, monkeypatch):
    bush = bush_factory()
    doc = json.loads(json.dumps(bush_to_dict(bush)))
    assert "levels" not in doc
    # the shuffled atoms of the random bush are its coordinate order
    assert ("order" in doc) == (bush.order != range(bush.space.dimension))
    dense = bush_from_dict(json.loads(json.dumps(_dense_document(bush))))
    # a run document is read with no reordering pass
    monkeypatch.setattr(bushes, "_tree_runs", None)
    recovered = bush_from_dict(doc)
    assert bush_to_dict(recovered) == doc
    assert (recovered.order, recovered.runs) == (bush.order, bush.runs)
    assert _same_bush(dense, recovered)
    assert _same_bush(recovered, bush)


def test_space_round_trip():
    bush = dyadic_bush(1)
    doc = space_to_dict(bush.space)
    assert doc == {"dimension": 2, "norm": "wl1", "weights": ["1/2", "1/2"]}
    assert space_from_dict(doc) == bush.space


def test_geodesic_round_trip(dyadic):
    bush = dyadic(2)
    geo = paste(bush, (0, F(1, 2), 1), (make_branch(bush, (0,)), make_branch(bush, (1,))))
    doc = geodesic_to_dict(geo)
    recovered = geodesic_from_dict(bush, json.loads(json.dumps(doc)))
    assert recovered.breakpoints == geo.breakpoints
    assert recovered.pieces == geo.pieces


def test_challenge_round_trip(dyadic):
    bush = dyadic(2)
    geo = branch_geodesic(bush, (0,))
    ts = [F(1, 3), F(3, 4)]
    doc = challenge_to_dict(geo, ts)
    geo2, ts2 = challenge_from_dict(bush, json.loads(json.dumps(doc)))
    assert ts2 == ts
    assert geo2.pieces == geo.pieces


def test_witness_round_trip(dyadic):
    from bushgeo import challenge_respond, gap_switch_pasting

    bush = dyadic(3)
    geo = gap_switch_pasting(bush, (), (0, 1))
    resp = challenge_respond(bush, geo, [F(1, 3), F(5, 8)])
    assert len(resp.witness.piece_records) == len(geo.pieces) == 2
    doc = witness_to_dict(resp.witness)
    w2 = witness_from_dict(json.loads(json.dumps(doc)))
    assert w2 == resp.witness


def test_bad_documents():
    with pytest.raises(InputError):
        bush_from_dict({"space": {"dimension": 2, "norm": "wl1", "weights": ["1/2", "1/2"]}})
    with pytest.raises(InputError):
        space_from_dict({"dimension": "x", "norm": "wl1"})
    with pytest.raises(InputError):
        witness_from_dict({"q": ["1/notanumber"], "s": [], "deviation_total": "0"})


def test_decimal_formatting():
    assert format_decimal(F(1, 3)) == "0.333333333333"
    assert format_decimal(F(1, 2)) == "0.5"
    assert format_decimal(F(1)) == "1"
    # round-half-even at the 12th significant digit
    assert format_decimal(F(10**12 + 5, 10**13)) == "0.100000000000"
    assert format_decimal(F(10**12 + 15, 10**13)) == "0.100000000002"


def test_line_table(dyadic):
    bush = dyadic(1)
    table = "".join(line_table(line_for_label(bush, (0,))))
    rows = table.strip().split("\n")
    assert rows[0].startswith("# label=0")
    assert rows[1] == "arclength\tx0\tx1"
    assert rows[2] == "0\t0\t0"
    assert rows[3] == "1/4\t1/4\t1/4"
    assert len(rows) == 2 + 5  # header lines + 4 terms + 1 vertices
