import json
from fractions import Fraction

import pytest

from bushgeo import branch_geodesic, dyadic_bush
from bushgeo.cli import main
from bushgeo.formats import (
    bush_to_dict,
    challenge_to_dict,
    dump_json,
    family_to_dict,
    geodesic_to_dict,
)

F = Fraction


@pytest.fixture()
def bush_file(tmp_path):
    def write(n):
        path = tmp_path / f"bush{n}.json"
        dump_json(bush_to_dict(dyadic_bush(n)), path)
        return str(path)

    return write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_bush_gen_and_validate(tmp_path, capsys):
    bush_path = str(tmp_path / "b3.json")
    code, doc = _run(capsys, ["bush-gen", "--dyadic", "3", "-o", bush_path])
    assert code == 0
    assert doc["epsilon"] == "1"
    assert doc["lambda_max"] == "1/2"
    code, doc = _run(capsys, ["bush-validate", bush_path])
    assert code == 0
    assert doc["passed"] is True
    assert doc["epsilon"] == "1" and doc["lambda_max"] == "1/2"


def test_bush_gen_random_validates(tmp_path, capsys):
    bush_path = str(tmp_path / "rb.json")
    code, _ = _run(capsys, ["bush-gen", "--random", "3", "--depth", "2", "-o", bush_path])
    assert code == 0
    code, doc = _run(capsys, ["bush-validate", bush_path])
    assert code == 0 and doc["passed"]


def test_bush_validate_failure_exit_code(tmp_path, capsys):
    doc = bush_to_dict(dyadic_bush(1))
    doc["weights"][0] = ["3/5", "2/5"]
    path = tmp_path / "broken.json"
    dump_json(doc, path)
    code, report = _run(capsys, ["bush-validate", str(path)])
    assert code == 1
    assert report["passed"] is False


def test_line_build_export_row_count(bush_file, tmp_path, capsys):
    # label 010 has 4^3 = 64 terms, so 65 vertex rows after the two header lines
    out = tmp_path / "line.tsv"
    code, doc = _run(
        capsys, ["line-build", bush_file(4), "--label", "010", "--export", str(out)]
    )
    assert code == 0
    assert doc["terms"] == 64 and doc["vertices"] == 65
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 2 + 65
    assert rows[2].split("\t")[0] == "0"
    assert rows[-1].split("\t")[0] == "1"


def test_deviation_report_cli(bush_file, capsys):
    code, doc = _run(capsys, ["deviation-report", bush_file(1), "--label", ""])
    assert code == 0
    assert doc["total"] == "1/2"
    assert doc["epsilon_half"] == "1/2"
    code, doc = _run(
        capsys, ["deviation-report", bush_file(1), "--label", "", "--selection", "0"]
    )
    assert doc["total"] == "1/4"


def test_challenge_and_witness_validate(bush_file, tmp_path, capsys):
    bush_path = bush_file(4)
    bush = dyadic_bush(4)
    geo = branch_geodesic(bush, (0, 1))
    challenge_path = tmp_path / "challenge.json"
    dump_json(challenge_to_dict(geo, [F(1, 3), F(5, 8)]), challenge_path)
    response_path = tmp_path / "response.json"
    code, doc = _run(
        capsys,
        ["challenge", bush_path, "--challenge", str(challenge_path), "-o", str(response_path)],
    )
    assert code == 0
    code, report = _run(
        capsys,
        [
            "witness-validate",
            bush_path,
            "--challenge",
            str(challenge_path),
            "--response",
            str(response_path),
        ],
    )
    assert code == 0
    assert report["passed"] is True

    # corrupt the deviation claim: drop all the deviating s-points
    broken = json.loads(response_path.read_text())
    broken["witness"]["s"] = broken["witness"]["q"][:1] + broken["witness"]["q"][:-1]
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(broken))
    code, report = _run(
        capsys,
        [
            "witness-validate",
            bush_path,
            "--challenge",
            str(challenge_path),
            "--response",
            str(broken_path),
        ],
    )
    assert code == 1
    assert report["passed"] is False


def test_challenge_random_seed_deterministic(bush_file, tmp_path, capsys):
    bush_path = bush_file(4)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    code, _ = _run(capsys, ["challenge", bush_path, "--seed", "5", "-o", out1])
    assert code == 0
    code, _ = _run(capsys, ["challenge", bush_path, "--seed", "5", "-o", out2])
    assert code == 0
    assert open(out1).read() == open(out2).read()


def test_alpha_bruteforce_cli(bush_file, tmp_path, capsys):
    bush = dyadic_bush(1)
    family_path = tmp_path / "family.json"
    dump_json(
        family_to_dict([branch_geodesic(bush, (0,)), branch_geodesic(bush, (1,))]),
        family_path,
    )
    code, doc = _run(
        capsys,
        [
            "alpha-bruteforce",
            bush_file(1),
            "--family",
            str(family_path),
            "--n-max",
            "0",
            "--grid-depth",
            "1",
        ],
    )
    assert code == 0
    assert doc["alpha_bound"] == "1/2"


def test_gauge_eval_cli(bush_file, capsys):
    code, doc = _run(capsys, ["gauge-eval", bush_file(2), "--bush-vectors"])
    assert code == 0
    assert all(entry["gauge"] == "1" for entry in doc["values"])
    code, doc = _run(capsys, ["gauge-eval", bush_file(1), "--vector", "1,0"])
    assert doc["values"][0]["gauge"] == "1/2"


def test_export_geodesic(bush_file, tmp_path, capsys):
    bush = dyadic_bush(2)
    geo_path = tmp_path / "geo.json"
    dump_json(geodesic_to_dict(branch_geodesic(bush, (0,))), geo_path)
    out = tmp_path / "table.tsv"
    code, doc = _run(
        capsys,
        [
            "export",
            bush_file(2),
            "--geodesic",
            str(geo_path),
            "--samples",
            "16",
            "--out",
            str(out),
            "--number-format",
            "decimal",
        ],
    )
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 2 + 17
    assert rows[-1].split("\t")[1] == "1"


def test_export_intermediate_line(bush_file, tmp_path, capsys):
    out = tmp_path / "mid.tsv"
    code, _ = _run(
        capsys,
        ["export", bush_file(2), "--label", "0", "--intermediate", "--out", str(out)],
    )
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 2 + 9  # 8 midpoint terms at depth 1 on the N=2 bush


def test_input_error_exit_code(capsys):
    code = main(["bush-validate", "/nonexistent/bush.json"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_budget_error_exit_code(bush_file, capsys):
    code = main(
        ["--depth-budget", "1", "line-build", bush_file(2), "--label", "01"]
    )
    assert code == 3
    assert "budget error" in capsys.readouterr().err


def test_depth_limit_below_one_is_an_input_error(bush_file, capsys):
    for limit in ("0", "-2"):
        code = main(["challenge", bush_file(2), "--seed", "1", "--depth-limit", limit])
        assert code == 2
        assert f"depth limit must be >= 1, got {limit}" in capsys.readouterr().err


def test_round_trip_byte_identical(bush_file, tmp_path, capsys):
    src = bush_file(3)
    resaved = str(tmp_path / "resaved.json")
    from bushgeo.formats import bush_from_dict, load_json

    bush = bush_from_dict(load_json(src))
    dump_json(bush_to_dict(bush), resaved)
    assert open(src).read() == open(resaved).read()


def test_cli_commands_release_their_bush(bush_file, tmp_path, capsys, monkeypatch):
    import gc
    import weakref

    from bushgeo import formats

    loaded = []
    load = formats.bush_from_dict

    def tracked(doc):
        bush = load(doc)
        loaded.append(weakref.ref(bush))
        return bush

    monkeypatch.setattr(formats, "bush_from_dict", tracked)
    bush_path = bush_file(4)
    for seed in (1, 2):
        out = str(tmp_path / f"response{seed}.json")
        assert main(["challenge", bush_path, "--seed", str(seed), "-o", out]) == 0
    gc.collect()
    assert len(loaded) == 2
    assert all(ref() is None for ref in loaded)
