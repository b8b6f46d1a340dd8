import json
from fractions import Fraction

import pytest

from bushgeo import BudgetError, branch_geodesic, challenge_respond, dyadic_bush
from bushgeo.cli import main
from bushgeo.formats import (
    bush_to_dict,
    challenge_to_dict,
    dump_json,
    family_to_dict,
    geodesic_to_dict,
    response_to_dict,
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


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["witness-validate", "b.json", "--challenge", "c.json", "--response", "r.json"],
                     id="witness-validate"),
        pytest.param(["bush-validate", "b.json"], id="bush-validate"),
    ],
)
def test_validators_take_no_tolerance(capsys, argv):
    # their verdicts are exact, so there is no tolerance to set
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--tolerance", "1e-9"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


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


def test_alpha_bruteforce_rejects_negative_counts(bush_file, tmp_path, capsys):
    bush = dyadic_bush(1)
    family_path = tmp_path / "family.json"
    dump_json(family_to_dict([branch_geodesic(bush, (0,))]), family_path)
    argv = ["alpha-bruteforce", bush_file(1), "--family", str(family_path)]
    for extra, message in [
        (["--grid-depth", "-1"], "grid depth must be >= 0, got -1"),
        (["--n-max", "-1", "--grid", "0,1"], "n_max must be >= 0, got -1"),
    ]:
        assert main(argv + extra) == 2
        assert message in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, mutate, detail",
    [
        pytest.param(["witness-validate", "{bush}", "--challenge", "{challenge}",
                      "--response", "{response}"], lambda d: d["response"].pop("geodesic"), "",
                     id="response-without-geodesic"),
        pytest.param(["challenge", "{bush}", "--challenge", "{challenge}"],
                     lambda d: d["challenge"]["geodesic"]["pieces"][0].update(depth="x"), "",
                     id="piece-depth-x"),
        pytest.param(["bush-validate", "{bush}"],
                     lambda d: d["bush"]["partitions"][0][0].insert(0, "a"), "",
                     id="partitions-hold-a"),
        pytest.param(["bush-validate", "{bush}"], lambda d: d["bush"].update(levels=5), "",
                     id="levels-is-5"),
        # a Euclidean bush holds no thick family; only the exact kinds load
        pytest.param(["bush-validate", "{bush}"],
                     lambda d: d["bush"]["space"].update(norm="l2", weights=None),
                     "('wl1', 'linf')", id="norm-l2"),
        pytest.param(["deviation-report", "{bush}", "--label", "0", "--selection", "a"],
                     None, "", id="selection-a"),
        pytest.param(["export", "{bush}", "--geodesic", "{geodesic}", "--samples", "0",
                      "--out", "{out}"], None, "", id="samples-0"),
        pytest.param(["bush-gen", "--random", "3", "--extra-atoms", "-1", "-o", "{out}"],
                     None, "", id="extra-atoms-negative"),
        # {out} does not exist, so nothing can be written below it
        pytest.param(["bush-gen", "--dyadic", "2", "-o", "{out}/b.json"], None, "",
                     id="bush-gen-into-missing-dir"),
        pytest.param(["line-build", "{bush}", "--label", "0", "--export", "{out}/l.tsv"], None, "",
                     id="line-export-into-missing-dir"),
        pytest.param(["export", "{bush}", "--label", "0", "--out", "{out}/l.tsv"], None, "",
                     id="export-into-missing-dir"),
    ],
)
def test_malformed_input_is_an_input_error(tmp_path, capsys, argv, mutate, detail):
    bush = dyadic_bush(3)
    geo = branch_geodesic(bush, (0, 1))
    resp = challenge_respond(bush, geo, [F(1, 3)])
    docs = {
        "bush": bush_to_dict(bush),
        "challenge": challenge_to_dict(geo, [F(1, 3)]),
        "geodesic": geodesic_to_dict(geo),
        "response": response_to_dict(resp.geodesic, resp.witness, resp.deepened, resp.challenge),
    }
    if mutate is not None:
        mutate(docs)
    files = {"out": str(tmp_path / "out.tsv")}
    for name, doc in docs.items():
        files[name] = str(tmp_path / f"{name}.json")
        dump_json(doc, files[name])
    assert main([arg.format(**files) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert detail in err


def test_budget_error_exit_code(tmp_path, capsys):
    code = main(["bush-gen", "--dyadic", "13", "-o", str(tmp_path / "b13.json")])
    assert code == 3
    assert "budget error" in capsys.readouterr().err
    assert not (tmp_path / "b13.json").exists()


def test_depth_budget_is_not_an_option(bush_file, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--depth-budget", "1", "line-build", bush_file(2), "--label", "01"])
    assert exited.value.code == 2


def test_geodesic_export_is_refused_by_its_size(tmp_path, capsys, monkeypatch):
    from bushgeo import PastedGeodesic, errors
    from bushgeo.formats import geodesic_table

    def no_points(self, points):
        raise AssertionError("evaluated a refused table")

    bush = dyadic_bush(2)
    geo = branch_geodesic(bush, (0,))
    paths = {name: str(tmp_path / f"{name}.json") for name in ("bush", "geo")}
    dump_json(bush_to_dict(bush), paths["bush"])
    dump_json(geodesic_to_dict(geo), paths["geo"])
    monkeypatch.setattr(errors, "BUDGET", 11 * 4 - 1)
    monkeypatch.setattr(PastedGeodesic, "eval_batch", no_points)
    with pytest.raises(BudgetError) as refused:
        geodesic_table(geo, samples=10)
    assert refused.value.required == 11 * 4  # (samples + 1) rows of 4 coordinates
    argv = ["export", paths["bush"], "--geodesic", paths["geo"], "--samples", "10",
            "--out", str(tmp_path / "geo.tsv")]
    assert main(argv) == 3
    assert "budget error" in capsys.readouterr().err


def test_refused_line_export_keeps_the_output_file(bush_file, tmp_path, capsys, monkeypatch):
    # the line's size is checked before --out is opened for writing
    from bushgeo import errors

    bush_path = bush_file(3)
    out = tmp_path / "out.tsv"
    out.write_bytes(b"previous contents\n")
    monkeypatch.setattr(errors, "BUDGET", 10)
    assert main(["export", bush_path, "--label", "01", "--out", str(out)]) == 3
    assert "budget error" in capsys.readouterr().err
    assert out.read_bytes() == b"previous contents\n"


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
