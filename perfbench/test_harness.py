"""Self-test of the benchmark harness (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_harness.py
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _attributes():
    """Every attribute of every bushgeo module, plus the wrapped methods."""
    snapshot = {
        (mod.__name__, key): value
        for mod in tracing._bushgeo_modules()
        for key, value in vars(mod).items()
    }
    for name, modname, attr, clsname in tracing.TARGETS:
        if clsname is not None:
            cls = getattr(sys.modules[modname], clsname)
            snapshot[(clsname, attr)] = cls.__dict__[attr]
    return snapshot


def test_wrappers_are_removed_after_a_traced_run():
    before = _attributes()
    records = []
    workloads.run_workload("game", seed=3, seconds=1, trace=1, emit=records.append)
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    result, _ = run.summarize(records, 0, 1)
    # the run was really traced
    assert result["metrics"]["lines.line_for_label.calls"]["value"] > 0
    assert result["metrics"]["families.validate_witness.self_s"]["value"] > 0


def test_corrupted_witness_counts_as_failed():
    original = workloads.families.challenge_respond
    corrupted = []

    def respond_with_wrong_total(*args, **kwargs):
        response = original(*args, **kwargs)
        if len(corrupted) % 2 == 0:
            # validate_witness recomputes the deviation and still passes;
            # only the harness's own check that it equals the claim fails
            witness = dataclasses.replace(
                response.witness, deviation_total=response.witness.deviation_total + 1
            )
            response = dataclasses.replace(response, witness=witness)
            corrupted.append(True)
        else:
            corrupted.append(False)
        return response

    records = []
    workloads.families.challenge_respond = respond_with_wrong_total
    try:
        workloads.run_workload("game", seed=3, seconds=1, trace=0, emit=records.append)
    finally:
        workloads.families.challenge_respond = original
    result, info = run.summarize(records, 0, 0)
    assert result["attempted"] == len(corrupted)
    assert result["failed"] == sum(corrupted) > 0
    assert info["failed_frac"] == sum(corrupted) / len(corrupted)
    assert result["correct"] is False
