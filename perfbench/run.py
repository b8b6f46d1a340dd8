"""Benchmark of bushgeo: closed-loop workloads timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload runs in its own child process (perfbench/workloads.py) under
an address-space cap, one after another.  With ``--trace 0`` the last line
of standard output is a JSON object whose metrics are the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the layer functions are
wrapped and the metrics are the per-layer ones.  ``--workload all`` runs
every workload untraced and traced and prints both side by side, with the
cost of tracing.  Lines before the last one are a readable table and an
``info`` object with sample counts, the probe outcome, ``failed_frac`` and
the size of the source tree.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "bushgeo"
OUT = HERE / "out"
WORKLOADS = ("game", "deep-line", "cli-roundtrip", "certify")
CHILD_TIMEOUT = 175  # seconds before a child process is killed

def run_child(workload, seed, seconds, trace):
    """Run one workload in a child process; return its records and exit code."""
    read_fd, write_fd = os.pipe()
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--fd", str(write_fd),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, pass_fds=(write_fd,))
    os.close(write_fd)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        with os.fdopen(read_fd) as fh:
            records = [json.loads(line) for line in fh]
        code = proc.wait()
    finally:
        watchdog.cancel()
    return records, code


def summarize(records, code, trace):
    """Turn a child's records into the result object and an info object."""
    setups = [r["s"] for r in records if r["kind"] == "setup"]
    ops = [r for r in records if r["kind"] == "op"]
    ok = [r["s"] for r in ops if r["error"] is None]
    errors = [r["error"] for r in ops if r["error"] is not None]
    errors += [r["error"] for r in records if r["kind"] == "check"]
    done = next((r for r in records if r["kind"] == "done"), None)
    probe = next((r for r in records if r["kind"] == "probe"), None)
    lost = 0 if done is not None and code == 0 else 1  # the op in flight when the child died
    attempted = len(ops) + lost
    failed = len(ops) - len(ok) + lost
    if not setups or not ok:
        raise RuntimeError(f"workload produced no timed op (exit code {code}): {errors[:3]}")

    probe_failed = 1 if probe is not None and probe["error"] is not None else 0
    n_probe = 1 if probe is not None else 0
    info = {
        "ops": len(ok),
        "setups": len(setups),
        "failed_frac": (failed + probe_failed) / (attempted + n_probe),
        "errors": errors[:5],
        "probe": probe,
        "exit_code": code,
    }
    if trace:
        metrics = dict(done["layers"]) if done else {}
        metrics["trace.op_p50_ms"] = 1000 * statistics.median(ok)
        info["spans_file"] = done.get("spans_file") if done else None
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": 1000 * statistics.median(ok),
            "op_p90_ms": 1000 * statistics.quantiles(ok, n=10, method="inclusive")[8]
            if len(ok) > 1 else 1000 * ok[0],
            "ops_per_s": len(ok) / sum(r["s"] for r in ops),
            "peak_rss_mb": done["peak_rss_mb"] if done else 0.0,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} disagree with BENCHMARK.json")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def source_info(seed):
    """Informational fields: code size next to the timings."""
    lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.rglob("*.py")))
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            exported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            exported.update(t.id for t in node.targets if isinstance(t, ast.Name))
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "src_lines": lines,
        "exported_names": len([name for name in exported if not name.startswith("_")]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def table(workload, result, info):
    rows = [f"# {workload}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} failed_frac={info['failed_frac']:.6g} "
            f"(ops={info['ops']}, probe={'none' if info['probe'] is None else info['probe']['error']})"]
    for name, metric in result["metrics"].items():
        n = info["setups"] if name.startswith("setup") else info["ops"]
        rows.append(f"{workload:14s} {name:42s} {metric['value']:14.6g} {metric['unit']:9s} n={n}")
    return "\n".join(rows)


def run_one(workload, seed, seconds, trace):
    records, code = run_child(workload, seed, seconds, trace)
    result, info = summarize(records, code, trace)
    info.update(source_info(seed), workload=workload, seconds=seconds, trace=trace)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=1) + "\n"
    )
    return result, info


def side_by_side(seed, seconds):
    """Every workload untraced, then traced; prints the cost of tracing."""
    combined = {}
    for workload in WORKLOADS:
        plain, plain_info = run_one(workload, seed, seconds, 0)
        traced, traced_info = run_one(workload, seed, seconds, 1)
        print(table(workload, plain, plain_info))
        print(table(workload, traced, traced_info))
        p50 = plain["metrics"]["op_p50_ms"]["value"]
        tp50 = traced["metrics"]["trace.op_p50_ms"]["value"]
        layers = traced["metrics"]
        wall = layers["trace.op_wall_s"]["value"]
        attributed = sum(
            m["value"] for name, m in layers.items()
            if name.endswith(".self_s") and not name.startswith("setup.")
        ) + layers["trace.unattributed_s"]["value"]
        print(f"{workload:14s} tracing cost: op_p50 {p50:.3f} ms untraced, {tp50:.3f} ms traced "
              f"({100 * (tp50 / p50 - 1):+.1f}%); layer self times + unattributed "
              f"{1000 * attributed:.3f} ms/op vs traced op wall {1000 * wall:.3f} ms/op")
        combined[workload] = {"untraced": plain, "traced": traced, "info": plain_info}
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no bushgeo sources at {PACKAGE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(side_by_side(args.seed, args.seconds)))
        return 0
    result, info = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(table(args.workload, result, info))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
