"""The benchmark's workloads; each run executes in its own child process.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned and its output has been checked.  Inputs come
from the seed before timing starts and are built on separate bush
instances, so the measured bush's caches and line memo start cold.

Started by run.py as

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --fd FD

and writes one JSON record per line to file descriptor FD: three set-ups,
one record per op, the probe (deep-line only) and a closing record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import signal
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import bushgeo  # noqa: E402
from bushgeo import bushes, cli, families, formats, gauge, lines, spaces  # noqa: E402
from bushgeo.errors import BushgeoError  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402

if not Path(bushgeo.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"bushgeo was imported from {bushgeo.__file__}, not from {ROOT / 'src'}")

SETUPS = 3  # set-ups per run; setup_s is their median
AS_CAP = 3 * 2**30  # address-space cap of a workload's child process
PROBE_HEADROOM = 256 * 2**20  # address space the export probe may add
PROBE_SECONDS = 20
ALLOC_OPS = 5  # ops replayed under tracemalloc in a traced run
CPU_SECONDS = 170  # the child is killed after this much CPU time


def _wl1(weights, u, v):
    return sum((w * abs(a - b) for w, a, b in zip(weights, u, v) if a != b), Fraction(0))


def _norm(space, v):
    if space.kind == "wl1":
        return sum((w * abs(Fraction(x)) for w, x in zip(space.weights, v)), Fraction(0))
    return max(abs(Fraction(x)) for x in v)


def _witness_error(passed, achieved, claimed, alpha):
    if not passed:
        return "witness rejected"
    if achieved != claimed:
        return f"achieved deviation {achieved} != claimed {claimed}"
    if achieved < alpha:
        return f"deviation {achieved} < epsilon/4 = {alpha}"
    return None


class Workload:
    """One closed-loop workload: inputs, set-up, op and output check."""

    probe = None  # optional method: one extra attempt after the timed loop

    def verify(self):
        """Once-per-run check after set-up; returns an error message or None."""
        return None

    def close(self):
        pass


class Game(Workload):
    """challenge_from_dict -> challenge_respond -> validate_witness."""

    name = "game"
    depth = 6

    def make_inputs(self, rng, seconds):
        gen = bushes.dyadic_bush(self.depth)
        return [
            formats.challenge_to_dict(*families.random_challenge(gen, rng, max_pieces=3, max_points=4))
            for _ in range(50 + 25 * seconds)
        ]

    def setup(self, k):
        self.bush = bushes.dyadic_bush(self.depth)
        lines.ensure_normalized(self.bush)

    def op(self, k, doc):
        bush = self.bush
        geo, ts = formats.challenge_from_dict(bush, doc)
        resp = families.challenge_respond(bush, geo, ts)
        report = families.validate_witness(
            resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4
        )
        return resp.witness, report

    def check(self, k, doc, out):
        witness, report = out
        return _witness_error(
            report.passed, report.achieved_deviation, witness.deviation_total, self.bush.epsilon / 4
        )


class DeepLine(Workload):
    """branch_geodesic of a random length-7 label, evaluated at 8 points."""

    name = "deep-line"
    depth = 9
    label_length = 7
    points = 8
    probe_label_length = 9

    def make_inputs(self, rng, seconds):
        # Labels come in rounds, each a random order of all 128 leaves, so
        # every run puts the same pressure on the 128-line memo.
        leaves = [tuple((n >> i) & 1 for i in range(self.label_length))
                  for n in range(2**self.label_length)]
        inputs = []
        while len(inputs) < 50 * seconds:
            rng.shuffle(leaves)
            for bits in leaves:
                pts = set()
                while len(pts) < self.points:
                    den = rng.choice((3, 5, 7, 9, 64, 1000))
                    pts.add(Fraction(rng.randint(0, den), den))
                inputs.append((bits, sorted(pts)))
        self.probe_bits = tuple(rng.randint(0, 1) for _ in range(self.probe_label_length))
        return inputs

    def setup(self, k):
        self.bush = bushes.dyadic_bush(self.depth)
        lines.ensure_normalized(self.bush)

    def op(self, k, x):
        bits, pts = x
        return families.branch_geodesic(self.bush, bits, depth=self.label_length).eval_batch(pts)

    def check(self, k, x, values):
        # consecutive pairs plus the outer pair: by the triangle inequality
        # these equalities force dist(g(s), g(t)) == |s - t| for every pair
        pts = x[1]
        weights = self.bush.space.weights
        pairs = [(i, i + 1) for i in range(len(pts) - 1)] + [(0, len(pts) - 1)]
        for i, j in pairs:
            d = _wl1(weights, values[i], values[j])
            if d != pts[j] - pts[i]:
                return f"dist(g({pts[i]}), g({pts[j]})) = {d} != {pts[j] - pts[i]}"
        return None

    def probe(self):
        """Export every vertex of a length-9 line under a tightened cap.

        The export needs 262,145 x 512 coordinates, far beyond the cap, so
        today it ends in MemoryError; it is attempted on every run.
        """
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        with open("/proc/self/statm") as fh:
            used = int(fh.read().split()[0]) * resource.getpagesize()
        resource.setrlimit(resource.RLIMIT_AS, (min(used + PROBE_HEADROOM, hard), hard))

        def timeout(signum, frame):
            raise TimeoutError(f"vertex export still running after {PROBE_SECONDS} s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.setitimer(signal.ITIMER_REAL, PROBE_SECONDS)
        try:
            line = lines.line_for_label(self.bush, self.probe_bits)
            rows = sum(1 for _ in line.vertices())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        return rows


class CliRoundtrip(Workload):
    """bushgeo challenge, then witness-validate, through bushgeo.cli.main."""

    name = "cli-roundtrip"
    depth = 5

    def make_inputs(self, rng, seconds):
        return [rng.randrange(2**31) for _ in range(100 * seconds)]

    def setup(self, k):
        # Every file gets a fresh name: rewriting an existing file can make
        # the file system flush it on close, which would time the disk.
        if k == 0:
            self.work = OUT / f"work-{os.getpid()}"
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
        self.bush_path = str(self.work / f"bush-{k}.json")
        with contextlib.redirect_stdout(None):
            code = cli.main(["bush-gen", "--dyadic", str(self.depth), "-o", self.bush_path])
        if code != 0:
            raise RuntimeError(f"bush-gen exited with {code}")
        self.bush = formats.bush_from_dict(formats.load_json(self.bush_path))
        lines.ensure_normalized(self.bush)

    def _paths(self, k):
        return [str(self.work / f"{kind}-{k}.json") for kind in ("resp", "chal", "val")]

    def op(self, k, seed):
        resp, chal, val = self._paths(k)
        code = cli.main(["challenge", self.bush_path, "--seed", str(seed), "-o", resp])
        if code != 0:
            return code, None
        with open(resp) as fh:
            generated = json.load(fh)["generated_challenge"]
        with open(chal, "w") as fh:
            json.dump(generated, fh)
        code = cli.main([
            "witness-validate", self.bush_path, "--challenge", chal, "--response", resp, "-o", val,
        ])
        return 0, code

    def check(self, k, seed, codes):
        if codes != (0, 0):
            return f"exit codes {codes}"
        resp, chal, val = self._paths(k)
        with open(resp) as fh:
            response = json.load(fh)
        with open(val) as fh:
            report = json.load(fh)
        for path in (resp, chal, val):
            os.unlink(path)
        return _witness_error(
            report["passed"] is True,
            Fraction(report["achieved_deviation"]),
            Fraction(response["deviation_total"]),
            Fraction(response["epsilon_quarter"]),
        )

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _extended_hamming_words():
    # the 16 affine forms a0 + a1 x1 + a2 x2 + a3 x3 evaluated on F_2^3
    words = []
    for a in range(16):
        a0, a1, a2, a3 = a & 1, (a >> 1) & 1, (a >> 2) & 1, (a >> 3) & 1
        words.append(tuple(
            a0 ^ (a1 & (i & 1)) ^ (a2 & ((i >> 1) & 1)) ^ (a3 & ((i >> 2) & 1))
            for i in range(8)
        ))
    return words


class Certify(Workload):
    """wl1 and linf gauge decompositions plus one brute-force oracle run."""

    name = "certify"
    depth = 3  # generators: the 15 vectors of dyadic_bush(3)
    family_depth = 2

    def make_inputs(self, rng, seconds):
        dim = 2**self.depth
        return [
            (
                tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim)),
                rng.sample(range(32), 32),
            )
            for _ in range(50 + 25 * seconds)
        ]

    def setup(self, k):
        self.bush = bushes.dyadic_bush(self.depth)
        lines.ensure_normalized(self.bush)
        self.generators = [vec for lev in self.bush.levels for vec in lev]
        self.spaces = (self.bush.space, spaces.NormedSpace(self.bush.space.dimension, "linf"))
        self.family_bush = bushes.dyadic_bush(self.family_depth)
        self.family = [
            families.gap_switch_pasting(self.family_bush, (prefix,), word)
            for prefix in (0, 1)
            for word in _extended_hamming_words()
        ]
        self.grid = lines.line_for_label(self.family_bush, (0, 0)).arclengths

    def _certificate_error(self, space, v, dec):
        combo = list(dec.remainder)
        for c, b in zip(dec.coeffs, self.generators):
            combo = [x + c * y for x, y in zip(combo, b)]
        if combo != [Fraction(x) for x in v]:
            return f"{space.kind}: remainder + sum c_j b_j != v"
        cost = _norm(space, dec.remainder) + sum(abs(c) for c in dec.coeffs)
        if cost != dec.value:
            return f"{space.kind}: ||remainder|| + sum |c_j| = {cost} != gauge {dec.value}"
        return None

    def verify(self):
        """Every bush vector has gauge exactly 1 under both base norms."""
        for space in self.spaces:
            for b in self.generators:
                dec = gauge.gauge_decompose(space, self.generators, b)
                error = self._certificate_error(space, b, dec)
                if error or dec.value != 1:
                    return error or f"{space.kind}: gauge of a bush vector is {dec.value}, not 1"
        return None

    def op(self, k, x):
        v, order = x
        decs = [gauge.gauge_decompose(space, self.generators, v) for space in self.spaces]
        report = families.brute_force_alpha(
            self.family_bush, [self.family[i] for i in order], 2, self.grid
        )
        return decs, report

    def check(self, k, x, out):
        v = x[0]
        decs, report = out
        for space, dec in zip(self.spaces, decs):
            error = self._certificate_error(space, v, dec)
            if error:
                return error
            if dec.value > _norm(space, v):
                return f"{space.kind}: gauge {dec.value} > norm {_norm(space, v)}"
        if report.alpha_bound < Fraction(1, 4):
            return f"alpha_bound {report.alpha_bound} < 1/4"
        return None


WORKLOADS = {w.name: w for w in (Game, DeepLine, CliRoundtrip, Certify)}


def run_workload(name, seed, seconds, trace, emit):
    """Run one workload in this process and emit its records."""
    workload = WORKLOADS[name]()
    inputs = workload.make_inputs(random.Random(seed), seconds)
    gc.collect()
    tracer = Tracer() if trace else None
    span = tracer.open if tracer else (lambda name: None)
    close = tracer.close if tracer else (lambda index: None)
    if tracer:
        tracer.install()
    try:
        for k in range(SETUPS):
            index = span("setup")
            t0 = time.perf_counter()
            workload.setup(k)
            elapsed = time.perf_counter() - t0
            close(index)
            emit({"kind": "setup", "s": elapsed})
        error = workload.verify()
        if error:
            emit({"kind": "check", "error": error})

        k = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            x = inputs[k % len(inputs)]
            index = span("op")
            t0 = time.perf_counter()
            try:
                out = workload.op(k, x)
                error = None
            except (BushgeoError, MemoryError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            close(index)
            if error is None:
                error = workload.check(k, x, out)
            out = None
            emit({"kind": "op", "s": elapsed, "error": error})
            k += 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if tracer:
            tracemalloc.start()
            for j in range(k, k + ALLOC_OPS):
                index = span("alloc")
                try:
                    workload.op(j, inputs[j % len(inputs)])
                except (BushgeoError, MemoryError):
                    pass
                close(index)
            tracemalloc.stop()

        if workload.probe is not None:
            index = span("probe")
            t0 = time.perf_counter()
            try:
                rows = workload.probe()
                error = None
            except (BushgeoError, MemoryError, TimeoutError) as exc:
                rows, error = None, f"{type(exc).__name__}: {exc}"
            close(index)
            emit({"kind": "probe", "s": time.perf_counter() - t0, "rows": rows, "error": error})
    finally:
        if tracer:
            tracer.remove()
        workload.close()

    done = {"kind": "done", "peak_rss_mb": rss_mb}
    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        done["layers"] = tracer.layer_metrics()
        done["spans_file"] = str(spans.relative_to(ROOT))
    emit(done)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fd", type=int, required=True, help="file descriptor for records")
    args = parser.parse_args(argv)

    for limit, value in ((resource.RLIMIT_AS, AS_CAP), (resource.RLIMIT_CPU, CPU_SECONDS)):
        _, hard = resource.getrlimit(limit)
        if hard != resource.RLIM_INFINITY:
            value = min(value, hard)
        resource.setrlimit(limit, (value, value))
    with os.fdopen(args.fd, "w", buffering=1) as records:
        run_workload(
            args.workload, args.seed, args.seconds, args.trace,
            lambda record: records.write(json.dumps(record) + "\n"),
        )


if __name__ == "__main__":
    main()
