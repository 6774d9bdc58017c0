"""Seeded benchmark of the ttno compiler.

    python3 perfbench/run.py --workload random40 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``ttno`` is imported from ``src/`` there.
Each workload is a batch job on one thread in its own process: a closed loop
in which each pass starts when the previous one returns.  The run sets its
inputs up, checks a small verification instance once, then repeats passes
until ``--seconds`` have gone by, checking every pass's outputs and that
every exact count repeats.  Before every pass it sets the inputs up again,
a few times.  ``setup_s`` is the median of all set-ups; ``compile_s`` and
``job_s`` are means over the passes, as is the calibration they are scaled
by: times are in reference seconds (see ``Calibration``).  It prints
every metric with its unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A traced run alternates untraced and traced passes; spans are recorded
around every call into a layer of ``ttno`` during set-up and traced passes,
and written to ``.bench_out/`` when the run ends.  The workloads are
described in ``workloads.py``.
"""

import os

# BLAS gets one thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MAX_SETUPS, SETUP_BUDGET_S = 20, 0.3   # set-ups before each pass
CAL_REPS = 3            # calibration kernel runs before each set-up round
CAL_REF_S = 0.100       # kernel time that defines a reference second
MIN_PASSES = 3          # untraced run
MIN_TRACED_PASSES = 4   # traced run: half of them untraced, for the overhead
LAYERS = ("tree", "operators", "oqs", "diagram", "assembly", "svdref", "bench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)] if xs else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def calibration_kernel(matrix) -> float:
    """Seconds one run of a fixed kernel takes.  It is independent of ttno
    and does the kinds of work the workloads do: dict and tuple churn, the
    pure-Python JSON encoder, small dense SVDs and lookups in a dict of a
    few MB."""
    t0 = time.perf_counter()
    seen = {}
    for i in range(10000):
        key = (i % 101, i % 89, "s" + str(i & 15))
        seen[key] = seen.get(key, 0) + 1
    rows = sorted(seen.items())[:2000]
    json.dump([[float(k[0]), k[2], v] for k, v in rows], io.StringIO())
    for _ in range(100):
        np.linalg.matrix_rank(matrix)
    n = 40000
    table = {((i * 7919) % n, i & 7): [i] for i in range(n)}
    hits = sum(len(table.get(((i * 31) % n, i & 7), ()))
               for i in range(0, n, 2))
    assert hits
    return time.perf_counter() - t0


class Calibration:
    """Machine speed over the run, from kernel runs between the timed steps.

    The machine is shared: its speed drifts by up to 2x between periods of
    tens of seconds, so that a whole run can fall in a slow one.  Times are
    therefore reported in reference seconds: wall seconds times
    ``CAL_REF_S`` over the run's mean kernel time, which is sampled before
    every round of set-ups and so before every pass, in the same periods as
    the timed work.
    On a shared 2-vCPU VM this cut the ten-seed spread of the pass times in
    most sets of runs (from 0.46 to 0.17 on random40 in a volatile period).
    """

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((24, 24))
        self.times: list[float] = []

    def sample(self) -> None:
        gc.collect()
        self.times.extend(calibration_kernel(self.matrix)
                          for _ in range(CAL_REPS))

    @property
    def scale(self) -> float:
        return CAL_REF_S / statistics.fmean(self.times)


def environment(np_version: str) -> dict:
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "ttno").glob("*.py")))
    return {"python": platform.python_version(), "numpy": np_version,
            "nproc": len(os.sched_getaffinity(0)), "src_ttno_lines": lines}


class Tally:
    """Operations and checks attempted and failed over the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += 1
            print(f"FAILED: {name}", file=sys.stderr)


def run(wl, seed: int, seconds: float, traced: bool, tracer, tally: Tally,
        cal: Calibration):
    """Set up, then pass until the time is up, setting up again before every
    pass so that the set-up times sample the same periods of machine speed
    as the passes.  Returns set-up times, pass results with their wall times
    and traced flags, and the inputs."""
    start = time.perf_counter()
    setup_times, first = [], []

    def set_up():
        """Set the inputs up for ``SETUP_BUDGET_S`` (at least once, at most
        ``MAX_SETUPS`` times) and check that they repeat exactly."""
        cal.sample()
        t_end = time.perf_counter() + SETUP_BUDGET_S
        for _ in range(MAX_SETUPS):
            gc.collect()
            with tracer.span("bench.setup"):
                t0 = time.perf_counter()
                inputs = wl.setup(seed, tracer)
                setup_times.append(time.perf_counter() - t0)
            fp = wl.fingerprint(inputs)
            if not first:
                first.append(fp)
            tally.record("set-up inputs repeat exactly", fp == first[0])
            if time.perf_counter() >= t_end:
                break
        return inputs

    inputs = set_up()
    wl.verify(inputs, tally)

    OUT.mkdir(exist_ok=True)
    path = str(OUT / f"dump-{wl.name}-{os.getpid()}.json")
    passes, reference, attempts = [], None, 0
    min_passes = MIN_TRACED_PASSES if traced else MIN_PASSES
    try:
        while True:
            if attempts:
                inputs = None  # freed before the new ones are built
                inputs = set_up()
            traced_pass = traced and attempts % 2 == 1
            attempts += 1
            tracer.enabled = traced_pass
            gc.collect()
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.pass"):
                    res = wl.run_pass(inputs, tracer, traced_pass, path)
            except Exception:
                traceback.print_exc()
                tally.record("pass raised", False)
                res = None
            wall = time.perf_counter() - t0
            tracer.enabled = traced
            if res is not None:
                res.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
                tally.record("pass operations", True, res.ops)
                for name, ok in res.checks:
                    tally.record(name, ok)
                reference = res.exact if reference is None else reference
                tally.record("exact counts repeat", res.exact == reference)
                passes.append((res, wall, traced_pass))
            if (attempts >= min_passes
                    and time.perf_counter() - start + wall > seconds):
                break
    finally:
        if os.path.exists(path):
            os.remove(path)
    return setup_times, passes, inputs, path


def alloc_peak_mb(wl, inputs, path: str) -> float:
    """tracemalloc peak over emit, write and read of the workload's emitted
    operators, measured apart from the timed spans."""
    from ttno import emit_tensors, read_ttno, write_ttno
    targets = wl.round_trip_targets(inputs)
    if not targets:
        return 0.0
    gc.collect()
    tracemalloc.start()
    try:
        for g in targets:
            op = emit_tensors(g)
            write_ttno(op, path)
            back = read_ttno(path)
            del op, back
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
        if os.path.exists(path):
            os.remove(path)


def end_to_end(setup_times, passes, scale: float) -> dict:
    res = [r for r, _, _ in passes]
    return {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "compile_s": (statistics.fmean(r.compile_s for r in res) * scale,
                      "s"),
        "job_s": (statistics.fmean(r.job_s for r in res) * scale, "s"),
        # after the first pass: what one job needs.  Later passes add heap
        # fragmentation that differs from run to run (up to 20 MB here).
        "peak_rss_mb": (res[0].peak_rss_mb, "MB"),
        "bond_dim_sum": (res[0].exact["bond_dim_sum"], "count"),
    }


def per_layer(tracer, passes, exact, peak_mb, scale: float) -> dict:
    """Per-layer metrics: times (in reference seconds) per set-up or per
    traced pass, per-call percentiles, the exact counts, and self-time
    shares per layer."""
    setups, traced = tracer.roots("bench.setup"), tracer.roots("bench.pass")

    def per_setup(*names):
        return sum(tracer.durations(names, setups)) * scale / len(setups)

    def per_pass(*names):
        return sum(tracer.durations(names, traced)) * scale / len(traced)

    adds = [d * scale for d in tracer.durations("diagram.add_term", traced)]
    oracle = [d * scale
              for d in tracer.durations("svdref.optimal_bond_dims", traced)]
    m = {
        "tree.build_s": (per_setup("tree.build"), "s"),
        "operators.random_hamiltonian_s": (
            per_setup("operators.random_hamiltonian"), "s"),
        "oqs.hamiltonian_s": (
            per_setup("oqs.oqs_terms", "operators.Hamiltonian"), "s"),
        "operators.folded_terms_s": (per_pass("operators.folded_terms"), "s"),
        "diagram.build_s": (per_pass(
            "diagram.from_hamiltonian", "diagram.from_single_term",
            "diagram.add_term"), "s"),
        "diagram.add_term_p50_us": (quantile(adds, 0.50) * 1e6, "us"),
        "diagram.add_term_p99_us": (quantile(adds, 0.99) * 1e6, "us"),
        "diagram.add_term_samples": (len(adds), "count"),
        "diagram.match_visits": (exact["match_visits"], "count"),
        "diagram.vertices": (exact["vertices"], "count"),
        "diagram.hyperedges": (exact["hyperedges"], "count"),
        "diagram.hyperedge_fresh_frac": (
            ratio(exact["hyperedges"], exact["site_slots"]), "ratio"),
        "assembly.emit_s": (per_pass("assembly.emit_tensors"), "s"),
        "assembly.write_s": (per_pass("assembly.write_ttno"), "s"),
        "assembly.read_s": (per_pass("assembly.read_ttno"), "s"),
        "assembly.dump_bytes": (exact.get("dump_bytes", 0), "B"),
        "assembly.elements": (exact.get("elements", 0), "count"),
        "assembly.dense_elements": (exact.get("dense_elements", 0), "count"),
        "assembly.fill_frac": (ratio(exact.get("elements", 0),
                                     exact.get("dense_elements", 0)),
                               "ratio"),
        "assembly.dense_bytes_computed": (exact["dense_bytes_computed"], "B"),
        "assembly.peak_alloc_mb": (peak_mb, "MB"),
        "svdref.optimal_bond_dims_s": (
            per_pass("svdref.optimal_bond_dims"), "s"),
        "svdref.optimal_bond_dims_p50_ms": (quantile(oracle, 0.50) * 1e3,
                                            "ms"),
        "svdref.optimal_bond_dims_p90_ms": (quantile(oracle, 0.90) * 1e3,
                                            "ms"),
        "svdref.excess_sum": (exact.get("excess_sum", 0), "count"),
        "svdref.r_diff": (exact.get("r_diff", 0.0), "bonds"),
    }
    walls = {flag: [w for _, w, t in passes if t == flag]
             for flag in (False, True)}
    m["trace.overhead_frac"] = (statistics.median(walls[True])
                                / statistics.median(walls[False]) - 1, "ratio")
    own = tracer.self_times(setups + traced)
    total = sum(r[5] - r[4] for r in setups + traced)
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (own.get(layer, 0.0) / total, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ttno" / "__init__.py").is_file():
        print(f"perfbench: no ttno package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ttno
    if Path(ttno.__file__).resolve().parent != (SRC / "ttno").resolve():
        print("perfbench: ttno was not imported from src/", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(np.__version__)
    run_id = f"{wl.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    traced = bool(args.trace)
    tracer = Tracer(run_id, enabled=traced)
    tally = Tally()
    cal = Calibration()
    t0 = time.perf_counter()
    setup_times, passes, inputs, path = run(wl, args.seed, args.seconds,
                                            traced, tracer, tally, cal)
    wall = time.perf_counter() - t0
    if not passes:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    exact = passes[0][0].exact
    if traced:
        tracer.enabled = False
        measured = per_layer(tracer, passes, exact,
                             alloc_peak_mb(wl, inputs, path), cal.scale)
        tracer.write(OUT / f"trace-{run_id}.json",
                     {"workload": wl.name, "seed": args.seed, "env": env,
                      "wall_s": wall, "calibration_s": cal.times})
    else:
        measured = end_to_end(setup_times, passes, cal.scale)
    declared = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if traced else "end_to_end"]}
    if {k: u for k, (_, u) in measured.items()} != declared:
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"setups {len(setup_times)}  passes {len(passes)}  "
          f"wall {wall:.1f} s")
    for k, v in env.items():
        print(f"env.{k:<40} {v}")
    print(f"calibration kernel mean {statistics.fmean(cal.times):.5f} s, "
          f"scale {cal.scale:.4f}")
    print("wall job_s per pass "
          + " ".join(f"{r.job_s:.4f}" for r, _, _ in passes))
    print("calibration per sample " + " ".join(f"{c:.5f}" for c in cal.times))
    print("peak RSS MB after each pass "
          + " ".join(f"{r.peak_rss_mb:.1f}" for r, _, _ in passes))
    for k, v in exact.items():
        if k != "diagram_dump_sha256":
            print(f"exact.{k:<38} {v}")
    for k, (v, unit) in measured.items():
        print(f"{k:<44} {v!r:>24} {unit}")
    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"{'failed_frac':<44} {failed_frac!r:>24} ratio")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in measured.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
