"""Benchmark of superext: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json):

  sweep-cold      `superext cohomology EXT --degree 2` then `superext verify EXT
                  --suite five-term`, in-process through `superext.cli.main`, on a
                  freshly written file per case: h3/h5/h7 even, h3/h5 odd,
                  sl2 ⋉ V2 and the fixture extensions, with fresh coefficients.
  decide-warm     extend and lift queries, each with its obstruction class,
                  against h7, odd h5, sl2 ⋉ V2 and affine_scaling prepared in set-up.
  verify-sampled  the sampled suites thm1, cor1, thm2 and thm3 at their
                  command-line defaults on warm extensions, a new seed per pass.

Set-up (building the state, warming it and drawing the first pass) is
repeated and its median reported as `setup_s`.  The timed window runs
whole passes until `--seconds` have elapsed; `ops_per_s` is the median over
passes of operations per second of time spent in operations.  Both are
in reference seconds (speed.py): each interval's wall time is scaled by
the speed of a fixed calibration kernel sampled on a timer during it, so
that the shared host's changes of speed drop out.  The wall-clock values
are printed beside them as `wall_setup_s` and `wall_ops_per_s`.  Every output is
checked after the window: a failed check, an exception or a digest that
differs from the reference counts the operation as failed, and the run
exits 1.

`--trace 1` runs set-up once and then a fixed number of passes instead of
the timed window, each operation twice: plain, and with every layer's
public functions wrapped in spans (tracing.py).  It reports per-layer
counts and times over set-up plus the traced operations, and the tracing
overhead from the two timings of the same operations.  Its counts depend
only on the seed.  Spans are written to
perfbench/out/<workload>.spans.json.

The last line of standard output is one JSON object; the lines before it
list every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC = HERE.parent / "src"
if not (SRC / "superext" / "__init__.py").is_file():
    sys.exit(f"error: no superext sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb")
PER_LAYER = (
    "linalg.calls", "linalg.self_s", "linalg.cells", "linalg.coords_calls",
    "linalg.solve_calls", "linalg.span_yield", "linalg.max_bits",
    "algebra.validate_calls", "algebra.validate_s", "algebra.hom_calls", "algebra.self_s",
    "cohomology.z2_s", "cohomology.b2_s", "cohomology.cocycle2_checks",
    "cohomology.cocycle2_check_s", "cohomology.d1_calls", "cohomology.class_of_calls",
    "cohomology.class_of_s", "cohomology.self_s",
    "extension.build_calls", "extension.build_s", "extension.obstruction_s",
    "extension.lifted_frac", "extension.classify_calls", "extension.self_s",
    "sequences.samples_requested", "sequences.samples_obtained", "sequences.sample_yield",
    "vacuous_frac", "files.parse_calls", "trace.overhead_frac",
)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _tail(latencies: list[float]):
    """Highest of p99.9/p99/p95/p90 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0):
        rank = ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def _timed(wl, state, ops, lat: list, results: list, p: int, tracer=None, base=0,
           probe=None):
    """Run `ops`; appends each one's wall seconds, or its probe interval, to `lat`."""
    for j, op in enumerate(ops):
        t = probe.mark() if probe else perf_counter()
        try:
            res = tracer.span(base + j, wl.run, state, op) if tracer else wl.run(state, op)
        except Exception as exc:  # an operation that raises is counted as failed
            res = exc
        lat.append(probe.interval(t) if probe else perf_counter() - t)
        results.append((p, op, res))


def _checks(wl, state, results, reference: str | None):
    """Failed operations with their reasons, and the digest of pass 0's outputs."""
    failures: dict[int, list[str]] = {}
    first = []
    for n, (p, op, res) in enumerate(results):
        if isinstance(res, Exception):
            failures[n] = [f"raised {type(res).__name__}: {res}"]
            record = None
        else:
            bad = wl.check(state, op, res)
            if bad:
                failures[n] = bad
            record = wl.record(state, op, res)
        if p == 0:
            first.append(record)
    digest = _digest(first)
    if reference is not None and digest != reference:
        for n, (p, _, _) in enumerate(results):
            if p == 0:
                failures.setdefault(n, []).append("pass-0 digest differs from the reference")
    return failures, digest


def _coverage(wl, state, results, passes):
    """Samples requested and obtained, vacuous suite runs by name, and suite runs."""
    req = got = runs = 0
    vacuous: list[str] = []
    if wl.name == "verify-sampled":
        for p, op, res in results:
            if p in passes and not isinstance(res, Exception):
                r, g, v = workloads.coverage(res.to_dict())
                req, got, runs = req + r, got + g, runs + 1
                if v:
                    vacuous.append(f"{state['names'][op.ext]} {op.suite}")
    return req, got, vacuous, runs


def _vacuous_note(vacuous: list[str], runs: int) -> str:
    return f"{len(vacuous)} of {runs} suite runs; {', '.join(sorted(set(vacuous)))}"


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        reference: dict | None = None) -> dict:
    """Run one workload; returns the result object plus a `detail` block."""
    wl = workloads.WORKLOADS[name](scale)
    if reference is None:
        reference = load_reference() if scale == "full" else {}
    workdir = OUT / f"{name}-{seed}-{id(wl):x}"
    try:
        return (_run_traced if trace else _run_plain)(
            wl, seed, seconds, workdir, reference.get(name, {}).get(str(seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_plain(wl, seed, seconds, workdir, reference):
    probe = speed.Probe()
    intervals: list = []
    results: list = []
    ends = []  # number of operations after each pass
    with probe.running():
        setups = []
        for _ in range(wl.setup_reps):
            mark = probe.mark()
            state = wl.setup(seed, workdir)
            ops = wl.make_pass(state, 0)
            setups.append(probe.interval(mark))
        start = perf_counter()
        p = 0
        while True:
            _timed(wl, state, ops, intervals, results, p, probe=probe)
            ends.append(len(intervals))
            p += 1
            if perf_counter() - start >= seconds:
                break
            ops = wl.make_pass(state, p)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref = [probe.ref_seconds(i) for i in intervals]
    wall = [net for _, _, net in intervals]
    passes = list(zip([0] + ends, ends))

    def rate(lat):  # median over passes of operations per second spent in operations
        return statistics.median((b - a) / sum(lat[a:b]) for a, b in passes)

    failures, digest = _checks(wl, state, results, reference)
    _, _, vacuous, runs = _coverage(wl, state, results, range(p))
    metrics = {
        "setup_s": (statistics.median(probe.ref_seconds(i) for i in setups), "s"),
        "ops_per_s": (rate(ref), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    extra = {"op_p50_ms": (statistics.median(ref) * 1000, "ms"),
             "failed_frac": (len(failures) / len(ref), "1"),
             "wall_setup_s": (statistics.median(net for _, _, net in setups), "s"),
             "wall_ops_per_s": (rate(wall), "1/s"),
             "probe_rate": (statistics.median(probe.rates), "1/s")}
    tail = _tail(ref)
    if tail is not None:
        extra["op_tail_ms"] = (tail[1] * 1000, "ms")
    notes = {"op_p50_ms": f"n={len(ref)}", "passes": p, "setup_reps": wl.setup_reps,
             "probe_rate": f"kernel runs per wall second, {len(probe.rates)} samples"}
    if runs:
        extra["vacuous_frac"] = (len(vacuous) / runs, "1")
        notes["vacuous_frac"] = _vacuous_note(vacuous, runs)
    if tail is not None:
        beyond = len(ref) - ceil(tail[0] / 100 * len(ref))
        notes["op_tail_ms"] = f"p{tail[0]:g}, n={len(ref)}, {beyond} beyond"
    return _result(metrics, extra, len(ref), failures, digest, reference, notes)


def _run_traced(wl, seed, seconds, workdir, reference):
    tracer = tracing.Tracer()
    with tracer.installed():
        state = tracer.span(-1, wl.setup, seed, workdir)
    lat0: list[float] = []
    lat1: list[float] = []
    results: list = []
    for p in range(wl.trace_passes):
        for j, op in enumerate(wl.make_pass(state, p)):
            # each operation runs plain and traced back to back, in alternating
            # order, so that drifts in machine speed cancel out of the overhead
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed():
                        _timed(wl, state, [op], lat1, results, wl.trace_passes + p, tracer,
                               len(lat1))
                else:
                    _timed(wl, state, [op], lat0, results, p)
    failures, digest = _checks(wl, state, results, reference)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (1 - sum(lat0) / sum(lat1), "1")  # same operations
    req, got, vacuous, runs = _coverage(wl, state, results, range(wl.trace_passes))
    metrics["sequences.samples_requested"] = (req, "count")
    metrics["sequences.samples_obtained"] = (got, "count")
    metrics["sequences.sample_yield"] = (got / req if req else 0.0, "1")
    metrics["vacuous_frac"] = (len(vacuous) / runs if runs else 0.0, "1")
    tracer.write(OUT / f"{wl.name}.spans.json")
    listed = {k: metrics[k] for k in PER_LAYER}
    extra = {k: v for k, v in metrics.items() if k not in listed}
    notes = {"spans": len(tracer.names),
             "passes": f"{wl.trace_passes}, each operation plain and traced"}
    if runs:
        notes["vacuous_frac"] = _vacuous_note(vacuous, runs)
    return _result(listed, extra, len(results), failures, digest, reference, notes)


def _result(metrics, extra, attempted, failures, digest, reference, notes):
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {
            "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
            "notes": notes,
            "digest": digest,
            "reference": reference,
            "failures": [f"op {n}: {msg}" for n, msgs in sorted(failures.items())[:20]
                         for msg in msgs],
        },
    }


def render(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    d = result["detail"]
    lines = []
    for table in (result["metrics"], d["extra"]):
        for k, m in table.items():
            note = d["notes"].get(k)
            lines.append(f"{k} = {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    ref = d["reference"]
    verdict = ("no reference for this seed" if ref is None
               else "matches the reference" if ref == d["digest"] else "DIFFERS from the reference")
    lines.append(f"digest of pass 0 = {d['digest']} ({verdict})")
    shown = set(result["metrics"]) | set(d["extra"])
    lines.append(", ".join([f"attempted = {result['attempted']}", f"failed = {result['failed']}"]
                           + [f"{k} = {v}" for k, v in d["notes"].items() if k not in shown]))
    lines.extend(d["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in render(result):
        print(line)
    del result["detail"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
