"""vshstools benchmark: one workload per process, one operation at a time.

    python3 perfbench/run.py --workload quintic-sweep --seed 1 \
        --seconds 40 --trace 0

Run it from anywhere inside a checkout; it imports vshstools from the
checkout's src/.  The seed builds the workload's inputs, a few batches
of the same shapes with different entries; the program only sees the
built objects.  Each pass runs one batch in a closed loop (the next
operation starts when the previous one returned) and checks every
output after its clock stops.  A reference kernel timed between the
operations gives each operation's time in multiples of the reference
too, so the gated pass time follows the code rather than the shared
host's speed.

--trace 0 repeats passes, cycling through the batches, while the next
one still fits in --seconds and prints the end-to-end metrics.
--trace 1 runs three passes over the first batch whatever --seconds
says: one untraced (plus the workload's trace-only inputs), one with
spans recorded around every public function of the package, one
counting Scalar arithmetic, and prints the per-layer metrics; the spans
go to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are for people.
See perfbench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

import spans
import workloads

# set-up is repeated at least this often and for at least this long
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
# batches of the same shapes with different entries, built from one seed;
# passes cycle through them, so a shape's median spans several draws
BATCHES = 3
OUT_DIR = Path(__file__).resolve().parent / "out"

# The shared host's speed drifts by a third within minutes, in CPU time as
# much as in wall time, so a run's seconds follow the host more than the
# code.  A fixed piece of pure-Python Fraction arithmetic (about 0.1 s,
# sharing no code with the package) runs before the first operation and
# after each one, and before and after each set-up, and each of these
# times is also taken in multiples of the mean of the two reference times
# around it.
_ref_rng = Random(0)
REF_MATRIX = [[Fraction(_ref_rng.randint(-2 ** 40, 2 ** 40),
                        _ref_rng.randint(1, 2 ** 30)) for _ in range(8)]
              for _ in range(8)]
REF_REPEATS = 25
# about the median seconds of reference_s() on the machine where the
# benchmark was written; setup_s is given in seconds on a host this fast
REF_NOMINAL_S = 0.08

# per-layer metrics read from the span aggregate: (span name, statistic)
SPAN_METRICS = (
    ("series.Series.reverse", "total_s"), ("series.Series.reverse", "calls"),
    ("series.Series.compose", "total_s"), ("series.Series.compose", "calls"),
    ("series.SeriesMatrix.compose_entries", "total_s"),
    ("series.Series.__mul__", "self_s"), ("series.Series.__mul__", "calls"),
    ("vshs.formal_flat_gauge", "total_s"),
    ("vshs.formal_flat_gauge", "calls"),
    ("vshs.extend_pairing", "total_s"), ("vshs.extend_pairing", "calls"),
    ("linalg.mat_mul", "self_s"), ("linalg.mat_mul", "calls"),
    ("series.SeriesMatrix.__mul__", "self_s"),
    ("series.SeriesMatrix.__mul__", "calls"),
    ("series.SeriesMatrix.inverse", "total_s"),
    ("nilpotent.weight_filtration", "total_s"),
    ("nilpotent.graded_splitting", "total_s"),
    ("vshs.hodge_tate_split", "self_s"),
    ("vshs.gauge_transform", "total_s"),
    ("vshs.to_normal_form", "self_s"),
    ("vshs.from_normal_form", "total_s"),
    ("vshs.rees_to_geometric", "total_s"),
    ("vshs.geometric_to_rees", "total_s"),
    ("picard_fuchs.parse_pf", "total_s"),
    ("picard_fuchs.companion_vhs", "total_s"),
    ("picard_fuchs.frobenius_solve", "total_s"),
    ("picard_fuchs.mirror_map_frobenius", "total_s"),
    ("amodel.instantons_from_g", "total_s"),
    ("vshs.yukawa", "total_s"),
    ("jsonio.dumps", "total_s"),
)
UNITS = {"total_s": "s", "self_s": "s", "calls": "count"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_s() -> float:
    """Seconds of REF_REPEATS products of REF_MATRIX with itself."""
    a, n = REF_MATRIX, len(REF_MATRIX)
    t0 = perf_counter()
    for _ in range(REF_REPEATS):
        [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return perf_counter() - t0


def in_reference_units(times, refs) -> list[float]:
    """Each time over the mean of the reference times before and after
    it (refs has one more entry than times)."""
    return [t / ((before + after) / 2)
            for t, before, after in zip(times, refs, refs[1:])]


def setup(workload, seed: int):
    """Import the package and build the input batches, several times,
    with the reference kernel timed before the first and after each.

    Returns the last package and batches, the median set-up time in
    seconds and that of the set-up times scaled to REF_NOMINAL_S.
    """
    times: list[float] = []
    refs = [reference_s()]
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        # free the previous import's modules, so peak RSS does not grow
        # with the number of repeats
        pkg = batches = None
        gc.collect()
        t0 = perf_counter()
        pkg = workloads.load_package()
        rng = Random(seed)
        batches = [workload.build(pkg, rng) for _ in range(BATCHES)]
        times.append(perf_counter() - t0)
        refs.append(reference_s())
    scaled = [t * REF_NOMINAL_S for t in in_reference_units(times, refs)]
    return pkg, batches, statistics.median(times), statistics.median(scaled)


def run_pass(workload, pkg, inputs, recorder=None, after_op=None):
    """Time each operation alone and check its output afterwards.

    `recorder` (a Tracer or ScalarCounter) records only while an
    operation runs, never during the checks.  `after_op` is called after
    each operation and its check.  Returns the op times, their labels and
    the failure messages.
    """
    times, labels, failures = [], [], []
    for index, inp in enumerate(inputs):
        if recorder is not None:
            if hasattr(recorder, "op"):
                recorder.op(index)
            recorder.recording = True
        out, err = None, None
        t0 = perf_counter()
        try:
            out = workload.run(pkg, inp)
        except Exception as exc:  # a failed op is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if recorder is not None:
            recorder.recording = False
        if err is None:
            try:
                err = workload.check(pkg, inp, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        label = workload.label(inp)
        times.append(t1 - t0)
        labels.append(label)
        if err is not None:
            failures.append(f"{label}: {err}")
        if after_op is not None:
            after_op()
    return times, labels, failures


def require_unpatched(pkg) -> None:
    left = spans.patched_names(pkg)
    if left:
        raise RuntimeError(f"benchmark wrappers left in place: {left}")


def per_label_median(times, labels) -> dict[str, float]:
    by: dict[str, list[float]] = {}
    for t, label in zip(times, labels):
        by.setdefault(label, []).append(t)
    return {label: statistics.median(v) for label, v in
            sorted(by.items(), key=lambda kv: (len(kv[0]), kv[0]))}


def measure(workload, pkg, batches, seconds: float):
    """Untraced passes, cycling through the batches, while the next one
    still fits in `seconds`.  Returns the pass count, the op times in
    seconds and in reference units, their labels and the failures."""
    start = perf_counter()
    refs = [reference_s()]
    passes, times, labels, failures = 0, [], [], []
    while True:
        require_unpatched(pkg)
        p0 = perf_counter()
        t, lab, fail = run_pass(workload, pkg, batches[passes % len(batches)],
                                after_op=lambda: refs.append(reference_s()))
        pass_wall = perf_counter() - p0
        passes += 1
        times += t
        labels += lab
        failures += fail
        if perf_counter() - start + pass_wall > seconds:
            break
    print(f"perfbench: reference_s p50={statistics.median(refs):.4f}s "
          f"min={min(refs):.4f}s max={max(refs):.4f}s over {len(refs)}")
    return passes, times, in_reference_units(times, refs), labels, failures


def pass_time(times, labels) -> float:
    """Time of one pass over a batch: the sum over its labels of their
    median time in the run."""
    return sum(per_label_median(times, labels).values())


def end_to_end_metrics(ref_times, labels, setup_s):
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_ref": (pass_time(ref_times, labels), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def trace_metrics(workload, pkg, inputs):
    """Untraced, traced and counting pass; returns metrics, attempted,
    failures and the tracer (for its spans).  The workload's trace-only
    inputs run once, untraced, after the untraced pass."""
    require_unpatched(pkg)
    t_plain, labels, fail_plain = run_pass(workload, pkg, inputs)
    extra = workload.trace_extra(pkg)
    t_extra, labels_extra, fail_extra = run_pass(workload, pkg, extra)
    with spans.Tracer(pkg) as tracer:
        t_traced, _, fail_traced = run_pass(workload, pkg, inputs, tracer)
    with spans.ScalarCounter(pkg) as counter:
        _, _, fail_count = run_pass(workload, pkg, inputs, counter)
    require_unpatched(pkg)

    aggregate = tracer.aggregate()

    def stat(name: str, key: str):
        # a function a later version renames or removes reports 0
        return aggregate.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for name, key in SPAN_METRICS:
        m[f"{name}.{key}"] = (stat(name, key), UNITS[key])
    gauge_calls = stat("vshs.formal_flat_gauge", "calls")
    useful = (gauge_calls - tracer.gauge_repeats) / gauge_calls \
        if gauge_calls else 0.0
    m["vshs.flat_gauge_useful_frac"] = (useful, "ratio")
    m["cli.overhead_s"] = (stat("cli.main", "total_s") -
                           stat("picard_fuchs.bmodel_pipeline", "total_s"),
                           "s")
    plain = per_label_median(t_plain + t_extra, labels + labels_extra)
    for order in workloads.QUINTIC_ORDERS:
        m[f"pipeline_s.o{order}"] = (plain.get(f"o{order}", 0.0), "s")
    m["scalars.mul.calls"] = (counter.mul, "count")
    m["scalars.add.calls"] = (counter.add, "count")
    m["scalars.inverse.calls"] = (counter.inverse, "count")
    m["scalars.max_bits"] = (counter.max_bits, "bits")
    m["scalars.mul_gaussian_frac"] = (
        counter.mul_gaussian / counter.mul if counter.mul else 0.0, "ratio")
    m["trace.overhead_s"] = (sum(t_traced) - sum(t_plain), "s")
    m["trace.uncovered_s"] = (sum(t_traced) - tracer.top_level_s(), "s")
    failures = fail_plain + fail_extra + fail_traced + fail_count
    return m, 3 * len(inputs) + len(extra), failures, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = workloads.missing_sources()
    if missing:
        print(f"perfbench: not a vshstools checkout, missing {missing}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    pkg, batches, setup_raw_s, setup_s = setup(workload, args.seed)
    digest = hashlib.sha256("".join(
        workload.digest(pkg, b) for b in batches).encode()).hexdigest()
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"batches={len(batches)} ops_per_pass={len(batches[0])} "
          f"inputs_sha256={digest}")

    if args.trace:
        metrics, attempted, failures, tracer = trace_metrics(
            workload, pkg, batches[0])
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        print(f"perfbench: {len(tracer.fid)} spans written to {path}")
    else:
        passes, times, ref_times, labels, failures = measure(
            workload, pkg, batches, args.seconds)
        attempted = len(times)
        metrics = end_to_end_metrics(ref_times, labels, setup_s)
        print(f"perfbench: wall_s={pass_time(times, labels):.4f}s "
              f"setup_raw_s={setup_raw_s:.4f}s (in seconds on this host, "
              f"not gated)")
        medians = per_label_median(times, labels)
        prefix = "pipeline_s" if workload.name == "quintic-sweep" else "op_s"
        print("perfbench: " + " ".join(
            f"{prefix}.{k}={v:.4f}s" for k, v in medians.items()))
        print(f"perfbench: op_s_p50={statistics.median(times):.4f}s over "
              f"{attempted} ops in {passes} passes; op_s_p90 not "
              f"reported (a p90 needs at least 100 ops per run)")

    print(f"perfbench: fail_frac={len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted} ops)")
    for msg in failures[:10]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
