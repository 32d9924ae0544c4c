"""Self-tests of the benchmark harness (not of vshstools).

    python3 -m pytest -q perfbench/test_perfbench.py

They use the smallest input of each workload, so they take seconds.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def pkg():
    return workloads.load_package()


RANK = {"pairing-ext": lambda inp: inp[0].rows,
        "nf-roundtrip": lambda inp: inp[0].rank}


def smallest(pkg, workload, seed=7):
    """The workload's input of the smallest rank, as a batch of one."""
    inputs = workload.build(pkg, Random(seed))
    return [min(inputs, key=RANK[workload.name])]


class Corrupting:
    """A workload whose operation returns a damaged output."""

    def __init__(self, inner, damage):
        self.inner, self.damage = inner, damage
        self.check, self.label = inner.check, inner.label

    def run(self, pkg, inp):
        return self.damage(pkg, self.inner.run(pkg, inp))


def bump(series, k, pkg):
    coeffs = list(series.coeffs)
    coeffs[k] = coeffs[k] + pkg.Scalar(1)
    return pkg.Series(coeffs, series.order)


def damage_pairing(pkg, ext):
    # keep M(0), so only the residual check can see the damage
    rows = [[ext.entry(i, j) for j in range(ext.cols)]
            for i in range(ext.rows)]
    rows[0][-1] = bump(rows[0][-1], 5, pkg)
    return pkg.SeriesMatrix(rows)


def damage_nf(pkg, out):
    rees, back, report = out
    wrong = pkg.vshs.rescale_coordinate(report.dn, pkg.Scalar(2))
    return rees, back, dataclasses.replace(report, dn=wrong)


def damage_quintic(pkg, out):
    code, text = out
    return code, text.replace("609250", "609251")


@pytest.mark.parametrize("name,damage", [
    ("pairing-ext", damage_pairing),
    ("nf-roundtrip", damage_nf),
    ("quintic-sweep", damage_quintic),
])
def test_corrupted_output_is_counted_as_failure(pkg, name, damage):
    workload = workloads.WORKLOADS[name]
    if name == "quintic-sweep":
        inputs = [x for x in workload.build(pkg, Random(1))
                  if x["order"] == 12]
    else:
        inputs = smallest(pkg, workload)
    _, _, clean = run.run_pass(workload, pkg, inputs)
    assert clean == []
    _, _, failures = run.run_pass(Corrupting(workload, damage), pkg, inputs)
    assert len(failures) == len(inputs)


def test_quintic_check_reads_the_instanton_numbers(pkg):
    workload = workloads.WORKLOADS["quintic-sweep"]
    inp = {"order": 12}
    assert workload.check(pkg, inp, (2, "")) == "exit code 2"
    assert "recorded" in workload.check(pkg, inp, (0, "{}"))


def counts(pkg, workload, inputs):
    with spans.Tracer(pkg) as tracer:
        run.run_pass(workload, pkg, inputs, tracer)
    with spans.ScalarCounter(pkg) as counter:
        run.run_pass(workload, pkg, inputs, counter)
    calls = {k: v["calls"] for k, v in tracer.aggregate().items()}
    return calls, tracer.gauge_repeats, (
        counter.mul, counter.add, counter.inverse, counter.mul_gaussian,
        counter.max_bits)


@pytest.mark.parametrize("name", ["pairing-ext", "nf-roundtrip"])
def test_counts_repeat_exactly(pkg, name):
    workload = workloads.WORKLOADS[name]
    inputs = smallest(pkg, workload)
    first = counts(pkg, workload, inputs)
    assert first == counts(pkg, workload, inputs)
    assert first[2][0] > 0 and sum(first[0].values()) > 0


def test_nf_roundtrip_computes_the_flat_gauge_per_normal_form(pkg):
    workload = workloads.WORKLOADS["nf-roundtrip"]
    calls, repeats, _ = counts(pkg, workload, smallest(pkg, workload))
    assert calls["vshs.to_normal_form"] == 1
    assert calls["vshs.formal_flat_gauge"] - repeats == 1


def originals(pkg):
    return {
        "gauge": pkg.vshs.formal_flat_gauge,
        "cli_inst": pkg.cli.instantons_from_g,
        "amodel_inst": pkg.amodel.instantons_from_g,
        "reverse": pkg.Series.__dict__["reverse"],
        "smul": pkg.Series.__dict__["__mul__"],
        "srmul": pkg.Series.__dict__["__rmul__"],
        "mat_mul": pkg.linalg.mat_mul,
        "scalar_mul": pkg.Scalar.__dict__["__mul__"],
        "scalar_add": pkg.Scalar.__dict__["__add__"],
        "scalar_inv": pkg.Scalar.__dict__["inverse"],
    }


def test_tracer_patches_where_callers_look(pkg):
    with spans.Tracer(pkg):
        for value in (pkg.vshs.formal_flat_gauge, pkg.cli.instantons_from_g,
                      pkg.amodel.instantons_from_g, pkg.instantons_from_g,
                      pkg.Series.__dict__["reverse"],
                      pkg.Series.__dict__["__rmul__"], pkg.linalg.mat_mul):
            assert getattr(value, spans.MARK, False)
        assert pkg.cli.instantons_from_g is pkg.amodel.instantons_from_g


def test_no_wrapper_survives(pkg):
    before = originals(pkg)
    with pytest.raises(KeyError):
        with spans.Tracer(pkg):
            with spans.ScalarCounter(pkg):
                assert spans.patched_names(pkg)
                raise KeyError("leave early")
    assert originals(pkg) == before
    assert spans.patched_names(pkg) == []


def test_span_aggregate_self_and_total():
    tracer = spans.Tracer(pkg=None)
    a, b = tracer._intern("a"), tracer._intern("b")
    # a[0, 10] contains b[1, 4], which contains a[2, 3] (recursion)
    for fid, start, end, parent in ((a, 0, 10, -1), (b, 1, 4, 0),
                                    (a, 2, 3, 1)):
        tracer.fid.append(fid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.opid.append(0)
    stats = tracer.aggregate()
    assert stats["a"] == {"calls": 2, "total_s": 10.0, "self_s": 8.0}
    assert stats["b"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert tracer.top_level_s() == 10.0


def test_inputs_follow_the_seed(pkg):
    workload = workloads.WORKLOADS["nf-roundtrip"]
    one = workload.digest(pkg, workload.build(pkg, Random(3)))
    assert one == workload.digest(pkg, workload.build(pkg, Random(3)))
    assert one != workload.digest(pkg, workload.build(pkg, Random(4)))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairing-ext",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_labels_are_unique_in_a_batch(pkg, name):
    workload = workloads.WORKLOADS[name]
    labels = [workload.label(x) for x in workload.build(pkg, Random(2))]
    assert len(set(labels)) == len(labels)


def test_wall_ref_sums_the_median_of_each_label():
    times = [1.0, 5.0, 1.2, 9.0, 3.0, 4.0]
    labels = ["a", "b", "a", "b", "a", "b"]
    wall_ref, unit = run.end_to_end_metrics(times, labels, 1.0)["wall_ref"]
    assert (wall_ref, unit) == (1.2 + 5.0, "ref")


def test_reference_units_use_the_references_around_each_op():
    assert run.in_reference_units([1.0, 3.0], [0.5, 1.5, 0.5]) == [1.0, 3.0]
    assert 0 < run.reference_s() < 5


def test_metrics_match_benchmark_json(pkg):
    e2e = run.end_to_end_metrics([1.0], ["a"], 1.0)
    assert {k: u for k, (_, u) in e2e.items()} == declared("end_to_end")
    workload = workloads.WORKLOADS["pairing-ext"]
    metrics, attempted, failures, _ = run.trace_metrics(
        workload, pkg, smallest(pkg, workload))
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert (attempted, failures) == (3, [])
    assert metrics["series.Series.reverse.calls"][0] == 0
    assert metrics["vshs.extend_pairing.calls"][0] == 1
