"""Tests of the benchmark itself: seeded generators, checkers that catch
wrong answers, failure counting, and the trace arithmetic.

    python -m pytest -q bench/tests
"""

import json
import random
import sys
import time
import types
from pathlib import Path

import pytest

import run
import workloads
from artinpal import group, monoid, oracle, orderings, palindromes
from artinpal.orderings import Sign
import tracer
from tracer import Tracer

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def ops_for(name, n, seed=11):
    return workloads.WORKLOADS[name].generate(random.Random(f"{name}:{seed}"), n)


def failures_by_kind(name, ops):
    """Run ops through the harness loop; the kinds that failed, by index."""
    latencies, failures, _ = run.run_ops(workloads.WORKLOADS[name], ops)
    assert len(latencies) == len(ops)
    return {i: kind for i, kind, _ in failures}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    assert ops_for(name, 30) == ops_for(name, 30)
    assert ops_for(name, 30) != ops_for(name, 30, seed=12)


def test_benchmark_json_records_each_workloads_why():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}


def test_stratified_sizes_cover_the_range():
    rng = random.Random(1)
    sizes = workloads.stratified(rng, 10, 19, 10)
    assert sorted(sizes) == list(range(10, 20))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_correct_program_passes(name):
    assert failures_by_kind(name, ops_for(name, 12)) == {}


def _flagged(name, ops, kind_prefix):
    """Every operation of the given kind failed, and no other did."""
    failed = failures_by_kind(name, ops)
    want = {i for i, op in enumerate(ops) if op.kind.startswith(kind_prefix)}
    assert want, f"no {kind_prefix} operation generated"
    assert set(failed) == want


def test_word_problem_flags_wrong_eq(monkeypatch):
    real = group.eq
    monkeypatch.setattr(group, "eq", lambda a, b: not real(a, b))
    _flagged("word_problem", ops_for("word_problem", 6), "")


def test_word_problem_flags_wrong_inverse(monkeypatch):
    monkeypatch.setattr(group, "inv", lambda a: a)
    _flagged("word_problem", ops_for("word_problem", 6), "")


def test_exceptions_are_counted_not_raised(monkeypatch):
    def boom(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(group, "from_word", boom)
    _flagged("word_problem", ops_for("word_problem", 4), "")


@pytest.mark.parametrize("gap, pairs", [(-1.0, [(1, 2), (2, 3), (3, 4)]),
                                        (1e9, [(0, 1)] * 3)])
def test_operations_are_scaled_by_the_samples_around_them(monkeypatch, gap, pairs):
    """A sample before every operation when the gap is always reached; one
    bracketing pair for all when it never is."""
    values = [1e-3, 2e-3, 8e-3, 4.5e-3, 9e-3]
    samples = iter(values)
    monkeypatch.setattr(run, "yardstick", lambda: next(samples))
    monkeypatch.setattr(run, "YARDSTICK_GAP_S", gap)
    noop = types.SimpleNamespace(run=lambda op: None, check=lambda op, out: None)
    _, failures, scales = run.run_ops(noop, [workloads.Op("noop", ())] * 3)
    assert not failures
    assert scales == pytest.approx(
        [run.YARDSTICK_REFERENCE_S / (values[a] * values[b]) ** 0.5 for a, b in pairs])


def test_palindromes_flags_wrong_unpal(monkeypatch):
    monkeypatch.setattr(palindromes, "unpal", lambda p: group.identity(p.matrix))
    _flagged("palindromes", ops_for("palindromes", 8), "round_trip")


def test_palindromes_flags_wrong_decomposition(monkeypatch):
    def wrong(x, *args):
        return palindromes.PalDecomposition(y=group.identity(x.matrix), I=(1,))

    monkeypatch.setattr(palindromes, "canonical_decompose", wrong)
    monkeypatch.setattr(palindromes, "decompose_rev_tau", wrong)
    ops = [op for op in ops_for("palindromes", 16) if op.kind.startswith(("canonical", "rev_tau"))]
    # an input that happens to equal Delta_{1} would pass; none is generated here
    assert set(failures_by_kind("palindromes", ops)) == set(range(len(ops)))


def test_palindromes_flags_wrong_lift(monkeypatch):
    def wrong(mat, target):
        return palindromes.PalDecomposition(y=group.identity(mat), I=())

    monkeypatch.setattr(palindromes, "involution_lift", wrong)
    _flagged("palindromes", ops_for("palindromes", 8), "lift")


def test_orderings_flags_broken_antisymmetry(monkeypatch):
    monkeypatch.setattr(orderings, "dehornoy_sign", lambda *args: Sign.POSITIVE)
    monkeypatch.setattr(orderings, "magnus_sign", lambda *args: Sign.POSITIVE)
    _flagged("orderings", ops_for("orderings", 8), "")


def test_orderings_flags_equal_verdict_on_unequal_pair(monkeypatch):
    monkeypatch.setattr(orderings.OrderingHandle, "compare",
                        lambda self, x, y: orderings.Comparison.EQUAL)
    ops = [op for op in ops_for("orderings", 24) if op.kind.startswith("compare")
           and not op.expect]
    assert set(failures_by_kind("orderings", ops)) == set(range(len(ops)))


def test_referee_flags_fast_path_disagreement(monkeypatch):
    real = monoid.equals
    monkeypatch.setattr(monoid, "equals", lambda u, v: not real(u, v))
    _flagged("referee", ops_for("referee", 9), "classes")


def test_mixed_nonmember_certificate_ignores_letters_1_and_2(monkeypatch):
    """On MIXED, 121 = 212 changes the counts of 1 and 2, so a word with
    other such counts can still be in the class; only a differing count
    of 3 certifies a non-member."""
    mat = workloads.MIXED
    pres = oracle.presentation_from_matrix(mat)
    assert oracle.equals_oracle(pres, (1, 2, 1, 3), (2, 1, 2, 3))
    proposals = iter([(2, 1, 2, 3), (3, 1, 2, 3), (1, 2, 1, 1)])
    monkeypatch.setattr(workloads, "signed_word", lambda *args, **kw: next(proposals))
    other = workloads.certified_nonmember(random.Random(0), mat, (1, 2, 1, 3))
    assert other == (3, 1, 2, 3)
    assert not oracle.equals_oracle(pres, (1, 2, 1, 3), other)


def test_referee_flags_core_decomposition_disagreement(monkeypatch):
    monkeypatch.setattr(oracle, "all_pal_decompositions", lambda *args: ())
    _flagged("referee", ops_for("referee", 20), "pal")


def test_tracer_picks_up_a_new_module():
    mod = types.ModuleType("artinpal.fakelayer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    inner.__module__ = outer.__module__ = mod.__name__
    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    traced = Tracer()
    try:
        traced.install()
        traced.recording = True
        assert mod.outer(1) == 4
        traced.recording = False
    finally:
        traced.uninstall()
        del sys.modules[mod.__name__]
    assert mod.outer is outer
    summary = traced.summary()
    assert summary["layers"]["fakelayer"]["calls"] == 2
    assert summary["functions"]["fakelayer.inner"]["total_s"] <= \
        summary["functions"]["fakelayer.outer"]["total_s"]
    metrics = run.layer_metrics(summary["layers"])
    assert metrics["other_layers.calls"]["value"] == 2
    assert metrics["other_layers.self_s"]["value"] == pytest.approx(summary["root_s"])


def test_self_times_partition_the_traced_time():
    """Layer self times, aggregated as spans close, match the stored spans
    and add up to the time inside root spans, which lies inside the wall
    time."""
    workload = workloads.WORKLOADS["palindromes"]
    ops = ops_for("palindromes", 12)
    traced = Tracer()
    traced.install()
    try:
        start = time.perf_counter()
        _, failures, _ = run.run_ops(workload, ops, traced)
        wall = time.perf_counter() - start
    finally:
        traced.uninstall()
    assert not failures
    summary = traced.summary()
    assert summary["spans_dropped"] == 0
    n = summary["spans"]
    duration = [traced.span_end[i] - traced.span_start[i] for i in range(n)]
    own = list(duration)
    for i in range(n):
        if traced.span_parent[i] >= 0:
            own[traced.span_parent[i]] -= duration[i]
    for layer, stats in summary["layers"].items():
        from_spans = sum(own[i] for i in range(n)
                         if traced.layer_of(traced.span_name[i]) == layer)
        assert stats["self_s"] == pytest.approx(from_spans, rel=1e-6, abs=1e-9)
    attributed = sum(v["self_s"] for v in summary["layers"].values())
    roots = sum(duration[i] for i in range(n) if traced.span_parent[i] < 0)
    assert attributed == pytest.approx(roots, rel=1e-9)
    assert summary["root_s"] == pytest.approx(roots, rel=1e-9)
    assert roots <= wall
    for name in ("palindromes", "weyl", "monoid", "group"):
        assert summary["layers"][name]["self_s"] > 0


def test_span_cap_keeps_aggregates_exact(monkeypatch):
    monkeypatch.setattr(tracer, "SPAN_CAP", 10)
    traced = Tracer()
    traced.install()
    try:
        run.run_ops(workloads.WORKLOADS["referee"], ops_for("referee", 3), traced)
    finally:
        traced.uninstall()
    summary = traced.summary()
    assert summary["spans"] == 10 and summary["spans_dropped"] > 0
    assert sum(v["calls"] for v in summary["layers"].values()) == 10 + summary["spans_dropped"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_format(trace, capsys):
    """The last stdout line carries every metric BENCHMARK.json names."""
    args = ["--workload", "referee", "--seed", "2", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(args) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        meta = json.loads(err.strip().splitlines()[-1])
        # every module of the package is a named layer; a new one belongs
        # in run.LAYERS and BENCHMARK.json, not only under other_layers
        assert meta["other_layers"] == []
        metrics = result["metrics"]
        layer_sum = sum(metrics[f"{layer}.self_s"]["value"]
                        for layer in (*run.LAYERS, run.OTHER_LAYERS))
        # unattributed time is the wall time outside root spans, summed
        # apart from the layers, so a layer missing here breaks the sum
        assert layer_sum + metrics["trace.unattributed_s"]["value"] == \
            pytest.approx(meta["traced_wall_s"], rel=1e-9)
