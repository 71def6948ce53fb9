"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import json
import os
import sys

import numpy as np
import pytest

from perfbench import inputs, oracle, stats, tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("gen", [inputs.solve_problems, inputs.certify_words,
                                 inputs.verify_seeds])
def test_same_seed_gives_same_inputs(gen):
    assert gen(7, 30) == gen(7, 30)
    assert gen(7, 30) != gen(8, 30)
    assert gen(7, 10) == gen(7, 30)[:10]


def test_solve_inputs_are_admissible():
    for k, xi1, xi2 in inputs.solve_problems(3, 200):
        assert k in (3, 4, 5)
        for xi in (xi1, xi2):
            assert inputs.u3_inner(xi, xi) == 2 * k - 2
            assert max(abs(c) for c in xi) <= 6
        l = inputs.u3_inner(xi1, xi2)
        assert 0 < abs((2 * k - 2) ** 2 - l * l) < 256
        assert inputs.span_is_primitive(xi1, xi2)


def test_span_primitivity():
    assert inputs.span_is_primitive((1, 0, 0), (0, 1, 0))
    assert not inputs.span_is_primitive((1, 1, 0), (1, -1, 0))  # index 2


def test_words_fix_v_and_lifts_are_isometries():
    for m, k, tokens in inputs.certify_words(5, 100):
        oracle.expected_certificate(m, k, tokens)  # raises unless v is fixed
        for tok in tokens:
            if tok[0] == "surface_lift":
                h = tok[1]
                assert oracle.is_isometry(h, inputs.U3_GRAM)
                assert oracle.det(h) == 1
                assert oracle.orientation(h, inputs.U3_GRAM,
                                          oracle.U3_FRAME) == 0


def test_propdual_block_restricts_to_minus_dual():
    cert = oracle.expected_certificate(2, 3, inputs.propdual_block(1))
    assert cert["characters"] == {"det": -1, "ori": 0, "disc": "-id"}
    assert cert["ori"] == 1 and cert["in_N"]


def test_integer_determinant_and_orientation():
    assert oracle.det(((2, 1), (1, 1))) == 1
    assert oracle.det(((0, 1, 0), (1, 0, 0), (0, 0, 5))) == -5
    assert oracle.det(((1, 2), (2, 4))) == 0
    minus = tuple(tuple(-int(i == j) for j in range(6)) for i in range(6))
    # minus the identity reverses the three positive directions of U^3
    assert oracle.orientation(minus, inputs.U3_GRAM, oracle.U3_FRAME) == 1


def test_percentile_rule_and_sample_count():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.percentile([5.0], 90) == 5.0
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(40, 75) == 10  # the p75 minimum
    assert stats.samples_beyond(39, 75) == 9
    with pytest.raises(ValueError):
        stats.percentile([], 90)


def test_relative_latencies_use_interpolated_reference():
    # the reference takes 2.0 at t=1 and 3.0 at t=2
    rel = stats.relative_latencies([1.0, 2.0], [4.0, 6.0], [0.0, 3.0],
                                   [1.0, 4.0])
    assert rel.tolist() == [2.0, 2.0]
    assert stats.reference_work() == stats.reference_work()


def test_self_time_subtracts_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parents = np.array([-1, 0, 1, 0], dtype=np.int32)
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracing.self_times(parents, starts, ends).tolist() == \
        [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3 and len(t.start) == 0  # disabled: no spans
    t.enabled = True
    assert outer(1) == 3
    names, parents, starts, ends = t.spans()
    assert [t.names[n] for n in names] == ["outer", "inner", "inner"]
    assert parents.tolist() == [-1, 0, 0]
    assert (ends >= starts).all() and t.stack == []


def test_install_wraps_every_binding_and_counts():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mukailat
    import mukailat.cli
    import mukailat.verify
    t = tracing.Tracer()
    tracing.install(t, mukailat)
    # names imported with `from .intmat import ...` are wrapped too
    assert mukailat.lemsimo.solve_rational is mukailat.intmat.solve_rational
    assert mukailat.isometries.mat_mul is mukailat.intmat.mat_mul
    t.enabled = True
    problem = mukailat.lemsimo.LemsimoProblem(3, (1, 2, 0, 0, 0, 0),
                                              (0, 0, 1, 2, 0, 0))
    mukailat.lemsimo.solve(problem)
    t.enabled = False
    values = tracing.layer_metrics(t, ("nikulin-suite",), 0.0)
    assert values["lemsimo.solve.calls"] == 1
    assert values["lemsimo.build_targets.calls"] == 1
    assert values["isometries.Isometry.calls"] > 0
    assert values["intmat.mat_mul.calls"] > 0
    assert values["lemsimo.find_companion.calls"] == 1
    assert values["lemsimo.iter_splits.yielded"] < \
        values["lemsimo.iter_splits.calls"] + 1
    root = t.spans()[1][0]
    assert root == -1 and t.names[t.spans()[0][0]] == "lemsimo.solve"


def test_benchmark_json_lists_every_per_layer_metric():
    from perfbench.run import VERIFY_CHECKS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.per_layer_specs(VERIFY_CHECKS)
