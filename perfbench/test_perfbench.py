"""Tests of the benchmark's own checks, tracer and input lists.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import loccdist as L  # noqa: E402
import loccdist.cli  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _states(example):
    return {s.name: s.amplitudes for s in L.canned_example(example).states}


CANNED = [("six4x4", "six4x4"), ("bell2", "bell2-x")]


@pytest.mark.parametrize("example,protocol", CANNED)
def test_walker_accepts_canned_protocols(example, protocol):
    tree = L.canned_protocol(protocol)
    assert checks.protocol_problems(checks.tree_from_object(tree), _states(example)) == []
    as_file = checks.tree_from_json(loccdist.cli.protocol_to_dict(tree))
    assert checks.protocol_problems(as_file, _states(example)) == []


def _relabel(tree, swap):
    if tree[0] == "leaf":
        return ("leaf", swap.get(tree[1], tree[1]))
    _, party, blocks, children = tree
    return ("node", party, blocks, [_relabel(c, swap) for c in children])


@pytest.mark.parametrize("example,protocol,a,b",
                         [("six4x4", "six4x4", "psi1", "psi3"), ("bell2", "bell2-x", "A1", "A2")])
def test_walker_rejects_swapped_leaf_labels(example, protocol, a, b):
    tree = checks.tree_from_object(L.canned_protocol(protocol))
    problems = checks.protocol_problems(_relabel(tree, {a: b, b: a}), _states(example))
    assert any("reached by" in p for p in problems)


@pytest.mark.parametrize("example,protocol", CANNED)
def test_walker_rejects_incomplete_measurement(example, protocol):
    _, party, blocks, children = checks.tree_from_object(L.canned_protocol(protocol))
    cut = ("node", party, blocks[:-1], children[:-1])
    problems = checks.protocol_problems(cut, _states(example))
    assert any("does not resolve the identity" in p for p in problems)


def test_truth_rules_match_the_literature():
    assert checks.two_qubit_rule(list(_states("bell2").values()))
    assert not checks.two_qubit_rule(list(_states("bell3").values()))
    assert checks.rank_sum_violated(list(_states("bell4").values()))
    assert not checks.rank_sum_violated(list(_states("domino9").values()))
    assert [checks.schmidt_rank(m) for m in workloads.one_entangled_triple(
        np.random.default_rng(0))] == [1, 1, 2]


def _traced_search(example):
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = L.search_protocol(L.canned_example(example))
    finally:
        tracer.uninstall()
    return outcome, tracer.snapshot()


def test_tracer_counts_repeat_and_bindings_are_restored():
    original = L.states.make_state
    outcome, first = _traced_search("six4x4")
    _, second = _traced_search("six4x4")
    assert first["calls"] == second["calls"] and first["counts"] == second["counts"]
    assert first["counts"]["search.nodes"] == outcome.nodes_explored
    assert first["calls"]["states.make_state"] > 0
    assert first["calls"]["protocol.ProjectiveMeasurement"] > 0
    for module in (L, L.states, L.ensemble, L.protocol, L.search, loccdist.cli):
        assert getattr(module, "make_state") is original
    assert "__wrapped__" not in vars(L.ProjectiveMeasurement.__init__)


def test_tracer_names_a_missing_target(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("search", "no_such_layer"),))
    _, snap = _traced_search("bell2")
    assert snap["missing"] == ["search.no_such_layer"]
    values = spans.layer_values(snap)
    assert "search.no_such_layer.calls" not in values and "search.nodes" in values


def test_lists_are_fixed_by_the_seed():
    one, again, other = (workloads.cases("sweep2x2", s) for s in (3, 3, 4))
    assert [c.family for c in one] == [c.family for c in other]
    assert len(one) == sum(workloads.SWEEP_FAMILIES.values())
    same = [np.array_equal(a, b) for x, y in zip(one, again)
            for a, b in zip(x.states.values(), y.states.values())]
    differ = [np.array_equal(a, b) for x, y in zip(one, other)
              for a, b in zip(x.states.values(), y.states.values())]
    assert all(same) and not any(differ)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_prints_every_metric_of_benchmark_json(trace, section):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "sweep2x2",
                          "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                         cwd=HERE.parent, capture_output=True, text=True, timeout=170,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 + trace) * sum(workloads.SWEEP_FAMILIES.values())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}
