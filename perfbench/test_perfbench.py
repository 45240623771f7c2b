"""Tests of the benchmark itself: checks, op accounting, inputs and trace.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import epictrl.percolate  # noqa: E402
import inputs  # noqa: E402
import layertrace  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from epictrl.network import ContactNetwork, component_of  # noqa: E402


def one_item(cls):
    """The workload with a pool of one item, set up."""
    wl = type(cls.__name__, (cls,), {"pool_size": 1})(7)
    wl.setup()
    return wl


def wrong(cls, tamper):
    """A one-item workload whose op answer is corrupted by ``tamper``."""

    def op(self, item):
        return tamper(cls.op(self, item))

    wl = type(cls.__name__, (cls,), {"pool_size": 1, "op": op})(7)
    wl.setup()
    return wl


def drop_boundary_edge(answer):
    chosen, report = answer
    report["candidates"][0]["members"] = report["candidates"][0]["members"][:-1]
    return chosen, report


def unsolved_lp(answer):
    chosen, report = answer
    return chosen, dict(report, lp_status="iteration-limit")


def impossible_mean(answer):
    return dataclasses.replace(answer, mean=0.0)


def lp_above_brute_force(answer):
    chosen, report = answer["saa"]["edge"]
    h_hat = answer["brute"]["edge"][1]
    answer["saa"]["edge"] = (chosen, dict(report, lp_objective=h_hat))
    return answer


@pytest.mark.parametrize("cls, tamper", [
    (workloads.KargerK40, drop_boundary_edge),
    (workloads.SaaPowerlaw, unsolved_lp),
    (workloads.McSupercritical, impossible_mean),
    (workloads.DeskOracle, lp_above_brute_force),
])
def test_wrong_answer_counts_as_failed(cls, tamper):
    ops = measure.run_ops(wrong(cls, tamper), seconds=0.0)
    assert (ops.attempted, ops.failed, ops.plain) == (1, 1, [])


def test_right_answer_passes():
    ops = measure.run_ops(one_item(workloads.McSupercritical), seconds=0.0)
    assert (ops.attempted, ops.failed, len(ops.plain)) == (1, 0, 1)
    assert list(ops.quality) == [0]


def test_wrong_component_sizes_fail_the_sample_check(monkeypatch):
    wl = one_item(workloads.McSupercritical)
    answer = wl.op(0)
    original = epictrl.percolate.component_sizes
    monkeypatch.setattr(epictrl.percolate, "component_sizes",
                        lambda *a, **k: original(*a, **k) + 1)
    with pytest.raises(workloads.CheckFailed):
        wl.check(0, answer)


class Flaky(workloads.Workload):
    """Pure-Python workload: raises on item 1, answers differently on repeats."""

    name = "flaky"
    pool_size = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def op(self, item):
        self.calls += 1
        time.sleep(0.002)
        if item == 1:
            raise RuntimeError("op failed")
        return self.calls if item == 2 else 0

    def check(self, item, answer):
        pass

    def quality(self, item, answer):
        return 1.0, 1.0

    def signature(self, answer):
        return answer


def test_runs_whole_passes_and_counts_every_failure():
    ops = measure.run_ops(Flaky(0), seconds=0.05)
    passes = ops.attempted // Flaky.pool_size
    assert ops.attempted % Flaky.pool_size == 0 and passes >= 2
    # item 1 raises every pass; item 2 changes its answer after the first pass
    assert ops.failed == passes + (passes - 1)
    assert len(ops.plain) == passes + 1


def test_tail_has_ten_ops_beyond():
    times = [float(i) for i in range(25)]
    assert measure.tail(times) == (14.0, 60.0, 10)
    assert measure.tail(times[:5]) == (4.0, 100.0, 0)


def test_source_moves_to_max_degree_vertex_smallest_id():
    net = ContactNetwork(n=5, us=np.array([1, 2, 3]), vs=np.array([2, 3, 4]),
                         costs=np.ones(3), probs=np.ones(3), source=0)
    assert inputs.reroot_at_max_degree(net).source == 2


def test_isolated_source_fails_loudly():
    empty = ContactNetwork(n=4, us=np.array([1]), vs=np.array([1]),
                           costs=np.ones(1), probs=np.ones(1), source=0)
    with pytest.raises(inputs.InputError):
        inputs.reroot_at_max_degree(empty)


def test_inputs_repeat_and_are_connected():
    a, b = inputs.sparse_network(), inputs.sparse_network()
    assert (a.n, a.m) == (inputs.SPARSE_N, inputs.SPARSE_M)
    assert np.array_equal(a.us, b.us) and np.array_equal(a.vs, b.vs)
    for i in range(5):
        desk = inputs.desk_network(i)
        assert 7 <= desk.n <= 9 and desk.m == inputs.DESK_M
        assert component_of(desk).size == desk.n
    assert inputs.op_seeds(5, 10, 4) == inputs.op_seeds(5, 10, 4) != inputs.op_seeds(6, 10, 4)


def test_trace_self_times_cover_the_op_and_missing_layers_are_named():
    tracer = layertrace.Tracer()
    layers = layertrace.LAYERS + (layertrace.Layer("percolate", "renamed_away"),
                                  layertrace.Layer("moved_away", "generate"))
    net = inputs.desk_network(0)
    tracer.install(layers)
    try:
        # the alias imported into saa is wrapped as well
        assert epictrl.saa.estimate_infections is epictrl.percolate.estimate_infections
        assert hasattr(epictrl.percolate.estimate_infections, "__wrapped__")
        tracer.op = 0
        epictrl.percolate.estimate_infections(net, None, 64, 1)
        tracer.op = None
        epictrl.percolate.estimate_infections(net, None, 64, 1)  # not recorded
    finally:
        tracer.uninstall()
    assert not hasattr(epictrl.percolate.estimate_infections, "__wrapped__")
    assert tracer.missing == ["percolate.renamed_away", "moved_away.generate"]
    names = [s[0] for s in tracer.spans]
    assert names[0] == "percolate.estimate_infections"
    assert {"percolate.sample_keep_matrix", "percolate.component_sizes",
            "percolate.infection_table"} <= set(names)
    root = tracer.spans[0]
    metrics = tracer.layer_metrics([0], layers)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(root[2] - root[1], rel=1e-9)
    assert metrics["percolate.infection_table.masks"] == 1 << net.m
    assert metrics["percolate.sample_keep_matrix.draws"] == 64 * net.m
    assert metrics["sbcc.min_sbcc.calls"] == 0
    assert not any(k.startswith("percolate.renamed_away") for k in metrics)


class DoubleSpeed:
    """A machine-speed reference that always reads half the nominal speed."""

    def scale(self):
        return 2.0


def test_untraced_times_are_scaled_and_wall_kept():
    ops = measure.run_ops(Flaky(0), seconds=0.0, speed=DoubleSpeed())
    assert len(ops.wall) == 2 and ops.plain == [2.0 * w for w in ops.wall]
