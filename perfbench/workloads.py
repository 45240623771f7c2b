"""The four benchmark workloads: inputs, the timed op, its check, its quality.

A workload builds its inputs in ``setup`` and then serves ops from a pool of
``pool_size`` items fixed by the workload seed; op ``k`` runs pool item
``k % pool_size``, in whole passes over the pool. ``op`` is the only timed
call. ``check`` runs after the op is timed and raises :class:`CheckFailed`
on a wrong answer. ``quality`` evaluates the answer with a fixed-seed,
fixed-count estimate (or exactly), so the same pool item always yields the
same numbers.

The program is always reached through module attributes (``sbcc.min_sbcc``
rather than a name imported at load time), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import numpy as np

from epictrl import network, percolate, saa, sbcc

import inputs

# Seed of the benchmark's own infection evaluation, shared by all workloads.
EVAL_SEED = 20220216
EVAL_SAMPLES = 1000


class CheckFailed(AssertionError):
    """The program returned an answer the benchmark rejects."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def estimated_infections(net, intervention) -> float:
    """Expected infections by a fixed-seed, fixed-count Monte Carlo estimate."""
    return percolate.estimate_infections(net, intervention, EVAL_SAMPLES, EVAL_SEED).mean


def scenario_stats(net, num_samples: int, seed: int) -> tuple[float, float]:
    """Share of distinct scenarios and mean source reach as a share of n."""
    rows = percolate.sample_keep_matrix(net, seed, 0, num_samples)
    distinct = len(np.unique(rows, axis=0)) / num_samples
    reach = float(percolate.component_sizes(net, rows).mean()) / net.n
    return distinct, reach


class Workload:
    name = ""
    pool_size = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build every input of the run from the workload seed."""

    def op(self, item: int):
        raise NotImplementedError

    def check(self, item: int, answer) -> None:
        raise NotImplementedError

    def quality(self, item: int, answer) -> tuple[float, float]:
        """(expected infections, cost / budget) of the answer."""
        raise NotImplementedError

    def signature(self, answer):
        """A hashable summary that must repeat when a pool item repeats."""
        raise NotImplementedError

    def input_stats(self, item: int) -> dict[str, float]:
        """Input properties reported by the traced run (none by default)."""
        return {}


class KargerK40(Workload):
    """Cut-sampling solver on K40 at p=0.9 (the settings of criterion 10)."""

    name = "karger-k40"
    pool_size = 8
    BUDGET, GAMMA, LAM, REPS, EVAL = 40.0, 4.0, 0.5, 16, 200

    def setup(self):
        self.net = inputs.complete_network(inputs.K40_N, inputs.K40_P)
        self.seeds = inputs.op_seeds(self.seed, 10, self.pool_size)

    def op(self, item):
        return sbcc.solve_karger(
            self.net, budget=self.BUDGET, p=inputs.K40_P, gamma=self.GAMMA,
            lam=self.LAM, repetitions=self.REPS, eval_samples=self.EVAL,
            seed=self.seeds[item],
        )

    def check(self, item, answer):
        chosen, report = answer
        net = self.net
        for cand in report["candidates"]:
            members = network.component_of(net, network.edge_removal(net, cand["members"])).members
            require(list(members) == cand["component_members"],
                    "candidate component does not reconstruct")
            require(network.boundary_of(net, members) == tuple(cand["members"]),
                    "candidate boundary does not reconstruct")
        picked = report["candidates"][report["chosen_index"]]
        require(list(chosen.members) == picked["members"], "chosen intervention is not the chosen candidate")

    def quality(self, item, answer):
        chosen, _ = answer
        return estimated_infections(self.net, chosen), chosen.cost / self.BUDGET

    def signature(self, answer):
        return answer[0].members


class SaaPowerlaw(Workload):
    """Scenario LP, edge mode, deterministic rounding, on a Chung-Lu graph.

    One graph with a solver seed per op: solve times differ by up to 4x
    between graphs of the family, which would make the tail percentile
    (whose rank depends on the op count) jump between runs.
    """

    name = "saa-powerlaw"
    pool_size = 8
    BUDGET, EPSILON, SAMPLES = 4.0, 0.3, 400

    def setup(self):
        self.net = inputs.powerlaw_network(0)
        self.seeds = inputs.op_seeds(self.seed, 20, self.pool_size)

    def op(self, item):
        return saa.solve_saa(
            self.net, budget=self.BUDGET, epsilon=self.EPSILON,
            rounding="deterministic", mode="edge", seed=self.seeds[item],
            num_samples=self.SAMPLES,
        )

    def check(self, item, answer):
        chosen, report = answer
        require(report["lp_status"] == "optimal", f"LP status {report['lp_status']}")
        require(chosen.cost <= 4.0 * self.net.n ** (2.0 / 3.0) * self.BUDGET,
                f"rounded cost {chosen.cost} above 4 n^(2/3) B")

    def quality(self, item, answer):
        chosen, _ = answer
        return estimated_infections(self.net, chosen), chosen.cost / self.BUDGET

    def signature(self, answer):
        return answer[0].members

    def input_stats(self, item):
        distinct, reach = scenario_stats(self.net, self.SAMPLES, self.seeds[item])
        return {"saa.scenarios_distinct_frac": distinct, "saa.source_reach_frac": reach}


class McSupercritical(Workload):
    """Monte Carlo estimation on a sparse supercritical graph, no solver."""

    name = "mc-supercritical"
    pool_size = 12
    SAMPLES, CHECK_ROWS = 200, 3
    EDGE_BUDGET, NODE_BUDGET = 30, 10

    def setup(self):
        net = inputs.sparse_network()
        g = inputs.stream(self.seed, 30)
        kinds = ("none", "edge", "node")
        self.net = net
        self.interventions = []
        for i in range(self.pool_size):
            kind = kinds[i % len(kinds)]
            if kind == "edge":
                ids = g.choice(net.m, size=self.EDGE_BUDGET, replace=False)
                iv, budget = network.edge_removal(net, ids), self.EDGE_BUDGET
            elif kind == "node":
                ids = 1 + g.choice(net.n - 1, size=self.NODE_BUDGET, replace=False)
                iv, budget = network.node_removal(net, ids), self.NODE_BUDGET
            else:
                iv, budget = None, 1
            self.interventions.append((iv, budget))
        self.seeds = inputs.op_seeds(self.seed, 31, self.pool_size)

    def op(self, item):
        iv, _ = self.interventions[item]
        return percolate.estimate_infections(self.net, iv, self.SAMPLES, self.seeds[item])

    def check(self, item, answer):
        net = self.net
        iv, _ = self.interventions[item]
        require(1.0 <= answer.mean <= net.n, f"mean infections {answer.mean} outside [1, n]")
        require(answer.num_samples == self.SAMPLES, "wrong sample count")
        for j in range(self.CHECK_ROWS):
            index = (item * 7919 + j * 61) % self.SAMPLES
            row = percolate.sample_keep_matrix(net, self.seeds[item], index, 1)
            size = int(percolate.component_sizes(net, row, iv)[0])
            ref = network.component_of(net, iv, edge_mask=row[0]).size
            require(size == ref, f"sample {index}: component size {size}, reference {ref}")

    def quality(self, item, answer):
        iv, budget = self.interventions[item]
        return answer.mean, (iv.cost if iv is not None else 0.0) / budget

    def signature(self, answer):
        return answer.mean, answer.half_width


class DeskOracle(Workload):
    """SAA in both modes against brute force and exact evaluation, m=14."""

    name = "desk-oracle"
    pool_size = 48
    BUDGET, EPSILON, SAMPLES = 2.0, 0.3, 400

    def setup(self):
        self.seeds = inputs.op_seeds(self.seed, 40, self.pool_size)

    def op(self, item):
        seed = self.seeds[item]
        net = inputs.desk_network(item)
        solved = {
            mode: saa.solve_saa(net, budget=self.BUDGET, epsilon=self.EPSILON,
                                rounding="deterministic", mode=mode, seed=seed,
                                num_samples=self.SAMPLES)
            for mode in ("edge", "node")
        }
        samples = saa.draw_samples(net, self.SAMPLES, seed)
        brute = {mode: saa.brute_force_optimum(samples, self.BUDGET, mode=mode)
                 for mode in ("edge", "node")}
        exact = {
            (who, mode): percolate.exact_expected_infections(net, iv).mean
            for who, answers in (("saa", solved), ("brute", brute))
            for mode, (iv, _) in answers.items()
        }
        return {"net": net, "saa": solved, "brute": brute, "exact": exact}

    def check(self, item, answer):
        net = answer["net"]
        for mode in ("edge", "node"):
            lp = answer["saa"][mode][1]["lp_objective"]
            h_hat = answer["brute"][mode][1]
            require(lp + 1.0 <= h_hat + 1e-6,
                    f"{mode}: LP objective + 1 = {lp + 1.0} above brute force {h_hat}")
        for key, value in answer["exact"].items():
            require(1.0 - 1e-9 <= value <= net.n + 1e-9,
                    f"{key}: exact infections {value} outside [1, n]")

    def quality(self, item, answer):
        solved = [iv for iv, _ in answer["saa"].values()]
        infections = [answer["exact"][("saa", mode)] for mode in answer["saa"]]
        return float(np.mean(infections)), float(np.mean([iv.cost for iv in solved])) / self.BUDGET

    def signature(self, answer):
        return tuple(iv.members for iv, _ in answer["saa"].values()) + tuple(answer["exact"].values())

    def input_stats(self, item):
        net = inputs.desk_network(item)
        distinct, reach = scenario_stats(net, self.SAMPLES, self.seeds[item])
        return {"saa.scenarios_distinct_frac": distinct, "saa.source_reach_frac": reach}


WORKLOADS = {w.name: w for w in (KargerK40, SaaPowerlaw, McSupercritical, DeskOracle)}
