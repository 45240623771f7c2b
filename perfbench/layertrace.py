"""Outside-in layer trace: timing wrappers on the program's public functions.

The wrappers are installed only in the traced run. Each one replaces the
module-level name that callers look up (for example ``epictrl.sbcc.min_sbcc``
and every other ``epictrl`` module attribute bound to the same function),
so calls between modules are seen as well. A span records name, start, end,
parent span and op id; spans stay in memory and are written out at the end.
A layer's self time is its span's duration minus the durations of its
direct child spans.

A layer whose function no longer exists is reported as missing; nothing
else changes, and the untraced run never touches this module.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(args, kwargs, result):
    return {"rows": np.shape(_arg(args, kwargs, 1, "keep_rows"))[0]}


def _draws(args, kwargs, result):
    return {"draws": _arg(args, kwargs, 3, "count") * _arg(args, kwargs, 0, "network").m}


def _masks_built(args, kwargs):
    # The table is cached on the network; only a build enumerates masks.
    net = _arg(args, kwargs, 0, "network")
    return {"masks": 0 if "_infection_table" in net.__dict__ else 1 << net.m}


def _within_budget(args, kwargs, result):
    return {"within_budget": int(result.within_budget)}


def _lp_size(args, kwargs, result):
    a = result.a_ub
    return {"lp_rows": a.shape[0], "lp_cols": a.shape[1], "lp_nnz": a.nnz}


def _subsets(args, kwargs, result):
    samples = _arg(args, kwargs, 0, "samples")
    budget = _arg(args, kwargs, 1, "budget")
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "edge")
    net = samples.network
    if mode == "edge":
        cands = np.isfinite(net.costs) & (net.us != net.vs) & (net.costs <= budget)
    else:
        costs = kwargs.get("node_costs")
        costs = np.ones(net.n) if costs is None else np.asarray(costs, dtype=float)
        cands = costs <= budget
        cands[net.source] = False
    return {"subsets": 1 << int(cands.sum())}


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    before: Callable[..., dict] | None = None  # counts taken before the call
    after: Callable[..., dict] | None = None  # counts taken from the result
    counters: tuple[str, ...] = ()  # per-op counters reported as metrics

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("sbcc", "solve_karger"),
    Layer("sbcc", "min_sbcc", after=_within_budget),
    Layer("network", "sparsification_regime"),
    Layer("network", "component_of"),
    Layer("network", "boundary_of"),
    Layer("percolate", "estimate_infections"),
    Layer("percolate", "component_sizes", after=_rows, counters=("rows",)),
    Layer("percolate", "sample_keep_matrix", after=_draws, counters=("draws",)),
    Layer("percolate", "infection_table", before=_masks_built, counters=("masks",)),
    Layer("percolate", "exact_expected_infections"),
    Layer("saa", "solve_saa"),
    Layer("saa", "draw_samples"),
    Layer("saa", "build_lp", after=_lp_size, counters=("lp_rows", "lp_cols", "lp_nnz")),
    Layer("saa", "solve_lp"),
    Layer("saa", "round_deterministic"),
    Layer("saa", "empirical_infections"),
    Layer("saa", "brute_force_optimum", after=_subsets, counters=("subsets",)),
    Layer("chunglu", "generate"),
)

# Layer metrics derived from per-run totals: (numerator, denominator).
DERIVED = {
    "sbcc.min_sbcc.within_budget_frac": ("sbcc.min_sbcc.within_budget", "sbcc.min_sbcc.calls"),
    "percolate.component_sizes.rows_per_s": ("percolate.component_sizes.rows",
                                             "percolate.component_sizes.self_s"),
}


class Tracer:
    """Span recorder. Spans are recorded only while ``op`` is set."""

    def __init__(self):
        self.op: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, layers=LAYERS) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "epictrl" or name.startswith("epictrl."))]
        for layer in layers:
            try:
                home = importlib.import_module(f"epictrl.{layer.module}")
            except ModuleNotFoundError:
                home = None
            original = getattr(home, layer.function, None)
            if not callable(original):
                self.missing.append(layer.name)
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, layer: Layer, original):
        name = layer.name

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return original(*args, **kwargs)
            if layer.before is not None:
                self._count(op, name, layer.before(args, kwargs))
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._count(op, name, {"calls": 1})
            if layer.after is not None:
                self._count(op, name, layer.after(args, kwargs, result))
            return result

        traced.__wrapped__ = original
        return traced

    def _count(self, op: int, name: str, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[(op, f"{name}.{key}")] += value

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self seconds per (op, layer): duration minus direct children."""
        out: dict[tuple[int, str], float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            out[(op, name)] += end - start
            if parent >= 0:
                out[(op, self.spans[parent][0])] -= end - start
        return out

    def layer_metrics(self, ops: list[int], layers=LAYERS) -> dict[str, float]:
        """Per-op means over ``ops`` of each layer's calls, self time and counts.

        Every counter of every present layer is reported, as 0 when the
        layer was not reached; layers listed in ``missing`` are left out.
        """
        wanted = set(ops)
        total: dict[str, float] = defaultdict(float)
        for (op, name), value in self.self_times().items():
            if op in wanted:
                total[f"{name}.self_s"] += value
        for (op, key), value in self.counts.items():
            if op in wanted:
                total[key] += value
        present = [layer for layer in layers if layer.name not in self.missing]
        out: dict[str, float] = {}
        for layer in present:
            for counter in ("calls", "self_s") + layer.counters:
                key = f"{layer.name}.{counter}"
                out[key] = total[key] / len(ops)
        names = {layer.name for layer in present}
        for key, (num, den) in DERIVED.items():
            if key.rsplit(".", 1)[0] in names:
                out[key] = total[num] / total[den] if total[den] else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "missing": self.missing}, fh)
