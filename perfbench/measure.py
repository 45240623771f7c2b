"""Benchmark process for one workload: set up, run timed ops, check, report.

Started by ``run.py`` with the thread caps set and ``src`` on the path;
takes the same arguments. Prints a few ``#`` lines and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_ROUNDS = 3
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
SETUP_LAYERS = ("chunglu.generate",)  # layers reached only while setting up
INPUT_STATS = ("saa.scenarios_distinct_frac", "saa.source_reach_frac")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND ops beyond it: (value, pct, beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class SpeedReference:
    """Machine speed, from a fixed interpreter-plus-numpy kernel.

    A shared machine drifts in speed by tens of percent over minutes, far
    more slowly than one op lasts, and that drift swamps run-to-run
    comparisons. The kernel is timed just before each op and set-up round;
    ``scale()`` is the factor that turns the wall seconds that follow into
    seconds at the nominal speed (the kernel's time on the machine the
    benchmark was tuned on), using the median of the last few timings.
    """

    NOMINAL_S = 0.004
    REPEATS, WINDOW = 3, 5

    def __init__(self):
        import numpy as np

        self._x = np.random.default_rng(0).random(50_000)
        self._recent = deque(maxlen=self.WINDOW)

    def _kernel(self) -> float:
        import numpy as np

        t = time.perf_counter()
        acc, table = 0, {}
        for i in range(20_000):
            acc += i * i
            table[i & 255] = acc
        np.sort(self._x)
        np.cumsum(self._x * self._x)
        return time.perf_counter() - t

    def scale(self) -> float:
        self._recent.append(statistics.median(self._kernel() for _ in range(self.REPEATS)))
        return self.NOMINAL_S / statistics.median(self._recent)


def set_up(cls, seed: int, tracer=None, speed=None):
    """Build the workload SETUP_ROUNDS times, each with one untimed warm-up op.

    Returns the last workload and the seconds each round took, scaled to
    the nominal speed when ``speed`` is given. Set-up spans carry op ids
    -1, -2, ... so the trace can tell them from ops.
    """
    times = []
    for r in range(SETUP_ROUNDS):
        scale = speed.scale() if speed else 1.0
        t = time.perf_counter()
        wl = cls(seed)
        if tracer:
            tracer.op = -1 - r
        try:
            wl.setup()
        finally:
            if tracer:
                tracer.op = None
        wl.op(0)
        times.append((time.perf_counter() - t) * scale)
    return wl, times


@dataclass
class OpStats:
    attempted: int = 0
    failed: int = 0
    plain: list[float] = field(default_factory=list)  # untraced op seconds, scaled
    wall: list[float] = field(default_factory=list)  # the same, unscaled
    traced: list[float] = field(default_factory=list)
    traced_ids: list[int] = field(default_factory=list)
    quality: dict[int, tuple[float, float]] = field(default_factory=dict)
    inputs: list[dict] = field(default_factory=list)


def run_ops(wl, seconds: float, tracer=None, speed=None) -> OpStats:
    """Timed ops in whole passes over the pool, each checked after timing.

    Whole passes give every pool item the same weight in the medians and
    make quality repeat exactly. With a tracer, each item's traced op is
    paired with an untraced one, alternating which goes first. An op that
    raises, fails its check, or answers differently when its item repeats
    counts as failed. With ``speed``, untraced op times are also kept
    scaled to the nominal speed.
    """
    import workloads

    out = OpStats()
    seen = {}
    pool = wl.pool_size
    pass_len = pool * (2 if tracer else 1)
    start = time.perf_counter()
    while (out.attempted < pass_len or out.attempted % pass_len
           or time.perf_counter() - start < seconds):
        k = out.attempted
        out.attempted += 1
        if tracer:
            item, is_traced = (k // 2) % pool, k % 2 == (k // 2) % 2
        else:
            item, is_traced = k % pool, False
        try:
            scale = speed.scale() if speed else 1.0
            if is_traced:
                tracer.op = k
            try:
                t = time.perf_counter()
                answer = wl.op(item)
                dt = time.perf_counter() - t
            finally:
                if tracer:
                    tracer.op = None
            wl.check(item, answer)
            sig = wl.signature(answer)
            if item in seen:
                workloads.require(seen[item] == sig, f"pool item {item} gave a different answer")
            else:
                seen[item] = sig
                out.quality[item] = wl.quality(item, answer)
                if tracer:
                    out.inputs.append(wl.input_stats(item))
        except Exception:  # an op or its check failed: count it and go on
            out.failed += 1
            print(f"# op {k} (item {item}) failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        if is_traced:
            out.traced.append(dt)
            out.traced_ids.append(k)
        else:
            out.plain.append(dt * scale)
            out.wall.append(dt)
    return out


def end_to_end(ops: OpStats, setup_s: float) -> dict[str, tuple[float, str]]:
    value, pct, beyond = tail(ops.plain)
    print(f"# op_s_tail is p{pct:.1f} of {len(ops.plain)} ops ({beyond} beyond); "
          f"ops_failed_frac={ops.failed / ops.attempted:.4f}; unscaled wall "
          f"op_s_p50={statistics.median(ops.wall):.4f} op_s_tail={tail(ops.wall)[0]:.4f}")
    infections, cost_ratio = zip(*ops.quality.values())
    return {
        "op_s_p50": (statistics.median(ops.plain), "s"),
        "op_s_tail": (value, "s"),
        "ops_per_s": (len(ops.plain) / sum(ops.plain), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_frac": ((ops.attempted - ops.failed) / ops.attempted, "frac"),
        "infections_mean": (statistics.fmean(infections), "count"),
        "cost_ratio_mean": (statistics.fmean(cost_ratio), "ratio"),
    }


def per_layer(ops: OpStats, tracer) -> dict[str, tuple[float, str]]:
    import layertrace

    op_layers = [la for la in layertrace.LAYERS if la.name not in SETUP_LAYERS]
    set_layers = [la for la in layertrace.LAYERS if la.name in SETUP_LAYERS]
    layer = tracer.layer_metrics(ops.traced_ids, op_layers)
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    layer.update(tracer.layer_metrics([-1 - r for r in range(SETUP_ROUNDS)], set_layers))
    for key in INPUT_STATS:
        values = [s[key] for s in ops.inputs if key in s]
        layer[key] = statistics.fmean(values) if values else 0.0
    layer["trace_overhead_frac"] = statistics.median(ops.traced) / statistics.median(ops.plain) - 1.0
    layer["trace_self_sum_frac"] = self_sum / statistics.fmean(ops.traced)
    return {k: (v, unit_of(k)) for k, v in layer.items()}


def unit_of(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[-1]
    if suffix.endswith("_per_s"):
        return "1/s"
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_frac"):
        return "frac"
    return "count"


def run(args) -> dict:
    import numpy
    import scipy

    import workloads

    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    print(f"# env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"workload={args.workload} seed={args.seed} trace={args.trace}")

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        if tracer.missing:
            print(f"# missing layers: {', '.join(tracer.missing)}")

    # Untraced runs report times at the nominal machine speed; the traced
    # run's layer times are plain wall seconds.
    speed = None if tracer else SpeedReference()
    import_s = import_s * speed.scale() if speed else import_s
    wl, setup_times = set_up(workloads.WORKLOADS[args.workload], args.seed, tracer, speed)
    ops = run_ops(wl, args.seconds, tracer, speed)
    if not ops.plain or (tracer and not ops.traced):
        raise SystemExit("no op succeeded")
    if tracer:
        metrics = per_layer(ops, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        tracer.uninstall()
    else:
        metrics = end_to_end(ops, import_s + statistics.median(setup_times))
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    print(json.dumps(run(parse(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
