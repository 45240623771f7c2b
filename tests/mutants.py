"""Mutation ledger: deliberate faults that named tests must catch.

Each entry of ``MUTANTS`` is one mutant: a file (relative to the
repository root), a text that occurs in it exactly once, the text that
replaces it, and the ids of the tests that must fail with the mutant in
place. Each mutant changes a sample or a stopping decision, so it changes
what the program does, not only how it says it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

For each mutant the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a fresh temporary directory, applies the mutant
there, and runs only its tests, with ``src/`` of the copy first on the
path. A mutant is killed when every test it names fails (for a
parametrized test, at least one of its cases). Before any mutant, every
test that the chosen mutants name runs once on an unmutated copy; if one
fails there, it would count as a kill for every mutant that names it, so
the runner prints ``BROKEN <test id>`` for each and exits 1. Otherwise it
prints one line per mutant and exits 1 if any mutant survives or if its
old text does not occur exactly once, so an entry cannot quietly stop
matching the code. Each pytest run has ``TIMEOUT_S`` seconds: a run that
takes longer, such as one whose mutant never lets a loop stop, is killed
with every process it started, prints ``TIMEOUT <name>`` and counts as
not killed. It starts one pytest process per mutant, plus one, and is not
part of the Tier-1 suite.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run; a whole unmutated run takes well under a minute


class Timeout(Exception):
    """A pytest run took longer than ``TIMEOUT_S`` and was killed."""


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...]


SBCC = "src/epictrl/sbcc.py"
SKIP_RULE = "if cut_b <= limit or cut_a > limit:"
PARAMETRIC = "tests/test_sbcc.py::test_min_sbcc_many_matches_parametric_oracle"
COUNTERS = "tests/test_sbcc.py::test_karger_counters_and_one_score_per_distinct_candidate"
KERNEL = "tests/test_percolate.py::test_component_kernel_matches_union_find"
KERNEL_WORDS = "tests/test_network.py::test_component_kernel_matches_union_find_across_words"
STREAMS = "tests/test_percolate.py::test_streams_are_those_of_philox_keyed_by_philox_key"

MUTANTS = [
    # the sweep's skip rule: a pair of known sides is skipped when the smaller
    # one qualifies or the larger one does not. Skipping also when the larger
    # one cuts exactly the limit changes no answer (a nested side between
    # them cuts more, and the C = 0 side is a candidate from the start); it
    # drops probes, which only the lockstep test checks
    Mutant("skip-larger-at-limit", SBCC, SKIP_RULE,
           "if cut_b <= limit or cut_a >= limit:", (PARAMETRIC,)),
    Mutant("skip-smaller-below-limit", SBCC, SKIP_RULE,
           "if cut_b < limit or cut_a > limit:", (PARAMETRIC,)),
    Mutant("skip-without-smaller", SBCC, SKIP_RULE, "if cut_a > limit:",
           ("tests/test_golden.py::test_result_corpus_repeats_byte_for_byte", PARAMETRIC)),
    Mutant("skip-without-larger", SBCC, SKIP_RULE, "if cut_b <= limit:", (PARAMETRIC,)),
    # a row whose {s} cuts exactly the limit is answered at the top
    Mutant("top-below-limit", SBCC, "if degree <= limit:", "if degree < limit:",
           ("tests/test_sbcc.py::test_sbcc_star_contract",
            "tests/test_sbcc.py::test_min_sbcc_matches_parametric_oracle",
            "tests/test_sbcc.py::test_min_sbcc_many_matches_one_at_a_time",
            PARAMETRIC, COUNTERS)),
    # the isolation test must see the source as either endpoint
    Mutant("isolation-first-endpoint", "src/epictrl/percolate.py",
           "keep[(network.us == s) != (network.vs == s)]", "keep[network.us == s]",
           ("tests/test_percolate.py::test_component_kernel_matches_union_find",
            "tests/test_percolate.py::test_component_sizes_restricted_to_source_component")),
    # equal components share a barrier; components of equal size need not
    Mutant("boundary-memo-by-size", SBCC,
           "    barriers = {comp: boundary_of(network, comp)\n"
           "                for comp in dict.fromkeys(sol.component for sol in solutions)}\n"
           "    members_per_candidate = [barriers[sol.component] for sol in solutions]",
           "    barriers = {len(comp): boundary_of(network, comp)\n"
           "                for comp in dict.fromkeys(sol.component for sol in solutions)}\n"
           "    members_per_candidate = [barriers[len(sol.component)] for sol in solutions]",
           (COUNTERS,)),
    Mutant("chosen-first-removal", SBCC,
           "chosen = removals[members_per_candidate[chosen_index]]",
           "chosen = next(iter(removals.values()))", (COUNTERS,)),
    # NaN passes a check written as `costs < 0`
    Mutant("nan-cost-accepted", "src/epictrl/network.py",
           "wrong = ~(costs >= 0.0)", "wrong = costs < 0.0",
           ("tests/test_network.py::test_nan_probability_or_cost_is_rejected",)),
    Mutant("compare-checks-eval-samples-late", "src/epictrl/cli.py",
           "    check_eval_samples(args.eval_samples)  # before any algorithm runs\n", "",
           ("tests/test_cli.py::test_eval_samples_below_one_fails_before_any_draw",)),
    # scipy.sparse (and with it the rest of scipy's graph stack) loads on the
    # first max flow or LP, never on import
    Mutant("sparse-at-import", "src/epictrl/network.py",
           "import numpy as np\n\nfrom .errors",
           "import numpy as np\nfrom scipy import sparse\n\nfrom .errors",
           ("tests/test_saa.py::test_import_leaves_the_lp_solver_unloaded",
            "tests/test_cli.py::test_scipy_loads_only_for_a_max_flow_or_an_lp")),
    # the cut keys' bound checked one bit too loosely
    Mutant("cut-key-bound-one-bit-loose", "src/epictrl/saa.py",
           ">= 1 << 63:", ">= 1 << 64:",
           ("tests/test_saa.py::test_cut_keys_beyond_int64_fail_before_the_first_round",)),
    # the {s} rows read the source's arcs in (tail, head) order, not by edge id
    Mutant("top-slice-unsorted", SBCC,
           "at_s = np.sort(arc_edges[starts[s]:starts[s + 1]])",
           "at_s = arc_edges[starts[s]:starts[s + 1]]",
           ("tests/test_sbcc.py::test_min_sbcc_matches_parametric_oracle", PARAMETRIC)),
    # from 64 rows up a kernel block is the most whole words within its
    # bytes, rounded down
    Mutant("kernel-rows-round-up", "src/epictrl/network.py",
           "rows if rows < 64 else rows // 64 * 64",
           "rows if rows < 64 else -(-rows // 64) * 64",
           ("tests/test_percolate.py::test_kernel_blocks_are_whole_words",
            "tests/test_percolate.py::test_estimate_memory_does_not_grow_with_samples")),
    # the flow stacks have a budget of their own, larger than the kernel's
    Mutant("flow-stacks-at-kernel-budget", "src/epictrl/network.py",
           "ends[start] + FLOW_CELLS", "ends[start] + CELLS",
           ("tests/test_network.py::test_flow_stacks_have_their_own_cell_budget",)),
    # a block's uniform chunks read on along one stream
    Mutant("chunk-restarts-stream", "src/epictrl/percolate.py",
           "draws = stream.random(out=uniforms[:len(out)])",
           "draws = rng.sample_stream(seed, start_index, network.m).random("
           "out=uniforms[:len(out)])",
           ("tests/test_percolate.py::test_sample_reproducible_and_batch_invariant",)),
    # sample j of m edges starts at stream position j m, one position a
    # double, not at Philox's 4-draw counter steps
    Mutant("stream-advance-in-philox-blocks", "src/epictrl/rng.py",
           "bitgen.advance(start_index * m)", "bitgen.advance(start_index * m // 4)",
           (STREAMS, "tests/test_percolate.py::test_sample_stream_positions_are_stable",
            "tests/test_percolate.py::test_keep_matrix_is_one_reference_draw_in_any_chunks")),
    # a purpose path names its own sample stream
    Mutant("stream-ignores-path", "src/epictrl/rng.py",
           "PCG64DXSM(_seed_sequence(seed, *path))", "PCG64DXSM(_seed_sequence(seed))",
           (STREAMS, "tests/test_percolate.py::test_sample_stream_positions_are_stable")),
    Mutant("seed-check-removed", "src/epictrl/rng.py", "    if seed < 0:\n", "    if False:\n",
           ("tests/test_cli.py::test_negative_seed_exits_2_before_any_work",
            "tests/test_percolate.py::test_negative_seed_is_a_validation_error")),
    # a flow copy's source degree, which sets the int32 guard and the
    # super-source arc, counts the copy's own arcs, not the whole network's
    Mutant("flow-degree-of-whole-network", "src/epictrl/network.py",
           "int(np.searchsorted(arcs, hi) - np.searchsorted(arcs, lo))", "int(hi - lo)",
           ("tests/test_sbcc.py::test_sbcc_source_degree_overflow_guard",)),
    # the C = 0 side, the source's component, is a candidate of the sweep
    Mutant("sweep-drops-zero-side", SBCC,
           "work = [(record(0, zero), top)]", "work = [((0, 0, zero), top)]",
           ("tests/test_sbcc.py::test_sbcc_zero_budget_returns_whole_component",
            "tests/test_sbcc.py::test_min_sbcc_matches_parametric_oracle", PARAMETRIC)),
    # the regime check flows only to non-neighbours of the min-degree vertex
    Mutant("connectivity-targets-keep-neighbours", "src/epictrl/network.py",
           "    outside[heads[starts[v]:starts[v + 1]]] = False\n", "",
           ("tests/test_network.py::test_min_cut_flows_to_non_neighbours_of_min_degree_vertex",)),
    # a pull round ORs in a neighbour's lanes only where the edge is kept
    Mutant("pull-ignores-kept", "src/epictrl/network.py", "            got &= kept\n", "",
           (KERNEL, KERNEL_WORDS)),
    # each lane word pulls over its own copy's arcs, not word 0's
    Mutant("pull-segments-of-word-zero", "src/epictrl/network.py",
           "(run_starts + a * copy).reshape(-1)", "np.tile(run_starts, words)",
           (KERNEL, KERNEL_WORDS)),
]


def failing_tests(mutant: Mutant | None, tests: tuple[str, ...]) -> list[str] | None:
    """Ids of ``tests`` that fail on a copy of the tree with ``mutant`` applied
    (with none, the tree as it is), or None when its old text does not occur
    exactly once. Raises :class:`Timeout` once the run has taken
    ``TIMEOUT_S`` seconds, after killing its process group."""
    with tempfile.TemporaryDirectory(prefix="epictrl-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            target = copy / mutant.file
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return None
            target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        # a session of its own, so that a timeout kills the processes that
        # the tests start as well
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
             "-rfE", "--hypothesis-seed=0", *tests],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise Timeout from None
    return re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", stdout, re.MULTILINE)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    try:
        broken = failing_tests(None, tuple(dict.fromkeys(t for m in chosen for t in m.kills)))
    except Timeout:
        print(f"TIMEOUT unmutated: no result within {TIMEOUT_S} s")
        return 1
    for test in broken:
        print(f"BROKEN {test}")
    if broken:
        return 1
    bad = 0
    for mutant in chosen:
        try:
            failed = failing_tests(mutant, mutant.kills)
        except Timeout:
            bad += 1
            print(f"TIMEOUT {mutant.name}: no result within {TIMEOUT_S} s")
            continue
        if failed is None:
            bad += 1
            print(f"UNMATCHED {mutant.name}: old text does not occur exactly once "
                  f"in {mutant.file}")
            continue
        alive = [t for t in mutant.kills
                 if not any(f == t or f.startswith(t + "[") for f in failed)]
        bad += bool(alive)
        print(f"{'SURVIVED' if alive else 'killed'} {mutant.name}"
              + (f": not failed: {', '.join(alive)}" if alive else ""))
    print(f"{bad} of {len(chosen)} mutants not killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
