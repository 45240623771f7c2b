"""Regenerate the result corpus in ``tests/golden/``.

The corpus pins what fixed-seed runs of the program write, byte for byte:

- ``det.tsv``: the 6-vertex graph of acceptance criterion 12;
- ``<name>.json``: the result file of each run in ``commands`` (the four
  of criterion 12, plus ``solve-saa --rounding deterministic``,
  ``solve-node``, ``compare`` and ``percolate --exact``, with and without
  ``--remove-edges``, on the same graph, ``generate`` and the LP suite of
  ``oracle``). Wall times go to ``<output>.meta.json``, which the corpus
  leaves out. The runs start in the output directory, so ``generate``
  writes ``generated.tsv`` there and records that relative name;
- ``percolate_generated*.json`` and ``karger_generated.json``: Monte Carlo
  runs on ``generated.tsv``, whose 35 edges put them on the component
  kernel (``det.tsv`` has 9, so its runs read the 2^m mask table):
  ``percolate`` with and without a removal that cuts the source's
  component, and ``solve-karger``;
- ``ladder.tsv`` and ``percolate_ladder*.json``: a 2 x 30 ladder at p = 0.95
  (88 edges, source at one end), whose percolated components are long and
  thin, so the component kernel searches them to a large depth; 1000
  samples, with and without a removal that cuts the ladder in two;
- ``paths.csv``, ``bounds.csv`` and ``compare.csv``: the CSV files that
  ``count-paths``, ``bounds`` and ``compare`` write beside their JSON;
- ``desk_lps.txt``: one line per desk-sized instance (n 7-9, m <= 14,
  N = 400, B = 2) and mode, with the deterministic rounding's members, the
  cut rounds, the LP objective and the SAA's ``empirical_infections``, then
  ``brute_force_optimum``'s members and objective on the same samples; the
  floats as ``float.hex``.

``tests/test_golden.py`` regenerates the corpus and compares it with the
checked-in files. After an intended change of output, re-pin with

    PYTHONPATH=src python tests/regen_golden.py

and list every field that moved, and why, in CHANGES.md. Before that,

    PYTHONPATH=src python tests/regen_golden.py --diff

prints, per corpus file, each JSON field or text line (of the graphs, the
CSV files and ``desk_lps.txt``) that the current code would change
(old -> new), and writes nothing. It exits 1 when
anything differs and 0 otherwise, so it also serves as a check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from epictrl import brute_force_optimum, draw_samples, solve_saa
from epictrl.cli import main as cli_main
from epictrl.network import ContactNetwork, random_connected_network, write_network

GOLDEN = Path(__file__).resolve().parent / "golden"
DESK_SEED, DESK_INSTANCES, DESK_SAMPLES, DESK_BUDGET = 1717, 8, 400, 2.0
GENERATED = "generated.tsv"  # generate's --graph-out, relative to the output directory
LADDER = "ladder.tsv"  # written into the output directory before the runs
LADDER_LENGTH, LADDER_P = 30, 0.95


def commands(graph: str) -> dict[str, list[str]]:
    """The corpus's CLI runs, by output name, on the graph file ``graph``."""
    saa = ["--graph", graph, "--budget", "2", "--epsilon", "0.4", "--gamma", "2",
           "--seed", "13", "--samples", "50", "--eval-samples", "200"]
    return {
        "saa": ["solve-saa", "--rounding", "randomized", *saa],
        "saa_det": ["solve-saa", "--rounding", "deterministic", *saa],
        "node": ["solve-node", "--rounding", "deterministic", *saa],
        "karger": ["solve-karger", "--graph", graph, "--budget", "2", "--seed", "13",
                   "--reps", "4", "--eval-samples", "100"],
        "paths": ["count-paths", "--n", "9", "--beta", "2.5", "--w-min", "1", "--w-max", "2",
                  "--kmax", "4", "--trials", "200", "--p", "0.5", "--seed", "13",
                  "--csv", "paths.csv"],
        "bounds": ["bounds", "--n", "20", "--beta", "3.5", "--w-min", "1", "--w-max", "3",
                   "--kmax", "5", "--csv", "bounds.csv"],
        "compare": ["compare", "--algos", "saa-det,saa-rand,brute", *saa,
                    "--csv", "compare.csv"],
        "oracle": ["oracle", "--suite", "lp", "--instances", "3", "--seed", "13"],
        "percolate": ["percolate", "--graph", graph, "--samples", "500", "--seed", "13",
                      "--exact"],
        "percolate_removed": ["percolate", "--graph", graph, "--samples", "500", "--seed",
                              "13", "--exact", "--remove-edges", "0,4"],
        "generate": ["generate", "--n", "40", "--beta", "2.5", "--w-min", "1", "--w-max", "4",
                     "--p", "0.5", "--seed", "13", "--graph-out", GENERATED],
        # generate has written its graph by now; m = 35 > MASK_TABLE_CAP, so
        # these runs size their samples with the component kernel
        "percolate_generated": ["percolate", "--graph", GENERATED, "--samples", "3000",
                                "--seed", "13"],
        # edges 10 and 16 join the source to two of its neighbours' branches,
        # so the rows are sized on the source's component of the rest
        "percolate_generated_removed": ["percolate", "--graph", GENERATED, "--samples",
                                        "3000", "--seed", "13", "--remove-edges", "10,16"],
        # gamma B p = 0.625 keeps each sample's cut to its components, so the
        # 6 repetitions give 4 distinct candidates
        "karger_generated": ["solve-karger", "--graph", GENERATED, "--budget", "0.5",
                             "--gamma", "2.5", "--seed", "13", "--reps", "6",
                             "--eval-samples", "500"],
        # 1000 samples fill 15 words of 64 and part of a 16th
        "percolate_ladder": ["percolate", "--graph", LADDER, "--samples", "1000", "--seed",
                             "13"],
        # both rails between columns 19 and 20: the source keeps 20 columns
        "percolate_ladder_removed": ["percolate", "--graph", LADDER, "--samples", "1000",
                                     "--seed", "13", "--remove-edges", "19,48"],
    }


def ladder_network(length: int, p: float) -> ContactNetwork:
    """Two paths of ``length`` vertices joined rung by rung, source 0.

    Edge i < length - 1 joins i and i + 1 on the first rail, edge
    length - 1 + i joins length + i and length + i + 1 on the second, and
    the last ``length`` edges are the rungs (i, length + i).
    """
    rails = [(i, i + 1) for i in range(length - 1)]
    edges = (rails + [(length + u, length + v) for u, v in rails]
             + [(i, length + i) for i in range(length)])
    us, vs = np.array(edges, dtype=np.int64).T
    return ContactNetwork(n=2 * length, us=us, vs=vs, costs=np.ones(len(edges)),
                          probs=np.full(len(edges), p), source=0)


def desk_lines() -> list[str]:
    """One line per desk instance and mode: the SAA's members, rounds,
    objective and empirical infections, then the brute-force optimum."""
    rng = np.random.default_rng(DESK_SEED)
    lines = []
    for i in range(DESK_INSTANCES):
        net = random_connected_network(rng, n_lo=7, n_hi=9, max_m=14, p_mode="random")
        samples = draw_samples(net, DESK_SAMPLES, DESK_SEED + i)
        for mode in ("edge", "node"):
            _, report = solve_saa(net, budget=DESK_BUDGET, epsilon=0.3,
                                  rounding="deterministic", mode=mode, seed=DESK_SEED + i,
                                  num_samples=DESK_SAMPLES, eval_samples=10)
            best, h_hat = brute_force_optimum(samples, DESK_BUDGET, mode=mode)
            lines.append(f"{i} {mode} members={report['members']} "
                         f"rounds={report['lp_cut_rounds']} "
                         f"objective={float(report['lp_objective']).hex()} "
                         f"empirical={float(report['empirical_infections']).hex()} "
                         f"brute={list(best.members)} h_hat={float(h_hat).hex()}")
    return lines


@contextlib.contextmanager
def _working_directory(path):
    """Run the block in ``path`` (``contextlib.chdir`` needs Python 3.11)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def write_corpus(directory: Path) -> None:
    """Write every corpus file into ``directory``."""
    directory = directory.resolve()
    directory.mkdir(parents=True, exist_ok=True)
    graph = directory / "det.tsv"
    net = random_connected_network(np.random.default_rng(3), n_lo=6, n_hi=6, max_m=9,
                                   p_mode=0.5)
    write_network(net, graph)
    with tempfile.TemporaryDirectory() as work, _working_directory(work):
        write_network(ladder_network(LADDER_LENGTH, LADDER_P), LADDER)
        for name, argv in commands(str(graph)).items():
            out = Path(work) / f"{name}.json"
            # compare prints its rows and wall times; keep them off the console
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                code = cli_main([*argv, "--output", str(out)])
            if code != 0:
                raise RuntimeError(f"{name}: command failed\n{printed.getvalue()}")
            (directory / out.name).write_bytes(out.read_bytes())
        for path in [Path(work) / GENERATED, Path(work) / LADDER, *Path(work).glob("*.csv")]:
            (directory / path.name).write_bytes(path.read_bytes())
    (directory / "desk_lps.txt").write_text("\n".join(desk_lines()) + "\n")


def _fields(value, path=""):
    """(path, value) of every leaf of a JSON value, as ``a.b[2].c``."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _fields(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(value)


def _entries(path: Path) -> dict[str, str]:
    """A corpus file as {field: value}: JSON leaves, or numbered lines."""
    if not path.exists():
        return {}
    if path.suffix == ".json":
        return dict(_fields(json.loads(path.read_text())))
    return {f"line {i}": line for i, line in enumerate(path.read_text().splitlines(), 1)}


def corpus_diff(old: Path, new: Path) -> list[str]:
    """Per corpus file, each field or line that differs from ``old`` to
    ``new``, as ``file: field: old -> new``; absent ones read ``(absent)``."""
    out = []
    for name in sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}):
        before, after = _entries(old / name), _entries(new / name)
        for key in [*before, *(k for k in after if k not in before)]:
            a, b = before.get(key, "(absent)"), after.get(key, "(absent)")
            if a != b:
                out.append(f"{name}: {key}: {a} -> {b}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Regenerate the result corpus in tests/golden/.")
    ap.add_argument("--diff", action="store_true",
                    help="print what would change against the checked-in corpus; write nothing")
    args = ap.parse_args(argv)
    if not args.diff:
        write_corpus(GOLDEN)
        print(f"wrote {GOLDEN}", file=sys.stderr)
        return 0
    with tempfile.TemporaryDirectory() as work:
        write_corpus(Path(work))
        changes = corpus_diff(GOLDEN, Path(work))
    print("\n".join(changes) if changes else "no field or line differs")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
