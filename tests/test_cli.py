import inspect
import json
from unittest import mock

import pytest

from epictrl import load_network, saa, sbcc
from epictrl import rng as rng_module
from epictrl import network as network_module
from epictrl.cli import build_parser, main

from conftest import complete_network, kernel_cells, make_network, scipy_loaded_by
from regen_golden import GOLDEN, commands
from epictrl.network import write_network


def write_graph(tmp_path, net, name="g.tsv"):
    p = tmp_path / name
    write_network(net, p)
    return str(p)


def path_graph_file(tmp_path, p=0.5):
    net = make_network(3, [(0, 1), (1, 2)], probs=p)
    return write_graph(tmp_path, net)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_generate_writes_loadable_graph(tmp_path):
    graph = tmp_path / "gen.tsv"
    out = tmp_path / "gen.json"
    rc = main([
        "generate", "--n", "30", "--beta", "2.5", "--w-min", "1", "--w-max", "3",
        "--p", "0.4", "--seed", "3",
        "--graph-out", str(graph), "--output", str(out),
    ])
    assert rc == 0
    payload = read_json(out)
    assert payload["schema"] == 1
    net = load_network(graph)
    assert net.n == 30  # isolated vertices survive via anchor loops
    real_edges = [e for e in range(net.m) if e not in net.self_loops]
    assert all(net.probs[e] == 0.4 for e in real_edges)
    assert payload["m"] == net.m - sum(
        1 for e in net.self_loops if net.probs[e] == 0.0
    )


def test_percolate_with_exact(tmp_path):
    g = path_graph_file(tmp_path)
    out = tmp_path / "perc.json"
    rc = main(["percolate", "--graph", g, "--samples", "20000", "--seed", "1",
               "--exact", "--output", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["exact_mean"] == pytest.approx(1.75)
    assert abs(payload["mean"] - 1.75) <= 2 * payload["half_width"]


def test_percolate_remove_edges(tmp_path):
    g = path_graph_file(tmp_path)
    out = tmp_path / "perc.json"
    rc = main(["percolate", "--graph", g, "--samples", "50", "--seed", "1",
               "--remove-edges", "0,1", "--exact", "--output", str(out)])
    assert rc == 0
    assert read_json(out)["exact_mean"] == 1.0


def test_solve_saa_deterministic_output(tmp_path):
    g = path_graph_file(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["solve-saa", "--graph", g, "--budget", "1", "--epsilon", "0.4",
            "--gamma", "2", "--rounding", "deterministic", "--seed", "7",
            "--samples", "40", "--eval-samples", "100"]
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = read_json(out_a)
    assert payload["schema"] == 1
    assert "runtime_ms" not in payload  # lives in the meta side file
    meta = read_json(str(out_a) + ".meta.json")
    assert "runtime_ms" in meta


def test_solve_node_runs(tmp_path):
    g = path_graph_file(tmp_path)
    out = tmp_path / "node.json"
    rc = main(["solve-node", "--graph", g, "--budget", "1",
               "--epsilon", "0.4", "--rounding", "deterministic",
               "--seed", "2", "--samples", "30", "--eval-samples", "50",
               "--output", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["mode"] == "node"
    assert "0" not in payload["members"]  # source label never chosen


def test_solve_karger_and_strict_regime(tmp_path):
    g = path_graph_file(tmp_path, p=0.5)
    out = tmp_path / "k.json"
    rc = main(["solve-karger", "--graph", g, "--budget", "1", "--seed", "1",
               "--reps", "2", "--eval-samples", "20", "--output", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["in_regime"] is False
    rc = main(["solve-karger", "--graph", g, "--budget", "1", "--seed", "1",
               "--reps", "2", "--eval-samples", "20", "--strict-regime",
               "--output", str(out)])
    assert rc == 4


def test_readme_generate_then_solve_karger(tmp_path):
    # the graph file anchors isolated vertices with probability-0 self-loops
    graph = tmp_path / "g.tsv"
    rc = main(["generate", "--n", "60", "--beta", "3.5", "--w-min", "1", "--w-max", "3",
               "--p", "0.4", "--seed", "7", "--graph-out", str(graph),
               "--output", str(tmp_path / "gen.json")])
    assert rc == 0
    net = load_network(graph)
    assert any(net.probs[e] == 0.0 for e in net.self_loops)
    out = tmp_path / "k.json"
    rc = main(["solve-karger", "--graph", str(graph), "--budget", "5", "--gamma", "4",
               "--lam", "0.5", "--seed", "7", "--output", str(out)])
    assert rc == 0
    assert read_json(out)["candidates"]


def test_count_paths_csv(tmp_path):
    out_csv = tmp_path / "census.csv"
    rc = main(["count-paths", "--n", "8", "--beta", "2.5", "--w-min", "1",
               "--w-max", "2", "--kmax", "3", "--trials", "50", "--p", "0.5",
               "--seed", "4", "--csv", str(out_csv),
               "--output", str(tmp_path / "census.json")])
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "k,count_or_mean,half_width"
    assert len(lines) == 4


def test_bounds_table(tmp_path):
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--n", "20", "--beta", "3.5", "--w-min", "1",
               "--w-max", "2", "--kmax", "4", "--output", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["poly_path_regime"] is True
    assert len(payload["table"]) == 4


def test_compare_shared_eval(tmp_path):
    g = path_graph_file(tmp_path)
    out = tmp_path / "cmp.json"
    csv_path = tmp_path / "cmp.csv"
    rc = main(["compare", "--graph", g, "--budget", "1",
               "--algos", "saa-det,brute", "--seed", "5",
               "--samples", "30", "--eval-samples", "200",
               "--output", str(out), "--csv", str(csv_path)])
    assert rc == 0
    rows = read_json(out)["rows"]
    assert [r["algo"] for r in rows] == ["saa-det", "brute"]
    assert csv_path.read_text().startswith("algo,")


def test_compare_labels_its_scenarios_once(tmp_path, monkeypatch):
    """compare's saa-det, saa-rand and brute rows share one drawn sample
    set: its scenarios are labelled in one draw's blocks, forced here to
    20, 20 and 10 of the 50, and the results are the corpus's compare.json
    and compare.csv."""
    graph = GOLDEN / "det.tsv"
    monkeypatch.chdir(tmp_path)  # the corpus's compare writes compare.csv here
    argv = commands(str(graph))["compare"]
    assert argv[argv.index("--algos") + 1] == "saa-det,saa-rand,brute"
    assert argv[argv.index("--samples") + 1] == "50"
    net = load_network(graph)
    monkeypatch.setattr(network_module, "CELLS", kernel_cells(net, 20))
    blocks, label = [], saa.source_component_members
    monkeypatch.setattr(saa, "source_component_members",
                        lambda network, keep: blocks.append(len(keep)) or label(network, keep))
    out = tmp_path / "compare.json"
    assert main([*argv, "--output", str(out)]) == 0
    assert blocks == [20, 20, 10]
    assert out.read_bytes() == (GOLDEN / "compare.json").read_bytes()
    assert (tmp_path / "compare.csv").read_bytes() == (GOLDEN / "compare.csv").read_bytes()


def test_oracle_single_suite(tmp_path):
    out = tmp_path / "oracle.json"
    rc = main(["oracle", "--suite", "percolation", "--instances", "3",
               "--seed", "9", "--output", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["passed"] == payload["total"] == 3


def test_oracle_all_suites(tmp_path):
    out = tmp_path / "oracle_all.json"
    rc = main(["oracle", "--instances", "2", "--seed", "4", "--output", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert set(payload["suites"]) == {"percolation", "lp", "sbcc"}
    assert payload["passed"] == payload["total"] == 6


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("@source a\na b 1.0 1.7\n")
    rc = main(["percolate", "--graph", str(bad), "--samples", "10"])
    assert rc == 2


def test_missing_file_exit_code(tmp_path):
    rc = main(["percolate", "--graph", str(tmp_path / "nope.tsv")])
    assert rc == 2


def malformed_argv(tmp_path, case):
    graph = path_graph_file(tmp_path)
    if case == "remove-edges":
        return ["percolate", "--graph", graph, "--remove-edges", "x"]
    if case == "ceiling-poly":
        return ["count-paths", "--n", "8", "--beta", "2.5", "--trials", "5",
                "--ceiling-poly", "1", "--output", str(tmp_path / "c.json")]
    if case == "kmax-zero":
        return ["count-paths", "--n", "8", "--beta", "2.5", "--trials", "5", "--kmax", "0"]
    if case == "model-without-beta":
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"n": 10, "w_min": 1, "w_max": 2}))
        return ["bounds", "--model", str(model)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{samples: 25")
    return ["percolate", "--graph", graph, "--config", str(cfg)]


@pytest.mark.parametrize("case", ["remove-edges", "ceiling-poly", "kmax-zero",
                                  "model-without-beta", "config-not-json"])
def test_malformed_flag_or_file_exit_code(tmp_path, capsys, case):
    assert main(malformed_argv(tmp_path, case)) == 2
    assert "error_code=validation" in capsys.readouterr().err


# case: (argv, with GRAPH for a path graph's file; the start of its message)
BAD_FLAGS = {
    "saa-gamma-nan": ("solve-saa --graph GRAPH --budget 1 --gamma nan",
                      "gamma must be a finite number above 1"),
    "saa-gamma-inf": ("solve-saa --graph GRAPH --budget 1 --gamma inf",
                      "gamma must be a finite number above 1"),
    "saa-det-gamma-nan": ("solve-saa --graph GRAPH --budget 1 --gamma nan "
                          "--rounding deterministic", "gamma must be a finite number above 1"),
    "saa-det-gamma-inf": ("solve-saa --graph GRAPH --budget 1 --gamma inf "
                          "--rounding deterministic", "gamma must be a finite number above 1"),
    "node-det-gamma-1": ("solve-node --graph GRAPH --budget 1 --gamma 1 "
                         "--rounding deterministic", "gamma must be a finite number above 1"),
    "karger-gamma-nan": ("solve-karger --graph GRAPH --budget 1 --gamma nan",
                         "gamma must be a finite number above 2"),
    "karger-gamma-inf": ("solve-karger --graph GRAPH --budget 1 --gamma inf",
                         "gamma must be a finite number above 2"),
    "karger-d-nan": ("solve-karger --graph GRAPH --budget 1 --d nan",
                     "d must be a finite number above 0"),
    "karger-d-inf": ("solve-karger --graph GRAPH --budget 1 --d inf",
                     "d must be a finite number above 0"),
    "karger-reps-0": ("solve-karger --graph GRAPH --budget 1 --reps 0",
                      "repetitions must be at least 1"),
    "karger-reps-negative": ("solve-karger --graph GRAPH --budget 1 --reps -3",
                             "repetitions must be at least 1"),
    "generate-beta-nan": ("generate --n 8 --beta nan", "power-law exponent beta"),
    "generate-beta-inf": ("generate --n 8 --beta inf --w-min 2", "power-law exponent beta"),
    "bounds-beta-nan": ("bounds --n 8 --beta nan", "power-law exponent beta"),
    "bounds-beta-inf": ("bounds --n 8 --beta inf --w-min 2", "power-law exponent beta"),
    "bounds-kmax-0": ("bounds --n 8 --beta 2.5 --kmax 0", "--kmax must be at least 1"),
    "bounds-kmax-negative": ("bounds --n 8 --beta 2.5 --kmax -2", "--kmax must be at least 1"),
    "ceiling-poly-nan": ("count-paths --n 8 --beta 2.5 --trials 5 --ceiling-poly nan,1",
                         "--ceiling-poly takes C,D (two finite numbers)"),
    # n^D past float range, then C n^D past it with n^D within
    "ceiling-poly-power": ("count-paths --n 8 --beta 2.5 --trials 5 --ceiling-poly 1,400",
                           "--ceiling-poly '1,400': C*n^D must be a finite float"),
    "ceiling-poly-product": ("count-paths --n 8 --beta 2.5 --trials 5 --ceiling-poly 1e300,30",
                             "--ceiling-poly '1e300,30': C*n^D must be a finite float"),
}


def bad_value_argv(tmp_path, case):
    graph = path_graph_file(tmp_path)
    if case in BAD_FLAGS:
        return [graph if word == "GRAPH" else word for word in BAD_FLAGS[case][0].split()]
    if case == "config-choice":
        cfg = write_config(tmp_path, {"suite": "bogus"})
        return ["oracle", "--config", cfg]
    if case == "config-type":
        cfg = write_config(tmp_path, {"samples": 2.5})
        return ["percolate", "--graph", graph, "--config", cfg]
    if case == "config-switch":
        cfg = write_config(tmp_path, {"exact": "yes"})
        return ["percolate", "--graph", graph, "--config", cfg]
    if case == "instances":
        return ["oracle", "--instances", "-1"]
    command, budget = case.split()
    return [command, "--graph", graph, "--budget", budget]


@pytest.mark.parametrize("case", ["config-choice", "config-type", "config-switch", "instances"]
                         + [f"{command} {budget}"
                            for command in ("solve-saa", "solve-node", "solve-karger", "compare")
                            for budget in ("nan", "inf", "-1")]
                         + list(BAD_FLAGS))
def test_bad_value_exits_2_and_writes_nothing(tmp_path, capsys, case):
    out = tmp_path / "out.json"
    assert main([*bad_value_argv(tmp_path, case), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error_code=")] \
        == [err.strip()]
    assert err.startswith("error_code=validation") and "Traceback" not in err
    if " " in case:
        assert "budget must be finite and nonnegative" in err
    if case in BAD_FLAGS:
        assert f"error_code=validation {BAD_FLAGS[case][1]}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "solve-saa --graph GRAPH --budget 1 --samples 5 --eval-samples 0",
    "solve-karger --graph GRAPH --budget 1 --eval-samples 0",
    "compare --graph GRAPH --budget 1 --samples 5 --eval-samples 0",
], ids=["solve-saa", "solve-karger", "compare"])
def test_eval_samples_below_one_fails_before_any_draw(tmp_path, capsys, argv):
    graph = path_graph_file(tmp_path)
    draws = mock.Mock(side_effect=rng_module.sample_stream)
    with mock.patch.object(rng_module, "sample_stream", draws):
        assert main([graph if word == "GRAPH" else word for word in argv.split()]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error_code=")] \
        == ["error_code=validation eval_samples must be at least 1, got 0"]
    assert draws.call_count == 0


NEGATIVE_SEED = {
    "generate": "generate --n 8 --beta 2.5 --seed -1",
    "percolate": "percolate --graph GRAPH --samples 10 --seed -1",
    "solve-saa": "solve-saa --graph GRAPH --budget 1 --samples 5 --seed -1",
    "solve-node": "solve-node --graph GRAPH --budget 1 --samples 5 --seed -1",
    "solve-karger": "solve-karger --graph GRAPH --budget 1 --seed -1",
    "count-paths": "count-paths --n 8 --beta 2.5 --trials 5 --seed -1",
    "bounds": "bounds --n 8 --beta 2.5 --seed -1",
    "compare": "compare --graph GRAPH --budget 1 --samples 5 --seed -1",
    "oracle": "oracle --instances 1 --seed -1",
    "config": "percolate --graph GRAPH --samples 10 --config CONFIG",
}


@pytest.mark.parametrize("case", list(NEGATIVE_SEED))
def test_negative_seed_exits_2_before_any_work(tmp_path, capsys, case):
    words = {"GRAPH": path_graph_file(tmp_path),
             "CONFIG": write_config(tmp_path, {"seed": -1})}
    argv = [words.get(word, word) for word in NEGATIVE_SEED[case].split()]
    out = tmp_path / "out.json"
    streams = mock.Mock(side_effect=rng_module._seed_sequence)
    with mock.patch.object(rng_module, "_seed_sequence", streams), \
         mock.patch.object(sbcc, "sparsification_regime") as regime:
        assert main([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error_code=")] \
        == [err.strip()] == ["error_code=validation --seed must be a nonnegative integer, got -1"]
    assert streams.call_count == regime.call_count == 0
    assert not out.exists()


@pytest.mark.parametrize("algos", [",", "", "karger,foo", "brute,,saa"])
def test_compare_rejects_an_empty_or_unknown_algos_before_any_algorithm(
        tmp_path, capsys, algos):
    graph = path_graph_file(tmp_path)
    out = tmp_path / "out.json"
    streams = mock.Mock(side_effect=rng_module._seed_sequence)
    with mock.patch.object(rng_module, "_seed_sequence", streams), \
         mock.patch.object(sbcc, "solve_karger") as karger:
        assert main(["compare", "--graph", graph, "--budget", "1", "--samples", "5",
                     "--algos", algos, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error_code=")] == [
        f"error_code=validation --algos takes a non-empty comma list from "
        f"saa-det,saa-rand,karger,brute, got {algos!r}"]
    assert streams.call_count == karger.call_count == 0
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    g = path_graph_file(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.4, "samples": 25, "seed": 11}))
    out = tmp_path / "cfg_run.json"
    rc = main(["solve-saa", "--graph", g, "--budget", "1",
               "--config", str(cfg), "--rounding", "deterministic",
               "--epsilon", "0.5", "--eval-samples", "40",
               "--output", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["epsilon"] == 0.5   # flag wins
    assert payload["n_samples"] == 25  # config fills the gap
    assert payload["seed"] == 11


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_config_sets_flags_with_parser_defaults(tmp_path):
    """A config reaches flags whose parser default is not None: w_min and
    w_max (defaults 1 and 2) build the same model as the flags do."""
    cfg = write_config(tmp_path, {"n": 40, "beta": 2.5, "w_min": 1, "w_max": 4, "seed": 13})
    by_config, by_flags = tmp_path / "cfg_gen.json", tmp_path / "flag_gen.json"
    assert main(["generate", "--config", cfg, "--output", str(by_config)]) == 0
    assert main(["generate", "--n", "40", "--beta", "2.5", "--w-min", "1", "--w-max", "4",
                 "--seed", "13", "--output", str(by_flags)]) == 0
    assert read_json(by_config)["class_sizes"] == [31, 6, 2, 1]
    assert by_config.read_bytes() == by_flags.read_bytes()


def test_config_sets_store_true_flags(tmp_path):
    g = path_graph_file(tmp_path)
    out = tmp_path / "perc.json"
    cfg = write_config(tmp_path, {"exact": True, "samples": 50})
    assert main(["percolate", "--graph", g, "--config", cfg, "--output", str(out)]) == 0
    assert read_json(out)["exact_mean"] == pytest.approx(1.75)
    cfg = write_config(tmp_path, {"strict-regime": True, "reps": 2, "eval-samples": 20},
                       name="karger.json")
    assert main(["solve-karger", "--graph", g, "--budget", "1", "--seed", "1",
                 "--config", cfg, "--output", str(tmp_path / "k.json")]) == 4


@pytest.mark.parametrize("key", ["eval-samples", "eval_samples"])
def test_config_keys_take_dash_or_underscore(tmp_path, key):
    g = path_graph_file(tmp_path)
    cfg = write_config(tmp_path, {key: 300, "lambda": 0.25})
    out = tmp_path / "cmp.json"
    assert main(["compare", "--graph", g, "--budget", "1", "--algos", "brute",
                 "--samples", "30", "--config", cfg, "--output", str(out)]) == 0
    assert read_json(out)["eval_samples"] == 300
    out = tmp_path / "k.json"
    assert main(["solve-karger", "--graph", g, "--budget", "1", "--reps", "2",
                 "--config", cfg, "--output", str(out)]) == 0
    assert read_json(out)["lambda"] == 0.25  # --lambda is --lam's other name


def test_config_ignores_keys_that_name_no_flag(tmp_path):
    """Keys of other subcommands, unknown keys and the subcommand's own
    non-flag settings (its mode) leave the run as the flags alone make it."""
    g = path_graph_file(tmp_path)
    argv = ["solve-saa", "--graph", g, "--budget", "1", "--epsilon", "0.4",
            "--rounding", "deterministic", "--samples", "30", "--eval-samples", "50"]
    cfg = write_config(tmp_path, {"mode": "node", "kmax": 3, "graph_out": "x.tsv",
                                  "no_such_flag": 1})
    plain, configured = tmp_path / "plain.json", tmp_path / "configured.json"
    assert main([*argv, "--output", str(plain)]) == 0
    assert main([*argv, "--config", cfg, "--output", str(configured)]) == 0
    assert read_json(configured)["mode"] == "edge"
    assert configured.read_bytes() == plain.read_bytes()
    assert not (tmp_path / "x.tsv").exists()


@pytest.mark.parametrize("command, solver, names", [
    ("solve-saa", saa.solve_saa, ("gamma", "rounding", "seed", "eval_samples")),
    ("solve-node", saa.solve_saa, ("gamma", "rounding", "seed", "eval_samples")),
    ("solve-karger", sbcc.solve_karger, ("gamma", "lam", "seed", "eval_samples", "d")),
])
def test_cli_defaults_equal_library_defaults(command, solver, names):
    parsed = vars(build_parser().parse_args([command, "--graph", "g.tsv", "--budget", "1"]))
    params = inspect.signature(solver).parameters
    assert {k: parsed[k] for k in names} == {k: params[k].default for k in names}


@pytest.mark.parametrize("command", ["count-paths", "bounds"])
def test_csv_goes_to_stdout_without_csv_flag(tmp_path, capsys, command):
    trials = ["--trials", "20"] if command == "count-paths" else []
    argv = [command, "--n", "8", "--beta", "2.5", "--kmax", "3", *trials]
    assert main([*argv, "--output", str(tmp_path / "a.json")]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("k,")
    csv_path = tmp_path / "a.csv"
    assert main([*argv, "--output", str(tmp_path / "b.json"), "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out == ""
    assert csv_path.read_bytes().decode() == printed


# the scipy modules the package imports itself, each on its first use
DIRECT_SCIPY = ("scipy.sparse", "scipy.sparse.csgraph", "scipy.optimize")


@pytest.mark.parametrize("run, loads", [
    ("percolate_generated", ()),
    ("karger-k40", ()),
    ("karger_generated", ("scipy.sparse", "scipy.sparse.csgraph")),
    ("saa_det", DIRECT_SCIPY),
])
def test_scipy_loads_only_for_a_max_flow_or_an_lp(tmp_path, run, loads):
    """Monte Carlo and a Karger run without a max flow (K40, where every {s}
    is within budget/lambda and the regime check needs no flow) load none
    of scipy's sparse-graph, linear-algebra, special-function or
    optimization modules; a Karger run that makes a max flow loads
    scipy.sparse and its csgraph, and the SAA also scipy.optimize. Each
    runs the CLI in a fresh interpreter, the corpus's runs in
    ``tests/golden`` beside its ``generated.tsv``."""
    if run == "karger-k40":
        argv = ["solve-karger", "--graph", write_graph(tmp_path, complete_network(40, p=0.9)),
                "--budget", "40", "--gamma", "4", "--lam", "0.5", "--reps", "16",
                "--eval-samples", "200", "--seed", "1"]
    else:
        argv = commands(str(GOLDEN / "det.tsv"))[run]
    out = tmp_path / "out.json"
    code = f"from epictrl.cli import main\nassert main({[*argv, '--output', str(out)]!r}) == 0"
    loaded = scipy_loaded_by(code, cwd=GOLDEN)
    if run.startswith("karger"):
        report = read_json(out)
        assert (report["flow_calls"] + report["regime_flow_calls"] > 0) == bool(loads)
    if loads:
        assert tuple(m for m in DIRECT_SCIPY if m in loaded) == loads
    else:
        assert loaded == []
