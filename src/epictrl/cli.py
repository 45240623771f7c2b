"""Batch experiment runner.

Subcommands generate instances, run each solver, evaluate candidates on
shared Monte Carlo streams, and emit machine-readable JSON/CSV. Result files
are byte-identical for identical config and seed: volatile values (wall
time) go to a separate ``<output>.meta.json`` or stderr, never into the
results payload.

Exit codes: 0 success, 2 validation error (a file that cannot be read or
written among them), 3 solver failure, 4 regime violation under
--strict-regime. Failures also print a machine-parsable ``error_code=``
line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import chunglu, rng, saa, sbcc
from .errors import EpictrlError, ParseError, SolverError, ValidationError
from .network import (
    ContactNetwork,
    edge_removal,
    load_network,
    no_intervention,
    node_removal,
    random_connected_network,
    write_network,
)
from .percolate import Z99, check_eval_samples, estimate_infections, exact_expected_infections

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_REGIME = 4

COMPARE_ALGOS = ("saa-det", "saa-rand", "karger", "brute")


@dataclass
class _Output:
    json_path: str | None
    csv_path: str | None

    def write(self, payload: dict, csv_rows: list[dict] | None = None,
              runtime_ms: float | None = None) -> None:
        payload = {"schema": SCHEMA_VERSION, **payload}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if self.json_path:
            with open(self.json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            if runtime_ms is not None:
                meta = {"runtime_ms": runtime_ms, "written_at": time.time()}
                with open(self.json_path + ".meta.json", "w", encoding="utf-8") as fh:
                    json.dump(meta, fh, indent=2)
                    fh.write("\n")
        else:
            sys.stdout.write(text)
            if runtime_ms is not None:
                print(f"runtime_ms={runtime_ms:.1f}", file=sys.stderr)
        if csv_rows is None:
            return
        if self.csv_path:
            with open(self.csv_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(_csv_text(csv_rows))
        else:
            sys.stdout.write(_csv_text(csv_rows))


def _csv_text(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _read_json_object(path: str) -> dict:
    """A JSON file that must hold one object; anything else is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON ({exc})", path) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", path) from None
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object", path)
    return doc


def _load_model(args) -> chunglu.ChungLuModel:
    if args.model:
        doc = _read_json_object(args.model)
        try:
            n, beta = int(doc["n"]), float(doc["beta"])
            w_min, w_max = int(doc["w_min"]), int(doc["w_max"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"model needs numbers n, beta, w_min and w_max ({exc!r})",
                             args.model) from None
        return chunglu.build_model(n=n, beta=beta, w_min=w_min, w_max=w_max)
    if args.n is None or args.beta is None:
        raise ValidationError("provide --model or all of --n/--beta/--w-min/--w-max")
    return chunglu.build_model(args.n, args.beta, args.w_min, args.w_max)


def _parse_intervention(net: ContactNetwork, args):
    if getattr(args, "remove_edges", None):
        try:
            ids = [int(x) for x in args.remove_edges.split(",") if x]
        except ValueError:
            raise ValidationError(
                f"--remove-edges takes comma-separated edge ids, got {args.remove_edges!r}"
            ) from None
        return edge_removal(net, ids)
    if getattr(args, "remove_nodes", None):
        ids = [net.index_of(x) for x in args.remove_nodes.split(",") if x]
        return node_removal(net, ids)
    return no_intervention()


# ──────────────────────────── subcommands ────────────────────────────


def _cmd_generate(args) -> int:
    model = _load_model(args)
    net = chunglu.generate(model, args.seed).with_uniform_probability(args.p)
    if args.graph_out:
        write_network(net, args.graph_out)
    out = _Output(args.output, None)
    out.write({
        "n": net.n,
        "m": net.m,
        "self_loops": len(net.self_loops),
        "class_sizes": list(model.class_sizes),
        "total_weight": model.total_weight,
        "expected_edges": model.expected_edges,
        "seed": args.seed,
        "p": args.p,
        "graph_file": args.graph_out,
    })
    return EXIT_OK


def _cmd_percolate(args) -> int:
    net = load_network(args.graph)
    removal = _parse_intervention(net, args)
    t0 = time.perf_counter()
    est = estimate_infections(net, removal, args.samples, args.seed)
    payload = {
        "mean": est.mean,
        "half_width": est.half_width,
        "num_samples": est.num_samples,
        "confidence": est.confidence,
        "seed": args.seed,
        "removal_cost": removal.cost,
    }
    if args.exact:
        exact = exact_expected_infections(net, removal)
        payload["exact_mean"] = exact.mean
    _Output(args.output, None).write(payload, runtime_ms=(time.perf_counter() - t0) * 1e3)
    return EXIT_OK


def _cmd_solve_saa(args) -> int:
    net = load_network(args.graph)
    if args.samples is not None:
        print(
            "warning: overriding the scenario count voids the concentration "
            "guarantee (theory wants N from the sample-count formula)",
            file=sys.stderr,
        )
    t0 = time.perf_counter()
    chosen, report = saa.solve_saa(
        net, budget=args.budget, epsilon=args.epsilon, gamma=args.gamma,
        rounding=args.rounding, mode=args.mode, seed=args.seed,
        num_samples=args.samples, eval_samples=args.eval_samples,
    )
    runtime = (time.perf_counter() - t0) * 1e3
    report["members"] = [net.label_of(v) for v in chosen.members] if args.mode == "node" \
        else list(chosen.members)
    _Output(args.output, None).write(report, runtime_ms=runtime)
    return EXIT_OK


def _cmd_solve_karger(args) -> int:
    net = load_network(args.graph)
    p = args.p if args.p is not None else net.uniform_probability()
    if args.p is not None:
        net = net.with_uniform_probability(p)
    t0 = time.perf_counter()
    chosen, report = sbcc.solve_karger(
        net, budget=args.budget, p=p, gamma=args.gamma, lam=args.lam,
        repetitions=args.reps, eval_samples=args.eval_samples,
        seed=args.seed, d=args.d,
    )
    runtime = (time.perf_counter() - t0) * 1e3
    report["members"] = list(chosen.members)
    _Output(args.output, None).write(report, runtime_ms=runtime)
    if args.strict_regime and not report["in_regime"]:
        print("error_code=out_of_regime cut-sampling regime check failed",
              file=sys.stderr)
        return EXIT_REGIME
    return EXIT_OK


def _cmd_count_paths(args) -> int:
    model = _load_model(args)
    census = chunglu.estimate_percolated_paths(
        model, p=args.p, trials=args.trials, k_max=args.kmax, seed=args.seed
    )
    rows = []
    for k in range(1, census.k_max + 1):
        rows.append({
            "k": k,
            "count_or_mean": census.counts[k - 1],
            "half_width": census.half_widths[k - 1] if census.half_widths is not None else 0.0,
        })
    payload = {
        "mode": census.mode,
        "trials": census.trials,
        "p": args.p,
        "total": census.total,
        "total_half_width": census.total_half_width,
        "census": rows,
    }
    if args.ceiling_poly:
        try:
            coeff, degree = (float(x) for x in args.ceiling_poly.split(","))
            if not (math.isfinite(coeff) and math.isfinite(degree)):
                raise ValueError
        except ValueError:
            raise ValidationError(
                f"--ceiling-poly takes C,D (two finite numbers), got {args.ceiling_poly!r}"
            ) from None
        try:
            payload["percolation_ceiling"] = chunglu.estimate_percolation_ceiling(
                model, k_max=args.kmax, trials=max(args.trials // 10, 1),
                seed=args.seed, poly_coefficient=coeff, poly_degree=degree,
            )
        except ValidationError as err:
            raise ValidationError(f"--ceiling-poly {args.ceiling_poly!r}: {err}") from None
    _Output(args.output, args.csv).write(payload, csv_rows=rows)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.kmax < 1:
        raise ValidationError(f"--kmax must be at least 1, got {args.kmax}")
    model = _load_model(args)
    decay = model.decay_exponent
    rows = []
    for k in range(1, args.kmax + 1):
        row = {
            "k": k,
            "expected_path_bound": chunglu.expected_path_count_bound(model, k),
            "allocation_recurrence": chunglu.allocation_sum_recurrence(
                model.w_max, k, decay, model.w_min),
        }
        row["allocation_bound"] = (
            chunglu.allocation_sum_bound(model.w_max, k, decay, model.w_min)
            if decay > 1.0 else ""
        )
        rows.append(row)
    _Output(args.output, args.csv).write(
        {"decay_exponent": decay, "poly_path_regime": model.poly_path_regime,
         "table": rows}, csv_rows=rows)
    return EXIT_OK


def _cmd_compare(args) -> int:
    net = load_network(args.graph)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos or not set(algos) <= set(COMPARE_ALGOS):
        raise ValidationError(f"--algos takes a non-empty comma list from "
                              f"{','.join(COMPARE_ALGOS)}, got {args.algos!r}")
    check_eval_samples(args.eval_samples)  # before any algorithm runs
    eval_seed = rng.derived_seed(args.seed, "compare")
    rows = []
    for algo in algos:
        t0 = time.perf_counter()
        if algo in ("saa-det", "saa-rand"):
            rounding = "deterministic" if algo == "saa-det" else "randomized"
            chosen, _ = saa.solve_saa(
                net, budget=args.budget, epsilon=args.epsilon, gamma=args.gamma,
                rounding=rounding, mode="edge", seed=args.seed,
                num_samples=args.samples, eval_samples=1,
            )
        elif algo == "karger":
            p = net.uniform_probability()
            chosen, _ = sbcc.solve_karger(
                net, budget=args.budget, p=p, gamma=max(args.gamma, 2.5),
                lam=args.lam, eval_samples=args.eval_samples, seed=args.seed,
            )
        else:  # brute
            sample_set = saa.draw_samples(net, args.samples, args.seed)
            chosen, _ = saa.brute_force_optimum(sample_set, args.budget)
        est = estimate_infections(net, chosen, args.eval_samples, eval_seed)
        rows.append({
            "algo": algo,
            "cost": chosen.cost,
            "budget": args.budget,
            "cost_ratio": chosen.cost / args.budget if args.budget else math.inf,
            "mc_mean": est.mean,
            "mc_half_width": est.half_width,
            "runtime_ms": round((time.perf_counter() - t0) * 1e3, 3),
        })
    stable = [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]
    _Output(args.output, args.csv).write(
        {"rows": stable, "eval_samples": args.eval_samples, "seed": args.seed},
        csv_rows=stable)
    for row in rows:
        print(f"runtime_ms[{row['algo']}]={row['runtime_ms']}", file=sys.stderr)
    return EXIT_OK


def _oracle_percolation(g, instances):
    checks = []
    for i in range(instances):
        net = random_connected_network(g)
        exact = exact_expected_infections(net, None)
        est = estimate_infections(net, None, 20000, int(g.integers(0, 2 ** 31)))
        sigma = est.half_width / Z99
        ok = abs(est.mean - exact.mean) <= 4.0 * max(sigma, 1e-12)
        checks.append({"instance": i, "n": net.n, "m": net.m,
                       "exact": exact.mean, "mc": est.mean, "pass": bool(ok)})
    return checks


def _oracle_lp(g, instances):
    checks = []
    for i in range(instances):
        net = random_connected_network(g)
        budget = float(max(1, int(g.integers(1, 4))))
        samples = saa.draw_samples(net, 30, seed=int(g.integers(0, 2 ** 31)))
        frac = saa.solve_lp(saa.build_lp(samples, budget))
        _, h_hat = saa.brute_force_optimum(samples, budget)
        ok = frac.objective + 1.0 <= h_hat + 1e-6
        checks.append({"instance": i, "n": net.n, "m": net.m,
                       "lp_plus_one": frac.objective + 1.0,
                       "brute_force": h_hat, "pass": bool(ok)})
    return checks


def _oracle_sbcc(g, instances):
    checks = []
    for i in range(instances):
        net = random_connected_network(g, p_mode=1.0)
        budget = float(int(g.integers(1, 4)))
        lam = float(g.choice([0.25, 0.5, 0.75]))
        sol = sbcc.min_sbcc(net, budget=budget, lam=lam)
        _, exact = sbcc.min_sbcc_exact(net, budget)
        ok = (sol.component_size <= math.ceil(exact / (1.0 - lam))
              and sol.cut_size <= budget / lam)
        checks.append({"instance": i, "n": net.n, "m": net.m,
                       "budget": budget, "lambda": lam,
                       "component": sol.component_size, "exact": exact,
                       "pass": bool(ok)})
    return checks


def _cmd_oracle(args) -> int:
    if args.instances < 1:
        raise ValidationError(f"--instances must be at least 1, got {args.instances}")
    suites = {"percolation": _oracle_percolation, "lp": _oracle_lp,
              "sbcc": _oracle_sbcc}
    names = list(suites) if args.suite == "all" else [args.suite]
    results = {}
    passed = total = 0
    for name in names:
        checks = suites[name](np.random.default_rng(args.seed), args.instances)
        results[name] = checks
        passed += sum(1 for c in checks if c["pass"])
        total += len(checks)
    payload = {"suites": results, "passed": passed, "total": total}
    _Output(args.output, None).write(payload)
    return EXIT_OK if passed == total else EXIT_SOLVER


# ──────────────────────────── parser ────────────────────────────


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="JSON file with {n, beta, w_min, w_max}")
    p.add_argument("--n", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--w-min", type=int, default=1)
    p.add_argument("--w-max", type=int, default=2)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config; explicit flags take precedence")
    p.add_argument("--output", help="write the results JSON here (deterministic)")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epictrl",
        description="Budgeted epidemic-control interventions on contact networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a power-law random instance")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--p", type=float, default=1.0, help="uniform transmission probability")
    p.add_argument("--graph-out", help="write the edge list here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("percolate", help="estimate expected infections")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--remove-edges", help="comma-separated edge ids")
    p.add_argument("--remove-nodes", help="comma-separated vertex labels")
    p.add_argument("--exact", action="store_true", help="also run the exhaustive oracle")
    p.set_defaults(func=_cmd_percolate)

    for name, mode in (("solve-saa", "edge"), ("solve-node", "node")):
        p = sub.add_parser(name, help=f"{name}: scenario-LP solver with rounding")
        _add_common(p)
        p.add_argument("--graph", required=True)
        p.add_argument("--budget", type=float, required=True)
        p.add_argument("--epsilon", type=float, default=0.3)
        p.add_argument("--gamma", type=float, default=2.0)
        p.add_argument("--rounding", choices=["randomized", "deterministic"],
                       default="randomized")
        p.add_argument("--samples", type=int,
                       help="override the scenario count (voids guarantees)")
        p.add_argument("--eval-samples", type=int, default=1000)
        p.set_defaults(func=_cmd_solve_saa, mode=mode)

    p = sub.add_parser("solve-karger", help="cut-sampling solver (unit costs, uniform p)")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--p", type=float, help="uniform probability (default: read from the graph)")
    p.add_argument("--gamma", type=float, default=4.0)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--reps", type=int)
    p.add_argument("--eval-samples", type=int, default=500)
    p.add_argument("--d", type=float, default=1.0, help="concentration exponent")
    p.add_argument("--strict-regime", action="store_true",
                   help="exit 4 when the regime check fails")
    p.set_defaults(func=_cmd_solve_karger)

    p = sub.add_parser("count-paths", help="simple-path census on generated graphs")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--csv", help="write the census CSV here (default: stdout)")
    p.add_argument("--ceiling-poly", help="C,D: sweep the largest p with paths <= C*n^D")
    p.set_defaults(func=_cmd_count_paths)

    p = sub.add_parser("bounds", help="path-count bound and allocation-sum tables")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--csv", help="write the table CSV here (default: stdout)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("compare", help="run several algorithms on shared evaluation samples")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--algos", default="saa-det,saa-rand,brute",
                   help=f"comma list from {','.join(COMPARE_ALGOS)}")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--eval-samples", type=int, default=2000)
    p.add_argument("--csv", help="write rows CSV here (default: stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle", help="brute-force validation battery")
    _add_common(p)
    p.add_argument("--suite", choices=["percolation", "lp", "sbcc", "all"], default="all")
    p.add_argument("--instances", type=int, default=5)
    p.set_defaults(func=_cmd_oracle)

    return parser


def _config_value(action: argparse.Action, value):
    """``value`` as the command line would give it to ``action``'s flag: a
    switch takes a JSON boolean, any other flag a string or a number,
    converted by its ``type`` and checked against its ``choices``."""
    bad = ValidationError(f"config {action.option_strings[0]}: invalid value {value!r}")
    if (action.nargs == 0) != isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise bad
    if action.nargs == 0:
        return value
    try:
        value = (action.type or str)(str(value))
    except (TypeError, ValueError):
        raise bad from None
    if action.choices is not None and value not in action.choices:
        raise bad
    return value


def _set_config_defaults(parser: argparse.ArgumentParser, command: str, config: dict) -> None:
    """Make ``config``'s values the defaults of ``command``'s flags.

    Keys are flag names, spelled with ``-`` or ``_``; a key that names none
    of the subcommand's flags is ignored, so one file can serve several
    subcommands. Each value goes through :func:`_config_value`. Flags given
    on the command line still win.
    """
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    sub = subparsers.choices[command]
    actions = {opt.lstrip("-").replace("-", "_"): a
               for a in sub._actions for opt in a.option_strings}
    config = {key.replace("-", "_"): value for key, value in config.items()}
    sub.set_defaults(**{actions[key].dest: _config_value(actions[key], value)
                        for key, value in config.items() if key in actions})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _set_config_defaults(parser, args.command, _read_json_object(args.config))
            args = parser.parse_args(argv)
        rng.check_seed(args.seed, "--seed")  # every subcommand takes one
        return args.func(args)
    except ValidationError as exc:
        print(f"error_code=validation {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error_code=solver {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except EpictrlError as exc:
        print(f"error_code=internal {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # a missing, unreadable or unwritable file
        print(f"error_code=validation {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
