"""Command-line front end.

Exit codes: 0 success, 1 usage error (bad flags, unknown subcommand, missing
files), 2 data error (malformed or inconsistent file content).

Every output artifact is written atomically (temp file + rename) and gets a
``<name>.manifest.json`` sidecar recording the subcommand, resolved
arguments, input digests, and the package version.  Manifests carry no
timestamps: re-running a subcommand with the same arguments reproduces every
output byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from . import solver as solver_mod
from .analysis import classify, nonwinner_stats
from .builder import FIRST_CLAUSE_RULES, BuilderConfig, build_graph
from .cnf import DimacsError, generate_random, parse_dimacs, serialize_dimacs
from .experiments import (
    BenchConfig,
    SweepConfig,
    bench_report_to_csv,
    benchmark,
    sweep,
    sweep_records_to_csv,
)
from .graph import MODES, export_dot, graph_from_json, graph_to_json, particle_spectrum
from .seeding import TAG_ORDER, derive_seed


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_input(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read input file {path!r}: {exc}") from None


def _stage(path: str, text: str) -> str:
    """Write ``text`` to a temporary file beside ``path``; return its name."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write to {path!r}: is a directory")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.")
    except OSError as exc:
        raise UsageError(f"cannot write to {path!r}: {exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        os.unlink(tmp)
        raise UsageError(f"cannot write to {path!r}: {exc}") from None
    return tmp


def _manifest_text(subcommand: str, args: argparse.Namespace, inputs: dict, outputs: list) -> str:
    arguments = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler",) and not callable(value)
    }
    payload = {
        "subcommand": subcommand,
        "version": __version__,
        "arguments": arguments,
        "inputs": inputs,
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(subcommand: str, args: argparse.Namespace, inputs: dict, artifacts: dict):
    """Write artifacts ({path: text}) plus a manifest per artifact.

    Every file is first written to a temporary file; they are renamed into
    place only once all of them have been written, so a failed write leaves
    none of them behind.
    """
    manifest = _manifest_text(subcommand, args, inputs, list(artifacts))
    files = {}
    for path, text in artifacts.items():
        files[path] = text
        files[path + ".manifest.json"] = manifest
    staged: dict[str, str] = {}
    try:
        for path, text in files.items():
            staged[path] = _stage(path, text)
        for path in files:
            try:
                os.replace(staged[path], path)
            except OSError as exc:
                raise UsageError(f"cannot write to {path!r}: {exc}") from None
            del staged[path]
    finally:
        for tmp in staged.values():
            os.unlink(tmp)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load_formula(path: str):
    text = _read_input(path)
    try:
        formula = parse_dimacs(text)
    except DimacsError as exc:
        raise DataError(f"{path}: {exc}") from None
    if formula.m and formula.k < 1:
        raise DataError(f"{path}: clauses must have at least one literal")
    return text, formula


def _load_graph(path: str):
    text = _read_input(path)
    try:
        return text, graph_from_json(text)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _cmd_gen(args):
    try:
        formula = generate_random(args.seed, args.k, args.n, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _emit("gen", args, {}, {args.out: serialize_dimacs(formula)})


# flag destination, BuilderConfig field, key in a sweep config's [builder]
# section, type, choices, help
_BUILDER_FLAGS = (
    ("mode", "mode", "mode", str, MODES, "construction mode"),
    ("theta", "theta", "theta", float, None, "newcomer connectivity per draw (s2gpa)"),
    ("rho", "rho", "rho", int, None, "draws per step (s2gpa)"),
    ("temp", "temperature", "temperature", float, None, "energy temperature"),
    ("first", "first_clause_rule", "first", str, FIRST_CLAUSE_RULES, "first-clause rule"),
)


def _add_builder_flags(parser, defaults, unset: bool = False):
    """Declare --mode/--theta/--rho/--temp/--first with the values of
    ``defaults`` (anything with BuilderConfig's setting attributes).

    With ``unset`` every flag defaults to None, so that ``sweep`` can tell a
    flag left out from one given, and the help names the value used when
    neither a flag nor the config file sets one.
    """
    for dest, field, _, kind, choices, text in _BUILDER_FLAGS:
        default = getattr(defaults, field)
        if unset:
            text, default = f"{text} (default {default})", None
        parser.add_argument(f"--{dest}", type=kind, choices=choices, default=default, help=text)


def _cmd_build(args):
    text, formula = _load_formula(getattr(args, "in"))
    try:
        cfg = BuilderConfig(
            seed=args.seed, **{field: getattr(args, dest) for dest, field, *_ in _BUILDER_FLAGS}
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        graph = build_graph(formula, cfg)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    inputs = {"in": {"path": getattr(args, "in"), "sha256": _sha256_text(text)}}
    _emit("build", args, inputs, {args.out: graph_to_json(graph)})


def _classification_payload(graph):
    try:
        label = classify(graph)
        mean, std = nonwinner_stats(graph)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    return {
        "fraction_winner": label.fraction_winner,
        "label": label.label.value,
        "nonwinner_mean": mean,
        "nonwinner_std": std,
    }


def _cmd_classify(args):
    text, graph = _load_graph(getattr(args, "in"))
    out_text = _json_text(_classification_payload(graph))
    if args.out is None:
        sys.stdout.write(out_text)
        return
    inputs = {"in": {"path": getattr(args, "in"), "sha256": _sha256_text(text)}}
    _emit("classify", args, inputs, {args.out: out_text})


def _cmd_spectrum(args):
    text, graph = _load_graph(getattr(args, "in"))
    spectrum = particle_spectrum(graph)
    payload = {
        "total_particles": spectrum.total_particles,
        "levels": [
            {
                "energy": level.energy,
                "particles": level.particles,
                "states": [
                    {"clause": state.clause, "particles": state.particles}
                    for state in level.states
                ],
            }
            for level in spectrum.levels
        ],
    }
    out_text = _json_text(payload)
    artifacts = {}
    if args.out is not None:
        artifacts[args.out] = out_text
    if args.dot is not None:
        artifacts[args.dot] = export_dot(graph)
    if not artifacts:
        sys.stdout.write(out_text)
        return
    inputs = {"in": {"path": getattr(args, "in"), "sha256": _sha256_text(text)}}
    _emit("spectrum", args, inputs, artifacts)


def _result_payload(algo: str, result, args) -> dict:
    return {
        "algo": algo,
        "solved": result.solved,
        "satisfied_clauses": result.satisfied_clauses,
        "flips": result.flips,
        "evaluations": result.evaluations,
        "budget": args.budget,
        "p1": args.p1,
        "p2": args.p2,
        "seed": args.seed,
        "formula_sha256": result.formula_sha256,
        "assignment": list(result.assignment),
    }


def _cmd_solve(args):
    cnf_text, formula = _load_formula(getattr(args, "in"))
    inputs = {"in": {"path": getattr(args, "in"), "sha256": _sha256_text(cnf_text)}}
    order = None
    if args.algo in solver_mod.ORDERED_SOLVERS:
        if args.graph is None:
            raise UsageError(f"--graph is required for --algo {args.algo}")
        graph_text, graph = _load_graph(args.graph)
        inputs["graph"] = {"path": args.graph, "sha256": _sha256_text(graph_text)}
        try:
            order = solver_mod.clause_order(formula, graph, derive_seed(args.seed, TAG_ORDER))
        except ValueError as exc:
            raise DataError(str(exc)) from None
    try:
        result = solver_mod.solve(formula, args.algo, order, args.p1, args.p2, args.budget, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {"results": [_result_payload(args.algo, result, args)]}
    _emit("solve", args, inputs, {args.out: _json_text(payload)})


def _results_from_file(path: str):
    text = _read_input(path)
    try:
        payload = json.loads(text)
        entries = payload["results"]
        results = [
            solver_mod.SolverResult(
                solved=bool(e["solved"]),
                satisfied_clauses=int(e["satisfied_clauses"]),
                flips=int(e["flips"]),
                evaluations=int(e["evaluations"]),
                assignment=tuple(bool(v) for v in e["assignment"]),
                formula_sha256=str(e["formula_sha256"]),
            )
            for e in entries
        ]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a valid result file: {exc}") from None
    return text, results


def _cmd_compare(args):
    text_a, results_a = _results_from_file(args.a)
    text_b, results_b = _results_from_file(args.b)
    try:
        verdict = solver_mod.compare(results_a, results_b)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    out_text = _json_text({"verdict": verdict})
    if args.out is None:
        sys.stdout.write(out_text)
        return
    inputs = {
        "a": {"path": args.a, "sha256": _sha256_text(text_a)},
        "b": {"path": args.b, "sha256": _sha256_text(text_b)},
    }
    _emit("compare", args, inputs, {args.out: out_text})


def _parse_number_list(text: str, kind):
    try:
        values = tuple(kind(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"cannot parse list {text!r}") from None
    if not values:
        raise UsageError(f"empty list {text!r}")
    return values


# flag destination, SweepConfig field, INI section, INI key, parser; a value
# given by neither flag nor INI file takes the SweepConfig default
_SWEEP_SETTINGS = (
    ("n_values", "n_values", "sweep", "n_values", lambda s: _parse_number_list(s, int)),
    ("alphas", "alphas", "sweep", "alphas", lambda s: _parse_number_list(s, float)),
    ("instances", "instances", "sweep", "instances", int),
    ("graphs", "graphs_per_instance", "sweep", "graphs", int),
    ("k", "k", "sweep", "k", int),
    ("seed", "seed_root", "sweep", "seed", int),
) + tuple((dest, field, "builder", key, kind) for dest, field, key, kind, _, _ in _BUILDER_FLAGS)


def _sweep_config(args) -> tuple[SweepConfig, dict]:
    sections = {}
    inputs = {}
    if args.config is not None:
        text = _read_input(args.config)
        inputs["config"] = {"path": args.config, "sha256": _sha256_text(text)}
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
            sections = {name: dict(parser[name]) for name in parser.sections()}
        except configparser.Error as exc:
            raise DataError(f"{args.config}: {exc}") from None
    given = {}
    for dest, field, section, key, parse in _SWEEP_SETTINGS:
        value = getattr(args, dest)
        if value is not None:
            # argparse typed every flag but the two lists; parsing a typed
            # value again returns it unchanged
            given[field] = parse(value)
        elif key in sections.get(section, {}):
            try:
                given[field] = parse(sections[section][key])
            except ValueError as exc:
                raise DataError(f"config key {key!r}: {exc}") from None
    if "n_values" not in given or "alphas" not in given:
        raise UsageError("sweep needs n_values and alphas (config file or --n-values/--alphas)")
    try:
        return SweepConfig(**given), inputs
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_sweep(args):
    cfg, inputs = _sweep_config(args)
    records = sweep(cfg, jobs=_effective_jobs(args.jobs))
    _emit("sweep", args, inputs, {args.out: sweep_records_to_csv(records)})


def _cmd_bench(args):
    alphas = ()
    if args.grid != "auto":
        alphas = _parse_number_list(args.grid, float)
    try:
        cfg = BenchConfig(
            k=args.k,
            n_values=_parse_number_list(args.n_values, int),
            alphas=alphas,
            instances=args.instances,
            budget=args.budget,
            p1=args.p1,
            p2=args.p2,
            solvers=tuple(tok for tok in args.solvers.replace(",", " ").split()),
            graph_mode=args.mode,
            theta=args.theta,
            rho=args.rho,
            temperature=args.temp,
            first_clause_rule=args.first,
            seed_root=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = benchmark(cfg, jobs=_effective_jobs(args.jobs))
    _emit("bench", args, {}, {args.out: bench_report_to_csv(report)})


def _effective_jobs(jobs: int) -> int:
    if jobs < 0:
        raise UsageError("--jobs must be >= 0")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def build_parser() -> _Parser:
    parser = _Parser(
        prog="satbec",
        description="Clause networks from k-SAT formulas, phase classification, "
        "and energy-ordered local search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen", help="generate a uniform random k-SAT instance", formatter_class=fmt)
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--k", type=int, default=3, help="literals per clause")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--m", type=int, required=True, help="number of clauses")
    p.add_argument("--out", required=True, help="output DIMACS path")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("build", help="build a clause network from a DIMACS file", formatter_class=fmt)
    _add_builder_flags(p, BuilderConfig())
    p.add_argument("--seed", type=int, default=0, help="construction seed")
    p.add_argument("--in", required=True, help="input DIMACS path")
    p.add_argument("--out", required=True, help="output graph JSON path")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("classify", help="phase-classify a built network", formatter_class=fmt)
    p.add_argument("--in", required=True, help="graph JSON path")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("spectrum", help="particle spectrum of a built network", formatter_class=fmt)
    p.add_argument("--in", required=True, help="graph JSON path")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("solve", help="run a circumspect local-search solver", formatter_class=fmt)
    p.add_argument("--algo", choices=solver_mod.SOLVERS, default="chainsat",
                   help="solver variant")
    p.add_argument("--p1", type=float, default=None,
                   help="downhill flip probability (default: per-k table)")
    p.add_argument("--p2", type=float, default=None,
                   help="chain rejection probability (default: per-k table)")
    p.add_argument("--budget", type=int, default=solver_mod.DEFAULT_BUDGET,
                   help="main-loop cycle budget")
    p.add_argument("--seed", type=int, default=0, help="solver seed")
    p.add_argument("--in", required=True, help="input DIMACS path")
    p.add_argument("--graph", default=None, help="graph JSON for lc/nlc clause order")
    p.add_argument("--out", required=True, help="output result JSON path")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("compare", help="compare two result files", formatter_class=fmt)
    p.add_argument("a", help="first result JSON")
    p.add_argument("b", help="second result JSON")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("sweep", help="phase sweep over an (n, alpha) grid", formatter_class=fmt)
    p.add_argument("--config", default=None, help="INI config with [sweep] and [builder] sections")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n-values", dest="n_values", default=None, help="override: list of n")
    p.add_argument("--alphas", default=None, help="override: list of alphas")
    p.add_argument("--instances", type=int, default=None, help="instances per grid point (default 30)")
    p.add_argument("--graphs", type=int, default=None, help="graphs per instance (default 10)")
    p.add_argument("--k", type=int, default=None, help="literals per clause (default 3)")
    p.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    _add_builder_flags(p, SweepConfig, unset=True)
    p.add_argument("--jobs", type=int, default=0, help="worker processes (0 = all cores)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("bench", help="solver benchmark table", formatter_class=fmt)
    p.add_argument("--k", type=int, default=3, help="literals per clause")
    p.add_argument("--grid", default="auto",
                   help="alpha list, or 'auto' for 8 points around the k threshold")
    p.add_argument("--solvers", default=",".join(solver_mod.SOLVERS), help="solvers to run")
    p.add_argument("--n-values", dest="n_values", default="25,50", help="list of n")
    p.add_argument("--instances", type=int, default=30, help="instances per (n, alpha) group")
    p.add_argument("--budget", type=int, default=solver_mod.DESK_BUDGET,
                   help="main-loop cycle budget")
    p.add_argument("--p1", type=float, default=None,
                   help="downhill flip probability (default: per-k table)")
    p.add_argument("--p2", type=float, default=None,
                   help="chain rejection probability (default: per-k table)")
    _add_builder_flags(p, BenchConfig().builder_config(0))
    p.add_argument("--seed", type=int, default=0, help="root seed")
    p.add_argument("--jobs", type=int, default=0, help="worker processes (0 = all cores)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())
