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
import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile
from typing import Callable, NamedTuple

from . import __version__
from . import solver as solver_mod
from .analysis import classification
from .builder import BuilderConfig, build_graph
from .cnf import check_count, generate_random, parse_dimacs, serialize_dimacs
from .experiments import (
    BenchConfig,
    SweepConfig,
    bench_report_to_csv,
    benchmark,
    sweep,
    sweep_records_to_csv,
)
from .graph import (
    FIRST_CLAUSE_RULES,
    MODES,
    export_dot,
    graph_from_json,
    graph_to_json,
    json_text,
    particle_spectrum,
)
from .seeding import TAG_ORDER, derive_seed


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Append "(default: X)" to a flag's help unless X is None."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _load(path: str, parse: Callable) -> tuple[dict, object]:
    """The manifest input record of ``path`` and ``parse`` of its UTF-8 text.

    An unreadable file is a usage error; text that is not UTF-8, or that
    ``parse`` refuses with a ``ValueError``, is a data error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        record = {"path": path, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        return record, parse(text)
    except OSError as exc:
        raise UsageError(f"cannot read input file {path!r}: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _stage(path: str, text: str) -> str:
    """Write ``text`` to a temporary file beside ``path``; return its name."""
    if not path:
        raise UsageError("cannot write to '': the path is empty")
    if os.path.isdir(path):
        raise UsageError(f"cannot write to {path!r}: is a directory")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.")
    except OSError as exc:
        raise UsageError(f"cannot write to {path!r}: {exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            mask = os.umask(0o777)  # read the umask: there is no getter
            os.umask(mask)
            os.chmod(tmp, 0o666 & ~mask)  # mkstemp's file is private
            fh.write(text)
    except OSError as exc:
        os.unlink(tmp)
        raise UsageError(f"cannot write to {path!r}: {exc}") from None
    return tmp


def _manifest_text(args: argparse.Namespace, inputs: dict, outputs: list) -> str:
    arguments = {key: value for key, value in sorted(vars(args).items()) if not callable(value)}
    payload = {
        "subcommand": args.command,
        "version": __version__,
        "arguments": arguments,
        "inputs": inputs,
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    return json_text(payload)


def _emit(args: argparse.Namespace, inputs: dict, artifacts: list):
    """Write artifacts ([(path, text)]) plus a manifest per artifact, then
    print each artifact whose path is None (an omitted ``--out``).

    No two of these files may resolve to the same path.  Every file is first
    written to a temporary file, and a failed write removes the temporary
    files, so nothing is left behind and nothing is printed.  The files are
    then renamed into place in order; a rename that fails leaves the files
    renamed before it.
    """
    written = [(path, text) for path, text in artifacts if path is not None]
    manifest = _manifest_text(args, inputs, [path for path, _ in written])
    files = []
    for path, text in written:
        files += [(path, text), (path + ".manifest.json", manifest)]
    first = {}
    for i, (path, _) in enumerate(files):
        j = first.setdefault(os.path.realpath(path), i)
        if j != i:
            raise UsageError(f"outputs {files[j][0]!r} and {path!r} are the same file")
    staged: dict[str, str] = {}
    try:
        for path, text in files:
            staged[path] = _stage(path, text)
        for path, _ in files:
            try:
                os.replace(staged[path], path)
            except OSError as exc:
                raise UsageError(f"cannot write to {path!r}: {exc}") from None
            del staged[path]
    finally:
        for tmp in staged.values():
            os.unlink(tmp)
    for path, text in artifacts:
        if path is None:
            sys.stdout.write(text)


def _cmd_gen(args):
    try:
        formula = generate_random(args.seed, args.k, args.n, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _emit(args, {}, [(args.out, serialize_dimacs(formula))])


class _List(NamedTuple):
    """Parser of a comma- or space-separated list flag. argparse keeps such a
    flag's text, so manifests record it as given; a default tuple shows as
    its items joined by commas, or as ``empty``."""

    kind: type
    empty: str | None = None

    def __call__(self, text: str) -> tuple:
        if text == self.empty:
            return ()
        try:
            values = tuple(self.kind(tok) for tok in text.replace(",", " ").split())
        except ValueError:
            raise UsageError(f"cannot parse list {text!r}") from None
        if not values:
            raise UsageError(f"empty list {text!r}")
        return values


class _Setting(NamedTuple):
    """A config field set by the flag ``--<dest>`` (``_`` spelled ``-``)."""

    dest: str
    field: str
    parse: Callable  # argparse type, or a _List applied to the flag's text
    text: str
    choices: tuple | None = None
    ini: str | None = None  # "section.key" in a sweep config file


_BUILDER_SETTINGS = (
    _Setting("mode", "mode", str, "construction mode", MODES, "builder.mode"),
    _Setting("theta", "theta", float, "newcomer connectivity per draw (s2gpa)",
             ini="builder.theta"),
    _Setting("rho", "rho", int, "draws per step (s2gpa)", ini="builder.rho"),
    _Setting("temp", "temperature", float, "energy temperature", ini="builder.temperature"),
    _Setting("first", "first_clause_rule", str, "first-clause rule", FIRST_CLAUSE_RULES,
             "builder.first"),
)

_BUILD_SETTINGS = _BUILDER_SETTINGS + (_Setting("seed", "seed", int, "construction seed"),)

_SWEEP_SETTINGS = (
    _Setting("n_values", "n_values", _List(int), "override: list of n", ini="sweep.n_values"),
    _Setting("alphas", "alphas", _List(float), "override: list of alphas", ini="sweep.alphas"),
    _Setting("instances", "instances", int, "instances per grid point", ini="sweep.instances"),
    _Setting("graphs", "graphs_per_instance", int, "graphs per instance", ini="sweep.graphs"),
    _Setting("k", "k", int, "literals per clause", ini="sweep.k"),
    _Setting("seed", "seed_root", int, "root seed", ini="sweep.seed"),
) + _BUILDER_SETTINGS

_BENCH_SETTINGS = (
    _Setting("k", "k", int, "literals per clause"),
    _Setting("grid", "alphas", _List(float, empty="auto"),
             "alpha list, or 'auto' for 8 points around the k threshold"),
    _Setting("solvers", "solvers", _List(str), "solvers to run"),
    _Setting("n_values", "n_values", _List(int), "list of n"),
    _Setting("instances", "instances", int, "instances per (n, alpha) group"),
    _Setting("budget", "budget", int, "main-loop cycle budget"),
    _Setting("p1", "p1", float, "downhill flip probability (default: per-k table)"),
    _Setting("p2", "p2", float, "chain rejection probability (default: per-k table)"),
    # BenchConfig names the construction mode graph_mode
    *(s._replace(field="graph_mode") if s.dest == "mode" else s for s in _BUILDER_SETTINGS),
    _Setting("seed", "seed_root", int, "root seed"),
)


def _add_settings(parser, settings, config_cls, from_ini: bool = False):
    """Declare a flag per setting, with the default of its ``config_cls`` field.

    With ``from_ini`` every flag defaults to None, so that ``sweep`` can tell a
    flag left out from one given; the help then names the field default."""
    defaults = {f.name: f.default for f in dataclasses.fields(config_cls)}
    for s in settings:
        default = defaults[s.field]
        listed = isinstance(s.parse, _List)
        if listed and default is not dataclasses.MISSING:
            default = ",".join(map(str, default)) or s.parse.empty
        text = s.text
        if from_ini and default is not dataclasses.MISSING:
            text = f"{text} (default: {default})"
        parser.add_argument("--" + s.dest.replace("_", "-"), dest=s.dest,
                            type=None if listed else s.parse, choices=s.choices,
                            default=None if from_ini else default, help=text)


def _config(config_cls, settings, args, ini: dict | None = None):
    """``config_cls`` from the flags given, else from the ``ini`` values of a
    sweep config file ({"section.key": text}); a field set by neither keeps
    its default."""
    given = {}
    for s in settings:
        value = getattr(args, s.dest)
        if value is not None:
            # argparse typed every flag but the lists; parsing a typed
            # value again returns it unchanged
            given[s.field] = s.parse(value)
        elif ini and s.ini in ini:
            try:
                given[s.field] = s.parse(ini[s.ini])
            except (ValueError, UsageError) as exc:
                raise DataError(f"config key {s.ini!r}: {exc}") from None
    fields = dataclasses.fields(config_cls)
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in given]
    if missing:
        raise UsageError(f"{' and '.join(missing)} must be set by a flag or the config file")
    try:
        return config_cls(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_build(args):
    record, formula = _load(getattr(args, "in"), parse_dimacs)
    cfg = _config(BuilderConfig, _BUILD_SETTINGS, args)
    try:
        text = graph_to_json(build_graph(formula, cfg))
    except ValueError as exc:
        raise DataError(str(exc)) from None
    _emit(args, {"in": record}, [(args.out, text)])


def _cmd_classify(args):
    record, graph = _load(getattr(args, "in"), graph_from_json)
    try:
        payload = classification(graph)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    _emit(args, {"in": record}, [(args.out, json_text(payload))])


def _cmd_spectrum(args):
    record, graph = _load(getattr(args, "in"), graph_from_json)
    spectrum = particle_spectrum(graph)
    payload = {
        "total_particles": spectrum.total_particles,
        "levels": [
            {"energy": level.energy, "particles": level.particles,
             "states": list(map(vars, level.states))}
            for level in spectrum.levels
        ],
    }
    dot = [] if args.dot is None else [(args.dot, export_dot(graph))]
    _emit(args, {"in": record}, [(args.out, json_text(payload)), *dot])


# the SolverResult fields a result entry holds, each with the test its JSON
# value must pass, or None for a count, which ``check_count`` checks
_RESULT_FIELDS = {
    "solved": (lambda v: type(v) is bool, "a boolean"),
    "satisfied_clauses": None,
    "flips": None,
    "evaluations": None,
    "assignment": (lambda v: type(v) is list and all(type(x) is bool for x in v),
                   "a list of booleans"),
    "formula_sha256": (lambda v: type(v) is str, "a string"),
}


def _cmd_solve(args):
    record, formula = _load(getattr(args, "in"), parse_dimacs)
    inputs = {"in": record}
    order = None
    if args.algo in solver_mod.ORDERED_SOLVERS:
        if args.graph is None:
            raise UsageError(f"--graph is required for --algo {args.algo}")
        inputs["graph"], graph = _load(args.graph, graph_from_json)
        try:
            order_seed = derive_seed(args.seed, TAG_ORDER)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        try:
            order = solver_mod.clause_order(formula, graph, order_seed)
        except ValueError as exc:
            raise DataError(str(exc)) from None
    try:
        result = solver_mod.solve(formula, args.algo, order, args.p1, args.p2, args.budget, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    entry = {name: getattr(result, name) for name in _RESULT_FIELDS}
    entry.update(algo=args.algo, budget=args.budget, p1=args.p1, p2=args.p2, seed=args.seed)
    _emit(args, inputs, [(args.out, json_text({"results": [entry]}))])


def _results(text: str) -> list:
    """The solver results of a ``solve`` output file; a field of any other
    type than ``solve`` writes is a data error, not a value to coerce."""
    results = []
    try:
        for entry in json.loads(text)["results"]:
            fields = {name: entry[name] for name in _RESULT_FIELDS}
            for name, rule in _RESULT_FIELDS.items():
                if rule is None:
                    check_count(name, fields[name])
                elif not rule[0](fields[name]):
                    raise TypeError(f"{name!r} must be {rule[1]}")
            fields["assignment"] = tuple(fields["assignment"])
            results.append(solver_mod.SolverResult(**fields))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"not a valid result file: {exc}") from None
    return results


def _cmd_compare(args):
    record_a, results_a = _load(args.a, _results)
    record_b, results_b = _load(args.b, _results)
    try:
        verdict = solver_mod.compare(results_a, results_b)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    _emit(args, {"a": record_a, "b": record_b},
          [(args.out, json_text({"verdict": verdict}))])


def _ini_settings(text: str) -> dict:
    """The values of a sweep INI file as {"section.key": text}; a malformed
    file or an unknown section or key raises ``ValueError``."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        ini = {f"{name}.{key}": value
               for name in parser.sections() or [parser.default_section]
               for key, value in parser[name].items()}
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    # every key counts: a [DEFAULT] key as read by each section, or as
    # DEFAULT.key in a file with no other section
    known = {s.ini for s in _SWEEP_SETTINGS}
    sections = {key.partition(".")[0] for key in known}
    unknown = sorted(set(ini) - known) + sorted(set(parser.sections()) - sections)
    if unknown:
        raise ValueError(f"unknown config section or key {unknown[0]!r}")
    return ini


def _cmd_sweep(args):
    ini = {}
    inputs = {}
    if args.config is not None:
        inputs["config"], ini = _load(args.config, _ini_settings)
    cfg = _config(SweepConfig, _SWEEP_SETTINGS, args, ini)
    records = sweep(cfg, jobs=_effective_jobs(args.jobs))
    _emit(args, inputs, [(args.out, sweep_records_to_csv(records))])


def _cmd_bench(args):
    cfg = _config(BenchConfig, _BENCH_SETTINGS, args)
    report = benchmark(cfg, jobs=_effective_jobs(args.jobs))
    _emit(args, {}, [(args.out, bench_report_to_csv(report))])


def _effective_jobs(jobs: int) -> int:
    if jobs < 0:
        raise UsageError("--jobs must be >= 0")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@functools.cache
def build_parser() -> _Parser:
    """The satbec parser, built once per process: parsing keeps no state
    between calls."""
    parser = _Parser(
        prog="satbec",
        description="Clause networks from k-SAT formulas, phase classification, "
        "and energy-ordered local search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    fmt = _HelpFormatter

    p = sub.add_parser("gen", help="generate a uniform random k-SAT instance", formatter_class=fmt)
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--k", type=int, default=3, help="literals per clause")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--m", type=int, required=True, help="number of clauses")
    p.add_argument("--out", required=True, help="output DIMACS path")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("build", help="build a clause network from a DIMACS file", formatter_class=fmt)
    _add_settings(p, _BUILD_SETTINGS, BuilderConfig)
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
    _add_settings(p, _SWEEP_SETTINGS, SweepConfig, from_ini=True)
    p.add_argument("--jobs", type=int, default=0, help="worker processes (0 = all cores)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("bench", help="solver benchmark table", formatter_class=fmt)
    _add_settings(p, _BENCH_SETTINGS, BenchConfig)
    p.add_argument("--jobs", type=int, default=0, help="worker processes (0 = all cores)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
