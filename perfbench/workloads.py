"""The benchmark's three workloads.

Each workload is a closed loop over items: one item starts after the
previous one has finished, in one process, with no worker pool.  A workload
object knows how to run item ``i`` through a tracer (``NullTracer`` for the
untraced run), how to reduce the item's outputs to a digest, and how to
check them.  Inputs come from the workload seed alone.

* ``sweep_dense``: one graph of the criteria 04-06 high-density grid point
  per item (n=100, alpha=8.0, s2gpa), then its classification.
* ``bench_solve``: one instance of the default ``satbec bench`` protocol per
  item (n=50, 8-point alpha grid, budget 10^4, all three solvers).
* ``cli_pipeline``: one DIMACS file taken through ``build``, ``classify``,
  ``spectrum`` and ``solve`` of the in-process CLI per item.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
from contextlib import nullcontext

from satbec import cli, experiments
from satbec.analysis import classify, label_for_fraction, nonwinner_stats
from satbec.builder import BuilderConfig, build_graph
from satbec.cnf import formula_sha256, generate_random, parse_dimacs
from satbec.experiments import (
    BenchConfig,
    SweepConfig,
    build_sample_graph,
    clause_count,
    sample_formula,
)
from satbec.graph import export_dot, graph_from_json, graph_to_json, particle_spectrum
from satbec.metrics import clause_distance
from satbec.seeding import TAG_BUILD, TAG_GENERATE, TAG_ORDER, TAG_SOLVE, derive_seed
from satbec.solver import (
    chainsat,
    clause_order,
    lc_chainsat,
    nlc_chainsat,
    verify_result,
)
from tracing import NullTracer

# index space of warm-up items, far from any index a timed loop reaches, so
# that warm-up never computes a timed item's inputs
WARM_UP_ITEM = 10**6


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graph_errors(graph, m: int) -> list[str]:
    """Invariants every built graph satisfies."""
    errors = []
    if sorted(graph.insertion_order) != list(range(m)):
        errors.append("insertion order is not a permutation of the clause indices")
    if graph.total_particles != 2 * graph.link_events:
        errors.append(
            f"particles {graph.total_particles} != 2 x link events {graph.link_events}"
        )
    return errors


class Workload:
    name = ""
    # layer groups whose per-layer metrics this workload's own items produce
    reaches: frozenset = frozenset()
    # the root spans over which the layer shares are reported
    share_root = "item"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        """Input generation that precedes the timed loop."""

    def warm_up(self, tracer):
        self.digest(self.run_item(WARM_UP_ITEM, tracer))

    def run_item(self, i, tracer):
        raise NotImplementedError

    def digest(self, outcome) -> str:
        raise NotImplementedError

    def reference_key(self, i) -> int:
        """Position of item ``i``'s digest in the reference list."""
        return i

    def check(self, i, outcome) -> list[str]:
        raise NotImplementedError

    def probe(self, i, tracer) -> list[str]:
        """Extra traced calls after item ``i`` of a traced run; errors."""
        return []

    def traced_calls(self, tracer):
        """Context in which a traced item runs; see SweepDense."""
        return nullcontext()

    def close(self):
        """Release what ``prepare`` created."""


class SweepDense(Workload):
    """Criteria 04-06 high-density point: n=100, alpha=8.0 (m=800)."""

    name = "sweep_dense"
    reaches = frozenset({"builder", "cnf.generate", "analysis", "experiments", "seeding"})

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cfg = SweepConfig(
            n_values=(100,),
            alphas=(8.0,),
            mode="s2gpa",
            theta=0.33,
            rho=1,
            temperature=1.0,
            first_clause_rule="random",
            seed_root=seed,
        )
        self._formula = (None, None)

    def run_item(self, i, tracer):
        # item i is graph i % G of instance i // G; as in run_grid_point the
        # instance's formula is generated once, by its first graph
        instance, graph_index = divmod(i, self.cfg.graphs_per_instance)
        if graph_index == 0 or self._formula[0] != instance:
            formula = tracer.call(
                "experiments.sample_formula", sample_formula, self.cfg, 0, 0, instance
            )
            self._formula = (instance, formula)
        formula = self._formula[1]
        graph = tracer.call(
            "experiments.build_sample_graph",
            build_sample_graph,
            self.cfg,
            0,
            0,
            instance,
            graph_index,
            formula=formula,
        )
        label = tracer.call("analysis.classify", classify, graph)
        stats = tracer.call("analysis.nonwinner_stats", nonwinner_stats, graph)
        return formula, graph, label, stats

    def traced_calls(self, tracer):
        """``sample_formula`` and ``build_sample_graph`` call these names in
        the ``experiments`` namespace; wrapping them there gives the item's
        builder, cnf and seeding spans."""

        def traced(name):
            return lambda fn: lambda *a, **k: tracer.call(name, fn, *a, **k)

        return tracer.patched(
            experiments,
            {
                "derive_seed": traced("seeding.derive_seed"),
                "generate_random": traced("cnf.generate_random"),
                "build_graph": lambda fn: lambda formula, cfg: tracer.build_graph(
                    fn, formula, cfg
                ),
            },
        )

    def digest(self, outcome) -> str:
        _, graph, label, stats = outcome
        summary = repr((label.label.value, label.fraction_winner, stats))
        return sha256_text(graph_to_json(graph) + summary)

    def check(self, i, outcome) -> list[str]:
        formula, graph, label, _ = outcome
        errors = graph_errors(graph, formula.m)
        if label_for_fraction(label.fraction_winner) != label.label:
            errors.append("phase label disagrees with the winner fraction")
        return errors


ALGOS = {"chainsat": chainsat, "lc": lc_chainsat, "nlc": nlc_chainsat}


class BenchSolve(Workload):
    """Default ``satbec bench`` protocol at n=50, round-robin over alpha."""

    name = "bench_solve"
    reaches = frozenset({"builder", "cnf.generate", "solver", "experiments", "seeding"})

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cfg = BenchConfig(n_values=(50,), seed_root=seed)
        self.alphas = self.cfg.resolved_alphas()
        if tuple(self.cfg.solvers) != tuple(ALGOS):
            raise ValueError(f"unexpected default solvers {self.cfg.solvers}")

    def run_item(self, i, tracer):
        cfg = self.cfg
        root = cfg.seed_root
        instance, a = divmod(i, len(self.alphas))
        n = cfg.n_values[0]
        m = clause_count(n, self.alphas[a])
        seed = lambda *path: tracer.call("seeding.derive_seed", derive_seed, root, *path)
        formula = tracer.call(
            "cnf.generate_random", generate_random, seed(TAG_GENERATE, 0, a, instance), cfg.k, n, m
        )
        build_cfg = BuilderConfig(
            mode=cfg.graph_mode,
            temperature=cfg.temperature,
            theta=cfg.theta,
            rho=cfg.rho,
            seed=seed(TAG_BUILD, 0, a, instance, 0),
            first_clause_rule=cfg.first_clause_rule,
        )
        graph = tracer.build_graph(build_graph, formula, build_cfg)
        order = tracer.call(
            "solver.clause_order", clause_order, formula, graph, seed(TAG_ORDER, 0, a, instance)
        )
        results = []
        for solver_index, (algo, fn) in enumerate(ALGOS.items()):
            sseed = seed(TAG_SOLVE, 0, a, instance, solver_index)
            if algo == "chainsat":
                args = (formula, cfg.p1, cfg.p2, cfg.budget, sseed)
            else:
                args = (formula, order, cfg.p1, cfg.p2, cfg.budget, sseed)
            result = tracer.call(f"solver.{algo}", fn, *args)
            verified = tracer.call("solver.verify_result", verify_result, formula, result)
            results.append((algo, result, verified))
        return formula, graph, order, results

    def digest(self, outcome) -> str:
        _, _, order, results = outcome
        summary = [
            (algo, r.solved, r.satisfied_clauses, r.flips, r.evaluations, r.assignment,
             r.formula_sha256, verified)
            for algo, r, verified in results
        ]
        return sha256_text(repr((order.rank, summary)))

    def check(self, i, outcome) -> list[str]:
        formula, graph, order, results = outcome
        errors = graph_errors(graph, formula.m)
        if sorted(order.rank) != list(range(formula.m)):
            errors.append("clause order is not a permutation of the clause indices")
        digest = formula_sha256(formula)
        for algo, result, verified in results:
            if not verified:
                errors.append(f"{algo}: verify_result failed")
            if result.formula_sha256 != digest:
                errors.append(f"{algo}: result names another formula")
        return errors


def dimacs_text(rng: random.Random, n: int, m: int, k: int, repeat_variable: bool) -> str:
    """Uniform random k-SAT text; with ``repeat_variable`` one clause names
    the same variable twice, which flags the parsed formula with
    ``duplicate_vars``."""
    repeated = rng.randrange(m) if repeat_variable else -1
    lines = [f"p cnf {n} {m}"]
    for c in range(m):
        variables = rng.sample(range(1, n + 1), k)
        if c == repeated:
            variables[1] = variables[0]
        literals = [v if rng.random() < 0.5 else -v for v in variables]
        lines.append(" ".join(str(v) for v in literals) + " 0")
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """The CLI's JSON layout: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class CliPipeline(Workload):
    """DIMACS files through the in-process CLI, artifacts on disk."""

    name = "cli_pipeline"
    reaches = frozenset(
        {"builder", "builder.dupvar", "metrics", "cnf.parse", "graph", "cli", "analysis",
         "experiments"}
    )
    # the items' own spans are the four commands; the replay's spans show
    # which layers the commands spend their time in
    share_root = "replay"
    N, M, K = 60, 180, 3
    FILES = 16  # the item loop cycles over this pool
    BUDGET = 1000
    ARTIFACTS = ("graph.json", "class.json", "spec.json", "dot", "result.json")

    def __init__(self, seed: int, workdir_parent: str):
        super().__init__(seed)
        self.workdir_parent = workdir_parent
        self.workdir = None
        self._return_to = None
        self._expected: dict[int, dict[str, str]] = {}

    def prepare(self):
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-cli-", dir=self.workdir_parent)
        self._return_to = os.getcwd()
        # paths stay relative so that manifests do not depend on the directory
        os.chdir(self.workdir)
        for j in (*range(self.FILES), WARM_UP_ITEM):
            self._write_file(j)

    def close(self):
        if self._return_to is not None:
            os.chdir(self._return_to)
            self._return_to = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def _stem(self, j):
        return f"f{j:02d}"

    def _repeats_variable(self, j):
        return j % 4 == 3

    def _write_file(self, j):
        rng = random.Random(f"cli_pipeline:{self.seed}:{j}")
        text = dimacs_text(rng, self.N, self.M, self.K, repeat_variable=self._repeats_variable(j))
        with open(self._stem(j) + ".cnf", "w", encoding="utf-8") as fh:
            fh.write(text)

    def _commands(self, j):
        s = self._stem(j)
        seed = str(j)
        return (
            ("cli.build", ["build", "--mode", "s2gpa", "--seed", seed, "--in", f"{s}.cnf",
                           "--out", f"{s}.graph.json"]),
            ("cli.classify", ["classify", "--in", f"{s}.graph.json", "--out", f"{s}.class.json"]),
            ("cli.spectrum", ["spectrum", "--in", f"{s}.graph.json", "--out", f"{s}.spec.json",
                              "--dot", f"{s}.dot"]),
            ("cli.solve", ["solve", "--algo", "lc", "--graph", f"{s}.graph.json", "--budget",
                           str(self.BUDGET), "--seed", seed, "--in", f"{s}.cnf",
                           "--out", f"{s}.result.json"]),
        )

    def file_of(self, i):
        return i if i == WARM_UP_ITEM else i % self.FILES

    def reference_key(self, i) -> int:
        return self.file_of(i)

    def run_item(self, i, tracer):
        j = self.file_of(i)
        codes = tuple(tracer.call(step, cli.main, argv) for step, argv in self._commands(j))
        return j, codes

    def _read(self, name):
        with open(name, "r", encoding="utf-8") as fh:
            return fh.read()

    def outputs(self, j) -> dict[str, str]:
        """Every artifact and manifest of file ``j``, read back from disk."""
        s = self._stem(j)
        texts = {}
        for ext in self.ARTIFACTS:
            texts[ext] = self._read(f"{s}.{ext}")
            texts[ext + ".manifest.json"] = self._read(f"{s}.{ext}.manifest.json")
        return texts

    def digest(self, outcome) -> str:
        j, codes = outcome
        if any(codes):
            return sha256_text(repr(codes))
        digests = {name: sha256_text(text) for name, text in self.outputs(j).items()}
        return sha256_text(json.dumps(digests, sort_keys=True))

    def replay(self, j, tracer) -> tuple[bool, dict[str, str]]:
        """The artifacts of file ``j`` made by direct calls into the layers,
        repeating the work the four commands do, and whether the solver
        result passes ``verify_result``."""
        s = self._stem(j)
        call = tracer.call
        with tracer.span("replay"):
            text = self._read(f"{s}.cnf")
            formula = call("cnf.parse_dimacs", parse_dimacs, text)
            graph = tracer.build_graph(
                build_graph, formula, BuilderConfig(mode="s2gpa", seed=j)
            )
            graph_text = call("graph.graph_to_json", graph_to_json, graph)

            g = call("graph.graph_from_json", graph_from_json, graph_text)
            label = call("analysis.classify", classify, g)
            mean, std = call("analysis.nonwinner_stats", nonwinner_stats, g)
            class_text = json_text(
                {"fraction_winner": label.fraction_winner, "label": label.label.value,
                 "nonwinner_mean": mean, "nonwinner_std": std}
            )

            g = call("graph.graph_from_json", graph_from_json, graph_text)
            spectrum = call("graph.particle_spectrum", particle_spectrum, g)
            spec_text = json_text(
                {
                    "total_particles": spectrum.total_particles,
                    "levels": [
                        {
                            "energy": level.energy,
                            "particles": level.particles,
                            "states": [
                                {"clause": st.clause, "particles": st.particles}
                                for st in level.states
                            ],
                        }
                        for level in spectrum.levels
                    ],
                }
            )
            dot_text = call("graph.export_dot", export_dot, g)

            formula = call("cnf.parse_dimacs", parse_dimacs, text)
            g = call("graph.graph_from_json", graph_from_json, graph_text)
            order = call(
                "solver.clause_order", clause_order, formula, g, derive_seed(j, TAG_ORDER)
            )
            result = call("solver.lc", lc_chainsat, formula, order, None, None, self.BUDGET, j)
        result_text = json_text(
            {
                "results": [
                    {
                        "algo": "lc",
                        "solved": result.solved,
                        "satisfied_clauses": result.satisfied_clauses,
                        "flips": result.flips,
                        "evaluations": result.evaluations,
                        "budget": self.BUDGET,
                        "p1": None,
                        "p2": None,
                        "seed": j,
                        "formula_sha256": result.formula_sha256,
                        "assignment": list(result.assignment),
                    }
                ]
            }
        )
        return verify_result(formula, result), {
            "graph.json": graph_text,
            "class.json": class_text,
            "spec.json": spec_text,
            "dot": dot_text,
            "result.json": result_text,
        }

    def _expected_for(self, j):
        if j not in self._expected:
            verified, texts = self.replay(j, NullTracer())
            if not verified:
                raise RuntimeError(f"file {j}: lc result does not verify")
            self._expected[j] = {name: sha256_text(t) for name, t in texts.items()}
        return self._expected[j]

    def check(self, i, outcome) -> list[str]:
        j, codes = outcome
        if any(codes):
            return [f"file {j}: exit codes {codes}"]
        errors = []
        outputs = self.outputs(j)
        for name, digest in self._expected_for(j).items():
            if sha256_text(outputs[name]) != digest:
                errors.append(f"file {j}: {name} differs from the direct layer calls")
        for name, text in outputs.items():
            if name.endswith(".manifest.json"):
                errors.extend(f"file {j}: {name}: {e}" for e in self._manifest_errors(text))
        return errors

    def _manifest_errors(self, text) -> list[str]:
        try:
            manifest = json.loads(text)
            inputs = manifest["inputs"]
            outputs = manifest["outputs"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return [f"unreadable manifest: {exc}"]
        errors = []
        for role, entry in inputs.items():
            if sha256_text(self._read(entry["path"])) != entry["sha256"]:
                errors.append(f"input {role} digest does not match {entry['path']}")
        for name in outputs:
            if not os.path.exists(name):
                errors.append(f"listed output {name} is missing")
        return errors

    def probe(self, i, tracer) -> list[str]:
        """Traced replay of the item's file (for cli.overhead_ms and the
        layer spans), and on files with a repeated variable the scalar
        clause distance over every pair the builder's distance matrix
        visits."""
        j = self.file_of(i)
        errors = []
        expected = self._expected_for(j)
        verified, texts = self.replay(j, tracer)
        if not verified:
            errors.append(f"file {j}: traced lc result does not verify")
        for name, digest in expected.items():
            if sha256_text(texts[name]) != digest:
                errors.append(f"file {j}: traced replay of {name} differs")
        if self._repeats_variable(j):
            formula = parse_dimacs(self._read(f"{self._stem(j)}.cnf"))
            clauses = formula.clauses
            m = len(clauses)
            with tracer.span("metrics.clause_distance", calls=m * (m - 1) // 2):
                for a in range(m):
                    ca = clauses[a]
                    for b in range(a + 1, m):
                        clause_distance(ca, clauses[b])
        return errors


def make(name: str, seed: int, workdir_parent: str) -> Workload:
    if name == SweepDense.name:
        return SweepDense(seed)
    if name == BenchSolve.name:
        return BenchSolve(seed)
    if name == CliPipeline.name:
        return CliPipeline(seed, workdir_parent)
    raise KeyError(name)


NAMES = (SweepDense.name, BenchSolve.name, CliPipeline.name)
