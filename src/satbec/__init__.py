"""satbec: clause networks from k-SAT formulas, condensation-phase
analysis, and energy-ordered circumspect local search."""

__version__ = "0.1.0"

from .analysis import Phase, PhaseLabel, classify, fraction_winner, nonwinner_stats, winner
from .builder import (
    BuilderConfig,
    BuildState,
    attachment_probabilities,
    build_graph,
    find_closest_clause,
    select_first_clause,
)
from .solver import (
    SOLVERS,
    ClauseOrder,
    SolverResult,
    chainsat,
    clause_order,
    compare,
    lc_chainsat,
    nlc_chainsat,
    solve,
)
from .cnf import (
    DimacsError,
    Formula,
    evaluate,
    formula_sha256,
    generate_random,
    parse_dimacs,
    serialize_dimacs,
)
from .graph import (
    ClauseGraph,
    EnergyLevel,
    EnergySpectrum,
    EnergyState,
    GraphEdge,
    GraphNode,
    export_dot,
    graph_from_json,
    graph_to_json,
    particle_spectrum,
)
from .metrics import clause_distance

__all__ = [name for name in dir() if not name.startswith("_")]
