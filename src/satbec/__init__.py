"""satbec: clause networks from k-SAT formulas, condensation-phase
analysis, and energy-ordered circumspect local search.

The package re-exports nothing: import each name from its module, e.g.
``from satbec.builder import build_graph``."""

__version__ = "0.1.0"
