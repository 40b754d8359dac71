"""SAT-guided abductive reasoning: solve under-determined logic problems by
iteratively abducing commonsense implications from a language-model backend,
with an annealed self-consistency vote as the fallback."""

__version__ = "0.1.0"

from .backends import (
    Backend,
    CotSample,
    OracleBackend,
    OracleKB,
    SolveVote,
    WireBackend,
)
from .cnf import ClauseSet
from .corpus import Problem, load_corpus, load_problem_file, save_problem
from .engine import (
    CommonsenseClause,
    Engine,
    EngineConfig,
    SolveResult,
    entity_scores,
    pair_order,
    solve,
)
from .errors import ArgosError
from .harness import (
    RunMetrics,
    corruption_check,
    flip_analysis,
    run_suite,
)
from .kinship import generate_kinship
from .logic import (
    Atom,
    Entity,
    Formula,
    HornRule,
    Literal,
    Predicate,
    ground,
)
from .parser import parse_formula, parse_literal
from .sat import Backbone, SatConclusion, SatSession

__all__ = [
    "ArgosError",
    "Atom",
    "Backbone",
    "Backend",
    "ClauseSet",
    "CommonsenseClause",
    "CotSample",
    "Engine",
    "EngineConfig",
    "Entity",
    "Formula",
    "HornRule",
    "Literal",
    "OracleBackend",
    "OracleKB",
    "Predicate",
    "Problem",
    "RunMetrics",
    "SatConclusion",
    "SatSession",
    "SolveResult",
    "SolveVote",
    "WireBackend",
    "corruption_check",
    "entity_scores",
    "flip_analysis",
    "generate_kinship",
    "ground",
    "load_corpus",
    "load_problem_file",
    "pair_order",
    "parse_formula",
    "parse_literal",
    "run_suite",
    "save_problem",
    "solve",
]
