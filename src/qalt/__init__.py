"""Exact-arithmetic link invariants and the deg Q < det obstruction.

The package exports what a check needs: the polynomial layer, the diagram
builders, the invariants, `obstruction_check` and the errors.  The closed
forms of the paper's families stay in their modules: `braid3`, `kanenobu`
and `montesinos`.
"""

from .diagram import (
    PDDiagram,
    close_braid,
    connected_sum,
    figure_eight,
    generate_pretzel,
    hopf_link,
    parse_pd,
    simplify,
    trefoil,
    unknot,
    unlink,
)
from .errors import (
    CrossingLimitError,
    HypothesisViolationError,
    InternalConsistencyError,
    MalformedDiagramError,
    PDParseError,
)
from .jones import (
    ObstructionVerdict,
    determinant,
    determinant_goeritz,
    jones_polynomial,
    kauffman_bracket,
    obstruction_check,
)
from .poly import (
    GaussianInt,
    HalfLaurent,
    IntLaurent,
    breadth_t,
    chebyshev_S,
    eval_at_s_equals_i,
    sigma,
)
from .qpoly import q_polynomial

__all__ = [
    "GaussianInt",
    "HalfLaurent",
    "IntLaurent",
    "breadth_t",
    "chebyshev_S",
    "eval_at_s_equals_i",
    "sigma",
    "PDDiagram",
    "parse_pd",
    "close_braid",
    "generate_pretzel",
    "connected_sum",
    "simplify",
    "trefoil",
    "figure_eight",
    "hopf_link",
    "unknot",
    "unlink",
    "q_polynomial",
    "kauffman_bracket",
    "jones_polynomial",
    "determinant",
    "determinant_goeritz",
    "obstruction_check",
    "ObstructionVerdict",
    "CrossingLimitError",
    "HypothesisViolationError",
    "InternalConsistencyError",
    "MalformedDiagramError",
    "PDParseError",
]
