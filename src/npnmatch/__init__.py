"""NPN Boolean matching: signature-guided search with a brute-force oracle."""

from .boolfn import (
    MAX_VARS,
    NPTransformation,
    TruthTable,
    apply_np_transform,
    compose,
    count_minterms,
    equal,
    negate,
)
from .matcher import (
    BudgetExceededError,
    MatchResult,
    Observer,
    VarMapping,
    Verdict,
    match_npn,
)
from .oracle import (
    enumerate_npn_classes,
    exhaustive_match,
    random_equivalent_pair,
    random_function,
)
from .symmetry import SymmetryClass, build_symmetry_classes
from .workbench import (
    ParseError,
    cli_dispatch,
    parse_function,
    serialize_function,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "MAX_VARS",
    "MatchResult",
    "NPTransformation",
    "Observer",
    "ParseError",
    "SymmetryClass",
    "TruthTable",
    "VarMapping",
    "Verdict",
    "apply_np_transform",
    "build_symmetry_classes",
    "cli_dispatch",
    "compose",
    "count_minterms",
    "enumerate_npn_classes",
    "equal",
    "exhaustive_match",
    "match_npn",
    "negate",
    "parse_function",
    "random_equivalent_pair",
    "random_function",
    "serialize_function",
]
