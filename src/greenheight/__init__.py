"""Finite-semigroup computation: Green's relation posets and heights,
ideal-type subsets with relative heights, height bounds with reports,
string-rewriting presentations, and reference constructions.
"""

from . import constructions
from .core import (
    FiniteSemigroup,
    SubsetHandle,
    closure_violation,
    format_table_text,
    from_table,
    parse_table_text,
)
from .errors import (
    CapExceeded,
    EngineBug,
    NotAssociative,
    NotClosed,
    NotConfluent,
    ParseError,
)
from .green import (
    ClassPoset,
    InverseStructure,
    class_poset,
    height,
    inverse_structure,
    leq,
)
from .ideals import (
    IDEAL_KINDS,
    BoundReport,
    bound_report,
    bound_verdict,
    chain_param,
    generate,
    relative_height,
)
from .rewriting import (
    ZERO,
    CriticalPair,
    RewritingSystem,
    Rule,
    critical_pairs,
    element_index,
    format_presentation,
    is_complete,
    parse_presentation,
    reduce_word,
    semigroup_from_presentation,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapExceeded",
    "ClassPoset",
    "CriticalPair",
    "EngineBug",
    "FiniteSemigroup",
    "IDEAL_KINDS",
    "InverseStructure",
    "NotAssociative",
    "NotClosed",
    "NotConfluent",
    "ParseError",
    "RewritingSystem",
    "Rule",
    "SubsetHandle",
    "ZERO",
    "bound_report",
    "bound_verdict",
    "chain_param",
    "class_poset",
    "closure_violation",
    "constructions",
    "critical_pairs",
    "element_index",
    "format_presentation",
    "format_table_text",
    "from_table",
    "generate",
    "height",
    "inverse_structure",
    "is_complete",
    "leq",
    "parse_presentation",
    "parse_table_text",
    "reduce_word",
    "relative_height",
    "semigroup_from_presentation",
]
