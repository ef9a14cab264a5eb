"""Exact small-graph width machinery with decomposition-rewriting operations.

Graphs are immutable; tree- and path-decompositions are first-class values
validated against their host graph; every graph operation that provably
bounds the width of its result can rewrite a decomposition to one matching
that bound, and a randomized harness replays all bounds against the exact
solvers.
"""

from .decomposition import (
    PathDecomposition,
    TreeDecomposition,
    ValidationReport,
    Violation,
    is_valid,
    remove_redundant_bags,
    tree_path_decomposition,
    tree_to_path,
    trivial_path_decomposition,
    trivial_tree_decomposition,
    validate,
    width,
)
from .errors import (
    CapabilityError,
    FormatError,
    InconsistencyError,
    ParameterError,
    ScriptError,
    ToolError,
)
from .exact import (
    SOLVER_MAX_VERTICES,
    WidthReport,
    exact_pathwidth,
    exact_treewidth,
    exact_width,
)
from .fileformats import (
    format_gr,
    format_td,
    parse_gr,
    parse_td,
    read_gr,
    read_td,
    write_gr,
    write_td,
)
from .graphs import Graph, generate, generator_names
from .harness import BoundCheck, SweepConfig, render_tap, run_suite
from .invariants import GraphInvariants, graph_invariants
from .minors import (
    MinorScript,
    apply_minor_script,
    classify_pathwidth_le_1,
    classify_treewidth_le,
    format_minor_script,
    is_minor,
    parse_minor_script,
    replay_lower_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "CapabilityError",
    "FormatError",
    "Graph",
    "GraphInvariants",
    "InconsistencyError",
    "MinorScript",
    "ParameterError",
    "PathDecomposition",
    "SOLVER_MAX_VERTICES",
    "ScriptError",
    "SweepConfig",
    "ToolError",
    "TreeDecomposition",
    "ValidationReport",
    "Violation",
    "WidthReport",
    "apply_minor_script",
    "classify_pathwidth_le_1",
    "classify_treewidth_le",
    "exact_pathwidth",
    "exact_treewidth",
    "exact_width",
    "format_gr",
    "format_minor_script",
    "format_td",
    "generate",
    "generator_names",
    "graph_invariants",
    "is_minor",
    "is_valid",
    "parse_gr",
    "parse_minor_script",
    "parse_td",
    "read_gr",
    "read_td",
    "remove_redundant_bags",
    "replay_lower_witness",
    "render_tap",
    "run_suite",
    "tree_path_decomposition",
    "tree_to_path",
    "trivial_path_decomposition",
    "trivial_tree_decomposition",
    "validate",
    "width",
    "write_gr",
    "write_td",
]
