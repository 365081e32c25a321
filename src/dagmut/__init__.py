"""Acyclic directed-graph models and their sum-of-products regular
expressions, kept synchronized under arc/node mutation operators.

The graph half designates start and finish nodes; the expression half is
the set of start-to-finish paths written as product terms.  Four operators
(arc insertion/omission, node insertion/omission) rewrite both halves in
lockstep, a brute-force reference implementation cross-checks every step,
and instrumented counters validate the operations' growth rates.
"""
from .errors import CycleError, ModelError, OperationError, ParseError, ScriptError
from .graph import (
    Dg,
    apply_dg_op,
    enumerate_paths,
    parse_graph,
    path_exists,
    render_graph,
    validate_acyclic,
)
from .metrics import BOUND_EXPONENTS, SLACK, OpCounters, TrendReport, measure, trend
from .mutate import (
    LogEntry,
    ModelState,
    MutationLog,
    apply_op,
    apply_script,
    arc_insert,
    arc_omit,
    model_from_graph,
    node_insert,
    node_omit,
)
from .ops import (
    ArcInsert,
    ArcOmit,
    MutationOp,
    NodeInsert,
    NodeOmit,
    format_op,
    format_script,
    parse_script,
)
from .oracle import (
    GenConfig,
    NaiveLang,
    VerifyReport,
    equivalent,
    random_model,
    random_script,
    ref_apply,
    run_differential,
)
from .sopf import SopfRe, parse_sopf, print_sopf

__version__ = "0.1.0"
