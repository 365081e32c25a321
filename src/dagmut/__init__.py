"""Acyclic directed-graph models and their sum-of-products regular
expressions, kept synchronized under arc/node mutation operators.

The graph half designates start and finish nodes; the expression half is
the set of start-to-finish paths written as product terms.  Four operators
(arc insertion/omission, node insertion/omission) rewrite both halves in
lockstep, a brute-force reference implementation cross-checks every step,
and instrumented counters validate the operations' growth rates.

The package exports the library API of the README, the error classes and
the operator types; everything else is imported from its module
(``dagmut.graph``, ``dagmut.sopf``, ``dagmut.mutate``, ``dagmut.metrics``,
``dagmut.oracle``).
"""
from .errors import (
    CycleError,
    InsertionCycleError,
    ModelError,
    OperationError,
    ParseError,
    ScriptError,
)
from .graph import parse_graph
from .mutate import apply_script, model_from_graph
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit, parse_script
from .sopf import print_sopf

__version__ = "0.1.0"
