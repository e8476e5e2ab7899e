"""Physical operators of the REX engine (Sections 3 and 4 of the paper)."""

from repro.operators.base import (ExecContext, Operator, Probe, RuntimeHooks,
                                  SourceOperator)
from repro.operators.exchange import ExchangeReceiver, RehashSender
from repro.operators.expressions import (
    BinaryOp,
    BoolOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    TupleField,
    make_row_fn,
)
from repro.operators.fixpoint import FeedbackSource, Fixpoint
from repro.operators.fused import FusedKernel
from repro.operators.groupby import GroupBy
from repro.operators.join import HashJoin
from repro.operators.misc import REQUESTOR_NODE, Collect, ResultSink, Union
from repro.operators.stateless import (
    ApplyFunction,
    Filter,
    Project,
    TableScan,
)

__all__ = [
    "Operator",
    "SourceOperator",
    "ExecContext",
    "Probe",
    "RuntimeHooks",
    "TableScan",
    "Filter",
    "Project",
    "ApplyFunction",
    "FusedKernel",
    "HashJoin",
    "GroupBy",
    "Fixpoint",
    "FeedbackSource",
    "RehashSender",
    "ExchangeReceiver",
    "Union",
    "Collect",
    "ResultSink",
    "REQUESTOR_NODE",
    "Expr",
    "ColumnRef",
    "Literal",
    "BinaryOp",
    "BoolOp",
    "FuncCall",
    "TupleField",
    "make_row_fn",
]
