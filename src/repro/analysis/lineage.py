"""Column-lineage & UDF-effect analysis (REX400-403, REX407).

Where :mod:`repro.analysis.absint` abstracts *which delta kinds* flow
along each edge of the lowered physical plan, this pass abstracts *which
columns* do.  Two directions compose:

* **arity inference** (bottom-up) — how many columns each node's output
  rows carry.  Scans take their width from the catalog (when the caller
  supplies a ``table_arity`` map), projections from their row function's
  tuple-literal return, handler joins from the handler's declared
  ``out_types``; anything else is widened to "unknown".
* **demand propagation** (top-down) — which output positions are *live*,
  i.e. read by at least one downstream consumer.  The query result
  demands every column; a Project demands exactly its row function's
  read-set; a GroupBy demands its key function's and aggregate
  arguments' read-sets; a handler join widens both inputs (bucket
  contents escape into the handler opaquely).  Feedback edges are
  iterated to a fixed point exactly as absint does.

Read-sets come from :mod:`repro.analysis.effects` — an AST extraction
over the callable's source — cross-checked against any declared
``reads=`` metadata on UDFs and delta handlers.  The demand abstraction
:class:`Live` carries an ``exact`` bit with the same soundness contract
as absint's :class:`~repro.analysis.absint.Polarity`: verdicts and
rewrites are built only on exact facts; an escape or an opaque callable
widens to "assume everything is read" and the pass stays silent.

Verdicts:

* **REX400** — a producer's output column is never read downstream.
* **REX401** — a body reads an attribute its ``reads=`` omits.
* **REX402** — a ``reads=`` declaration names an attribute the body
  provably never reads (exact extractions only).
* **REX403** — a key function reads a position beyond its input's known
  arity: the key column was projected away upstream (error).
* **REX407** — an opaque callable widened the analysis.

REX404-REX406 are not this pass's verdicts: they are the decisions of
the rewrite pass (:mod:`repro.optimizer.rewrite`), which reads these
facts together with absint's polarity.  The analyzer runs that pass on
the facts of its one inference and reports each decision at its path
(declined → REX404, filter pushdown → REX405, exchange narrowing →
REX406), so legality is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.analysis.absint import PlanFacts, split_plan
from repro.analysis.diagnostics import Diagnostic, make
from repro.analysis.effects import (
    EffectSummary,
    OPAQUE,
    check_declaration,
    extract_effects,
    extract_handler_effects,
)
from repro.runtime.plan import (
    PApply,
    PFeedback,
    PFilter,
    PFixpoint,
    PGroupBy,
    PJoin,
    PNode,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
    instantiate,
)

#: Upper bound on feedback-demand iterations.  Demand sets only grow and
#: the exact bit only clears, so the loop converges quickly; 8 matches
#: absint's cap.
MAX_PASSES = 8


@dataclass(frozen=True)
class Live:
    """The demand abstraction for one plan edge.

    ``exact=True`` means *exactly* the positions in ``cols`` are read by
    downstream consumers — a proof dead-column verdicts and narrowing
    rewrites may be built on.  ``exact=False`` means the demand is
    unknown (a row escaped into an opaque consumer): every position must
    be assumed live and ``cols`` is meaningless.
    """

    cols: FrozenSet[int] = frozenset()
    exact: bool = True

    def join(self, other: "Live") -> "Live":
        return Live(self.cols | other.cols, self.exact and other.exact)

    @property
    def name(self) -> str:
        if not self.exact:
            return "all?"
        if not self.cols:
            return "∅"
        return "{" + ",".join(str(c) for c in sorted(self.cols)) + "}"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Live({self.name})"


#: Demand placed by a consumer that may read anything.
ALL = Live(frozenset(), False)
#: No demand (the bottom of the lattice; feedback iteration seed).
NONE = Live(frozenset(), True)


def live_all(arity: Optional[int]) -> Live:
    """Full demand: every position of a known width, else widened."""
    if arity is None:
        return ALL
    return Live(frozenset(range(arity)), True)


@dataclass
class NodeLineage:
    """Everything the analysis inferred about one plan node."""

    path: str
    label: str
    #: Number of columns in this node's output rows (None = unknown).
    out_arity: Optional[int]
    #: Demand on this node's *output* edge (what downstream reads).
    live: Live
    #: Demand this node places on its input edge(s), joined.
    in_live: Optional[Live] = None
    #: Positions of the input row this node's own callables read.
    reads: Optional[FrozenSet[int]] = None
    reads_exact: bool = False
    #: Re-evaluation safety of this node's callables (None = n/a).
    pure: Optional[bool] = None

    def to_dict(self) -> Dict:
        doc: Dict = {
            "path": self.path,
            "label": self.label,
            "live": sorted(self.live.cols) if self.live.exact else None,
            "live_exact": self.live.exact,
        }
        if self.out_arity is not None:
            doc["out_arity"] = self.out_arity
        if self.in_live is not None:
            doc["input_live"] = (sorted(self.in_live.cols)
                                 if self.in_live.exact else None)
            doc["input_live_exact"] = self.in_live.exact
        if self.reads is not None:
            doc["reads"] = sorted(self.reads)
            doc["reads_exact"] = self.reads_exact
        if self.pure is not None:
            doc["pure"] = self.pure
        return doc

    def annotation(self) -> str:
        """Compact EXPLAIN column, e.g. ``live={0,1}/3``."""
        text = f"live={self.live.name}"
        if self.out_arity is not None:
            text += f"/{self.out_arity}"
        return text


def _reads_live(summary: EffectSummary) -> Live:
    """A callable's read-set as the demand it places on its input."""
    if not summary.proves_reads():
        return ALL
    return Live(summary.reads, True)


def _udf_callable(udf):
    """The row-level function behind a UDF object, for extraction."""
    inner = getattr(udf, "fn", None)
    if inner is not None and callable(inner):
        return inner
    call = getattr(type(udf), "__call__", None)
    return call if call is not None else None


# ---------------------------------------------------------------------------
# Physical pass
# ---------------------------------------------------------------------------


class _PhysicalLineage:
    """One top-down demand evaluation over a physical tree, with the
    feedback edge's demand held constant (supplied by the outer
    iteration).  Arity inference runs inline: children are evaluated
    before the parent's input demand is final, so arity (a bottom-up
    fact) is computed in :meth:`_arity` passes over the same recursion.
    """

    def __init__(self, table_arity: Optional[Dict[str, int]],
                 feedback_demand: Live, fixpoint_arity: Optional[int]):
        self.table_arity = table_arity or {}
        self.feedback_demand = feedback_demand
        self.fixpoint_arity = fixpoint_arity
        #: Demand observed arriving at PFeedback leaves this pass.
        self.observed_feedback = NONE
        self.fixpoint_out_arity: Optional[int] = None
        self.nodes: List[NodeLineage] = []
        self.by_id: Dict[int, NodeLineage] = {}
        self.diagnostics: List[Diagnostic] = []

    # -- shared helpers --------------------------------------------------
    def _record(self, node, lin: NodeLineage) -> NodeLineage:
        self.nodes.append(lin)
        self.by_id[id(node)] = lin
        return lin

    def _emit(self, code: str, message: str, location: str,
              hint: str = "") -> None:
        self.diagnostics.append(make(code, message, location=location,
                                     hint=hint))

    def _effects(self, fn) -> EffectSummary:
        return OPAQUE if fn is None else extract_effects(fn)

    def _note_opaque(self, what: str, path: str,
                     summary: EffectSummary) -> None:
        if summary.opaque:
            self._emit("REX407",
                       f"{what} has no retrievable source; the column "
                       "analysis assumes it reads and produces everything",
                       path,
                       hint="declare reads= metadata (or use a plain "
                            "def/lambda) to restore precision")

    def _check_key_arity(self, what: str, path: str,
                         key_reads: EffectSummary,
                         in_arity: Optional[int]) -> None:
        """REX403: the key function reads past the known input width."""
        if in_arity is None or key_reads.opaque:
            return
        beyond = {i for i in key_reads.reads if i >= in_arity}
        if beyond:
            self._emit("REX403",
                       f"{what} key function reads position"
                       f"{'s' if len(beyond) > 1 else ''} "
                       f"{sorted(beyond)} but its input rows carry only "
                       f"{in_arity} column(s): the key column was "
                       "projected away upstream",
                       path,
                       hint="keep the key column in every upstream "
                            "projection (or re-key before narrowing)")

    def _check_dead_columns(self, label: str, path: str, demand: Live,
                            out_arity: Optional[int]) -> None:
        """REX400 at a column-producing node."""
        if out_arity is None or not demand.exact:
            return
        dead = sorted(set(range(out_arity)) - demand.cols)
        if dead:
            self._emit("REX400",
                       f"column{'s' if len(dead) > 1 else ''} {dead} of "
                       f"{label} {'are' if len(dead) > 1 else 'is'} never "
                       "read by any downstream operator",
                       path,
                       hint="drop the dead column(s) from the projection, "
                            "or let ExecOptions(rewrite=True) narrow the "
                            "plan when the polarity proof allows it")

    def _check_declared(self, what: str, path: str, obj,
                        summary: EffectSummary) -> None:
        """REX401/REX402 against a reads= declaration."""
        undeclared, overdeclared = check_declaration(obj, summary)
        if undeclared:
            self._emit("REX401",
                       f"{what} reads row position"
                       f"{'s' if len(undeclared) > 1 else ''} "
                       f"{sorted(undeclared)} not covered by its declared "
                       f"reads= metadata",
                       path,
                       hint="extend reads= to cover every attribute the "
                            "body touches; the planner trusts it")
        if overdeclared:
            self._emit("REX402",
                       f"{what} declares reads= position"
                       f"{'s' if len(overdeclared) > 1 else ''} "
                       f"{sorted(overdeclared)} that its body provably "
                       "never reads",
                       path,
                       hint="trim the declaration; stale reads= metadata "
                            "blocks narrowing rewrites for nothing")

    # -- bottom-up arity --------------------------------------------------
    def _arity(self, node: PNode) -> Optional[int]:
        if isinstance(node, PScan):
            return self.table_arity.get(node.table)
        if isinstance(node, PFeedback):
            return self.fixpoint_arity
        if isinstance(node, (PFilter, PRehash)):
            return self._arity(node.children[0])
        if isinstance(node, PProject):
            return self._effects(node.row_fn).out_arity
        if isinstance(node, PApply):
            udf = instantiate(node.udf_factory)
            produced = (len(udf.out_types)
                        if udf is not None
                        and getattr(udf, "out_types", None) else None)
            if node.mode == "replace":
                return produced
            child = self._arity(node.children[0])
            if child is None or produced is None:
                return None
            return child + produced
        if isinstance(node, PJoin):
            if node.handler_factory is not None:
                handler = instantiate(node.handler_factory)
                out_types = getattr(handler, "out_types", None)
                return len(out_types) if out_types else None
            left = self._arity(node.children[0])
            right = self._arity(node.children[1])
            if left is None or right is None:
                return None
            return left + right
        if isinstance(node, PGroupBy):
            key_arity = self._effects(node.key_fn).out_arity
            specs = instantiate(node.specs_factory)
            if key_arity is None or specs is None:
                return None
            # Tuple-valued aggregate results (ArgMin over several
            # columns, CentroidAvg's (x, y) mean) still occupy one
            # output slot each: the group-by emits key + one value per
            # spec and downstream projections unpack the tuples.
            return key_arity + len(specs)
        # PUnion / PFixpoint / PCollect: children must be union-compatible.
        widths = {self._arity(child) for child in node.children}
        widths.discard(None)
        return widths.pop() if len(widths) == 1 else None

    # -- top-down demand --------------------------------------------------
    def eval(self, node: PNode, demand: Live, path: str = "") -> None:
        name = node.kind
        here = f"{path}/{name}" if path else name
        out_arity = self._arity(node)
        reads: Optional[FrozenSet[int]] = None
        reads_exact = False
        pure: Optional[bool] = None
        in_live: Optional[Live] = None

        if isinstance(node, PScan):
            # An unused scan column is not a plan defect (base tables
            # rarely match a query's shape exactly); narrowing licenses
            # (REX406) cover the case where it costs wire bytes.  REX400
            # is reserved for *computed* columns nobody reads.
            pass
        elif isinstance(node, PFeedback):
            self.observed_feedback = self.observed_feedback.join(demand)
        elif isinstance(node, PFilter):
            summary = self._effects(node.predicate)
            self._note_opaque("filter predicate", here, summary)
            reads, reads_exact = summary.reads, summary.proves_reads()
            pure = summary.pure and not summary.opaque
            in_live = demand.join(_reads_live(summary))
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PProject):
            summary = self._effects(node.row_fn)
            self._note_opaque("projection row function", here, summary)
            self._check_dead_columns("Project", here, demand, out_arity)
            reads, reads_exact = summary.reads, summary.proves_reads()
            pure = summary.pure and not summary.opaque
            in_live = _reads_live(summary)
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PApply):
            in_live = self._eval_apply(node, demand, here)
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PRehash):
            in_live = demand
            if node.key_fn is not None:
                summary = self._effects(node.key_fn)
                self._note_opaque("rehash key function", here, summary)
                reads, reads_exact = summary.reads, summary.proves_reads()
                child_arity = self._arity(node.children[0])
                self._check_key_arity("Rehash", here, summary, child_arity)
                in_live = demand.join(_reads_live(summary))
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PJoin):
            in_live = self._eval_join(node, demand, here)
        elif isinstance(node, PGroupBy):
            in_live = self._eval_groupby(node, demand, here)
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PFixpoint):
            in_live = self._eval_fixpoint(node, demand, here)
        else:  # PUnion, PCollect, unknown passthroughs
            in_live = demand
            for child in node.children:
                self.eval(child, demand, here)

        self._record(node, NodeLineage(
            path=here, label=name, out_arity=out_arity, live=demand,
            in_live=in_live, reads=reads, reads_exact=reads_exact,
            pure=pure))

    def _eval_apply(self, node: PApply, demand: Live, here: str) -> Live:
        udf = instantiate(node.udf_factory)
        arg_summary = self._effects(node.arg_fn)
        self._note_opaque("applyFunction argument builder", here,
                          arg_summary)
        udf_fn = _udf_callable(udf) if udf is not None else None
        udf_summary = self._effects(udf_fn)
        if udf is not None:
            self._check_declared(
                f"UDF {getattr(udf, 'name', 'udf')!r}", here, udf,
                udf_summary)
        # No REX400 here: an applyFunction's columns are its input's and
        # the UDF's declared outputs, fixed like a scan's (a query that
        # selects ``f(x).{a}`` cannot drop ``f``'s other outputs).
        in_live = _reads_live(arg_summary)
        if node.mode == "extend":
            child_arity = self._arity(node.children[0])
            if demand.exact and child_arity is not None:
                passthrough = Live(
                    frozenset(c for c in demand.cols if c < child_arity),
                    True)
            else:
                passthrough = ALL
            in_live = in_live.join(passthrough)
        return in_live

    def _eval_join(self, node: PJoin, demand: Live, here: str) -> Live:
        if node.handler_factory is not None:
            handler = instantiate(node.handler_factory)
            summary = extract_handler_effects(type(handler)) \
                if handler is not None else OPAQUE
            if handler is not None:
                self._check_declared(
                    f"join delta handler {handler.name!r}", here, handler,
                    summary)
            # Bucket rows escape whole into the handler's bucket
            # arguments: both inputs must be assumed fully read.
            for child in node.children:
                self.eval(child, ALL, here)
            return ALL
        left_arity = self._arity(node.children[0])
        left_key = self._effects(node.left_key)
        right_key = self._effects(node.right_key)
        self._check_key_arity("Join(left)", here, left_key, left_arity)
        self._check_key_arity("Join(right)", here, right_key,
                              self._arity(node.children[1]))
        if demand.exact and left_arity is not None:
            left_demand = Live(
                frozenset(c for c in demand.cols if c < left_arity), True)
            right_demand = Live(
                frozenset(c - left_arity for c in demand.cols
                          if c >= left_arity), True)
        else:
            left_demand = right_demand = ALL
        left_demand = left_demand.join(_reads_live(left_key))
        right_demand = right_demand.join(_reads_live(right_key))
        self.eval(node.children[0], left_demand, here)
        self.eval(node.children[1], right_demand, here)
        return left_demand.join(right_demand)

    def _eval_groupby(self, node: PGroupBy, demand: Live,
                      here: str) -> Live:
        key_summary = self._effects(node.key_fn)
        self._note_opaque("group-by key function", here, key_summary)
        self._check_key_arity("GroupBy", here, key_summary,
                              self._arity(node.children[0]))
        self._check_dead_columns("GroupBy", here, demand,
                                 self._arity(node))
        in_live = _reads_live(key_summary)
        specs = instantiate(node.specs_factory)
        if specs is None:
            return ALL
        for spec in specs:
            arg_summary = self._effects(spec.arg)
            self._note_opaque(
                f"aggregate argument of {spec.aggregator.name!r}", here,
                arg_summary)
            in_live = in_live.join(_reads_live(arg_summary))
        return in_live

    def _eval_fixpoint(self, node: PFixpoint, demand: Live,
                       here: str) -> Live:
        self.fixpoint_out_arity = self._arity(node)
        body_demand = demand.join(self.feedback_demand)
        if node.key_fn is not None:
            key_summary = self._effects(node.key_fn)
            self._note_opaque("fixpoint key function", here, key_summary)
            for child in node.children:
                self._check_key_arity("Fixpoint", here, key_summary,
                                      self._arity(child))
            body_demand = body_demand.join(_reads_live(key_summary))
        if node.while_handler_factory is not None:
            handler = instantiate(node.while_handler_factory)
            summary = extract_handler_effects(type(handler)) \
                if handler is not None else OPAQUE
            if handler is not None:
                self._check_declared(
                    f"while delta handler {handler.name!r}", here, handler,
                    summary)
            body_demand = body_demand.join(_reads_live(summary))
        for child in node.children:
            self.eval(child, body_demand, here)
        return body_demand

# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def infer_lineage(plan: Union[PhysicalPlan, PNode],
                  table_arity: Optional[Dict[str, int]] = None
                  ) -> Tuple[PlanFacts, List[Diagnostic]]:
    """Run the column-lineage analysis to a fixed point over the feedback
    edge; returns (per-node lineage, REX40x diagnostics).

    ``table_arity`` maps table names to their column counts (the
    executor supplies it from the catalog); without it scans have
    unknown width and verdicts that need it are withheld.

    The tree must be unfused: every caller analyses ``lower()`` output
    or the executor's tree before :func:`~repro.optimizer.fusion.
    fuse_plan` runs (the executor rewrites, then fuses).
    """
    root, origins = split_plan(plan)
    feedback = NONE
    fixpoint_arity: Optional[int] = None
    run = None
    for _ in range(MAX_PASSES):
        run = _PhysicalLineage(table_arity, feedback, fixpoint_arity)
        run.eval(root, live_all(run._arity(root)))
        merged = feedback.join(run.observed_feedback)
        converged = (merged == feedback
                     and run.fixpoint_out_arity == fixpoint_arity)
        fixpoint_arity = run.fixpoint_out_arity
        if converged:
            break
        feedback = merged
    return PlanFacts(run.nodes, run.by_id, origins), run.diagnostics
