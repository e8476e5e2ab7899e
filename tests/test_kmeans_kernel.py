"""Listing 3's ``KMAgg`` against the per-point rule it vectorizes.

``ScalarKMAgg`` below is the handler's rule written one point at a time:
a loop over the bucket in row order, a pid-keyed assignment map, and one
float accumulator per centroid.  The kernel in ``repro.algorithms.kmeans``
must emit exactly its deltas (same order, float ``==``, Python payload
types) and keep exactly its per-point ``(cid, d2)``, on scripts that grow
the bucket between moves, retract and replace points, send NULL
centroids, and hit duplicate coordinates, exact distance ties and NaN.

The law tests check what the deltas mean: after every move each point
holds its nearest centroid, the running sum of each centroid's
adjustments is its members' ``Σ(x, y, 1)``, and ``CentroidAvg`` folds
those adjustments into each centroid's membership mean.
"""

import math
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms.kmeans as kmeans_module
from repro.algorithms import kmeans_plan
from repro.algorithms.kmeans import CentroidAvg, KMAgg
from repro.cluster import Cluster
from repro.common.deltas import Delta, DeltaOp, update
from repro.common.errors import UDFError
from repro.datasets.points import geo_points, sample_centroids
from repro.rql import RQLSession
from repro.runtime import ExecOptions, QueryExecutor
from repro.udf.aggregates import JoinDeltaHandler


class ScalarKMAgg(JoinDeltaHandler):
    """The per-point rule: one Python loop over the bucket per move."""

    name = "KMAgg"
    in_types = KMAgg.in_types
    out_types = KMAgg.out_types
    emits_polarity = KMAgg.emits_polarity
    reads = KMAgg.reads

    def __init__(self):
        super().__init__()
        self.centroids: Dict[int, Tuple[float, float]] = {}
        self.assign: Dict[int, Tuple[int, float]] = {}  # pid -> (cid, d2)
        self._cids: List[int] = []

    def _nearest(self, x, y):
        best_cid, best_d2 = -1, float("inf")
        for cid in self._cids:
            cx, cy = self.centroids[cid]
            dx = x - cx
            dy = y - cy
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best_cid, best_d2 = cid, d2
        return best_cid, best_d2

    def update(self, left_bucket, right_bucket, delta, side):
        cid, cx, cy = delta.row
        if cx is None or cy is None:
            return []
        if cid not in self.centroids:
            self._cids.append(cid)
            self._cids.sort()
        self.centroids[cid] = (cx, cy)
        adjustments: Dict[int, List[float]] = {}
        assign = self.assign

        def adjust(c, dx, dy, dn):
            acc = adjustments.setdefault(c, [0.0, 0.0, 0])
            acc[0] += dx
            acc[1] += dy
            acc[2] += dn

        for pid, x, y in left_bucket:
            current = assign.get(pid)
            dx = x - cx
            dy = y - cy
            new_d2 = dx * dx + dy * dy
            if current is None:
                assign[pid] = (cid, new_d2)
                adjust(cid, x, y, 1)
                continue
            cur_cid, cur_d2 = current
            if cur_cid == cid:
                if new_d2 <= cur_d2:
                    assign[pid] = (cid, new_d2)
                else:
                    best_cid, best_d2 = self._nearest(x, y)
                    assign[pid] = (best_cid, best_d2)
                    if best_cid != cid:
                        adjust(cid, -x, -y, -1)
                        adjust(best_cid, x, y, 1)
            elif new_d2 < cur_d2:
                assign[pid] = (cid, new_d2)
                adjust(cur_cid, -x, -y, -1)
                adjust(cid, x, y, 1)
        return [update((c,), payload=(dx, dy, dn))
                for c, (dx, dy, dn) in sorted(adjustments.items())
                if dx or dy or dn]


def kernel_assignments(handler: KMAgg) -> Dict[int, Tuple[int, float]]:
    """The kernel's pid -> (cid, d2), in the oracle's shape."""
    held = dict(handler._departed)
    for pid, on, cid, d2 in zip(handler.pid.tolist(),
                                handler.assigned.tolist(),
                                handler.cid.tolist(), handler.d2.tolist()):
        if on:
            held[pid] = (cid, d2)
    return held


def same_float(a, b) -> bool:
    """Bit-level float equality up to NaN payloads: ``==`` plus the sign
    of zero, and NaN matches NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_same_deltas(got: List[Delta], want: List[Delta]) -> None:
    assert [(d.op, d.row) for d in got] == [(d.op, d.row) for d in want]
    for g, w in zip(got, want):
        assert type(g.row[0]) is type(w.row[0]) is int
        gx, gy, gn = g.payload
        wx, wy, wn = w.payload
        assert type(gx) is type(gy) is float and type(gn) is int
        assert same_float(gx, wx) and same_float(gy, wy) and gn == wn


def assert_same_assignments(kernel: KMAgg, oracle: ScalarKMAgg) -> None:
    got = kernel_assignments(kernel)
    assert set(got) == set(oracle.assign)
    for pid, (cid, d2) in oracle.assign.items():
        assert got[pid][0] == cid and same_float(got[pid][1], d2), pid


# -- scripts ----------------------------------------------------------------
#: A coarse grid makes duplicate coordinates and exact distance ties
#: common; the extremes reach NaN (inf - inf) and overflow to inf.
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 4.0]),
    st.floats(-50.0, 50.0, allow_nan=False),
    st.sampled_from([math.nan, math.inf, 1e200]),
)
PIDS = st.integers(0, 11)
CIDS = st.integers(-1, 4)

STEP = st.one_of(
    st.tuples(st.just("move"), CIDS, COORDS, COORDS),
    st.tuples(st.just("null"), CIDS),
    st.tuples(st.just("grow"), st.lists(st.tuples(PIDS, COORDS, COORDS),
                                        max_size=4)),
    st.tuples(st.just("retract"), st.integers(0, 20)),
    st.tuples(st.just("replace"), st.integers(0, 20), COORDS, COORDS),
)


def play(script, on_move):
    """Run one script through a kernel and the oracle sharing one bucket,
    mutated the way the join mutates it: appends, ``list.remove`` and
    in-place replacement.  Calls ``on_move(kernel, oracle, got, want)``
    after each centroid delta."""
    kernel, oracle = KMAgg(), ScalarKMAgg()
    bucket: list = []
    for step in script:
        kind = step[0]
        if kind == "grow":
            present = {row[0] for row in bucket}
            for row in step[1]:
                if row[0] not in present:
                    present.add(row[0])
                    bucket.append(row)
        elif kind == "retract":
            if bucket:
                bucket.remove(bucket[step[1] % len(bucket)])
        elif kind == "replace":
            if bucket:
                at = step[1] % len(bucket)
                bucket[at] = (bucket[at][0], step[2], step[3])
        else:
            row = ((step[1], None, None) if kind == "null"
                   else (step[1], step[2], step[3]))
            delta = update(row, payload=None)
            got = kernel.update(bucket, [], delta, 1)
            want = oracle.update(bucket, [], delta, 1)
            on_move(kernel, oracle, got, want)


class TestBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(STEP, max_size=30))
    def test_kernel_matches_scalar_rule(self, script):
        def check(kernel, oracle, got, want):
            assert_same_deltas(got, want)
            assert_same_assignments(kernel, oracle)
        play(script, check)

    def test_exact_ties(self):
        # (0, 0) is at distance 1 from centroids 2, 3 and 1: an equally
        # near centroid does not steal it, and when its own centroid
        # leaves, the nearest scan keeps the first of the tied cids.
        script = [("grow", [(7, 0.0, 0.0)]),
                  ("move", 2, -1.0, 0.0), ("move", 3, 0.0, 1.0),
                  ("move", 1, 1.0, 0.0), ("move", 2, -5.0, 0.0)]
        moves = []
        play(script, lambda k, o, got, want: moves.append((got, want)))
        for got, want in moves:
            assert_same_deltas(got, want)
        assert [got for got, _ in moves[1:3]] == [[], []]
        assert moves[-1][0] == [update((1,), payload=(0.0, 0.0, 1)),
                                update((2,), payload=(-0.0, -0.0, -1))]

    def test_empty_bucket_and_null_centroid_emit_nothing(self):
        handler = KMAgg()
        assert handler.update([], [], update((0, 1.0, 1.0), None), 1) == []
        bucket = [(1, 0.0, 0.0)]
        assert handler.update(bucket, [], update((3, None, 2.0), None),
                              1) == []
        assert handler.update(bucket, [], update((3, 1.0, 1.0), None),
                              1) == [update((3,), payload=(0.0, 0.0, 1))]

    def test_repeated_pid_is_refused(self):
        handler = KMAgg()
        bucket = [(1, 0.0, 0.0), (1, 5.0, 5.0)]
        with pytest.raises(UDFError, match="pid appears twice"):
            handler.update(bucket, [], update((0, 1.0, 1.0), None), 1)
        handler = KMAgg()
        bucket = [(1, 0.0, 0.0)]
        handler.update(bucket, [], update((0, 1.0, 1.0), None), 1)
        bucket.append((1, 5.0, 5.0))
        with pytest.raises(UDFError, match="pid appears twice"):
            handler.update(bucket, [], update((0, 2.0, 1.0), None), 1)

    def test_non_integer_cid_is_refused(self):
        with pytest.raises(UDFError, match="not an integer"):
            KMAgg().update([(1, 0.0, 0.0)], [], update((0.5, 1.0, 1.0),
                                                       None), 1)


# -- laws -------------------------------------------------------------------
FINITE = st.floats(-20.0, 20.0, allow_nan=False)
POINT_SETS = st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=25)
MOVES = st.lists(st.tuples(st.integers(0, 4), FINITE, FINITE),
                 min_size=1, max_size=25)
TOL = 1e-6


class TestLaws:
    @settings(max_examples=200, deadline=None)
    @given(POINT_SETS, MOVES)
    def test_adjustments_track_nearest_membership(self, coords, moves):
        bucket = [(pid, x, y) for pid, (x, y) in enumerate(coords)]
        handler = KMAgg()
        avg = CentroidAvg()
        running: Dict[int, List[float]] = {}
        states: Dict[int, dict] = {}
        known: Dict[int, Tuple[float, float]] = {}
        for cid, cx, cy in moves:
            known[cid] = (cx, cy)
            out = handler.update(bucket, [], update((cid, cx, cy), None), 1)
            assert {d.op for d in out} <= handler.emits_polarity
            for d in out:
                c = d.row[0]
                acc = running.setdefault(c, [0.0, 0.0, 0])
                for i in range(3):
                    acc[i] += d.payload[i]
                states[c] = avg.agg_state(
                    states.get(c, avg.init_state()), d, None)
            members: Dict[int, List[Tuple[float, float]]] = {}
            for pid, x, y in bucket:
                at = handler.pid.tolist().index(pid)
                cid_of = handler.cid[at]
                d2 = handler.d2[at]
                nearest = min((x - kx) * (x - kx) + (y - ky) * (y - ky)
                              for kx, ky in known.values())
                assert d2 == nearest
                members.setdefault(int(cid_of), []).append((x, y))
            for c in set(running) | set(members):
                pts = members.get(c, [])
                sx, sy, n = running.get(c, [0.0, 0.0, 0])
                assert n == len(pts)
                assert math.isclose(sx, sum(p[0] for p in pts), abs_tol=TOL)
                assert math.isclose(sy, sum(p[1] for p in pts), abs_tol=TOL)
                mean = avg.agg_result(states.get(c, avg.init_state()))
                if not pts:
                    assert mean is None
                    continue
                assert math.isclose(mean[0], sum(p[0] for p in pts)
                                    / len(pts), abs_tol=TOL)
                assert math.isclose(mean[1], sum(p[1] for p in pts)
                                    / len(pts), abs_tol=TOL)

    def test_centroid_avg_refuses_non_adjustments(self):
        avg = CentroidAvg()
        with pytest.raises(UDFError):
            avg.agg_state(avg.init_state(),
                          Delta(DeltaOp.INSERT, (0, 1.0, 1.0)), None)


# -- end to end -------------------------------------------------------------
POINT_SCHEMA = ["pid:Integer", "x:Double", "y:Double"]
CENTROID_SCHEMA = ["cid:Integer", "x:Double", "y:Double"]

LISTING3 = """
    WITH KM (cid, x, y) AS (
      SELECT cid, x, y FROM centroids0
    ) UNION ALL UNTIL FIXPOINT BY cid (
      SELECT cid, CentroidAvg(xDiff, yDiff).{x, y}
      FROM ( SELECT cid, KMAgg(cid, cx, cy).{cid, xDiff, yDiff}
             FROM points, KM GROUP BY cid ) GROUP BY cid)
"""


def _cluster(seed, n, k, nodes):
    points = geo_points(n, k, seed=seed, spread=3.0)
    centroids = sample_centroids(points, k, seed=seed + 1)
    cluster = Cluster(nodes)
    cluster.create_table("points", POINT_SCHEMA, points, None)
    cluster.create_table("centroids0", CENTROID_SCHEMA, centroids, "cid")
    return cluster


CASES = [(seed, n, k, nodes) for seed in (1, 2) for n, k in ((60, 3),
                                                            (300, 5))
         for nodes in (1, 3)]


@pytest.mark.parametrize("seed,n,k,nodes", CASES)
def test_plan_matches_scalar_rule(monkeypatch, seed, n, k, nodes):
    def run():
        opts = ExecOptions()
        opts.max_strata = 40
        return QueryExecutor(_cluster(seed, n, k, nodes), opts).execute(
            kmeans_plan())
    kernel = run()
    monkeypatch.setattr(kmeans_module, "KMAgg", ScalarKMAgg)
    scalar = run()
    assert kernel.rows == scalar.rows
    assert kernel.metrics.fingerprint() == scalar.metrics.fingerprint()


@pytest.mark.parametrize("seed,n,k,nodes", CASES[::3])
def test_listing3_matches_scalar_rule(seed, n, k, nodes):
    def run(handler):
        session = RQLSession(_cluster(seed, n, k, nodes))
        session.register(handler, name="KMAgg")
        session.register(CentroidAvg, name="CentroidAvg")
        return session.execute(LISTING3)
    kernel, scalar = run(KMAgg), run(ScalarKMAgg)
    assert sorted(kernel.rows) == sorted(scalar.rows)
    assert kernel.metrics.fingerprint() == scalar.metrics.fingerprint()
