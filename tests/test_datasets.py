"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    dbpedia_like,
    geo_points,
    lineitem,
    sample_centroids,
    twitter_like,
)


def degree_stats(edges):
    out_deg, in_deg = {}, {}
    for s, d in edges:
        out_deg[s] = out_deg.get(s, 0) + 1
        in_deg[d] = in_deg.get(d, 0) + 1
    return out_deg, in_deg


class TestDbpediaLike:
    def test_deterministic(self):
        assert dbpedia_like(500, seed=1) == dbpedia_like(500, seed=1)
        assert dbpedia_like(500, seed=1) != dbpedia_like(500, seed=2)

    def test_every_vertex_has_in_and_out_edges(self):
        edges = dbpedia_like(400)
        out_deg, in_deg = degree_stats(edges)
        for v in range(400):
            assert out_deg.get(v, 0) >= 1, f"vertex {v} has no out-edges"
            assert in_deg.get(v, 0) >= 1, f"vertex {v} has no in-edges"

    def test_no_self_loops(self):
        assert all(s != d for s, d in dbpedia_like(300))

    def test_in_degree_skew(self):
        """Power-law-ish: the top 1% of vertices attract a fat share."""
        edges = dbpedia_like(1000, avg_out_degree=10)
        _, in_deg = degree_stats(edges)
        degrees = sorted(in_deg.values(), reverse=True)
        top = sum(degrees[:10])
        assert top > 0.08 * len(edges)

    def test_size_scales(self):
        small = dbpedia_like(200, avg_out_degree=5)
        big = dbpedia_like(200, avg_out_degree=15)
        assert len(big) > len(small)


class TestTwitterLike:
    def test_deterministic(self):
        assert twitter_like(500, seed=3) == twitter_like(500, seed=3)

    def test_start_vertex_chain_delays_frontier(self):
        """BFS from the start vertex: tiny frontier for the chain hops,
        explosion once the core is reached (Figure 9b's shape)."""
        from repro.algorithms.reference import sssp_reference

        edges = twitter_like(2000, seed=5, chain_hops=6)
        dist = sssp_reference(edges, 0)
        sizes = {}
        for v, d in dist.items():
            sizes[d] = sizes.get(d, 0) + 1
        # Hops 1..6 stay on the chain (size 1); after the core, explosion.
        for hop in range(1, 6):
            assert sizes.get(hop, 0) <= 3
        explosion = max(sizes.get(7, 0), sizes.get(8, 0), sizes.get(9, 0))
        assert explosion > 50

    def test_all_vertices_covered(self):
        edges = twitter_like(400)
        out_deg, in_deg = degree_stats(edges)
        for v in range(400):
            assert out_deg.get(v, 0) >= 1
            assert in_deg.get(v, 0) >= 1


class TestGeoPoints:
    def test_count_and_shape(self):
        pts = geo_points(100, n_clusters=4)
        assert len(pts) == 100
        assert all(len(p) == 3 for p in pts)
        assert [p[0] for p in pts] == list(range(100))

    def test_replication_enlarges(self):
        assert len(geo_points(50, replicate=10)) == 500

    def test_deterministic(self):
        assert geo_points(50, seed=9) == geo_points(50, seed=9)

    def test_clustered_structure(self):
        """Points should be far tighter around their mixture centers than a
        uniform cloud would be."""
        pts = np.array([(x, y) for _, x, y in
                        geo_points(500, n_clusters=3, spread=0.5, seed=2)])
        from repro.algorithms.reference import kmeans_reference

        cents, assign, _ = kmeans_reference(
            [(i, float(x), float(y)) for i, (x, y) in enumerate(pts)],
            [(0, *pts[0]), (1, *pts[100]), (2, *pts[200])])
        within = 0.0
        for i, (x, y) in enumerate(pts):
            cx, cy = cents[assign[i]]
            within += (x - cx) ** 2 + (y - cy) ** 2
        total_var = float(((pts - pts.mean(axis=0)) ** 2).sum())
        # K-means over genuinely clustered data must explain most variance.
        assert within < 0.5 * total_var


class TestSampleCentroids:
    def test_samples_from_points(self):
        pts = geo_points(100)
        cents = sample_centroids(pts, 5)
        assert len(cents) == 5
        coords = {(x, y) for _, x, y in pts}
        assert all((x, y) in coords for _, x, y in cents)
        assert [c[0] for c in cents] == list(range(5))

    def test_k_clipped(self):
        assert len(sample_centroids(geo_points(3), 10)) == 3


class TestLineitem:
    def test_row_count(self):
        assert len(lineitem(1000)) == 1000

    def test_deterministic(self):
        assert lineitem(200, seed=1) == lineitem(200, seed=1)

    def test_column_domains(self):
        rows = lineitem(500)
        for orderkey, linenumber, qty, price, disc, tax in rows:
            assert 1 <= linenumber <= 7
            assert 1 <= qty <= 50
            assert 0.0 <= tax <= 0.08
            assert 0.0 <= disc <= 0.10

    def test_selection_selectivity(self):
        """linenumber > 1 keeps a substantial but partial fraction."""
        rows = lineitem(2000)
        kept = sum(1 for r in rows if r[1] > 1)
        assert 0.4 * len(rows) < kept < 0.9 * len(rows)


#: sha256 of ``repr(rows)`` per (generator, seed).  Every figure and
#: benchmark workload reads these generators, so a speed-up of one must
#: leave its seeded output bit-identical.
PINNED = {
    ("lineitem", 1):
        "09639beec04323e855a40ef675c8b75d10be0c07d047fd1d491430bbf0848054",
    ("lineitem", 7):
        "ffcf1d818f86e91eaa970ba26a174091d7f6b2d0737b53f8310beb34d8e282ac",
    ("dbpedia_like", 1):
        "241e455d0f57d6f2d264b1be1a46c61b6ad7c58cbb61f7eae4d012a04db71131",
    ("dbpedia_like", 7):
        "acf0908d57a8c6db5020eaad680141f4aae8ed8248c1058896a60774f8a0cb14",
    ("twitter_like", 1):
        "e4896d4ebb8cc347bd20268d6e9172110a8e38253ab17da2b3de608a933d4ce5",
    ("twitter_like", 7):
        "516157236e651c7dd1980ff4d49f4ed9cdef6de4a7b4a9bd66237d7666f47bcf",
    ("geo_points", 1):
        "b5ef1ba10900d93597add952bf73cf1389dd4b092d140464319ccd63a5ca88d7",
    ("geo_points", 7):
        "017f2d545cf8f034bc79820b975e407ba89389be927d1c3bf69b136ca5a3f221",
}

GENERATORS = {
    "lineitem": lambda seed: lineitem(300, seed=seed),
    "dbpedia_like": lambda seed: dbpedia_like(200, seed=seed),
    "twitter_like": lambda seed: twitter_like(200, seed=seed),
    "geo_points": lambda seed: geo_points(150, seed=seed),
}


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_seeded_output_is_pinned(name, seed):
    rows = GENERATORS[name](seed)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == PINNED[(name, seed)]
