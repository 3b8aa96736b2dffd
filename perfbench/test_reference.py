"""Tests of the benchmark's own checkers (not part of the program's suite).

    python3 -m pytest -q perfbench/test_reference.py
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import checks
import graphs
import reference as ref


def _slow_minima(n, edges, loops, cut_limit=None):
    """Every bipartition, one subset at a time, in Fractions."""
    deg = ref.degrees(n, edges, loops)
    total = sum(deg)
    adj = {v: set() for v in range(n)}
    for u, v, _w in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = {}

    def keep(key, value):
        if value is not None and (key not in best or value < best[key]):
            best[key] = value

    for size in range(1, n):
        for side in itertools.combinations(range(n), size):
            a = set(side)
            b = set(range(n)) - a
            cut = ref.cut_weight(edges, a)
            vol_a = sum(deg[v] for v in a)
            small_vol = min(vol_a, total - vol_a)
            keep("ncut", ref.ncut(n, edges, loops, a))
            if cut_limit is not None and cut <= cut_limit:
                keep("ncut_pruned", ref.ncut(n, edges, loops, a))
            keep("isoperimetric", Fraction(cut, min(len(a), len(b))))
            keep("cheeger_edge", Fraction(cut, small_vol))
            bd_a = sum(deg[v] for v in b if adj[v] & a)
            bd_b = sum(deg[v] for v in a if adj[v] & b)
            keep("cheeger_vertex", Fraction(min(bd_a, bd_b), small_vol))
    best.setdefault("ncut_pruned", None)
    return best


def test_ncut_by_hand():
    p4 = graphs.path(4)
    assert ref.ncut(p4.n, p4.edges, p4.loops, [0, 1]) == Fraction(2, 3)
    wp = graphs.weighted_path(2, 1)  # degrees 1, 2, 2: the loop counts once
    assert ref.degrees(wp.n, wp.edges, wp.loops) == [1, 2, 2]
    assert ref.ncut(wp.n, wp.edges, wp.loops, [0]) == Fraction(5, 4)
    with pytest.raises(ValueError):
        ref.ncut(p4.n, p4.edges, p4.loops, [0, 1, 2, 3])


@pytest.mark.parametrize("seed", range(12))
def test_enumeration_matches_subset_by_subset(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    m = rng.randint(n - 1, n * (n - 1) // 2)
    g = graphs.random_connected(rng, n, m, 4, "t")
    loops = tuple((v, rng.randint(1, 3)) for v in range(n) if rng.random() < 0.3)
    limit = rng.randint(1, 6)
    want = _slow_minima(n, g.edges, loops, limit)
    for chunk_bits in (1, 3, 15):  # several chunks, and one
        assert ref.enumerate_minima(n, g.edges, loops, limit, True, chunk_bits) == want


@pytest.mark.parametrize("n", [4, 5, 8, 11])
def test_enumeration_closed_forms(n):
    p, c = graphs.path(n), graphs.cycle(n)
    found = ref.enumerate_minima(p.n, p.edges, p.loops)
    assert found["isoperimetric"] == Fraction(1, n // 2)
    if n % 2 == 0:
        assert found["ncut"] == Fraction(2, n - 1)
    assert ref.enumerate_minima(c.n, c.edges, c.loops)["isoperimetric"] == Fraction(2, n // 2)


def test_match_roots():
    assert ref.match_roots([0.5, 1.0], [1.0 + 1e-9, 0.5], 1e-7) == ([], [])
    assert ref.match_roots([0.0, 1.0], [0.0, 1.0, 1.0], 1e-7) == ([], [1.0])
    assert ref.match_roots([0.0, 0.3, 1.0], [0.0, 1.0], 1e-7) == ([0.3], [])
    assert ref.match_roots([1.0 + 2e-7], [1.0], 1e-7) == ([1.0 + 2e-7], [1.0])


def test_sector_roots_make_up_the_ladder_spectrum():
    for n, k in ((3, 3), (4, 8), (6, 5)):
        g = graphs.roach(n, k)
        full = ref.eigenvalues(ref.laplacian(g.n, g.edges, g.loops, "normalized"))
        assert np.allclose(checks.sector_roots("product", n, k), full, atol=1e-12)


def test_row_prefix_minimum_matches_generic_arithmetic():
    for n, k in ((1, 2), (2, 3), (5, 4), (8, 6)):
        g = graphs.roach(n, k)
        s = n + k
        cuts = [[*range(a), *range(s, s + b)] for a in range(s + 1) for b in range(s + 1)]
        want = min(ref.ncut(g.n, g.edges, g.loops, c) for c in cuts if 0 < len(c) < g.n)
        assert checks.roach_row_prefix_min(n, k) == want


@pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (3, 3), (1, 5), (4, 2)])
def test_row_prefix_minimum_is_the_global_minimum_on_small_ladders(n, k):
    g = graphs.roach(n, k)
    assert checks.roach_row_prefix_min(n, k) == ref.enumerate_minima(g.n, g.edges, g.loops)["ncut"]


@pytest.mark.parametrize("n,k", [(4, 1), (3, 3), (6, 2), (2, 6)])
def test_prefix_minimum_is_the_global_minimum_on_small_looped_paths(n, k):
    g = graphs.weighted_path(n, k)
    assert checks.weighted_path_prefix_min(n, k) == \
        ref.enumerate_minima(g.n, g.edges, g.loops)["ncut"]


def _rat(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "float": float(format(float(x), ".15g"))}


def test_mcut_check_catches_a_wrong_minimum():
    g = graphs.path(6)
    good = {"value": _rat(Fraction(2, 5)), "cut_weight": 1, "method": "brute_force",
            "branch": "", "witness": [1, 2, 3], "family": None}
    assert checks.mcut(json.dumps(good), g, None, pruned=False)
    bad = dict(good, value=_rat(Fraction(3, 4)), witness=[1, 2])
    with pytest.raises(checks.Wrong):
        checks.mcut(json.dumps(bad), g, None, pruned=False)


def test_charpoly_check_separates_missing_from_wrong_roots():
    roots = list(checks.sector_roots("pnk", 3, 3))
    doc = {"which": "pnk", "n": 3, "k": 3, "interval": [0, 2], "steps": 2000,
           "roots": roots, "count": len(roots)}
    assert checks.charpoly_roots(json.dumps(doc), "pnk", 3, 3) is True
    short = dict(doc, roots=roots[1:], count=len(roots) - 1)
    assert checks.charpoly_roots(json.dumps(short), "pnk", 3, 3) is False
    shifted = dict(doc, roots=[r + 1e-3 for r in roots])
    with pytest.raises(checks.Wrong):
        checks.charpoly_roots(json.dumps(shifted), "pnk", 3, 3)
