"""The streamed bipartition engine across many chunks, against loop oracles.

The chunk size is shrunk so that graphs of 8-12 vertices cross many chunks;
every exhaustive functional must still equal the pure-Python sweeps in
conftest, with the lowest index winning a tie and the improper full set
never chosen.
"""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import speclab as sl
from speclab import FamilySpec, Graph, SizeError
from speclab import _enumeration as en, cuts
from conftest import (ALL_SPECS, edge_connectivity, neighbour_sets, slow_cheeger_edge,
                      slow_cheeger_vertex, slow_edge_connectivity, slow_isoperimetric,
                      slow_min_ncut, slow_sides)


def _random_graph(seed: int, n: int, wmax: int = 3) -> Graph:
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v): rng.randint(1, wmax) for v in range(1, n)}
    while len(edges) < n + n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges[(u, v)] = rng.randint(1, wmax)
    loops = tuple((v, rng.randint(1, 2)) for v in range(n) if rng.random() < 0.2)
    return Graph(n, tuple((u, v, w) for (u, v), w in edges.items()), loops, name=f"r{seed}")


GRAPHS = [sl.generate(FamilySpec.cycle(8)), sl.generate(FamilySpec.path(9)),
          sl.generate(FamilySpec.roach(2, 3)), sl.generate(FamilySpec.weighted_path(6, 4)),
          sl.generate(FamilySpec.lollipop(4, 5)), sl.generate(FamilySpec.complete(8)),
          _random_graph(1, 8), _random_graph(2, 11), _random_graph(3, 12)]


@pytest.fixture(params=[1, 3])
def chunk_bits(request, monkeypatch):
    monkeypatch.setattr(en, "CHUNK_BITS", request.param)
    return request.param


def _balanced_seeds(g: Graph):
    s = g.volume
    for t in range(1, g.n):
        seed = sl.vertex_subset(g, range(t))
        imbalance = 2 * seed.volume - s
        if imbalance * imbalance * (seed.cut_weight + 1) <= s * s:
            yield seed


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
def test_every_functional_matches_oracles_across_chunks(g, chunk_bits):
    assert len(list(en.bipartition_arrays(g))) >= 2 ** (g.n - 1 - chunk_bits)

    value, mask, cut = slow_min_ncut(g)
    brute = sl.min_ncut_brute(g)
    assert (brute.value, brute.witness.mask, brute.cut_weight) == (value, mask, cut)

    seeds = list(_balanced_seeds(g))
    assert seeds
    for seed in seeds:
        report = sl.min_ncut_pruned(g, seed)
        value, mask, cut = slow_min_ncut(g, max_cut=seed.cut_weight)
        assert (report.value, report.witness.mask, report.cut_weight) == (value, mask, cut)
        assert report.branch == f"cut<={seed.cut_weight}"

    iso, h, gv = slow_isoperimetric(g), slow_cheeger_edge(g), slow_cheeger_vertex(g)
    assert sl.isoperimetric_number(g) == iso
    assert sl.cheeger_edge(g) == h
    assert sl.cheeger_vertex(g) == gv
    assert edge_connectivity(g) == slow_edge_connectivity(g)
    assert cuts.expansion_constants(g) == (iso, h, gv, brute)


def test_tied_minima_in_different_chunks_keep_the_lowest_index(monkeypatch):
    monkeypatch.setattr(en, "CHUNK_BITS", 2)
    g = sl.generate(FamilySpec.cycle(8))
    s = g.volume
    values = {mask: Fraction(cut * s, vol * (s - vol)) for mask, _, vol, cut in slow_sides(g)}
    best = min(values.values())
    tied = sorted(mask >> 1 for mask, value in values.items() if value == best)
    assert len({index >> 2 for index in tied}) == len(tied) == 4  # one per chunk
    report = sl.min_ncut_brute(g)
    assert report.value == best == Fraction(1, 2)
    assert report.witness.mask == en.full_mask_from_index(tied[0]) == 0b1111


def test_every_objective_is_at_least_its_cut_over_its_reach():
    graphs = [_random_graph(seed, n, wmax) for seed, n in enumerate(range(4, 13))
              for wmax in (3, 300)] + [sl.generate(spec) for spec in ALL_SPECS]
    assert any(g.loops for g in graphs)
    for g in graphs:
        n, s = g.n, g.volume
        cut, vol, size, bound_a, bound_b = (
            np.concatenate([c(key).ravel() for c in en.bipartition_arrays(g)])[:-1]
            .astype(np.int64) for key in ("cut", "vol", "size", "bound_a", "bound_b"))
        # cross-multiplied in integers: Ncut >= 4 cut / s, iso >= cut / floor(n/2),
        # edge >= 2 cut / s, and min(bound_a, bound_b) >= cut, on every bipartition
        assert np.all(cut * s * s >= 4 * cut * vol * (s - vol)), g.name
        assert np.all(cut * (n // 2) >= cut * np.minimum(size, n - size)), g.name
        assert np.all(cut * s >= 2 * cut * np.minimum(vol, s - vol)), g.name
        assert np.all(np.minimum(bound_a, bound_b) >= cut), g.name


def _spy_kept(monkeypatch) -> list:
    """Record what _kept returns, per chunk and objective (None: the whole chunk)."""
    calls, kept = [], en._kept

    def spy(cut, cap):
        calls.append((cap, kept(cut, cap)))
        return calls[-1][1]

    monkeypatch.setattr(en, "_kept", spy)
    return calls


def _relabelled_path(order, loops=()) -> Graph:
    """The path visiting the vertices in ``order``."""
    return Graph(len(order), tuple((u, v, 1) for u, v in zip(order, order[1:])), loops,
                 name=f"path{order}")


# K_n keeps every entry under its cap. On the path ending in vertex 1, whose loop
# balances the volumes, cutting 1 off alone is the unique optimum, index
# 2**(n-1) - 2 of the last chunk; the other paths put vertex 0 last or in the middle.
HARD = [sl.generate(FamilySpec.complete(8)), sl.generate(FamilySpec.complete(9)),
        _relabelled_path([0, 2, 3, 4, 5, 6, 7, 8, 9, 1], loops=((1, 16),)),
        _relabelled_path([1, 2, 3, 4, 5, 6, 7, 8, 9, 0]),
        _relabelled_path([1, 2, 3, 4, 5, 0, 6, 7, 8, 9]),
        sl.generate(FamilySpec.cycle(8)), sl.generate(FamilySpec.cycle_cross_path(4, 2))]


@pytest.mark.parametrize("share", [0, en.DENSE_SHARE, 1 / 4, 1])
@pytest.mark.parametrize("bits", [1, 3, 16])
def test_cut_filter_hard_cases_match_oracles(monkeypatch, bits, share):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    monkeypatch.setattr(en, "DENSE_SHARE", share)
    for g in HARD:
        brute = sl.min_ncut_brute(g)
        assert (brute.value, brute.witness.mask, brute.cut_weight) == slow_min_ncut(g), g.name
        assert cuts.expansion_constants(g) == (slow_isoperimetric(g), slow_cheeger_edge(g),
                                               slow_cheeger_vertex(g), brute), g.name
        for max_cut in range(1, 4):
            value, mask, _cut = slow_min_ncut(g, max_cut) or (None, None, None)
            if value is None:
                with pytest.raises(SizeError):
                    en.minimize(g, en.NCUT, max_cut=max_cut)
            else:
                assert en.minimize(g, en.NCUT, max_cut=max_cut) == \
                    [(value, mask >> 1)], (g.name, max_cut)


@pytest.mark.parametrize("bits", [1, 3])
def test_complete_graphs_fall_back_to_dense_chunks(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    calls = _spy_kept(monkeypatch)
    g = sl.generate(FamilySpec.complete(9))
    assert en.minimize(g, en.NCUT) == [(Fraction(9, 8), 0)]  # every bipartition ties
    assert calls[0] == (np.inf, None) and len(calls) == 2 ** (8 - bits)
    assert all(cap < np.inf and where is None for cap, where in calls[1:])


@pytest.mark.parametrize("bits", [1, 3])
def test_optimum_in_the_last_chunk_passes_the_filter(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    monkeypatch.setattr(en, "DENSE_SHARE", 1)  # every chunk after the first is filtered
    calls = _spy_kept(monkeypatch)
    g = HARD[2]  # a cut of 1 whose sides have equal volumes
    value, mask, cut = slow_min_ncut(g)
    assert mask >> 1 == 2 ** (g.n - 1) - 2 and cut == 1  # in the last chunk
    report = sl.min_ncut_brute(g)
    assert (report.value, report.witness.mask) == (value, mask)
    assert len(calls) == 2 ** (g.n - 1 - bits)
    assert all(where is not None for _cap, where in calls[1:])
    assert 2 ** bits - 2 in calls[-1][1]


@pytest.mark.parametrize("g, filtered", [(HARD[5], [True, False, False, False]),
                                         (HARD[6], [False, True, True])],
                         ids=["cycle(8)", "cycle_cross_path(4,2)"])
def test_ties_across_filtered_and_dense_chunks_keep_the_lowest_index(monkeypatch, g, filtered):
    monkeypatch.setattr(en, "CHUNK_BITS", 2)
    monkeypatch.setattr(en, "DENSE_SHARE", 1 / 4)  # a chunk keeping one of its 4 is filtered
    calls = _spy_kept(monkeypatch)
    s = g.volume
    values = {mask >> 1: Fraction(cut * s, vol * (s - vol)) for mask, _, vol, cut in slow_sides(g)}
    best = min(values.values())
    tied = sorted(index for index, value in values.items() if value == best)
    assert en.minimize(g, en.NCUT) == [(best, tied[0])]
    assert min(tied) >= 4  # none in the first chunk, the only one without a cap
    assert [calls[index >> 2][1] is not None for index in tied] == filtered


@pytest.mark.parametrize("bits", [1, 3])
def test_pruned_cut_below_every_cut_of_the_first_chunk(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    g = HARD[4]  # vertex 0 in the middle of the path: the first chunk cuts at least 2
    first = next(iter(en.bipartition_arrays(g)))("cut")
    assert first.min() == 2
    value, mask, cut = slow_min_ncut(g, max_cut=1)
    assert en.minimize(g, en.NCUT, max_cut=1) == [(value, mask >> 1)] and cut == 1


@pytest.mark.parametrize("bits", [0, 1, 2])
def test_improper_full_set_in_last_chunk_is_never_chosen(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    for g in (sl.generate(FamilySpec.path(2)), sl.generate(FamilySpec.cycle(5)),
              Graph(2, ((0, 1, 3),), ((1, 2),))):
        chunks = list(en.bipartition_arrays(g))
        assert chunks[-1].last and not any(c.last for c in chunks[:-1])
        full = (1 << g.n) - 1
        pruned = [sl.min_ncut_pruned(g, seed) for seed in _balanced_seeds(g)]
        for report in [sl.min_ncut_brute(g), *pruned]:
            assert report.witness.mask != full and report.value > 0
        assert edge_connectivity(g) == slow_edge_connectivity(g) > 0
        assert sl.isoperimetric_number(g) == slow_isoperimetric(g) > 0
        assert sl.cheeger_edge(g) == slow_cheeger_edge(g) > 0
        assert sl.cheeger_vertex(g) == slow_cheeger_vertex(g) > 0


@pytest.mark.parametrize("bits", [0, 2, 16])
def test_chunk_layout_matches_index_order(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    g = _random_graph(4, 9)
    s, neighbours = g.volume, neighbour_sets(g)
    keys = ("cut", "vol", "size", "ncut_den", "bound_a", "bound_b")
    expected = []  # per index, the six values from their definitions
    for m in range(2 ** (g.n - 1)):
        a = {v for v in range(g.n) if en.full_mask_from_index(m) >> v & 1}
        b = set(range(g.n)) - a
        vol = sum(g.degrees[v] for v in a)
        expected.append((sl.vertex_subset(g, a).cut_weight, vol, len(a), vol * (s - vol),
                         sum(g.degrees[v] for v in b if a & neighbours[v]),
                         sum(g.degrees[v] for v in a if b & neighbours[v])))
    start, out = 0, None
    for c in en.bipartition_arrays(g):
        values = [c(key) for key in keys]
        size = values[0].size
        assert c.start == start and size <= 2 ** bits
        assert [tuple(row) for row in np.column_stack([v.ravel() for v in values])] == \
            expected[start:start + size]
        out = np.empty_like(values[0]) if out is None else out  # one array for every chunk
        for key, value in zip(keys, values):
            assert c(key, out) is out and np.array_equal(out, value)
        start += size
    assert start == 2 ** (g.n - 1)
    size, (bound_a, bound_b) = en.side_sizes(g), en.boundary_volumes(g)
    assert list(zip(size, bound_a, bound_b)) == [(e[2], e[4], e[5]) for e in expected]


def test_one_pass_writes_every_chunk_into_the_same_arrays(monkeypatch):
    monkeypatch.setattr(en, "CHUNK_BITS", 3)
    monkeypatch.setattr(en, "DENSE_SHARE", 1 / 4)  # up to 2 kept entries of a chunk
    g = _random_graph(5, 10)  # 2**9 bipartitions in 2**6 chunks of one row of 8
    passes = []  # per pass: its block and every array a chunk or the division wrote or read

    class Numpy:  # numpy, recording each pass's block and the arrays of each division
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape):
            array = np.empty(shape)
            if len(shape) == 3:  # a pass's block, not the kept entries of one chunk
                passes.append((array, []))
            return array

        def divide(self, num, den, out):
            passes[-1][1].extend([("num", num), ("den", den), ("ratio", out)])
            return np.divide(num, den, out=out)

    call, at = en.Chunk.__call__, en.Chunk.at

    def spy(chunk, key, out=None):
        passes[-1][1].append((key, out))
        return call(chunk, key, out)

    def spy_at(chunk, where, key, out=None):
        assert out is not None and out.shape == where.shape
        passes[-1][1].append((key, out))
        return at(chunk, where, key, out)

    monkeypatch.setattr(en, "np", Numpy())
    monkeypatch.setattr(en.Chunk, "__call__", spy)
    monkeypatch.setattr(en.Chunk, "at", spy_at)
    iso, h, gv = slow_isoperimetric(g), slow_cheeger_edge(g), slow_cheeger_vertex(g)
    brute = sl.min_ncut_brute(g)
    assert (brute.value, brute.witness.mask, brute.cut_weight) == slow_min_ncut(g)
    assert cuts.expansion_constants(g) == (iso, h, gv, brute)
    seeds = list(_balanced_seeds(g))
    for seed in seeds:
        report = sl.min_ncut_pruned(g, seed)
        assert (report.value, report.witness.mask, report.cut_weight) == \
            slow_min_ncut(g, max_cut=seed.cut_weight)
    assert len(passes) == 2 + len(seeds) > 4
    dense = kept = 0
    for block, arrays in passes:  # kept alive, so no fresh array could reuse its addresses
        assert block.shape == (4, 1, 8)
        rows = [row.ctypes.data for row in block]
        assert sum(key == "cut" for key, _a in arrays) == 2 ** 6
        for key, array in arrays:  # a whole chunk in the block, or at most 1/8 of it
            if array.shape == (1, 8):
                assert array.ctypes.data in rows, key
                dense += 1
            else:
                assert array.ndim == 1 and array.size <= en.DENSE_SHARE * 8, key
                kept += 1
        assert {a.ctypes.data for key, a in arrays if key == "cut"} == {rows[0]}
        assert {a.ctypes.data for key, a in arrays if key == "ratio" and a.ndim == 2} == {rows[3]}
    assert dense > 2 ** 6 * len(passes) and kept > 0


def _float_tied_neighbours(rng: random.Random, count: int):
    """Farey neighbours p/q < p'/q' (p'q - pq' = 1) with numerators below 2**30
    and denominators below 2**28, the engine's bounds under VOLUME_CAP, whose
    float64 quotients are equal; a quarter of them small enough to scale."""
    pairs = []
    while len(pairs) < count:
        bits = 2 * (len(pairs) % 4 == 0)
        p, q = rng.randrange(2, 1 << 30 - bits), rng.randrange(2, 1 << 28 - bits)
        if gcd(p, q) == 1:
            p2 = pow(q, -1, p)
            q2 = (p2 * q - 1) // p
            if q2 > 0 and p / q == p2 / q2:
                pairs.append(((p, q), (p2, q2)))
    return pairs


def test_exact_min_fraction_separates_float_ties():
    rng = random.Random(2012)
    scaled = 0
    for small, big in _float_tied_neighbours(rng, 300):
        cands = [big] * rng.randint(1, 4) + [small] * rng.randint(1, 3)
        k = rng.randint(2, 4)
        if k * small[0] < 1 << 30 and k * small[1] < 1 << 28:  # an unreduced exact tie
            cands.append((k * small[0], k * small[1]))
            scaled += 1
        rng.shuffle(cands)
        num, den = (np.array(column, dtype=np.int64) for column in zip(*cands))
        assert len(set(num / den)) == 1  # every float quotient is the same
        values = [Fraction(p, q) for p, q in cands]
        best = min(values)
        assert en.exact_min_fraction(num, den) == (best, values.index(best))
    assert scaled > 50


def _heavy_graph(seed: int, volume: int) -> Graph:
    """A random connected weighted graph of the given volume, a loop taking the rest."""
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    g = _random_graph(seed, n)
    total = sum(w for _u, _v, w in g.edges)
    edges = tuple((u, v, max(1, w * (volume - n) // (2 * total))) for u, v, w in g.edges)
    loop = volume - 2 * sum(w for _u, _v, w in edges)
    assert loop >= 1
    return Graph(n, edges, ((rng.randrange(n), loop),), name=f"heavy{seed}")


@pytest.mark.parametrize("bits", [1, 3, 16])
def test_volumes_just_under_the_cap_stay_exact(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    pruned = 0
    for seed in range(12):
        g = _heavy_graph(seed, en.VOLUME_CAP - 1 - seed % 4)
        assert en.VOLUME_CAP - 4 <= g.volume < en.VOLUME_CAP
        iso, h, gv = slow_isoperimetric(g), slow_cheeger_edge(g), slow_cheeger_vertex(g)
        brute = sl.min_ncut_brute(g)
        assert (brute.value, brute.witness.mask, brute.cut_weight) == slow_min_ncut(g)
        assert cuts.expansion_constants(g) == (iso, h, gv, brute)
        s = g.volume
        for mask, _size, vol, cut in slow_sides(g):  # every seed meeting the balance hypothesis
            if (2 * vol - s) ** 2 * (cut + 1) <= s * s:
                report = sl.min_ncut_pruned(g, sl.subset_from_mask(g, mask))
                assert (report.value, report.witness.mask, report.cut_weight) == \
                    slow_min_ncut(g, max_cut=cut)
                pruned += 1
    assert pruned > 30


def test_volume_at_the_cap_is_refused():
    g = Graph(2, ((0, 1, en.VOLUME_CAP // 2),))
    assert g.volume == en.VOLUME_CAP
    for fn in (sl.min_ncut_brute, cuts.expansion_constants, sl.cheeger_vertex,
               lambda g: sl.min_ncut_pruned(g, sl.vertex_subset(g, [0]))):
        with pytest.raises(SizeError, match="caps the total volume"):
            fn(g)
