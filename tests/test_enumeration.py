"""The streamed bipartition engine across many chunks, against loop oracles.

The chunk size is shrunk so that graphs of 8-12 vertices cross many chunks;
every exhaustive functional must still equal the pure-Python sweeps in
conftest, with the lowest index winning a tie and the improper full set
never chosen.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import speclab as sl
from speclab import FamilySpec, Graph, SizeError
from speclab import _enumeration as en, cuts
from conftest import (neighbour_sets, slow_cheeger_edge, slow_cheeger_vertex,
                      slow_edge_connectivity, slow_isoperimetric, slow_min_ncut, slow_sides)


def _edge_connectivity(g: Graph) -> Fraction:
    """Least cut weight over all bipartitions, from the enumeration engine."""
    (value, _idx), = en.minimize(g, lambda c: (c["cut"], 1))
    return value


def _random_graph(seed: int, n: int) -> Graph:
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v): rng.randint(1, 3) for v in range(1, n)}
    while len(edges) < n + n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges[(u, v)] = rng.randint(1, 3)
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
    assert _edge_connectivity(g) == slow_edge_connectivity(g)
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
        assert _edge_connectivity(g) == slow_edge_connectivity(g) > 0
        assert sl.isoperimetric_number(g) == slow_isoperimetric(g) > 0
        assert sl.cheeger_edge(g) == slow_cheeger_edge(g) > 0
        assert sl.cheeger_vertex(g) == slow_cheeger_vertex(g) > 0


@pytest.mark.parametrize("bits", [0, 2, 16])
def test_chunk_layout_matches_index_order(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    g = _random_graph(4, 9)
    s, neighbours = g.volume, neighbour_sets(g)
    sides = []
    for m in range(2 ** (g.n - 1)):
        a = {v for v in range(g.n) if en.full_mask_from_index(m) >> v & 1}
        sides.append((a, set(range(g.n)) - a))
    start = 0
    for c in en.bipartition_arrays(g):  # each chunk is read before the next one overwrites it
        size = c["cut"].size
        assert c.start == start and size <= 2 ** bits
        for m, cut, vol, den in zip(range(start, start + size), c["cut"].ravel(),
                                    c["vol"].ravel(), c["ncut_den"].ravel()):
            a, _b = sides[m]
            assert cut == sl.vertex_subset(g, a).cut_weight
            assert vol == sum(g.degrees[v] for v in a)
            assert den == vol * (s - vol)
        start += size
    assert start == 2 ** (g.n - 1)
    size, (bound_a, bound_b) = en.side_sizes(g), en.boundary_volumes(g)
    for m, (a, b) in enumerate(sides):
        assert size[m] == len(a)
        assert bound_a[m] == sum(g.degrees[v] for v in b if a & neighbours[v])
        assert bound_b[m] == sum(g.degrees[v] for v in a if b & neighbours[v])


def test_one_pass_writes_every_chunk_into_the_same_arrays(monkeypatch):
    monkeypatch.setattr(en, "CHUNK_BITS", 3)
    g = _random_graph(5, 10)  # 2**9 bipartitions in 2**6 chunks
    held = {}  # every array seen, per pass, kept alive so no fresh one could reuse an address
    add = en.RunningMin.add

    def spy(running, chunk, num, den):
        arrays = {"cut": chunk["cut"], "vol": chunk["vol"], "num": num, "den": den}
        for name, array in arrays.items():
            held.setdefault((chunk.work, running, name), []).append(array)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.divide(num, den)
        add(running, chunk, num, den)
        ratio = chunk.work("ratio")
        held.setdefault((chunk.work, running, "ratio"), []).append(ratio)
        if chunk.last:
            expected.flat[-1] = np.inf
        assert np.array_equal(ratio, expected)

    monkeypatch.setattr(en.RunningMin, "add", spy)
    iso, h, gv = slow_isoperimetric(g), slow_cheeger_edge(g), slow_cheeger_vertex(g)
    brute = sl.min_ncut_brute(g)
    assert (brute.value, brute.witness.mask, brute.cut_weight) == slow_min_ncut(g)
    assert cuts.expansion_constants(g) == (iso, h, gv, brute)
    for seed in _balanced_seeds(g):
        report = sl.min_ncut_pruned(g, seed)
        assert (report.value, report.witness.mask, report.cut_weight) == \
            slow_min_ncut(g, max_cut=seed.cut_weight)
    assert len(held) > 20
    for arrays in held.values():
        assert len(arrays) == 2 ** 6
        assert len({a.ctypes.data for a in arrays}) == 1


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
