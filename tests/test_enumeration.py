"""The streamed bipartition engine across many chunks, against loop oracles.

The chunk size is shrunk so that graphs of 8-12 vertices cross many chunks;
every exhaustive functional must still equal the pure-Python sweeps in
conftest, with the lowest index winning a tie and the improper full set
never chosen.
"""

import dataclasses
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import speclab as sl
from speclab import DomainError, FamilySpec, Graph, SizeError
from speclab import _enumeration as en, cuts
from conftest import (ALL_SPECS, edge_connectivity, neighbour_sets, slow_cheeger_edge,
                      slow_cheeger_vertex, slow_edge_connectivity, slow_isoperimetric,
                      slow_min_ncut, slow_sides)


def _random_graph(seed: int, n: int, wmax: int = 3) -> Graph:
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v): rng.randint(1, wmax) for v in range(1, n)}
    while len(edges) < min(n + n // 2, n * (n - 1) // 2):
        u, v = sorted(rng.sample(range(n), 2))
        edges[(u, v)] = rng.randint(1, wmax)
    loops = tuple((v, rng.randint(1, 2)) for v in range(n) if rng.random() < 0.2)
    return Graph(n, tuple((u, v, w) for (u, v), w in edges.items()), loops, name=f"r{seed}")


GRAPHS = [sl.generate(FamilySpec("cycle", n=8)), sl.generate(FamilySpec("path", n=9)),
          sl.generate(FamilySpec("roach", n=2, k=3)),
          sl.generate(FamilySpec("weighted_path", n=6, k=4)),
          sl.generate(FamilySpec("lollipop", n=4, m=5)), sl.generate(FamilySpec("complete", n=8)),
          _random_graph(1, 8), _random_graph(2, 11), _random_graph(3, 12),
          # every vertex-expansion minimizer of r29 cuts more than h s/3, so a cap of
          # limit * s/3 in place of limit * s/2 would drop them all after the first chunk
          _random_graph(29, 9)]


@pytest.mark.parametrize("n", [2, 3])
def test_random_graph_stops_at_the_complete_graph(n):
    g = _random_graph(0, n)  # K_2 and K_3 have fewer than n + n//2 edges
    assert len(g.edges) == n * (n - 1) // 2 and sl.is_connected(g)


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


def _assert_expansion_constants(g: Graph, iso, h, gv, brute) -> None:
    """The engine's four objectives on a copy of g that claims no family are the
    oracles', and so is the closed form that min_ncut takes on a family graph."""
    assert cuts.expansion_constants(dataclasses.replace(g)) == (iso, h, gv, brute), g.name
    if g.spec is not None:
        closed = cuts.min_ncut(g)
        assert (closed.method, closed.value) == ("formula", brute.value), g.name


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
    _assert_expansion_constants(g, iso, h, gv, brute)


def test_every_functional_matches_oracles_on_chunks_of_four_rows(monkeypatch):
    """As above, with chunks of four rows, of which the floor keeps some."""
    partial = 0
    for g in GRAPHS:
        bits = g.n // 2 + 2
        monkeypatch.setattr(en, "CHUNK_BITS", bits)
        assert en._layout(g)[2] == 4
        rows = _spy_rows(monkeypatch)
        test_every_functional_matches_oracles_across_chunks(g, bits)
        partial += sum(0 < len(chunk) < 4 for chunk in rows)
        monkeypatch.undo()
    assert partial > 0


def test_tied_minima_in_different_chunks_keep_the_lowest_index(monkeypatch):
    monkeypatch.setattr(en, "CHUNK_BITS", 2)
    g = sl.generate(FamilySpec("cycle", n=8))
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


def _spy_rows(monkeypatch) -> list:
    """Record the table rows of each chunk whose cuts a pass computes."""
    rows, call = [], en.Chunk.__call__

    def spy(chunk, key, out=None):
        if key == "cut":
            r = chunk.rows
            rows.append(list(r) if isinstance(r, np.ndarray) else list(range(r.start, r.stop)))
        return call(chunk, key, out)

    monkeypatch.setattr(en.Chunk, "__call__", spy)
    return rows


def _floor_definitions(g: Graph, k: int) -> list[int]:
    """Per table row z (the high vertices k..n-1 on side A where z's bit is
    set), the cut among the high vertices plus, per low vertex, the lighter of
    its weights into z's side and into the rest of the high part; vertex 0,
    always on side A, counts its weight into the rest."""
    floors = []
    for z in range(2 ** (g.n - k)):
        side = {v for v in range(k, g.n) if z >> (v - k) & 1}
        inner, into = 0, [[0, 0] for _ in range(k)]  # per low vertex: into side, into rest
        for u, v, w in g.edges:
            if u >= k:
                inner += w * ((u in side) != (v in side))
            elif v >= k:
                into[u][v not in side] += w
        floors.append(inner + into[0][1] + sum(min(pair) for pair in into[1:]))
    return floors


def _values(g: Graph, max_cut=None) -> list[dict]:
    """Per index, each objective's exact value from its definition, None where
    it does not compete: the improper full set, and for the pruned NCUT a cut
    above max_cut."""
    s, n = g.volume, g.n
    values = []
    for cut, vol, size, ncut_den, bound_a, bound_b in _definitions(g)[:-1]:
        smaller = min(vol, s - vol)
        values.append({en.NCUT: None if max_cut is not None and cut > max_cut
                       else Fraction(cut * s, ncut_den),
                       en.ISOPERIMETRIC: Fraction(cut, min(size, n - size)),
                       en.CHEEGER_EDGE: Fraction(cut, smaller),
                       en.CHEEGER_VERTEX: Fraction(min(bound_a, bound_b), smaller)})
    return values + [dict.fromkeys(OBJECTIVES)]


def _computed_rows(g: Graph, objectives, max_cut=None) -> list[list[int]]:
    """Per chunk of a pass, the table rows whose cuts it computes, from the
    oracles: every row while an objective has no cap or in a one-chunk pass,
    else the rows whose floor is at most the largest cap. An objective's cap
    is its running limit, the float of its least value so far times 1 + 1e-9,
    times its reach; the pruned NCUT's is at most max_cut from the start."""
    lo, high, step = en._layout(g)
    s, n = g.volume, g.n
    reach = {en.NCUT: s / 4, en.ISOPERIMETRIC: n // 2,
             en.CHEEGER_EDGE: s / 2, en.CHEEGER_VERTEX: s / 2}
    values, floors = _values(g, max_cut), _floor_definitions(g, lo + 1)
    limits, computed = [np.inf] * len(objectives), []
    for r0 in range(0, high, step):
        cap = max(min(limit * reach[o], max_cut if o == en.NCUT and max_cut is not None
                      else np.inf) for limit, o in zip(limits, objectives))
        computed.append([r for r in range(r0, r0 + step)
                         if cap == np.inf or step == high or floors[r] <= cap])
        for i, o in enumerate(objectives):
            found = [v[o] for v in values[r0 << lo:(r0 + step) << lo] if v[o] is not None]
            if found:
                limits[i] = min(limits[i], float(min(found)) * (1 + 1e-9) + 1e-300)
    return computed


def _relabelled_path(order, loops=()) -> Graph:
    """The path visiting the vertices in ``order``."""
    return Graph(len(order), tuple((u, v, 1) for u, v in zip(order, order[1:])), loops,
                 name=f"path{order}")


# K_n keeps every entry under its cap. On the path ending in vertex 1, whose loop
# balances the volumes, cutting 1 off alone is the unique optimum, index
# 2**(n-1) - 2 of the last chunk; the other paths put vertex 0 last or in the middle.
HARD = [sl.generate(FamilySpec("complete", n=8)), sl.generate(FamilySpec("complete", n=9)),
        _relabelled_path([0, 2, 3, 4, 5, 6, 7, 8, 9, 1], loops=((1, 16),)),
        _relabelled_path([1, 2, 3, 4, 5, 6, 7, 8, 9, 0]),
        _relabelled_path([1, 2, 3, 4, 5, 0, 6, 7, 8, 9]),
        sl.generate(FamilySpec("cycle", n=8)),
        sl.generate(FamilySpec("cycle_cross_path", m=4, n=2))]


@pytest.mark.parametrize("share", [0, en.DENSE_SHARE, 1 / 4, 1])
@pytest.mark.parametrize("bits", [1, 3, 16])
def test_cut_filter_hard_cases_match_oracles(monkeypatch, bits, share):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    monkeypatch.setattr(en, "DENSE_SHARE", share)
    for g in HARD:
        brute = sl.min_ncut_brute(g)
        assert (brute.value, brute.witness.mask, brute.cut_weight) == slow_min_ncut(g), g.name
        _assert_expansion_constants(g, slow_isoperimetric(g), slow_cheeger_edge(g),
                                    slow_cheeger_vertex(g), brute)
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
    g = sl.generate(FamilySpec("complete", n=9))
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
    rows = _spy_rows(monkeypatch)
    report = sl.min_ncut_brute(g)
    assert (report.value, report.witness.mask) == (value, mask)
    expected = [computed for computed in _computed_rows(g, [en.NCUT]) if computed]
    assert rows == expected and len(calls) == len(expected)  # one row per chunk
    assert len(expected) < 2 ** (g.n - 1 - bits) and expected[-1] == [2 ** (g.n - 1 - bits) - 1]
    assert all(where is not None for _cap, where in calls[1:])
    assert 2 ** bits - 2 in calls[-1][1]


@pytest.mark.parametrize("g, filtered, chunks", [(HARD[5], [True, False, False, False], 16),
                                                 (HARD[6], [False, True, True], 21)],
                         ids=["cycle(8)", "cycle_cross_path(4,2)"])
def test_ties_across_filtered_and_dense_chunks_keep_the_lowest_index(monkeypatch, g, filtered,
                                                                      chunks):
    monkeypatch.setattr(en, "CHUNK_BITS", 2)
    monkeypatch.setattr(en, "DENSE_SHARE", 1 / 4)  # a chunk keeping one of its 4 is filtered
    calls, rows = _spy_kept(monkeypatch), _spy_rows(monkeypatch)
    s = g.volume
    values = {mask >> 1: Fraction(cut * s, vol * (s - vol)) for mask, _, vol, cut in slow_sides(g)}
    best = min(values.values())
    tied = sorted(index for index, value in values.items() if value == best)
    assert en.minimize(g, en.NCUT) == [(best, tied[0])]
    assert min(tied) >= 4  # none in the first chunk, the only one without a cap
    expected = [computed for computed in _computed_rows(g, [en.NCUT]) if computed]
    assert rows == expected and len(calls) == len(expected)  # one row of 4 per chunk
    assert len(expected) == chunks < 2 ** (g.n - 3)  # the floor drops the other rows
    kept = {row: where for (row,), (_cap, where) in zip(rows, calls)}
    assert [kept[index >> 2] is not None for index in tied] == filtered


@pytest.mark.parametrize("bits", [1, 3])
def test_pruned_cut_below_every_cut_of_the_first_chunk(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    g = HARD[4]  # vertex 0 in the middle of the path: the first chunk cuts at least 2
    first = next(iter(en.bipartition_arrays(g)))("cut")
    assert first.min() == 2
    value, mask, cut = slow_min_ncut(g, max_cut=1)
    assert en.minimize(g, en.NCUT, max_cut=1) == [(value, mask >> 1)] and cut == 1


OBJECTIVES = (en.NCUT, en.ISOPERIMETRIC, en.CHEEGER_EDGE, en.CHEEGER_VERTEX)


def _last_chunk_fractions(g: Graph):
    """The last chunk of a pass, its cut weights and (num, den) per objective."""
    last = list(en.bipartition_arrays(g))[-1]
    cut = last("cut")
    return last, cut, [en._fraction(objective, g, last, cut, np.empty_like(cut),
                                    np.empty_like(cut), None) for objective in OBJECTIVES]


@pytest.mark.parametrize("bits", [0, 3, 16])
def test_improper_full_set_is_zero_over_zero_for_every_objective(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    graphs = [_random_graph(seed, n, wmax) for seed, n in enumerate(range(4, 13))
              for wmax in (3, 300)] + [sl.generate(spec) for spec in ALL_SPECS]
    assert any(g.loops for g in graphs)
    for g in graphs:
        last, cut, fractions = _last_chunk_fractions(g)
        assert last.start + cut.size == 2 ** (g.n - 1) and cut.flat[-1] == 0
        for objective, (num, den) in zip(OBJECTIVES, fractions):
            assert num.flat[-1] == den.flat[-1] == 0, (g.name, objective)
            assert np.all(den.flat[:-1] > 0), (g.name, objective)  # every other one competes
            with np.errstate(invalid="ignore"):
                ratio = (num / den).ravel()
            assert np.isnan(ratio[-1]) and not np.isnan(ratio[:-1]).any(), (g.name, objective)


@pytest.mark.parametrize("bits", [0, 3, 16])
def test_pruned_ncut_marks_larger_cuts_nan(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    marked = 0
    for g in [_random_graph(seed, 9, wmax) for seed in range(4) for wmax in (3, 300)] + HARD:
        cuts_seen = sorted({cut for _mask, _size, _vol, cut in slow_sides(g)})
        for max_cut in cuts_seen[:3]:
            for chunk in en.bipartition_arrays(g):
                cut = chunk("cut")
                num, _den = en._fraction(en.NCUT, g, chunk, cut, np.empty_like(cut),
                                         np.empty_like(cut), max_cut)
                assert np.array_equal(np.isnan(num), cut > max_cut), (g.name, max_cut)
                marked += np.count_nonzero(cut > max_cut)
            value, mask, _cut = slow_min_ncut(g, max_cut) or (None, None, None)
            if value is None:
                with pytest.raises(SizeError):
                    en.minimize(g, en.NCUT, max_cut=max_cut)
            else:
                assert en.minimize(g, en.NCUT, max_cut=max_cut) == [(value, mask >> 1)], \
                    (g.name, max_cut)
    assert marked > 0


@pytest.mark.parametrize("bits", [0, 1, 2])
def test_improper_full_set_in_last_chunk_is_never_chosen(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    for g in (sl.generate(FamilySpec("path", n=2)), sl.generate(FamilySpec("cycle", n=5)),
              Graph(2, ((0, 1, 3),), ((1, 2),))):
        last, cut, fractions = _last_chunk_fractions(g)
        assert last.start + cut.size == 2 ** (g.n - 1) and cut.flat[-1] == 0
        assert all(num.flat[-1] == den.flat[-1] == 0 for num, den in fractions)
        assert cut.size == 1 if bits == 0 else cut.size > 1  # bits 0: the improper set alone
        full = (1 << g.n) - 1
        pruned = [sl.min_ncut_pruned(g, seed) for seed in _balanced_seeds(g)]
        for report in [sl.min_ncut_brute(g), *pruned]:
            assert report.witness.mask != full and report.value > 0
        assert edge_connectivity(g) == slow_edge_connectivity(g) > 0
        assert sl.isoperimetric_number(g) == slow_isoperimetric(g) > 0
        assert sl.cheeger_edge(g) == slow_cheeger_edge(g) > 0
        assert sl.cheeger_vertex(g) == slow_cheeger_vertex(g) > 0


KEYS = ("cut", "vol", "size", "ncut_den", "bound_a", "bound_b")


def _definitions(g: Graph) -> list[tuple]:
    """Per index, the values KEYS from their definitions, in pure Python; the
    last index, the improper full set, has cut, ncut_den and boundaries 0."""
    s, degrees, neighbours = g.volume, g.degrees, neighbour_sets(g)
    expected = []
    for mask, size, vol, cut in slow_sides(g):
        a = {v for v in range(g.n) if mask >> v & 1}
        b = set(range(g.n)) - a
        expected.append((cut, vol, size, vol * (s - vol),
                         sum(degrees[v] for v in b if a & neighbours[v]),
                         sum(degrees[v] for v in a if b & neighbours[v])))
    return expected + [(0, s, g.n, 0, 0, 0)]


@pytest.mark.parametrize("bits", [0, 3, 16])
def test_factor_pairs_match_every_bipartition_at_unpadded_widths(monkeypatch, bits):
    """Every factor key at every index against its definition, and each pair's
    width: the low half holds vertices 0..lo and the high half the rest, so the
    cut pair has k + 2 columns and each boundary pair n + 2, for k = lo + 1."""
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    graphs = [_random_graph(seed, n, wmax) for seed, n in enumerate(range(4, 13))
              for wmax in (3, 300)] + [sl.generate(spec) for spec in ALL_SPECS]
    assert any(g.loops for g in graphs)
    for g in graphs:
        lo = en._layout(g)[0]
        k = lo + 1
        widths = {"cut": k + 2, "vol": 2, "size": 2, "ncut_den": 3,
                  "bound_a": g.n + 2, "bound_b": g.n + 2}
        chunks = list(en.bipartition_arrays(g))
        for key in KEYS:
            high, low = chunks[0].factor(key)
            assert high.shape == (2 ** (g.n - k), widths[key]), (g.name, key)
            assert low.shape == (2 ** lo, widths[key]), (g.name, key)
        values = np.concatenate([np.column_stack([c(key).ravel() for key in KEYS])
                                 for c in chunks])
        assert [tuple(row) for row in values.astype(np.int64).tolist()] == _definitions(g), g.name


@pytest.mark.parametrize("bits", [0, 3, 16])
def test_row_floors_match_their_definition_and_bound_every_cut_in_the_row(monkeypatch, bits):
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    graphs = [_random_graph(seed, n, wmax) for seed, n in enumerate(range(4, 13))
              for wmax in (3, 300)]
    assert any(g.loops for g in graphs)
    for g in graphs:
        lo = en._layout(g)[0]
        floors = _floor_definitions(g, lo + 1)
        high, _low = next(en.bipartition_arrays(g)).factor("cut")
        assert en._floors(high, lo + 1).tolist() == floors, g.name
        least = {}  # per row, its least cut (the improper full set is no bipartition)
        for mask, _size, _vol, cut in slow_sides(g):
            row = mask >> 1 >> lo
            least[row] = min(cut, least.get(row, cut))
        assert all(floors[row] <= cut for row, cut in least.items()), g.name


@pytest.mark.parametrize("pruned", [False, True])
def test_path_24_computes_cuts_only_in_the_rows_the_floor_admits(monkeypatch, pruned):
    """path(24) has 2**11 rows of 2**12 in chunks of 16 rows; its least Ncut
    is 46/529, the middle edge, and the first chunk holds A = {0..16} at
    46/(33 * 13). So after the first chunk (from the start, for the search
    pruned at the middle edge's cut of 1) every cap is in [1, 2), and the
    floors, integers, admit a row exactly when they are at most 1."""
    g = sl.generate(FamilySpec("path", n=24))
    assert en._layout(g) == (12, 2 ** 11, 16)
    assert Fraction(46, 529) * 46 / 4 == 1 and float(Fraction(46, 33 * 13)) * (1 + 1e-9) * 46 / 4 < 2
    floors = _floor_definitions(g, 13)
    rows = _spy_rows(monkeypatch)
    if pruned:
        report = sl.min_ncut_pruned(g, sl.vertex_subset(g, range(12)))
    else:
        report = sl.min_ncut_brute(g)
    assert report.value == Fraction(46, 529) and report.cut_weight == 1
    # floor <= 1: the high vertices 13..23 on side A form a prefix or a suffix of them
    admitted = [r for r in range(0 if pruned else 16, 2 ** 11) if floors[r] <= 1]
    expected = ([] if pruned else list(range(16))) + admitted
    assert [r for chunk in rows for r in chunk] == expected
    assert len(expected) == (22 if pruned else 33)


@pytest.mark.parametrize("bits", [0, 2, 16])
def test_chunk_layout_matches_index_order(monkeypatch, bits):
    """Every factor pair's term list against its definition, on a graph with
    loops and on one whose volume is just under VOLUME_CAP."""
    monkeypatch.setattr(en, "CHUNK_BITS", bits)
    rng = np.random.default_rng(bits)
    for g in (_random_graph(4, 9), _heavy_graph(0, en.VOLUME_CAP - 1)):
        assert g.loops
        expected = _definitions(g)
        start, out = 0, None
        for c in en.bipartition_arrays(g):
            values = [c(key) for key in KEYS]
            size = values[0].size
            assert c.start == start and size <= 2 ** bits
            assert [tuple(row) for row in np.column_stack([v.ravel() for v in values])] == \
                expected[start:start + size], g.name
            out = np.empty_like(values[0]) if out is None else out  # one array for every chunk
            where = np.append(rng.integers(size, size=3), size - 1)
            for key, value in zip(KEYS, values):
                assert c(key, out) is out and np.array_equal(out, value)
                assert np.array_equal(c.at(where, key), value.flat[where]), (g.name, key)
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
    computed = [sum(map(len, _computed_rows(g, objectives, max_cut))) for objectives, max_cut in
                [([en.NCUT], None), ([*OBJECTIVES[1:], en.NCUT], None),
                 *[([en.NCUT], seed.cut_weight) for seed in seeds]]]
    # one row per chunk; the vertex objective's loose cap keeps every row of its pass
    assert computed == [52, 2 ** 6, 52, 52, 52]
    dense = kept = 0
    for (block, arrays), chunks in zip(passes, computed):  # kept alive: no address reused
        assert block.shape == (4, 1, 8)
        rows = [row.ctypes.data for row in block]
        assert sum(key == "cut" for key, _a in arrays) == chunks
        for key, array in arrays:  # a whole chunk in the block, or at most 1/8 of it
            if array.shape == (1, 8):
                assert array.ctypes.data in rows, key
                dense += 1
            else:
                assert array.ndim == 1 and array.size <= en.DENSE_SHARE * 8, key
                kept += 1
        assert {a.ctypes.data for key, a in arrays if key == "cut"} == {rows[0]}
        assert {a.ctypes.data for key, a in arrays if key == "ratio" and a.ndim == 2} == {rows[3]}
    assert dense > sum(computed) and kept > 0


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


def test_one_vertex_graph_is_a_domain_error_to_every_sweep():
    g = Graph(1, ())
    for fn in (sl.min_ncut_brute, cuts.expansion_constants, sl.cheeger_vertex,
               sl.isoperimetric_number, en.side_sizes):
        with pytest.raises(DomainError, match="^bipartition sweep needs at least two vertices$"):
            fn(g)
