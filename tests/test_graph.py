"""Graph construction, generators, exact cut arithmetic, and interchange."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclab as sl
from speclab import DomainError, FamilySpec, Graph, SchemaError, SizeError

from conftest import ALL_SPECS, edge_connectivity, is_automorphism, slow_min_ncut


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_duplicate_edge_rejected():
    with pytest.raises(DomainError):
        Graph(3, ((0, 1, 1), (1, 0, 2)))


def test_loop_in_edge_list_rejected():
    with pytest.raises(DomainError):
        Graph(2, ((1, 1, 1),))


def test_nonpositive_weight_rejected():
    with pytest.raises(DomainError):
        Graph(2, ((0, 1, 0),))
    with pytest.raises(DomainError):
        Graph(2, ((0, 1, -3),))
    # a bool is not a weight: to_json would write it as true, which from_json refuses
    for edges, loops in ((((0, 1, True),), ()), (((0, 1, 1),), ((0, True),))):
        with pytest.raises(DomainError, match="weight True is not a positive integer"):
            Graph(2, edges, loops)
    for n in (True, 2.5, "3"):  # nor is it a vertex count, and neither is a float or str
        with pytest.raises(DomainError, match=f"^graph needs an integer n, got {n!r}$"):
            Graph(n, ())
    with pytest.raises(DomainError, match="^graph needs at least one vertex, got n=0$"):
        Graph(0, ())


def test_construction_refuses_the_first_bad_entry_with_its_message():
    # edges in order, each checked for a loop, its range, its weight, then a duplicate;
    # the loops after every edge
    for edges, loops, message in [
        (((0, 1), (2, 2, 1)), (), "edge (2,2) is a loop; use the loops field"),
        (((0, 1), (-1, 2, 0), (1, 0)), ((5, 1),), "edge (-1,2) out of range for n=3"),
        (((0, 1), (1, 0, 0)), (), "edge weight 0 is not a positive integer"),
        (((1, 2), (2, 1, 2)), ((5, 1),), "duplicate edge (1,2)"),
        (((0, 1),), ((3, 1),), "loop vertex 3 out of range for n=3"),
        (((0, 1),), ((1, 0),), "loop weight 0 is not a positive integer"),
        (((0, 1),), ((1, 1), (2, 1), (1, 2)), "duplicate loop on vertex 1"),
    ]:
        with pytest.raises(DomainError) as info:
            Graph(3, edges, loops)
        assert str(info.value) == message


def test_two_tuple_edges_default_to_weight_one():
    g = Graph(3, ((0, 1), (1, 2)))
    assert g.edges == ((0, 1, 1), (1, 2, 1))
    assert g.degrees == (1, 2, 1)


def test_weights_stop_at_2_pow_53():
    Graph(2, ((0, 1, 2 ** 53),), ((1, 2 ** 53),))
    for edges, loops in ((((0, 1, 2 ** 53 + 1),), ()), (((0, 1, 1),), ((0, 2 ** 53 + 1),))):
        with pytest.raises(DomainError):
            Graph(2, edges, loops)


def test_loop_counts_once_in_degree():
    g = Graph(2, ((0, 1, 1),), ((1, 5),))
    assert g.degrees == (1, 6)
    assert g.volume == 7


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_cycle4():
    g = sl.generate(FamilySpec("cycle", n=4))
    assert g.n == 4 and len(g.edges) == 4
    assert set(g.degrees) == {2} and g.volume == 8


def test_roach_counts():
    g = sl.generate(FamilySpec("roach", n=5, k=5))
    assert g.n == 20
    assert g.volume == 46 == 6 * 5 + 4 * 5 - 4


def test_roach_volume_formula():
    for n in range(1, 7):
        for k in range(2, 7):
            g = sl.generate(FamilySpec("roach", n=n, k=k))
            assert g.volume == 6 * k + 4 * n - 4


def test_double_tree_counts():
    g = sl.generate(FamilySpec("double_tree", depth=3))
    assert g.n == 14
    assert g.volume == 26 == 2 ** 5 - 6


@pytest.mark.parametrize("depth", range(2, 7))
def test_double_tree_size_and_volume(depth):
    g = sl.generate(FamilySpec("double_tree", depth=depth))
    assert g.n == 2 ** (depth + 1) - 2
    assert g.volume == 2 ** (depth + 2) - 6


def test_weighted_path_degrees():
    g = sl.generate(FamilySpec("weighted_path", n=4, k=3))
    assert g.degrees == (1, 2, 2, 2, 3, 3, 2)


def test_tree_is_a_tree():
    g = sl.generate(FamilySpec("tree", depth=4))
    assert g.n == 15 and len(g.edges) == 14
    assert sl.is_connected(g)


def test_generator_domain_errors():
    for params in (dict(family="cycle", n=2), dict(family="roach", n=0, k=2),
                   dict(family="roach", n=1, k=1), dict(family="lollipop", n=2, m=1),
                   dict(family="weighted_path", n=1, k=0), dict(family="path", n=0),
                   dict(family="cycle_cross_path", m=2, n=3), dict(family="nonsense")):
        with pytest.raises(DomainError):
            sl.generate(FamilySpec(**params))


ORDER_SPECS = ([FamilySpec("path", n=n) for n in range(1, 9)]
               + [FamilySpec("cycle", n=n) for n in range(3, 9)]
               + [FamilySpec("complete", n=n) for n in range(1, 9)]
               + [FamilySpec("tree", depth=d) for d in range(1, 7)]
               + [FamilySpec("double_tree", depth=d) for d in range(1, 7)]
               + [FamilySpec("cycle_cross_path", m=m, n=n)
                  for m in range(3, 7) for n in range(1, 6)]
               + [FamilySpec("roach", n=n, k=k) for n in range(1, 7) for k in range(2, 7)]
               + [FamilySpec("weighted_path", n=n, k=k) for n in range(1, 7) for k in range(1, 7)]
               + [FamilySpec("lollipop", n=n, m=m) for n in range(3, 8) for m in range(1, 7)])


def test_order_and_edge_count_match_generate():
    assert {spec.family for spec in ORDER_SPECS} == set(sl.FAMILIES)
    for spec in ORDER_SPECS:
        g = sl.generate(spec)
        assert (spec.order(), spec.edge_count()) == (g.n, len(g.edges)), spec.label()


def _spec_repr(family, **params) -> str:
    """repr of the FamilySpec these arguments would build."""
    fields = {"n": None, "k": None, "m": None, "depth": None, **params}
    return f"FamilySpec(family={family!r}, {', '.join(f'{f}={v!r}' for f, v in fields.items())})"


@pytest.mark.parametrize("spec, message", [
    (dict(family="path", n=0), "path needs n >= 1"),
    (dict(family="cycle", n=2), "cycle needs n >= 3"),
    (dict(family="complete", n=None), "complete needs n >= 1"),
    (dict(family="tree", depth=0), "tree needs depth >= 1"),
    (dict(family="double_tree", depth=None), "double_tree needs depth >= 1"),
    (dict(family="cycle_cross_path", m=3, n=0), "cycle_cross_path needs m >= 3 and n >= 1"),
    (dict(family="roach", n=1), "roach needs n >= 1 and k >= 2"),
    (dict(family="weighted_path", n=0, k=1), "weighted_path needs n >= 1 and k >= 1"),
    (dict(family="lollipop", n=3, m=0), "lollipop needs n >= 3 and m >= 1"),
])
def test_validate_messages(spec, message):
    with pytest.raises(DomainError) as info:
        FamilySpec(**spec)
    assert str(info.value) == f"{message} (got {_spec_repr(**spec)})"


# each family's parameters in label order, with their minimums
MINIMUMS = {"path": {"n": 1}, "cycle": {"n": 3}, "complete": {"n": 1}, "tree": {"depth": 1},
            "double_tree": {"depth": 1}, "cycle_cross_path": {"m": 3, "n": 1},
            "roach": {"n": 1, "k": 2}, "weighted_path": {"n": 1, "k": 1},
            "lollipop": {"n": 3, "m": 1}}


@pytest.mark.parametrize("family", sl.FAMILIES)
def test_construction_admits_exactly_the_valid_parameters(family):
    assert set(MINIMUMS) == set(sl.FAMILIES)
    lows = MINIMUMS[family]
    needs = " and ".join(f"{p} >= {low}" for p, low in lows.items())
    for values in itertools.product(*[(None, low - 1, low, low + 1) for low in lows.values()]):
        params = dict(zip(lows, values))
        if any(v is None or v < lows[p] for p, v in params.items()):
            with pytest.raises(DomainError) as info:
                FamilySpec(family, **params)
            assert str(info.value) == f"{family} needs {needs} (got {_spec_repr(family, **params)})"
            continue
        spec = FamilySpec(family, **params)
        g = sl.generate(spec)
        label = f"{family}({','.join(map(str, values))})"
        assert (spec.order(), spec.edge_count(), spec.label()) == (g.n, len(g.edges), g.name)
        assert g.name == label
        for p, low in lows.items():
            with pytest.raises(DomainError, match=f"^{family} needs "):
                dataclasses.replace(spec, **{p: low - 1})


@pytest.mark.parametrize("bad", [2.5, "5", True])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.family)
def test_parameters_that_are_not_ints_are_refused(spec, bad):
    assert {s.family for s in ALL_SPECS} == set(sl.FAMILIES)
    params = {p: v for p in ("n", "k", "m", "depth") if (v := getattr(spec, p)) is not None}
    for name in params:
        wrong = {**params, name: bad}
        with pytest.raises(DomainError) as info:
            FamilySpec(spec.family, **wrong)
        assert str(info.value) == \
            f"{spec.family} needs an integer {name} (got {_spec_repr(spec.family, **wrong)})"


def test_labels():
    assert [s.label() for s in ALL_SPECS] == [
        "path(5)", "cycle(6)", "complete(4)", "tree(3)", "double_tree(3)",
        "cycle_cross_path(3,2)", "roach(2,3)", "weighted_path(3,2)", "lollipop(4,2)"]
    with pytest.raises(DomainError) as info:
        FamilySpec("nonsense", n=1)
    assert str(info.value) == "unknown family 'nonsense'"


def test_generation_budget():
    for spec in (FamilySpec("tree", depth=40), FamilySpec("double_tree", depth=10 ** 12),
                 FamilySpec("path", n=sl.graph.MAX_ORDER + 1),
                 FamilySpec("complete", n=1025), FamilySpec("roach", n=10 ** 9, k=10 ** 9)):
        with pytest.raises(SizeError, match="generation budget"):
            sl.generate(spec)
    assert FamilySpec("tree", depth=17).order() <= sl.graph.MAX_ORDER
    with pytest.raises(SizeError, match="generation budget"):  # before n degrees are allocated
        Graph(sl.graph.MAX_ORDER + 1, ())
    assert Graph(sl.graph.MAX_ORDER, ()).n == sl.graph.MAX_ORDER
    assert FamilySpec("complete", n=1024).edge_count() <= sl.graph.MAX_EDGES


# ---------------------------------------------------------------------------
# cycle cross paths
# ---------------------------------------------------------------------------

def test_product_c3_p2():
    g = sl.generate(FamilySpec("cycle_cross_path", m=3, n=2))
    assert g.n == 6 and set(g.degrees) == {3} and g.volume == 18


def test_product_c4_p3_edge_count():
    g = sl.generate(FamilySpec("cycle_cross_path", m=4, n=3))
    assert g.n == 12 and len(g.edges) == 20


def test_cycle_cross_path_edge_order():
    # C_m x P_n with vertex (u, v) at u * n + v: every copy of the path's
    # edges, copy by copy, then each cycle edge for every v, in that order
    for m in range(3, 7):
        for n in range(1, 5):
            cycle = [(u, u + 1) for u in range(m - 1)] + [(0, m - 1)]
            path = [(v, v + 1) for v in range(n - 1)]
            expected = [(u * n + a, u * n + b, 1) for u in range(m) for a, b in path]
            expected += [(a * n + v, b * n + v, 1) for a, b in cycle for v in range(n)]
            g = sl.generate(FamilySpec("cycle_cross_path", m=m, n=n))
            assert (g.n, list(g.edges), g.loops) == (m * n, expected, ())


# ---------------------------------------------------------------------------
# cut arithmetic
# ---------------------------------------------------------------------------

def test_ncut_example_case1(ncut_example_graph):
    g = ncut_example_graph
    a = sl.vertex_subset(g, [0, 1, 2, 3])
    assert a.cut_weight == 2
    assert a.volume == 12 and g.volume - a.volume == 8
    assert sl.normalized_cut(g, a) == Fraction(5, 12)
    # the other two published cases of the same example
    assert sl.normalized_cut(g, [0, 1, 2]) == Fraction(4, 5)
    assert sl.normalized_cut(g, [0, 2, 3, 4, 5, 6]) == Fraction(2, 18) + Fraction(2, 2)


def test_ncut_c4_singleton():
    g = sl.generate(FamilySpec("cycle", n=4))
    assert sl.normalized_cut(g, [0]) == Fraction(4, 3)


def test_ncut_rejects_improper_subsets():
    g = sl.generate(FamilySpec("cycle", n=4))
    with pytest.raises(DomainError):
        sl.normalized_cut(g, range(4))
    with pytest.raises(DomainError):
        sl.normalized_cut(g, [])


def test_subset_for_other_graph_rejected():
    g1 = sl.generate(FamilySpec("cycle", n=4))
    g2 = sl.generate(FamilySpec("cycle", n=4))
    a = sl.vertex_subset(g1, [0])
    with pytest.raises(DomainError):
        sl.normalized_cut(g2, a)


def test_subsets_and_cuts_refuse_what_they_cannot_hold_with_its_message():
    g = Graph(3, ((0, 1, 1),))  # vertex 2 is isolated: volume 0
    for vertices, bad in (([0, 3], 3), ([-1], -1)):
        with pytest.raises(DomainError, match=rf"^vertex {bad} out of range for n=3$"):
            sl.vertex_subset(g, vertices)
    for mask in (-1, 8):
        with pytest.raises(DomainError, match=rf"^mask {mask} out of range for n=3$"):
            sl.subset_from_mask(g, mask)
    for side in ([2], [0, 1]):
        with pytest.raises(DomainError, match="^both sides must have positive volume$"):
            sl.normalized_cut(g, side)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=2 ** 14 - 2))
def test_volume_additivity_and_identity(mask):
    g = sl.generate(FamilySpec("roach", n=3, k=4))  # 14 vertices
    a = sl.subset_from_mask(g, mask)
    b_vol = g.volume - a.volume
    assert a.volume + b_vol == g.volume
    # identity: Ncut = 4 j vol / (vol^2 - (vol A - vol B)^2), exactly
    j, s = a.cut_weight, g.volume
    expected = Fraction(4 * j * s, s * s - (a.volume - b_vol) ** 2)
    assert sl.normalized_cut(g, a) == expected


def test_ncut_positive_and_bounded():
    rng = random.Random(7)
    for spec in (FamilySpec("lollipop", n=5, m=4), FamilySpec("roach", n=2, k=4)):
        g = sl.generate(spec)
        min_deg = min(g.degrees)
        for _ in range(50):
            mask = rng.randrange(1, 2 ** g.n - 1)
            a = sl.subset_from_mask(g, mask)
            v = sl.normalized_cut(g, a)
            assert 0 < v <= Fraction(2 * a.cut_weight, min_deg)


def test_subset_capacity_is_64():
    g = sl.generate(FamilySpec("path", n=65))
    with pytest.raises(SizeError):
        sl.vertex_subset(g, [0])


# ---------------------------------------------------------------------------
# connectivity measures
# ---------------------------------------------------------------------------

def test_edge_connectivity_examples():
    assert edge_connectivity(sl.generate(FamilySpec("cycle", n=6))) == 2
    assert edge_connectivity(sl.generate(FamilySpec("complete", n=5))) == 4
    assert edge_connectivity(sl.generate(FamilySpec("cycle_cross_path", m=4, n=3))) == 3


def test_edge_connectivity_disconnected_is_zero():
    g = Graph(4, ((0, 1, 1), (2, 3, 1)))
    assert edge_connectivity(g) == 0


def test_edge_connectivity_size_cap():
    with pytest.raises(SizeError):
        edge_connectivity(sl.generate(FamilySpec("path", n=25)))


def test_ncut_defined_on_disconnected_graph():
    # a zero-cut bipartition of a disconnected graph is allowed and yields 0
    g = Graph(4, ((0, 1, 1), (2, 3, 1)))
    assert sl.normalized_cut(g, [0, 1]) == 0
    assert sl.normalized_cut(g, [0, 2]) == 2


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_path_reversal_is_automorphism():
    g = sl.generate(FamilySpec("path", n=6))
    assert is_automorphism(g, [5 - i for i in range(6)])
    assert g.spec.mirror() == tuple(5 - i for i in range(6))


def test_roach_swap_is_automorphism():
    g = sl.generate(FamilySpec("roach", n=3, k=4))
    assert is_automorphism(g, g.spec.mirror())


def test_transposition_is_not_automorphism():
    g = sl.generate(FamilySpec("path", n=4))
    assert not is_automorphism(g, [1, 0, 2, 3])


def test_non_bijection_rejected():
    g = sl.generate(FamilySpec("path", n=3))
    with pytest.raises(DomainError):
        is_automorphism(g, [0, 0, 2])


def test_automorphism_matches_matrix_commutation():
    # PA = AP with P the permutation matrix is the defining test; compare
    # against the oracle's edge-mapping implementation on both outcomes.
    family = [sl.generate(spec) for spec in ALL_SPECS]
    weighted = Graph(5, ((0, 1, 2), (1, 2, 3), (2, 3, 3), (3, 4, 2)), ((0, 4), (4, 4), (2, 1)))
    looped_path = Graph(3, ((0, 1, 1), (1, 2, 1)), ((0, 1),))
    # each family's mirror, or the reversal where a family has none
    cases = [(g, g.spec.mirror() or tuple(reversed(range(g.n)))) for g in family]
    cases += [(weighted, (4, 3, 2, 1, 0)),  # keeps every weight and loop
              (weighted, (4, 1, 2, 3, 0)),  # keeps the loops, not the edges
              (looped_path, (2, 1, 0)),  # keeps the edges, moves the loop
              (Graph(3, ((0, 1, 1), (1, 2, 2))), (2, 1, 0)),  # swaps the edge weights
              (family[6], tuple([1, 0] + list(range(2, 10))))]
    rng = random.Random(11)
    cases += [(g, tuple(rng.sample(range(g.n), g.n))) for g in family + [weighted]
              for _ in range(20)]
    outcomes = set()
    for g, perm in cases:
        adj = sl.build_matrix(g, sl.MatrixKind.ADJACENCY).values
        p = np.zeros((g.n, g.n))
        for j, img in enumerate(perm):
            p[img, j] = 1.0
        commutes = np.array_equal(p @ adj, adj @ p)
        assert commutes == is_automorphism(g, perm), (g.name, perm)
        outcomes.add(commutes)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_json_round_trip(spec):
    g = sl.generate(spec)
    h = sl.from_json(sl.to_json(g))
    assert (h.n, h.edges, h.loops, h.name) == (g.n, g.edges, g.loops, g.name)
    assert h == g  # equality ignores how a graph was made, mirrored families included


def test_json_is_one_based():
    g = sl.generate(FamilySpec("weighted_path", n=1, k=1))
    doc = sl.to_json_dict(g)
    assert doc["edges"] == [[1, 2, 1]]
    assert doc["loops"] == [[2, 1]]


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("edges"),
    lambda d: d.update(n="four"),
    lambda d: d["edges"].append([1, 2]),
    lambda d: d["edges"].append([0, 1, 1]),
    lambda d: d["edges"].append([1, 9, 1]),
    lambda d: d["loops"].append([1, 1.5]),
    lambda d: d.update(name=3),
    lambda d: d.update(edges={}),
    lambda d: d.update(loops={}),
])
def test_schema_violations(mutate):
    doc = sl.to_json_dict(sl.generate(FamilySpec("path", n=4)))
    mutate(doc)
    with pytest.raises(SchemaError):
        sl.from_json_dict(doc)


def test_graph_documents_share_the_generation_budget():
    doc = {"name": "g", "n": sl.graph.MAX_ORDER, "edges": [], "loops": []}
    assert sl.from_json_dict(doc).n == sl.graph.MAX_ORDER
    for over in ({"n": sl.graph.MAX_ORDER + 1},
                 {"edges": [[1, 2, 1]] * (sl.graph.MAX_EDGES + 1)}):
        with pytest.raises(SizeError):
            sl.from_json_dict({**doc, **over})


def test_duplicate_edge_in_document_is_schema_error():
    text = json.dumps({"name": "g", "n": 2,
                       "edges": [[1, 2, 1], [2, 1, 1]], "loops": []})
    with pytest.raises(SchemaError):
        sl.from_json(text)


def _quoted_id_end(line: str) -> int:
    """Index of the quote that closes the first quoted ID in line, by DOT's rule:
    the dyad \\" is an escaped quote and every other character stands for itself."""
    i = line.index('"') + 1
    while line[i] != '"':
        i += 2 if line.startswith('\\"', i) else 1
    return i


def test_dot_export():
    g = sl.generate(FamilySpec("weighted_path", n=2, k=1))
    dot = sl.to_dot(g)
    assert dot.startswith('graph "weighted_path(2,1)"')
    assert "1 -- 2;" in dot and '3 -- 3 [label="1"];' in dot
    quoted = sl.to_dot(Graph(2, ((0, 1, 1),), name='say "hi"'))
    assert quoted.startswith('graph "say \\"hi\\"" {\n')
    for name in ("a\\", "a\\\\", 'say "hi"'):
        first = sl.to_dot(Graph(1, (), name=name)).split("\n")[0]
        assert _quoted_id_end(first) == first.rindex('"'), first


# ---------------------------------------------------------------------------
# reference agreement
# ---------------------------------------------------------------------------

def test_slow_reference_on_example(ncut_example_graph):
    value, mask, cut = slow_min_ncut(ncut_example_graph)
    assert value == Fraction(5, 12) and mask == 0b1111 and cut == 2
