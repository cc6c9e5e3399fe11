"""Each derived structure is built once per group and shared by every reader."""

import gc
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import centra as c
from centra import graphs, groups, lattice
from centra.cli import build_report


def emit_artifacts(G):
    """The lattice, poset, commuting, centralizer and degrees artifacts."""
    poset = c.center_poset(G)
    return [
        c.export_dot(c.build_lattice(G)),
        c.export_dot(poset, c.moebius(poset)),
        c.export_dot(c.commuting_graph(G)),
        c.export_dot(c.centralizer_graph(G)),
        c.degree_csv(c.commuting_graph(G), c.p_group_prime(G.order)),
    ]


@pytest.fixture
def built(monkeypatch):
    """Counts constructions: one key per class, graphs keyed by kind."""
    counts = Counter()

    def count_inits(cls, by_kind=False):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            counts[kwargs["kind"] if by_kind else cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    for cls in (c.CentClass, c.CentLattice, c.CenterPoset, c.MoebiusTable):
        count_inits(cls)
    count_inits(c.GroupGraph, by_kind=True)
    return counts


@pytest.mark.parametrize("make", [
    pytest.param(lambda: c.builtin_group("dihedral", 8), id="D8"),
    pytest.param(lambda: c.direct_product(c.builtin_group("heisenberg", 3),
                                          c.builtin_group("heisenberg", 3)), id="H3xH3"),
])
def test_report_and_emits_build_each_structure_once(built, make):
    G = make()
    covers = evaluations(lattice.hasse_edges, lambda: build_report(G, G.name))
    first = emit_artifacts(G)
    assert evaluations(lattice.hasse_edges, lambda: emit_artifacts(G)) == 0
    assert emit_artifacts(G) == first
    assert built["CentClass"] == len(c.z_star_partition(G))
    assert built["CentLattice"] == 1
    assert built["CenterPoset"] == 1
    assert built["MoebiusTable"] == 1
    assert built["commuting"] == 1
    assert built["centralizer"] == 1
    # Hasse covers: evaluated twice, and memoised on each order, so once per order.
    assert covers == 2
    for order in (c.build_lattice(G), c.center_poset(G)):
        assert lattice.hasse_edges.__wrapped__ in order._derived


def test_repeated_calls_return_the_same_object(d8):
    assert c.z_star_partition(d8) is c.z_star_partition(d8)
    assert c.build_lattice(d8) is c.build_lattice(d8)
    assert c.center_poset(d8) is c.center_poset(d8)
    assert c.moebius(c.center_poset(d8)) is c.moebius(c.center_poset(d8))
    assert c.hasse_edges(c.build_lattice(d8)) is c.hasse_edges(c.build_lattice(d8))
    assert c.commuting_graph(d8) is c.commuting_graph(d8)
    assert c.transversal_graph(d8) is c.transversal_graph(d8)
    assert c.centralizer_graph(d8) is c.centralizer_graph(d8)


def test_dropped_group_is_freed_without_the_collector():
    """Lattices and posets hold their group weakly, so an analysed group is
    freed as soon as it is dropped, with no cycle left for the collector."""
    G = c.builtin_group("dihedral", 8)
    build_report(G, G.name)
    emit_artifacts(G)
    lat, alive = c.build_lattice(G), weakref.ref(G)
    gc.disable()
    try:
        del G
        assert alive() is None
    finally:
        gc.enable()
    with pytest.raises(ReferenceError, match="the group of this lattice has been freed"):
        lat.group
    assert repr(lat) == "<CentLattice of D8: 5 nodes>"


def test_dropped_poset_and_moebius_table_are_freed_without_the_collector():
    """A Möbius table holds its poset weakly (the poset memoises the table),
    so the two form no cycle: dropping the group frees both at once."""
    G = c.builtin_group("dihedral", 8)
    build_report(G, G.name)
    emit_artifacts(G)
    poset = c.center_poset(G)
    mu = c.moebius(poset)
    assert mu.poset is poset and mu.value(poset.min_index) == 1
    assert c.export_dot(poset, mu).count("mu=") == len(poset)
    alive = [weakref.ref(x) for x in (G, poset, mu)]
    gc.disable()
    try:
        del G, poset, mu
        assert [ref() for ref in alive] == [None, None, None]
    finally:
        gc.enable()


def test_moebius_table_of_a_freed_poset_raises():
    G = c.builtin_group("dihedral", 8)
    mu = c.moebius(c.center_poset(G))
    del G
    with pytest.raises(ReferenceError, match="the poset of this Möbius table has been freed"):
        mu.value(0)


def test_explicit_transversal_graph_is_built_per_call(d8):
    T = c.default_transversal(d8)
    assert c.transversal_graph(d8, T) is not c.transversal_graph(d8, T)
    assert c.transversal_graph(d8, T) == c.transversal_graph(d8)


def test_groups_share_no_structures(d8):
    twin = c.Group(d8.table, d8.labels, d8.name)
    assert c.build_lattice(twin) is not c.build_lattice(d8)
    assert c.build_lattice(twin).nodes == c.build_lattice(d8).nodes


def test_concurrent_first_calls_get_one_object(d8):
    G = c.direct_product(d8, d8)

    def work(_):
        lat, poset = c.build_lattice(G), c.center_poset(G)
        return (lat, poset, c.commuting_graph(G), c.hasse_edges(lat), c.moebius(poset),
                lat.above, poset.above, lat.ustar)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(16)))
    for k in range(8):
        assert len({id(r[k]) for r in results}) == 1


def evaluations(fn, work):
    """How often the body of ``fn`` (of a per-group function: its wrapped body)
    runs during ``work()``."""
    code = getattr(fn, "__wrapped__", fn).__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def test_report_evaluates_quotient_consistency_once(d8):
    G = c.Group(d8.table, d8.labels, d8.name)
    assert evaluations(graphs.quotient_consistency, lambda: build_report(G, G.name)) == 1
    assert evaluations(graphs.quotient_consistency, lambda: build_report(G, G.name)) == 0
    assert c.quotient_consistency(G) is True


def test_abelian_quotient_consistency_raises_every_time():
    G = c.builtin_group("cyclic", 4)
    for _ in range(2):
        with pytest.raises(c.AbelianGroupError, match="C4 is abelian: the quotient graph"):
            c.quotient_consistency(G)
    assert graphs.quotient_consistency.__wrapped__ not in G._derived


def test_s6_report_evaluates_u_star_once_per_lattice_node():
    G = c.builtin_group("symmetric", 6)
    assert evaluations(c.u_star, lambda: build_report(G, G.name)) == len(c.build_lattice(G))
    assert evaluations(c.u_star, lambda: build_report(G, G.name)) == 0


@pytest.mark.parametrize("make", [
    pytest.param(lambda: c.builtin_group("dihedral", 8), id="D8"),
    pytest.param(lambda: c.builtin_group("symmetric", 4), id="S4"),
])
def test_report_labels_each_node_once_and_leaves_emits_only_rendering(make):
    """The report labels every lattice and poset node, each distinct subgroup
    once, and computes both orders' Hasse covers; an emit after it does neither."""
    G = make()
    labelled = evaluations(groups._label_subgroup, lambda: build_report(G, G.name))
    nodes = c.build_lattice(G).nodes + c.center_poset(G).nodes
    assert labelled == len({node.mask for node in nodes})
    for fn in (groups._label_subgroup, lattice.hasse_edges):
        assert evaluations(fn, lambda: emit_artifacts(G)) == 0
