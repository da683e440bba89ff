import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

import quartic15
from quartic15 import cli, pentads
from quartic15.configs import POINTS, apply_perm_duad_set, s6_elements, trope_node_sets
from quartic15.lattice import det_bareiss
from quartic15.nodal_surface import C_SET, NODES
from quartic15.pentads import (
    CriterionReport,
    _triangle_plus_segment,
    _vertex_mask,
    all_pentads,
    classify,
    goepel_pentads,
    graph_criterion_crosscheck,
    mask_images,
    mask_pentad,
    node_mask,
    orbit_partition,
    orbit_table,
    pencil_classes,
    pentad_table,
    quadruple_determinants,
    quadruple_rule,
    triple_criterion,
    triple_rule,
)

TYPE_II = ((1, 5), (2, 3), (3, 4), (3, 5), (4, 5))


def test_total_count():
    assert len(all_pentads()) == 3003


def test_goepel_pentads_are_five_stars():
    gs = goepel_pentads()
    assert len(gs) == 6
    assert tuple(sorted(C_SET)) in gs
    for p in gs:
        # a five-star: some vertex lies on every edge
        common = set.intersection(*[set(d) for d in p])
        assert len(common) == 1


def test_goepel_independent_oracle():
    # direct enumeration: pentads where every trope meets in at most 2 nodes
    tropes = list(trope_node_sets().values())
    count = 0
    for p in itertools.combinations(NODES, 5):
        s = set(p)
        if all(len(s & t) <= 2 for t in tropes):
            count += 1
    assert count == 6 == len(goepel_pentads())


def test_type_ii_example():
    # admissible, and not Goepel: three of its triples lie on tropes
    cls = classify(TYPE_II)
    assert cls.admissible and cls.trope_triples
    assert len(cls.trope_triples) == 3
    labels = sorted(t[0] for t in cls.trope_triples)
    assert labels == [(1, 2), (1, 5), (2, 3)]


def test_inadmissible_four_on_trope():
    # four nodes of the trope for (1,2) plus a fifth node
    trope = sorted(trope_node_sets()[(1, 2)])
    pentad = tuple(sorted(trope[:4] + [(1, 3)]))
    cls = classify(pentad)
    assert not cls.admissible  # so not Goepel either
    assert cls.trope_triples  # the contained triples are recorded


def test_classify_matches_the_set_definition_on_every_pentad():
    # the definition on node sets: admissible when no trope holds four of the
    # five nodes, Goepel when none holds three, that is, admissible with no
    # trope triple; every triple the meet of a trope holds is recorded,
    # tropes in label order, triples sorted
    tropes = sorted(trope_node_sets().items())
    for p in all_pentads():
        meets = [(label, sorted(set(p) & nodes)) for label, nodes in tropes]
        triples = tuple((label, t) for label, meet in meets for t in itertools.combinations(meet, 3))
        admissible = all(len(meet) <= 3 for _, meet in meets)
        cls = classify(tuple(reversed(p)))
        assert cls.pentad == p
        assert (cls.admissible, cls.trope_triples) == (admissible, triples)
        assert (cls.admissible and not cls.trope_triples) == all(len(meet) <= 2 for _, meet in meets)


def test_classify_refuses_labels_that_are_no_nodes():
    star = ((1, 2), (1, 3), (1, 4), (1, 5))
    for bad in (star, star + ((1, 5),), star + ((6, 7),)):
        with pytest.raises(ValueError, match="five distinct node labels"):
            classify(bad)


def test_admissibility_is_orbit_invariant():
    table = orbit_table()
    assert sum(o.size for o in table) == 3003
    goepel_orbits = [o for o in table if o.goepel]
    assert len(goepel_orbits) == 1 and goepel_orbits[0].size == 6


def test_orbit_partition_built_once_and_read_only():
    orbits, orbit_of = orbit_partition()
    assert orbit_partition() is orbit_partition()
    assert isinstance(orbits, tuple) and all(isinstance(o, tuple) for o in orbits)
    assert sorted(mask for o in orbits for mask in o) == sorted(pentad_table())
    # the orbit index of every pentad mask, in 2^15 immutable bytes
    assert isinstance(orbit_of, bytes) and len(orbit_of) == 1 << 15
    assert all(orbit_of[mask] == i for i, o in enumerate(orbits) for mask in o)
    table = pentad_table()
    assert pentad_table() is table and len(table) == 3003
    with pytest.raises(TypeError):
        table[next(iter(table))] = (True, True, 0)


def test_the_pentad_sweeps_retain_mask_tables_only():
    # run cold in a fresh interpreter under tracemalloc: the caches the three
    # sweeps leave behind (pentad table, orbit partition, image columns,
    # rules) retain 538,713 bytes on Python 3.11.7; with per-trope maps
    # from each meet of three to five nodes to its triples they retained
    # 759,057.  The bound lies halfway between the two.
    code = (
        "import tracemalloc\n"
        "tracemalloc.start()\n"
        "from quartic15 import pentads as pt\n"
        "base = tracemalloc.get_traced_memory()[0]\n"
        "pt.orbit_table(); pt.goepel_pentads(); pt.graph_criterion_crosscheck()\n"
        "print(tracemalloc.get_traced_memory()[0] - base)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < (759_057 + 538_713) // 2


S6_INDEX = {g: i for i, g in enumerate(s6_elements())}


@settings(max_examples=200, deadline=None)
@given(
    st.permutations(POINTS),
    st.permutations(POINTS),
    st.lists(st.integers(0, len(NODES) - 1), min_size=5, max_size=5, unique=True),
)
def test_mask_images_are_an_action_of_s6(g, h, positions):
    # the image columns act as S6 does on node sets: the identity fixes a
    # pentad mask, g∘h acts as g after h, every image keeps five bits, and
    # the image under g is the mask of the relabelled pentad
    g, h = tuple(g), tuple(h)
    pentad = [NODES[i] for i in positions]
    mask = node_mask(pentad)
    images = mask_images(mask)
    assert len(images) == 720
    assert images[S6_INDEX[POINTS]] == mask
    gh = tuple(g[h[i] - 1] for i in range(6))
    assert images[S6_INDEX[gh]] == mask_images(images[S6_INDEX[h]])[S6_INDEX[g]]
    assert all(image.bit_count() == 5 for image in images)
    assert images[S6_INDEX[g]] == node_mask(apply_perm_duad_set(g, pentad))


def test_pentad_masks_are_the_pentads_in_order():
    # the keys of the table are the masks of the pentads in order, and
    # `mask_pentad` reads each back as its sorted pentad
    masks = list(pentad_table())
    assert masks == [node_mask(p) for p in all_pentads()]
    assert [mask_pentad(mask) for mask in masks] == all_pentads()


def test_pentad_table_is_classify_on_every_pentad():
    # the table counts the triples of each meet; `classify` forms them
    table = pentad_table()
    for p in all_pentads():
        cls = classify(p)
        goepel = cls.admissible and not cls.trope_triples
        assert table[node_mask(p)] == (cls.admissible, goepel, len(cls.trope_triples)), p


def test_orbit_table_counts():
    orbits, _ = orbit_partition()
    assert [o.size for o in orbit_table()] == list(map(len, orbits))
    admissible_total = sum(len(orbit) for orbit in orbits if classify(mask_pentad(orbit[0])).admissible)
    assert admissible_total == sum(1 for p in all_pentads() if classify(p).admissible)
    # the type-II pentad's orbit, led by its least pentad, carries 3 trope-triples
    rep_counts = {mask_pentad(orbit[0]): len(classify(mask_pentad(orbit[0])).trope_triples) for orbit in orbits}
    rep = min(apply_perm_duad_set(g, TYPE_II) for g in s6_elements())
    assert rep_counts[rep] == 3


def test_a_classification_that_varies_on_an_orbit_turns_pentads_classified_red(monkeypatch):
    orbits, _ = orbit_partition()
    orbit = next(orbit for orbit in orbits if len(orbit) > 1)
    flipped = dict(pentad_table())
    admissible, goepel, count = flipped[orbit[1]]
    flipped[orbit[1]] = (not admissible, goepel, count)
    monkeypatch.setattr(pentads, "pentad_table", lambda: flipped)
    with pytest.raises(AssertionError, match="^pentad classification must be an orbit invariant$"):
        orbit_table()
    code, report = cli.run(["pentads"], out=io.StringIO())
    assert code == 1
    (check,) = [c for c in report.checks if c["id"] == "pentads-classified"]
    assert check["status"] == "fail" and check["error"]["type"] == "AssertionError"


def test_graph_criterion_readings_disagree_on_goepel():
    assert classify(tuple(sorted(C_SET))).admissible
    # the Goepel orbit is admissible, but no edge deletion of a five-star
    # leaves a triangle, so both readings reject it
    goepel = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6))
    report = graph_criterion_crosscheck()
    assert (goepel, True, False) in report.mismatch_orbits_exists
    assert (goepel, True, False) in report.mismatch_orbits_forall


def test_triple_criterion_matches_networkx():
    # every (pentad, triple) pair against an independent reading of the
    # rule: the three edges are one 3-cycle, or two components, a single
    # edge and a two-edge chain
    def triangle_or_segment_plus_chain(edges):
        graph = nx.Graph(edges)
        comps = sorted((graph.subgraph(c) for c in nx.connected_components(graph)), key=len)
        sizes = [g.number_of_edges() for g in comps]
        return (sizes == [3] and len(comps[0]) == 3) or sizes == [1, 2]

    pairs = 0
    for p in all_pentads():
        for triple in itertools.combinations(p, 3):
            assert triple_criterion(triple) == triangle_or_segment_plus_chain(triple), (p, triple)
            pairs += 1
    assert pairs == 30030


def test_triple_rule_is_the_criterion_and_the_trope_incidence():
    # tabled over all 455 triples; the two-edge rule holds exactly on the
    # triples that lie on a trope-conic
    assert triple_rule() is triple_rule()
    triples = list(itertools.combinations(NODES, 3))
    assert len(triples) == 455
    assert triple_rule() == {node_mask(t) for t in triples if triple_criterion(t)}
    tropes = trope_node_sets().values()
    assert triple_rule() == {node_mask(t) for t in triples if any(set(t) <= nodes for nodes in tropes)}


def test_graph_criterion_readings_match_networkx():
    # both readings against an independent test on every pentad: a deletion
    # leaves two components, a 3-cycle and a single edge
    def triangle_plus_segment(edges):
        graph = nx.Graph(edges)
        comps = sorted((graph.subgraph(c) for c in nx.connected_components(graph)), key=len)
        return [g.number_of_edges() for g in comps] == [1, 3] and len(comps[1]) == 3

    for p in all_pentads():
        deletions = [triangle_plus_segment([e for e in p if e != edge]) for edge in p]
        assert [node_mask(p) ^ node_mask([edge]) in quadruple_rule() for edge in p] == deletions


def test_quadruple_rule_is_the_triangle_plus_segment_table():
    # tabled once, read-only, over all 1,365 sorted quadruples
    assert quadruple_rule() is quadruple_rule() and isinstance(quadruple_rule(), frozenset)
    quads = list(itertools.combinations(NODES, 4))
    assert len(quads) == 1365
    for q in quads:
        assert (node_mask(q) in quadruple_rule()) == _triangle_plus_segment([_vertex_mask(e) for e in q]), q


def test_graph_criterion_crosscheck_matches_the_per_pentad_loop():
    # the report against the loop that tests every 4-edge subset of every
    # pentad on its own, with the same tallies and first mismatch per orbit
    orbits, _ = orbit_partition()
    rep_of = {mask_pentad(mask): mask_pentad(orbit[0]) for orbit in orbits for mask in orbit}
    agree = [0, 0]
    mismatches = [{}, {}]
    for p in all_pentads():
        cls = classify(p)
        masks = [_vertex_mask(e) for e in p]
        deletions = [_triangle_plus_segment(masks[:i] + masks[i + 1 :]) for i in range(5)]
        for k, reading in enumerate((any(deletions), all(deletions))):
            agree[k] += reading == cls.admissible
            if reading != cls.admissible:
                mismatches[k].setdefault(rep_of[p], (rep_of[p], cls.admissible, reading))
    expected = CriterionReport(
        total=3003,
        agree_exists=agree[0],
        agree_forall=agree[1],
        mismatch_orbits_exists=tuple(sorted(mismatches[0].values())),
        mismatch_orbits_forall=tuple(sorted(mismatches[1].values())),
        triple_rule_agrees=True,
    )
    assert graph_criterion_crosscheck() == expected


def test_the_classes_list_66_trope_triples_per_rule_triple():
    # a triple lies in C(12,2) = 66 pentads
    assert len(triple_rule()) == 200
    assert sum(count for _, _, count in pentad_table().values()) == 66 * 200 == 13_200


def test_a_class_that_drops_a_trope_triple_fails_the_triple_half(monkeypatch):
    # the rule still equals the trope triples of the tables; only the count
    # of the triples the classes list sees the dropped one
    from quartic15 import pentads as pt

    table = dict(pt.pentad_table())
    mask, (admissible, goepel, count) = next((m, k) for m, k in table.items() if k[2])
    table[mask] = (admissible, goepel, count - 1)
    monkeypatch.setattr(pt, "pentad_table", lambda: table)
    assert not graph_criterion_crosscheck().triple_rule_agrees


def test_triple_criterion_examples():
    # triangle: {34,35,45} within the type-II pentad is on a trope
    assert triple_criterion(((3, 4), (3, 5), (4, 5)))
    # chain 1-5-4-3 is not
    assert not triple_criterion(((1, 5), (4, 5), (3, 4)))
    # segment + chain: {15, 23, 34}
    assert triple_criterion(((1, 5), (2, 3), (3, 4)))


def test_crosscheck_report():
    rep = graph_criterion_crosscheck()
    assert rep.total == 3003
    assert rep.triple_rule_agrees
    # both one-edge readings disagree with incidence admissibility somewhere
    assert rep.agree_exists < 3003
    assert rep.agree_forall < 3003
    # the Goepel orbit (admissible, but a star graph never leaves a triangle)
    # appears among the mismatches of both readings; its orbit representative
    # is the star at vertex 1
    goepel_rep = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6))
    assert goepel_rep in [m[0] for m in rep.mismatch_orbits_exists]
    assert goepel_rep in [m[0] for m in rep.mismatch_orbits_forall]


def test_pencil_classes_goepel():
    data = pencil_classes(tuple(sorted(C_SET)))
    assert len(data.classes) == 5
    assert data.half_sum.norm() == 10


def test_pencil_classes_type_ii():
    data = pencil_classes(TYPE_II)
    assert len(data.classes) == 5 and len(classify(TYPE_II).trope_triples) == 3


def test_geometric_admissibility_crosscheck():
    from quartic15.pentads import geometric_admissibility_crosscheck
    from quartic15.varieties import hyperplane_section

    report = geometric_admissibility_crosscheck(hyperplane_section((1, 2, 3, 5, 7, 11)))
    assert report.agrees
    assert report.coplanar_quadruples == 150 == 10 * 15  # C(6,4) per trope
    assert report.accidental_quadruples == 0
    assert report.geometric_admissible == report.combinatorial_admissible == 1593


def test_geometric_admissibility_crosscheck_needs_a_node_on_each_line():
    from quartic15.pentads import geometric_admissibility_crosscheck
    from quartic15.varieties import hyperplane_section

    section = hyperplane_section((1, 2, 3, 5, 7, 11))
    with pytest.raises(ValueError, match="each of the 15 double lines"):
        geometric_admissibility_crosscheck(section._replace(nodes=section.nodes[:14]))


def test_cofactor_determinants_match_bareiss_on_the_reference_section():
    from quartic15.varieties import hyperplane_section

    section = hyperplane_section((1, 2, 3, 5, 7, 11))
    pts = {n.syntheme: n.chart_point.coords for n in section.nodes if n.syntheme is not None}
    dets = quadruple_determinants(pts)
    assert list(dets) == list(itertools.combinations(sorted(pts), 4)) and len(dets) == 1365
    for quad, det in dets.items():
        assert det == det_bareiss([pts[s] for s in quad]), quad
    assert sum(det == 0 for det in dets.values()) == 150


def test_cofactor_determinants_match_bareiss_on_random_points():
    # integer points of mixed sign and size, with repeated and dependent rows
    rng = random.Random(25)
    for _ in range(40):
        pts = {k: [rng.randint(-9, 9) for _ in range(4)] for k in range(7)}
        pts[5] = [a - 2 * b for a, b in zip(pts[0], pts[1])]
        pts[6] = [rng.randint(-10**12, 10**12) for _ in range(4)]
        for quad, det in quadruple_determinants(pts).items():
            assert det == det_bareiss([pts[k] for k in quad]), (pts, quad)


def test_pencil_classes_every_admissible_orbit():
    # the exact pencil identities hold for one representative per orbit
    table = pentad_table()
    for orbit in orbit_partition()[0]:
        admissible, _, count = table[orbit[0]]
        if admissible:
            data = pencil_classes(mask_pentad(orbit[0]))
            assert data.half_sum.norm() == 10
            assert len(classify(mask_pentad(orbit[0])).trope_triples) == count


def test_pencil_classes_reject_inadmissible():
    trope = sorted(trope_node_sets()[(1, 2)])
    pentad = tuple(sorted(trope[:4] + [(1, 3)]))
    with pytest.raises(ValueError, match="not admissible"):
        pencil_classes(pentad)
