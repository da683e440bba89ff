import itertools

import pytest

from quartic15 import configs
from quartic15.configs import (
    MarkedGraph,
    apply_perm_duad,
    apply_perm_duad_set,
    conjugacy_graph,
    cremona_richmond_model,
    duads,
    s6_orbits,
    synthemes,
    three_subsets,
    totals,
    trope_incidence_model,
    trope_node_sets,
)


def test_enumeration_sizes():
    assert len(duads()) == 15
    assert len(synthemes()) == 15
    assert len(totals()) == 6
    assert len(three_subsets()) == 10


def test_syntheme_brute_force_oracle():
    # independent oracle: count partitions of [1,6] into three pairs directly
    count = 0
    pts = set(range(1, 7))
    for d1 in itertools.combinations(range(1, 7), 2):
        if 1 not in d1:
            continue
        rest = sorted(pts - set(d1))
        for d2 in itertools.combinations(rest, 2):
            if rest[0] not in d2:
                continue
            count += 1
    assert count == 15


def test_synthemes_are_built_once_and_handed_out_as_fresh_lists():
    first = synthemes()
    expected = list(first)
    first.reverse()
    first.append(((1, 2), (3, 4), (5, 6)))
    first[0] = None
    again = synthemes()
    assert again == expected and again is not first
    assert len(again) == 15 and again == sorted(again)


def test_totals_cover_each_duad_once():
    for total in totals():
        seen = [d for s in total for d in s]
        assert sorted(seen) == duads()


def test_two_synthemes_share_at_most_one_duad():
    for s, t in itertools.combinations(synthemes(), 2):
        assert len(set(s) & set(t)) <= 1


def test_conjugacy_graph_degrees():
    g = conjugacy_graph()
    assert len(g.vertices) == 15
    for v in g.vertices:
        if 6 in v:
            assert g.marks[v] == 2
            assert len(g.neighbors(v)) == 8  # 4 within K(5) + 4 cross
        else:
            assert g.marks[v] == 1
            assert len(g.neighbors(v)) == 5  # 3 Petersen + 2 cross


def test_conjugacy_graph_multiplicity_rule():
    g = conjugacy_graph()
    for e, mult in g.edges.items():
        u, v = tuple(e)
        assert mult == max(g.marks[u] + g.marks[v] - 3, 0)


def test_petersen_subgraph_properties():
    g = conjugacy_graph()
    l_vertices = [v for v in g.vertices if 6 not in v]
    sub_edges = {e: m for e, m in g.edges.items() if all(6 not in v for v in e)}
    sub = MarkedGraph(tuple(l_vertices), {v: 1 for v in l_vertices}, sub_edges)
    assert all(len(sub.neighbors(v)) == 3 for v in l_vertices)
    assert sub.girth() == 5
    # vertex transitivity under the induced S5 action
    for v in l_vertices:
        assert any(
            apply_perm_duad(g5 + (6,), (1, 2)) == v
            for g5 in itertools.permutations(range(1, 6))
        )
    # adjacency from the figure: (12) adjacent to (34),(35),(45)
    assert sub.neighbors((1, 2)) == {(3, 4), (3, 5), (4, 5)}


def test_trope_incidence_model():
    inc = trope_incidence_model()
    assert inc.is_configuration(4, 6)
    # block (1,2,3) carries the 6 synthemes matching {1,2,3} to {4,5,6}
    j = inc.blocks.index((1, 2, 3))
    assert inc.block_degree(j) == 6
    for i, s in enumerate(inc.points):
        if inc.matrix[i][j]:
            assert all(len({1, 2, 3} & set(d)) == 1 for d in s)


def test_trope_incidence_model_is_built_once():
    # the section builder and the section-incidence check share one record
    assert trope_incidence_model() is trope_incidence_model()
    assert trope_incidence_model() == trope_incidence_model.__wrapped__()  # a fresh build


def test_cremona_richmond_model():
    inc = cremona_richmond_model()
    assert inc.is_configuration(3, 3)
    # not the trope incidence: its points lie on 3 blocks, the nodes on 4
    trope = trope_incidence_model()
    assert {inc.point_degree(i) for i in range(15)} == {3}
    assert {trope.point_degree(i) for i in range(15)} == {4}
    assert not inc.is_configuration(4, 6) and inc != trope


def test_trope_node_sets_s6_stable():
    sets = set(trope_node_sets().values())
    assert len(sets) == 10
    for g in configs.s6_elements():
        assert {frozenset(apply_perm_duad(g, d) for d in s) for s in sets} == sets


def test_apply_perm_duad_is_the_sorted_image_pair():
    # the sort-free comparison gives the sorted pair for every permutation
    # and every duad
    for g in configs.s6_elements():
        for d in duads():
            assert apply_perm_duad(g, d) == tuple(sorted((g[d[0] - 1], g[d[1] - 1])))


def images_under(action):
    """The `images` function of `s6_orbits` for an action `action(g, x)`:
    the images of x in the order of `s6_elements()`."""
    group = configs.s6_elements()
    return lambda x: [action(g, x) for g in group]


def test_s6_orbits_duads():
    orbits = s6_orbits(images_under(apply_perm_duad), duads())
    assert len(orbits) == 1
    assert len(orbits[0].elements) == 15  # stabilizer 720 / 15 = 48, as s6_orbits certifies


def test_s6_orbits_synthemes_and_totals():
    orbits = s6_orbits(images_under(apply_perm_duad_set), synthemes())
    assert len(orbits) == 1 and len(orbits[0].elements) == 15  # stabilizer 48

    def act_total(g, t):
        return tuple(sorted(apply_perm_duad_set(g, s) for s in t))

    orbits = s6_orbits(images_under(act_total), [tuple(sorted(t)) for t in totals()])
    assert len(orbits) == 1 and len(orbits[0].elements) == 6  # stabilizer 120


def test_s6_generators_generate_s6():
    # `Hypersurface.is_s6_invariant` tests only these five permutations, so
    # their closure under composition must be all of S6
    group, frontier = {tuple(range(1, 7))}, [tuple(range(1, 7))]
    while frontier:
        h = frontier.pop()
        for g in configs.S6_GENERATORS:
            gh = tuple(g[x - 1] for x in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    assert len(group) == 720


def test_s6_orbits_rejects_non_action():
    def bogus(g, x):
        return x if g == configs.POINTS else min(duads())

    with pytest.raises(ValueError):
        s6_orbits(images_under(bogus), duads())


def _generator_bfs_orbits(action, elements):
    """The orbit partition by a search over the five generators, each orbit
    in the given order of the elements, its first element the
    representative, and the stabilizer counted over all of S6."""
    elements = list(elements)
    position = {x: i for i, x in enumerate(elements)}
    seen, result = set(), []
    for x in elements:
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for g in configs.S6_GENERATORS:
                z = action(g, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        ordered = tuple(sorted(orbit, key=position.__getitem__))
        stab = sum(1 for g in configs.s6_elements() if action(g, x) == x)
        result.append((x, ordered, stab))
        seen |= orbit
    return result


def _orbit_cases():
    from quartic15 import pentads
    from quartic15.nodal_surface import even_set_code, nodes_of_word, word_of_nodes

    def act_total(g, t):
        return tuple(sorted(apply_perm_duad_set(g, s) for s in t))

    def act_trope(g, s):
        return frozenset(apply_perm_duad(g, d) for d in s)

    def act_word(g, w):
        return word_of_nodes([apply_perm_duad(g, d) for d in nodes_of_word(w)], eta_bit=bool(w & 1))

    def pentad_images(p):
        return [pentads.mask_pentad(m) for m in pentads.mask_images(pentads.node_mask(p))]

    return {
        "duads": (images_under(apply_perm_duad), apply_perm_duad, duads()),
        "synthemes": (images_under(apply_perm_duad_set), apply_perm_duad_set, synthemes()),
        "totals": (images_under(act_total), act_total, [tuple(sorted(t)) for t in totals()]),
        "tropes": (images_under(act_trope), act_trope, sorted(trope_node_sets().values(), key=sorted)),
        "code words": (images_under(act_word), act_word, sorted(even_set_code().words)),
        # the library's image columns against the per-duad action
        "pentads": (pentad_images, configs.apply_perm_duad_set, pentads.all_pentads()),
    }


@pytest.mark.parametrize("case", ["duads", "synthemes", "totals", "tropes", "code words", "pentads"])
def test_s6_orbits_match_a_generator_search(case):
    images, oracle_action, elements = _orbit_cases()[case]
    # s6_orbits certifies |orbit|·|stab| = 720; the oracle counts the stabilizer
    got = [(o.elements[0], o.elements, 720 // len(o.elements)) for o in s6_orbits(images, elements)]
    assert got == _generator_bfs_orbits(oracle_action, elements)
    if case != "tropes":  # sorted input: the representative is the least element
        assert all(rep == min(orbit) and orbit == tuple(sorted(orbit)) for rep, orbit, _ in got)
    if case == "pentads":
        from quartic15.pentads import mask_pentad, orbit_partition

        masks = orbit_partition()[0]
        assert [tuple(map(mask_pentad, orbit)) for orbit in masks] == [orbit for _, orbit, _ in got]


def test_s6_orbits_refuses_an_open_set_and_a_broken_orbit_count():
    with pytest.raises(ValueError, match="not closed"):
        s6_orbits(images_under(apply_perm_duad), duads()[:3])

    def lopsided(g, x):  # trivial on the checked generators, not an action
        return x if g[5] == 6 else 1 - x

    with pytest.raises(AssertionError, match="orbit-stabilizer"):
        s6_orbits(images_under(lopsided), [0, 1])

    with pytest.raises(ValueError, match="one image per element"):
        s6_orbits(lambda x: [x] * 719, [0])


def test_trope_words_orbit_and_stabilizers():
    # weight-6 words = trope node sets: orbit 10, stabilizer 72
    sets = sorted(trope_node_sets().values(), key=sorted)

    def act(g, s):
        return frozenset(apply_perm_duad(g, d) for d in s)

    orbits = s6_orbits(images_under(act), sets)
    assert len(orbits) == 1 and len(orbits[0].elements) == 10  # stabilizer 72


def test_incidence_json_roundtrip():
    inc = trope_incidence_model()
    assert len(inc.points) == 15 and len(inc.blocks) == 10
    assert sum(sum(row) for row in inc.matrix) == 60
