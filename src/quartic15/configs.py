"""Finite combinatorics of the set {1,...,6}.

Duads, synthemes and totals, the marked conjugacy graph of the bidegree
(2,3) congruence with the singular-point columns of Table 1, the trope
incidence and Cremona-Richmond models, and orbits of the symmetric group S6.

Canonical labels: duads are sorted pairs, synthemes sorted triples of
sorted pairs, 3-subsets up to complement by the one that contains 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Hashable, Iterable, NamedTuple, Optional, Sequence

Duad = tuple[int, int]
Syntheme = tuple[Duad, Duad, Duad]
Total = tuple[Syntheme, ...]
Perm = tuple[int, ...]  # perm[i-1] = image of i, on {1,...,6}

POINTS = (1, 2, 3, 4, 5, 6)


def duads() -> list[Duad]:
    return [tuple(sorted(d)) for d in itertools.combinations(POINTS, 2)]


@lru_cache(maxsize=None)
def _syntheme_tuple() -> tuple[Syntheme, ...]:
    """All perfect matchings of {1,...,6} into three duads, sorted; built once."""
    result = []

    def extend(remaining: tuple[int, ...], acc: tuple[Duad, ...]):
        if not remaining:
            result.append(tuple(sorted(acc)))
            return
        a = remaining[0]
        for b in remaining[1:]:
            rest = tuple(x for x in remaining if x not in (a, b))
            extend(rest, acc + ((a, b),))

    extend(POINTS, ())
    return tuple(sorted(set(result)))


def synthemes() -> list[Syntheme]:
    """All perfect matchings of {1,...,6} into three duads, as a fresh list
    on each call (the matchings themselves are built once)."""
    return list(_syntheme_tuple())


def totals() -> list[Total]:
    """The six sets of 5 pairwise-disjoint synthemes covering all duads."""
    synth = synthemes()
    result: list[Total] = []

    def extend(start: int, acc: list[Syntheme], used: set[Duad]):
        if len(acc) == 5:
            result.append(tuple(acc))
            return
        for i in range(start, len(synth)):
            s = synth[i]
            if any(d in used for d in s):
                continue
            extend(i + 1, acc + [s], used | set(s))

    extend(0, [], set())
    return result


def three_subsets() -> list[tuple[int, int, int]]:
    """The 10 cardinality-3 subsets up to complement; representative contains 1."""
    return [tuple(sorted((1,) + pair)) for pair in itertools.combinations(range(2, 7), 2)]


def apply_perm_duad(g: Perm, d: Duad) -> Duad:
    a, b = g[d[0] - 1], g[d[1] - 1]
    return (a, b) if a < b else (b, a)


def apply_perm_duad_set(g: Perm, ds: Iterable[Duad]) -> tuple[Duad, ...]:
    return tuple(sorted(apply_perm_duad(g, d) for d in ds))


def s6_elements() -> list[Perm]:
    return list(itertools.permutations(POINTS))


S6_GENERATORS: tuple[Perm, ...] = (
    (2, 1, 3, 4, 5, 6),
    (1, 3, 2, 4, 5, 6),
    (1, 2, 4, 3, 5, 6),
    (1, 2, 3, 5, 4, 6),
    (1, 2, 3, 4, 6, 5),
)


def trope_node_sets() -> dict[Duad, frozenset[Duad]]:
    """Node sets of the 10 trope-conics, nodes indexed by duads of [1,6].

    The conic attached to a duad (a,b) of [1,5] passes through the node (a,b),
    the three nodes given by duads of [1,5]\\{a,b}, and the nodes (a,6),(b,6).
    The ten sets form a single S6-orbit.
    """
    result = {}
    for a, b in itertools.combinations(range(1, 6), 2):
        rest = [x for x in range(1, 6) if x not in (a, b)]
        nodes = {(a, b), (a, 6), (b, 6)}
        nodes.update(itertools.combinations(rest, 2))
        result[(a, b)] = frozenset(nodes)
    return result


# -- marked graphs -----------------------------------------------------------


class MarkedGraph(NamedTuple):
    """Vertices with integer marks h(x); edges carry multiplicities."""

    vertices: tuple[Hashable, ...]
    marks: dict[Hashable, int]
    edges: dict[frozenset, int]

    def neighbors(self, v) -> set:
        return {w for e in self.edges for w in e if v in e} - {v}

    def girth(self) -> Optional[int]:
        """Shortest cycle length: the mark-1 part of the (2,3) conjugacy graph,
        cubic of girth 5, is the Petersen graph."""
        best = None
        adj = {v: self.neighbors(v) for v in self.vertices}
        for start in self.vertices:
            # BFS from start; a non-tree edge closes a cycle through it
            dist, parent, queue = {start: 0}, {start: None}, [start]
            for u in queue:  # the queue grows while it is read
                for w in adj[u]:
                    if w not in dist:
                        dist[w], parent[w] = dist[u] + 1, u
                        queue.append(w)
                    elif parent[u] != w:
                        cycle = dist[u] + dist[w] + 1
                        best = cycle if best is None else min(best, cycle)
        return best


TABLE1_COLUMNS: dict[str, dict[int, int]] = {
    "(2,2)": {1: 16},
    "(2,3)": {1: 10, 2: 5},
    "(2,4)": {1: 6, 2: 6, 3: 2},
    "(2,5)": {1: 3, 2: 6, 3: 3, 4: 1},
    "(2,6)_I": {1: 1, 2: 4, 3: 6, 5: 1},
    "(2,6)_II": {2: 8, 4: 4},
    "(2,7)": {3: 10, 6: 1},
}


def conjugacy_graph() -> MarkedGraph:
    """Marked conjugacy graph of the bidegree (2,3) congruence of a 15-nodal
    quartic, certified by `congruence-2-3`.

    The Petersen graph on the 10 duads of [1,5] with mark 1, K(5) on the
    vertices (a6) with mark 2, and cross edges (ab)-(a6), (ab)-(b6).  Stored
    edge multiplicity is max(h+h'-3, 0).
    """
    l_vertices = [tuple(sorted(d)) for d in itertools.combinations(range(1, 6), 2)]
    c_vertices = [(a, 6) for a in range(1, 6)]
    marks = {v: 1 for v in l_vertices}
    marks.update({v: 2 for v in c_vertices})
    edges: dict[frozenset, int] = {}
    for u, v in itertools.combinations(l_vertices, 2):
        if not set(u) & set(v):  # Petersen adjacency: disjoint duads
            edges[frozenset((u, v))] = 0
    for u, v in itertools.combinations(c_vertices, 2):  # K(5)
        edges[frozenset((u, v))] = 1
    for a, b in l_vertices:
        edges[frozenset(((a, b), (a, 6)))] = 0
        edges[frozenset(((a, b), (b, 6)))] = 0
    return MarkedGraph(tuple(l_vertices + c_vertices), marks, edges)


# -- incidence structures ----------------------------------------------------


class IncidenceStructure(NamedTuple):
    points: tuple[Hashable, ...]
    blocks: tuple[Hashable, ...]
    matrix: tuple[tuple[bool, ...], ...]  # rows = points, cols = blocks

    def point_degree(self, i: int) -> int:
        return sum(self.matrix[i])

    def block_degree(self, j: int) -> int:
        return sum(row[j] for row in self.matrix)

    def is_configuration(self, r: int, k: int) -> bool:
        return all(self.point_degree(i) == r for i in range(len(self.points))) and all(
            self.block_degree(j) == k for j in range(len(self.blocks))
        )


@lru_cache(maxsize=None)
def trope_incidence_model() -> IncidenceStructure:
    """Nodes (synthemes) vs trope planes (3-subsets): type (15_4, 10_6).

    A syntheme is on the block {a,b,c} iff it matches {a,b,c} with its
    complement, i.e. every duad has one endpoint on each side.  Points and
    blocks come in the order of `synthemes()` and `three_subsets()`, the
    order in which a hyperplane section labels its nodes and tropes, so a
    section's incidence certifies by equality with this model: the labels
    are the isomorphism.  Built once, on first use; the record is all
    tuples, so the cached copy cannot go stale.
    """
    pts = synthemes()
    blocks = three_subsets()
    matrix = []
    for s in pts:
        row = []
        for blk in blocks:
            side = set(blk)
            row.append(all(len(side & set(d)) == 1 for d in s))
        matrix.append(tuple(row))
    return IncidenceStructure(tuple(pts), tuple(blocks), tuple(matrix))


def cremona_richmond_model() -> IncidenceStructure:
    """Intersection points (duads) vs double lines (synthemes): a duad lies on
    the three synthemes that contain it, the Cremona-Richmond configuration
    (15_3), which is not the trope incidence (15_4, 10_6).  `cr-duad-points`
    certifies the quartic's 15 points and 15 double lines by equality with
    it, the labels being the isomorphism."""
    pts, blocks = tuple(duads()), tuple(synthemes())
    return IncidenceStructure(pts, blocks, tuple(tuple(d in s for s in blocks) for d in pts))


# -- S6 orbits ---------------------------------------------------------------


class Orbit(NamedTuple):
    elements: tuple  # in the given order; the first is the representative


def s6_orbits(images: Callable[[Hashable], Sequence[Hashable]], elements: Iterable) -> list[Orbit]:
    """Orbit partition; checks the action axioms.

    `images(x)` must list the images of x under the permutations of S6, in
    the order of `s6_elements()`, for a left action of S6 on the elements.
    The identity and compatibility axioms are checked on the generators
    (for the first three elements).  Each new orbit takes one call of
    `images`, which gives the orbit and the stabilizer of its first element
    together; the images must stay among the elements not yet in an orbit,
    and |orbit|*|stab| = 720 is verified for every orbit, so a returned
    orbit's size fixes its stabilizer order as 720/|orbit|.  The walk keeps
    one insertion-ordered dict, of the elements not yet in an orbit: each
    orbit starts at its first element, takes its elements in the given
    order and removes them.  So orbits come in the order of their first
    elements, and each one's first element is its representative (the least
    one when the elements are given sorted).

    In the library, only `pentads.orbit_partition` calls it, on the 3003
    pentad masks.  The tests certify through it that S6 permutes each of
    these in one orbit: the 15 nodes and the 15 double lines (orbit 15,
    stabilizer 48), the 6 totals (stabilizer 120), the 10 tropes (72) and
    the even-set code words of weight 6, 8 and 10.
    """
    pending = dict.fromkeys(elements)
    group = s6_elements()
    index = {g: i for i, g in enumerate(group)}

    def row(x) -> Sequence:
        xs = images(x)
        if len(xs) != len(group):
            raise ValueError("images must list one image per element of S6")
        return xs

    for x in itertools.islice(pending, 3):
        xs = row(x)
        if xs[index[POINTS]] != x:
            raise ValueError("identity permutation does not act trivially")
        for h in S6_GENERATORS[:2]:
            hxs = row(xs[index[h]])
            for g in S6_GENERATORS[:2]:
                gh = tuple(g[h[i] - 1] for i in range(6))
                if xs[index[gh]] != hxs[index[g]]:
                    raise ValueError("not a group action (compatibility fails)")
    orbits = []
    while pending:
        x = next(iter(pending))
        xs = row(x)
        orbit = set(xs)
        if not orbit <= pending.keys():
            raise ValueError("element set is not closed under the action")
        stab = xs.count(x)
        if stab * len(orbit) != 720:
            raise AssertionError("orbit-stabilizer identity failed")
        members = tuple(filter(orbit.__contains__, pending))
        for y in members:
            del pending[y]
        orbits.append(Orbit(members))
    return orbits
