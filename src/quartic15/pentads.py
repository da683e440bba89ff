"""Classification of the 3003 pentads of nodes.

A pentad (five nodes, labelled by duads) is admissible when no trope-conic
contains four of them; it is a Goepel pentad when no trope-conic contains
even three.  This module classifies every pentad, computes the orbit table
under node relabeling, evaluates the ambiguous graph-theoretic admissibility
criterion under its possible readings, and materializes the elliptic-pencil
divisor classes with their exact degeneration identities.

The sweeps over all pentads read node masks: a set of nodes is the 15-bit
mask whose bit i stands for NODES[i], so a pentad is a mask of five bits, a
trope meet is `&`, and dropping a node is `^`.  A pentad's images under S6
are the OR of the image columns of its nodes (`mask_images`), which is the
`images` contract of `configs.s6_orbits`.  A pentad is classified by the
bit counts of its ten trope meets (`mask & trope`), and only `classify`
forms the triples of a meet.  The caches hold masks and small integers
only: `pentad_table()` maps each pentad mask to its (admissible, Goepel,
trope-triple count), and `orbit_partition()` holds each orbit as a tuple of
masks with a byte table from mask to orbit index.  A pentad is formed as a
sorted tuple of duads (`mask_pentad`) only where a sweep returns one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial, reduce
from math import comb
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .configs import Duad, POINTS, s6_elements, s6_orbits, trope_node_sets
from .lattice import cofactors
from .nodal_surface import (
    E,
    ETA,
    NODE_INDEX,
    NODES,
    DivisorClass,
    is_pic_integral,
    sigma_class,
)

Pentad = tuple[Duad, ...]

TROPES = trope_node_sets()  # conic label (duad of [1,5]) -> frozenset of 6 nodes

# nodes as the bits of a 15-bit mask in the order of NODES
NODE_BIT = {d: 1 << i for d, i in NODE_INDEX.items()}


def node_mask(nodes: Iterable[Duad]) -> int:
    """The mask of distinct node labels."""
    return sum(map(NODE_BIT.__getitem__, nodes))


TROPE_MASKS = tuple((label, node_mask(nodes)) for label, nodes in sorted(TROPES.items()))


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first, each as a one-bit mask."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


class PentadClass(NamedTuple):
    pentad: Pentad
    admissible: bool
    trope_triples: tuple[tuple[Duad, tuple[Duad, Duad, Duad]], ...]


def _meet_kind(mask: int) -> tuple[bool, bool, int]:
    """(admissible, Goepel, trope-triple count) of a pentad mask, read off
    the bit counts of its ten trope meets: a meet of four or more nodes
    makes the pentad inadmissible, and a meet of k nodes holds C(k, 3)
    triples."""
    sizes = [(mask & trope).bit_count() for _, trope in TROPE_MASKS]
    admissible = max(sizes) < 4
    count = sum(comb(k, 3) for k in sizes)
    return admissible, admissible and not count, count


def classify(pentad: Sequence[Duad]) -> PentadClass:
    """The class of a pentad: its sorted labels, whether it is admissible,
    and the triples of each trope meet, tropes in label order and triples
    sorted."""
    p = tuple(sorted(pentad))
    if len(p) != 5 or len(set(p)) != 5 or not set(p) <= NODE_BIT.keys():
        raise ValueError("a pentad consists of five distinct node labels")
    mask = node_mask(p)
    triples = tuple(
        (label, t) for label, trope in TROPE_MASKS for t in itertools.combinations(mask_pentad(mask & trope), 3)
    )
    return PentadClass(p, _meet_kind(mask)[0], triples)


def all_pentads() -> list[Pentad]:
    """The 3003 pentads, each sorted: combinations of the sorted NODES."""
    return list(itertools.combinations(NODES, 5))


def mask_pentad(mask: int) -> Pentad:
    """The sorted pentad of a node mask."""
    return tuple(NODES[bit.bit_length() - 1] for bit in _bits(mask))


@lru_cache(maxsize=None)
def pentad_table() -> Mapping[int, tuple[bool, bool, int]]:
    """The mask of each pentad, in the order of `all_pentads()`, mapped to
    its (admissible, Goepel, trope-triple count), read off the sizes of its
    trope meets (`_meet_kind`); read as plain masks, the keys are every
    choice of five of fifteen bits.  Equal entries are one tuple.  Built
    once, on first use, and read-only so the cached copy cannot go stale."""
    table, kinds = {}, {}
    for p in itertools.combinations(NODES, 5):
        mask = node_mask(p)
        kind = _meet_kind(mask)
        table[mask] = kinds.setdefault(kind, kind)
    return MappingProxyType(table)


# -- orbits --------------------------------------------------------------------


class PentadOrbit(NamedTuple):
    size: int
    goepel: bool


@lru_cache(maxsize=None)
def image_columns() -> tuple[tuple[int, ...], ...]:
    """Column i holds the bit of the image of NODES[i] under each permutation
    of S6, in `s6_elements()` order.  Read off the six position lists (the
    image of each point under every permutation) through the bit of each
    ordered pair of points; built once, on first use, all tuples."""
    positions = dict(zip(POINTS, zip(*s6_elements())))
    pair_bit = {pair: bit for (a, b), bit in NODE_BIT.items() for pair in ((a, b), (b, a))}
    return tuple(tuple(map(pair_bit.__getitem__, zip(positions[a], positions[b]))) for a, b in NODES)


def mask_images(mask: int) -> list[int]:
    """The images of a nonempty node mask under S6, in `s6_elements()`
    order: each the OR of the image columns of its nodes."""
    columns = image_columns()
    return list(reduce(partial(map, or_), (columns[bit.bit_length() - 1] for bit in _bits(mask))))


@lru_cache(maxsize=None)
def orbit_partition() -> tuple[tuple[tuple[int, ...], ...], bytes]:
    """Orbits of the pentad masks under node relabeling, each a tuple of
    masks in the order of `all_pentads()` with its least pentad's mask
    first, the representative, and the table of 2^15 bytes whose entry at
    each pentad mask is the index of its orbit.  Found by
    `configs.s6_orbits(mask_images, …)`; built once, and immutable so the
    cached copy cannot go stale."""
    orbits = tuple(o.elements for o in s6_orbits(mask_images, pentad_table()))
    orbit_of = bytearray(1 << len(NODES))
    for i, orbit in enumerate(orbits):
        for mask in orbit:
            orbit_of[mask] = i
    return orbits, bytes(orbit_of)


def orbit_table() -> list[PentadOrbit]:
    """S6 orbits of all pentads, in the order of `orbit_partition`, each with
    its size and whether it is Goepel.  Raises unless the classification
    (admissible, Goepel, trope-triple count) is constant on each orbit."""
    table = pentad_table()
    orbits, _ = orbit_partition()
    result = []
    for orbit in orbits:
        kinds = set(map(table.__getitem__, orbit))
        if len(kinds) != 1:
            raise AssertionError("pentad classification must be an orbit invariant")
        ((_, goepel, _),) = kinds
        result.append(PentadOrbit(len(orbit), goepel))
    return result


def goepel_pentads() -> list[Pentad]:
    """Certifies that exactly 6 of the 3003 pentads are Goepel, each a five-star."""
    return [mask_pentad(mask) for mask, (_, goepel, _) in pentad_table().items() if goepel]


# -- the graph criterion -----------------------------------------------------------


def _vertex_mask(edge: Duad) -> int:
    """The edge's two vertices as a bitmask over the points 1..6."""
    a, b = edge
    return 1 << a | 1 << b


def _triangle_plus_segment(masks: Sequence[int]) -> bool:
    """Four distinct edges, as vertex masks, are a 3-cycle plus one
    vertex-disjoint edge: some edge is disjoint from the other three, and
    those three form a triangle, i.e. cover exactly three vertices."""
    for i, seg in enumerate(masks):
        a, b, c = masks[:i] + masks[i + 1 :]
        union = a | b | c
        if not seg & union and union.bit_count() == 3:
            return True
    return False


@lru_cache(maxsize=None)
def quadruple_rule() -> frozenset[int]:
    """The node masks of the quadruples whose edges are a triangle plus a
    vertex-disjoint segment (`_triangle_plus_segment`), tabled once over all
    1,365, on first use."""
    return frozenset(
        node_mask(q)
        for q in itertools.combinations(NODES, 4)
        if _triangle_plus_segment([_vertex_mask(e) for e in q])
    )


def triple_criterion(triple: Sequence[Duad]) -> bool:
    """Two-edge-deletion criterion for 'these three nodes lie on a trope-conic':
    the three remaining (distinct) edges form a disconnected triangle, or a
    disconnected union of a segment and a chain.  On vertex bitmasks: the
    edges cover exactly three vertices (a triangle), or some edge is disjoint
    from the other two and those two share a vertex."""
    a, b, c = map(_vertex_mask, triple)
    if (a | b | c).bit_count() == 3:
        return True
    return any(
        not seg & (x | y) and x & y for seg, x, y in ((a, b, c), (b, a, c), (c, a, b))
    )


@lru_cache(maxsize=None)
def triple_rule() -> frozenset[int]:
    """The node masks of the triples that satisfy `triple_criterion`, tabled
    once over all 455, on first use."""
    return frozenset(node_mask(t) for t in itertools.combinations(NODES, 3) if triple_criterion(t))


class CriterionReport(NamedTuple):
    total: int
    agree_exists: int
    agree_forall: int
    mismatch_orbits_exists: tuple[tuple[Pentad, bool, bool], ...]
    mismatch_orbits_forall: tuple[tuple[Pentad, bool, bool], ...]
    triple_rule_agrees: bool


def graph_criterion_crosscheck() -> CriterionReport:
    """Exhaustive comparison of the graph criterion with incidence admissibility.

    Both readings disagree with the incidence definition (the Goepel five-star
    graph never leaves a triangle after one deletion), so mismatches are
    tallied per orbit rather than asserted away.  The two-edge-deletion rule
    for triples does agree exactly: it picks the 200 trope triples, the
    three-bit subsets of `TROPE_MASKS`, and the trope-triple counts of
    `pentad_table()` add up to each of them once in every one of the 66
    pentads through it.
    """
    table = pentad_table()
    orbits, orbit_of = orbit_partition()
    quadruples, triples = quadruple_rule(), triple_rule()
    agree_e = agree_f = listed = 0
    # per orbit index, the first mismatch of each reading
    mism_e: dict[int, tuple[bool, bool]] = {}
    mism_f: dict[int, tuple[bool, bool]] = {}
    for mask, (admissible, _, count) in table.items():
        # both readings from one count: the edges whose deletion leaves a rule quadruple
        deletions = len(quadruples.intersection(map(mask.__xor__, _bits(mask))))
        ge, gf = deletions > 0, deletions == 5
        agree_e += ge == admissible
        agree_f += gf == admissible
        if ge != admissible:
            mism_e.setdefault(orbit_of[mask], (admissible, ge))
        if gf != admissible:
            mism_f.setdefault(orbit_of[mask], (admissible, gf))
        listed += count
    # a triple lies in C(12,2) = 66 pentads, so counts that take in every
    # trope triple of their pentad add up to 66 per trope triple; one
    # dropped falls short
    trope_triples = {sum(t) for _, trope in TROPE_MASKS for t in itertools.combinations(_bits(trope), 3)}

    def by_representative(mismatches: dict[int, tuple[bool, bool]]) -> tuple[tuple[Pentad, bool, bool], ...]:
        return tuple(sorted((mask_pentad(orbits[i][0]), *m) for i, m in mismatches.items()))

    return CriterionReport(
        total=len(table),
        agree_exists=agree_e,
        agree_forall=agree_f,
        mismatch_orbits_exists=by_representative(mism_e),
        mismatch_orbits_forall=by_representative(mism_f),
        triple_rule_agrees=triples == trope_triples and listed == 66 * len(triples),
    )


# -- geometric coplanarity cross-check ----------------------------------------------


class CoplanarityReport(NamedTuple):
    coplanar_quadruples: int
    accidental_quadruples: int
    geometric_admissible: int
    combinatorial_admissible: int

    @property
    def agrees(self) -> bool:
        return (
            self.accidental_quadruples == 0
            and self.geometric_admissible == self.combinatorial_admissible
        )


def quadruple_determinants(points: Mapping) -> dict[tuple, int]:
    """det of the 4x4 integer matrix of every sorted quadruple of the keys of
    `points` (each a 4-vector), read as the dot product of its fourth row
    with the cofactor vector of its first three (`lattice.cofactors`): one
    cofactor vector per triple, not one elimination per quadruple."""
    keys = sorted(points)
    rows = [points[k] for k in keys]
    dets = {}
    for i, j, k in itertools.combinations(range(len(keys)), 3):
        cof = cofactors(rows[i], rows[j], rows[k])
        for m in range(k + 1, len(keys)):
            dets[keys[i], keys[j], keys[k], keys[m]] = sum(x * y for x, y in zip(cof, rows[m]))
    return dets


def geometric_admissibility_crosscheck(section) -> CoplanarityReport:
    """Compare coplanarity-based admissibility on a section with the trope rule.

    On the section surface, four nodes are coplanar exactly when the 4x4
    matrix of their chart coordinates is singular; a pentad is admissible
    when none of its five quadruples is coplanar.  For a sufficiently
    general section the coplanar quadruples are exactly those lying on a
    trope-conic, so the two admissibility counts agree.
    """
    pts = {n.syntheme: n.chart_point.coords for n in section.nodes if n.syntheme is not None}
    bit = {s: 1 << i for i, s in enumerate(sorted(pts))}
    if len(bit) != len(NODES):
        raise ValueError("the section must have a node on each of the 15 double lines")
    on_trope = {
        sum(map(bit.__getitem__, quad))
        for t in section.tropes
        for quad in itertools.combinations(set(t.incident_nodes), 4)
    }
    coplanar = {sum(map(bit.__getitem__, quad)) for quad, det in quadruple_determinants(pts).items() if det == 0}
    if not on_trope <= coplanar:
        raise AssertionError("a quadruple on a trope-conic must be coplanar")
    # the keys of pentad_table() are every five of the fifteen bits
    table = pentad_table()
    geometric = sum(1 for mask in table if coplanar.isdisjoint(map(mask.__xor__, _bits(mask))))
    combinatorial = sum(admissible for admissible, _, _ in table.values())
    return CoplanarityReport(
        coplanar_quadruples=len(coplanar),
        accidental_quadruples=len(coplanar - on_trope),
        geometric_admissible=geometric,
        combinatorial_admissible=combinatorial,
    )


# -- elliptic pencil classes --------------------------------------------------------


class PencilData(NamedTuple):
    classes: tuple[DivisorClass, ...]  # F_1, ..., F_5
    half_sum: DivisorClass


def pencil_classes(pentad: Sequence[Duad]) -> PencilData:
    """The five elliptic-pencil classes of an admissible pentad.

    Exact checks: each F_i has norm 0 and degree 8, F_i·F_j = 2, every F_i
    splits as two classes of shape eta − E − E − E, half the sum is the
    degree-10 polarization 5*eta − 3*sum_P E, and each trope-triple yields
    the degeneration identity eta − E_i − E_j − E_k = 2*sigma + remaining
    three nodes of that trope.
    """
    cls = classify(pentad)
    if not cls.admissible:
        raise ValueError("pentad is not admissible")
    p = cls.pentad
    zero = DivisorClass.make()
    fs = []
    for x in p:
        f = 2 * ETA - 2 * E[x] - sum((E[y] for y in p if y != x), zero)
        if not (f.norm() == 0 and f.degree() == 8 and is_pic_integral(f)):
            raise AssertionError(f"pencil class for {x} must be Pic-integral of norm 0 and degree 8")
        fs.append(f)
    for i in range(5):
        for j in range(i + 1, 5):
            if fs[i].dot(fs[j]) != 2:
                raise AssertionError(f"pencil classes {i} and {j} must meet in 2")
    # each pencil splits into two plane sections through three pentad nodes
    for i, x in enumerate(p):
        others = [y for y in p if y != x]
        a = ETA - E[x] - E[others[0]] - E[others[1]]
        b = ETA - E[x] - E[others[2]] - E[others[3]]
        if fs[i] != a + b:
            raise AssertionError(f"pencil class {i} must split into two plane sections")
    half_sum = sum(fs, zero) / 2
    expected = 5 * ETA - sum((3 * E[x] for x in p), zero)
    if half_sum != expected:
        raise AssertionError("half the pencil sum must be 5*eta - 3*sum_P E")
    if not (half_sum.norm() == 10 and is_pic_integral(half_sum)):
        raise AssertionError("half the pencil sum must be a Pic-integral class of norm 10")
    # degeneration identities from the trope-triples
    for label, triple in cls.trope_triples:
        rest = sorted(TROPES[label] - set(triple))
        lhs = ETA - sum((E[x] for x in triple), zero)
        rhs = 2 * sigma_class(label) + sum((E[y] for y in rest), zero)
        if lhs != rhs:
            raise AssertionError(f"degeneration identity fails for trope {label}")
    return PencilData(tuple(fs), half_sum)
