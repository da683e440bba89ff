"""Classification of the 3003 pentads of nodes.

A pentad (five nodes, labelled by duads) is admissible when no trope-conic
contains four of them; it is a Goepel pentad when no trope-conic contains
even three.  This module classifies every pentad, computes the orbit table
under node relabeling, evaluates the ambiguous graph-theoretic admissibility
criterion under its possible readings, and materializes the elliptic-pencil
divisor classes with their exact degeneration identities.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .configs import Duad, Perm, apply_perm_duad, s6_elements, s6_orbits, trope_node_sets
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

# nodes as the bits of a 15-bit mask in the order of NODES; each trope as its mask
NODE_BIT = {d: 1 << i for d, i in NODE_INDEX.items()}
TROPE_MASKS = tuple((label, sum(map(NODE_BIT.__getitem__, nodes))) for label, nodes in sorted(TROPES.items()))


class PentadClass(NamedTuple):
    pentad: Pentad
    admissible: bool
    goepel: bool
    trope_triples: tuple[tuple[Duad, tuple[Duad, Duad, Duad]], ...]

    @property
    def trope_triple_count(self) -> int:
        return len(self.trope_triples)


def classify(pentad: Sequence[Duad]) -> PentadClass:
    p = tuple(sorted(pentad))
    if len(p) != 5 or len(set(p)) != 5 or not set(p) <= NODE_BIT.keys():
        raise ValueError("a pentad consists of five distinct node labels")
    bits = [NODE_BIT[x] for x in p]
    mask = sum(bits)
    triples = []
    admissible = True
    for label, trope in TROPE_MASKS:
        size = (mask & trope).bit_count()
        if size < 3:
            continue
        if size >= 4:
            admissible = False
        meet = [x for x, bit in zip(p, bits) if bit & trope]  # sorted, as p is
        triples.extend((label, triple) for triple in itertools.combinations(meet, 3))
    goepel = admissible and not triples
    return PentadClass(p, admissible, goepel, tuple(triples))


def all_pentads() -> list[Pentad]:
    """The 3003 pentads, each sorted: combinations of the sorted NODES."""
    return list(itertools.combinations(NODES, 5))


@lru_cache(maxsize=None)
def classify_all() -> Mapping[Pentad, PentadClass]:
    """The class of every pentad, built once and read-only so the cached
    copy cannot go stale."""
    return MappingProxyType({p: classify(p) for p in all_pentads()})


# -- orbits --------------------------------------------------------------------


class PentadOrbit(NamedTuple):
    representative: Pentad
    size: int
    admissible: bool
    goepel: bool
    trope_triple_count: int


@lru_cache(maxsize=None)
def node_tables() -> Mapping[Perm, tuple[Duad, ...]]:
    """Each permutation of S6 as its table of node labels: entry i is the
    image of NODES[i], as the label object in NODES.  Built once, on first
    use, and read-only so the cached copy cannot go stale."""
    label = {d: d for d in NODES}
    return MappingProxyType({g: tuple(label[apply_perm_duad(g, d)] for d in NODES) for g in s6_elements()})


def _relabel(g: Perm, nodes: Sequence[Duad]) -> tuple[Duad, ...]:
    """The sorted image of a set of node labels under g, read off its table."""
    return tuple(sorted(map(node_tables()[g].__getitem__, map(NODE_INDEX.__getitem__, nodes))))


@lru_cache(maxsize=None)
def orbit_partition() -> tuple[tuple[tuple[Pentad, tuple[Pentad, ...]], ...], Mapping[Pentad, Pentad]]:
    """Orbits under node relabeling and the read-only pentad -> representative
    map; built once, and immutable so the cached copy cannot go stale."""
    orbits = tuple((o.representative, o.elements) for o in s6_orbits(_relabel, all_pentads()))
    rep_of = {q: rep for rep, orbit in orbits for q in orbit}
    return orbits, MappingProxyType(rep_of)


def orbit_table() -> list[PentadOrbit]:
    """S6 orbits of all pentads with their classification data."""
    classes = classify_all()
    orbits, _ = orbit_partition()
    table: list[PentadOrbit] = []
    for rep, orbit in orbits:
        cls = classes[rep]
        # classification must be constant on the orbit
        for q in orbit:
            cq = classes[q]
            if (cq.admissible, cq.goepel, cq.trope_triple_count) != (
                cls.admissible,
                cls.goepel,
                cls.trope_triple_count,
            ):
                raise AssertionError("pentad classification must be an orbit invariant")
        table.append(
            PentadOrbit(
                representative=rep,
                size=len(orbit),
                admissible=cls.admissible,
                goepel=cls.goepel,
                trope_triple_count=cls.trope_triple_count,
            )
        )
    return table


def goepel_pentads() -> list[Pentad]:
    """Certifies that exactly 6 of the 3003 pentads are Goepel, each a five-star."""
    return [p for p, c in classify_all().items() if c.goepel]


# -- the graph criterion -----------------------------------------------------------


def _mask(edge: Duad) -> int:
    """The edge's two vertices as a bitmask."""
    a, b = edge
    return 1 << a | 1 << b


def _triangle_plus_segment(masks: Sequence[int]) -> bool:
    """Four distinct edges, as masks, are a 3-cycle plus one vertex-disjoint
    edge: some edge is disjoint from the other three, and those three form a
    triangle, i.e. cover exactly three vertices."""
    for i, seg in enumerate(masks):
        a, b, c = masks[:i] + masks[i + 1 :]
        union = a | b | c
        if not seg & union and union.bit_count() == 3:
            return True
    return False


@lru_cache(maxsize=None)
def quadruple_rule() -> frozenset[tuple[Duad, Duad, Duad, Duad]]:
    """The sorted node quadruples whose edges are a triangle plus a
    vertex-disjoint segment (`_triangle_plus_segment`), tabled once over all
    1,365, on first use."""
    return frozenset(
        q for q in itertools.combinations(NODES, 4) if _triangle_plus_segment([_mask(e) for e in q])
    )


def _one_edge_deletions(pentad: Pentad) -> list[bool]:
    """For each edge of a sorted pentad, whether deleting it leaves a disjoint
    triangle+segment: the four other edges, sorted as well, are looked up in
    `quadruple_rule()`."""
    rule = quadruple_rule()
    return [pentad[:i] + pentad[i + 1 :] in rule for i in range(len(pentad))]


def triple_criterion(triple: Sequence[Duad]) -> bool:
    """Two-edge-deletion criterion for 'these three nodes lie on a trope-conic':
    the three remaining (distinct) edges form a disconnected triangle, or a
    disconnected union of a segment and a chain.  On vertex bitmasks: the
    edges cover exactly three vertices (a triangle), or some edge is disjoint
    from the other two and those two share a vertex."""
    a, b, c = map(_mask, triple)
    if (a | b | c).bit_count() == 3:
        return True
    return any(
        not seg & (x | y) and x & y for seg, x, y in ((a, b, c), (b, a, c), (c, a, b))
    )


@lru_cache(maxsize=None)
def triple_rule() -> frozenset[tuple[Duad, Duad, Duad]]:
    """The sorted node triples that satisfy `triple_criterion`, tabled once
    over all 455, on first use."""
    return frozenset(t for t in itertools.combinations(NODES, 3) if triple_criterion(t))


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
    for triples is checked as well; it does agree exactly.
    """
    classes = classify_all()
    _, rep_of = orbit_partition()
    agree_e = agree_f = 0
    mism_e: dict[Pentad, tuple[Pentad, bool, bool]] = {}
    mism_f: dict[Pentad, tuple[Pentad, bool, bool]] = {}
    for p, cls in classes.items():
        deletions = _one_edge_deletions(p)  # both readings from one evaluation
        ge, gf = any(deletions), all(deletions)
        if ge == cls.admissible:
            agree_e += 1
        if gf == cls.admissible:
            agree_f += 1
        rep = rep_of[p]
        if ge != cls.admissible and rep not in mism_e:
            mism_e[rep] = (rep, cls.admissible, ge)
        if gf != cls.admissible and rep not in mism_f:
            mism_f[rep] = (rep, cls.admissible, gf)
    # p is sorted and classify builds each trope triple from a sorted meet,
    # so both sides are sorted tuples already
    rule = triple_rule()
    triple_ok = all(
        {t for t in itertools.combinations(p, 3) if t in rule} == {t[1] for t in cls.trope_triples}
        for p, cls in classes.items()
    )
    return CriterionReport(
        total=len(classes),
        agree_exists=agree_e,
        agree_forall=agree_f,
        mismatch_orbits_exists=tuple(sorted(mism_e.values())),
        mismatch_orbits_forall=tuple(sorted(mism_f.values())),
        triple_rule_agrees=triple_ok,
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


def _cofactors(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> tuple[int, int, int, int]:
    """The cofactors of the last row of the 4x4 matrix with rows a, b, c, x,
    so that its determinant is their dot product with x."""
    def minor(i: int, j: int, k: int) -> int:
        return (
            a[i] * (b[j] * c[k] - b[k] * c[j])
            - a[j] * (b[i] * c[k] - b[k] * c[i])
            + a[k] * (b[i] * c[j] - b[j] * c[i])
        )

    return -minor(1, 2, 3), minor(0, 2, 3), -minor(0, 1, 3), minor(0, 1, 2)


def quadruple_determinants(points: Mapping) -> dict[tuple, int]:
    """det of the 4x4 integer matrix of every sorted quadruple of the keys of
    `points` (each a 4-vector), read as the dot product of its fourth row
    with the cofactor vector of its first three: one cofactor vector per
    triple, not one elimination per quadruple."""
    keys = sorted(points)
    rows = [points[k] for k in keys]
    dets = {}
    for i, j, k in itertools.combinations(range(len(keys)), 3):
        cof = _cofactors(rows[i], rows[j], rows[k])
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
    trope_sets = [set(t.incident_nodes) for t in section.tropes]
    synths = sorted(pts)
    coplanar: dict[tuple, bool] = {}
    accidental = 0
    for quad, det in quadruple_determinants(pts).items():
        flat = det == 0
        coplanar[quad] = flat
        on_trope = any(set(quad) <= ts for ts in trope_sets)
        if on_trope and not flat:
            raise AssertionError("a quadruple on a trope-conic must be coplanar")
        if flat and not on_trope:
            accidental += 1
    geometric = sum(
        1
        for pent in itertools.combinations(synths, 5)
        if not any(coplanar[q] for q in itertools.combinations(pent, 4))
    )
    combinatorial = sum(1 for c in classify_all().values() if c.admissible)
    return CoplanarityReport(
        coplanar_quadruples=sum(coplanar.values()),
        accidental_quadruples=accidental,
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
