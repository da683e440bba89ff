"""Arithmetic model of the minimal resolution of a general 15-nodal quartic.

The Picard lattice is realized as an overlattice of <4> + A1^15 glued by the
binary even-set code, in the coordinates eta (the hyperplane class,
eta^2 = 4) and one exceptional class E_x of norm -2 per node x, nodes
indexed by the duads of {1,...,6}.  It is certified on the Hermite normal
form of the glued generators and handed out on a basis of 16 named classes:
eta, the five glue classes sigma(E_d), d in CODE_BASIS_DUADS, and the ten
E_x off the pivots CODE_PIVOTS (the systematic form of the code's generator
matrix), whose sparse rows make the isometry products cheaper.  The
splitting fixed once here is L = duads avoiding 6 (the ten
conic-type nodes) and C = duads containing 6 (the five quartic-type nodes);
every other splitting is an S6 translate.  Each named class (sigma(E_x),
sigma(eta), eta_star, B̃, the Reye and pentad roots) is one coefficient map
defined once here, and `pic_coordinates` is the one map from a class to its
Picard coordinates.

Also builds the rank-17 lattice of a 16-nodal (Kummer) quartic and certifies
the embedding of the 15-nodal Picard lattice onto the orthogonal complement
of the sixteenth exceptional class.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .configs import Duad, apply_perm_duad, duads, trope_node_sets
from .lattice import (
    FiniteAbelianInvariants,
    IntegerLattice,
    Overlattice,
    RowBasis,
    det_bareiss,
    diagonal_lattice,
    direct_sum,
    discriminant_group,
    discriminant_q_multiset,
    orthogonal_complement,
    overlattice,
)

NODES: tuple[Duad, ...] = tuple(duads())  # 15 node labels, sorted
NODE_INDEX = {d: i for i, d in enumerate(NODES)}
L_SET: tuple[Duad, ...] = tuple(d for d in NODES if 6 not in d)
C_SET: tuple[Duad, ...] = tuple(d for d in NODES if 6 in d)
RANK = 16  # eta plus 15 exceptional classes


# <4> + A1^15 on the basis (eta, E_x), built once: `DivisorClass.dot` and
# the Picard overlattice both pair through it
AMBIENT = diagonal_lattice(4, *[-2] * 15)


class DivisorClass:
    """Divisor class nums/den in coordinates over (eta, E_x).

    Integer numerators over one positive denominator, normalised so that
    gcd(den, nums) = 1: equal classes have equal fields.  Classes of the
    model have den 1 or 2; other rational combinations are allowed and
    simply fail the membership test.
    """

    nums: tuple[int, ...]
    den: int

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple[int, ...], den: int = 1):
        if len(nums) != RANK:
            raise ValueError("divisor class needs 16 coordinates")
        if den <= 0:
            raise ValueError("the denominator of a divisor class must be positive")
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple(x // g for x in nums), den // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("DivisorClass is immutable")

    def __eq__(self, other):
        return isinstance(other, DivisorClass) and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"DivisorClass(nums={self.nums!r}, den={self.den!r})"

    @classmethod
    def make(cls, eta: int = 0, nodes: Mapping[Duad, int] | None = None) -> "DivisorClass":
        nums = [eta] + [0] * 15
        for d, c in (nodes or {}).items():
            nums[1 + NODE_INDEX[d]] = c
        return cls(tuple(nums))

    def _combine(self, other: "DivisorClass", sign: int) -> "DivisorClass":
        if self.den == other.den:
            return DivisorClass(tuple(a + sign * b for a, b in zip(self.nums, other.nums)), self.den)
        den = lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return DivisorClass(tuple(p * a + q * b for a, b in zip(self.nums, other.nums)), den)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, 1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, -1)

    def __mul__(self, c) -> "DivisorClass":
        # c is an int or a Fraction: both carry a numerator and a denominator
        return DivisorClass(tuple(c.numerator * x for x in self.nums), self.den * c.denominator)

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> "DivisorClass":
        return DivisorClass(self.nums, self.den * k)

    def __neg__(self):
        return self * -1

    def dot(self, other: "DivisorClass") -> Fraction:
        return AMBIENT.pair(self.nums, other.nums, self.den * other.den)

    def norm(self) -> Fraction:
        return self.dot(self)

    def degree(self) -> Fraction:
        return Fraction(4 * self.nums[0], self.den)

    def mod2_word(self) -> Optional[int]:
        """Fractional-part pattern as a 16-bit word (eta bit = bit 0), or None
        if some coordinate is not a half-integer multiple."""
        if self.den > 2:
            return None
        word = 0
        if self.den == 2:
            for i, x in enumerate(self.nums):
                if x % 2:
                    word |= 1 << i
        return word

    def permuted(self, g: Sequence[int]) -> "DivisorClass":
        """Relabel nodes by a permutation of {1,...,6} (eta fixed)."""
        nums = [self.nums[0]] + [0] * 15
        for d in NODES:
            nums[1 + NODE_INDEX[apply_perm_duad(g, d)]] = self.nums[1 + NODE_INDEX[d]]
        return DivisorClass(tuple(nums), self.den)


ETA = DivisorClass.make(eta=1)
E = {d: DivisorClass.make(nodes={d: 1}) for d in NODES}


def sigma_class(d: Duad) -> DivisorClass:
    """Image class sigma(E_x): a trope-conic for x in L, a trope-quartic for x in C."""
    if 6 not in d:
        return DivisorClass.make(1, dict.fromkeys(trope_node_sets()[d], -1)) / 2
    arm = [tuple(sorted((d[0], b))) for b in range(1, 6) if b != d[0]]
    return DivisorClass.make(2, dict.fromkeys(C_SET, -1) | {d: -2} | dict.fromkeys(arm, -1)) / 2


def sigma_eta() -> DivisorClass:
    """Image of the hyperplane class under the covering involution:
    4*eta − sum_L E − 2*sum_C E."""
    return DivisorClass.make(4, dict.fromkeys(L_SET, -1) | dict.fromkeys(C_SET, -2))


def eta_star() -> DivisorClass:
    """Hyperplane class of the dual sextic model: 2*eta_star = 3*eta − sum_L E."""
    return DivisorClass.make(3, dict.fromkeys(L_SET, -1)) / 2


def b_tilde() -> DivisorClass:
    """Branch-curve class: half of 5*eta − sum_L E − 2*sum_C E; norm and degree 10."""
    return DivisorClass.make(5, dict.fromkeys(L_SET, -1) | dict.fromkeys(C_SET, -2)) / 2


def reye_root() -> DivisorClass:
    """The Reye root 2*eta − sum_L E, of norm -4."""
    return DivisorClass.make(2, dict.fromkeys(L_SET, -1))


def pentad_root(pentad: Iterable[Duad]) -> DivisorClass:
    """The root 3*eta − 2*sum_P E of a pentad P, of norm -4."""
    return DivisorClass.make(3, dict.fromkeys(pentad, -2))


# -- even-set code -------------------------------------------------------------


class EvenSetCode(NamedTuple):
    """Binary code of (weakly) even node sets; bit 0 marks the eta coefficient."""

    words: frozenset[int]

    @property
    def dimension(self) -> int:
        n = len(self.words)
        return n.bit_length() - 1

    def node_weight_enumerator(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for w in self.words:
            k = bin(w >> 1).count("1")
            counts[k] = counts.get(k, 0) + 1
        return counts

    def __contains__(self, word: int) -> bool:
        return word in self.words


CODE_BASIS_DUADS = ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
# for each d in CODE_BASIS_DUADS, the one node of its trope set T_d that lies
# in none of the other four: the information set of the code's generators
CODE_PIVOTS = ((3, 5), (1, 4), (2, 5), (1, 3), (2, 4))


@lru_cache(maxsize=None)
def even_set_code() -> EvenSetCode:
    """Code spanned by the five trope-conic words sigma(E_12), ..., sigma(E_15)."""
    gens = []
    for d in CODE_BASIS_DUADS:
        word = sigma_class(d).mod2_word()
        if word is None or not word & 1:
            raise AssertionError("trope words carry the eta marker bit")
        gens.append(word)
    words = {0}
    for g in gens:
        words |= {w ^ g for w in words}
    if len(words) != 32:
        raise AssertionError("the even-set code must have 32 words")
    return EvenSetCode(frozenset(words))


def word_of_nodes(nodes: Iterable[Duad], eta_bit: bool = False) -> int:
    """Code word of a node set; `even-set-code` requires the 10 trope node
    sets, with the eta bit, to be exactly the code's weight-6 words."""
    w = 1 if eta_bit else 0
    for d in nodes:
        w |= 1 << (1 + NODE_INDEX[d])
    return w


def nodes_of_word(word: int) -> tuple[Duad, ...]:
    """Node set of a code word; `even-set-code` relabels the nodes of each
    word to certify that S6 maps the even-set code to itself."""
    return tuple(d for d in NODES if word & (1 << (1 + NODE_INDEX[d])))


def is_pic_integral(cls: DivisorClass) -> bool:
    word = cls.mod2_word()
    return word is not None and word in even_set_code()


# -- the Picard lattice ----------------------------------------------------------


def standard_classes() -> dict[str, DivisorClass]:
    """Every named divisor class used by the checks, certified Pic-integral."""
    classes: dict[str, DivisorClass] = {"eta": ETA, "eta_star": eta_star()}
    for d in NODES:
        classes[f"E{d[0]}{d[1]}"] = E[d]
        classes[f"sigma_E{d[0]}{d[1]}"] = sigma_class(d)
    classes["B_tilde"] = b_tilde()
    classes["reye_root"] = reye_root()
    classes["goepel_root"] = pentad_root(C_SET)
    for x in L_SET:
        classes[f"F{x[0]}{x[1]}"] = eta_star() - E[x]
    for a in range(1, 6):
        # elliptic pencil through the quartic-type node (a,6)
        rest = [b for b in range(1, 6) if b != a]
        halves = [(b, 6) for b in rest] + [tuple(sorted((a, b))) for b in rest]
        nodes = dict.fromkeys(halves, -1) | dict.fromkeys(itertools.combinations(rest, 2), -2)
        classes[f"F{a}6"] = DivisorClass.make(4, nodes) / 2
    classes["map10"] = ETA + eta_star() - sum((E[x] for x in C_SET), DivisorClass.make())
    classes["deg20"] = 4 * eta_star() - ETA
    classes["deg10_rey"] = DivisorClass.make(5, dict.fromkeys(C_SET, -1) | dict.fromkeys(L_SET, -2))
    return classes


@lru_cache(maxsize=None)
def picard_lattice() -> Overlattice:
    """Rank-16 overlattice of AMBIENT glued by the five code generators, on
    the named basis `picard_basis_classes()`, built once.

    The lattice is built and certified on the Hermite normal form of the
    glued generators; every class of `standard_classes()` must lie in it,
    and its coordinates on the HNF basis are solved once, in that check.
    The named basis classes are among these classes, and their coordinates
    are the rows of an integer matrix T, so the named classes span a
    sublattice of index |det T|, which is the whole lattice exactly when
    |det T| = 1.  The named Gram is T·G·T^T, with G the Gram matrix of the
    glued lattice, so it is integral by construction.  The basis holds
    integer rows over `basis.den` in the coordinates (eta, E_x), so a class
    reaches the lattice through `pic_coordinates`.
    """
    # the generators' words carry the eta bit, so each one has denominator 2
    over = overlattice(AMBIENT, [sigma_class(d).nums for d in CODE_BASIS_DUADS], 2)
    hnf, den = over.basis, over.basis.den
    solved: dict[DivisorClass, list[int]] = {}
    for name, cls in standard_classes().items():
        if not is_pic_integral(cls):
            raise AssertionError(f"named class {name} must lie in the Picard lattice")
        if (c := hnf.coordinates(cls.nums, cls.den)) is None:
            raise AssertionError(f"named class {name} misses the overlattice")
        solved[cls] = c
    coords = [solved.get(cls) for cls in picard_basis_classes()]
    if None in coords:
        raise AssertionError(f"named basis class {coords.index(None)} must lie in the Picard lattice")
    if (index := abs(det_bareiss(coords))) != 1:
        raise AssertionError(f"the named classes do not span the Picard lattice: |det T| = {index}")
    gram = over.lattice.gram_of(coords)
    return Overlattice(IntegerLattice(gram), RowBasis([hnf.vector(c) for c in coords], den), over.index)


def pic_coordinates(cls: DivisorClass, what: str, *, name_class: bool = False) -> list[int]:
    """The integer coordinates of a class on the named Picard basis; a class
    off the lattice raises ValueError naming `what`, followed by the class
    itself when `name_class` (its text is built only for that error)."""
    coords = picard_lattice().basis.coordinates(cls.nums, cls.den)
    if coords is None:
        if name_class:
            what = f"{what} {cls}"
        raise ValueError(f"{what} is not in the Picard lattice")
    return coords


def picard_basis_classes() -> list[DivisorClass]:
    """The named basis of the Picard lattice, in the order of its rows: eta,
    the glue classes sigma(E_d) = (eta − sum_{x in T_d} E_x)/2 for d in
    CODE_BASIS_DUADS, and the ten E_x with x off CODE_PIVOTS.  Each pivot's
    E_x is eta − 2 sigma(E_d) minus the other five E of T_d, which are all
    named, so these classes span the glued lattice; `picard_lattice`
    certifies it."""
    return (
        [ETA]
        + [sigma_class(d) for d in CODE_BASIS_DUADS]
        + [E[x] for x in NODES if x not in CODE_PIVOTS]
    )


def verify_class_identities() -> dict[str, bool]:
    """The classical divisor-class identities, checked as exact coordinate equalities."""
    named = standard_classes()
    zero = DivisorClass.make()
    sum_l_e = sum((E[x] for x in L_SET), zero)
    sum_c_e = sum((E[x] for x in C_SET), zero)
    sum_l_sigma = sum((sigma_class(x) for x in L_SET), zero)
    sum_c_sigma = sum((sigma_class(x) for x in C_SET), zero)
    results = {}
    # the trope-conic relation: eta - word nodes = 2 sigma(E_x), x in L
    ok = True
    for x in L_SET:
        word = trope_node_sets()[x]
        lhs = ETA - sum((E[y] for y in sorted(word)), zero)
        ok = ok and lhs == 2 * sigma_class(x)
    results["conic_halves"] = ok
    # the trope-quartic relation for y in C
    ok = True
    for y in C_SET:
        a = y[0]
        lhs = 2 * ETA - 2 * E[y]
        for y2 in C_SET:
            if y2 != y:
                lhs = lhs - E[y2]
        for b in range(1, 6):
            if b != a:
                lhs = lhs - E[tuple(sorted((a, b)))]
        ok = ok and lhs == 2 * sigma_class(y)
    results["quartic_halves"] = ok
    # image of the hyperplane class under the covering involution
    results["sigma_eta"] = is_pic_integral(sigma_eta())
    # dual-model hyperplane: 2 eta_star = 3 eta - sum_L E
    results["eta_star_halves"] = 2 * named["eta_star"] == 3 * ETA - sum_l_e
    # branch curve: three expressions for B_tilde agree
    bt = named["B_tilde"]
    results["b_tilde_l"] = 2 * bt == sum_l_e + sum_l_sigma
    results["b_tilde_c"] = 2 * bt == sum_c_e + sum_c_sigma
    # total exceptional sum: sum of all E and sigma(E) equals 4 B_tilde
    total = sum_l_e + sum_c_e + sum_l_sigma + sum_c_sigma
    results["sum_is_4b"] = total == 4 * bt and total == 10 * ETA - 2 * sum_l_e - 4 * sum_c_e
    # degree-10 map: the three expressions coincide and have norm 10
    m10 = named["map10"]
    results["map10_exprs"] = (
        2 * m10 == 5 * ETA - sum_l_e - 2 * sum_c_e
        and 2 * m10 == sum_l_e + sum_l_sigma
        and 2 * m10 == sum_c_e + sum_c_sigma
        and m10 == bt
    )
    results["map10_norm"] = m10.norm() == 10
    # Reye-equivariant degree-10 class: half the sum of the five C-pencils
    f_sum = sum((named[f"F{a}6"] for a in range(1, 6)), zero)
    results["deg10_rey"] = (
        f_sum / 2 == named["deg10_rey"]
        and named["deg10_rey"] == sum_l_sigma + sum_c_e
        and named["deg10_rey"].norm() == 10
    )
    results["deg20_norm"] = named["deg20"].norm() == 20
    results["b_tilde_invariants"] = bt.norm() == 10 and bt.degree() == 10
    return results


# -- discriminant comparison -------------------------------------------------------


# the classically quoted generators of the discriminant group of the lattice
CLASSICAL_DISCRIMINANT_GENERATORS: tuple[tuple[Fraction, dict], ...] = (
    (Fraction(1, 4), {(1, 4): Fraction(-1, 2), (2, 5): Fraction(-1, 2), (3, 5): Fraction(-1, 2), (5, 6): Fraction(-1, 2)}),
    (Fraction(0), {(1, 3): Fraction(1, 2), (1, 6): Fraction(1, 2), (2, 6): Fraction(1, 2), (3, 6): Fraction(1, 2)}),
    (Fraction(0), {(1, 3): Fraction(1, 2), (2, 5): Fraction(1, 2), (3, 4): Fraction(1, 2), (5, 6): Fraction(1, 2)}),
    (Fraction(0), {(1, 3): Fraction(1, 2), (2, 4): Fraction(1, 2), (1, 2): Fraction(1, 2), (4, 6): Fraction(1, 2)}),
    (Fraction(0), {(1, 3): Fraction(1, 2), (3, 5): Fraction(1, 2), (1, 6): Fraction(1, 2), (5, 6): Fraction(1, 2)}),
    (Fraction(0), {(1, 4): Fraction(1, 2), (2, 4): Fraction(1, 2), (1, 6): Fraction(1, 2), (2, 6): Fraction(1, 2)}),
)


class DiscriminantComparison(NamedTuple):
    pic_invariants: FiniteAbelianInvariants
    groups_match: bool
    q_match_negated: bool
    classical_generator_duality: tuple[bool, ...]  # per quoted generator, as transcribed
    weight4_duals_are_four_cycles: bool
    snf_generators_generate: bool


def transcendental_reference_lattice() -> IntegerLattice:
    """T = U(2) + U(2) + A1(2) + A1: rank 6, det 128, signature (2,4)."""
    u2 = IntegerLattice([[0, 2], [2, 0]])
    return direct_sum(u2, u2, diagonal_lattice(-4, -2))


def is_dual_vector(cls: DivisorClass) -> bool:
    basis = picard_lattice().basis
    den = cls.den * basis.den
    return all(AMBIENT.form(cls.nums, row) % den == 0 for row in basis.rows)


def discriminant_comparison() -> DiscriminantComparison:
    """Compare disc(Pic) with disc(U(2)+U(2)+A1(2)+A1): groups and q-values.

    The q-value multisets are compared after a global sign flip, the
    expected match (the two lattices sit on opposite sides of a unimodular
    lattice).  The classically quoted generators are checked one by one:
    three of the six are not dual vectors as transcribed.
    The full isometry statement for the transcendental lattice is *not*
    certified here, only this desk-scale discriminant evidence.
    """
    pic = picard_lattice().lattice
    pic_inv = discriminant_group(pic)
    ref = transcendental_reference_lattice()
    groups_match = pic_inv.invariant_factors == discriminant_group(ref).invariant_factors
    q_pic = discriminant_q_multiset(pic)
    q_ref = discriminant_q_multiset(ref)
    q_neg: dict[Fraction, int] = {}
    for k, v in q_ref.items():
        kk = (-k) % 2
        q_neg[kk] = q_neg.get(kk, 0) + v
    duality = []
    zero = DivisorClass.make()
    for eta_coeff, node_coeffs in CLASSICAL_DISCRIMINANT_GENERATORS:
        vec = eta_coeff * ETA + sum((c * E[d] for d, c in node_coeffs.items()), zero)
        duality.append(is_dual_vector(vec))
    # classification: the half-sums over four nodes lying in the dual are
    # exactly the 4-cycles among the duad labels (45 of them)
    cycles_ok = _weight4_duals_are_cycles()
    # the SNF generators are certified dual inside discriminant_group; their
    # orders must multiply up to the full group
    snf_ok = pic_inv.order == 128
    return DiscriminantComparison(
        pic_invariants=pic_inv,
        groups_match=groups_match,
        q_match_negated=(q_pic == q_neg),
        classical_generator_duality=tuple(duality),
        weight4_duals_are_four_cycles=cycles_ok,
        snf_generators_generate=snf_ok,
    )


def _weight4_dual_quadruples() -> list[tuple[Duad, ...]]:
    """The node quadruples whose half-sum (sum of the four E_x)/2 lies in the
    dual of the Picard lattice.

    By linearity the half-sum pairs with the named basis row b_j = row/den
    as the sum of the four integer pairings E_x·row over 2·den, so it is
    dual exactly when the four rows of the 15×16 table of E_x·row sum to 0
    mod 2·den in every column; the table is built once per call.
    """
    basis = picard_lattice().basis
    mod = 2 * basis.den
    table = {x: [AMBIENT.form(E[x].nums, row) % mod for row in basis.rows] for x in NODES}
    return [
        combo
        for combo in itertools.combinations(NODES, 4)
        if not any(sum(col) % mod for col in zip(*(table[x] for x in combo)))
    ]


def _weight4_duals_are_cycles() -> bool:
    """The dual weight-4 half-sums are exactly the 45 four-cycles among the
    duad labels: four duads on four labels, each label in two of them."""
    quadruples = _weight4_dual_quadruples()
    return len(quadruples) == 45 and all(
        sorted(Counter(a for duad in q for a in duad).values()) == [2, 2, 2, 2] for q in quadruples
    )


# -- the Kummer model ---------------------------------------------------------------


KUMMER_GROUP: tuple[tuple[int, ...], ...] = ((),) + tuple(duads())  # F_2^4 as {0} + duads
KUMMER_INDEX = {g: i for i, g in enumerate(KUMMER_GROUP)}
KUMMER_SPECIAL = ((), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6))  # translation 6-set


def kummer_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Symmetric difference of even subsets of {1,...,6} modulo complement."""
    s = set(a) ^ set(b)
    if len(s) == 4:
        s = set(range(1, 7)) - s
    elif len(s) == 6:
        s = set()
    return tuple(sorted(s))


# <4> + A1^16 on the basis (eta, N_alpha), alpha in KUMMER_GROUP
KUMMER_AMBIENT = diagonal_lattice(4, *[-2] * 16)


def kummer_trope_support(beta: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(kummer_add(beta, k) for k in KUMMER_SPECIAL))


def _kummer_node(alpha: tuple[int, ...]) -> list[int]:
    """N_alpha in the Kummer ambient coordinates."""
    v = [0] * 17
    v[1 + KUMMER_INDEX[alpha]] = 1
    return v


@lru_cache(maxsize=None)
def kummer_tropes() -> Mapping[tuple[int, ...], tuple[int, ...]]:
    """The trope T_beta of each beta in KUMMER_GROUP, in the coordinates of
    KUMMER_AMBIENT as numerators over 2: T_beta = (eta − its six nodes)/2.
    Built once, and read-only so the cached copy cannot go stale."""
    tropes = {}
    for beta in KUMMER_GROUP:
        v = [1] + [0] * 16
        support = kummer_trope_support(beta)
        if len(set(support)) != 6:
            raise AssertionError("every trope word has exactly six nodes")
        for alpha in support:
            v[1 + KUMMER_INDEX[alpha]] = -1
        tropes[beta] = tuple(v)
    return MappingProxyType(tropes)


@lru_cache(maxsize=None)
def kummer_model() -> Overlattice:
    """Rank-17 lattice of a 16-nodal quartic: KUMMER_AMBIENT glued by the
    sixteen trope words."""
    return overlattice(KUMMER_AMBIENT, list(kummer_tropes().values()), 2)


def kummer_node_trope_pairings() -> bool:
    """N_alpha · T_beta = 1 exactly when alpha+beta lies in the special 6-set."""
    for alpha in KUMMER_GROUP:
        n_vec = _kummer_node(alpha)
        for beta, t_vec in kummer_tropes().items():
            expected = 1 if kummer_add(alpha, beta) in KUMMER_SPECIAL else 0
            if KUMMER_AMBIENT.pair(n_vec, t_vec, 2) != expected:
                return False
    return True


class KummerEmbeddingCertificate(NamedTuple):
    pairings_preserved: bool
    image_in_lattice: bool
    image_orthogonal_to_n0: bool
    image_equals_complement: bool
    gram_match: bool


def _specialize(nums: Sequence[int]) -> list[int]:
    """eta -> eta, E_x -> N_x: KUMMER_GROUP is () followed by the nodes in
    NODES order, so the Kummer coordinates insert a zero N_0 entry after eta."""
    return [nums[0], 0, *nums[1:]]


def kummer_embedding_check() -> KummerEmbeddingCertificate:
    """Certify the specialization map Pic(15-nodal) -> Pic(16-nodal).

    eta -> eta, E_x -> N_x, sigma(E_x) -> T_x for conic-type x, and
    sigma(E_y) -> T_y + T_0 + N_0 for quartic-type y; the image must be the
    orthogonal complement of N_0 with the same Gram matrix.  With C the
    image rows' Kummer coordinates and G the Kummer Gram, an image inside
    the complement and of its rank has index sqrt(det C·G·C^T / det comp),
    so it is the whole complement exactly when the two determinants agree.
    """
    pic = picard_lattice()
    kum = kummer_model()
    tropes = kummer_tropes()
    n0 = _kummer_node(())
    # sigma images must match the classical trope combinations (over 2)
    t0_n0 = [t + 2 * n for t, n in zip(tropes[()], n0)]
    pairings = True
    for d in NODES:
        target = tropes[d] if d in L_SET else [a + b for a, b in zip(tropes[d], t0_n0)]
        sigma = sigma_class(d)
        if [2 * x for x in _specialize(sigma.nums)] != [sigma.den * x for x in target]:
            pairings = False
    # pairings preserved: the insertion of a zero N_0 entry preserves every
    # pairing exactly when the Kummer ambient Gram matrix without N_0's row
    # and column is the ambient one
    kummer_gram = KUMMER_AMBIENT.gram
    pairings = pairings and tuple(r[:1] + r[2:] for r in kummer_gram[:1] + kummer_gram[2:]) == AMBIENT.gram
    image_rows = [_specialize(row) for row in pic.basis.rows]
    # image vectors lie in the Kummer lattice and are orthogonal to N_0
    image_in_kummer = [kum.basis.coordinates(v, pic.basis.den) for v in image_rows]
    in_lattice = all(c is not None for c in image_in_kummer)
    orthogonal = all(KUMMER_AMBIENT.form(v, n0) == 0 for v in image_rows)
    # the orthogonal complement of N_0 inside the Kummer lattice
    n0_coords = kum.basis.coordinates(n0)
    if n0_coords is None:
        raise AssertionError("the node N_0 must lie in the Kummer lattice")
    comp, _ = orthogonal_complement(kum.lattice, [n0_coords])
    equals_complement = gram_match = False
    if in_lattice:
        got = kum.lattice.gram_of(image_in_kummer)
        equals_complement = orthogonal and comp.rank == RANK and det_bareiss(got) == comp.det()
        # induced Gram on the image equals the Picard Gram
        gram_match = got == [list(r) for r in pic.lattice.gram]
    return KummerEmbeddingCertificate(
        pairings_preserved=pairings,
        image_in_lattice=in_lattice,
        image_orthogonal_to_n0=orthogonal,
        image_equals_complement=equals_complement,
        gram_match=gram_match,
    )
