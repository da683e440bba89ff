"""Certified isometries of the rank-16 Picard lattice, all on AMBIENT.

Four families: the covering involution sigma*, the Reye reflection in the
norm -4 vector 2*eta - sum_L E, one pentad reflection in 3*eta - 2*sum_P E
per 5-subset P of nodes, and the S6 relabelings of the nodes.  Each is a
`lattice.Isometry` M/den on `nodal_surface.AMBIENT` = <4> + A1^15, in the
coordinates (eta, E_x) of every `DivisorClass`: sigma* is the rows of
sigma(eta) and sigma(E_x) over den 2, a reflection is
`lattice.reflection_rows(AMBIENT, root.nums)`, a relabeling is its
node-permutation rows, and a class maps as cls.nums·M over cls.den·den.

AMBIENT is not a Z-basis of Pic, so one certificate, `_certified`, decides
for all four families whether M/den is an isometry of Pic: M·M = den²·1 and
M·G·M^T = den²·G by full products over the rows
(`Isometry.involutive_isometry`), and the Pic test for den 1 and 2
(`nodal_surface.maps_code_into_code`, where the lemma is stated), both on
the premise `_pic_premise` about the Picard lattice it is given.
`verify_all_pentad_reflections` counts the same tests over the 3003 pentad
reflections; with 46 nonzero entries per reflection and 16 in the Gram
matrix, its 6,006 full products take 816,816 multiply-adds.

Matrices act on row coordinate vectors: v -> v·M, so row i is the image of
the i-th basis vector and the isometry condition reads M·G·M^T = G.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Sequence

from .configs import Duad, apply_perm_duad_set, s6_elements
from .lattice import Isometry, reflection_rows
from .nodal_surface import (
    AMBIENT,
    C_SET,
    E,
    ETA,
    L_SET,
    NODE_INDEX,
    NODES,
    DivisorClass,
    eta_star,
    is_pic_integral,
    maps_code_into_code,
    pentad_root,
    picard_lattice,
    reye_root,
    sigma_class,
    sigma_eta,
)
from .pentads import all_pentads, pencil_classes

Pentad = tuple[Duad, Duad, Duad, Duad, Duad]


def _pic_premise() -> None:
    """Raise unless B·G·B^T = den²·G_Pic for the basis rows B over den of
    the Picard lattice, so that AMBIENT's form and Pic's Gram matrix are one
    form.  `overlattice` builds G_Pic as that product, but the check stays:
    it is the hypothesis of the Pic lemma and what ties each certificate to
    the lattice `picard_lattice()` gives."""
    pic = picard_lattice()
    den2 = pic.basis.den ** 2
    if AMBIENT.gram_of(pic.basis.rows) != [[den2 * x for x in row] for row in pic.lattice.gram]:
        raise AssertionError("the Picard Gram matrix must be the form of AMBIENT on its basis rows")


def _certified(iso: Isometry) -> bool:
    """Whether iso squares to the identity; a ValueError naming it is raised
    unless it preserves AMBIENT's Gram form and maps Pic into Pic."""
    _pic_premise()
    involutive, isometric = iso.involutive_isometry(AMBIENT)
    if not isometric:
        raise ValueError(f"{iso.name}: Gram form not preserved")
    if not maps_code_into_code(iso.rows, iso.den):
        raise ValueError(f"{iso.name}: does not map the Picard lattice into itself")
    return involutive


def _involution(iso: Isometry) -> Isometry:
    """iso, certified and required to square to the identity."""
    if not _certified(iso):
        raise AssertionError(f"{iso.name} must square to the identity")
    return iso


def _from_images(name: str, images: Sequence[DivisorClass]) -> Isometry:
    """The matrix on AMBIENT whose row i is the image of coordinate vector i."""
    den = lcm(*(c.den for c in images))
    return Isometry.from_matrix(name, ([den // c.den * x for x in c.nums] for c in images), den)


def sigma_star() -> Isometry:
    """The covering involution: eta and every E_x map to their sigma-classes."""
    return _involution(_from_images("sigma*", [sigma_eta()] + [sigma_class(d) for d in NODES]))


def tau_rey_star() -> Isometry:
    """The Reye reflection, in the root 2*eta − sum over conic-type nodes."""
    return _involution(reflection_rows(AMBIENT, reye_root().nums, "tau_rey"))


def tau_pentad_star(pentad: Sequence[Duad]) -> Isometry:
    """Reflection attached to a pentad of nodes (admissibility not required)."""
    p = tuple(sorted(pentad))
    if len(p) != 5 or len(set(p)) != 5 or not set(p) <= NODE_INDEX.keys():
        raise ValueError("a pentad consists of five distinct node labels")
    name = "tau_P(" + ",".join(f"{a}{b}" for a, b in p) + ")"
    return _involution(reflection_rows(AMBIENT, pentad_root(p).nums, name))


def s6_isometry(g: Sequence[int]) -> Isometry:
    """Node-relabeling action of a permutation of {1,...,6} on the lattice."""
    iso = _from_images(f"perm{tuple(g)}", [c.permuted(g) for c in (ETA, *(E[d] for d in NODES))])
    _certified(iso)
    return iso


# -- verification of the classical identities ---------------------------------


class ReyeImageReport(NamedTuple):
    """The six classical image formulas of the Reye reflection, as exact checks."""

    e_conic: bool        # E_x -> 2*eta - sum of the other conic-type E, x in L
    e_conic_alt: bool    # ... and the same class written as E_x + 2*eta_star - eta
    e_quartic: bool      # E_y fixed, y in C
    sigma_conic: bool    # sigma(E_x) fixed, x in L
    sigma_quartic: bool  # sigma(E_y) -> sigma(E_y) + 4*eta - 2*sum_L E
    eta_image: bool      # eta -> 9*eta - 4*sum_L E = 8*eta_star - 3*eta
    eta_star_image: bool  # eta_star -> 3*eta_star - eta

    def all_hold(self) -> bool:
        return all(getattr(self, f) for f in self._fields)


def _apply_to_class(iso: Isometry, cls: DivisorClass) -> DivisorClass:
    """The image of a class of Pic, cls.nums·M over cls.den·den; a class off
    Pic is refused with a ValueError naming the isometry and the class."""
    if not is_pic_integral(cls):
        raise ValueError(f"{iso.name}: the class {cls} is not in the Picard lattice")
    return DivisorClass(tuple(iso.apply(cls.nums)), cls.den * iso.den)


def reye_image_report() -> ReyeImageReport:
    tau = tau_rey_star()
    zero = DivisorClass.make()
    sum_l = sum((E[x] for x in L_SET), zero)
    es = eta_star()

    def img(cls):
        return _apply_to_class(tau, cls)

    e_conic = all(
        img(E[x]) == 2 * ETA - (sum_l - E[x]) for x in L_SET
    )
    e_conic_alt = all(
        img(E[x]) == E[x] + 2 * es - ETA for x in L_SET
    )
    e_quartic = all(img(E[y]) == E[y] for y in C_SET)
    sigma_conic = all(img(sigma_class(x)) == sigma_class(x) for x in L_SET)
    sigma_quartic = all(
        img(sigma_class(y)) == sigma_class(y) + 4 * ETA - 2 * sum_l for y in C_SET
    )
    eta_image = img(ETA) == 9 * ETA - 4 * sum_l and img(ETA) == 8 * es - 3 * ETA
    eta_star_image = img(es) == 3 * es - ETA
    return ReyeImageReport(
        e_conic, e_conic_alt, e_quartic, sigma_conic, sigma_quartic, eta_image, eta_star_image
    )


class RelationReport(NamedTuple):
    goepel_conjugation: bool     # sigma · tau_rey · sigma = tau_{Goepel pentad}
    reye_invariant_rank: int
    goepel_invariant_rank: int
    lefschetz_reye: int          # 2 + trace on Pic - 6, transcendental part at -1
    lefschetz_goepel: int
    pencil_norms: bool           # F_i^2 = 0, F_i·F_j = 2 for the Goepel pentad
    reye_fixes_pencils: bool     # tau_rey fixes the ten classes eta_star - E_x
    reflection_routes_agree: bool  # conjugated sigma route equals the root route


GOEPEL_PENTAD: Pentad = tuple(C_SET)


def verify_relations() -> RelationReport:
    """The conjugation identity, invariant ranks, Lefschetz numbers and
    pencil pairings, all as exact integer computations.

    The Lefschetz numbers assume the involutions act as -1 on the rank-6
    transcendental part; that assumption is recorded here, not derived.
    """
    sig = sigma_star()
    tau = tau_rey_star()
    goepel = tau_pentad_star(GOEPEL_PENTAD)
    conj = sig.compose(tau).compose(sig)
    goepel_conj = (conj.rows, conj.den) == (goepel.rows, goepel.den)
    # independent route: sigma maps the Reye root to the Goepel root
    routes = _apply_to_class(sig, reye_root()) == pentad_root(GOEPEL_PENTAD)
    try:  # pencil_classes refuses pencils that break any pencil identity
        pencil_classes(GOEPEL_PENTAD)
    except (ValueError, AssertionError):
        pencil_norms = False
    else:
        pencil_norms = True
    es = eta_star()
    fixes = all(
        _apply_to_class(tau, es - E[x]) == es - E[x] for x in L_SET
    )
    return RelationReport(
        goepel_conjugation=goepel_conj,
        reye_invariant_rank=tau.invariant_rank(),
        goepel_invariant_rank=goepel.invariant_rank(),
        lefschetz_reye=2 + tau.trace() - 6,
        lefschetz_goepel=2 + goepel.trace() - 6,
        pencil_norms=pencil_norms,
        reye_fixes_pencils=fixes,
        reflection_routes_agree=routes,
    )


def verify_all_pentad_reflections():
    """Certify every one of the 3003 pentad reflections, on AMBIENT.

    Returns (count, all_integral, all_gram_preserving, all_involutive).
    Each reflection is `lattice.reflection_rows(AMBIENT, pentad_root(P).nums)`,
    integral when it was built and maps Pic into Pic.  These are the tests
    and the premise of `_certified`, counted instead of raised, so the three
    counts at 3003 certify each τ_P that `tau_pentad_star` gives.
    """
    _pic_premise()
    count = integral = isometric = involutive = 0
    for p in all_pentads():
        count += 1
        try:
            # the name is read only by the error, swallowed here
            tau = reflection_rows(AMBIENT, pentad_root(p).nums, "tau_P")
        except ValueError:
            continue
        integral += maps_code_into_code(tau.rows, tau.den)
        squares_to_one, preserves = tau.involutive_isometry(AMBIENT)
        isometric += preserves
        involutive += squares_to_one
    return count, integral, isometric, involutive


NATURALITY_SAMPLE = 12  # (permutation, pentad) pairs in the naturality spot check


def pentad_naturality_spot_check() -> bool:
    """g · tau_P · g^{-1} = tau_{g(P)} on a deterministic sample of pairs,
    checked without inverting g as tau_P · M_g = M_g · tau_{g(P)}."""
    perms = s6_elements()
    pentads = all_pentads()
    for k in range(NATURALITY_SAMPLE):
        g = perms[(37 * k + 11) % len(perms)]
        p = pentads[(211 * k + 5) % len(pentads)]
        giso = s6_isometry(g)
        tau_gp = tau_pentad_star(apply_perm_duad_set(g, p))
        lhs, rhs = tau_pentad_star(p).compose(giso), giso.compose(tau_gp)
        if (lhs.rows, lhs.den) != (rhs.rows, rhs.den):
            return False
    return True
