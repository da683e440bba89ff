"""Certified isometries of the rank-16 Picard lattice.

Four families: the covering involution sigma* (determined by its images on
the hyperplane and exceptional classes), the Reye reflection in the norm -4
vector 2*eta - sum_L E, one pentad reflection in 3*eta - 2*sum_P E per
5-subset P of nodes, and the S6 relabelings of the nodes.  Every one is a
`lattice.Isometry`, held by its sparse rows, on the named Z-basis of the
one Picard lattice (eta, the five glue classes sigma(E_d) and the ten E_x
off the code's pivots; `nodal_surface.picard_basis_classes`), which each
function reads from the cached `picard_lattice()`; a class reaches that
basis through its integer coordinates `nodal_surface.pic_coordinates`.  On
that basis the Gram matrix has 76 nonzero entries and the median pentad
root 9 nonzero coordinates, against 112 and 13 on the Hermite normal form
basis the lattice is certified on, so the 6,006 full products below take
2,260,736 multiply-adds instead of 4,504,124.  The 3003 pentad roots
skip the class arithmetic: coordinates are linear, so each root's integer
coordinates are 3·w_eta − 2·Σ_P w_x from those of eta and the fifteen E_x.
A reflection is built from its root by `lattice.reflection_rows` (integral
by exact division); sigma* and the relabelings sparsify the coordinates of
their class images once.  One certificate, `Isometry.involutive_isometry`,
decides involutive and Gram-preserving for all four families by full
products over the rows: M·M and, once M² = 1, the symmetry of M·G.

Matrices act on row coordinate vectors: v -> v·M, so row i is the image of
the i-th basis vector and the isometry condition reads M·G·M^T = G.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .configs import Duad, apply_perm_duad_set, s6_elements
from .lattice import Isometry, reflection_rows
from .nodal_surface import (
    C_SET,
    E,
    ETA,
    L_SET,
    NODES,
    DivisorClass,
    eta_star,
    pentad_root,
    pic_coordinates,
    picard_basis_classes,
    picard_lattice,
    reye_root,
    sigma_class,
    sigma_eta,
)
from .pentads import all_pentads, pencil_classes

Pentad = tuple[Duad, Duad, Duad, Duad, Duad]


def _isometry_from_class_images(name: str, images: Sequence[DivisorClass]) -> tuple[Isometry, bool]:
    """The isometry whose row i is the image of basis vector i, certified
    integral and Gram-preserving, with whether it squares to the identity."""
    coords = (pic_coordinates(img, f"{name}: image of basis vector {i}") for i, img in enumerate(images))
    iso = Isometry.from_matrix(name, coords)
    involutive, isometric = iso.involutive_isometry(picard_lattice().lattice)
    if not isometric:
        raise ValueError(f"{name}: Gram form not preserved")
    return iso, involutive


def sigma_star() -> Isometry:
    """The covering involution: eta and every E_x map to their sigma-classes."""
    generator_images = [sigma_eta()] + [sigma_class(d) for d in NODES]

    def image_of(cls: DivisorClass) -> DivisorClass:
        out = DivisorClass.make()
        for c, img in zip(cls.nums, generator_images):
            if c:
                out = out + c * img
        return out / cls.den

    images = [image_of(b) for b in picard_basis_classes()]
    iso, involutive = _isometry_from_class_images("sigma", images)
    if not involutive:
        raise AssertionError("sigma* must square to the identity")
    return iso


def _root_reflection(name: str, root: DivisorClass) -> Isometry:
    """Reflection in a root of the lattice, through its integer coordinates."""
    w = pic_coordinates(root, f"{name}: the root")
    return reflection_rows(picard_lattice().lattice, w, name)


def tau_rey_star() -> Isometry:
    """The Reye reflection, in the root 2*eta − sum over conic-type nodes."""
    iso = _root_reflection("tau_rey", reye_root())
    involutive, isometric = iso.involutive_isometry(picard_lattice().lattice)
    if not isometric:
        raise AssertionError("tau_rey must preserve the Gram form")
    if not involutive:
        raise AssertionError("tau_rey must square to the identity")
    return iso


def tau_pentad_star(pentad: Sequence[Duad]) -> Isometry:
    """Reflection attached to a pentad of nodes (admissibility not required)."""
    p = tuple(sorted(pentad))
    if len(p) != 5 or len(set(p)) != 5:
        raise ValueError("a pentad consists of five distinct node labels")
    return _root_reflection(_pentad_name(p), pentad_root(p))


def _pentad_name(p: Sequence[Duad]) -> str:
    return "tau_P(" + ",".join(f"{a}{b}" for a, b in p) + ")"


def pentad_root_coordinates() -> Iterator[tuple[Pentad, list[int]]]:
    """Each of the 3003 pentads (sorted) with the integer lattice coordinates
    of its root 3*eta − 2*sum_P E.

    Coordinates on a Z-basis are linear, so w_P = 3·w_eta − 2·Σ_{x∈P} w_x
    from the coordinates of eta and of each E_x; the root lies in the lattice
    because eta and every E_x do.
    """
    eta3 = [3 * c for c in pic_coordinates(ETA, "eta")]
    e2 = {x: [2 * c for c in pic_coordinates(E[x], f"E_{x}")] for x in NODES}
    for p in all_pentads():
        yield p, [t - a - b - c - d - e for t, a, b, c, d, e in zip(eta3, *(e2[x] for x in p))]


def s6_isometry(g: Sequence[int]) -> Isometry:
    """Node-relabeling action of a permutation of {1,...,6} on the lattice."""
    images = [b.permuted(g) for b in picard_basis_classes()]
    return _isometry_from_class_images(f"perm{tuple(g)}", images)[0]


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
    basis = picard_lattice().basis
    pic = pic_coordinates(cls, f"{iso.name}: the class", name_class=True)
    return DivisorClass(tuple(basis.vector(iso.apply(pic))), basis.den)


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
    goepel_conj = conj.rows == goepel.rows
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
    """Certify every one of the 3003 pentad reflections.

    Returns (count, all_integral, all_gram_preserving, all_involutive).  The
    roots come from `pentad_root_coordinates`; each reflection is built by
    `lattice.reflection_rows`, the isometry `tau_pentad_star` builds through
    the divisor-class route, and certified by `Isometry.involutive_isometry`.
    """
    lat = picard_lattice().lattice
    count = integral = isometric = involutive = 0
    for _, w in pentad_root_coordinates():
        count += 1
        try:
            tau = reflection_rows(lat, w, "tau_P")  # the name is read only by the error, swallowed here
        except ValueError:
            continue
        integral += 1
        squares_to_one, preserves = tau.involutive_isometry(lat)
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
        if tau_pentad_star(p).compose(giso).rows != giso.compose(tau_gp).rows:
            return False
    return True
