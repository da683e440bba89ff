"""The Segre cubic and the Castelnuovo-Richmond-Igusa quartic.

Both are built in symmetric 6-coordinate models inside the hyperplane
u1+...+u6 = 0, so that the S6 symmetry is literal coordinate permutation:

    cubic:    sum u_i = 0,  sum u_i^3 = 0
    quartic:  sum u_i = 0,  4*sum u_i^4 - (sum u_i^2)^2 = 0

This module certifies their special loci (nodes, double lines, cardinal
tangent hyperplanes), the polar duality map between them, hyperplane and
tangent sections as 15- and 16-nodal quartic surfaces, and runs exhaustive
singular-point scans over small prime fields as an independent oracle.
"""

from __future__ import annotations

import itertools
import random
import struct
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import index, mul
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence

from .configs import (
    Duad,
    Syntheme,
    duads,
    synthemes,
    three_subsets,
    trope_incidence_model,
)
from .exact import ModPoly, MultiPoly, perfect_square_factor, primitive_integer_vector
from .lattice import _check_length, bareiss, clear_denominators, hermite_normal_form, mat_mul, mat_transpose

NVARS = 6
ONES = (1,) * NVARS


class NotOnVarietyError(ValueError):
    """The point violates the defining equations or ambient constraints."""


class GenericityError(ValueError):
    """A named genericity condition failed; `condition` says which."""

    def __init__(self, condition: str, detail=None):
        self.condition = condition
        self.detail = detail
        super().__init__(f"{condition}" + (f": {detail}" if detail is not None else ""))


# -- points and subspaces -----------------------------------------------------


class ProjectivePoint:
    """Point of projective space, stored by its canonical integer
    representative: the primitive integer vector whose first nonzero entry
    is positive."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        xs = tuple(primitive_integer_vector(coords))
        if not any(xs):
            raise ValueError("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", xs)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ProjectivePoint is immutable")

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ProjectivePoint{self.coords}"


class LinearSubspace:
    """Linear subspace as integer reduced row echelon rows over one denominator.

    `rows`/`den` is the reduced row echelon form of the defining equations:
    every row leads with `den`, which is positive, and each leading column
    is zero in the other rows, so the rows are independent.  The same
    integers give the parametrization: for each free (non-leading) column
    fc, the integer column `kernel` holds den at fc and −rows[r][fc] at the
    leading column of row r; over den it is 1 at fc and 0 at the other free
    columns.  The parameters of a point of the subspace are therefore its
    entries at the free columns.  Membership and annihilation are integer
    dot products against these rows and columns, each point or covector
    cleared once per call, and a form is restricted to the subspace by
    substituting `parametrization` over `den`.  The rows and den are divided
    by their common gcd, so each subspace has one representation and
    equality of records is equality of subspaces.
    """

    rows: tuple[tuple[int, ...], ...]
    den: int
    nvars: int

    def __init__(self, rows: Sequence[Sequence[int]], den: int, nvars: int):
        for row in rows:
            _check_length(row, nvars, "equation row")
        rows = tuple(tuple(map(index, row)) for row in rows)
        lead = [next((i for i, x in enumerate(row) if x), nvars) for row in rows]
        if (
            den < 1
            or lead[-1:] == [nvars]
            or any(a >= b for a, b in zip(lead, lead[1:]))
            or any(
                row[c] != (den if r == k else 0)
                for r, row in enumerate(rows)
                for k, c in enumerate(lead)
            )
        ):
            raise ValueError("equation rows must be in reduced row echelon form over a positive den")
        g = gcd(den, *(x for row in rows for x in row))
        object.__setattr__(self, "rows", tuple(tuple(x // g for x in row) for row in rows))
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name, value):
        raise AttributeError("LinearSubspace is immutable")

    def _key(self) -> tuple:
        return self.rows, self.den, self.nvars

    def __eq__(self, other):
        return isinstance(other, LinearSubspace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def from_equations(cls, rows: Sequence[Sequence], nvars: int) -> "LinearSubspace":
        for r in rows:
            _check_length(r, nvars, "equation row")
        a, pivots, _ = bareiss([clear_denominators(r)[0] for r in rows], reduce_above=True)
        d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
        sign = 1 if d > 0 else -1
        return cls(tuple(tuple(sign * x for x in row) for row in a[: len(pivots)]), sign * d, nvars)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Leading column of each equation row."""
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.rows)

    @cached_property
    def free(self) -> tuple[int, ...]:
        """Free columns: those holding no leading entry of an equation row."""
        return tuple(i for i in range(self.nvars) if i not in self.pivots)

    @cached_property
    def kernel(self) -> tuple[tuple[int, ...], ...]:
        """Integer columns over den spanning the subspace, one per free column."""
        cols = []
        for fc in self.free:
            col = [0] * self.nvars
            col[fc] = self.den
            for row, pc in zip(self.rows, self.pivots):
                col[pc] = -row[fc]
            cols.append(tuple(col))
        return tuple(cols)

    @cached_property
    def parametrization(self) -> tuple[tuple[int, ...], ...]:
        """The kernel columns as plain rows, one per variable: over den, the
        linear substitution of the subspace's parameters."""
        return tuple(tuple(col[i] for col in self.kernel) for i in range(self.nvars))

    def _cleared(self, v: Sequence, what: str) -> list[int]:
        _check_length(v, self.nvars, what)
        return clear_denominators(v)[0]

    def contains(self, p: Sequence) -> bool:
        """Exact membership: p satisfies every equation."""
        w = self._cleared(p, "point")
        return all(sum(a * b for a, b in zip(eq, w) if a) == 0 for eq in self.rows)

    def coordinates(self, p: Sequence) -> Optional[list]:
        """Parameters x with parametrization·x = den·p, or None when p is off
        the subspace: p's own entries at the free columns."""
        if not self.contains(p):
            return None
        return [p[f] for f in self.free]

    def annihilates(self, v: Sequence) -> bool:
        """True iff the covector v kills every kernel column, i.e. v lies in
        the span of the equations."""
        w = self._cleared(v, "covector")
        return all(sum(a * b for a, b in zip(col, w) if a) == 0 for col in self.kernel)


# the hyperplane u1+...+u6 = 0 that holds both varieties
SUM_ZERO = LinearSubspace.from_equations([ONES], NVARS)


class Hypersurface:
    """Homogeneous form together with ambient linear constraints.

    The form is stored cleared of its denominator (scaled by `den`), which
    leaves its zero set unchanged: the form and every partial then have
    integer coefficients, so values at integer points are integers.  The
    constraints are one `LinearSubspace`, `ambient` (no equations for an
    unconstrained form).  The first partials are built once per surface, on
    first use, and shared by every node certified on it.  For evaluation the
    form, its n first partials and its n(n+1)/2 second partials d_i d_j f
    (i <= j, formed from the first partials in the same one build) are held
    as rows of (monomial index, coefficient) into one table of monomials:
    the monomials these polynomials use and the smaller ones each is built
    from, by one multiplication each, with the build steps cached per
    exponent set (`_monomial_steps`).  At a point the table is filled once
    and every value is read off its own polynomial's row: `gradient_at` and
    `certify_ordinary_node` read the gradient and the Hessian this way.
    """

    form: MultiPoly
    ambient: LinearSubspace

    def __init__(self, form: MultiPoly, ambient: LinearSubspace):
        if not form.is_homogeneous():
            raise ValueError("form must be homogeneous")
        if ambient.nvars != form.nvars:
            raise ValueError(f"ambient subspace has {ambient.nvars} variables, the form {form.nvars}")
        object.__setattr__(self, "form", form.scale(form.den))
        object.__setattr__(self, "ambient", ambient)

    def __setattr__(self, name, value):
        raise AttributeError("Hypersurface is immutable")

    def __eq__(self, other):
        return isinstance(other, Hypersurface) and (self.form, self.ambient) == (other.form, other.ambient)

    @cached_property
    def gradient(self) -> tuple[MultiPoly, ...]:
        return tuple(self.form.gradient())

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[tuple[int, int], ...], ...]]:
        """(steps, rows): the monomial table's build steps, and the rows of
        the form, of each d_i f and of each d_i d_j f, i <= j, in that order;
        the second partials are formed here from `gradient`, once."""
        n = self.form.nvars
        polys = [self.form, *self.gradient, *(self.gradient[i].partial(j) for i in range(n) for j in range(i, n))]
        position, steps = _monomial_steps(n, frozenset(e for f in polys for e in f.nums))
        return steps, tuple(tuple((position[e], c) for e, c in f.nums.items()) for f in polys)

    def _monomial_values(self, xs: Sequence[int]) -> list[int]:
        """The monomial table at the integer point xs."""
        values = [1]
        for parent, i in self._rows[0]:
            values.append(values[parent] * xs[i])
        return values

    def _read(self, values: list[int], first: int, count: int) -> list[int]:
        """The values of `count` consecutive rows from row `first` on."""
        return [sum([c * values[k] for k, c in row]) for row in self._rows[1][first : first + count]]

    def _values_on_variety(self, point: Sequence) -> list[int]:
        """The monomial table at the cleared point, refusing a point off the
        ambient constraints or off the form."""
        xs = self._cleared(point)
        if not self.ambient.contains(xs):
            raise NotOnVarietyError("point violates the ambient constraints")
        values = self._monomial_values(xs)
        if self._read(values, 0, 1)[0] != 0:
            raise NotOnVarietyError("point is not on the variety")
        return values

    def _gradient(self, values: list[int]) -> tuple[int, ...]:
        return tuple(self._read(values, 1, self.form.nvars))

    def _hessian(self, values: list[int]) -> list[list[int]]:
        n = self.form.nvars
        entries = iter(self._read(values, 1 + n, n * (n + 1) // 2))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(entries)
        return rows

    def gradient_at(self, point: Sequence) -> tuple[int, ...]:
        """Integer gradient at a point of the variety: with the point cleared
        to xs/d, the partials at xs/d times d^(D−1), D the degree, which for
        a homogeneous form are the partials at xs.  A point off the ambient
        constraints or off the form is refused."""
        return self._gradient(self._values_on_variety(point))

    def _cleared(self, point: Sequence) -> list[int]:
        """The integer vector xs of the point xs/d: a homogeneous form of
        degree k has at xs its value at xs/d times d^k."""
        _check_length(point, self.form.nvars, "point")
        return clear_denominators(point)[0]

    def is_s6_invariant(self) -> bool:
        """Exact invariance of the form under all 720 coordinate permutations."""
        for perm in itertools.permutations(range(NVARS)):
            if self.form.permute_variables(list(perm)) != self.form:
                return False
        return True


@lru_cache(maxsize=64)
def _monomial_steps(nvars: int, exponents: frozenset) -> tuple[MappingProxyType, tuple[tuple[int, int], ...]]:
    """(position, steps) for a table of monomials in `nvars` variables that
    holds `exponents`: entry 0 is the monomial 1, and entry k > 0 is entry
    steps[k−1][0] times the variable steps[k−1][1], a monomial already in the
    table with one less in its last nonzero exponent; `position` maps each
    exponent of the table to its entry."""
    position: dict[tuple[int, ...], int] = {(0,) * nvars: 0}
    steps: list[tuple[int, int]] = []

    def add(e: tuple[int, ...]) -> int:
        if e not in position:
            i = max(k for k, x in enumerate(e) if x)
            steps.append((add(e[:i] + (e[i] - 1,) + e[i + 1 :]), i))
            position[e] = len(steps)
        return position[e]

    for e in sorted(exponents):
        add(e)
    return MappingProxyType(position), tuple(steps)


@lru_cache(maxsize=None)
def segre_form() -> MultiPoly:
    u = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    return sum((ui**3 for ui in u), MultiPoly.zero(NVARS))


@lru_cache(maxsize=None)
def cr_quartic_form() -> MultiPoly:
    u = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    s4 = sum((ui**4 for ui in u), MultiPoly.zero(NVARS))
    s2 = sum((ui**2 for ui in u), MultiPoly.zero(NVARS))
    return s4 * 4 - s2 * s2


@lru_cache(maxsize=None)
def build_variety(kind: str) -> Hypersurface:
    if kind == "segre":
        return Hypersurface(segre_form(), SUM_ZERO)
    if kind == "cr":
        return Hypersurface(cr_quartic_form(), SUM_ZERO)
    raise ValueError(f"unknown variety kind {kind!r}")


# -- special loci --------------------------------------------------------------


def node_point(subset: Sequence[int]) -> ProjectivePoint:
    """Cubic node for a 3-subset: +1 on the subset, −1 on the complement."""
    return ProjectivePoint([1 if i + 1 in subset else -1 for i in range(NVARS)])


def cardinal_coefficients(subset: Sequence[int]) -> tuple[int, ...]:
    return tuple(1 if i + 1 in subset else -1 for i in range(NVARS))


@lru_cache(maxsize=None)
def syntheme_line(s: Syntheme) -> LinearSubspace:
    """Double line of the quartic for a syntheme: equal coordinates on each duad."""
    rows = [list(ONES)]
    for a, b in s:
        row = [0] * NVARS
        row[a - 1], row[b - 1] = 1, -1
        rows.append(row)
    return LinearSubspace.from_equations(rows, NVARS)


@lru_cache(maxsize=None)
def syntheme_plane(s: Syntheme) -> LinearSubspace:
    """Plane of the cubic for a syntheme: opposite coordinates on each duad."""
    rows = []
    for a, b in s:
        row = [0] * NVARS
        row[a - 1], row[b - 1] = 1, 1
        rows.append(row)
    return LinearSubspace.from_equations(rows, NVARS)


def duad_point(d: Duad) -> ProjectivePoint:
    """Common point of the three double lines through a duad: −2 on it, 1 off."""
    return ProjectivePoint([-2 if i + 1 in d else 1 for i in range(NVARS)])


def derive_duad_point(d: Duad) -> ProjectivePoint:
    """Independent derivation: intersect the three syntheme lines containing d."""
    rows = [eq for s in synthemes() if d in s for eq in syntheme_line(s).rows]
    meet = LinearSubspace.from_equations(rows, NVARS)
    if len(meet.kernel) != 1:
        raise AssertionError("three lines through a duad must meet in one point")
    return ProjectivePoint(meet.kernel[0])


# -- node certification ---------------------------------------------------------


class SmoothPointFailure:
    """Typed failure: the point lies on the variety but is smooth there."""


class NodeCertificate(NamedTuple):
    hessian_rank: int
    is_ordinary: bool
    chart: tuple[tuple[int, ...], ...]  # chart directions: integer kernel columns over den


def _chart_basis(point: Sequence[int], ambient: LinearSubspace) -> list[int]:
    """Indices of the directions completing the point to a basis of the
    ambient subspace: every parametrization column but the one at the last
    free column where the point is nonzero.  The point's coefficient on that
    column is its nonzero entry there, so the point can take its place; it
    is the column a greedy left-to-right independence test would drop."""
    last = max(k for k, f in enumerate(ambient.free) if point[f])
    return [k for k in range(len(ambient.free)) if k != last]


def certify_ordinary_node(v: Hypersurface, p: ProjectivePoint) -> NodeCertificate | SmoothPointFailure:
    """Exact ordinary-node certificate at p, or a typed smooth-point failure.

    The gradient and the Hessian are the integer readings of the partials
    built once on `v`.  The Hessian is restricted to a chart of the
    constrained tangent space as W·H·Wᵀ, formed in integers from the chart's
    kernel columns (the chart directions times den); the rank is
    computed twice, by fraction-free (Bareiss) elimination and by the gcd
    row operations of the Hermite normal form, and the two must agree.
    Ordinary means full rank, i.e. rank equal to the dimension of the
    ambient projective space.
    """
    coords = p.coords
    values = v._values_on_variety(coords)
    if not v.ambient.annihilates(v._gradient(values)):
        return SmoothPointFailure()
    keep = _chart_basis(coords, v.ambient)
    w = [v.ambient.kernel[k] for k in keep]
    chart_hess = mat_mul(mat_mul(w, v._hessian(values)), mat_transpose(w))
    r1 = len(bareiss(chart_hess)[1])
    hnf, _ = hermite_normal_form(chart_hess)
    if r1 != sum(1 for row in hnf if any(row)):
        raise AssertionError("rank cross-check failed")
    expected = len(keep)  # = projective dimension of the ambient space
    return NodeCertificate(
        hessian_rank=r1,
        is_ordinary=(r1 == expected),
        chart=tuple(w),
    )


def verify_double_line(v: Hypersurface, line: LinearSubspace) -> bool:
    """True iff the form and its constrained gradient vanish identically on the line.

    The gradient is required to be proportional, as a polynomial identity
    along the line, to the ambient-constraint direction.
    """
    if len(v.ambient.rows) != 1:
        raise ValueError("double-line check implemented for one ambient constraint")
    (constraint,) = v.ambient.rows
    if not all(v.ambient.contains(col) for col in line.kernel):
        raise ValueError("line does not lie inside the ambient constraints")
    if v.form.substitute_linear(line.parametrization, line.den):
        return False
    partials = [g.substitute_linear(line.parametrization, line.den) for g in v.gradient]
    # gradient parallel to the constraint row along the whole line
    for i in range(len(partials)):
        for j in range(i + 1, len(partials)):
            if partials[i] * constraint[j] != partials[j] * constraint[i]:
                return False
    return True


# -- duality -------------------------------------------------------------------


class DualityImage(NamedTuple):
    source: ProjectivePoint
    point: ProjectivePoint
    quartic_value: int  # exact CR value at the image, must be 0


def duality_image(z: ProjectivePoint) -> DualityImage:
    """Polar duality from the cubic to the quartic: traceless coordinate square.

    y_i = z_i^2 − (sum_j z_j^2)/6.  Undefined exactly at the ten nodes, where
    the traceless square collapses to zero.  The image is formed from z's
    integer coordinates as 6·z_i^2 − sum_j z_j^2, which is y scaled by six.
    """
    zs = z.coords
    if sum(zs) != 0 or sum(c**3 for c in zs) != 0:
        raise NotOnVarietyError("point is not on the cubic")
    s = sum(c * c for c in zs)
    y = [NVARS * c * c - s for c in zs]
    if not any(y):
        raise NotOnVarietyError("duality image undefined at a node of the cubic")
    value = cr_quartic_form()._integer_value(y)
    if value != 0:
        raise AssertionError("duality image must land on the quartic")
    return DualityImage(z, ProjectivePoint(y), value)


def duality_plane_to_line(s: Syntheme) -> bool:
    """Symbolic check: the cubic's plane for s maps into the quartic's line
    for s.  The integer parametrization scales every image by den²."""
    plane = syntheme_plane(s)
    squares = [f * f for f in map(MultiPoly.linear_form, plane.parametrization)]
    total = sum(squares, MultiPoly.zero(len(plane.free)))
    images = [sq * 6 - total for sq in squares]  # six times the traceless squares
    for a, b in s:
        if images[a - 1] != images[b - 1]:
            return False
    return True


# -- cardinal restrictions -------------------------------------------------------


class CardinalRestriction(NamedTuple):
    scale: Fraction
    square_root: MultiPoly  # conic q with restriction = scale * q^2
    plane: LinearSubspace  # the cardinal 3-plane, parametrized over its den


def cardinal_tangency_quadric() -> MultiPoly:
    """The classical tangency quadric of the cardinal hyperplane for {1,2,3}."""
    u = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    return u[0] * u[1] + u[0] * u[2] + u[1] * u[2] - u[3] * u[4] - u[3] * u[5] - u[4] * u[5]


@lru_cache(maxsize=None)
def cardinal_restriction(subset: tuple[int, int, int]) -> CardinalRestriction:
    """Restrict the quartic to a cardinal 3-plane; must be a perfect square.
    Cached: the cardinal checks and every hyperplane section share one record."""
    plane = LinearSubspace.from_equations([ONES, cardinal_coefficients(subset)], NVARS)
    restricted = cr_quartic_form().substitute_linear(plane.parametrization, plane.den)
    result = perfect_square_factor(restricted)
    if result is None:
        raise AssertionError(
            f"cardinal restriction for {subset} is not a perfect square; model falsified"
        )
    c, q = result
    return CardinalRestriction(c, q, plane)


# -- hyperplane sections -----------------------------------------------------------


class TropeRecord(NamedTuple):
    subset: tuple[int, int, int]
    conic: MultiPoly  # in the 3 plane parameters
    incident_nodes: tuple[Syntheme, ...]


class SectionNode(NamedTuple):
    syntheme: Syntheme | None  # None for the tangency node of a tangent section
    ambient: ProjectivePoint  # 6-coordinate representative
    chart_point: ProjectivePoint  # 4-coordinate representative in the section chart
    certificate: NodeCertificate


class SectionModel(NamedTuple):
    """A hyperplane section of the quartic as a nodal surface in P^3."""

    hyperplane: tuple[int, ...]  # primitive integer coefficients, sum zero
    quartic3: MultiPoly  # the restricted quartic in the 4 chart variables
    nodes: tuple[SectionNode, ...]
    tropes: tuple[TropeRecord, ...]


def _normalize_hyperplane(coeffs: Sequence) -> tuple[int, ...]:
    """Reduce coefficients modulo the all-ones vector to a primitive integer row."""
    if len(coeffs) != NVARS:
        raise ValueError("hyperplane needs 6 coefficients")
    ints, _ = clear_denominators(coeffs)
    reduced = [NVARS * x - sum(ints) for x in ints]  # the reduction, scaled by 6·den
    if not any(reduced):
        raise GenericityError("hyperplane proportional to the ambient constraint")
    return tuple(primitive_integer_vector(reduced))


def hyperplane_section(coeffs: Sequence, tangent_at: ProjectivePoint | None = None) -> SectionModel:
    """Section of the quartic by a hyperplane inside {sum u = 0}.

    Checks the genericity conditions exactly and names every violation:
    the hyperplane must avoid the 15 line-intersection points, meet every
    double line in a single point, and be non-tangent there (each of the 15
    points must be an ordinary node of the restricted surface).  With
    `tangent_at`, that point is certified as a sixteenth node.  Each trope
    is read off the cached `cardinal_restriction` (quartic = scale·q² there):
    the plane hp = 0 in its 4 parameters, with q cut on it.  Every node lies
    on hp and on u1+...+u6 = 0 by construction, so it is incident iff it
    pairs to 0 with the cardinal row.
    """
    hp = _normalize_hyperplane(coeffs)
    for subset in three_subsets():
        card = primitive_integer_vector(cardinal_coefficients(subset))
        if hp == tuple(card):
            raise GenericityError("hyperplane is a cardinal hyperplane", subset)
    for d in duads():
        pt = duad_point(d)
        if sum(a * b for a, b in zip(hp, pt.coords)) == 0:
            raise GenericityError("hyperplane passes through a line-intersection point", d)
    section = LinearSubspace.from_equations([ONES, hp], NVARS)
    if len(section.free) != 4:
        raise AssertionError("the section chart must be 4-dimensional")
    quartic3 = cr_quartic_form().substitute_linear(section.parametrization, section.den)
    surface = Hypersurface(quartic3, LinearSubspace((), 1, quartic3.nvars))

    def section_node(s: Syntheme | None, ambient: ProjectivePoint, smooth: str, degenerate: str) -> SectionNode:
        """The point as a certified ordinary node of the section, or the
        genericity failure named by `smooth` or `degenerate`."""
        x = section.coordinates(ambient.coords)
        if x is None:
            raise AssertionError("point must lie in the section chart")
        xp = ProjectivePoint(x)
        cert = certify_ordinary_node(surface, xp)
        if isinstance(cert, SmoothPointFailure):
            raise GenericityError(smooth, s)
        if not cert.is_ordinary:
            raise GenericityError(degenerate, s)
        return SectionNode(s, ambient, xp, cert)

    nodes: list[SectionNode] = []
    for s in synthemes():
        c0, c1 = syntheme_line(s).kernel
        a0, a1 = (sum(h * x for h, x in zip(hp, c)) for c in (c0, c1))
        if a0 == 0 and a1 == 0:
            raise GenericityError("hyperplane contains a double line", s)
        ambient = ProjectivePoint([a1 * x - a0 * y for x, y in zip(c0, c1)])  # pairs to 0 with hp
        nodes.append(
            section_node(
                s,
                ambient,
                "section is smooth where a node was expected",
                "hyperplane tangent to the quartic on a double line",
            )
        )
    if len({n.chart_point for n in nodes}) != len(nodes):
        raise GenericityError("two double lines meet the hyperplane in the same point")

    if tangent_at is not None:
        nodes.append(
            section_node(
                None,
                tangent_at,
                "tangency point is not a node of the section",
                "degenerate tangency at the section point",
            )
        )

    rule = trope_incidence_model()
    tropes: list[TropeRecord] = []
    for j, subset in enumerate(rule.blocks):
        card = cardinal_restriction(subset)
        # the trope plane: hp = 0 in the cardinal 3-space's 4 parameters
        plane = LinearSubspace.from_equations([[sum(map(mul, hp, col)) for col in card.plane.kernel]], 4)
        conic = card.square_root.substitute_linear(plane.parametrization, plane.den)
        cardinal = cardinal_coefficients(subset)
        incident = []
        for node in nodes:
            xs = node.ambient.coords
            if sum(map(mul, cardinal, xs)):
                continue
            if node.syntheme is None:
                raise GenericityError("tangency point lies on a cardinal plane", subset)
            incident.append(node.syntheme)
            # the node must sit on the trope conic itself; its parameters
            # are its entries at the free columns
            if card.square_root._integer_value([xs[f] for f in card.plane.free]) != 0:
                raise AssertionError("incident node must lie on the trope conic")
        expected = {s for s, row in zip(rule.points, rule.matrix) if row[j]}
        if set(incident) != expected:
            raise GenericityError("trope incidence differs from the matching rule", subset)
        tropes.append(TropeRecord(subset, conic, tuple(sorted(incident))))

    return SectionModel(hp, quartic3, tuple(nodes), tuple(tropes))


def tangent_section(q: ProjectivePoint) -> SectionModel:
    """Section by the tangent hyperplane at a smooth rational point: 16 nodes."""
    cr = build_variety("cr")
    grad = cr.gradient_at(q.coords)
    if cr.ambient.annihilates(grad):
        raise NotOnVarietyError("point is singular on the quartic")
    return hyperplane_section(grad, tangent_at=q)


# -- finite-field scans --------------------------------------------------------


def _projective_reps(p: int, n: int):
    """Canonical representatives of P^{n-1}(F_p): first nonzero coordinate 1."""
    for k in range(n):
        for combo in itertools.product(range(p), repeat=n - 1 - k):
            v = [0] * n
            v[k] = 1
            for idx, val in enumerate(combo):
                v[k + 1 + idx] = val
            yield tuple(v)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


_SLOT_FORMATS = {16: "H", 32: "I", 64: "Q"}


@lru_cache(maxsize=8)
def _plane_packs(p: int, deg: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Q[j][k] for j + k <= deg: the integer whose w-bit slot y·p + t holds
    y^k·t^j mod p, for y and t in F_p, (deg+1)(deg+2)/2 integers of p²·w
    bits.  A plane's slots are the p blocks a·t^j mod p, a = y^k mod p, each
    packed once per j.  Keyed by ints only, so a cached table is never
    stale."""
    block = f"<{p}{_SLOT_FORMATS[width]}"
    ts = range(p)
    packs = []
    for j in range(deg + 1):
        tj = [pow(t, j, p) for t in ts]
        blocks = [struct.pack(block, *[a * v % p for v in tj]) for a in ts]
        packs.append(
            tuple(int.from_bytes(b"".join([blocks[pow(y, k, p)] for y in ts]), "little") for k in range(deg - j + 1))
        )
    return tuple(packs)


def _singular_points_fp(fp: ModPoly) -> list[tuple[int, ...]]:
    """F_p points of P^{n-1} where the form and all its partials vanish, in
    `_projective_reps` order.

    P^{n-1}(F_p) is walked one plane at a time: each representative b of
    P^{n-3} with the last two coordinates (y, t) running over F_p², then the
    line (0,...,0,1,t) and the point (0,...,0,1).  On a plane the form is
    sum_{j,k} c_jk(b)·y^k·t^j, its coefficients tabled once per prefix and
    reduced mod p.  Its values at every (y, t) are then one integer, H = sum
    c_jk·Q_jk, where Q_jk holds y^k·t^j mod p in its w-bit slot y·p + t, and
    the partials in t and y are packed from the same tables as sum (j·c_jk mod
    p)·Q_{j−1,k} and sum (k·c_jk mod p)·Q_{j,k−1}.  Each slot of the three is
    a sum of at most T terms in [0, (p−1)²], T the number of distinct (j, k)
    among the terms (at least 1), and the slot width w (16, 32 or 64 bits)
    exceeds T·(p−1)², so no slot carries into the next.  The tables, j + k up
    to the form's degree D in (y, t), are built once per (p, D, w) and kept in
    a small cache (`_plane_packs`), (D+1)(D+2)/2 integers of p²·w bits each.
    A point is a candidate exactly where its three slots are multiples of p;
    with 16-bit slots (p < 256) these are found as the zero bytes of one
    integer made by two byte tables of residues, and with wider slots by a set
    of the multiples.  Each candidate is confirmed by evaluating the form and
    every partial.  A prime whose slot bound does not fit 64 bits, or whose
    plane would hold 2^32 slots or more, is refused before any table is built.
    """
    p, n = fp.p, fp.nvars
    # each term as (t exponent, y exponent, c, its monomial in the prefix)
    split = []
    if n > 1:
        split = [(e[-1], e[-2], c, [(i, x) for i, x in enumerate(e[:-2]) if x]) for e, c in fp.terms.items()]
    pairs = sorted({(j, k) for j, k, _, _ in split})
    deg = max((j + k for j, k in pairs), default=0)
    bound = max(len(pairs), 1) * (p - 1) ** 2
    width = next((w for w in (16, 32, 64) if bound < 1 << w), None)
    if width is None or p * p >= 1 << 32:
        raise ValueError(f"bad prime: {p} is too large for planes of 64-bit slots in a degree-{deg} scan")
    partials = [fp.partial(i) for i in range(n)]

    def singular(v):
        return fp.evaluate(v) == 0 and all(g.evaluate(v) == 0 for g in partials)

    found = []
    if n > 1:
        nbytes = p * p * width // 8
        packs = _plane_packs(p, deg, width)
        pair_index = {jk: s for s, jk in enumerate(pairs)}
        terms = [(pair_index[j, k], c, mono) for j, k, c, mono in split]
        value = [packs[j][k] for j, k in pairs]
        dt = [(s, j, packs[j - 1][k]) for s, (j, k) in enumerate(pairs) if j]
        dy = [(s, k, packs[j][k - 1]) for s, (j, k) in enumerate(pairs) if k]

        if width == 16:
            # a 16-bit slot bounds (p−1)², so p < 256 and a byte's residue is a
            # byte: the slot lo + 256·hi is a multiple of p exactly where
            # lo mod p = −256·hi mod p, and `flags` has a zero byte exactly at
            # the slots where all three sums are multiples of p
            lo_res = bytes(v % p for v in range(256))
            hi_res = bytes(-v * 256 % p for v in range(256))

            def misses(total):
                raw = total.to_bytes(nbytes, "little")
                return int.from_bytes(raw[0::2].translate(lo_res), "little") ^ int.from_bytes(
                    raw[1::2].translate(hi_res), "little"
                )

            def candidates(sums, lo, hi):
                flags = (misses(sums[0]) | misses(sums[1]) | misses(sums[2])).to_bytes(p * p, "little")
                s = flags.find(0, lo, hi)
                while s >= 0:
                    yield s
                    s = flags.find(0, s + 1, hi)

        else:
            plane, zeros = f"<{p * p}{_SLOT_FORMATS[width]}", set(range(0, bound + 1, p))

            def candidates(sums, lo, hi):
                h, ts, ys = (struct.unpack(plane, x.to_bytes(nbytes, "little")) for x in sums)
                for s in itertools.compress(range(lo, hi), map(zeros.__contains__, h[lo:hi])):
                    if ts[s] % p == 0 and ys[s] % p == 0:
                        yield s

        # P^{n-3} in `_projective_reps` order with every (y, t), then the line
        # y = 1 over the zero prefix: slots p..2p−1 of its plane
        planes = [(b, 0, p * p) for b in _projective_reps(p, n - 2)] + [((0,) * (n - 2), p, 2 * p)]
        for b, lo, hi in planes:
            c = [0] * len(pairs)
            for s, a, mono in terms:
                for i, x in mono:
                    a *= b[i] ** x
                c[s] += a
            c = [a % p for a in c]
            sums = (
                sum(map(mul, c, value)),
                sum([j * c[s] % p * q for s, j, q in dt]),
                sum([k * c[s] % p * q for s, k, q in dy]),
            )
            for s in candidates(sums, lo, hi):
                if singular(point := b + divmod(s, p)):
                    found.append(point)
    last = (0,) * (n - 1) + (1,)
    if singular(last):
        found.append(last)
    return found


def bad_prime_duads(model: SectionModel, p: int) -> tuple[Duad, ...]:
    """Duads whose line-intersection point pairs with the section's hyperplane
    to a multiple of p.  The three nodes on the double lines through such a
    duad collide in reduction mod p, so an F_p scan of the section finds
    fewer than 15 singular points."""
    hp = model.hyperplane
    return tuple(
        d
        for d in duads()
        if sum(a * b for a, b in zip(hp, duad_point(d).coords)) % p == 0
    )


def _reduce_mod(form: MultiPoly, p: int) -> ModPoly:
    try:
        return form.mod_p(p)
    except ValueError as exc:
        raise ValueError(f"bad prime: {exc}") from exc


# u6 = -(u1+...+u5): the sum-zero hyperplane in the coordinates u1..u5
_SUM_ZERO_CHART = tuple(tuple(int(i == j) for j in range(NVARS - 1)) for i in range(NVARS - 1)) + (
    (-1,) * (NVARS - 1),
)


def singular_scan_fp(target, p: int) -> list[tuple[int, ...]]:
    """Exhaustive list of F_p singular points, deduplicated canonically.

    For a constrained hypersurface a point is singular when the gradient is
    proportional to the constraint direction; for a section surface in P^3
    the gradient must vanish outright.  Moduli that are not prime, primes
    below 5 and primes dividing a coefficient denominator of a section's
    quartic are rejected as bad (a hypersurface's form is stored cleared).
    """
    if not _is_prime(p):
        raise ValueError(f"bad prime: {p} is not prime")
    if p < 5:
        raise ValueError("bad prime: need p >= 5")
    if isinstance(target, Hypersurface):
        if target.ambient != SUM_ZERO:
            raise ValueError("scan supports the sum-zero ambient constraint")
        # g(u) = f(u, -sum u) has dg/du_i = d_i f - d_6 f, so g and its
        # gradient vanish exactly where f = 0 and the gradient of f is
        # parallel to (1,...,1)
        g = _reduce_mod(target.form.substitute_linear(_SUM_ZERO_CHART), p)
        return [v + ((-sum(v)) % p,) for v in _singular_points_fp(g)]
    if isinstance(target, SectionModel):
        return _singular_points_fp(_reduce_mod(target.quartic3, p))
    raise TypeError("scan target must be a Hypersurface or SectionModel")


# -- rational point sampling ------------------------------------------------------


def plane_point(s: Syntheme, params: Sequence) -> list[int]:
    """Point of the cubic's plane for syntheme s with the given 3 parameters,
    as the integer vector Σ x_k·col_k: with params = x/q and the kernel
    columns col_k over den, that is the plane point scaled by q·den."""
    plane = syntheme_plane(s)
    _check_length(params, len(plane.kernel), "parameter vector")
    x, _ = clear_denominators(params)
    return [sum(a * col[i] for a, col in zip(x, plane.kernel)) for i in range(NVARS)]


def _chord_cubic(form: MultiPoly, pa: Sequence[int], pb: Sequence[int]) -> tuple[int, int, int, int]:
    """Coefficients (c30, c21, c12, c03) of the binary cubic form(α·pa + β·pb),
    read off four values: form(pa) = c30, form(pb) = c03 and
    form(pa ± pb) = c30 ± c21 + c12 ± c03.  Each value is read by
    `_integer_value`, den times the form's value; on integer endpoints every
    value and coefficient is an integer, and both halvings are exact."""
    c30, c03, plus, minus = (
        form._integer_value(v)
        for v in (pa, pb, [a + b for a, b in zip(pa, pb)], [a - b for a, b in zip(pa, pb)])
    )
    return c30, (plus - minus) // 2 - c03, (plus + minus) // 2 - c30, c03


def sample_smooth_cubic_point(
    rng: random.Random, max_height: int = 50, avoid_planes: bool = False
) -> ProjectivePoint:
    """Seeded chord construction: the third intersection of a line through
    two random plane points is a rational point of the cubic.

    Retries with growing coefficient height until the point is smooth (and,
    if requested, off all 15 planes); the plane parameters start at height
    min(3, max_height) and never exceed `max_height`, which must be at least 1,
    and at least 2 with `avoid_planes`: at height 1 every smooth third point
    of a chord lies on one of the 15 planes.
    The chord runs on the integer plane points and the binary cubic along it
    is read off four values of the form; the smoothness and plane tests are
    projective, so they run on the integer third point (the gradient as the
    integer values of the partials of the cleared form), and the one
    `ProjectivePoint` is built for the point returned.
    """
    if max_height < 1:
        raise ValueError(f"max_height must be at least 1, not {max_height}")
    if avoid_planes and max_height < 2:
        raise ValueError(
            f"max_height must be at least 2 to avoid the syntheme planes, not {max_height}: "
            "at height 1 every smooth third point of a chord lies on one of them"
        )
    segre = build_variety("segre")
    all_synthemes = synthemes()
    planes = [syntheme_plane(s) for s in all_synthemes]
    height = min(3, max_height)
    for attempt in range(400):
        if attempt and attempt % 40 == 0:
            height = min(height + 4, max_height)
        s1, s2 = rng.sample(all_synthemes, 2)
        pa = plane_point(s1, [rng.randint(-height, height) for _ in range(3)])
        pb = plane_point(s2, [rng.randint(-height, height) for _ in range(3)])
        if not any(pa) or not any(pb):
            continue
        c30, c21, c12, c03 = _chord_cubic(segre.form, pa, pb)
        if c30 or c03:
            continue  # endpoints not on the cubic: degenerate sample
        if c21 == 0:
            continue
        coords = [a * c12 - b * c21 for a, b in zip(pa, pb)]
        if not any(coords):
            continue
        grad = [g._integer_value(coords) for g in segre.gradient]
        if segre.ambient.annihilates(grad):
            continue  # singular (a node)
        if avoid_planes and any(pl.contains(coords) for pl in planes):
            continue
        return ProjectivePoint(coords)
    raise RuntimeError("failed to sample a smooth rational point of the cubic")


def sample_tangent_section(rng: random.Random, max_height: int = 50) -> SectionModel:
    """Seeded search for a smooth quartic point whose tangent section certifies."""
    lines = [syntheme_line(s) for s in synthemes()]
    for _ in range(60):
        z = sample_smooth_cubic_point(rng, max_height, avoid_planes=True)
        image = duality_image(z)
        y = image.point
        if any(l.contains(y.coords) for l in lines):
            continue
        try:
            return tangent_section(y)
        except (GenericityError, NotOnVarietyError):
            continue
    raise RuntimeError("failed to find a certifying tangent section")
