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
from typing import NamedTuple, Sequence

from .configs import (
    S6_GENERATORS,
    Duad,
    Syntheme,
    duads,
    synthemes,
    three_subsets,
    trope_incidence_model,
)
from .exact import (
    ModPoly,
    MonomialTable,
    MultiPoly,
    partials_table,
    perfect_square_factor,
    primitive_integer_vector,
    table_values,
)
from .lattice import _check_length, _laplace_det, bareiss, clear_denominators, minor_rank

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
    substituting `parametrization` over `den` (`Hypersurface.chart`).  The
    rows and den are divided by their common gcd, so each subspace has one
    representation and equality of records is equality of subspaces.
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

    def __eq__(self, other):
        return (
            isinstance(other, LinearSubspace)
            and (self.rows, self.den, self.nvars) == (other.rows, other.den, other.nvars)
        )

    def __hash__(self):
        return hash((self.rows, self.den, self.nvars))

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
    unconstrained form).  `chart` is the form restricted to the ambient,
    g(x) = f(parametrization·x/den) in the ambient's n free coordinates (f
    itself without equations): at a point xs of the ambient, x = xs at the
    free columns and g(x) = f(xs).  It is the one chart the module reads a
    hypersurface in: node certificates, the section quartic, the tangent
    hyperplane and the F_p scans (which list chart points) read g, and the
    double lines its partials, which by the chain rule are the six partials
    `gradient` (built on first use, also for the sampler) paired with the
    kernel columns.  For the node certificates only the n(n+1)/2 second
    partials d_i d_j g, i <= j, of the cleared g are held, once built, as
    one `monomial_table` read straight off the chart's numerators
    (`partials_table`, no partial formed as a polynomial): `node_reading`
    reads the Hessian H at a point off it and, by Euler's identity, the
    value and the gradient of g from H, as x·H·x and H·x.
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
    def chart(self) -> MultiPoly:
        """The form restricted to the ambient, in its free coordinates, over
        the denominator the substitution leaves."""
        if not self.ambient.rows:
            return self.form
        return self.form.substitute_linear(self.ambient.parametrization, self.ambient.den)

    @cached_property
    def _second_partials(self) -> MonomialTable:
        """The `monomial_table` of d_i d_j g of the cleared chart g, i <= j,
        row by row; formed once."""
        return partials_table(self.chart, 2)

    def hessian_at(self, xs: Sequence[int]) -> list[list[int]]:
        """The Hessian of the cleared chart at the integer chart point xs,
        in any degree: the `table_values` of the second partials, each
        monomial of their common table valued once."""
        n = len(xs)
        entries = iter(table_values(self._second_partials, xs))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(entries)
        return rows

    def node_reading(self, point: Sequence) -> tuple[list[int], list[list[int]], list[int]]:
        """(x, H, H·x): the chart point x of the cleared point (the integer
        vector xs of the point xs/q, where a form of degree k takes q^k
        times its value at xs/q), the chart Hessian H there, and H·x,
        refusing a point off the ambient constraints or off the form.  For
        the cleared chart g of degree d, Euler's identity gives
        H·x = (d−1)·∇g(x) and x·H·x = d(d−1)·g(x) in integers, so with
        d >= 2 the point is on the form exactly when x·H·x = 0; a nonzero
        chart of lower degree, the one kind whose second partials all
        vanish, is refused."""
        _, rows = self._second_partials
        if self.chart and not any(map(any, rows)):
            raise ValueError("a node reading needs a form of degree at least 2")
        _check_length(point, self.form.nvars, "point")
        xs = clear_denominators(point)[0]
        if not self.ambient.contains(xs):
            raise NotOnVarietyError("point violates the ambient constraints")
        x = [xs[f] for f in self.ambient.free]
        hess = self.hessian_at(x)
        hx = [sum(map(mul, row, x)) for row in hess]
        if sum(map(mul, hx, x)):
            raise NotOnVarietyError("point is not on the variety")
        return x, hess, hx

    def is_s6_invariant(self) -> bool:
        """Exact invariance of the form under all 720 coordinate permutations,
        tested on the five adjacent transpositions `S6_GENERATORS`, which
        generate S6."""
        return all(self.form.permute_variables([i - 1 for i in g]) == self.form for g in S6_GENERATORS)


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


@lru_cache(maxsize=None)
def cardinal_coefficients(subset: tuple[int, ...]) -> tuple[int, ...]:
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


@lru_cache(maxsize=None)
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


def derive_node_point(subset: Sequence[int]) -> ProjectivePoint:
    """Independent derivation: intersect the six syntheme planes that the
    trope incidence model puts on the block of the 3-subset."""
    model = trope_incidence_model()
    j = model.blocks.index(tuple(subset))
    rows = [eq for s, row in zip(model.points, model.matrix) if row[j] for eq in syntheme_plane(s).rows]
    meet = LinearSubspace.from_equations(rows, NVARS)
    if len(meet.kernel) != 1:
        raise AssertionError("six planes through a node must meet in one point")
    return ProjectivePoint(meet.kernel[0])


# -- node certification ---------------------------------------------------------


class SmoothPointFailure:
    """Typed failure: the point lies on the variety but is smooth there."""


class NodeCertificate(NamedTuple):
    hessian_rank: int
    is_ordinary: bool


def certify_ordinary_node(v: Hypersurface, p: ProjectivePoint) -> NodeCertificate | SmoothPointFailure:
    """Exact ordinary-node certificate at p, or a typed smooth-point failure.

    The chart Hessian H is read at p's chart point x off the table of the
    second partials of the cleared chart g that `v` builds once.
    For g of degree d, Euler's identity gives H·x = (d−1)·∇g(x) and
    x·H·x = d(d−1)·g(x), both exact in integers: the reading refuses p off
    the form when x·H·x ≠ 0, and p is singular exactly when H·x = 0.  By
    the chain rule the chart gradient is the form's gradient paired with the
    kernel columns over den.  The Hessian is taken without the coordinate of
    the last nonzero entry of x: at a singular point H·x = 0, so the rank is
    kept, and the coordinates left are a chart of the ambient projective
    space at p.
    The rank is computed twice, by fraction-free (Bareiss) elimination and
    by its minors (`minor_rank`, Laplace expansion with no elimination),
    and the two must agree.  Ordinary means full rank, i.e. rank equal to
    the dimension of the ambient projective space.
    """
    x, hess, hx = v.node_reading(p.coords)
    if any(hx):
        return SmoothPointFailure()
    last = max(k for k, c in enumerate(x) if c)
    chart_hess = [row[:last] + row[last + 1 :] for k, row in enumerate(hess) if k != last]
    r1 = len(bareiss(chart_hess)[1])
    if r1 != minor_rank(chart_hess):
        raise AssertionError("rank cross-check failed")
    expected = len(chart_hess)  # = projective dimension of the ambient space
    return NodeCertificate(hessian_rank=r1, is_ordinary=(r1 == expected))


def verify_double_line(v: Hypersurface, line: LinearSubspace) -> bool:
    """True iff the form and the chart gradient vanish identically on the line.

    By the chain rule the chart partials are the six partials paired with
    the ambient's kernel columns, so each pairing, restricted to the line,
    must be the zero polynomial; this holds for any number of ambient
    equations.
    """
    if not all(v.ambient.contains(col) for col in line.kernel):
        raise ValueError("line does not lie inside the ambient constraints")
    if v.form.substitute_linear(line.parametrization, line.den):
        return False
    partials = [g.substitute_linear(line.parametrization, line.den) for g in v.gradient]
    zero = MultiPoly.zero(len(line.free))
    return not any(sum((g * c for g, c in zip(partials, col) if c), zero) for col in v.ambient.kernel)


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
    """The quartic on a cardinal 3-plane, c·q², with what a section reads of
    q: its constant Hessian H and the adjugate adj(H), both symmetric.  The
    conic q on a trope plane r·t = 0 (r ≠ 0) has rank rank [[H, r], [rᵀ, 0]] − 2,
    and det [[H, r], [rᵀ, 0]] = −rᵀ·adj(H)·r, so the rank is 3 wherever
    rᵀ·adj(H)·r ≠ 0."""

    square_root: MultiPoly  # conic q with restriction = c·q² for a constant c
    plane: LinearSubspace  # the cardinal 3-plane, parametrized over its den
    hessian: tuple[tuple[int, ...], ...]  # H of q
    adjugate: tuple[tuple[int, ...], ...]  # adj(H), its cofactors by Laplace expansion


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
    q = result[1]
    hessian = Hypersurface(q, LinearSubspace((), 1, 4)).hessian_at([0] * 4)
    # adj(H)[i][j] is (−1)^(i+j) times the minor of H without row j and column i
    rest = [[c for c in range(4) if c != k] for k in range(4)]
    adjugate = tuple(
        tuple((-1) ** (i + j) * _laplace_det([hessian[k] for k in rest[j]], rest[i]) for j in range(4))
        for i in range(4)
    )
    return CardinalRestriction(q, plane, tuple(map(tuple, hessian)), adjugate)


# -- hyperplane sections -----------------------------------------------------------


class TropeRecord(NamedTuple):
    subset: tuple[int, int, int]
    conic_rank: int  # of q on the trope plane {r·t = 0}: 3, or the rank of the bordered Hessian minus 2
    incident_nodes: tuple[Syntheme, ...]


class SectionNode(NamedTuple):
    syntheme: Syntheme | None  # None for the tangency node of a tangent section
    ambient: ProjectivePoint  # 6-coordinate representative
    chart_point: ProjectivePoint  # 4-coordinate representative in the section chart
    certificate: NodeCertificate


class SectionModel(NamedTuple):
    """A hyperplane section of the quartic as a nodal surface in P^3: its
    `chart` is the `Hypersurface.chart` of the quartic on the section, so
    `singular_scan_fp` reads it as it reads a hypersurface's."""

    hyperplane: tuple[int, ...]  # primitive integer coefficients, sum zero
    chart: MultiPoly  # the restricted quartic in the 4 chart variables
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
    the hyperplane must not be cardinal, must avoid the 15 line-intersection
    points, and must be non-tangent where it meets each double line (each of
    the 15 points must be an ordinary node of the restricted surface).  With
    `tangent_at`, that point is certified as a sixteenth node.  The nodes are
    certified on the quartic with the section as its ambient, from their
    6-coordinate points; a node's chart point is its entries at the free
    columns, and the model's `chart` is that hypersurface's `chart`.  Each
    trope is read off the cached `cardinal_restriction` (quartic = c·q²
    there): its plane is {r·t = 0}, r the pairings of hp with the kernel
    columns, and q cut on it has rank rank [[H, r], [rᵀ, 0]] − 2, H the
    Hessian of q, since r ≠ 0 (r = 0 makes hp, of sum 0, a multiple of the
    cardinal row, which is refused).  That rank is 3 when the bordered
    determinant −rᵀ·adj(H)·r is nonzero, read off the record's adjugate;
    only a split conic, where it is 0, runs the Bareiss rank of the bordered
    5 × 5 matrix.  Every node lies on hp and on
    u1+...+u6 = 0, so it is incident iff it pairs to 0 with the cardinal row.

    A cardinal row is compared with hp as it stands: it has coordinate sum
    0, and each `three_subsets()` representative contains 1, so its ±1 row
    has gcd 1 and first entry +1.  It is therefore already the primitive row
    with a positive first entry that `_normalize_hyperplane` returns.

    Once the line-intersection points are avoided nothing else can fail on
    the lines: each syntheme line holds the duad points of its three duads
    (so no line lies in hp), two lines meet only at their shared duad point
    (so the 15 nodes are distinct), and a line meets a cardinal hyperplane
    not containing it only at a duad point (so a node is on a cardinal
    plane iff its line is, as `section-incidence` checks against the rule).

    The section chart always has 4 free columns: `_normalize_hyperplane`
    returns a nonzero hp with coordinate sum 0, which is never a multiple of
    ONES (whose sum is 6), so the rows ONES and hp have rank 2.
    """
    hp = _normalize_hyperplane(coeffs)
    for subset in three_subsets():
        if hp == cardinal_coefficients(subset):
            raise GenericityError("hyperplane is a cardinal hyperplane", subset)
    for d in duads():
        pt = duad_point(d)
        if sum(a * b for a, b in zip(hp, pt.coords)) == 0:
            raise GenericityError("hyperplane passes through a line-intersection point", d)
    section = LinearSubspace.from_equations([ONES, hp], NVARS)
    surface = Hypersurface(cr_quartic_form(), section)

    def section_node(s: Syntheme | None, ambient: ProjectivePoint, smooth: str, degenerate: str) -> SectionNode:
        """The point as a certified ordinary node of the section, or the
        genericity failure named by `smooth` or `degenerate`."""
        cert = certify_ordinary_node(surface, ambient)
        if isinstance(cert, SmoothPointFailure):
            raise GenericityError(smooth, s)
        if not cert.is_ordinary:
            raise GenericityError(degenerate, s)
        return SectionNode(s, ambient, ProjectivePoint([ambient.coords[f] for f in section.free]), cert)

    nodes: list[SectionNode] = []
    for s in synthemes():
        c0, c1 = syntheme_line(s).kernel
        a0, a1 = (sum(h * x for h, x in zip(hp, c)) for c in (c0, c1))
        ambient = ProjectivePoint([a1 * x - a0 * y for x, y in zip(c0, c1)])  # pairs to 0 with hp
        nodes.append(
            section_node(
                s,
                ambient,
                "section is smooth where a node was expected",
                "hyperplane tangent to the quartic on a double line",
            )
        )

    if tangent_at is not None:
        nodes.append(
            section_node(
                None,
                tangent_at,
                "tangency point is not a node of the section",
                "degenerate tangency at the section point",
            )
        )

    tropes: list[TropeRecord] = []
    for subset in trope_incidence_model().blocks:
        card = cardinal_restriction(subset)
        r = [sum(map(mul, hp, col)) for col in card.plane.kernel]  # the trope plane is r·t = 0
        if sum(map(mul, r, (sum(map(mul, row, r)) for row in card.adjugate))):  # −det [[H, r], [rᵀ, 0]]
            conic_rank = 3
        else:
            conic_rank = len(bareiss([[*row, x] for row, x in zip(card.hessian, r)] + [[*r, 0]])[1]) - 2
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
        tropes.append(TropeRecord(subset, conic_rank, tuple(sorted(incident))))

    return SectionModel(hp, surface.chart, tuple(nodes), tuple(tropes))


def tangent_section(q: ProjectivePoint) -> SectionModel:
    """Section by the tangent hyperplane at a smooth rational point: 16 nodes.

    The gradient is H·x from the node reading that refuses a point off the
    quartic: by Euler's identity it is 3 times the chart gradient at q.
    Placed at the free columns (zero at the pivot), it is a positive
    multiple of the tangent hyperplane plus a multiple of the constraint
    row, which the section's normalisation removes."""
    cr = build_variety("cr")
    grad = cr.node_reading(q.coords)[2]
    if not any(grad):
        raise NotOnVarietyError("point is singular on the quartic")
    row = [0] * NVARS
    for f, g in zip(cr.ambient.free, grad):
        row[f] = g
    return hyperplane_section(row, tangent_at=q)


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


def reduce_point(coords: Sequence[int], p: int) -> tuple[int, ...]:
    """The F_p point of a primitive integer vector, its first nonzero entry
    scaled to 1, the form in which `_projective_reps` lists it."""
    lead = pow(next(x for x in coords if x % p), -1, p)
    return tuple(x * lead % p for x in coords)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


_SLOT_FORMATS = {16: "H", 32: "I"}


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


@lru_cache(maxsize=8)
def _byte_residues(p: int) -> tuple[bytes, ...]:
    """Byte tables v → v, 256·v and −256·v mod p (p < 256) for the 16-bit slots."""
    return tuple(bytes([v * m % p for v in range(256)]) for m in (1, 256, -256))


def _slot_reducer(p: int, width: int, count: int):
    """The map that reduces every w-bit slot of an integer of `count` slots
    mod p, each slot to its residue in [0, p).  With 16-bit slots and
    p < 128 a slot lo + 256·hi is read off two byte tables: the residues of
    lo and of 256·hi sum below 2p <= 255, so the two byte strings add with
    no carry and one more table gives the residue.  Any other width or prime
    unpacks the slots, reduces them and packs them again."""
    nbytes = count * width // 8
    if width == 16 and p < 128:
        low, high, _ = _byte_residues(p)

        def byte_residues(x):
            raw = x.to_bytes(nbytes, "little")
            total = int.from_bytes(raw[0::2].translate(low), "little") + int.from_bytes(
                raw[1::2].translate(high), "little"
            )
            slots = bytearray(nbytes)
            slots[0::2] = total.to_bytes(count, "little").translate(low)
            return int.from_bytes(slots, "little")

        return byte_residues
    layout = f"<{count}{_SLOT_FORMATS[width]}"

    def slot_residues(x):
        residues = [v % p for v in struct.unpack(layout, x.to_bytes(nbytes, "little"))]
        return int.from_bytes(struct.pack(layout, *residues), "little")

    return slot_residues


def _singular_points_fp(fp: ModPoly) -> list[tuple[int, ...]]:
    """F_p points of P^{n-1} where the form and all its partials vanish, in
    `_projective_reps` order.

    P^{n-1}(F_p) is walked one plane at a time, the planes one line at a
    time.  A plane fixes the prefix b of the first n−2 coordinates and runs
    the last two (y, t) over F_p²; a line fixes the head h of b (all but its
    last coordinate x) and runs x over F_p.  The lines are each
    representative h of P^{n-4} with every x, then the zero head with its
    plane x = 1 and the line (0,...,0,1,t) of its plane x = 0, then the
    point (0,...,0,1).  On a line the form is
    sum_{e,j,k} c_ejk(h)·x^e·y^k·t^j, its coefficients tabled once per line
    and reduced mod p.  For each power e of x three integers are packed
    from the same tables: P_e = sum_jk c_ejk·Q_jk, where Q_jk holds
    y^k·t^j mod p in its w-bit slot y·p + t, and the partials in t and y,
    sum (j·c_ejk mod p)·Q_{j−1,k} and sum (k·c_ejk mod p)·Q_{j,k−1}, each
    then reduced mod p slot by slot (`_slot_reducer`).  A plane's values at
    every (y, t) are sum_e (x^e mod p)·P_e, and its partials the same sums
    of the other two, at most N products each, N the number of distinct e.
    A slot of a packed table is a sum of at most T terms in [0, (p−1)²], T
    the number of distinct (j, k) among the terms, and a slot of a plane a
    sum of at most N such terms, so a slot width w (16 or 32 bits) above
    max(T, N)·(p−1)² (T and N at least 1) carries into no other slot.  On
    the zero head only terms free of the head survive, so each (j, k) has
    the one power e = D − j − k of a form of degree D, and x is 0 or 1: a
    plane there is a sum of at most T terms with no reduction.  So the scan
    takes forms only and refuses any other polynomial.  The tables Q_jk,
    j + k up to the form's degree D' in (y, t), are built once per
    (p, D', w) and kept in a small cache (`_plane_packs`), (D'+1)(D'+2)/2
    integers of p²·w bits each; a line's tables are 3N such integers,
    dropped after the line.  A point is a candidate exactly where its three
    slots are multiples of p; with 16-bit slots (p < 256) these are found as
    the zero bytes of one integer made by two byte tables of residues, and
    with 32-bit slots by a set of the multiples.
    Each candidate is confirmed by every partial, read together mod p off
    the `partials_table` of `fp.poly`: a form f of degree d has
    d·f = sum x_i·d_i f (Euler), so f vanishes where its partials do when p
    does not divide d, and a form of a degree p divides is refused.  These
    refusals, and that of a prime whose slot bound does not fit 32 bits
    (that bound is at least (p−1)², so a plane's p² slots number fewer than
    2^32), come before any table is built.
    """
    p, n = fp.p, fp.nvars
    degrees = {sum(e) for e in fp.terms}
    if len(degrees) > 1:
        raise ValueError("not a form: its terms have different degrees")
    if any(d % p == 0 for d in degrees):
        raise ValueError(f"bad prime: {p} divides the degree of the form")
    # each term as (x exponent, t exponent, y exponent, c, its monomial in the head)
    split = []
    if n > 1:
        split = [
            (e[-3] if n > 2 else 0, e[-1], e[-2], c, [(i, x) for i, x in enumerate(e[:-3]) if x])
            for e, c in fp.terms.items()
        ]
    pairs = {(j, k) for _, j, k, _, _ in split}
    powers = sorted({e for e, _, _, _, _ in split})
    deg = max((j + k for j, k in pairs), default=0)
    bound = max(len(pairs), len(powers), 1) * (p - 1) ** 2
    if bound >= 1 << 32:
        raise ValueError(f"bad prime: {p} is too large for planes of 32-bit slots in a degree-{deg} scan")
    width = 16 if bound < 1 << 16 else 32
    gradient = partials_table(fp.poly, 1)

    def singular(v):
        return not any(g % p for g in table_values(gradient, v))

    found = []
    if n > 1:
        nbytes = p * p * width // 8
        packs = _plane_packs(p, deg, width)
        reduce = _slot_reducer(p, width, p * p)
        keys = sorted({(e, j, k) for e, j, k, _, _ in split})
        key_index = {key: s for s, key in enumerate(keys)}
        terms = [(key_index[e, j, k], c, mono) for e, j, k, c, mono in split]
        # per power of x, the slots of its coefficients with their tables
        rows = [list(row) for _, row in itertools.groupby(enumerate(keys), lambda key: key[1][0])]
        value = [[(s, packs[j][k]) for s, (_, j, k) in row] for row in rows]
        dt = [[(s, j, packs[j - 1][k]) for s, (_, j, k) in row if j] for row in rows]
        dy = [[(s, k, packs[j][k - 1]) for s, (_, j, k) in row if k] for row in rows]
        weights = [[pow(x, e, p) for e in powers] for x in range(p)]

        if width == 16:
            # a 16-bit slot bounds (p−1)², so p < 256 and a byte's residue is a
            # byte: the slot lo + 256·hi is a multiple of p exactly where
            # lo mod p = −256·hi mod p, and `flags` has a zero byte exactly at
            # the slots where all three sums are multiples of p
            lo_res, _, hi_res = _byte_residues(p)

            def misses(total):
                raw = total.to_bytes(nbytes, "little")
                return int.from_bytes(raw[0::2].translate(lo_res), "little") ^ int.from_bytes(
                    raw[1::2].translate(hi_res), "little"
                )

            def byte_candidates(sums, lo, hi):
                flags = (misses(sums[0]) | misses(sums[1]) | misses(sums[2])).to_bytes(p * p, "little")
                s = flags.find(0, lo, hi)
                while s >= 0:
                    yield s
                    s = flags.find(0, s + 1, hi)

        else:
            plane, zeros = f"<{p * p}{_SLOT_FORMATS[width]}", set(range(0, bound + 1, p))

            def slot_candidates(sums, lo, hi):
                h, ts, ys = (struct.unpack(plane, x.to_bytes(nbytes, "little")) for x in sums)
                for s in itertools.compress(range(lo, hi), map(zeros.__contains__, h[lo:hi])):
                    if ts[s] % p == 0 and ys[s] % p == 0:
                        yield s

        candidates = byte_candidates if width == 16 else slot_candidates
        # each head h of P^{n-4} with every x, then the zero head with its
        # plane x = 1 (for n > 2) and its line y = 1 at x = 0, slots p..2p−1;
        # a plane as (x, its prefix, its slots lo..hi−1)
        lines = [(h, [(x, (*h, x), 0, p * p) for x in range(p)]) for h in _projective_reps(p, n - 3)]
        zero = (0,) * (n - 3)
        zero_planes = [(1, (*zero, 1), 0, p * p)] if n > 2 else []
        lines.append((zero, zero_planes + [(0, (0,) * (n - 2), p, 2 * p)]))
        for h, planes in lines:
            c = [0] * len(keys)
            for s, a, mono in terms:
                for i, x in mono:
                    a *= h[i] ** x
                c[s] += a
            c = [a % p for a in c]
            packed = (
                [sum([c[s] * q for s, q in row]) for row in value],
                [sum([j * c[s] % p * q for s, j, q in row]) for row in dt],
                [sum([k * c[s] % p * q for s, k, q in row]) for row in dy],
            )
            # on the zero head each (j, k) has one power of x and x is 0 or 1
            tables = [[reduce(t) if t else 0 for t in row] for row in packed] if any(h) else packed
            for x, b, lo, hi in planes:
                w = weights[x]
                sums = [sum(map(mul, w, table)) for table in tables]
                for s in candidates(sums, lo, hi):
                    if singular(point := b + divmod(s, p)):
                        found.append(point)
    last = (0,) * (n - 1) + (1,)
    if singular(last):
        found.append(last)
    return found


def bad_prime_duads(model: SectionModel, p: int) -> tuple[Duad, ...]:
    """Duads whose line-intersection point pairs with the section's hyperplane
    to a multiple of p: the three nodes on such a duad's double lines collide
    mod p, so the 15 nodes reduce to fewer than 15 F_p points."""
    return tuple(d for d in duads() if sum(map(mul, model.hyperplane, duad_point(d).coords)) % p == 0)


def good_primes(model: SectionModel):
    """The primes p >= 5 in increasing order at which the section has no bad duad and its chart reduces."""
    return (p for p in itertools.count(5) if _is_prime(p) and model.chart.den % p and not bad_prime_duads(model, p))


def check_scan_prime(p: int) -> int:
    """p, if the F_p scans take it whatever they scan: a prime from 5 to 1021
    (a scan's cost grows like p³).  Otherwise raises ValueError naming the reason."""
    if p >= 1 << 10:
        raise ValueError("bad prime: need p < 1024")
    if not _is_prime(p):
        raise ValueError(f"bad prime: {p} is not prime")
    if p < 5:
        raise ValueError("bad prime: need p >= 5")
    return p


def singular_scan_fp(target, p: int) -> list[tuple[int, ...]]:
    """Exhaustive list of the F_p singular points of `target.chart`, in
    chart coordinates, deduplicated canonically (first nonzero entry 1) and
    in `_projective_reps` order.  Any `Hypersurface` is scanned on its
    chart, whose gradient vanishes exactly where the form's partials lie in
    the span of the ambient's equations (parallel to (1,...,1) on
    u1+...+u6 = 0); a `SectionModel` on its quartic in P^3.  Moduli that
    `check_scan_prime` refuses, and primes dividing a coefficient
    denominator of the chart, are rejected as bad.
    """
    p = check_scan_prime(p)
    try:
        fp = target.chart.mod_p(p)
    except ValueError as exc:  # p divides the chart's denominator
        raise ValueError(f"bad prime: {exc}") from exc
    return _singular_points_fp(fp)


# -- rational point sampling ------------------------------------------------------


def plane_point(s: Syntheme, params: Sequence) -> list[int]:
    """Point of the cubic's plane for syntheme s with the given 3 parameters,
    as the integer vector Σ x_k·col_k: with params = x/q and the kernel
    columns col_k over den, that is the plane point scaled by q·den.  Each
    coordinate is x against one cached row of the plane's parametrization."""
    plane = syntheme_plane(s)
    _check_length(params, len(plane.kernel), "parameter vector")
    x0, x1, x2 = clear_denominators(params)[0]
    return [x0 * a + x1 * b + x2 * c for a, b, c in plane.parametrization]


def sample_smooth_cubic_point(rng: random.Random, avoid_planes: bool = False) -> ProjectivePoint:
    """Seeded chord construction: the third intersection of a line through
    two random plane points is a rational point of the cubic.

    Retries with growing coefficient height until the point is smooth (and,
    if requested, off all 15 planes): attempt k of at most 400 draws its
    plane parameters from [−h, h] with h = 3 + 4·(k // 40), so the height
    runs 3, 7, …, 39.
    The chord runs on the integer plane points.  Both ends lie on syntheme
    planes, which lie on the cubic, so the binary cubic c21·α²β + c12·αβ²
    along it is read off two values of the form, plus = c21 + c12 at
    pa + pb and minus = c12 − c21 at pa − pb, and the third point
    c12·pa − c21·pb is taken as (plus + minus)·pa − (plus − minus)·pb,
    refused when c21 = 0; the smoothness and plane tests are
    projective, so they run on the integer third point (the gradient as the
    integer values of the partials of the cleared form), and the one
    `ProjectivePoint` is built for the point returned.
    """
    segre = build_variety("segre")
    all_synthemes = synthemes()
    planes = [syntheme_plane(s) for s in all_synthemes] if avoid_planes else ()
    for attempt in range(400):
        height = 3 + 4 * (attempt // 40)
        s1, s2 = rng.sample(all_synthemes, 2)
        pa = plane_point(s1, [rng.randint(-height, height) for _ in range(3)])
        pb = plane_point(s2, [rng.randint(-height, height) for _ in range(3)])
        if not any(pa) or not any(pb):
            continue
        plus = segre.form._integer_value([a + b for a, b in zip(pa, pb)])
        minus = segre.form._integer_value([a - b for a, b in zip(pa, pb)])
        if plus == minus:
            continue  # c21 = 0
        coords = [(plus + minus) * a - (plus - minus) * b for a, b in zip(pa, pb)]
        if not any(coords):
            continue
        grad = [g._integer_value(coords) for g in segre.gradient]
        if segre.ambient.annihilates(grad):
            continue  # singular (a node)
        if avoid_planes and any(pl.contains(coords) for pl in planes):
            continue
        return ProjectivePoint(coords)
    raise RuntimeError("failed to sample a smooth rational point of the cubic")


def sample_tangent_section(rng: random.Random) -> SectionModel:
    """Seeded search for a smooth quartic point whose tangent section certifies."""
    lines = [syntheme_line(s) for s in synthemes()]
    for _ in range(60):
        z = sample_smooth_cubic_point(rng, avoid_planes=True)
        image = duality_image(z)
        y = image.point
        if any(l.contains(y.coords) for l in lines):
            continue
        try:
            return tangent_section(y)
        except (GenericityError, NotOnVarietyError):
            continue
    raise RuntimeError("failed to find a certifying tangent section")
