import hashlib
import io
import itertools
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracle import fraction_kernel, fraction_rref, fraction_solve, rationals, value
from dense_oracle import mat_mul as dense_mat_mul
from quartic15 import cli
from quartic15.configs import duads, synthemes, three_subsets
from quartic15.exact import MultiPoly, monomial_table, partials_table, perfect_square_factor
from quartic15.lattice import bareiss, clear_denominators, det_bareiss, mat_mul
from quartic15 import varieties
from quartic15.varieties import (
    ONES,
    Hypersurface,
    LinearSubspace,
    _projective_reps,
    GenericityError,
    NotOnVarietyError,
    bad_prime_duads,
    ProjectivePoint,
    SmoothPointFailure,
    build_variety,
    cardinal_coefficients,
    cardinal_restriction,
    certify_ordinary_node,
    cr_quartic_form,
    derive_duad_point,
    duad_point,
    node_point,
    duality_image,
    duality_plane_to_line,
    hyperplane_section,
    sample_smooth_cubic_point,
    sample_tangent_section,
    segre_form,
    good_primes,
    singular_scan_fp,
    cardinal_tangency_quadric,
    syntheme_line,
    syntheme_plane,
    tangent_section,
    verify_double_line,
)

REFERENCE_COEFFS = (1, 2, 3, 5, 7, 11)


def fraction_parametrization(space):
    """The subspace's parametrization rows over den, as Fractions."""
    return tuple(tuple(Fraction(a, space.den) for a in row) for row in space.parametrization)


def param_point(space, x):
    """The point of a subspace with parameters x: parametrization·x over den."""
    return [sum(a * b for a, b in zip(row, x)) for row in fraction_parametrization(space)]


def coefficient(f, exp):
    """The coefficient of a monomial, as a Fraction."""
    return Fraction(f.nums.get(exp, 0), f.den)


def reduced_rows(space):
    """The subspace's RREF rows as Fractions: the same for every scaling by den."""
    return frozenset(tuple(Fraction(a, space.den) for a in row) for row in space.rows)


@pytest.fixture(scope="module")
def segre():
    return build_variety("segre")


@pytest.fixture(scope="module")
def cr():
    return build_variety("cr")


@pytest.fixture(scope="module")
def reference_section():
    return hyperplane_section(REFERENCE_COEFFS)


def test_build_variety_points(segre, cr):
    p = ProjectivePoint([1, 1, 1, -1, -1, -1])
    assert segre.form._integer_value(p.coords) == 0 and segre.ambient.contains(p.coords)
    q = ProjectivePoint([2, 2, -1, -1, -1, -1])
    assert cr.form._integer_value(q.coords) == 0 and cr.ambient.contains(q.coords)


_nonzero_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9) | _nonzero_rationals, min_size=1, max_size=6).filter(any),
    _nonzero_rationals,
)
def test_projective_point_normalisation(coords, c):
    point = ProjectivePoint(coords)
    xs = point.coords
    # the canonical form: a primitive integer vector, first nonzero entry positive
    assert all(type(x) is int for x in xs) and math.gcd(*xs) == 1
    assert next(x for x in xs if x) > 0
    # a point is its own for every nonzero rational multiple, negative ones too
    assert ProjectivePoint([c * x for x in coords]) == point
    assert hash(ProjectivePoint([c * x for x in coords])) == hash(point)
    # the Fraction rule Fraction(x) / lead names the same point
    fr = [Fraction(x) for x in coords]
    lead = next(x for x in fr if x)
    assert tuple(Fraction(x, next(y for y in xs if y)) for x in xs) == tuple(x / lead for x in fr)
    assert ProjectivePoint([x / lead for x in fr]) == point


def test_projective_point_refusals():
    for zero in ([0, 0, 0], [Fraction(0), 0], []):
        with pytest.raises(ValueError):
            ProjectivePoint(zero)
    # only ints and Fractions: a float or a str is refused, not converted
    for bad in ([0.5, -1, Fraction(1, 3)], [0.1, 1, 1], ["1/2", 1, 1]):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            ProjectivePoint(bad)
    for bad in ([0.1, 1, 1], [1, "1", 0]):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            LinearSubspace.from_equations([bad], 3)


def test_forms_s6_invariant(segre, cr):
    assert segre.is_s6_invariant()
    assert cr.is_s6_invariant()


def test_s6_invariance_fails_on_the_one_moving_generator():
    # the check reads only the five adjacent transpositions: u1^3+...+u5^3 is
    # fixed by the four among u1..u5 and moved only by (5 6)
    u = [MultiPoly.variable(6, i) for i in range(6)]
    form = sum((ui**3 for ui in u[:5]), MultiPoly.zero(6))
    assert not Hypersurface(form, varieties.SUM_ZERO).is_s6_invariant()
    moved = [g for g in varieties.S6_GENERATORS if form.permute_variables([i - 1 for i in g]) != form]
    assert moved == [(1, 2, 3, 4, 6, 5)]


def test_five_variable_equations_recovered(segre, cr):
    # eliminating the sixth coordinate recovers the classical 5-variable forms
    elim = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    elim.append([-1] * 5)
    z = [MultiPoly.variable(5, i) for i in range(5)]
    total = sum(z, MultiPoly.zero(5))
    segre5 = sum((zi**3 for zi in z), MultiPoly.zero(5)) - total**3
    assert segre.form.substitute_linear(elim) == segre5
    s4 = sum((zi**4 for zi in z), MultiPoly.zero(5)) + total**4
    s2 = sum((zi**2 for zi in z), MultiPoly.zero(5)) + total**2
    assert cr.form.substitute_linear(elim) == s4 * 4 - s2 * s2


def test_special_loci_orbit_sizes():
    nodes = {a: node_point(a) for a in three_subsets()}
    planes = {s: syntheme_plane(s) for s in synthemes()}
    assert len(nodes) == 10 and len(planes) == 15
    assert len(set(nodes.values())) == 10
    assert len({syntheme_line(s) for s in synthemes()}) == 15
    assert len({d: duad_point(d) for d in duads()}) == 15
    assert len({a: cardinal_coefficients(a) for a in three_subsets()}) == 10


def test_line_points_meet_rule():
    # two double lines intersect iff their synthemes share a duad
    lines = {s: syntheme_line(s) for s in synthemes()}
    for s1 in lines:
        for s2 in lines:
            if s1 >= s2:
                continue
            shared = set(s1) & set(s2)
            meet = LinearSubspace.from_equations(lines[s1].rows + lines[s2].rows, 6).kernel
            assert bool(shared) == bool(meet)
            if shared:
                (d,) = shared
                assert ProjectivePoint(meet[0]) == duad_point(d)


def test_special_loci_s6_equivariant():
    from quartic15.configs import s6_elements

    node_set = {node_point(a) for a in three_subsets()}
    point_set = set({d: duad_point(d) for d in duads()}.values())
    card_set = {ProjectivePoint(c) for c in {a: cardinal_coefficients(a) for a in three_subsets()}.values()}
    line_eqs = {reduced_rows(syntheme_line(s)) for s in synthemes()}
    for g in s6_elements()[::37]:  # a spread of permutations, exact either way
        perm0 = [g[i] - 1 for i in range(6)]  # 0-based positions

        def permute_point(p):
            coords = [None] * 6
            for i in range(6):
                coords[perm0[i]] = p.coords[i]
            return ProjectivePoint(coords)

        assert {permute_point(p) for p in node_set} == node_set
        assert {permute_point(p) for p in point_set} == point_set
        assert {permute_point(p) for p in card_set} == card_set
    # double lines: the syntheme relabeling permutes the subspaces
    from quartic15.configs import apply_perm_duad_set

    for g in s6_elements()[::97]:
        for s in synthemes():
            img = syntheme_line(apply_perm_duad_set(g, s))
            assert reduced_rows(img) in line_eqs


def test_duality_plane_onto_line():
    # the plane maps onto the line, not into a point: two parameter choices
    # give distinct projective images on the syntheme line
    s = synthemes()[0]
    from quartic15.varieties import plane_point

    a = duality_image(ProjectivePoint(plane_point(s, [1, 2, 3]))).point
    b = duality_image(ProjectivePoint(plane_point(s, [1, 5, -2]))).point
    assert a != b
    line = syntheme_line(s)
    assert line.contains(a.coords) and line.contains(b.coords)


def test_derived_duad_point_matches():
    # the often-quoted coordinates (-2,2,1,1,1,1) violate the sum-zero
    # constraint; solving the three line systems yields (-2,-2,1,1,1,1)
    for d in duads():
        assert derive_duad_point(d) == duad_point(d)
    assert duad_point((1, 2)).coords == (2, 2, -1, -1, -1, -1)


def test_certify_segre_nodes(segre):
    for subset in three_subsets():
        cert = certify_ordinary_node(segre, node_point(subset))
        assert not isinstance(cert, SmoothPointFailure)
        assert cert.hessian_rank == 4 and cert.is_ordinary


def test_certify_smooth_point_failure(segre):
    res = certify_ordinary_node(segre, ProjectivePoint([1, -1, 0, 0, 0, 0]))
    assert isinstance(res, SmoothPointFailure)


def test_certify_not_on_variety(segre):
    with pytest.raises(NotOnVarietyError):
        certify_ordinary_node(segre, ProjectivePoint([1, 2, -3, 0, 0, 0]))
    with pytest.raises(NotOnVarietyError):
        certify_ordinary_node(segre, ProjectivePoint([1, 2, 3, 4, 5, 6]))


def test_double_lines(cr):
    for s in synthemes():
        assert verify_double_line(cr, syntheme_line(s))


def test_line_in_a_syntheme_plane_is_on_the_cubic_but_not_double(segre):
    # the form vanishes on the line (the plane lies on the cubic), so only
    # the chart gradient, which is nonzero along the line, refuses it
    for s in synthemes():
        plane = syntheme_plane(s)
        line = LinearSubspace.from_equations(plane.rows + ((1, 2, 3, 0, 0, 0),), 6)
        assert len(line.kernel) == 2
        assert not segre_form().substitute_linear(line.parametrization, line.den)
        assert verify_double_line(segre, line) is False


def test_double_line_on_a_two_equation_ambient():
    # {sum u = 0, u1 = u2} holds the three syntheme lines through the duad
    # (1,2); each is a double line of the quartic read on that ambient, and
    # a syntheme line off the ambient is refused
    ambient = LinearSubspace.from_equations([ONES, (1, -1, 0, 0, 0, 0)], 6)
    assert len(ambient.rows) == 2
    v = Hypersurface(cr_quartic_form(), ambient)
    through = [s for s in synthemes() if (1, 2) in s]
    assert len(through) == 3
    for s in through:
        assert verify_double_line(v, syntheme_line(s))
    other = next(s for s in synthemes() if (1, 2) not in s)
    with pytest.raises(ValueError, match="inside the ambient"):
        verify_double_line(v, syntheme_line(other))


def test_generic_chord_is_not_double_line(cr):
    # a line through two points of the quartic is not in the singular locus
    p1 = param_point(syntheme_line(synthemes()[0]), [1, 2])
    p2 = param_point(syntheme_line(synthemes()[5]), [3, 1])
    chord = LinearSubspace.from_equations(LinearSubspace.from_equations([p1, p2], 6).kernel, 6)
    assert verify_double_line(cr, chord) is False


# -- charts: LinearSubspace against Fraction solves --------------------------------


def greedy_chart_basis(point, constraints, nvars):
    """A chart of the constrained tangent space at the point: the Fraction
    kernel basis of the constraints, kept greedily while it stays
    independent of the point."""
    space = fraction_kernel(constraints, nvars)
    chosen = [list(point)]
    for cand in space:
        if len(fraction_rref(chosen + [cand])[1]) == len(chosen) + 1:
            chosen.append(cand)
    assert len(chosen) == len(space)
    return tuple(tuple(c) for c in chosen[1:])


def greedy_chart_rank(form, point, constraints):
    """(rank, dimension): the Fraction rank of W·H·Wᵀ, H the form's Hessian
    at the point and W the greedy chart basis, and the number of rows of W."""
    n = form.nvars
    w = greedy_chart_basis(point, constraints, n)
    h = [[value(form.partial(i).partial(j), point) for j in range(n)] for i in range(n)]
    return len(fraction_rref(dense_mat_mul(dense_mat_mul(w, h), list(zip(*w))))[1]), len(w)


def assert_rank_matches_greedy_chart(cert, form, point, constraints):
    """The certificate's rank is the rank of the Hessian on the greedy chart,
    and ordinary means that rank is the chart's dimension."""
    rank, dim = greedy_chart_rank(form, point, constraints)
    assert (cert.hessian_rank, cert.is_ordinary) == (rank, rank == dim)


small_rationals = rationals(-6, 6, 4)


@st.composite
def subspaces(draw):
    """(nvars, equation rows, subspace); half the row sets are rank-deficient."""
    nvars = draw(st.integers(1, 5))
    row = st.lists(st.one_of(st.just(Fraction(0)), small_rationals), min_size=nvars, max_size=nvars)
    rows = draw(st.lists(row, max_size=nvars + 1))
    if rows and draw(st.booleans()):
        rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
    return nvars, rows, LinearSubspace.from_equations(rows, nvars)


@settings(max_examples=200, deadline=None)
@given(subspaces(), st.data())
def test_coordinates_match_fraction_solve(sub, data):
    nvars, rows, space = sub
    param = fraction_parametrization(space)
    if data.draw(st.booleans()):
        x = data.draw(st.lists(small_rationals, min_size=len(space.free), max_size=len(space.free)))
        p = [sum(a * b for a, b in zip(row, x)) for row in param]
    else:
        p = data.draw(st.lists(small_rationals, min_size=nvars, max_size=nvars))
    expected = fraction_solve(param, p)
    assert space.contains(p) == (expected is not None)
    assert space.contains(p) == all(sum(a * b for a, b in zip(r, p)) == 0 for r in rows)


@settings(max_examples=200, deadline=None)
@given(subspaces(), st.data())
def test_annihilates_matches_rank_test(sub, data):
    nvars, rows, space = sub
    if rows and data.draw(st.booleans()):
        c = data.draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
        v = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(nvars)]
    else:
        v = data.draw(st.lists(small_rationals, min_size=nvars, max_size=nvars))
    rank = len(fraction_rref(rows)[1])
    assert space.annihilates(v) == (len(fraction_rref(rows + [v])[1]) == rank)


@settings(max_examples=200, deadline=None)
@given(subspaces(), st.data())
def test_from_equations_matches_fraction_rref(sub, data):
    nvars, rows, space = sub
    red, pivots = fraction_rref(rows)
    assert [[Fraction(a, space.den) for a in row] for row in space.rows] == red[: len(pivots)]
    assert space.nvars == nvars and space.den > 0
    assert all(type(a) is int for row in space.rows for a in row)
    assert [[Fraction(a, space.den) for a in col] for col in space.kernel] == fraction_kernel(rows, nvars)
    assert all(type(a) is int for row in space.parametrization for a in row)
    assert space.parametrization == tuple(tuple(col[i] for col in space.kernel) for i in range(nvars))
    assert LinearSubspace(space.rows, space.den, nvars) == space
    # refusals: a row scaled off den, two rows swapped, a wrong length
    if space.rows:
        k = data.draw(st.integers(0, len(space.rows) - 1))
        scaled = list(space.rows)
        scaled[k] = tuple(2 * a for a in scaled[k])
        with pytest.raises(ValueError, match="reduced row echelon form"):
            LinearSubspace(tuple(scaled), space.den, nvars)
        if len(space.rows) > 1:
            with pytest.raises(ValueError, match="reduced row echelon form"):
                LinearSubspace(space.rows[::-1], space.den, nvars)
        with pytest.raises(ValueError, match=f"has {nvars + 1} entries, expected {nvars}"):
            LinearSubspace(space.rows[:k] + (space.rows[k] + (0,),) + space.rows[k + 1 :], space.den, nvars)
    with pytest.raises(ValueError, match="reduced row echelon form"):
        LinearSubspace(space.rows, -space.den, nvars)


def test_linear_subspace_refuses_wrong_lengths(cr):
    with pytest.raises(ValueError, match="has 3 entries, expected 2"):
        LinearSubspace.from_equations([[1, 1, 1]], 2)
    with pytest.raises(ValueError, match="has 3 entries, expected 2"):
        LinearSubspace(((1, 1, 1),), 1, 2)
    with pytest.raises(ValueError, match="has 3 entries, expected 6"):
        cr.ambient.contains([1, -1, 0])
    with pytest.raises(ValueError, match="has 7 entries, expected 6"):
        cr.ambient.annihilates([1] * 7)


def test_linear_subspace_checks_the_unit_pattern():
    # x0 + x1 = 0 over den 1, and the same row over den 2: both accepted, and
    # both normalise to den 1, so the parametrization is the unit vector (1 at
    # the free column x1) and the two records are equal
    for rows, den in ((((1, 1),), 1), (((2, 2),), 2)):
        space = LinearSubspace(rows, den, 2)
        assert space.rows == ((1, 1),) and space.den == 1
        assert space.free == (1,) and space.parametrization == ((-1,), (1,))
    assert LinearSubspace(((2,) * 6,), 2, 6) == varieties.SUM_ZERO
    # each leading entry must be den, and each leading column zero in the
    # other rows: otherwise coordinates read off the free columns are wrong
    for rows, den in (
        (((2, 2),), 1),  # leads with 2, not den
        (((1, 1), (0, 1)), 1),  # the second leading column is 1 in row 0
        (((0, 1), (1, 0)), 1),  # leading columns not increasing
        (((1, 0), (0, 0)), 1),  # a zero row
        (((-1, -1),), -1),  # den must be positive
    ):
        with pytest.raises(ValueError, match="reduced row echelon form over a positive den"):
            LinearSubspace(rows, den, 2)
    with pytest.raises(TypeError):
        LinearSubspace(((1, Fraction(1, 2)),), 1, 2)  # rows are integers


def test_chart_matches_greedy_basis_on_segre_nodes(segre):
    # the certificate ranks the Hessian of the form on the sum-zero chart
    for pt in map(node_point, three_subsets()):
        cert = certify_ordinary_node(segre, pt)
        assert_rank_matches_greedy_chart(cert, segre.form, pt.coords, segre.ambient.rows)


def test_chart_matches_greedy_basis_on_section_nodes(reference_section):
    # the section quartic in its 4 chart variables has no constraints
    for node in reference_section.nodes:
        point = node.chart_point.coords
        assert_rank_matches_greedy_chart(node.certificate, reference_section.chart, point, ())


@settings(max_examples=100, deadline=None)
@given(subspaces(), st.data())
def test_chart_matches_greedy_basis_on_random_points(sub, data):
    nvars, rows, space = sub
    k = len(space.free)
    x = data.draw(st.lists(small_rationals, min_size=k, max_size=k))
    p = param_point(space, x)
    assume(nvars > 1 and any(p))
    # l vanishes at p, so p is a singular point of the form l^2
    j = next(i for i, c in enumerate(p) if c)
    i = (j + 1) % nvars
    line = [Fraction(0)] * nvars
    line[i], line[j] = p[j], -p[i]
    l = MultiPoly.linear_form(line)
    pt = ProjectivePoint(p)
    surface = Hypersurface(l * l, space)
    cert = certify_ordinary_node(surface, pt)
    assert_rank_matches_greedy_chart(cert, l * l, pt.coords, space.rows)


def test_duality_examples():
    img = duality_image(ProjectivePoint([1, -1, 0, 0, 0, 0]))
    assert img.point == ProjectivePoint([2, 2, -1, -1, -1, -1])
    assert img.quartic_value == 0
    with pytest.raises(NotOnVarietyError):
        duality_image(ProjectivePoint([1, 1, 1, -1, -1, -1]))  # node
    with pytest.raises(NotOnVarietyError):
        duality_image(ProjectivePoint([1, 2, 3, 4, 5, 6]))


def test_duality_planes_to_lines():
    for s in synthemes():
        assert duality_plane_to_line(s)


def test_duality_node_to_cardinal():
    # a node's coordinate vector is the cardinal hyperplane of its 3-subset
    for subset in three_subsets():
        card = cardinal_coefficients(subset)
        assert ProjectivePoint(card) == node_point(subset)


def test_duality_random_samples():
    rng = random.Random(7)
    for _ in range(25):
        z = sample_smooth_cubic_point(rng)
        img = duality_image(z)
        assert img.quartic_value == 0


def test_cardinal_restriction_123():
    res = cardinal_restriction((1, 2, 3))
    plane = res.plane
    stated = cardinal_tangency_quadric().substitute_linear(plane.parametrization, plane.den)
    # q equals the stated quadric's restriction up to scale
    assert stated * res.square_root.leading_coefficient() == res.square_root * stated.leading_coefficient()
    restricted = cr_quartic_form().substitute_linear(fraction_parametrization(plane))
    scale, root = perfect_square_factor(restricted)
    assert root == res.square_root and scale * root * root == restricted


def test_cardinal_restriction_all_squares():
    for subset in three_subsets():
        res = cardinal_restriction(subset)
        assert res.square_root.total_degree() == 2


def test_bench_chart_gives_the_section_quartic():
    # the benchmark picks scan primes from the quartic restricted through a
    # LinearMap of the `nullspace` columns; it must be the quartic the
    # section certifies and scans
    from quartic15.exact import LinearMap, nullspace

    rng = random.Random(5)
    models = [hyperplane_section(REFERENCE_COEFFS)]
    while len(models) < 4:
        try:
            models.append(hyperplane_section([rng.randint(-30, 30) for _ in range(6)]))
        except GenericityError:
            continue
    for model in models:
        chart = LinearMap(zip(*nullspace([list(ONES), model.hyperplane], 6)))
        assert cr_quartic_form().substitute_linear(chart) == model.chart


def test_section_quartic_takes_the_ambient_values():
    # the scale of the section chart pinned without `substitute_linear`: its
    # value at integer parameters x is the quartic's value at Σ x_k·kernel_k / den
    # (the reference charts normalise to den 1; this hyperplane's is den 14)
    rng = random.Random(7)
    form = cr_quartic_form()
    model = hyperplane_section((-5, 9, -7, -1, -6, 6))
    chart = LinearSubspace.from_equations([ONES, model.hyperplane], 6)
    assert chart.den > 1
    for _ in range(8):
        x = [rng.randint(-5, 5) for _ in range(4)]
        point = [Fraction(sum(c * col[i] for c, col in zip(x, chart.kernel)), chart.den) for i in range(6)]
        assert value(model.chart, x) == value(form, point), x


def test_non_cardinal_restriction_not_square():
    rng = random.Random(3)
    ones = [Fraction(1)] * 6
    for _ in range(5):
        h = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        if h in ([0] * 6,) or all(x == h[0] for x in h):
            continue
        chart = LinearSubspace.from_equations([ones, h], 6)
        if len(chart.free) != 4:
            continue
        restricted = cr_quartic_form().substitute_linear(chart.parametrization, chart.den)
        assert perfect_square_factor(restricted) is None


def test_reference_section(reference_section):
    model = reference_section
    assert len(model.nodes) == 15
    assert all(n.certificate.is_ordinary and n.certificate.hessian_rank == 3 for n in model.nodes)
    assert len(model.tropes) == 10
    for t in model.tropes:
        assert len(t.incident_nodes) == 6
        assert t.conic_rank == 3
    # every node on exactly 4 tropes
    for n in model.nodes:
        count = sum(1 for t in model.tropes if n.syntheme in t.incident_nodes)
        assert count == 4


def test_reference_section_incidence_isomorphic(reference_section):
    from quartic15.configs import IncidenceStructure, trope_incidence_model

    model = reference_section
    pts = tuple(n.syntheme for n in model.nodes)
    blocks = tuple(t.subset for t in model.tropes)
    matrix = tuple(
        tuple(n.syntheme in t.incident_nodes for t in model.tropes) for n in model.nodes
    )
    geometric = IncidenceStructure(pts, blocks, matrix)
    assert geometric.is_configuration(4, 6)
    # the section's labels are the isomorphism: equal entry by entry
    assert geometric == trope_incidence_model()


def test_section_genericity_failures():
    with pytest.raises(GenericityError, match="cardinal"):
        hyperplane_section((1, 1, 1, -1, -1, -1))
    with pytest.raises(GenericityError):
        hyperplane_section((1, 1, 1, 1, 1, 1))
    # hyperplane through the duad point (-2,-2,1,1,1,1)
    with pytest.raises(GenericityError, match="line-intersection"):
        hyperplane_section((1, 1, 4, 0, 0, 0))


def test_every_cardinal_row_and_its_negative_is_refused_with_its_subset():
    # `hyperplane_section` compares hp with the +-1 rows as they stand: each
    # representative contains 1, so the row is already primitive with a
    # positive first entry, and the negated row normalizes to it
    for subset in three_subsets():
        row = cardinal_coefficients(subset)
        for coeffs in (row, tuple(-x for x in row)):
            with pytest.raises(GenericityError, match="cardinal") as refused:
                hyperplane_section(coeffs)
            assert refused.value.detail == subset


def _reference_node_surface(model):
    """The reference section's surface and one of its nodes, certified once.
    The surface is built before a test patches `varieties.bareiss`, which
    `LinearSubspace.from_equations` reads too."""
    surface = Hypersurface(cr_quartic_form(), LinearSubspace.from_equations([ONES, model.hyperplane], 6))
    node = model.nodes[0].ambient
    assert certify_ordinary_node(surface, node).is_ordinary
    return surface, node


def test_node_certificate_refuses_a_bareiss_rank_the_minors_deny(reference_section, monkeypatch):
    surface, node = _reference_node_surface(reference_section)
    bareiss = varieties.bareiss

    def one_pivot_short(m, **kwargs):
        a, pivots, sign = bareiss(m, **kwargs)
        return a, pivots[:-1], sign

    monkeypatch.setattr(varieties, "bareiss", one_pivot_short)
    with pytest.raises(AssertionError, match="rank cross-check failed"):
        certify_ordinary_node(surface, node)


def test_node_certificate_refuses_a_minor_rank_bareiss_denies(reference_section, monkeypatch):
    surface, node = _reference_node_surface(reference_section)
    minor_rank = varieties.minor_rank
    monkeypatch.setattr(varieties, "minor_rank", lambda m: minor_rank(m) - 1)
    with pytest.raises(AssertionError, match="rank cross-check failed"):
        certify_ordinary_node(surface, node)


def test_every_section_chart_has_four_free_columns():
    # the lemma that leaves `hyperplane_section` no chart refusal: a nonzero
    # sum-zero hp is never a multiple of ONES, so [ONES, hp] has rank 2
    rng = random.Random(36)
    tried = 0
    for _ in range(600):
        height = rng.choice((1, 2, 9, 1000))
        coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(6)]
        try:
            hp = varieties._normalize_hyperplane(coeffs)
        except GenericityError:
            continue  # all six equal: no hyperplane inside {sum u = 0}
        assert sum(hp) == 0 and any(hp)
        assert len(LinearSubspace.from_equations([ONES, hp], 6).free) == 4, coeffs
        tried += 1
    assert tried > 500


def test_double_line_lemmas_behind_the_section_refusals():
    # the lemmas that leave `hyperplane_section` no refusal once it avoids
    # the 15 line-intersection points, each checked on every case
    from quartic15.configs import trope_incidence_model

    lines = {s: syntheme_line(s) for s in synthemes()}
    points = {s: {duad_point(d) for d in s} for s in lines}
    # each syntheme line holds the duad points of its three duads
    for s, line in lines.items():
        assert len(line.kernel) == 2 and all(line.contains(pt.coords) for pt in points[s])
    # two distinct lines meet only at the duad point they share (105 pairs)
    pairs = list(itertools.combinations(lines, 2))
    assert len(pairs) == 105
    for s, t in pairs:
        meet = LinearSubspace.from_equations(lines[s].rows + lines[t].rows, 6)
        assert {ProjectivePoint(c) for c in meet.kernel} == {duad_point(d) for d in set(s) & set(t)}
    # a line meets a cardinal hyperplane that does not contain it only at one
    # of its duad points (150 pairs); the lines a cardinal hyperplane
    # contains are the matching rule's incidences
    contained = set()
    for s, subset in itertools.product(lines, three_subsets()):
        meet = LinearSubspace.from_equations(lines[s].rows + (cardinal_coefficients(subset),), 6)
        if len(meet.kernel) == 2:
            contained.add((s, subset))
        else:
            assert len(meet.kernel) == 1 and ProjectivePoint(meet.kernel[0]) in points[s]
    rule = trope_incidence_model()
    assert contained == {
        (s, blk) for s, row in zip(rule.points, rule.matrix) for blk, hit in zip(rule.blocks, row) if hit
    }


@pytest.mark.parametrize(
    "make, split",
    [
        (lambda: hyperplane_section(REFERENCE_COEFFS), ()),
        (lambda: hyperplane_section((0, 1, 3, 14, 15, 17)), ((1, 2, 3),)),
        (lambda: hyperplane_section((3, 21, 23, 1, -5, -25)), ((1, 4, 6),)),  # a draw of the sections benchmark
        (lambda: sample_tangent_section(random.Random(11)), ()),
    ],
    ids=["reference", "second-reference", "bench-draw", "tangent"],
)
def test_tropes_match_the_three_equation_oracle(make, split):
    # the trope plane as {sum u = 0, hp = 0, cardinal = 0} in six variables:
    # the quartic restricted to it is a perfect square, its members are the
    # incident nodes, and it is spanned by the plane the conic lives on; the
    # conic, built here, has the rank the section read off the bordered
    # Hessian, pinned: 3 is a smooth conic, 2 (at the `split` tropes) a line pair
    model = make()
    form = cr_quartic_form()
    conics = []
    for t in model.tropes:
        plane = LinearSubspace.from_equations([ONES, model.hyperplane, cardinal_coefficients(t.subset)], 6)
        assert len(plane.rows) == 3
        assert perfect_square_factor(form.substitute_linear(plane.parametrization, plane.den)) is not None
        on_plane = [n.syntheme for n in model.nodes if plane.contains(n.ambient.coords)]
        assert None not in on_plane and tuple(sorted(on_plane)) == t.incident_nodes
        # the conic's 3 parameters, mapped through the cardinal 3-space into
        # six variables, span the oracle plane, and there scale·conic² is the quartic
        card = cardinal_restriction(t.subset)
        row = [sum(h * x for h, x in zip(model.hyperplane, col)) for col in card.plane.kernel]
        trope = LinearSubspace.from_equations([row], 4)
        conic = card.square_root.substitute_linear(trope.parametrization, trope.den)
        chart = mat_mul(card.plane.parametrization, trope.parametrization)
        assert all(plane.contains(col) for col in zip(*chart))
        scale, root = perfect_square_factor(form.substitute_linear(card.plane.parametrization, card.plane.den))
        assert root == card.square_root
        assert scale * conic * conic == form.substitute_linear(chart, card.plane.den * trope.den)
        assert t.conic_rank == (2 if t.subset in split else 3)
        conics.append((conic, t.conic_rank))
    # over Q each rank-2 conic here splits into two rational lines, and each
    # rank-3 conic is irreducible
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:3")
    for conic, rank in conics:
        assert sympy.Matrix(_quadric_matrix(conic)).rank() == rank
        expr = sum(c * sympy.prod(x**e for x, e in zip(xs, exp)) for exp, c in conic.nums.items())
        factors = sympy.factor_list(expr)[1]
        degrees = sorted(sympy.Poly(f, *xs).total_degree() for f, k in factors for _ in range(k))
        assert degrees == ([1, 1] if rank == 2 else [2]), (conic, degrees)


def _quadric_matrix(f):
    """The symmetric matrix of the quadratic form f cleared of its den:
    2c on the diagonal for c·x_i², c off it for c·x_i·x_j."""
    m = [[0] * f.nvars for _ in range(f.nvars)]
    for exp, c in f.nums.items():
        i, j = [k for k, e in enumerate(exp) for _ in range(e)]
        m[i][j] += c
        m[j][i] += c
    return m


def test_sections_read_the_cached_cardinal_records(monkeypatch):
    hyperplane_section(REFERENCE_COEFFS)  # warm the cache
    form = cr_quartic_form()
    calls = {"square": 0, "quartic": 0, "substitute": 0, "eliminate": 0}
    substitute = MultiPoly.substitute_linear
    from_equations = LinearSubspace.from_equations.__func__

    def counted_substitute(self, *args, **kwargs):
        calls["quartic"] += self == form  # the section's Hypersurface holds a copy
        calls["substitute"] += 1
        return substitute(self, *args, **kwargs)

    def counted_from_equations(cls, *args, **kwargs):
        calls["eliminate"] += 1
        return from_equations(cls, *args, **kwargs)

    def counted_square(f):
        calls["square"] += 1
        return perfect_square_factor(f)

    monkeypatch.setattr(MultiPoly, "substitute_linear", counted_substitute)
    monkeypatch.setattr(LinearSubspace, "from_equations", classmethod(counted_from_equations))
    monkeypatch.setattr(varieties, "perfect_square_factor", counted_square)
    model = hyperplane_section((0, 1, 3, 14, 15, 17))
    assert len(model.tropes) == 10
    # the section chart only: the tropes neither solve for their planes nor
    # substitute into the cardinal conics
    assert calls == {"square": 0, "quartic": 1, "substitute": 1, "eliminate": 1}
    assert cardinal_restriction.cache_info().currsize == 10


def test_cardinal_restriction_is_one_shared_frozen_record():
    for subset in three_subsets():
        res = cardinal_restriction(subset)
        assert cardinal_restriction(subset) is res
        root = res.square_root
        with pytest.raises(AttributeError):
            res.square_root = MultiPoly.zero(4)
        assert res.square_root is root
        # the Hessian of the conic, frozen, is the matrix read off its coefficients
        assert type(res.hessian) is tuple and all(type(row) is tuple for row in res.hessian)
        assert all(type(x) is int for row in res.hessian for x in row)
        assert [list(row) for row in res.hessian] == _quadric_matrix(res.square_root)
        # and its adjugate, frozen: H·adj(H) = det(H)·I with det(H) = 9 ≠ 0,
        # which fixes adj(H)
        assert type(res.adjugate) is tuple and all(type(row) is tuple for row in res.adjugate)
        assert det_bareiss(res.hessian) == 9
        assert mat_mul(res.hessian, res.adjugate) == [[9 * (i == j) for j in range(4)] for i in range(4)]


def test_trope_ranks_match_the_bordered_bareiss_rank():
    # a section reads the conic's rank as 3 where rᵀ·adj(H)·r ≠ 0 and runs
    # the Bareiss rank of [[H, r], [rᵀ, 0]] only where it is 0: every rank
    # must be that Bareiss rank minus 2, on the two reference sections, the
    # benchmark draw with a split trope and 200 seeded draws made as the
    # sections benchmark makes them (six coefficients in [−30, 30])
    coeffs = [REFERENCE_COEFFS, (0, 1, 3, 14, 15, 17), (3, 21, 23, 1, -5, -25)]
    models = [hyperplane_section(c) for c in coeffs]
    rng = random.Random(2019)
    while len(models) < len(coeffs) + 200:
        try:
            models.append(hyperplane_section([rng.randint(-30, 30) for _ in range(6)]))
        except GenericityError:
            continue
    ranks = []
    for model in models:
        for t in model.tropes:
            card = cardinal_restriction(t.subset)
            r = [sum(h * x for h, x in zip(model.hyperplane, col)) for col in card.plane.kernel]
            bordered = [[*row, x] for row, x in zip(card.hessian, r)] + [[*r, 0]]
            assert t.conic_rank == len(bareiss(bordered)[1]) - 2, (model.hyperplane, t.subset)
            ranks.append(t.conic_rank)
    assert set(ranks) == {2, 3}


def test_bordered_determinant_is_minus_the_adjugate_form():
    # det [[H, r], [rᵀ, 0]] = −rᵀ·adj(H)·r as polynomials in r, for each
    # cardinal record, with the record's adjugate equal to sympy's
    sympy = pytest.importorskip("sympy")
    r = sympy.Matrix(sympy.symbols("r0:4"))
    for subset in three_subsets():
        card = cardinal_restriction(subset)
        hessian, adjugate = sympy.Matrix(card.hessian), sympy.Matrix(card.adjugate)
        assert adjugate == hessian.adjugate()
        bordered = hessian.row_join(r).col_join(r.T.row_join(sympy.zeros(1, 1)))
        assert sympy.expand(bordered.det() + (r.T * adjugate * r)[0]) == 0


def test_value_classes_refuse_assignment():
    from quartic15.lattice import IntegerLattice
    from quartic15.nodal_surface import ETA

    values = [
        (IntegerLattice(((2,),)), "gram"),
        (ETA, "den"),
        (varieties.SUM_ZERO, "rows"),
        (build_variety("cr"), "ambient"),
    ]
    for value, name in values:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        assert getattr(value, name) is before


def test_scan_segre_f11(segre):
    pts = singular_scan_fp(segre, 11)
    assert len(pts) == 10


def test_scan_cr_f7(cr):
    pts = singular_scan_fp(cr, 7)
    # union of 15 lines with 15 triple points: by inclusion-exclusion
    # 15*(7+1) - (3-1)*15 = 90
    assert len(pts) == 15 * 8 - 2 * 15 == 90
    # the scanned set is exactly the union of the reduced double lines, each
    # line read in chart coordinates: its equations paired with the chart's
    # kernel columns (den 1)
    assert cr.ambient.den == 1
    int_eqs = {
        s: [[sum(a * b for a, b in zip(eq, col)) for col in cr.ambient.kernel] for eq in syntheme_line(s).rows]
        for s in synthemes()
    }

    def lines_through(v):
        return [
            s
            for s, eqs in int_eqs.items()
            if all(sum(c * x for c, x in zip(eq, v)) % 7 == 0 for eq in eqs)
        ]

    memberships = [len(lines_through(v)) for v in pts]
    assert all(k >= 1 for k in memberships)
    # 15 triple points, the rest simple: total incidences 15*(7+1)
    assert sum(memberships) == 15 * 8
    assert sorted(memberships).count(3) == 15


def test_segre_scan_at_11_is_the_set_of_reduced_nodes(segre):
    nodes = chart_points(segre.ambient, [node_point(t).coords for t in three_subsets()], 11)
    pts = singular_scan_fp(segre, 11)
    assert len(pts) == len(set(nodes)) == 10
    assert set(pts) == set(nodes)


def test_cr_scan_at_7_is_the_union_of_the_reduced_lines(cr):
    line_points = set()
    for s in synthemes():
        c0, c1 = syntheme_line(s).kernel
        points = [[a * x + b * y for x, y in zip(c0, c1)] for a, b in _projective_reps(7, 2)]
        line_points.update(chart_points(cr.ambient, points, 7))
    pts = singular_scan_fp(cr, 7)
    assert len(pts) == len(line_points) == 90
    assert set(pts) == line_points


def test_scan_reference_section_bad_prime_11(reference_section):
    # 11 divides the pairing of (1,2,3,5,7,11) with the duad point (-2,1,1,-2,1,1),
    # so mod 11 the hyperplane passes through it and the three nodes on the
    # (1,4)-lines collide: the honest singular count is 15 - 3 + 1 = 13.
    hp = reference_section.hyperplane
    pt = duad_point((1, 4)).coords
    pairing = sum(Fraction(a) * b for a, b in zip(hp, pt))
    assert pairing.numerator % 11 == 0
    assert len(singular_scan_fp(reference_section, 11)) == 13
    assert bad_prime_duads(reference_section, 11) == ((1, 4),)
    assert bad_prime_duads(reference_section, 23) == ()


def test_bad_prime_duads_name_the_collision_in_the_cli_detail():
    model = hyperplane_section((0, 1, 3, 14, 15, 17))
    assert bad_prime_duads(model, 23) == ((5, 6),)
    assert len(singular_scan_fp(model, 23)) == 13  # three nodes become one
    assert all(bad_prime_duads(model, p) == () for p in (7, 11, 13, 29))
    code, report = cli.run(
        ["section", "--coeffs=0,1,3,14,15,17", "--scan-prime", "23"], out=io.StringIO()
    )
    assert code == 1
    (check,) = [c for c in report.checks if c["id"].startswith("section-scan-f23")]
    assert check["status"] == "fail"
    assert check["details"] == (
        "F23 scan found 13 singular points (expected 15); 23 is a bad prime for this "
        "hyperplane: it divides the pairing with the line-intersection point(s) [(5, 6)], "
        "so the three nodes on each such duad's lines collide in reduction; the asserted count 15 is "
        "therefore unattainable here — the true count is 13, and scans at the good primes 7 and 11 give 15"
    )


def test_scan_reference_section_good_prime(reference_section):
    # 23 divides no duad pairing and no degeneration appears: all 15 survive
    assert len(singular_scan_fp(reference_section, 23)) == 15


def test_scan_section_good_primes_7_11_13():
    # a section with good reduction at 7, 11 and 13 keeps exactly 15
    model = hyperplane_section((0, 1, 3, 14, 15, 17))
    for p in (7, 11, 13):
        assert len(singular_scan_fp(model, p)) == 15


def test_scan_enumerators_are_exact():
    from quartic15.varieties import _projective_reps

    for p in (5, 7):
        # the reference threefold scan's route: P^4 representatives plus the
        # coordinate that makes the sum zero
        reps = [v + ((-sum(v)) % p,) for v in _projective_reps(p, 5)]
        assert len(reps) == (p**5 - 1) // (p - 1)
        assert len(set(reps)) == len(reps)
        assert all(sum(v) % p == 0 for v in reps)
        assert all(next(x for x in v if x) == 1 for v in reps)
        reps3 = list(_projective_reps(p, 4))
        assert len(reps3) == (p**4 - 1) // (p - 1) == len(set(reps3))


def test_scan_bad_prime(segre):
    with pytest.raises(ValueError):
        singular_scan_fp(segre, 3)


@pytest.mark.parametrize("m", [25, 49, 4])
def test_scan_rejects_composite_modulus(segre, reference_section, m):
    for target in (segre, reference_section):
        with pytest.raises(ValueError, match=f"^bad prime: {m} is not prime$"):
            singular_scan_fp(target, m)


def test_scan_refuses_a_prime_of_2_to_the_10_or_more_before_the_primality_test(segre, reference_section, monkeypatch):
    def no_trial_division(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(varieties, "_is_prime", no_trial_division)
    for target in (segre, reference_section):
        for p in (1 << 10, 65521, 2**64 - 59):
            with pytest.raises(ValueError, match="^bad prime: need p < 1024$"):
                singular_scan_fp(target, p)


def test_good_primes_skip_bad_duads_and_the_primes_of_the_chart_denominator(reference_section):
    # (1,2,3,5,7,11) has a bad duad at every prime from 5 to 19; on
    # (12,-10,2,8,-9,-3) no duad is bad at 11, but 11 divides the chart's
    # denominator 4·11^4, so no scan can run there
    assert all(bad_prime_duads(reference_section, p) for p in (5, 7, 11, 13, 17, 19))
    other = hyperplane_section((12, -10, 2, 8, -9, -3))
    assert bad_prime_duads(other, 11) == () and other.chart.den == 4 * 11**4
    with pytest.raises(ValueError, match="^bad prime: denominator"):
        singular_scan_fp(other, 11)
    for model, first in ((reference_section, [23, 29]), (other, [17, 23])):
        good = good_primes(model)
        assert [next(good), next(good)] == first


# -- the plane-by-plane scan against the per-point scan ----------------------------


def rank_mod(rows, p):
    """The rank of integer rows over F_p, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inverse
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def chart_points(ambient, points, p):
    """F_p points of the ambient in its chart coordinates: each point's
    entries at the free columns, scaled so the first nonzero entry is 1."""
    found = []
    for v in points:
        x = [v[f] % p for f in ambient.free]
        inverse = pow(next(a for a in x if a), -1, p)
        found.append(tuple(a * inverse % p for a in x))
    return found


def reference_scan(target, p):
    """The per-point scan that the packed plane-by-plane kernel must agree
    with: every point of projective space is evaluated, the form first and
    then its gradient.  A form with no ambient equations, or a section, is
    read on its chart.  A threefold is read in its six coordinates, on its
    own chart u6 = −Σu of the sum-zero hyperplane, which must hold its
    ambient: a point is singular where it meets the ambient's equations, the
    form vanishes and the six partials lie in the span of the equations mod
    p (for the sum-zero hyperplane alone: are parallel to (1,...,1)).  Its
    points are then read in the library's chart coordinates, in another
    order: the lists compare sorted, and since these points are canonical
    and listed once, sorted equality is equality of sets with no
    duplicates."""
    if not isinstance(target, Hypersurface) or not target.ambient.rows:
        return _brute_force_singular_points(target.chart.mod_p(p))
    equations = target.ambient.rows
    rank = rank_mod(equations, p)
    assert rank == len(equations) == rank_mod([*equations, ONES], p)
    fp = target.form.mod_p(p)
    partials = [fp.poly.partial(i).mod_p(p) for i in range(6)]
    found = []
    for v in _projective_reps(p, 5):
        v += ((-sum(v)) % p,)
        if any(sum(a * b for a, b in zip(eq, v)) % p for eq in equations) or fp.evaluate(v):
            continue
        if rank_mod([*equations, [g.evaluate(v) for g in partials]], p) == rank:
            found.append(v)
    return chart_points(target.ambient, found, p)


def _brute_force_singular_points(fp):
    """Every point of P^{n-1}(F_p) where the form and all its partials vanish."""
    partials = [fp.poly.partial(i).mod_p(fp.p) for i in range(fp.nvars)]
    return [
        v
        for v in _projective_reps(fp.p, fp.nvars)
        if fp.evaluate(v) == 0 and all(g.evaluate(v) == 0 for g in partials)
    ]


def forms(nvars, degree):
    """Sparse integer forms: few small terms, so singular forms are common."""
    monos = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    return st.dictionaries(
        st.sampled_from(monos), st.integers(-3, 3), min_size=1, max_size=8
    ).map(lambda terms: MultiPoly(nvars, terms))


@settings(max_examples=60, deadline=None)
@given(forms(4, 4), st.sampled_from([5, 7, 11, 13]))
def test_section_scan_matches_reference(form, p):
    model = Hypersurface(form, LinearSubspace((), 1, 4))
    assert singular_scan_fp(model, p) == reference_scan(model, p)


@settings(max_examples=40, deadline=None)
@given(st.one_of(forms(2, 3), forms(3, 4), forms(5, 3)), st.sampled_from([5, 7, 11, 13]))
def test_scan_matches_brute_force_in_2_3_and_5_variables(form, p):
    # two variables scan only the line (1, t); three scan one plane; five
    # scan p^2 + p + 1 planes with prefixes of two coordinates
    fp = form.mod_p(p)
    assert varieties._singular_points_fp(fp) == _brute_force_singular_points(fp)


@settings(max_examples=20, deadline=None)
@given(forms(4, 3), st.sampled_from([5, 7, 11, 13]))
def test_scan_of_a_form_vanishing_on_a_scanned_plane(g, p):
    # x0·g vanishes with both its partials in the plane's coordinates on the
    # scanned plane x0 = 0, x1 = 1, so every slot of that plane is a
    # candidate and is confirmed by reading the gradient table at its point
    fp = (MultiPoly.variable(4, 0) * g).mod_p(p)
    read = set()
    table_values = varieties.table_values

    def recorded(table, point):
        read.add(point)
        return table_values(table, point)

    try:
        varieties.table_values = recorded
        found = varieties._singular_points_fp(fp)
    finally:
        varieties.table_values = table_values
    assert found == _brute_force_singular_points(fp)
    assert {(0, 1, y, t) for y in range(p) for t in range(p)} <= read


@settings(max_examples=15, deadline=None)
@given(st.one_of(forms(6, 3), forms(6, 4)), st.sampled_from([5, 7]))
def test_threefold_scan_matches_reference(form, p):
    target = Hypersurface(form, LinearSubspace.from_equations([[Fraction(1)] * 6], 6))
    assert sorted(singular_scan_fp(target, p)) == sorted(reference_scan(target, p))


def test_scan_line_inside_the_surface():
    # x0^2*a + x0*x1*b + x1^2*c is singular along the whole line x0 = x1 = 0,
    # so the form vanishes identically on the scanned lines (0, 0, 1, t)
    x = [MultiPoly.variable(4, i) for i in range(4)]
    a = x[2] * x[2] + x[3] * x[3]
    b = x[2] * x[3]
    c = x[2] * x[2] - x[3] * x[3] * 2 + x[0] * x[1]
    model = Hypersurface(x[0] * x[0] * a + x[0] * x[1] * b + x[1] * x[1] * c, LinearSubspace((), 1, 4))
    for p in (5, 7, 11, 13):
        pts = singular_scan_fp(model, p)
        assert pts == reference_scan(model, p)
        line = [(0, 0, 1, t) for t in range(p)] + [(0, 0, 0, 1)]
        assert pts[-(p + 1):] == line


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_segre_scan_matches_reference(segre, p):
    assert sorted(singular_scan_fp(segre, p)) == sorted(reference_scan(segre, p))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_cr_scan_matches_reference(cr, p):
    assert sorted(singular_scan_fp(cr, p)) == sorted(reference_scan(cr, p))


def test_scan_evaluates_only_candidates(monkeypatch):
    # the kernel confirms each candidate with one read of the gradient
    # table (the form's value follows by Euler's identity), so the reads
    # count the candidates: a per-point scan would read at every one of the
    # p^3 + p^2 + p + 1 points and a filter by the form alone at about one
    # point per line (~p^2); the filter by the form and both partials makes
    # 15 reads, one at each of the 13 singular points, one at the one other
    # candidate and one at (0, 0, 0, 1)
    model = hyperplane_section((0, 1, 3, 14, 15, 17))
    calls = []
    table_values = varieties.table_values

    def counted(table, point):
        calls.append(point)
        return table_values(table, point)

    monkeypatch.setattr(varieties, "table_values", counted)
    p = 37
    pts = singular_scan_fp(model, p)
    assert len(pts) == 13  # 37 is a bad prime for this hyperplane
    assert len(calls) == 15 and set(pts) <= set(calls)


@pytest.mark.parametrize("p", [7, 13])
def test_scan_confirms_every_candidate(monkeypatch, p):
    # with every packed table zero, every slot of every plane sums to 0, so
    # every point is a candidate: the scan must still list exactly the
    # points of the per-point reference scan, each candidate confirmed by
    # one read of the gradient table
    model = hyperplane_section(REFERENCE_COEFFS)
    segre = build_variety("segre")
    expected = [reference_scan(model, p), sorted(reference_scan(segre, p))]
    assert all(expected)
    calls = []
    table_values = varieties.table_values
    monkeypatch.setattr(varieties, "table_values", lambda table, xs: calls.append(xs) or table_values(table, xs))
    monkeypatch.setattr(
        varieties, "_plane_packs", lambda p, deg, width: tuple((0,) * (deg - j + 1) for j in range(deg + 1))
    )
    assert singular_scan_fp(model, p) == expected[0]
    assert len(calls) == len(set(calls)) == (p**4 - 1) // (p - 1)  # every point of P^3(F_p)
    assert sorted(singular_scan_fp(segre, p)) == expected[1]


@pytest.mark.parametrize("p", [127, 131, 251])
def test_packed_kernel_matches_brute_force_with_32_bit_slots(p):
    # a quartic of degree 4 in the last variable has slot bound 5(p-1)^2,
    # which needs 32-bit slots from p = 127 on; a slot's j = 0 term stays
    # below p, so 16 bits would first overflow at larger primes, and at 251
    # they do on these forms
    assert 5 * (p - 1) ** 2 >= 1 << 16
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    conic = x * x + y * y - z * z
    forms = [
        conic * conic,  # singular along the whole conic
        (x - z) * (y - z) * (x + y - z) * (x + y * 2 + z * 3),  # four lines
        z**4 + x * y**3 + x * x * z * z * 2 + y**4,
    ]
    found = []
    for form in forms:
        fp = form.mod_p(p)
        assert max(e[-1] for e in fp.terms) == 4
        found.append(varieties._singular_points_fp(fp))
        assert found[-1] == _brute_force_singular_points(fp)
    assert len(found[0]) == p + 1


@pytest.mark.parametrize("coeffs", [REFERENCE_COEFFS, (0, 1, 3, 14, 15, 17)])
def test_reference_section_scans_match_reference_at_23(coeffs):
    model = hyperplane_section(coeffs)
    assert singular_scan_fp(model, 23) == reference_scan(model, 23)


def test_scan_refuses_a_prime_too_large_for_32_bit_slots(monkeypatch):
    # the form has T = 2 pairs (j, k) and N = 2 powers of x, so its slot
    # bound is 2(p-1)^2, at least 2^32 from p = 46349 on, the first prime
    # where it is; the kernel refuses it before building any table, here
    # before any call to range
    p = 46349
    assert 2 * (p - 1) ** 2 >= 1 << 32 and varieties._is_prime(p)
    x = [MultiPoly.variable(4, i) for i in range(4)]
    fp = (x[3] ** 4 + x[0] * x[1] * x[2] * x[3]).mod_p(p)

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(varieties, "range", no_table, raising=False)
    with pytest.raises(ValueError, match="32-bit slots"):
        varieties._singular_points_fp(fp)


def test_scan_refuses_a_polynomial_that_is_not_a_form():
    # the zero head's planes are summed unreduced, bounded only because each
    # (j, k) carries one power of x in a form; a point of P^3 is also no
    # zero of a polynomial whose value depends on its representative
    x = [MultiPoly.variable(4, i) for i in range(4)]
    fp = (x[3] ** 4 + x[0] * x[1]).mod_p(7)
    with pytest.raises(ValueError, match="^not a form"):
        varieties._singular_points_fp(fp)


def test_scan_refuses_a_form_whose_degree_the_prime_divides(monkeypatch):
    # a candidate is confirmed by its partials alone, since d·f = sum x_i·d_i f
    # gives f = 0 where they vanish when p does not divide d; at p = 5 every
    # partial of x0^5 + x1^5 + x2^5 + x3^5 is 0 mod 5 but the form is 1 at
    # (0, 0, 0, 1), and a nonzero constant (degree 0) has no partial at all.
    # Both are refused before any table is built
    x = [MultiPoly.variable(4, i) for i in range(4)]
    quintic = sum((xi**5 for xi in x), MultiPoly.zero(4)).mod_p(5)
    _, rows = partials_table(quintic.poly, 1)
    assert all(c % 5 == 0 for row in rows for c in row) and quintic.evaluate((0, 0, 0, 1)) == 1

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(varieties, "range", no_table, raising=False)
    monkeypatch.setattr(varieties, "partials_table", no_table)
    for fp in (quintic, MultiPoly.constant(4, 3).mod_p(7)):
        with pytest.raises(ValueError, match=f"^bad prime: {fp.p} divides the degree of the form$"):
            varieties._singular_points_fp(fp)


@pytest.mark.parametrize("width", [16, 32])
@pytest.mark.parametrize("p", [5, 23, 37, 127, 131, 251])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_slot_reducer_matches_struct_residues(width, p, data):
    # every slot value of the width, so with 16-bit slots and p >= 128 the
    # residues of a slot's two bytes could sum past a byte: those primes
    # must take the struct path, and every p < 128 the byte path
    slots = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=40))
    layout = f"<{len(slots)}{varieties._SLOT_FORMATS[width]}"
    packed = int.from_bytes(struct.pack(layout, *slots), "little")
    reduce = varieties._slot_reducer(p, width, len(slots))
    assert (reduce.__name__ == "byte_residues") == (width == 16 and p < 128)
    reduced = reduce(packed).to_bytes(len(slots) * width // 8, "little")
    assert list(struct.unpack(layout, reduced)) == [v % p for v in slots]


def test_packed_kernel_bounds_plane_slots_by_the_powers_of_x():
    # t^8 − (r·x0 − x1)^8 has T = 2 pairs (j, k), (0, 0) and (8, 0), and
    # N = 9 powers of x = x1, so at p = 151 only N·(p−1)² needs 32-bit slots.
    # It is singular exactly on the line r·x0 = x1, t = 0, whose points other
    # than (0, 0, 1, 0) lie on the plane x = r, and there every slot on the
    # line holds sum_e (r^e mod p)·(c_e mod p), past 2^16
    p, r = 151, 12
    assert 2 * (p - 1) ** 2 < 1 << 16 <= 9 * (p - 1) ** 2
    x0, x1, _, t = (MultiPoly.variable(4, i) for i in range(4))
    fp = (t**8 - (x0 * r - x1) ** 8).mod_p(p)
    assert sum(pow(r, e, p) * fp.terms[8 - e, e, 0, 0] for e in range(9)) >= 1 << 16
    assert varieties._singular_points_fp(fp) == [(1, r, y, 0) for y in range(p)] + [(0, 0, 1, 0)]


def _bench_draw(rng, p):
    """A hyperplane section as the sections benchmark draws them (six
    coefficients in [−30, 30]) whose chart reduces mod p."""
    while True:
        try:
            model = hyperplane_section([rng.randint(-30, 30) for _ in range(6)])
            model.chart.mod_p(p)
        except ValueError:  # a GenericityError, or p divides a denominator
            continue
        return model


@pytest.mark.parametrize("p", [29, 31, 37])
def test_seeded_sections_scan_as_the_reference_at_bench_primes(p):
    # the slot width and the reduction path depend on p: at the benchmark's
    # other primes every line's tables are reduced by the byte path
    model = _bench_draw(random.Random(p), p)
    assert singular_scan_fp(model, p) == reference_scan(model, p)


def test_scan_accepts_sum_zero_in_any_representation(segre):
    # (2,...,2) over den 2 is the sum-zero hyperplane, normalised to SUM_ZERO
    doubled = Hypersurface(segre_form(), LinearSubspace(((2,) * 6,), 2, 6))
    assert singular_scan_fp(doubled, 5) == singular_scan_fp(segre, 5)
    assert len(singular_scan_fp(doubled, 5)) == 10
    # any linear ambient is scanned on its chart: on the plane u1 = u2 of
    # the sum-zero hyperplane the cubic surface is singular at the 4 nodes
    # with u1 = u2, node_point({1, 2, k}) for k = 3..6
    plane = Hypersurface(segre_form(), LinearSubspace.from_equations([ONES, (1, -1, 0, 0, 0, 0)], 6))
    pts = singular_scan_fp(plane, 5)
    assert sorted(pts) == sorted(reference_scan(plane, 5))
    nodes = [node_point((1, 2, k)).coords for k in range(3, 7)]
    assert sorted(pts) == sorted(chart_points(plane.ambient, nodes, 5))


def test_sampler_height_grows_every_forty_attempts(monkeypatch):
    drawn = []
    plane_point = varieties.plane_point

    def recorded(s, params):
        drawn.append(params)
        return plane_point(s, params)

    monkeypatch.setattr(varieties, "plane_point", recorded)
    # seed 1170 needs 43 attempts to leave the syntheme planes; each attempt
    # draws the parameters of two plane points
    sample_smooth_cubic_point(random.Random(1170), avoid_planes=True)
    attempts = [drawn[k : k + 2] for k in range(0, len(drawn), 2)]
    assert len(attempts) == 43
    for k, pair in enumerate(attempts):
        assert all(abs(x) <= 3 + 4 * (k // 40) for params in pair for x in params), k
    assert max(abs(x) for pair in attempts[40:] for params in pair for x in params) > 3


# -- the integer sampler against the Fraction sampler it replaced ----------------


def fraction_plane_point(s, params):
    """The point of the cubic's plane for s as Fractions: parametrization·params."""
    return param_point(syntheme_plane(s), [Fraction(x) for x in params])


def fraction_sample(rng, avoid_planes=False):
    """The Fraction sampler: Fraction plane points, the binary cubic along the
    chord by symbolic substitution, and a ProjectivePoint for every candidate."""
    segre = build_variety("segre")
    all_synthemes = synthemes()
    planes = [syntheme_plane(s) for s in all_synthemes]
    height = 3
    for attempt in range(400):
        if attempt and attempt % 40 == 0:
            height += 4
        s1, s2 = rng.sample(all_synthemes, 2)
        pa = fraction_plane_point(s1, [rng.randint(-height, height) for _ in range(3)])
        pb = fraction_plane_point(s2, [rng.randint(-height, height) for _ in range(3)])
        if all(x == 0 for x in pa) or all(x == 0 for x in pb):
            continue
        cubic = segre.form.substitute_linear(list(zip(pa, pb)))
        c21 = coefficient(cubic, (2, 1))
        c12 = coefficient(cubic, (1, 2))
        if coefficient(cubic, (3, 0)) or coefficient(cubic, (0, 3)):
            continue
        if c21 == 0:
            continue
        coords = [a * c12 - b * c21 for a, b in zip(pa, pb)]
        if all(x == 0 for x in coords):
            continue
        point = ProjectivePoint(coords)
        grad = [value(g, point.coords) for g in segre.gradient]
        if segre.ambient.annihilates(grad):
            continue
        if avoid_planes and any(pl.contains(point.coords) for pl in planes):
            continue
        return point
    raise RuntimeError("failed to sample a smooth rational point of the cubic")


def _outcome(sampler, rng, *args):
    try:
        return sampler(rng, *args)
    except RuntimeError as exc:  # all 400 chords refused
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_sampler_matches_the_fraction_sampler(seed, avoid_planes):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(2):
        got = _outcome(sample_smooth_cubic_point, rng, avoid_planes)
        assert got == _outcome(fraction_sample, ref_rng, avoid_planes)
        assert rng.getstate() == ref_rng.getstate()


def test_plane_point_is_the_fraction_point_scaled():
    for s in synthemes():
        plane = syntheme_plane(s)
        for params in ([1, 2, 3], [0, -1, 4], [Fraction(1, 2), Fraction(-2, 3), 5]):
            ints = varieties.plane_point(s, params)
            q = clear_denominators(params)[1]
            assert all(type(x) is int for x in ints)
            assert [Fraction(x, q * plane.den) for x in ints] == fraction_plane_point(s, params)


def test_plane_point_is_the_kernel_column_combination():
    for s in synthemes():
        plane = syntheme_plane(s)
        for params in ([1, 2, 3], [-4, 0, 7], [Fraction(1, 2), Fraction(-2, 3), 5]):
            x = clear_denominators(params)[0]
            got = varieties.plane_point(s, params)
            assert got == [sum(a * col[i] for a, col in zip(x, plane.kernel)) for i in range(6)]
            assert plane.contains(got)
            assert value(segre_form(), got) == 0
        for bad in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match="parameter vector"):
                varieties.plane_point(s, bad)


def test_sample_stream_is_pinned():
    # no report byte names the sampled points, so a change to the draws or
    # refusals shows here: the first 200 default samples of seed 1, and the
    # hyperplane of the seed-7 tangent section
    rng = random.Random(1)
    text = "\n".join(" ".join(map(str, sample_smooth_cubic_point(rng).coords)) for _ in range(200))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "2f569ddba6a127d1ca30247ce1556e439e64a730bd5c58c6b71658f2afd8d0cb"
    assert sample_tangent_section(random.Random(7)).hyperplane == (16, -21, 11, 24, -21, -9)


def test_sampler_reads_the_planes_only_to_avoid_them(monkeypatch):
    # without avoid_planes a draw touches a syntheme plane only to read its
    # two chord ends, and tests no point against a plane
    calls = {"plane_point": 0, "syntheme_plane": 0, "contains": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("plane_point", "syntheme_plane"):
        monkeypatch.setattr(varieties, name, counted(name, getattr(varieties, name)))
    monkeypatch.setattr(LinearSubspace, "contains", counted("contains", LinearSubspace.contains))
    rng = random.Random(5)
    for _ in range(100):
        sample_smooth_cubic_point(rng)
    assert calls["contains"] == 0
    assert calls["syntheme_plane"] == calls["plane_point"] >= 200
    planes = [syntheme_plane(s) for s in synthemes()]
    for _ in range(100):
        z = sample_smooth_cubic_point(rng, avoid_planes=True)
        assert not any(pl.contains(z.coords) for pl in planes)


small_vectors = st.lists(st.integers(-40, 40), min_size=6, max_size=6)


@st.composite
def plane_points(draw):
    """The integer point of a random syntheme plane, as the sampler draws it."""
    s = draw(st.sampled_from(synthemes()))
    return varieties.plane_point(s, draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3)))


def test_syntheme_planes_lie_on_the_cubic():
    # the lemma the sampler's chord relies on: both chord ends are on the cubic
    for s in synthemes():
        plane = syntheme_plane(s)
        assert not segre_form().substitute_linear(plane.parametrization, plane.den)


@settings(max_examples=300, deadline=None)
@given(plane_points(), plane_points())
def test_chord_cubic_matches_substitution(pa, pb):
    # along a chord between plane points the binary cubic has c30 = c03 = 0,
    # and c21, c12 are (plus ∓ minus)/2 for the values plus, minus at pa ± pb
    cubic = segre_form().substitute_linear(list(zip(pa, pb)))
    assert coefficient(cubic, (3, 0)) == coefficient(cubic, (0, 3)) == 0
    plus = segre_form()._integer_value([a + b for a, b in zip(pa, pb)])
    minus = segre_form()._integer_value([a - b for a, b in zip(pa, pb)])
    assert coefficient(cubic, (2, 1)) == Fraction(plus - minus, 2)
    assert coefficient(cubic, (1, 2)) == Fraction(plus + minus, 2)


def test_integer_readings_clear_a_form_with_a_denominator(monkeypatch):
    # a Hypersurface stores its form times den: the same zero set, with every
    # partial integral, so the integer readings need no refusal
    rational = segre_form().scale(Fraction(3, 2))
    v = Hypersurface(rational, varieties.SUM_ZERO)
    assert v.form == segre_form().scale(3) and v.form.den == 1
    assert all(g.den == 1 for g in v.gradient)
    # at a rational point x/d the chart Hessian is integral, with the one
    # scale 3·d^(3−2) on every entry, and the chart gradient with 3·d^(3−1):
    # the chain rule pairs the form's derivatives with the kernel columns
    point = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), 0, 0]
    d = 6
    cols = v.ambient.kernel
    x, hess, hx = v.node_reading(point)
    assert x == [-3, 2, -2, 0, 0]  # the cleared point at the free columns
    for a, ca in enumerate(cols):
        for b, cb in enumerate(cols):
            expected = sum(
                x * y * value(segre_form().partial(i).partial(j), point)
                for i, x in enumerate(ca)
                for j, y in enumerate(cb)
            )
            assert type(hess[a][b]) is int and hess[a][b] == 3 * d * expected
    # H·x is the chart gradient times deg − 1 = 2 (Euler's identity)
    assert hx == [2 * 3 * d * d * sum(a * value(g, point) for a, g in zip(c, segre_form().gradient())) for c in cols]
    assert all(type(a) is int for a in hx)
    # the sampler on the rational form reads its chord values off the
    # cleared form, so it draws the same points
    expected = sample_smooth_cubic_point(random.Random(1))
    monkeypatch.setattr(varieties, "build_variety", lambda kind: v)
    assert sample_smooth_cubic_point(random.Random(1)) == expected


def fraction_duality_image(z):
    """y_i = z_i^2 − s/6 over the Fractions, or the refusal's message."""
    c = [Fraction(x) for x in z.coords]
    if sum(c) != 0 or sum(x**3 for x in c) != 0:
        return "point is not on the cubic"
    s = sum(x * x for x in c)
    y = [x * x - s / 6 for x in c]
    if all(v == 0 for v in y):
        return "duality image undefined at a node of the cubic"
    return ProjectivePoint(y)


@st.composite
def duality_sources(draw):
    """Points on the cubic (sampled, on a plane, at a node) and points off it."""
    kind = draw(st.sampled_from(["sample", "plane", "node", "off"]))
    if kind == "sample":
        return sample_smooth_cubic_point(random.Random(draw(st.integers(0, 10**6))))
    if kind == "plane":
        s = draw(st.sampled_from(synthemes()))
        params = draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3).filter(any))
        return ProjectivePoint(varieties.plane_point(s, params))
    if kind == "node":
        return varieties.node_point(draw(st.sampled_from(three_subsets())))
    v = draw(small_vectors.filter(any))
    if draw(st.booleans()):
        v[-1] -= sum(v)  # on the sum-zero hyperplane, rarely on the cubic
    assume(any(v))
    return ProjectivePoint([Fraction(x, 7) for x in v])


@settings(max_examples=200, deadline=None)
@given(duality_sources())
def test_duality_image_matches_the_fraction_formula(z):
    expected = fraction_duality_image(z)
    if isinstance(expected, str):
        with pytest.raises(NotOnVarietyError, match=expected):
            duality_image(z)
        return
    img = duality_image(z)
    assert img.source is z
    assert img.point == expected
    assert img.quartic_value == 0


def test_tangent_section_16_nodes():
    rng = random.Random(11)
    model = sample_tangent_section(rng)
    assert len(model.nodes) == 16
    assert sum(1 for n in model.nodes if n.syntheme is None) == 1
    assert all(n.certificate.is_ordinary for n in model.nodes)


def test_tangent_section_sixteenth_node_is_the_tangency_point():
    rng = random.Random(23)
    lines = [syntheme_line(s) for s in synthemes()]
    while True:
        z = sample_smooth_cubic_point(rng, avoid_planes=True)
        y = duality_image(z).point
        if any(l.contains(y.coords) for l in lines):
            continue
        try:
            model = tangent_section(y)
        except (GenericityError, NotOnVarietyError):
            continue
        break
    extra = [n for n in model.nodes if n.syntheme is None]
    assert len(extra) == 1 and extra[0].ambient == y


def test_tangent_hyperplane_is_the_six_partials_reduced():
    # the chart gradient placed at the free columns names the hyperplane of
    # the six partials at the point, reduced modulo (1,...,1)
    rng = random.Random(3)
    checked = 0
    while checked < 4:
        y = duality_image(sample_smooth_cubic_point(rng, avoid_planes=True)).point
        try:
            model = tangent_section(y)
        except (GenericityError, NotOnVarietyError):
            continue
        grad = [value(g, y.coords) for g in cr_quartic_form().gradient()]
        assert ProjectivePoint([6 * g - sum(grad) for g in grad]).coords == model.hyperplane
        checked += 1


def test_tangent_section_rejects_singular_point():
    # points of a double line are singular on the quartic
    line = syntheme_line(synthemes()[0])
    pt = ProjectivePoint(param_point(line, [1, 2]))
    with pytest.raises(NotOnVarietyError, match="singular"):
        tangent_section(pt)


def test_cached_constants_do_not_go_stale(tmp_path):
    path = tmp_path / "r.json"
    argv = ["--seed", "3", "--no-timing", "--json", str(path), "duality", "--samples", "40"]
    cached = (syntheme_plane, syntheme_line, segre_form, cr_quartic_form, build_variety)
    for fn in cached:
        fn.cache_clear()
    reports = []  # the first run builds the constants, the second reuses them
    for _ in range(2):
        code, _ = cli.run(argv, out=io.StringIO())
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    for s in synthemes():
        assert syntheme_plane(s) is syntheme_plane(s)
        assert syntheme_plane(s) == syntheme_plane.__wrapped__(s)  # a fresh build
        assert syntheme_line(s) is syntheme_line(s)
        assert syntheme_line(s) == syntheme_line.__wrapped__(s)
    for form in (segre_form, cr_quartic_form):
        assert form() is form()
        assert form() == form.__wrapped__()
    for kind in ("segre", "cr"):
        assert build_variety(kind) is build_variety(kind)
        assert build_variety(kind) == build_variety.__wrapped__(kind)
    for d in duads():
        assert duad_point(d) is duad_point(d) and duad_point(d) == duad_point.__wrapped__(d)
    for subset in three_subsets():
        assert cardinal_coefficients(subset) == cardinal_coefficients.__wrapped__(subset)


@pytest.mark.parametrize("kind", ["segre", "cr"])
def test_hypersurface_derivatives_are_built_once_and_read_only(kind):
    v = build_variety(kind)
    form = v.form
    assert v.gradient is v.gradient and v._second_partials is v._second_partials and v.chart is v.chart
    assert v.gradient == tuple(form.gradient())
    # the chart form g is the form on the sum-zero chart in its 5 free
    # coordinates; the node readings hold each d_i d_j g, i <= j, as one
    # monomial table, and no other derivative of it
    chart = form.substitute_linear(v.ambient.parametrization, v.ambient.den)
    assert v.chart == chart
    n = chart.nvars
    assert n == 5 and chart.den == 1
    partials = v._second_partials
    assert partials == monomial_table([chart.partial(i).partial(j) for i in range(n) for j in range(i, n)])
    monomials, rows = partials
    assert len(rows) == n * (n + 1) // 2 and all(len(m) == chart.total_degree() - 2 for m in monomials)
    fresh = Hypersurface(form, v.ambient)
    certify_ordinary_node(fresh, node_point((1, 2, 3)) if kind == "segre" else duad_point((1, 2)))
    assert set(vars(fresh)) == {"form", "ambient", "chart", "_second_partials"}
    with pytest.raises(TypeError):
        v.gradient[0] = MultiPoly.zero(form.nvars)
    with pytest.raises(TypeError):
        rows[0] = ()
    with pytest.raises(TypeError):
        rows[0][0] = 0
    with pytest.raises(TypeError):
        monomials[0] = ()
    with pytest.raises(AttributeError):
        v.gradient = ()
    with pytest.raises(AttributeError):
        v._second_partials = ()
    with pytest.raises(AttributeError):
        v.chart = form
    with pytest.raises(AttributeError):
        v.gradient[0].nums.clear()


@settings(max_examples=60, deadline=None)
@given(st.one_of(forms(4, 4), forms(6, 3), forms(3, 2)), st.data())
def test_node_reading_is_euler_on_the_chart_hessian(form, data):
    # for the cleared chart g of degree d the reading's H·x is (d−1)·∇g(x)
    # and x·H·x is d(d−1)·g(x): both checked against each first partial's
    # and g's own `_integer_value` at the cleared point, on the form (where
    # the reading accepts the point) and off it (where it refuses it)
    n, deg = form.nvars, form.total_degree()
    xs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n).filter(any))
    q = data.draw(st.integers(2, 30))
    k = next(i for i, x in enumerate(xs) if x)
    # xs_k^D·f − f(xs)·x_k^D vanishes at xs
    on = form * xs[k] ** deg - MultiPoly.variable(n, k) ** deg * form._integer_value(xs)
    free = LinearSubspace((), 1, n)
    for point in (xs, [Fraction(x, q) for x in xs]):
        ys = clear_denominators(point)[0]
        for v in (Hypersurface(form, free), Hypersurface(on, free)):
            assert v.chart is v.form  # no equations: the chart is the form
            g = v.chart
            hess = v.hessian_at(ys)
            assert hess == [[g.partial(i).partial(j)._integer_value(ys) for j in range(n)] for i in range(n)]
            hx = [sum(a * b for a, b in zip(row, ys)) for row in hess]
            assert hx == [(deg - 1) * p._integer_value(ys) for p in g.gradient()]
            assert sum(a * b for a, b in zip(hx, ys)) == deg * (deg - 1) * g._integer_value(ys)
            if g._integer_value(ys):
                with pytest.raises(NotOnVarietyError, match="not on the variety"):
                    v.node_reading(point)
            else:
                assert v.node_reading(point) == (ys, hess, hx)


def test_node_reading_refuses_a_form_of_degree_below_two():
    # Euler's identity needs d − 1 >= 1; the zero chart reads as zeros
    free = LinearSubspace((), 1, 3)
    for form in (MultiPoly.linear_form([1, 2, 3]), MultiPoly.constant(3, 5)):
        v = Hypersurface(form, free)
        with pytest.raises(ValueError, match="degree at least 2"):
            v.node_reading([1, 1, -1])
        with pytest.raises(ValueError, match="degree at least 2"):
            certify_ordinary_node(v, ProjectivePoint([1, 1, -1]))
    v = Hypersurface(MultiPoly.linear_form(ONES), varieties.SUM_ZERO)
    assert not v.chart
    assert v.node_reading([1, -1, 0, 0, 0, 0]) == ([-1, 0, 0, 0, 0], [[0] * 5 for _ in range(5)], [0] * 5)


def test_node_certificate_reads_the_hessian_from_the_second_partials(monkeypatch):
    # the chart Hessian H of the certificate is read off the cached table of
    # the second partials of the cleared chart, so a changed coefficient
    # there reaches both the Euler value x·H·x and the matrix that is ranked
    model = hyperplane_section(REFERENCE_COEFFS)
    surface = Hypersurface(model.chart, LinearSubspace((), 1, 4))
    node = model.nodes[0].chart_point
    x = list(node.coords)
    assert x == [3, 3, -1, -1]
    partials = surface._second_partials
    monomials, rows = partials  # rows d_0 d_0, d_0 d_1, ..., d_1 d_1 at index 4
    k = next(k for k, mono in enumerate(monomials) if rows[1][k] and math.prod(x[i] for i in mono))
    m = math.prod(x[i] for i in monomials[k])

    def shifted(changes):
        """The table with `amount` added to the coefficient of monomial k in
        each (row, amount) of changes."""
        new = [list(row) for row in rows]
        for r, amount in changes:
            new[r][k] += amount
        surface.__dict__["_second_partials"] = (monomials, tuple(map(tuple, new)))

    # d_0 d_1 g changed by one: H[0][1] and H[1][0] move by m, x·H·x by
    # 2·m·x_0·x_1, and the point is refused as off the form
    before = surface.hessian_at(x)
    shifted([(1, 1)])
    after = surface.hessian_at(x)
    assert [[b - a for a, b in zip(r, s)] for r, s in zip(before, after)] == [
        [0, m, 0, 0],
        [m, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    with pytest.raises(NotOnVarietyError, match="not on the variety"):
        certify_ordinary_node(surface, node)
    # a change by m·w·wᵀ with w = (x_1, −x_0, 0, 0) keeps H·x = 0, so the
    # point stays a node, and the ranked matrix (H without the last
    # coordinate, 3) moves by exactly that change
    charts = []
    bareiss = varieties.bareiss
    monkeypatch.setattr(varieties, "bareiss", lambda a, **kw: charts.append(a) or bareiss(a, **kw))
    surface.__dict__["_second_partials"] = partials
    certify_ordinary_node(surface, node)
    shifted([(0, x[1] ** 2), (1, -x[0] * x[1]), (4, x[0] ** 2)])
    certify_ordinary_node(surface, node)
    w = [x[1], -x[0], 0]
    assert len(charts) == 2
    assert [[b - a for a, b in zip(r, s)] for r, s in zip(*charts)] == [[m * a * b for b in w] for a in w]


def test_cached_constants_are_immutable():
    assert duad_point((1, 2)) is duad_point((1, 2))
    with pytest.raises(AttributeError):
        duad_point((1, 2)).coords = (1,) * 6
    with pytest.raises(TypeError):
        duad_point((1, 2)).coords[0] = 1
    assert cardinal_coefficients((1, 2, 3)) is cardinal_coefficients((1, 2, 3))
    with pytest.raises(TypeError):
        cardinal_coefficients((1, 2, 3))[0] = -1
    assert cardinal_coefficients((1, 2, 3)) == (1, 1, 1, -1, -1, -1)
    plane = syntheme_plane(synthemes()[0])
    with pytest.raises(AttributeError):
        plane.rows = ()
    with pytest.raises(AttributeError):
        plane.parametrization = ()
    with pytest.raises(TypeError):
        plane.parametrization[0] = ()
    with pytest.raises(TypeError):
        plane.kernel[0] = ()
    with pytest.raises(AttributeError):
        cr_quartic_form().nums = {}
    with pytest.raises(AttributeError):
        cr_quartic_form().den = 2


def test_polynomial_terms_are_read_only():
    form = cr_quartic_form()
    with pytest.raises(AttributeError):
        form.nums.clear()
    with pytest.raises(TypeError):
        form.nums[(4, 0, 0, 0, 0, 0)] = 0
    assert len(cr_quartic_form().nums) == 21 and form.den == 1
    fp = form.mod_p(7)
    with pytest.raises(AttributeError):
        fp.terms.clear()
    with pytest.raises(TypeError):
        fp.terms[(4, 0, 0, 0, 0, 0)] = 1
    assert fp.terms == {e: c % 7 for e, c in form.nums.items() if c % 7}
