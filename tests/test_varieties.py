import io
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracle import fraction_kernel, fraction_rref, fraction_solve, rationals, value
from quartic15 import cli
from quartic15.configs import duads, synthemes, three_subsets
from quartic15.exact import ModPoly, MultiPoly, perfect_square_factor
from quartic15.lattice import clear_denominators, mat_mul
from quartic15 import varieties
from quartic15.varieties import (
    ONES,
    Hypersurface,
    LinearSubspace,
    SectionModel,
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


def scaled(vectors, den):
    """Each vector multiplied by den."""
    return tuple(tuple(den * x for x in v) for v in vectors)


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
    from quartic15.configs import apply_perm_syntheme

    for g in s6_elements()[::97]:
        for s in synthemes():
            img = syntheme_line(apply_perm_syntheme(g, s))
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


def test_generic_chord_is_not_double_line(cr):
    # a line through two points of the quartic is not in the singular locus
    p1 = param_point(syntheme_line(synthemes()[0]), [1, 2])
    p2 = param_point(syntheme_line(synthemes()[5]), [3, 1])
    chord = LinearSubspace.from_equations(LinearSubspace.from_equations([p1, p2], 6).kernel, 6)
    assert verify_double_line(cr, chord) is False


# -- charts: LinearSubspace against Fraction solves --------------------------------


def greedy_chart_basis(point, constraints, nvars):
    """The chart the certificate used to take: the Fraction kernel basis of
    the constraints, kept greedily while it stays independent of the point."""
    space = fraction_kernel(constraints, nvars)
    chosen = [list(point)]
    for cand in space:
        if len(fraction_rref(chosen + [cand])[1]) == len(chosen) + 1:
            chosen.append(cand)
    assert len(chosen) == len(space)
    return tuple(tuple(c) for c in chosen[1:])


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
    assert space.coordinates(p) == expected
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
    with pytest.raises(ValueError, match="has 3 entries, expected 6"):
        cr.ambient.coordinates([1, -1, 0])
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
    for pt in map(node_point, three_subsets()):
        cert = certify_ordinary_node(segre, pt)
        assert cert.chart == scaled(greedy_chart_basis(pt.coords, segre.ambient.rows, 6), segre.ambient.den)


def test_chart_matches_greedy_basis_on_section_nodes(reference_section):
    # the section chart has no constraints, so its den is 1
    for node in reference_section.nodes:
        assert node.certificate.chart == scaled(greedy_chart_basis(node.chart_point.coords, (), 4), 1)


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
    assert cert.chart == scaled(greedy_chart_basis(pt.coords, space.rows, nvars), surface.ambient.den)


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
    assert res.scale * res.square_root * res.square_root == cr_quartic_form().substitute_linear(
        fraction_parametrization(plane)
    )


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
        assert cr_quartic_form().substitute_linear(chart) == model.quartic3


def test_section_quartic_takes_the_ambient_values():
    # the scale of quartic3 pinned without `substitute_linear`: its value at
    # integer parameters x is the quartic's value at Σ x_k·kernel_k / den
    # (the reference charts normalise to den 1; this hyperplane's is den 14)
    rng = random.Random(7)
    form = cr_quartic_form()
    model = hyperplane_section((-5, 9, -7, -1, -6, 6))
    chart = LinearSubspace.from_equations([ONES, model.hyperplane], 6)
    assert chart.den > 1
    for _ in range(8):
        x = [rng.randint(-5, 5) for _ in range(4)]
        point = [Fraction(sum(c * col[i] for c, col in zip(x, chart.kernel)), chart.den) for i in range(6)]
        assert value(model.quartic3, x) == value(form, point), x


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
        assert t.conic.total_degree() == 2
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: hyperplane_section(REFERENCE_COEFFS),
        lambda: hyperplane_section((0, 1, 3, 14, 15, 17)),
        lambda: sample_tangent_section(random.Random(11)),
    ],
    ids=["reference", "second-reference", "tangent"],
)
def test_tropes_match_the_three_equation_oracle(make):
    # the trope plane as {sum u = 0, hp = 0, cardinal = 0} in six variables:
    # the quartic restricted to it is a perfect square, its members are the
    # incident nodes, and it is spanned by the plane the conic lives on
    model = make()
    form = cr_quartic_form()
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
        chart = mat_mul(card.plane.parametrization, trope.parametrization)
        assert all(plane.contains(col) for col in zip(*chart))
        assert card.scale * t.conic * t.conic == form.substitute_linear(chart, card.plane.den * trope.den)


def test_sections_read_the_cached_cardinal_records(monkeypatch):
    hyperplane_section(REFERENCE_COEFFS)  # warm the cache
    form = cr_quartic_form()
    calls = {"square": 0, "quartic": 0}
    substitute = MultiPoly.substitute_linear

    def counted_substitute(self, *args, **kwargs):
        calls["quartic"] += self is form
        return substitute(self, *args, **kwargs)

    def counted_square(f):
        calls["square"] += 1
        return perfect_square_factor(f)

    monkeypatch.setattr(MultiPoly, "substitute_linear", counted_substitute)
    monkeypatch.setattr(varieties, "perfect_square_factor", counted_square)
    model = hyperplane_section((0, 1, 3, 14, 15, 17))
    assert len(model.tropes) == 10
    assert calls == {"square": 0, "quartic": 1}  # the section chart only
    assert cardinal_restriction.cache_info().currsize == 10


def test_cardinal_restriction_is_one_shared_frozen_record():
    for subset in three_subsets():
        res = cardinal_restriction(subset)
        assert cardinal_restriction(subset) is res
        scale = res.scale
        with pytest.raises(AttributeError):
            res.scale = Fraction(1)
        assert res.scale == scale


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
    # the scanned set is exactly the union of the reduced double lines
    from quartic15.exact import primitive_integer_vector

    int_eqs = {s: [primitive_integer_vector(eq) for eq in syntheme_line(s).rows] for s in synthemes()}

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
        "so the three nodes on each such duad's lines collide in reduction"
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
        # the threefold scan's route: P^4 representatives plus the coordinate
        # that makes the sum zero
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


def test_cli_composite_scan_prime_check_is_red():
    code, report = cli.run(
        ["section", "--coeffs=0,1,3,14,15,17", "--scan-prime", "25"], out=io.StringIO()
    )
    assert code == 1
    (check,) = [c for c in report.checks if c["id"].startswith("section-scan-f25")]
    assert check["status"] == "fail"
    assert check["details"] == "unexpected error: bad prime: 25 is not prime"
    assert check["error"]["type"] == "ValueError"
    assert check["error"]["where"].startswith("varieties.py:")


# -- the plane-by-plane scan against the per-point scan ----------------------------


def reference_scan(target, p):
    """The per-point scan that the packed plane-by-plane kernel must agree
    with: every point of projective space is evaluated, the form first and
    then its gradient."""
    if isinstance(target, Hypersurface):
        fp = target.form.mod_p(p)
        partials = [fp.partial(i) for i in range(6)]
        found = []
        for v in _projective_reps(p, 5):
            v += ((-sum(v)) % p,)
            if fp.evaluate(v):
                continue
            g = [gi.evaluate(v) for gi in partials]
            if all(x == g[0] for x in g):  # gradient parallel to (1,...,1)
                found.append(v)
        return found
    return _brute_force_singular_points(target.quartic3.mod_p(p))


def _brute_force_singular_points(fp):
    """Every point of P^{n-1}(F_p) where the form and all its partials vanish."""
    partials = [fp.partial(i) for i in range(fp.nvars)]
    return [
        v
        for v in _projective_reps(fp.p, fp.nvars)
        if fp.evaluate(v) == 0 and all(g.evaluate(v) == 0 for g in partials)
    ]


def _section_of(form):
    """A SectionModel carrying only the quartic: all the scan reads."""
    return SectionModel((), form, (), ())


def forms(nvars, degree):
    """Sparse integer forms: few small terms, so singular forms are common."""
    monos = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    return st.dictionaries(
        st.sampled_from(monos), st.integers(-3, 3), min_size=1, max_size=8
    ).map(lambda terms: MultiPoly(nvars, terms))


@settings(max_examples=60, deadline=None)
@given(forms(4, 4), st.sampled_from([5, 7, 11, 13]))
def test_section_scan_matches_reference(form, p):
    model = _section_of(form)
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
    # candidate and is confirmed by evaluating the form at its point
    fp = (MultiPoly.variable(4, 0) * g).mod_p(p)
    evaluated = set()
    evaluate = ModPoly.evaluate

    def recorded(self, point):
        evaluated.add(point)
        return evaluate(self, point)

    try:
        ModPoly.evaluate = recorded
        found = varieties._singular_points_fp(fp)
    finally:
        ModPoly.evaluate = evaluate
    assert found == _brute_force_singular_points(fp)
    assert {(0, 1, y, t) for y in range(p) for t in range(p)} <= evaluated


@settings(max_examples=15, deadline=None)
@given(st.one_of(forms(6, 3), forms(6, 4)), st.sampled_from([5, 7]))
def test_threefold_scan_matches_reference(form, p):
    target = Hypersurface(form, LinearSubspace.from_equations([[Fraction(1)] * 6], 6))
    assert singular_scan_fp(target, p) == reference_scan(target, p)


def test_scan_line_inside_the_surface():
    # x0^2*a + x0*x1*b + x1^2*c is singular along the whole line x0 = x1 = 0,
    # so the form vanishes identically on the scanned lines (0, 0, 1, t)
    x = [MultiPoly.variable(4, i) for i in range(4)]
    a = x[2] * x[2] + x[3] * x[3]
    b = x[2] * x[3]
    c = x[2] * x[2] - x[3] * x[3] * 2 + x[0] * x[1]
    model = _section_of(x[0] * x[0] * a + x[0] * x[1] * b + x[1] * x[1] * c)
    for p in (5, 7, 11, 13):
        pts = singular_scan_fp(model, p)
        assert pts == reference_scan(model, p)
        line = [(0, 0, 1, t) for t in range(p)] + [(0, 0, 0, 1)]
        assert pts[-(p + 1):] == line


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_segre_scan_matches_reference(segre, p):
    assert singular_scan_fp(segre, p) == reference_scan(segre, p)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_cr_scan_matches_reference(cr, p):
    assert singular_scan_fp(cr, p) == reference_scan(cr, p)


def test_scan_evaluates_only_candidates(monkeypatch):
    # the kernel confirms candidates with ModPoly.evaluate; a per-point scan
    # would evaluate at every one of the p^3 + p^2 + p + 1 points, a filter
    # by the form alone at about one point per line (~p^2), and one by the
    # form and its t-partial, without the y-partial, at 189 calls here; with
    # all three it makes 68: five at each of the 13 singular points, two at
    # the one other candidate and one at (0, 0, 0, 1)
    model = hyperplane_section((0, 1, 3, 14, 15, 17))
    calls = []
    evaluate = ModPoly.evaluate

    def counted(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(ModPoly, "evaluate", counted)
    p = 37
    pts = singular_scan_fp(model, p)
    assert len(pts) == 13  # 37 is a bad prime for this hyperplane
    assert 0 < len(calls) < p**3 / 10
    assert len(calls) < 3 * p


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


def test_scan_refuses_a_prime_too_large_for_64_bit_slots(monkeypatch):
    # 5(p-1)^2 >= 2^64 for p = 2^31 - 1; the kernel refuses it before
    # building any table, here before any call to range
    x = [MultiPoly.variable(4, i) for i in range(4)]
    fp = (x[3] ** 4 + x[0] * x[1] * x[2] * x[3]).mod_p(2**31 - 1)

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(varieties, "range", no_table, raising=False)
    with pytest.raises(ValueError, match="64-bit slots"):
        varieties._singular_points_fp(fp)


def test_scan_accepts_sum_zero_in_any_representation(segre):
    # (2,...,2) over den 2 is the sum-zero hyperplane, normalised to SUM_ZERO
    doubled = Hypersurface(segre_form(), LinearSubspace(((2,) * 6,), 2, 6))
    assert singular_scan_fp(doubled, 5) == singular_scan_fp(segre, 5)
    assert len(singular_scan_fp(doubled, 5)) == 10
    plane = LinearSubspace.from_equations([ONES, (1, -1, 0, 0, 0, 0)], 6)
    with pytest.raises(ValueError, match="sum-zero ambient"):
        singular_scan_fp(Hypersurface(segre_form(), plane), 5)


def test_max_height_caps_the_plane_parameters(monkeypatch):
    drawn = []
    plane_point = varieties.plane_point

    def recorded(s, params):
        drawn.append(params)
        return plane_point(s, params)

    monkeypatch.setattr(varieties, "plane_point", recorded)
    rng = random.Random(1)
    for _ in range(20):
        sample_smooth_cubic_point(rng, max_height=1)
    assert drawn and all(abs(x) <= 1 for params in drawn for x in params)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_height must be at least 1"):
            sample_smooth_cubic_point(rng, max_height=bad)
    # at height 1 every smooth third point of a chord lies on a syntheme
    # plane, so avoiding the planes is refused before a chord is drawn
    calls = len(drawn)
    with pytest.raises(ValueError, match="at least 2 to avoid the syntheme planes, not 1"):
        sample_smooth_cubic_point(rng, max_height=1, avoid_planes=True)
    assert len(drawn) == calls


# -- the integer sampler against the Fraction sampler it replaced ----------------


def fraction_plane_point(s, params):
    """The point of the cubic's plane for s as Fractions: parametrization·params."""
    return param_point(syntheme_plane(s), [Fraction(x) for x in params])


def fraction_sample(rng, max_height=50, avoid_planes=False):
    """The Fraction sampler: Fraction plane points, the binary cubic along the
    chord by symbolic substitution, and a ProjectivePoint for every candidate."""
    segre = build_variety("segre")
    all_synthemes = synthemes()
    planes = [syntheme_plane(s) for s in all_synthemes]
    height = min(3, max_height)
    for attempt in range(400):
        if attempt and attempt % 40 == 0:
            height = min(height + 4, max_height)
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
@given(st.integers(0, 10**6), st.sampled_from([1, 3, 50]), st.booleans())
def test_sampler_matches_the_fraction_sampler(seed, max_height, avoid_planes):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    if avoid_planes and max_height == 1:
        # refused up front, where the Fraction sampler spends all 400 chords
        with pytest.raises(ValueError, match="at least 2 to avoid the syntheme planes"):
            sample_smooth_cubic_point(rng, max_height, avoid_planes)
        assert _outcome(fraction_sample, ref_rng, max_height, avoid_planes).startswith("failed")
        return
    for _ in range(2):
        got = _outcome(sample_smooth_cubic_point, rng, max_height, avoid_planes)
        assert got == _outcome(fraction_sample, ref_rng, max_height, avoid_planes)
        assert rng.getstate() == ref_rng.getstate()


def test_plane_point_is_the_fraction_point_scaled():
    for s in synthemes():
        plane = syntheme_plane(s)
        for params in ([1, 2, 3], [0, -1, 4], [Fraction(1, 2), Fraction(-2, 3), 5]):
            ints = varieties.plane_point(s, params)
            q = clear_denominators(params)[1]
            assert all(type(x) is int for x in ints)
            assert [Fraction(x, q * plane.den) for x in ints] == fraction_plane_point(s, params)


small_vectors = st.lists(st.integers(-40, 40), min_size=6, max_size=6)


@st.composite
def chord_ends(draw):
    """An integer vector: arbitrary (mostly off the cubic) or a plane point."""
    if draw(st.booleans()):
        return draw(small_vectors)
    s = draw(st.sampled_from(synthemes()))
    return varieties.plane_point(s, draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3)))


@settings(max_examples=300, deadline=None)
@given(chord_ends(), chord_ends())
def test_chord_cubic_matches_substitution(pa, pb):
    cubic = segre_form().substitute_linear(list(zip(pa, pb)))
    expected = tuple(coefficient(cubic, e) for e in ((3, 0), (2, 1), (1, 2), (0, 3)))
    got = varieties._chord_cubic(segre_form(), pa, pb)
    assert got == expected
    assert all(type(c) is int for c in got)


def test_integer_readings_clear_a_form_with_a_denominator(monkeypatch):
    # a Hypersurface stores its form times den: the same zero set, with every
    # partial integral, so the integer readings need no refusal
    rational = segre_form().scale(Fraction(3, 2))
    v = Hypersurface(rational, varieties.SUM_ZERO)
    assert v.form == segre_form().scale(3) and v.form.den == 1
    assert all(g.den == 1 for g in v.gradient)
    # at a rational point x/d the Hessian is integral, with the one scale
    # 3·d^(3−2) on every entry, and the gradient with 3·d^(3−1)
    point = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), 0, 0]
    d = 6
    hess = v._hessian(v._monomial_values(v._cleared(point)))
    for i in range(6):
        for j in range(6):
            expected = value(segre_form().partial(i).partial(j), point)
            assert type(hess[i][j]) is int and hess[i][j] == 3 * d * expected
    grad = v.gradient_at(point)
    assert grad == tuple(3 * d * d * value(g, point) for g in segre_form().gradient())
    assert all(type(x) is int for x in grad)
    # the chord cubic of a form with a denominator is den times its own
    pa, pb = [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0]
    assert varieties._chord_cubic(segre_form().scale(Fraction(1, 2)), pa, pb) == varieties._chord_cubic(
        segre_form(), pa, pb
    )
    # so the sampler on the rational form draws the same points
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


@pytest.mark.parametrize("kind", ["segre", "cr"])
def test_hypersurface_derivatives_are_built_once_and_read_only(kind):
    v = build_variety(kind)
    form = v.form
    assert v.gradient is v.gradient and v._rows is v._rows
    assert v.gradient == tuple(form.gradient())
    n = form.nvars
    # one row per polynomial: the form, each d_i f, then each d_i d_j f, i <= j
    polys = [form, *form.gradient(), *(form.partial(i).partial(j) for i in range(n) for j in range(i, n))]
    steps, rows = v._rows
    assert [len(row) for row in rows] == [len(f.nums) for f in polys]
    with pytest.raises(TypeError):
        v.gradient[0] = MultiPoly.zero(n)
    with pytest.raises(TypeError):
        rows[0] = ()
    with pytest.raises(AttributeError):
        v.gradient = ()
    with pytest.raises(AttributeError):
        v._rows = ()
    with pytest.raises(AttributeError):
        v.gradient[0].nums.clear()


@settings(max_examples=60, deadline=None)
@given(st.one_of(forms(4, 4), forms(6, 3)), st.data())
def test_node_readings_match_each_partials_integer_value(form, data):
    # the gradient and the Hessian are read off one monomial table per point;
    # each value must be its own partial's `_integer_value` at the cleared
    # point (the forms are homogeneous, so the point's denominator is a scale)
    n, deg = form.nvars, form.total_degree()
    xs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n).filter(any))
    q = data.draw(st.integers(2, 30))
    k = next(i for i, x in enumerate(xs) if x)
    # xs_k^D·f − f(xs)·x_k^D vanishes at xs, so gradient_at accepts xs
    on = form * xs[k] ** deg - MultiPoly.variable(n, k) ** deg * form._integer_value(xs)
    free = LinearSubspace((), 1, n)
    for point in (xs, [Fraction(x, q) for x in xs]):
        ys = clear_denominators(point)[0]
        for v in (Hypersurface(form, free), Hypersurface(on, free)):
            assert v._hessian(v._monomial_values(v._cleared(point))) == [
                [v.gradient[i].partial(j)._integer_value(ys) for j in range(n)] for i in range(n)
            ]
        v = Hypersurface(on, free)
        assert v.gradient_at(point) == tuple(g._integer_value(ys) for g in v.gradient)


def test_node_certificate_reads_the_hessian_from_the_second_partial_rows(monkeypatch):
    # one coefficient of the row of d_0 d_1 f changed by one: the chart
    # Hessian the certificate ranks must change with it
    model = hyperplane_section(REFERENCE_COEFFS)
    surface = Hypersurface(model.quartic3, LinearSubspace((), 1, 4))
    node = model.nodes[0].chart_point
    charts = []
    bareiss = varieties.bareiss
    monkeypatch.setattr(varieties, "bareiss", lambda m, **kw: charts.append(m) or bareiss(m, **kw))
    certify_ordinary_node(surface, node)
    steps, rows = surface._rows
    values = surface._monomial_values(node.coords)
    r = 1 + 4 + 1  # the form, its 4 first partials, then d_0 d_0 f and d_0 d_1 f
    e = next(e for e, (k, _) in enumerate(rows[r]) if values[k])
    k, c = rows[r][e]
    changed = rows[r][:e] + ((k, c + 1),) + rows[r][e + 1 :]
    surface.__dict__["_rows"] = (steps, rows[:r] + (changed,) + rows[r + 1 :])
    certify_ordinary_node(surface, node)
    assert len(charts) == 2 and charts[1] != charts[0]
    assert charts[1][0][1] - charts[0][0][1] == values[k]


def test_cached_constants_are_immutable():
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
