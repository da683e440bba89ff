import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import det, fraction_rref, poly_value, rationals, value
from quartic15.exact import (
    LinearMap,
    MultiPoly,
    monomial_table,
    nullspace,
    partials_table,
    perfect_square_factor,
    primitive_integer_vector,
    rref,
    table_values,
)
from quartic15.lattice import bareiss, clear_denominators, det_bareiss, mat_identity, mat_mul
from quartic15.varieties import Hypersurface, LinearSubspace, ProjectivePoint, certify_ordinary_node


def poly_sum_cubes(n=6):
    return sum(
        (MultiPoly.variable(n, i) ** 3 for i in range(n)), MultiPoly.zero(n)
    )


def cr_form():
    n = 6
    u = [MultiPoly.variable(n, i) for i in range(n)]
    s4 = sum((ui**4 for ui in u), MultiPoly.zero(n))
    s2 = sum((ui**2 for ui in u), MultiPoly.zero(n))
    return s4 * 4 - s2 * s2


def random_poly(rng, nvars=3, nterms=4, deg=3):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(nvars, terms)


def test_evaluate_reference_points():
    f = poly_sum_cubes()
    assert f._integer_value([1, 1, 1, -1, -1, -1]) == 0
    assert f._integer_value([1, -1, 0, 0, 0, 0]) == 0
    assert cr_form()._integer_value([2, 2, -1, -1, -1, -1]) == 0
    assert f._integer_value([1, 2, 0, 0, 0, 0]) == 9


def test_evaluate_dimension_mismatch():
    # points enter the library through a Hypersurface, which refuses a point
    # of the wrong length before reading any value
    with pytest.raises(ValueError, match="point has 3 entries, expected 6"):
        certify_ordinary_node(unconstrained(poly_sum_cubes()), ProjectivePoint([1, 2, 3]))


def test_gradient():
    f = MultiPoly(2, {(2, 1): Fraction(1)})  # x^2 y
    gx, gy = f.gradient()
    assert gx == MultiPoly(2, {(1, 1): Fraction(2)})
    assert gy == MultiPoly(2, {(2, 0): Fraction(1)})
    g = poly_sum_cubes().gradient()
    for i, gi in enumerate(g):
        exp = [0] * 6
        exp[i] = 2
        assert gi == MultiPoly(6, {tuple(exp): Fraction(3)})


def unconstrained(f: MultiPoly) -> Hypersurface:
    """The form with no ambient equations."""
    return Hypersurface(f, LinearSubspace((), f.nvars))


def test_hessian_at():
    # the Hessian from the second partials a Hypersurface builds once
    f = poly_sum_cubes()
    h = unconstrained(f).hessian_at([1, 1, 1, -1, -1, -1])
    for i in range(6):
        for j in range(6):
            expected = (6 if i < 3 else -6) if i == j else 0
            assert h[i][j] == expected
    g = MultiPoly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    assert unconstrained(g).hessian_at([5, -7]) == [[2, 0], [0, 2]]
    with pytest.raises(ValueError):
        certify_ordinary_node(unconstrained(g), ProjectivePoint([5, -7, 1]))
    with pytest.raises(ValueError, match="ambient subspace has 3 variables, the form 2"):
        Hypersurface(g, LinearSubspace((), 3))


def test_substitute_identity_and_degree():
    f = MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)
    assert f.substitute_linear(mat_identity(2)) == f
    rng = random.Random(1)
    quartic = cr_form()
    m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(6)]
    g = quartic.substitute_linear(m)
    assert not g or (g.is_homogeneous() and g.total_degree() == 4)


def test_substitute_functorial():
    rng = random.Random(7)
    for _ in range(10):
        f = random_poly(rng, nvars=3)
        m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
        n = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        assert f.substitute_linear(mat_mul(m, n)) == f.substitute_linear(m).substitute_linear(n)


def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(20):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_taylor_expansion_matches_symbolic():
    # f(p + t v) as a univariate polynomial: degree-1 coefficient is grad·v
    rng = random.Random(21)
    for _ in range(10):
        f = random_poly(rng, nvars=3)
        p = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        # substitution matrix: row i = (p_i, v_i) for variables (s, t), then s=1
        line = RefPoly.of(f.substitute_linear([[p[i], v[i]] for i in range(3)]))
        # collect the coefficient of s^(d-1) t^1 summed over degrees: evaluate
        # at s=1 symbolically by summing coefficients with matching t-power
        coeff_t1 = sum(
            (c for (es, et), c in line.terms.items() if et == 1), Fraction(0)
        )
        grad_dot_v = sum(value(f.partial(i), p) * v[i] for i in range(3))
        assert coeff_t1 == grad_dot_v
        coeff_t0 = sum(
            (c for (es, et), c in line.terms.items() if et == 0), Fraction(0)
        )
        assert coeff_t0 == value(f, p)


def test_euler_identity():
    # homogeneous f of degree d: sum_i z_i df/dz_i = d f, exactly
    rng = random.Random(3)
    for d in (2, 3, 4):
        terms = {}
        for _ in range(5):
            e = [0, 0, 0]
            for _ in range(d):
                e[rng.randint(0, 2)] += 1
            terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        f = MultiPoly(3, terms)
        p = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        lhs = sum(p[i] * value(f.partial(i), p) for i in range(3))
        assert lhs == d * value(f, p)


def test_mod_p():
    x = MultiPoly.variable(1, 0)
    f = x * x * Fraction(1, 2)
    # the reduced form: numerators in [1, p) over den 1
    assert (f.mod_p(3).nums, f.mod_p(3).den) == ({(2,): 2}, 1)
    assert (x.mod_p(2).nums, x.mod_p(2).den) == ({(1,): 1}, 1)
    assert (-x).mod_p(5).nums == {(1,): 4}
    with pytest.raises(ValueError):
        f.mod_p(2)


def test_mod_p_evaluate_matches_rational():
    rng = random.Random(11)
    f = random_poly(rng, nvars=3, nterms=6)
    fp = f.mod_p(13)
    assert fp.den == 1
    for _ in range(10):
        pt = [rng.randint(0, 12) for _ in range(3)]
        exact = value(f, pt)
        assert fp._integer_value(pt) % 13 == (exact.numerator * pow(exact.denominator, -1, 13)) % 13


def test_perfect_square_trivial_cases():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = (x + y) * (x + y)
    c, q = perfect_square_factor(f)
    assert c == 1 and q == x + y
    assert perfect_square_factor(x * x + y * y) is None
    c, q = perfect_square_factor((x * 2 + y * 3) ** 2)
    assert c == 4 and q == x + y * Fraction(3, 2)
    assert c * q * q == (x * 2 + y * 3) ** 2


def test_perfect_square_random_roundtrip():
    rng = random.Random(5)
    for _ in range(15):
        terms = {}
        for _ in range(4):
            e = [0, 0, 0]
            for _ in range(2):
                e[rng.randint(0, 2)] += 1
            terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        q0 = MultiPoly(3, terms)
        if not q0:
            continue
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        f = q0 * q0 * scale
        got = perfect_square_factor(f)
        assert got is not None
        c, q = got
        assert c * q * q == f
        # evaluation cross-check at 10 points
        for _ in range(10):
            pt = [rng.randint(-5, 5) for _ in range(3)]
            assert value(f, pt) == c * value(q, pt) ** 2


def test_perfect_square_requires_even_homogeneous():
    x = MultiPoly.variable(2, 0)
    with pytest.raises(ValueError):
        perfect_square_factor(x ** 3)
    with pytest.raises(ValueError):
        perfect_square_factor(x * x + x)


def test_multipoly_is_integer_numerators_over_one_normalised_den():
    f = MultiPoly(2, {(1, 0): Fraction(1, 3), (0, 1): 2, (0, 0): Fraction(0), (1, 1): 0})
    assert (dict(f.nums), f.den) == ({(1, 0): 1, (0, 1): 6}, 3)  # zeros are dropped
    assert all(type(c) is int for c in f.nums.values())
    # the same polynomial reached any way has the same (nums, den)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    for g in (
        x * Fraction(1, 3) + y * 2,
        (x * 2 + y * 12) * Fraction(1, 6),
        MultiPoly(2, {(1, 0): Fraction(-2, -6), (0, 1): Fraction(10, 5)}),
        (x * Fraction(1, 3) + y * 3) - y,
        ((x + y * 6) * (x - y) - (x**2 + x * y * 5 - y**2 * 6 - x - y * 6)) * Fraction(1, 3),
    ):
        assert (dict(g.nums), g.den) == (dict(f.nums), f.den) and g == f and hash(g) == hash(f)
    # den > 0 and coprime to the numerators; the zero form has den 1
    h = MultiPoly(1, {(2,): Fraction(-4, 6), (0,): Fraction(2, 9)})
    assert (dict(h.nums), h.den) == ({(2,): -6, (0,): 2}, 9)
    for zero in (MultiPoly.zero(2), f - f, f.scale(0), f * MultiPoly.zero(2), MultiPoly(2, {(1, 0): Fraction(0, 5)})):
        assert (dict(zero.nums), zero.den) == ({}, 1) and not zero
    assert f.leading_coefficient() == Fraction(1, 3) and h.leading_coefficient() == Fraction(-2, 3)
    assert MultiPoly.zero(2).leading_coefficient() == 0
    assert repr(h) == "(-6*z0^2 + 2)/9" and repr(MultiPoly.variable(2, 1) * 3) == "3*z1"


def test_floats_are_refused():
    # a float coefficient or scalar would store its binary expansion, not the
    # rational it was meant to be
    x = MultiPoly.variable(1, 0)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        MultiPoly(1, {(1,): 0.1})
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        MultiPoly.constant(1, 0.5)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        x.scale(0.1)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        x * 0.5
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        0.5 * x
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        x * "2"
    assert x * 2 == 2 * x == x.scale(Fraction(4, 2)) == MultiPoly(1, {(1,): 2})
    assert x * True == x  # a bool is an int


def test_partial_refuses_an_index_out_of_range():
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    f = z0 * z0 * z1
    assert f.partial(1) == z0 * z0
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"variable index {i} out of range for 2 variables"):
            f.partial(i)


def test_substitute_linear_refuses_a_den_below_one():
    f = MultiPoly.variable(2, 0)
    assert f.substitute_linear([[2], [4]], 2) == MultiPoly.variable(1, 0)
    for den in (0, -2):
        with pytest.raises(ValueError, match="den must be positive"):
            f.substitute_linear([[1], [0]], den)
    with pytest.raises(TypeError):
        f.substitute_linear([[1], [0]], Fraction(1, 2))


def test_mod_p_refusal_names_a_coefficient():
    f = MultiPoly(2, {(1, 0): Fraction(3, 4), (0, 1): Fraction(5, 6)})
    with pytest.raises(ValueError, match="^denominator of 3/4 divisible by 2$"):
        f.mod_p(2)
    with pytest.raises(ValueError, match="^denominator of 5/6 divisible by 3$"):
        f.mod_p(3)
    assert f.mod_p(5) == MultiPoly(2, {(1, 0): 2})  # 3/4 = 2 and 5/6 = 0 mod 5


def test_permute_variables():
    f = cr_form()
    assert f.permute_variables([1, 0, 2, 3, 4, 5]) == f
    g = MultiPoly(3, {(2, 1, 0): Fraction(1)})
    assert g.permute_variables([2, 0, 1]) == MultiPoly(3, {(1, 0, 2): Fraction(1)})


def test_linear_map_entries_immutable_and_rectangular():
    m = LinearMap([[1, 2], [Fraction(3, 2), 4]])
    assert m.entries == ((1, 2), (Fraction(3, 2), 4))
    assert all(type(x) is Fraction for row in m.entries for x in row)
    with pytest.raises(AttributeError):
        m.entries = ()
    with pytest.raises(TypeError):
        m.entries[0] = (0, 0)
    with pytest.raises(ValueError, match="ragged"):
        LinearMap([[1, 2], [3]])


def test_substitute_linear_reads_a_linear_map():
    # a LinearMap substitutes its entries, as the same rows given plainly
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(rng, nvars=3)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2)] for _ in range(3)]
        m[rng.randrange(3)] = [0, 0]
        assert f.substitute_linear(LinearMap(m)) == f.substitute_linear(m)


def test_rref_nullspace_solve():
    m = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    assert len(rref(m)[1]) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    v = ns[0]
    for row in m:
        assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0
    # solving M x = b on the augmented matrix: the last column carries x
    assert rref([[1, 1, 2], [1, -1, 0]]) == ([[1, 0, 1], [0, 1, 1]], [0, 1])
    assert rref([[1, 1, 0], [1, 1, 1]])[1] == [0, 2]  # a pivot on b: inconsistent


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(1), Fraction(1, 2)]) == [2, 1]
    assert primitive_integer_vector([Fraction(-2), Fraction(4)]) == [1, -2]
    assert primitive_integer_vector([0, Fraction(-3, 7)]) == [0, 1]


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 4]) == ([3, -4, 24], 6)
    assert clear_denominators([0, 0]) == ([0, 0], 1)
    assert clear_denominators([]) == ([], 1)
    # a row of plain ints passes through as a fresh list over 1
    row = [3, -4, 0]
    ints, d = clear_denominators(row)
    assert (ints, d) == ([3, -4, 0], 1) and ints is not row
    ints[0] = 99
    assert row == [3, -4, 0]
    # bool entries keep the rational route; a float or a str is refused
    ints, d = clear_denominators([True, 2])
    assert (ints, d) == ([1, 2], 1) and all(type(x) is int for x in ints)
    for bad in ([0.5, 1], [Fraction(1, 2), "1/3"]):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            clear_denominators(bad)


# -- oracle tests: the fraction-free kernel against the Fraction Gauss-Jordan --


matrix_rationals = rationals(-9, 9, 6)


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices, half of them products of thinner factors (rank-deficient)."""
    nrows = draw(st.integers(1 if square else 0, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    if nrows and draw(st.booleans()):
        k = draw(st.integers(1, min(nrows, ncols)))
        a = draw(st.lists(st.lists(matrix_rationals, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
        b = draw(st.lists(st.lists(matrix_rationals, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
        return mat_mul(a, b)
    row = st.lists(st.one_of(st.just(Fraction(0)), matrix_rationals), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_matches_reference(m):
    assert rref(m) == fraction_rref(m)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rank_two_paths_agree_random(m):
    # the Bareiss rank against the pivots of the Fraction RREF
    ints = [clear_denominators(row)[0] for row in m]
    assert len(bareiss(ints)[1]) == len(fraction_rref(m)[1])


@settings(max_examples=100, deadline=None)
@given(rational_matrices(square=True))
def test_det_vanishes_exactly_when_rank_deficient(m):
    ints = [clear_denominators(row)[0] for row in m]
    d = det_bareiss(ints)
    assert (d == 0) == (len(fraction_rref(m)[1]) < len(m))
    # the determinant itself, against the Leibniz sum
    assert d == det(ints)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_nullspace_annihilates(m):
    ncols = len(m[0]) if m else 3
    basis = nullspace(m, ncols)
    assert len(basis) == ncols - len(fraction_rref(m)[1])
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


# -- oracle tests: the integer polynomial kernel against the Fraction routines --


class RefPoly:
    """Reference: the Fraction-dict polynomial `MultiPoly` replaced, one
    Fraction per nonzero term, with every operation written out term by term."""

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}

    @classmethod
    def of(cls, f):
        """The reference reading of a `MultiPoly`: each numerator over den."""
        return cls(f.nvars, {e: Fraction(c, f.den) for e, c in f.nums.items()})

    def poly(self):
        return MultiPoly(self.nvars, self.terms)

    def __eq__(self, other):
        return (self.nvars, self.terms) == (other.nvars, other.terms)

    def __repr__(self):
        return f"RefPoly({self.nvars}, {self.terms})"

    def __add__(self, other):
        res = dict(self.terms)
        for e, c in other.terms.items():
            res[e] = res.get(e, 0) + c
        return RefPoly(self.nvars, res)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            return self.scale(other)
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                res[e] = res.get(e, 0) + c1 * c2
        return RefPoly(self.nvars, res)

    def scale(self, c):
        return RefPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k):
        result = RefPoly(self.nvars, {(0,) * self.nvars: 1})
        for _ in range(k):
            result = result * self
        return result

    def partial(self, i):
        res = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                res[tuple(e)] = c * exp[i]
        return RefPoly(self.nvars, res)

    def permute_variables(self, perm):
        res = {}
        for exp, c in self.terms.items():
            e = [0] * self.nvars
            for i, v in enumerate(exp):
                e[perm[i]] = v
            res[tuple(e)] = c
        return RefPoly(self.nvars, res)

    def mod_p(self, p):
        """The reduced coefficients c mod p in [1, p), zeros dropped."""
        terms = {}
        for exp, c in self.terms.items():
            if c.denominator % p == 0:
                raise ValueError(f"denominator of {c} divisible by {p}")
            r = c.numerator * pow(c.denominator, -1, p) % p
            if r:
                terms[exp] = r
        return terms

    def evaluate(self, point):
        return poly_value(self.terms, point)

    def substitute_linear(self, matrix, den=1):
        """Substitution through Fraction products of the rows over den."""
        rows = [[Fraction(x) / den for x in row] for row in matrix]
        ncols = len(rows[0]) if rows else 0
        forms = [RefPoly(ncols, {tuple(int(k == j) for k in range(ncols)): a for j, a in enumerate(row)}) for row in rows]
        one = RefPoly(ncols, {(0,) * ncols: 1})
        powers = [[one] for _ in forms]
        result = RefPoly(ncols, {})
        for exp, c in self.terms.items():
            term = one.scale(c)
            for i, e in enumerate(exp):
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1] * forms[i])
                if e:
                    term = term * powers[i][e]
            result = result + term
        return result

    def leading_monomial(self):
        return max(self.terms, key=lambda e: (sum(e), e), default=None)


def assert_matches(f, ref):
    """f is the reference polynomial, in its normalised integer form."""
    assert isinstance(f, MultiPoly) and RefPoly.of(f) == ref
    assert all(type(c) is int and c for c in f.nums.values()) and type(f.den) is int
    assert f.den > 0 and math.gcd(f.den, *f.nums.values()) == 1
    assert f == ref.poly() and hash(f) == hash(ref.poly())


def reference_hessian_at(f, point):
    """Reference: every second partial formed afresh and evaluated by Fractions."""
    n = f.nvars
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        fi = f.partial(i)
        for j in range(i, n):
            rows[i][j] = rows[j][i] = fi.partial(j).evaluate(point)
    return rows


# denominators up to 10^6, zero and negative values included
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-20, 20).map(Fraction),
    rationals(-50, 50, 10**6),
)


@st.composite
def polynomials(draw, nvars, homogeneous_degree=None):
    """Sparse reference polynomials, the zero polynomial and inhomogeneous
    ones included."""
    nterms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(nterms):
        if homogeneous_degree is None:
            exp = tuple(draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)))
        else:
            exp = [0] * nvars
            for _ in range(homogeneous_degree):
                exp[draw(st.integers(0, nvars - 1))] += 1
            exp = tuple(exp)
        terms[exp] = draw(wide_rationals)
    return RefPoly(nvars, terms)


@st.composite
def substitutions(draw):
    """(f, matrix): a reference polynomial and a rational matrix with some
    rows and columns forced to zero."""
    nvars = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    f = draw(polynomials(nvars))
    m = draw(
        st.lists(
            st.lists(wide_rationals, min_size=ncols, max_size=ncols),
            min_size=nvars,
            max_size=nvars,
        )
    )
    zero_rows = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    m = [
        [Fraction(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]
    return f, m


@st.composite
def points(draw, nvars):
    return draw(st.lists(wide_rationals, min_size=nvars, max_size=nvars))


@settings(max_examples=300, deadline=None)
@given(substitutions(), st.integers(1, 12))
def test_substitute_linear_matches_reference(case, den):
    ref, m = case
    f = ref.poly()
    expected = ref.substitute_linear(m)
    assert_matches(f.substitute_linear(m), expected)
    # integral entries as plain ints, so the all-int rows skip the Fraction route
    m_int = [[int(x) if x.denominator == 1 else x for x in row] for row in m]
    assert_matches(f.substitute_linear(m_int), expected)
    # the same rows over a common den: each term of degree k is divided by den^k
    assert_matches(f.substitute_linear(m, den), ref.substitute_linear(m, den))
    ints, d = clear_denominators([x for row in m for x in row])
    ncols = len(m[0])
    int_rows = [ints[k : k + ncols] for k in range(0, len(ints), ncols)]
    assert_matches(f.substitute_linear(int_rows, d), expected)


@pytest.mark.parametrize("deg", [2, 3, 4, 5])
def test_substitute_linear_reaches_the_total_degree_in_every_variable(deg):
    # the products run on exponents packed in base D+1, D the total degree:
    # here every variable of the result carries y_j^D, the largest digit, so
    # a base of D would carry it into the next variable's digit
    ref = RefPoly(2, {(deg, 0): 1, (1, deg - 1): Fraction(2, 3), (0, deg): -5})
    m = [[1, -2, 3], [Fraction(1, 2), 1, -1]]
    got = ref.poly().substitute_linear(m)
    assert_matches(got, ref.substitute_linear(m))
    assert all(tuple(deg if i == j else 0 for i in range(3)) in got.nums for j in range(3))
    assert_matches(ref.poly().substitute_linear(m, 7), ref.substitute_linear(m, 7))
    assert_matches(ref.poly() * ref.poly(), ref * ref)  # base 2D+1 for the product


@st.composite
def form_families(draw):
    """(forms, xs): up to six reference forms of one degree in 1 to 6
    variables, zero forms included, and an integer point."""
    nvars, deg = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    forms = draw(st.lists(polynomials(nvars, homogeneous_degree=deg), max_size=6))
    xs = draw(st.lists(st.integers(-30, 30), min_size=nvars, max_size=nvars))
    return forms, xs


@settings(max_examples=200, deadline=None)
@given(form_families())
def test_table_values_match_each_forms_integer_value(case):
    refs, xs = case
    forms = [ref.poly() for ref in refs]
    nvars = len(xs)
    # the same forms, a zero form, and each term as a form of its own: a
    # family of pairwise disjoint supports
    singles = [MultiPoly._from_nums(nvars, {e: c}, f.den) for f in forms for e, c in f.nums.items()]
    for family in (forms, forms + [MultiPoly.zero(nvars)], singles):
        table = monomial_table(family)
        assert table_values(table, xs) == [f._integer_value(xs) for f in family]
        monomials, rows = table
        assert len(set(monomials)) == len(monomials) == len({e for f in family for e in f.nums})
        assert len(rows) == len(family) and all(len(row) == len(monomials) for row in rows)
    assert monomial_table([]) == ((), ()) and table_values(((), ()), xs) == []


def test_monomial_table_refuses_forms_in_different_variables():
    with pytest.raises(ValueError, match="one variable count"):
        monomial_table([MultiPoly.variable(2, 0), MultiPoly.variable(3, 0)])


@st.composite
def forms_and_polynomials(draw):
    """A reference form of degree 0 to 5 in 1 to 6 variables, the zero form
    included, or now and then a polynomial that is no form."""
    nvars = draw(st.integers(1, 6))
    degree = draw(st.one_of(st.none(), st.integers(0, 5), st.integers(0, 5)))
    return draw(polynomials(nvars, homogeneous_degree=degree)).poly()


@settings(max_examples=300, deadline=None)
@given(forms_and_polynomials())
def test_partials_table_matches_the_table_of_the_partials(f):
    # read off the numerators, the table is the `monomial_table` of the
    # partials of den·f formed as polynomials: the gradient for order 1,
    # each d_i d_j, i <= j, row by row for order 2
    gradient = f.scale(f.den).gradient()
    n = f.nvars
    assert partials_table(f, 1) == monomial_table(gradient)
    assert partials_table(f, 2) == monomial_table([gradient[i].partial(j) for i in range(n) for j in range(i, n)])


@pytest.mark.parametrize("order", [0, 3])
def test_partials_table_refuses_an_order_other_than_1_or_2(order):
    with pytest.raises(ValueError, match="order 1 or 2"):
        partials_table(cr_form(), order)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(polynomials(n), points(n))))
def test_evaluate_matches_reference(case):
    # the integer value den·f(xs) at the cleared point, whose entries run up
    # to the lcm of the drawn denominators
    ref, pt = case
    f = ref.poly()
    xs = clear_denominators(pt)[0]
    assert f._integer_value(xs) == f.den * ref.evaluate(xs)
    assert f._monomials() is f._monomials()  # the sparse terms are built once


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            polynomials(n),
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            st.lists(st.one_of(st.integers(-20, 20), wide_rationals), min_size=n, max_size=n),
        )
    )
)
def test_evaluate_at_integer_points_matches_reference(case):
    # the sampler evaluates at plain int points, which `points` never draws;
    # a point mixing ints and Fractions is read at its cleared integer vector
    ref, int_pt, mixed_pt = case
    f = ref.poly()
    for xs in (int_pt, clear_denominators(mixed_pt)[0]):
        got = f._integer_value(xs)
        assert type(got) is int and got == f.den * ref.evaluate(xs)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(0, 4)).flatmap(
        lambda nd: st.tuples(polynomials(nd[0], homogeneous_degree=nd[1]), points(nd[0]))
    )
)
def test_hessian_at_matches_reference(case):
    # the integer Hessian of the cleared form at x/d: den·d^(deg−2) times the
    # reference, one positive scale for every entry
    ref, pt = case
    f = ref.poly()
    d = clear_denominators(pt)[1]
    scale = f.den * Fraction(d) ** (f.total_degree() - 2)
    expected = [[scale * x for x in row] for row in reference_hessian_at(ref, pt)]
    got = unconstrained(f).hessian_at(clear_denominators(pt)[0])
    assert got == expected and all(type(x) is int for row in got for x in row)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(polynomials(n), polynomials(n), wide_rationals, st.integers(0, 3), st.permutations(range(n)))
    )
)
def test_ring_operations_match_reference(case):
    a_ref, b_ref, c, k, perm = case
    a, b = a_ref.poly(), b_ref.poly()
    assert_matches(a, a_ref)  # the constructor keeps every coefficient
    assert_matches(a + b, a_ref + b_ref)
    assert_matches(a - b, a_ref - b_ref)
    assert_matches(-a, -a_ref)
    assert_matches(a * b, a_ref * b_ref)
    assert_matches(a**k, a_ref**k)
    assert_matches(a.scale(c), a_ref.scale(c))
    assert_matches(a * c, a_ref.scale(c))
    assert_matches(c * a, a_ref.scale(c))
    assert_matches(a.permute_variables(perm), a_ref.permute_variables(perm))
    for i in range(a.nvars):
        assert_matches(a.partial(i), a_ref.partial(i))
    lead = a_ref.leading_monomial()
    assert a.leading_monomial() == lead
    assert a.leading_coefficient() == a_ref.terms.get(lead, 0)


def _reduction(f, p):
    try:
        return f.mod_p(p)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: polynomials(n)),
    st.sampled_from([2, 3, 5, 7, 11, 13, 999983]),
)
def test_mod_p_matches_reference(ref, p):
    # refused for the same primes with the same message, else the same terms
    got, expected = _reduction(ref.poly(), p), _reduction(ref, p)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, MultiPoly) and got.den == 1 and got.nums == expected


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(polynomials(n), st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    ),
    st.sampled_from([2, 3, 5, 7, 13]),
)
def test_mod_p_reads_values_and_partials_through_the_integer_kernel(case, p):
    # zero and inhomogeneous polynomials included; the p-part of den is
    # scaled away so that every drawn polynomial reduces
    ref, pt = case
    f = ref.poly()
    while f.den % p == 0:
        f = f.scale(p)
    fp = f.mod_p(p)
    # the F_p scan reads the partials of the reduced form: reduction commutes with them
    for i in range(f.nvars):
        assert fp.partial(i).mod_p(p) == f.partial(i).mod_p(p)
    exact = RefPoly.of(f).evaluate(pt)
    assert fp.den == 1
    assert fp._integer_value(pt) % p == exact.numerator * pow(exact.denominator, -1, p) % p


def test_integer_kernel_reference_cases():
    # fixed cases the hypothesis search might miss: a zero polynomial, a
    # constant, an inhomogeneous form at a point with a large common denominator
    assert MultiPoly.zero(3)._integer_value([1, 0, -14]) == 0
    assert MultiPoly.constant(2, Fraction(-3, 5))._integer_value([1, 4 * 999983]) == -3
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    f = x**3 * Fraction(1, 6) - y + MultiPoly.constant(2, Fraction(5, 4))
    ref = RefPoly.of(f)
    xs = clear_denominators([Fraction(-2, 999983), Fraction(7, 999979)])[0]
    assert f._integer_value(xs) == f.den * ref.evaluate(xs)
    m = [[Fraction(1, 999983), 0, Fraction(-3, 2)], [0, 0, 0]]
    assert_matches(f.substitute_linear(m), ref.substitute_linear(m))
    assert_matches(f.substitute_linear(m, 7), ref.substitute_linear(m, 7))
    assert MultiPoly.zero(2).substitute_linear(m) == MultiPoly.zero(3)
    with pytest.raises(ValueError, match="ragged"):
        f.substitute_linear([[1, 2], [3]])


def reference_perfect_square_factor(f):
    """Reference: the Fraction peeling loop that squares q afresh on every step."""
    lead = f.leading_monomial()
    if any(e % 2 for e in lead):
        return None
    c = f.terms[lead]
    half = tuple(e // 2 for e in lead)
    q = RefPoly(f.nvars, {half: 1})
    last_key = (sum(half), half)
    while True:
        r = f - q * q * c
        if not r.terms:
            return (c, q)
        t = r.leading_monomial()
        e = tuple(a - b for a, b in zip(t, half))
        if any(x < 0 for x in e) or (sum(e), e) >= last_key:
            return None
        last_key = (sum(e), e)
        q = q + RefPoly(f.nvars, {e: r.terms[t] / (2 * c)})


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(
        lambda nd: st.tuples(
            polynomials(nd[0], homogeneous_degree=nd[1]),
            polynomials(nd[0], homogeneous_degree=nd[1]),
            wide_rationals,
            st.booleans(),
        )
    )
)
def test_perfect_square_factor_matches_reference(case):
    # scaled squares of linear and quadratic forms and (with `perturb`) sums
    # of two squares, which are mostly not squares
    root, noise, scale, perturb = case
    ref = root * root * scale
    if perturb:
        ref = ref + noise * noise
    if not ref.terms:
        return
    got, expected = perfect_square_factor(ref.poly()), reference_perfect_square_factor(ref)
    if expected is None:
        assert got is None
    else:
        c, q = got
        assert type(c) is Fraction and c == expected[0]
        assert_matches(q, expected[1])
