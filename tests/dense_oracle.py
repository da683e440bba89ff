"""Dense and Fraction definitions the tests check the library against.

Plain products over every entry, the Leibniz determinant and one Fraction
Gauss-Jordan elimination, written without any library code: the tests
compare the library's sparse certificates and reflections, and its
fraction-free linear algebra, against these definitions.  Also the one
Fraction evaluation of a polynomial, which the library no longer has, and
the one strategy that draws rationals for the property tests.
"""

import itertools
from fractions import Fraction
from math import prod

from hypothesis import strategies as st


def mat_mul(a, b):
    """The dense product over every row-column pair."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def is_involution(m):
    """M·M = 1."""
    return mat_mul(m, m) == identity(len(m))


def preserves_gram(m, gram):
    """M·G·M^T = G."""
    return mat_mul(mat_mul(m, gram), [list(col) for col in zip(*m)]) == [list(row) for row in gram]


def dense(iso):
    """The square matrix of an isometry from its sparse rows."""
    n = len(iso.rows)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(iso.rows):
        for j, x in row:
            out[i][j] = x
    return out


def sparse(m):
    """The canonical sparse rows of a matrix: its nonzero (column, entry)
    pairs in column order, as tuples."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)


def reflection(gram, r):
    """The reflection in r, row by row from its dense definition
    e_i − 2(e_i·r)/(r·r)·r."""
    gr = [sum(g * x for g, x in zip(row, r)) for row in gram]
    rr = sum(x * y for x, y in zip(r, gr))
    rows = []
    for i, p in enumerate(gr):
        coeff, rem = divmod(-2 * p, rr)
        assert rem == 0
        row = [coeff * x for x in r]
        row[i] += 1
        rows.append(row)
    return rows


def det(m):
    """The Leibniz sum over all permutations, signed by their inversions."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * prod(row[j] for row, j in zip(m, perm))
    return total


def fraction_rref(rows):
    """Plain Fraction Gauss-Jordan elimination: (reduced rows, pivot
    columns), the zero rows left at the bottom."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def fraction_solve(a, b):
    """The solution x of a·x = b for a of full column rank, or None."""
    red, pivots = fraction_rref([list(row) + [y] for row, y in zip(a, b)])
    ncols = len(a[0]) if a else 0
    if ncols in pivots:
        return None
    return [red[i][-1] for i in range(ncols)]


def fraction_kernel(rows, nvars):
    """A basis of the right kernel {x : rows·x = 0} read off `fraction_rref`:
    one vector per free column, in increasing order, 1 there, 0 at the
    other free columns."""
    red, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(nvars) if c not in pivots):
        vec = [Fraction(int(i == fc)) for i in range(nvars)]
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def poly_value(terms, point, den=1):
    """The value at a rational point of the polynomial sum of terms[e]·x^e
    over den, one Fraction per term; a `MultiPoly` f is (f.nums, f.den)."""
    pt = [Fraction(x) for x in point]
    return sum((Fraction(c) / den * prod(x**e for x, e in zip(pt, exp)) for exp, c in terms.items()), Fraction(0))


def value(f, point):
    """The value of a `MultiPoly` f, its `nums` over its `den`, at a rational point."""
    return poly_value(f.nums, point, f.den)


@st.composite
def rationals(draw, lo, hi, max_denominator):
    """Fractions in [lo, hi] with denominator at most max_denominator (the
    values of hypothesis's `fractions` strategy with those bounds), drawn as
    integers: the denominator q, then the numerator in [lo·q, hi·q]."""
    q = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(lo * q, hi * q)), q)
