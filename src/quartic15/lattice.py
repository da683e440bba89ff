"""Integer lattices with symmetric bilinear forms.

Diagonal lattices and direct sums, the Hermite normal form with its
transformation matrix as the one unimodular eliminator, the Smith normal
form and orthogonal complements derived from it (every transform
re-verified on every call), discriminant groups with their Q/2Z-valued
quadratic forms, even overlattices from glue vectors, integer coordinates
over a row basis, and the one `Isometry` type with reflections.  Every
product of integer rows by a Gram is `IntegerLattice.times_gram`; `mat_mul`
serves only the HNF and SNF self-checks, and `cofactors` is the one 4×4
cofactor routine.

Vector convention: lattice vectors are row coordinate lists; an isometry is
a matrix whose i-th row is the image of the i-th basis vector, so it acts by
v -> v·M and preserves the form iff M·G·M^T = G.  An `Isometry` holds only
its sparse rows (the nonzero (column, entry) pairs of each row, in column
order), and every product, trace and certificate is taken over them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from math import isqrt, lcm
from operator import index
from typing import Iterable, NamedTuple, Optional, Sequence

IntMatrix = list[list[int]]


def _as_int(x, i: int, j: int) -> int:
    """Entry (i, j) as an int, refusing (never truncating) a non-integral value."""
    n = int(x)
    if n != x:
        raise ValueError(f"non-integral entry {x} at ({i}, {j})")
    return n


def _as_int_matrix(m: Iterable[Iterable]) -> IntMatrix:
    """m as a fresh list of int rows; a ragged m is refused, naming the first
    row whose length differs from row 0's, never truncated."""
    a = [
        [x if type(x) is int else _as_int(x, i, j) for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]
    n = len(a[0]) if a else 0
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
    return a


def _check_length(v: Sequence, n: int, what: str) -> None:
    if len(v) != n:
        raise ValueError(f"{what} has {len(v)} entries, expected {n}")


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """The full product a·b; both factors are sparsified here, on every call.

    Only the self-checks of `hermite_normal_form` and `smith_normal_form`
    call it: a product by a Gram matrix is `IntegerLattice.times_gram`, over
    the cached `sparse_gram`.  A row of a whose length is not the row count
    of b is refused.
    """
    for row in a:
        _check_length(row, len(b), "row of the left factor")
    return _sparse_product(_sparse_rows(a), _sparse_rows(b), len(b[0]) if b else 0)


def _sparse_rows(m: Iterable[Iterable]) -> list[list[tuple[int, object]]]:
    """Each row of m as its (column, entry) pairs with a nonzero entry."""
    return [[(j, y) for j, y in enumerate(row) if y] for row in m]


def _sparse_product(a: Sequence[Sequence], b: Sequence[Sequence], ncols: int) -> list[list]:
    """The full product of two matrices given by their sparse rows, with
    ncols columns: row i accumulates a[i][k]·(row k of b) over the nonzero
    entries only."""
    out = []
    for arow in a:
        acc = [0] * ncols
        for k, x in arow:
            for j, y in b[k]:
                acc[j] += x * y
        out.append(acc)
    return out


def _against_rows(b: Sequence[Sequence], a: Sequence[Sequence[int]]) -> list[list]:
    """B·A^T for B by its sparse rows and A = B·G with G symmetric, that is
    B·G·B^T: (B·G)^T = G·B^T, so entry (i, j) is row i of B against row j
    of A, formed by `_sparse_product` over the sparse rows of A^T."""
    return _sparse_product(b, _sparse_rows(zip(*a)), len(a))


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_transpose(a: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*a)]


def clear_denominators(row: Iterable) -> tuple[list[int], int]:
    """(ints, den) with row = ints/den and den the least common denominator;
    a row of plain ints comes back as a fresh list over 1.  Any entry that is
    not an int or a Fraction (a float, a str) is refused with TypeError."""
    row = list(row)
    if all(type(x) is int for x in row):
        return row, 1
    for x in row:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"entry {x!r} is not an int or a Fraction")
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def bareiss(m: Iterable[Iterable[int]], reduce_above: bool = False) -> tuple[IntMatrix, list[int], int]:
    """Fraction-free elimination of an integer matrix (Bareiss 1968).

    Returns (a, pivots, sign): a is a row echelon form of m with pivot
    columns `pivots`, and sign is the parity of the row swaps.  Every row
    other than the pivot row is replaced by (p·row − f·pivot_row)/prev,
    where p is the pivot, f the row's entry in the pivot column and prev the
    previous pivot; each entry is then a minor of m (Sylvester's identity),
    so the division is exact.  For square m of full rank the last pivot is
    sign·det(m).  With `reduce_above` the rows above each pivot are cleared
    too (fraction-free Gauss-Jordan); every pivot then ends equal to the last
    one, d, and the first len(pivots) rows of a/d are the reduced row echelon
    form of m.
    """
    a = _as_int_matrix(m)
    nrows, ncols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    sign = prev = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            a[row], a[pivot] = a[pivot], a[row]
            sign = -sign
        prow = a[row]
        p = prow[col]
        for r in range(0 if reduce_above else row + 1, nrows):
            if r != row:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], prow)]
        pivots.append(col)
        prev = p
    return a, pivots, sign


def minor_rank(m: Iterable[Iterable[int]]) -> int:
    """The rank of an integer matrix as the largest order of a nonzero minor.

    Orders are tried from min(rows, columns) down, and each minor is a
    Laplace expansion along its first row that skips zero entries, so a
    square matrix of full rank costs one determinant.  Only ring operations
    are used (no elimination, pivoting or division), which makes this rank
    independent of `bareiss`.  The cost grows exponentially with the size:
    it is meant for the chart Hessians of the node certificates, at most
    4 × 4.
    """
    a = _as_int_matrix(m)
    ncols = len(a[0]) if a else 0
    for k in range(min(len(a), ncols), 0, -1):
        for rows in itertools.combinations(a, k):
            if any(_laplace_det(rows, cols) for cols in itertools.combinations(range(ncols), k)):
                return k
    return 0


def _laplace_det(rows: Sequence[Sequence[int]], cols: Sequence[int]) -> int:
    """The minor of `rows` on the columns `cols`, expanded along its first row."""
    first = rows[0]
    if len(cols) == 1:
        return first[cols[0]]
    total = 0
    for i, c in enumerate(cols):
        if first[c]:
            term = first[c] * _laplace_det(rows[1:], cols[:i] + cols[i + 1 :])
            total += -term if i % 2 else term
    return total


def cofactors(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> tuple[int, int, int, int]:
    """The cofactors of the last row of the 4×4 matrix with rows a, b, c, x,
    so that its determinant is their dot product with x; each is ± a 3×3
    minor of a, b, c, expanded along a."""

    def minor(i: int, j: int, k: int) -> int:
        return (
            a[i] * (b[j] * c[k] - b[k] * c[j])
            - a[j] * (b[i] * c[k] - b[k] * c[i])
            + a[k] * (b[i] * c[j] - b[j] * c[i])
        )

    return -minor(1, 2, 3), minor(0, 2, 3), -minor(0, 1, 3), minor(0, 1, 2)


def det_bareiss(m: Iterable[Iterable[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = _as_int_matrix(m)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a, pivots, sign = bareiss(a)
    return sign * a[-1][-1] if len(pivots) == n else 0


# -- Hermite and Smith normal forms -----------------------------------------


def hermite_normal_form(m: Iterable[Iterable[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row-style HNF: returns (H, U) with U·m = H, U unimodular.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).  Zero rows sink to the bottom.  The input
    is read once, so a one-shot iterable serves as well as a list.
    """
    original = _as_int_matrix(m)
    h = [row[:] for row in original]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = mat_identity(rows)
    row = 0
    for col in range(cols):
        if row == rows:
            break
        # clear below using gcd steps
        while True:
            nz = [r for r in range(row, rows) if h[r][col]]
            if not nz:
                break
            pivot = min(nz, key=lambda r: abs(h[r][col]))
            if pivot != row:
                h[row], h[pivot] = h[pivot], h[row]
                u[row], u[pivot] = u[pivot], u[row]
            done = True
            for r in range(row + 1, rows):
                if h[r][col]:
                    q = h[r][col] // h[row][col]
                    h[r] = [x - q * y for x, y in zip(h[r], h[row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[row])]
                    if h[r][col]:
                        done = False
            if done:
                break
        if h[row][col]:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            for r in range(row):
                q = h[r][col] // h[row][col]
                if q:
                    h[r] = [x - q * y for x, y in zip(h[r], h[row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[row])]
            row += 1
    if mat_mul(u, original) != h:
        raise AssertionError("HNF verification failed")
    return h, u


def smith_normal_form(
    m: Iterable[Iterable[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (D, U, V) with U·m·V = D, d1 | d2 | ... >= 0.

    Derived from the HNF (Cohen, GTM 138, §2.4): row HNFs of a and of a^T
    alternate until a is diagonal, each transform folded into U or V.  The
    diagonal then has its zeros last; each pair d_i ∤ d_j (i < j) becomes
    (gcd, lcm) by one 2×2 unimodular step on each side, from a Bézout triple
    g = s·d_i + t·d_j.  The identity U·m·V = D, the divisibility chain, and
    unimodularity are re-verified before returning.
    """
    original = _as_int_matrix(m)
    rows, cols = len(original), len(original[0]) if original else 0
    a, u = hermite_normal_form(original)
    v = mat_identity(cols)
    while not _is_diagonal(a):
        at, v1 = hermite_normal_form(mat_transpose(a))  # a·v1^T = at^T
        a, v = mat_transpose(at), mat_mul(v, mat_transpose(v1))
        if _is_diagonal(a):
            break
        a, u1 = hermite_normal_form(a)
        u = mat_mul(u1, u)
    k = min(rows, cols)
    for i in range(k):
        for j in range(i + 1, k):
            di, dj = a[i][i], a[j][j]
            if not di or not dj % di:
                continue
            g, s, t = _bezout(di, dj)
            p, q = di // g, dj // g
            a[i][i], a[j][j] = g, p * dj
            u[i], u[j] = (
                [s * x + t * y for x, y in zip(u[i], u[j])],
                [p * y - q * x for x, y in zip(u[i], u[j])],
            )
            for row in v:
                row[i], row[j] = row[i] + row[j], s * p * row[j] - t * q * row[i]
    if mat_mul(mat_mul(u, original), v) != a:
        raise AssertionError("SNF verification failed")
    diag = [a[i][i] for i in range(k)]
    for i in range(len(diag) - 1):
        if diag[i] < 0 or (diag[i + 1] % diag[i] if diag[i] else diag[i + 1]):
            raise AssertionError(f"SNF divisibility chain broken at {i}: {diag}")
    if abs(det_bareiss(u)) != 1 or abs(det_bareiss(v)) != 1:
        raise AssertionError("SNF transforms must be unimodular")
    return a, u, v


def _is_diagonal(a: IntMatrix) -> bool:
    return not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s·a + t·b, for positive a and b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


# -- lattices ----------------------------------------------------------------


class IntegerLattice:
    """Basis-free lattice data: a symmetric integer Gram matrix.

    The Gram entries are stored as ints; an entry that is not an integer is
    refused, never truncated.  `sparse_gram` holds each Gram row's nonzero
    (column, entry) pairs, built once here: the lattice is immutable, so the
    rows cannot go stale.  Every product B·G of integer rows by the Gram is
    `times_gram`, over these rows: the pairing (`form`), every induced Gram
    B·G·B^T (`gram_of`), and the pairings of glue vectors, dual generators
    and complement equations with the basis.
    """

    gram: tuple[tuple[int, ...], ...]
    sparse_gram: tuple[tuple[tuple[int, int], ...], ...]

    __slots__ = ("gram", "sparse_gram")

    def __init__(self, gram: Iterable[Iterable[int]]):
        g = _freeze(gram)
        if any(len(r) != len(g) for r in g):
            raise ValueError("Gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(len(g)) for j in range(len(g))):
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "sparse_gram", tuple(map(tuple, _sparse_rows(g))))

    def __setattr__(self, name, value):
        raise AttributeError("IntegerLattice is immutable")

    def __eq__(self, other):
        return isinstance(other, IntegerLattice) and self.gram == other.gram

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return _det_cached(self.gram)

    def times_gram(self, rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """B·G for the integer rows B, over `sparse_gram`; a row whose length
        is not the rank is refused."""
        for row in rows:
            _check_length(row, self.rank, "row")
        return _sparse_product(_sparse_rows(rows), self.sparse_gram, self.rank)

    def form(self, v: Sequence[int], w: Sequence[int]) -> int:
        """v·G·w^T for integer rows: v·G (`times_gram`), then against w."""
        vg = self.times_gram([v])[0]
        _check_length(w, self.rank, "vector")
        return sum(x * y for x, y in zip(vg, w) if y)

    def gram_of(self, rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """B·G·B^T for the integer rows B: B·G (`times_gram`), then against
        the rows of B (`_against_rows`)."""
        return _against_rows(_sparse_rows(rows), self.times_gram(rows))

    def pair(self, v: Sequence[int], w: Sequence[int], den: int = 1) -> Fraction:
        """v·G·w^T/den for integer rows v and w, divided once; the pairing
        of v/a with w/b is pair(v, w, a·b)."""
        return Fraction(self.form(v, w), den)

    def norm(self, v: Sequence[int], den: int = 1) -> Fraction:
        return self.pair(v, v, den)

    def is_even(self) -> bool:
        """Even diagonal; certifies that the Picard lattice of a 15-nodal
        quartic and its glued overlattices are even."""
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def signature(self) -> tuple[int, int]:
        """Exact inertia (n_plus, n_minus) by Descartes' rule of signs on the
        characteristic polynomial.

        A symmetric matrix has only real eigenvalues, so once the factor x^k of
        the kernel is stripped, the sign changes of χ(x) and χ(−x) count the
        positive and the negative eigenvalues exactly.
        """
        chi = charpoly(self.gram)
        while len(chi) > 1 and chi[-1] == 0:
            chi.pop()
        plus = _sign_changes(chi)
        minus = _sign_changes(c if i % 2 == 0 else -c for i, c in enumerate(chi))
        if plus + minus != len(chi) - 1:
            raise AssertionError("a symmetric Gram matrix must have only real eigenvalues")
        return plus, minus


@lru_cache(maxsize=256)
def _det_cached(gram: tuple[tuple[int, ...], ...]) -> int:
    return det_bareiss([list(r) for r in gram])


def charpoly(m: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients [1, c_1, ..., c_n] of det(x·1 − m), division-free (Berkowitz 1984).

    Peels m[k:, k:] = [[a, r], [c, A]] from the bottom-right corner: the
    characteristic polynomial of the larger block is the Toeplitz matrix of
    (1, −a, −r·c, −r·A·c, −r·A²·c, ...) applied to that of A.
    """
    n = len(m)
    poly = [1]
    for k in range(n - 1, -1, -1):
        r = m[k][k + 1 :]
        block = [row[k + 1 :] for row in m[k + 1 :]]
        toeplitz = [1, -m[k][k]]
        col = [row[k] for row in m[k + 1 :]]
        for _ in range(n - k - 1):
            toeplitz.append(-sum(x * y for x, y in zip(r, col)))
            col = [sum(x * y for x, y in zip(row, col)) for row in block]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(min(i + 1, len(poly))))
            for i in range(len(poly) + 1)
        ]
    return poly


def _sign_changes(coeffs: Iterable[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _freeze(m: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, _as_int_matrix(m)))


def diagonal_lattice(*entries: int) -> IntegerLattice:
    """The lattice with the diagonal Gram matrix of `entries`: <4> is
    diagonal_lattice(4), A1 is diagonal_lattice(-2) and A1(2) is
    diagonal_lattice(-4)."""
    return IntegerLattice([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])


def direct_sum(*lattices: IntegerLattice) -> IntegerLattice:
    n = sum(l.rank for l in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return IntegerLattice(g)


# -- discriminant groups -----------------------------------------------------


class FiniteAbelianInvariants(NamedTuple):
    """Discriminant group data: invariant factors and generators.

    Generator i is the dual vector generators[i]/invariant_factors[i]: an
    integer row in the lattice basis over its order d_i.  The discriminant
    form is read over the whole group by `discriminant_q_multiset`.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.invariant_factors, 1)


def discriminant_group(lat: IntegerLattice) -> FiniteAbelianInvariants:
    """Dual quotient L^vee / L from the Smith normal form of the Gram matrix."""
    if lat.det() == 0:
        raise ValueError("degenerate lattice")
    d, u, v = smith_normal_form([list(r) for r in lat.gram])
    gens = []
    factors = []
    for i in range(lat.rank):
        di = d[i][i]
        if di <= 1:
            continue
        # membership in the dual: u_i/d_i pairs integrally with every basis
        # vector, i.e. d_i divides every entry of u_i·G
        if any(x % di for x in lat.times_gram([u[i]])[0]):
            raise AssertionError("dual generator check failed")
        factors.append(di)
        gens.append(tuple(u[i]))
    order = reduce(lambda a, b: a * b, factors, 1)
    if order != abs(lat.det()):
        raise AssertionError("group order must equal |det|")
    return FiniteAbelianInvariants(tuple(factors), tuple(gens))


def discriminant_q_multiset(lat: IntegerLattice) -> dict[Fraction, int]:
    """Multiset of q-values over all elements of the discriminant group.

    Each element is an integer row over den = lcm(d_i); its q-value is the
    residue of v·G·v^T modulo 2·den², turned into one Fraction at the end.
    """
    inv = discriminant_group(lat)
    den = lcm(*inv.invariant_factors)
    scaled = [[den // d * x for x in g] for d, g in zip(inv.invariant_factors, inv.generators)]
    counts: dict[int, int] = {}
    for combo in itertools.product(*(range(f) for f in inv.invariant_factors)):
        vec = [0] * lat.rank
        for c, gen in zip(combo, scaled):
            if c:
                vec = [a + c * b for a, b in zip(vec, gen)]
        key = lat.form(vec, vec) % (2 * den * den)
        counts[key] = counts.get(key, 0) + 1
    return {Fraction(k, den * den): c for k, c in counts.items()}


# -- overlattices ------------------------------------------------------------


class Overlattice(NamedTuple):
    lattice: IntegerLattice
    # the new basis in old coordinates, integer rows over basis.den: the HNF
    # rows from `overlattice`, or any basis of the same lattice in their place
    basis: RowBasis
    index: int


def overlattice(lat: IntegerLattice, glues: Sequence[Sequence], den: int = 1) -> Overlattice:
    """Even overlattice generated by L and the glue vectors glues/den.

    Rational glue entries are cleared once, so the glue vectors become
    integer rows over one denominator and every check is an integer one.
    Preconditions checked exactly: every glue vector pairs integrally with L
    and with the other glue vectors, and has even integral norm.  Offending
    vectors/pairs are named in the error.  The new basis is the Hermite
    normal form of the stacked generators (den·1 and the glue rows), so the
    output Gram is canonical.
    """
    n = lat.rank
    for gi, g in enumerate(glues):
        if len(g) != n:
            raise ValueError(f"glue vector {gi} has wrong length")
    flat, d = clear_denominators([x for g in glues for x in g])
    den *= d
    rows = [flat[k : k + n] for k in range(0, len(flat), n)]
    for gi, (g, gg) in enumerate(zip(rows, lat.times_gram(rows))):
        for j, x in enumerate(gg):
            if x % den:
                raise ValueError(f"glue vector {gi} pairs non-integrally with basis vector {j}")
        nrm = lat.norm(g, den * den)
        if nrm.denominator != 1 or nrm.numerator % 2:
            raise ValueError(f"glue vector {gi} has non-even norm {nrm}")
    for i, j in itertools.combinations(range(len(rows)), 2):
        if lat.form(rows[i], rows[j]) % (den * den):
            raise ValueError(f"glue vectors {i} and {j} pair non-integrally")
    stacked = [[den if i == j else 0 for j in range(n)] for i in range(n)] + rows
    h, _ = hermite_normal_form(stacked)
    basis = RowBasis(h[:n], den)
    gram = lat.gram_of(basis.rows)
    if any(x % (den * den) for row in gram for x in row):
        raise AssertionError("overlattice Gram must be integral")
    new = IntegerLattice([[x // (den * den) for x in row] for row in gram])
    if not new.det() or lat.det() % new.det():
        raise AssertionError("overlattice index squared must be an integer")
    return Overlattice(new, basis, _isqrt_exact(abs(lat.det() // new.det())))


def _isqrt_exact(x: int) -> int:
    r = isqrt(x)
    if r * r != x:
        raise AssertionError("index squared must be a perfect square")
    return r


class RowBasis:
    """Integer coordinates over a fixed row basis B = rows/den of integer rows.

    The rows are brought to Hermite normal form H = U·rows once, and U is
    kept as its sparse rows.  Each x·B = v/d is then solved as y·H = v·den/d
    by forward substitution along the pivots, with a divisibility test at
    every pivot, so membership is an exact integer decision; x = y·U, and
    the numerators x·rows of `vector`, are products by `_sparse_product`.
    """

    def __init__(self, rows: Sequence[Sequence[int]], den: int = 1):
        self.rows = [[index(x) for x in row] for row in rows]  # integers only, no truncation
        self.den = den
        self.ncols = len(self.rows[0])
        self.hnf, u = hermite_normal_form(self.rows)
        self.transform = _sparse_rows(u)  # U as its sparse rows
        # the column of the first nonzero entry of each row of H (ncols for a zero row)
        self.pivots = [next((j for j, x in enumerate(row) if x), self.ncols) for row in self.hnf]
        if self.pivots[-1] == self.ncols:
            raise ValueError("basis rows must be linearly independent")

    def coordinates(self, v: Sequence[int], den: int = 1) -> Optional[list[int]]:
        """The integer x with x·B = v/den, or None if v/den is not in the lattice."""
        _check_length(v, self.ncols, "vector")
        w = [x * self.den for x in v]
        if den != 1:
            if any(x % den for x in w):
                return None
            w = [x // den for x in w]
        y = []
        for row, p in zip(self.hnf, self.pivots):
            q, rem = divmod(w[p], row[p])
            if rem:
                return None
            y.append(q)
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        if any(w):
            return None
        return _sparse_product(_sparse_rows([y]), self.transform, len(self.rows))[0]  # x = y·U

    def vector(self, x: Sequence[int]) -> list[int]:
        """The numerators of x·B over den."""
        _check_length(x, len(self.rows), "coordinate vector")
        return _sparse_product(_sparse_rows([x]), _sparse_rows(self.rows), self.ncols)[0]


# -- orthogonal complements --------------------------------------------------


def orthogonal_complement(
    lat: IntegerLattice, vectors: Sequence[Sequence[int]]
) -> tuple[IntegerLattice, list[list[int]]]:
    """Primitive sublattice {v in L : v·s = 0 for all s} with induced Gram.

    Returns (lattice, basis rows in L's coordinates).  A = G·S^T = (S·G)^T
    (G is symmetric) has one column per vector s, and one HNF gives
    U·A = H: the rows of U at the zero rows of H span the integer kernel of
    A, and since U is unimodular that kernel is saturated, so the result is
    primitive.  The basis, formed by the HNF anyway, is the one witness of
    the rows the Gram is taken on.
    """
    n = lat.rank
    if not vectors:
        return lat, mat_identity(n)
    for s in vectors:
        _check_length(s, n, "vector")
    h, u = hermite_normal_form(mat_transpose(lat.times_gram(vectors)))
    basis = [row for row, hrow in zip(u, h) if not any(hrow)]
    return IntegerLattice(lat.gram_of(basis)), basis


# -- isometries --------------------------------------------------------------


class Isometry(NamedTuple):
    """A named integer isometry M by its sparse rows: row i is the image of
    basis vector i as its nonzero (column, entry) pairs in column order, a
    canonical form, so two isometries are one matrix iff their rows are equal.
    Every product with M (`apply`, `compose`, `involutive_isometry`) is a
    `_sparse_product` over these rows."""

    name: str
    rows: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_matrix(cls, name: str, m: Iterable[Iterable[int]]) -> "Isometry":
        """The isometry whose row i is row i of m, frozen as canonical sparse rows."""
        return cls(name, tuple(map(tuple, _sparse_rows(m))))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def apply(self, v: Sequence[int]) -> list[int]:
        """v·M, over the nonzero entries of v and M."""
        _check_length(v, self.rank, "vector")
        return _sparse_product(_sparse_rows([v]), self.rows, self.rank)[0]

    def compose(self, other: "Isometry") -> "Isometry":
        """self·other, re-sparsified."""
        n = self.rank
        _check_length(other.rows, n, "isometry matrix")
        return Isometry.from_matrix(f"{self.name};{other.name}", _sparse_product(self.rows, other.rows, n))

    def involutive_isometry(self, lat: IntegerLattice) -> tuple[bool, bool]:
        """(M·M = 1, M·G·M^T = G), exactly, from full products over the rows.

        The rows of M are both factors of M·M and the left factor of A = M·G,
        over the lattice's cached sparse Gram rows (`sparse_gram`).
        If M² = 1 then M^T is its own inverse, so M·G·M^T = G iff
        M·G = G·M^T = (M·G)^T (G is symmetric): the Gram test is the symmetry
        of A.  Otherwise M·G·M^T is formed in full from the same A by the
        step `IntegerLattice.gram_of` takes (`_against_rows`).
        """
        n = lat.rank
        rows = self.rows
        _check_length(rows, n, "isometry matrix")
        involutive = _sparse_product(rows, rows, n) == _identity(n)
        a = _sparse_product(rows, lat.sparse_gram, n)
        if involutive:
            return True, a == mat_transpose(a)
        return False, _against_rows(rows, a) == [list(row) for row in lat.gram]

    def trace(self) -> int:
        return sum(x for i, row in enumerate(self.rows) for j, x in row if i == j)

    def invariant_rank(self) -> int:
        """Rank of the fixed sublattice: rank minus the rank of M − 1."""
        n = self.rank
        delta = [[-(i == j) for j in range(n)] for i in range(n)]  # M − 1
        for drow, row in zip(delta, self.rows):
            for j, x in row:
                drow[j] += x
        return n - len(bareiss(delta)[1])


def reflection_rows(lat: IntegerLattice, r: Sequence[int], name: str) -> Isometry:
    """The reflection v -> v − 2(v·r)/(r·r)·r, for an integer r of norm −2
    or −4, as an `Isometry` built from the nonzero entries of r.

    e_i·r is the combination of the Gram rows on the support of r (G is
    symmetric).  Row i is ((i, 1),) when e_i ⟂ r, and otherwise
    e_i − 2(e_i·r)/(r·r)·r over the support of r and i, in column order,
    with a zero entry dropped.  For norm −4 the map is integral only if
    every basis vector pairs evenly with r; the first offending basis vector
    is named otherwise.  A non-integral entry of r is refused, never
    truncated.
    """
    n = lat.rank
    _check_length(r, n, "reflection vector")
    support = [(j, x if type(x) is int else _as_int(x, 0, j)) for j, x in enumerate(r) if x]
    gr = _sparse_product([support], lat.sparse_gram, n)[0]  # e_i·r = (r·G)_i, G symmetric
    rr = sum(x * gr[j] for j, x in support)
    if rr not in (-2, -4):
        raise ValueError(f"{name}: reflection vector must have norm -2 or -4, got {rr}")
    cols = [j for j, _ in support]
    rows = []
    for i, p in enumerate(gr):
        coeff, rem = divmod(-2 * p, rr)
        if rem:
            raise ValueError(
                f"{name}: non-integral reflection: basis vector {i} pairs oddly with r (v·r = {p})"
            )
        if not coeff:
            rows.append(((i, 1),))  # e_i ⟂ r is fixed
            continue
        row = [(j, coeff * x) for j, x in support]
        k = bisect_left(cols, i)
        if k < len(cols) and cols[k] == i:
            y = row[k][1] + 1
            if y:
                row[k] = (i, y)
            else:
                del row[k]
        else:
            row.insert(k, (i, 1))
        rows.append(tuple(row))
    return Isometry(name, tuple(rows))


@lru_cache(maxsize=None)
def _identity(n: int) -> IntMatrix:
    """The n×n identity that products are compared against; shared, so it
    is never handed out or changed."""
    return mat_identity(n)
