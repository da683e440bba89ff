import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quartic15

from quartic15.lattice import (
    IntegerLattice,
    Isometry,
    RowBasis,
    bareiss,
    charpoly,
    clear_denominators,
    det_bareiss,
    diagonal_lattice,
    direct_sum,
    discriminant_group,
    discriminant_q_multiset,
    hermite_normal_form,
    mat_identity,
    mat_mul,
    minor_rank,
    orthogonal_complement,
    overlattice,
    reflection_rows,
    smith_normal_form,
)

from dense_oracle import dense, fraction_rref, is_involution, preserves_gram, sparse
from dense_oracle import det as reference_det
from dense_oracle import mat_mul as reference_mat_mul


# the forms the tests build: the hyperbolic plane U and its scaling U(2),
# and the root lattice A1 (norm -2) with its scaling A1(2)
U = IntegerLattice([[0, 1], [1, 0]])
U2 = IntegerLattice([[0, 2], [2, 0]])
A1 = diagonal_lattice(-2)
A1_2 = diagonal_lattice(-4)

# E8, negative definite: the Cartan matrix of its Dynkin diagram, negated
E8_GRAM = [
    [-2, 1, 0, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 1],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 0],
    [0, 0, 0, 0, 1, 0, 0, -2],
]


def test_named_lattices():
    assert A1.gram == ((-2,),) and A1_2.gram == ((-4,),)
    assert diagonal_lattice(4, -2).gram == ((4, 0), (0, -2))
    e8 = IntegerLattice(E8_GRAM)
    assert e8.rank == 8 and e8.det() == 1 and e8.signature() == (0, 8)


def test_direct_sum_det():
    l = direct_sum(U2, U2, A1_2, A1)
    assert l.rank == 6
    assert l.det() == (-4) * (-4) * (-4) * (-2)
    assert l.signature() == (2, 4)


def test_signature():
    assert U.signature() == (1, 1)
    assert IntegerLattice(((4,),)).signature() == (1, 0)
    assert IntegerLattice(((0, 0), (0, 0))).signature() == (0, 0)


def test_smith_normal_form_basic():
    d, u, v = smith_normal_form(mat_identity(3))
    assert d == mat_identity(3)
    d, u, v = smith_normal_form([[2, 0], [0, 4]])
    assert [d[0][0], d[1][1]] == [2, 4]
    d, u, v = smith_normal_form([[4, 0], [0, 2]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_smith_normal_form_random():
    rng = random.Random(6)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_hermite_normal_form_random():
    rng = random.Random(8)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        h, u = hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert abs(det_bareiss(u)) == 1
        # echelon with positive pivots, reduced above
        last = -1
        for row in h:
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            assert nz[0] > last
            last = nz[0]
            assert row[nz[0]] > 0


def test_discriminant_group_small():
    assert discriminant_group(U).invariant_factors == ()
    assert discriminant_group(A1).invariant_factors == (2,)
    assert discriminant_q_multiset(A1) == {0: 1, Fraction(3, 2): 1}  # -1/2 mod 2Z
    four = diagonal_lattice(4)
    assert discriminant_group(four).invariant_factors == (4,)
    assert discriminant_q_multiset(four) == {0: 1, Fraction(1, 4): 2, 1: 1}  # k²/4 mod 2Z


def test_discriminant_group_item47_lattice():
    l = direct_sum(U2, U2, A1_2, A1)
    inv = discriminant_group(l)
    assert inv.order == 128
    assert list(inv.invariant_factors) == [2, 2, 2, 2, 2, 4]


def test_discriminant_of_direct_sum_merges():
    a = A1
    b = diagonal_lattice(4)
    ab = discriminant_group(direct_sum(a, b))
    assert sorted(ab.invariant_factors) == [2, 4]
    # q-multiset of a sum is the convolution of the summands'
    qa = discriminant_q_multiset(a)
    qb = discriminant_q_multiset(b)
    conv = {}
    for x, cx in qa.items():
        for y, cy in qb.items():
            key = (x + y) % 2
            conv[key] = conv.get(key, 0) + cx * cy
    assert conv == discriminant_q_multiset(direct_sum(a, b))


def test_overlattice_rejects_odd_norm():
    l = direct_sum(A1, A1)
    with pytest.raises(ValueError, match="non-even norm"):
        overlattice(l, [[Fraction(1, 2), Fraction(1, 2)]])


def test_overlattice_refuses_non_rational_glue():
    l = direct_sum(A1, A1)
    for glue in ([0.5, 0.5], ["1/2", "1/2"]):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            overlattice(l, [glue])


def test_overlattice_valid_rank7():
    l = direct_sum(diagonal_lattice(4), *[A1] * 6)
    glue = [Fraction(1, 2)] * 7
    res = overlattice(l, [glue])
    assert res.lattice.rank == 7
    assert res.index == 2
    assert abs(l.det()) == res.index**2 * abs(res.lattice.det())
    assert res.lattice.is_even()
    assert res.basis.coordinates([1] * 7, 2) is not None
    assert res.basis.coordinates([1] + [0] * 6, 2) is None


def test_overlattice_index_det_relation_random():
    rng = random.Random(4)
    for _ in range(5):
        l = direct_sum(*[A1] * 4, diagonal_lattice(4))
        # glue: half sum of an even-norm subset
        glue = [Fraction(1, 2)] * 4 + [Fraction(0)]
        res = overlattice(l, [glue])
        assert abs(l.det()) == res.index**2 * abs(res.lattice.det())


def test_orthogonal_complement():
    u = U
    comp, basis = orthogonal_complement(u, [[1, 0]])
    assert comp.rank == 1
    assert comp.gram == ((0,),)  # (0,1)·(0,1) = 0... complement of isotropic e is Z e
    assert basis == [[1, 0]] or basis == [[-1, 0]]
    full, _ = orthogonal_complement(u, [])
    assert full.rank == 2
    zero, b = orthogonal_complement(u, [[1, 0], [0, 1]])
    assert zero.rank == 0 and b == []
    with pytest.raises(ValueError, match="vector has 3 entries"):
        orthogonal_complement(u, [[1, 0, 5]])


def test_orthogonal_complement_primitive():
    # complement inside diag(2,2) of (1,1) is generated by (1,-1), not (2,-2)
    l = diagonal_lattice(2, 2)
    comp, basis = orthogonal_complement(l, [[1, 1]])
    assert comp.rank == 1
    assert abs(basis[0][0]) == 1 and basis[0][0] == -basis[0][1]
    assert comp.gram == ((4,),)


def test_reflection_a1():
    a1 = A1
    iso = reflection_rows(a1, [1], "s")
    assert iso == Isometry("s", (((0, -1),),))
    assert preserves_gram(dense(iso), a1.gram) and is_involution(dense(iso))
    assert iso.involutive_isometry(a1) == (True, True)


def test_reflection_fixes_mirror_and_involutive():
    l = direct_sum(A1, A1)
    iso = reflection_rows(l, [1, 0], "s")
    assert iso.rows[1] == ((1, 1),)  # orthogonal vector fixed
    assert preserves_gram(dense(iso), l.gram) and is_involution(dense(iso))


def test_reflection_norm4_parity_guard():
    with pytest.raises(ValueError, match="norm -2 or -4"):
        reflection_rows(diagonal_lattice(-4, -2), [1, 1], "s")  # norm -6
    # norm -4 vector pairing oddly with a basis vector is rejected by name
    l = IntegerLattice(((-4, 1), (1, -2)))
    with pytest.raises(ValueError, match="basis vector 1"):
        reflection_rows(l, [1, 0], "s")


def test_reflection_refuses_a_non_integral_root():
    # r = (1/2, 1/2) has norm -4 in diag(-8,-8) and its true reflection is
    # integral, ((0, -1), (-1, 0)); the root itself must be an integer row,
    # so it is refused rather than truncated to zero (the identity)
    lat = IntegerLattice(((-8, 0), (0, -8)))
    with pytest.raises(ValueError, match="non-integral entry 1/2"):
        reflection_rows(lat, [Fraction(1, 2), Fraction(1, 2)], "s")
    # an integral Fraction is an integer entry
    lat = diagonal_lattice(-1)
    assert reflection_rows(lat, [Fraction(2)], "s").rows == (((0, -1),),)
    assert reflection_rows(lat, [2], "s").rows == (((0, -1),),)
    with pytest.raises(ValueError, match="1 entries, expected 2"):
        reflection_rows(diagonal_lattice(-2, -2), [1], "s")


def test_reflection_rows_drop_a_cancelled_diagonal_entry():
    # r = (1, 1) in diag(-2, -2) has norm -4 and e_0 -> e_0 − (1, 1) = (0, −1):
    # the sparse row stores no zero at its own diagonal, and the dense form
    # is the signed swap
    lat = diagonal_lattice(-2, -2)
    iso = reflection_rows(lat, [1, 1], "s")
    assert iso.rows == (((1, -1),), ((0, -1),))
    assert dense(iso) == [[0, -1], [-1, 0]]
    assert iso.involutive_isometry(lat) == (True, True)


def test_involutive_isometry_cases():
    square = diagonal_lattice(-2, -2)
    rotation = Isometry("rot", sparse(((0, 1), (-1, 0))))
    assert rotation.involutive_isometry(square) == (False, True)  # order 4
    swap = Isometry("swap", sparse(((0, 1), (1, 0))))
    assert swap.involutive_isometry(square) == (True, True)
    assert swap.involutive_isometry(diagonal_lattice(-2, -4)) == (True, False)
    shear = Isometry("shear", sparse(((1, 1), (0, 1))))
    assert shear.involutive_isometry(U) == (False, False)
    with pytest.raises(ValueError, match="isometry matrix"):
        swap.involutive_isometry(A1)


def test_reflections_in_orthogonal_vectors_commute():
    l = direct_sum(*[A1] * 3)
    m1 = reflection_rows(l, [1, 0, 0], "s1")
    m2 = reflection_rows(l, [0, 1, 0], "s2")
    assert m1.compose(m2).rows == m2.compose(m1).rows
    assert dense(m1.compose(m2)) == reference_mat_mul(dense(m1), dense(m2))


def test_isometry_reports_higher_order():
    u = U
    swap = Isometry("swap", sparse(((0, 1), (1, 0))))
    assert swap.involutive_isometry(u) == (True, True)
    not_iso = Isometry("shear", sparse(((1, 1), (0, 1))))
    assert not_iso.involutive_isometry(u) == (False, False)
    rotation = Isometry("rot", sparse(((0, 1), (-1, 0))))
    square = diagonal_lattice(-2, -2)
    # order 4: not an involution, but its square is
    assert rotation.involutive_isometry(square) == (False, True)
    assert rotation.compose(rotation).involutive_isometry(square) == (True, True)


def test_compose_drops_the_entries_that_cancel():
    # the product of a shear and its inverse is the identity: the entry
    # 1·(−1) + 1·1 at (0, 1) is not stored, so the rows equal the identity's
    shear = Isometry("shear", sparse(((1, 1), (0, 1))))
    unshear = Isometry("unshear", sparse(((1, -1), (0, 1))))
    product = shear.compose(unshear)
    assert product == Isometry("shear;unshear", (((0, 1),), ((1, 1),)))
    rotation = Isometry("rot", sparse(((0, 1), (-1, 0))))
    assert rotation.compose(rotation).rows == (((0, -1),), ((1, -1),))
    with pytest.raises(ValueError, match="isometry matrix"):
        shear.compose(Isometry("1", (((0, 1),),)))


def test_from_matrix_freezes_the_canonical_sparse_rows():
    m = [[0, 2, 0], [-1, 0, 3], [0, 0, 0]]
    iso = Isometry.from_matrix("m", iter([iter(row) for row in m]))  # any iterables, read once
    assert iso == Isometry("m", sparse(m))
    assert isinstance(iso.rows, tuple) and all(isinstance(row, tuple) for row in iso.rows)
    assert dense(iso) == m
    # m/4 = [[0, 1, 0], [-1, 0, 3], [0, 0, 0]]/4 has gcd 1, 2m/2 is m over 1
    assert Isometry.from_matrix("m", m, 4).den == 4
    assert Isometry.from_matrix("m", [[2 * x for x in row] for row in m], 2) == iso
    for den in (0, -2):
        with pytest.raises(ValueError, match=f"^m: the denominator must be positive, got {den}$"):
            Isometry.from_matrix("m", m, den)


def _fraction_matrix(iso):
    """The matrix rows/den of an isometry, entry by entry as Fractions."""
    return [[Fraction(x, iso.den) for x in row] for row in dense(iso)]


@st.composite
def _matrices_over_a_den(draw, n):
    """(m, den): a small integer n×n matrix and a denominator in 1..4."""
    m = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))
    return m, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_matrices_over_a_den(n), _matrices_over_a_den(n), st.integers(1, 3))))
def test_isometry_den_matches_the_dense_fraction_values(case):
    # `from_matrix` is canonical, and compose, apply, trace and
    # invariant_rank read den: each equals its dense Fraction value
    (a, da), (b, db), k = case
    n = len(a)
    x, y = Isometry.from_matrix("a", a, da), Isometry.from_matrix("b", b, db)
    fa = [[Fraction(e, da) for e in row] for row in a]
    fb = [[Fraction(e, db) for e in row] for row in b]
    for iso, f in ((x, fa), (y, fb), (x.compose(y), reference_mat_mul(fa, fb))):
        assert iso.den >= 1 and gcd(iso.den, *(e for row in iso.rows for _, e in row)) == 1
        assert _fraction_matrix(iso) == f
    # one matrix, one pair (rows, den): k·a over k·da is a over da
    assert Isometry.from_matrix("a", [[k * e for e in row] for row in a], k * da) == x
    for v in a + [list(range(1, n + 1))]:
        assert [Fraction(e, x.den) for e in x.apply(v)] == reference_mat_mul([v], fa)[0]
    trace = sum(fa[i][i] for i in range(n))
    if trace.denominator == 1:
        assert x.trace() == trace
    else:
        with pytest.raises(ValueError, match=f"^a: non-integral trace {trace.numerator * x.den // trace.denominator}/{x.den}$"):
            x.trace()
    shifted = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(fa)]
    assert x.invariant_rank() == n - len(fraction_rref(shifted)[1])


def test_row_basis_coordinates():
    l = direct_sum(diagonal_lattice(4), *[A1] * 6)
    res = overlattice(l, [[1] * 7], 2)
    coords = res.basis
    assert coords.den == 2
    v = [1] * 6 + [-1]  # numerators over 2
    x = coords.coordinates(v, 2)
    assert [Fraction(a, coords.den) for a in reference_mat_mul([x], coords.rows)[0]] == [Fraction(a, 2) for a in v]
    assert coords.coordinates([1] + [0] * 6, 3) is None  # not half-integral
    assert coords.coordinates([1] * 2 + [0] * 5, 2) is None  # half-integral, not a word
    # dependent rows: their Hermite form has a zero row, which is refused
    with pytest.raises(ValueError, match="^basis row 1 breaks the row echelon form$"):
        RowBasis(hermite_normal_form([[1, 2], [2, 4]])[0])


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([[0, 1], [1, 0]], 1),  # independent, but the pivot moves left
        ([[1, 0], [1, 1]], 1),  # two pivots in one column
        ([[0, 0], [0, 1]], 0),  # a zero row first
        ([[1, 2, 3], [0, 1, 1], [0, 2, 0]], 2),
    ],
)
def test_row_basis_refuses_rows_off_the_echelon_form(rows, bad):
    with pytest.raises(ValueError, match=f"^basis row {bad} breaks the row echelon form$"):
        RowBasis(rows)


def test_row_basis_solves_on_its_own_rows():
    # echelon rows that are no Hermite form (a negative pivot, an entry above
    # a pivot left unreduced) give the coordinates on those very rows
    basis = RowBasis([[-2, 5, 1], [0, 3, 4]], 2)
    for x in ([1, 0], [0, 1], [3, -2], [-1, 7]):
        assert basis.coordinates(reference_mat_mul([x], basis.rows)[0], 2) == x
    assert basis.coordinates([-2, 8, 5], 2) == [1, 1]
    assert basis.coordinates([-2, 8, 5]) == [2, 2]
    assert basis.coordinates([-1, 1, 0], 2) is None  # in the span, off the lattice
    assert basis.coordinates([0, 0, 1], 2) is None  # off the span


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=4),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
)
def test_reflection_laws_in_diagonal_lattice(diag, head):
    # r = (head, 1) has norm -2 once the last diagonal entry is solved for
    head = head[: len(diag)]
    last = -2 - sum(d * x * x for d, x in zip(diag, head))
    assume(last != 0)
    lat = diagonal_lattice(*diag, last)
    r = head + [1]
    iso = reflection_rows(lat, r, "s")
    assert preserves_gram(dense(iso), lat.gram)
    assert is_involution(dense(iso))
    assert iso.involutive_isometry(lat) == (True, True)
    assert iso.apply(r) == [-x for x in r]
    _, mirror = orthogonal_complement(lat, [r])
    assert len(mirror) == lat.rank - 1
    assert all(iso.apply(v) == list(v) for v in mirror)
    assert iso.invariant_rank() == lat.rank - 1


def test_snf_self_check_survives_optimize_flag():
    # under -O a bare assert vanishes; the self-check must still raise
    # a wrong Bézout triple breaks the (gcd, lcm) step of diag(2, 3)
    code = (
        "import quartic15.lattice as L\n"
        "L._bezout = lambda a, b: (1, 0, 0)\n"
        "print('debug', __debug__)\n"
        "try:\n"
        "    L.smith_normal_form([[2, 0], [0, 3]])\n"
        "except AssertionError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "debug False" in proc.stdout
    assert "raised SNF verification failed" in proc.stdout


# -- oracles for the integer pairing and the sparse product -------------------


def reference_pair(lat, v, w):
    """The former dense Fraction double sum over all n² entries."""
    g, n = lat.gram, lat.rank
    return sum(Fraction(v[i]) * g[i][j] * Fraction(w[j]) for i in range(n) for j in range(n))


@st.composite
def symmetric_gram_and_vectors(draw):
    n = draw(st.integers(1, 7))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    # mostly zero entries in ½Z and ⅓Z, as the model classes are
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3])),
        st.integers(-3, 3),
    )
    vec = st.lists(entry, min_size=n, max_size=n)
    return IntegerLattice(tuple(map(tuple, g))), draw(vec), draw(vec)


@settings(max_examples=200, deadline=None)
@given(symmetric_gram_and_vectors())
def test_pair_matches_dense_fraction_sum(data):
    lat, v, w = data
    a, da = clear_denominators(v)
    b, db = clear_denominators(w)
    got = lat.pair(a, b, da * db)
    assert isinstance(got, Fraction)
    assert got == reference_pair(lat, v, w)
    assert lat.pair(b, a, da * db) == got
    assert lat.norm(a, da * da) == reference_pair(lat, v, v)


@st.composite
def matrix_pairs(draw):
    k, n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    )
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    # an all-zero row of a and an all-zero column of b, sometimes
    if draw(st.booleans()):
        a[draw(st.integers(0, k - 1))] = [0] * n
    if draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in b:
            row[col] = 0
    return a, b


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
def test_mat_mul_matches_dense_product(data):
    a, b = data
    got = mat_mul(a, b)
    assert got == reference_mat_mul(a, b)
    assert len(got) == len(a) and all(len(row) == len(b[0]) for row in got)


@st.composite
def isometry_cases(draw):
    """(M, G): a random integer M, or an involution (a signed involutive
    permutation conjugated by an elementary unimodular matrix), with a
    symmetric G that M preserves (G + M·G·M^T) or a random one; now and then
    a zero row of M and of G."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entries)
    if draw(st.booleans()):
        m = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
    else:
        order = draw(st.permutations(range(n)))
        s = [[0] * n for _ in range(n)]
        for k in range(0, n, 2):
            i, j = order[k], order[min(k + 1, n - 1)]
            if i != j and draw(st.booleans()):
                s[i][j] = s[j][i] = draw(st.sampled_from([1, -1]))
            else:
                s[i][i] = draw(st.sampled_from([1, -1]))
                s[j][j] = draw(st.sampled_from([1, -1]))
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t = draw(st.integers(-2, 2)) if a != b else 0
        u, u_inv = mat_identity(n), mat_identity(n)
        u[a][b] += t
        u_inv[a][b] -= t
        m = reference_mat_mul(reference_mat_mul(u, s), u_inv)
        if draw(st.booleans()):
            image = reference_mat_mul(reference_mat_mul(m, g), [list(c) for c in zip(*m)])
            g = [[x + y for x, y in zip(r, q)] for r, q in zip(g, image)]
    if draw(st.booleans()):
        m[draw(st.integers(0, n - 1))] = [0] * n
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            g[k][i] = g[i][k] = 0
    return m, g


@settings(max_examples=200, deadline=None)
@given(isometry_cases())
def test_involutive_isometry_matches_the_dense_definition(case):
    m, g = case
    n = len(m)
    iso = Isometry("m", sparse(m))
    assert dense(iso) == m
    expected = (is_involution(m), preserves_gram(m, g))
    lat = IntegerLattice(tuple(map(tuple, g)))
    assert iso.involutive_isometry(lat) == expected
    # the other sparse-row methods against the same dense matrix
    assert iso.compose(iso).rows == sparse(reference_mat_mul(m, m))
    assert iso.trace() == sum(m[i][i] for i in range(n))
    vectors = m + [list(range(1, n + 1))]  # a zero row of M now and then
    for v in vectors:
        assert iso.apply(v) == reference_mat_mul([v], m)[0]
    # B·G and B·G·B^T on the first k rows of M, none to all of them
    for k in range(n + 1):
        rows = m[:k]
        assert lat.times_gram(rows) == reference_mat_mul(rows, g)
        assert lat.gram_of(rows) == reference_mat_mul(reference_mat_mul(rows, g), [list(c) for c in zip(*rows)])
    assert lat.times_gram(vectors) == reference_mat_mul(vectors, g)
    for bad in ([0] * (n + 1), list(range(n - 1))):
        with pytest.raises(ValueError, match=f"^row has {len(bad)} entries, expected {n}$"):
            lat.times_gram([*m, bad])
    # the Hermite rows H of an invertible M as a row basis: x·H, and back
    if reference_det(m):
        h = hermite_normal_form(m)[0]
        basis = RowBasis(h)
        for v in vectors:
            assert basis.coordinates(reference_mat_mul([v], h)[0]) == v


def test_involutive_isometry_reads_each_lattices_own_gram():
    # each `IntegerLattice.__init__` builds its own sparse Gram rows: one M
    # on two ambient Grams that differ in one diagonal entry gets each
    # lattice's own answer, in either order and again after the other
    from quartic15.involutions import GOEPEL_PENTAD, tau_pentad_star
    from quartic15.nodal_surface import AMBIENT

    lat = AMBIENT
    tau = tau_pentad_star(GOEPEL_PENTAD)
    i = next(k for k, row in enumerate(dense(tau)) if row[k] != 1)  # a moved basis vector
    rows = [list(r) for r in lat.gram]
    rows[i][i] += 2
    other = IntegerLattice(tuple(map(tuple, rows)))
    for first, second in ((lat, other), (other, lat)):
        assert tau.involutive_isometry(first) == (True, first is lat)
        assert tau.involutive_isometry(second) == (True, second is lat)
    assert not preserves_gram(dense(tau), other.gram)


def test_mat_mul_refuses_mismatched_shapes():
    # a row of a longer or shorter than b's row count was cut to fit, so the
    # extra entries were dropped from the product unseen
    for a, b in (([[1, 0]], [[1]]), ([[1, 2]], [[1]]), ([[1]], [[1], [2]])):
        with pytest.raises(ValueError, match="row of the left factor"):
            mat_mul(a, b)


def test_discriminant_group_rejects_non_dual_generator(monkeypatch):
    # a wrong Smith form whose first generator e0/4 pairs to 1/2 with e0
    wrong = ([[4, 0], [0, 2]], mat_identity(2), mat_identity(2))
    monkeypatch.setattr(quartic15.lattice, "smith_normal_form", lambda m: wrong)
    with pytest.raises(AssertionError, match="dual generator"):
        discriminant_group(diagonal_lattice(2, 4))


def test_orthogonal_complement_gram_is_the_induced_form():
    lat = direct_sum(U2, A1, diagonal_lattice(6))
    comp, basis = orthogonal_complement(lat, [[1, 1, 1, 0]])
    assert comp.gram == tuple(tuple(lat.pair(b1, b2) for b2 in basis) for b1 in basis)
    with pytest.raises(ValueError, match="row has 3 entries, expected 4"):
        lat.gram_of([[1, 0, 0, 0], [1, 1, 1]])
    # a half-integral Gram is refused where the lattice is built
    with pytest.raises(ValueError, match="non-integral entry 1/2"):
        IntegerLattice(((Fraction(1, 2), 0), (0, 2)))


# -- integer-only inputs ---------------------------------------------------------


def test_det_bareiss_refuses_a_rational_entry():
    with pytest.raises(ValueError, match=r"non-integral entry 3/2 at \(0, 0\)"):
        det_bareiss([[Fraction(3, 2)]])
    assert det_bareiss([[Fraction(4, 2)]]) == 2


def test_hermite_normal_form_refuses_a_rational_entry():
    with pytest.raises(ValueError, match=r"non-integral entry 1/2 at \(0, 0\)"):
        hermite_normal_form([[Fraction(1, 2), 1]])
    h, _ = hermite_normal_form([[Fraction(4, 2), 1]])
    assert h == [[2, 1]] and all(type(x) is int for x in h[0])


def test_normal_forms_read_a_one_shot_iterator():
    # each kernel reads its input once, so an iterator of rows gives the
    # same result as the list it came from
    m = [[1, 2], [3, 4]]
    assert hermite_normal_form(iter(m)) == hermite_normal_form(m)
    assert hermite_normal_form(iter(m))[0] == [[1, 0], [0, 2]]
    assert hermite_normal_form(map(list, m)) == hermite_normal_form(m)
    assert smith_normal_form(iter(m)) == smith_normal_form(m)
    assert smith_normal_form(iter(m))[0] == [[1, 0], [0, 2]]


def test_ragged_matrices_are_refused_naming_the_row():
    # a short or long row used to be truncated by zip (bareiss, rref) or to
    # surface as a failed self-check (HNF, SNF); now every integer kernel
    # names it
    from quartic15.exact import rref

    for fn in (bareiss, det_bareiss, hermite_normal_form, smith_normal_form, rref):
        with pytest.raises(ValueError, match="^row 1 has 2 entries, expected 3$"):
            fn([[1, 2, 3], [4, 5]])
        with pytest.raises(ValueError, match="^row 2 has 3 entries, expected 2$"):
            fn([[1, 2], [3, 4], [5, 6, 7]])


def test_minor_rank_refuses_ragged_and_rational_matrices():
    # `minor_rank` reads its input like every other integer kernel: the same
    # message as `bareiss` for a ragged matrix, and no rounding of a Fraction
    for m, message in (
        ([[1, 2, 3], [4, 5]], "^row 1 has 2 entries, expected 3$"),
        ([[1, 2], [3, 4], [5, 6, 7]], "^row 2 has 3 entries, expected 2$"),
    ):
        for fn in (bareiss, minor_rank):
            with pytest.raises(ValueError, match=message):
                fn(m)
    with pytest.raises(ValueError, match=r"^non-integral entry 1/2 at \(1, 0\)$"):
        minor_rank([[1, 2], [Fraction(1, 2), 4]])
    assert minor_rank([[Fraction(4, 2), 1], [4, 2]]) == 1


def test_integer_lattice_refuses_a_rational_gram_entry():
    with pytest.raises(ValueError, match="non-integral entry 1/2"):
        IntegerLattice(((Fraction(1, 2),),))
    lat = IntegerLattice(((Fraction(4, 2),),))
    assert lat.gram == ((2,),) and type(lat.gram[0][0]) is int and lat.det() == 2


# -- length-checked inputs -------------------------------------------------------


def test_pair_rejects_vectors_of_the_wrong_length():
    lat = diagonal_lattice(1, 1)
    with pytest.raises(ValueError, match="expected 2"):
        lat.pair([1, 1, 9], [1, 1])
    with pytest.raises(ValueError, match="expected 2"):
        lat.pair([1, 1], [1])


def test_isometry_apply_rejects_vectors_of_the_wrong_length():
    ident = Isometry("1", (((0, 1),), ((1, 1),)))
    with pytest.raises(ValueError, match="expected 2"):
        ident.apply([1, 2, 3])
    with pytest.raises(ValueError, match="expected 2"):
        ident.apply([1])


def test_row_basis_rejects_vectors_of_the_wrong_length():
    with pytest.raises(ValueError, match="^basis row 1 has 1 entries, expected 2$"):
        RowBasis([[2, 1], [3]])
    basis = RowBasis([[2, 1], [0, 3]])
    with pytest.raises(ValueError, match="expected 2"):
        basis.coordinates([2, 4, 0])
    with pytest.raises(ValueError, match="expected 2"):
        basis.coordinates([1])


# -- the signature: Berkowitz and Descartes against a Fraction LDL^T ------------


def reference_signature(gram):
    """The former symmetric Gaussian reduction over Fractions."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    plus = minus = 0
    idx = list(range(n))
    while idx:
        i = next((k for k in idx if a[k][k]), None)
        if i is None:
            # all diagonal zero: find an off-diagonal pair, make a diagonal
            pair = next(((k, l) for k in idx for l in idx if k != l and a[k][l]), None)
            if pair is None:
                break  # zero block: degenerate part
            k, l = pair
            for j in range(n):
                a[k][j] += a[l][j]
            for j in range(n):
                a[j][k] += a[j][l]
            continue
        d = a[i][i]
        if d > 0:
            plus += 1
        else:
            minus += 1
        idx.remove(i)
        for k in idx:
            if a[k][i]:
                f = a[k][i] / d
                for j in range(n):
                    a[k][j] -= f * a[i][j]
                for j in range(n):
                    a[j][k] -= f * a[j][i]
    return plus, minus


@st.composite
def symmetric_grams(draw):
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = draw(st.integers(-5, 5))
        return g
    # A^T·D·A has rank at most k: singular whenever k < n
    k = draw(st.integers(0, n))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k))
    d = draw(st.lists(st.sampled_from([-2, -1, 1, 3]), min_size=k, max_size=k))
    return [[sum(d[r] * a[r][i] * a[r][j] for r in range(k)) for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(symmetric_grams())
def test_signature_matches_fraction_ldlt(gram):
    lat = IntegerLattice(tuple(map(tuple, gram)))
    plus, minus = lat.signature()
    assert (plus, minus) == reference_signature(gram)
    assert plus + minus == len(bareiss(gram)[1])  # the rank


def test_signature_of_the_model_lattices_matches_fraction_ldlt():
    from quartic15.nodal_surface import kummer_model, picard_lattice, transcendental_reference_lattice

    for lat, expected in (
        (picard_lattice().lattice, (1, 15)),
        (transcendental_reference_lattice(), (2, 4)),
        (kummer_model().lattice, (1, 16)),
    ):
        assert lat.signature() == reference_signature(lat.gram) == expected


def test_charpoly_small_cases():
    assert charpoly([]) == [1]
    assert charpoly([[5]]) == [1, -5]
    assert charpoly([[1, 2], [3, 4]]) == [1, -5, -2]
    assert charpoly(mat_identity(3)) == [1, -3, 3, -1]


def test_signature_self_check_survives_optimize_flag():
    # x^2 + 1 has no real root: Descartes' count cannot fill the degree
    code = (
        "import quartic15.lattice as L\n"
        "L.charpoly = lambda m: [1, 0, 1]\n"
        "print('debug', __debug__)\n"
        "try:\n"
        "    L.IntegerLattice(((1, 0), (0, 1))).signature()\n"
        "except AssertionError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "debug False" in proc.stdout
    assert "raised a symmetric Gram matrix must have only real eigenvalues" in proc.stdout


# -- the rank by minors --------------------------------------------------------


@st.composite
def rank_cases(draw):
    """(m, deficient): an integer matrix of 1-5 rows and columns.  Half the
    draws are deficient, of rank below min(rows, columns): a product of an
    n x k and a k x m factor with k below both, or, with no more rows than
    columns, a matrix with a repeated row."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def matrix(n, m):
        return draw(st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=n, max_size=n))

    if not draw(st.booleans()):
        return matrix(rows, cols), False
    if 2 <= rows <= cols and draw(st.booleans()):
        m = matrix(rows, cols)
        i, j = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
        m[j] = list(m[i])
        return m, True
    k = draw(st.integers(0, min(rows, cols) - 1))
    a, b = matrix(rows, k), matrix(k, cols)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)], True


@settings(max_examples=300, deadline=None)
@given(rank_cases())
def test_minor_rank_matches_bareiss(case):
    m, deficient = case
    rank = minor_rank(m)
    assert rank == len(bareiss(m)[1]), m
    assert not deficient or rank < min(len(m), len(m[0])), m


def test_minor_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=100, deadline=None)
    @given(rank_cases())
    def check(case):
        m, _ = case
        assert minor_rank(m) == sympy.Matrix(m).rank(), m

    check()


# -- test-only oracles: sympy and Milgram's formula -------------------------------


def test_smith_normal_form_and_charpoly_match_sympy():
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(cols)] for _ in range(rows)]
        d, _, _ = smith_normal_form(m)
        ref = normalforms.smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
        k = min(rows, cols)
        assert [d[i][i] for i in range(k)] == [abs(int(ref[i, i])) for i in range(k)], m
    # rank-deficient products A·B, A n×r and B r×m with r < min(n, m)
    for _ in range(40):
        n, k = rng.randint(2, 9), rng.randint(2, 9)
        r = rng.randint(1, min(n, k) - 1)
        a = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(r)]
        m = mat_mul(a, b)
        d, _, _ = smith_normal_form(m)
        ref = normalforms.smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
        assert [d[i][i] for i in range(min(n, k))] == [
            abs(int(ref[i, i])) for i in range(min(n, k))
        ], m
    x = sympy.symbols("x")
    for _ in range(40):
        n = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert charpoly(m) == [int(c) for c in sympy.Matrix(m).charpoly(x).all_coeffs()], m


def test_orthogonal_complement_matches_sympy_kernel():
    # random symmetric Grams and 1–3 vectors: n − rank basis rows, each
    # orthogonal to every vector, and a saturated basis (its SNF is all 1s)
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 7)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.choice([0, rng.randint(-6, 6)])
        lat = IntegerLattice(g)
        vectors = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        comp, basis = orthogonal_complement(lat, vectors)
        rank = sympy.Matrix(mat_mul(vectors, g)).rank()
        assert len(basis) == comp.rank == n - rank
        assert all(lat.form(b, s) == 0 for b in basis for s in vectors)
        if basis:
            d = normalforms.smith_normal_form(sympy.Matrix(basis), domain=sympy.ZZ)
            assert [abs(int(d[i, i])) for i in range(len(basis))] == [1] * len(basis), (g, vectors)


def _zeta8_power(k):
    """ζ^k in the Z-basis 1, ζ, ζ², ζ³ of Z[ζ8], where ζ⁴ = −1."""
    k %= 8
    v = [0] * 4
    v[k % 4] = 1 if k < 4 else -1
    return v


def _zeta8_mul(a, b):
    out = [0] * 4
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 4:
                out[i + j] += x * y
            else:
                out[i + j - 4] -= x * y
    return out


def _zeta8_sqrt(n):
    """√n in Z[ζ8] for a power of two n, with √2 = ζ − ζ³."""
    m = n.bit_length() - 1
    assert n == 1 << m
    root = [1 << (m // 2), 0, 0, 0]
    return _zeta8_mul(root, [0, 1, 0, -1]) if m % 2 else root


def _model_lattice(name):
    from quartic15 import nodal_surface as ns

    return {
        "A1": lambda: A1,
        "pic": lambda: ns.picard_lattice().lattice,
        "reference": ns.transcendental_reference_lattice,
        "kummer": lambda: ns.kummer_model().lattice,
    }[name]()


@pytest.mark.parametrize("name", ["A1", "pic", "reference", "kummer"])
def test_milgram_gauss_sum(name):
    # Σ_{x∈A} exp(πi·q(x)) = √|A|·exp(2πi·sign/8), exactly in Z[ζ8]
    lat = _model_lattice(name)
    plus, minus = lat.signature()
    total = [0] * 4
    for q, count in discriminant_q_multiset(lat).items():
        assert (4 * q).denominator == 1
        total = [t + count * z for t, z in zip(total, _zeta8_power(int(4 * q)))]
    order = discriminant_group(lat).order
    assert total == _zeta8_mul(_zeta8_sqrt(order), _zeta8_power(plus - minus))
