"""Exact rational and modular arithmetic, sparse multivariate polynomials.

A polynomial is stored as integer numerators `nums`, keyed by exponent
tuples, over one positive denominator `den` coprime to them: the lcm of the
reduced coefficient denominators, 1 for the zero polynomial.  The form is
canonical, and every operation runs on these integers.  Coefficients enter
as `int` or `Fraction` (nothing here touches floating point) and leave as a
`Fraction` only through `leading_coefficient`.  Products of polynomials, in
`*` and `substitute_linear`, run in the one monomial-product loop on
exponents packed into one int each.  Values are read in integers, den·f(xs)
at an integer point xs, by the one sparse evaluation loop, which `ModPoly`
reads mod p, or for a family of forms at once off one `monomial_table`, each
shared monomial valued once.  `partials_table` builds that table for the
first or second partials of a form straight off its numerators: the node
readings of `varieties.Hypersurface` read the chart's second partials so,
and the F_p scan the gradient of each candidate.  The rational linear
algebra (`rref`, `nullspace` and `LinearMap`) is a front end to the
fraction-free integer kernels of `lattice`.  No library module calls it:
the benchmark builds its section chart with it, and besides its own tests
only the ragged-row refusal and the pin of that chart reach it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, index, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .lattice import bareiss, clear_denominators

Exponent = tuple[int, ...]
# (monomials, rows) of `monomial_table`
MonomialTable = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    """Sort key for graded-lexicographic order (degree first, then lex)."""
    return (sum(exp), exp)


def _check_index(i: int, nvars: int) -> None:
    if not 0 <= i < nvars:
        raise ValueError(f"variable index {i} out of range for {nvars} variables")


def _rational(c) -> int | Fraction:
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
    return c


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients, the
    integer numerators `nums` over the one denominator `den`.

    Immutable after construction, `nums` included (a read-only view).  It is
    normalised like `DivisorClass`: den > 0, gcd(den, *nums) = 1, no zero
    numerator is stored, and the zero polynomial has den 1.
    """

    __slots__ = ("nvars", "nums", "den", "_sparse")

    def __init__(self, nvars: int, terms: Mapping[Exponent, int | Fraction] | None = None):
        coeffs = {}
        for exp, c in (terms or {}).items():
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} does not have {nvars} entries")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            coeffs[tuple(exp)] = _rational(c)
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._set(nvars, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}, den)

    def _set(self, nvars: int, nums: dict[Exponent, int], den: int) -> None:
        nums = {e: c for e, c in nums.items() if c}
        g = gcd(den, *nums.values()) * (-1 if den < 0 else 1)  # ±den for the zero form
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "nums", MappingProxyType(nums))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def _from_nums(cls, nvars: int, nums: dict[Exponent, int], den: int) -> "MultiPoly":
        """The polynomial nums/den, normalised."""
        f = object.__new__(cls)
        f._set(nvars, nums, den)
        return f

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        _check_index(i, nvars)
        return cls.linear_form([int(k == i) for k in range(nvars)])

    @classmethod
    def linear_form(cls, coeffs: Sequence) -> "MultiPoly":
        n = len(coeffs)
        return cls(n, {tuple(int(k == i) for k in range(n)): c for i, c in enumerate(coeffs)})

    # -- ring structure ------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials have different variable counts")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        res = {e: a * c for e, c in self.nums.items()}
        for e, c in other.nums.items():
            res[e] = res.get(e, 0) + b * c
        return MultiPoly._from_nums(self.nvars, res, den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_nums(self.nvars, {e: -c for e, c in self.nums.items()}, self.den)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_compatible(other)
        n, base = self.nvars, self.total_degree() + other.total_degree() + 1
        product = _mul_integer_terms(_pack(self.nums, n, base), _pack(other.nums, n, base))
        return MultiPoly._from_nums(n, _unpack(product, n, base), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = _rational(c)
        return MultiPoly._from_nums(
            self.nvars, {e: c.numerator * v for e, v in self.nums.items()}, self.den * c.denominator
        )

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and (self.nvars, self.den) == (other.nvars, other.den)
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self):
        if not self.nums:
            return "0"
        parts = []
        for exp in sorted(self.nums, key=grlex_key, reverse=True):
            c = self.nums[exp]
            mono = "*".join(
                f"z{i}^{e}" if e > 1 else f"z{i}" for i, e in enumerate(exp) if e
            )
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts) if self.den == 1 else f"({' + '.join(parts)})/{self.den}"

    # -- degree bookkeeping ---------------------------------------------

    def total_degree(self) -> int:
        return max((sum(e) for e in self.nums), default=0)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.nums}) <= 1

    def leading_monomial(self) -> Optional[Exponent]:
        if not self.nums:
            return None
        return max(self.nums, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the leading (graded-lex) monomial; 0 for the zero form."""
        return Fraction(self.nums.get(self.leading_monomial(), 0), self.den)

    # -- calculus --------------------------------------------------------

    def _monomials(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """((num, ((i, e), ...)), ...): each term's numerator with its nonzero
        (variable, exponent) pairs; built once."""
        try:
            return self._sparse
        except AttributeError:
            pass
        terms = tuple((c, tuple((i, k) for i, k in enumerate(e) if k)) for e, c in self.nums.items())
        object.__setattr__(self, "_sparse", terms)
        return terms

    def _integer_value(self, xs: Sequence[int]) -> int:
        """den·f(xs) for an integer vector xs of nvars entries, summed in
        integers; with den 1 it is f(xs).  The one sparse evaluation loop:
        `ModPoly.evaluate` reduces it mod p."""
        total = 0
        for c, mono in self._monomials():
            for i, e in mono:
                c *= xs[i] ** e
            total += c
        return total

    def partial(self, i: int) -> "MultiPoly":
        _check_index(i, self.nvars)
        res = {}
        for exp, c in self.nums.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                res[tuple(e)] = c * exp[i]
        return MultiPoly._from_nums(self.nvars, res, self.den)

    def gradient(self) -> list["MultiPoly"]:
        return [self.partial(i) for i in range(self.nvars)]

    # -- substitution -----------------------------------------------------

    def substitute_linear(self, matrix: "LinearMap | Sequence[Sequence]", den: int = 1) -> "MultiPoly":
        """Compose with a linear substitution: variables become linear forms.

        `matrix` has one row per current variable, over the common positive
        `den`; the result lives in `cols` variables, with the same degrees.
        Row i is cleared once to an integer form F_i over d_i, so x_i becomes
        F_i/(d_i·den) and a term num·x^e becomes num·Π F_i^(e_i) over
        Π (d_i·den)^(e_i) (for a form of degree k, den^k enters the result's
        den); every term is summed in integers over the lcm of those.  The
        products run on packed exponents (`_pack`) in base D+1, D the total
        degree: no exponent of the result exceeds D, so no digit carries, and
        the sum is unpacked once.
        """
        if index(den) < 1:
            raise ValueError(f"den must be positive, not {den}")
        rows = matrix.entries if isinstance(matrix, LinearMap) else [list(r) for r in matrix]
        if len(rows) != self.nvars:
            raise ValueError(
                f"substitution matrix has {len(rows)} rows, expected {self.nvars}"
            )
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged substitution matrix")
        base = self.total_degree() + 1
        forms, dens = [], []
        for row in rows:
            ints, d = clear_denominators(row)
            forms.append({base**j: a for j, a in enumerate(ints) if a})
            dens.append(d * den)
        one = {0: 1}
        powers = [[one, f] for f in forms]  # powers[i][e] = F_i^e
        terms = self._monomials()
        scales = [prod(dens[i] ** e for i, e in mono) for _, mono in terms]
        common = lcm(*scales)
        acc: dict[int, int] = {}
        for (c, mono), q in zip(terms, scales):
            product = one
            for i, e in mono:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(_mul_integer_terms(pw[-1], forms[i]))
                product = pw[e] if product is one else _mul_integer_terms(product, pw[e])
            c *= common // q
            for e, v in product.items():
                acc[e] = acc.get(e, 0) + c * v
        return MultiPoly._from_nums(ncols, _unpack(acc, ncols, base), self.den * common)

    def permute_variables(self, perm: Sequence[int]) -> "MultiPoly":
        """Relabel variables: new variable perm[i] receives old variable i."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation of the variable indices")
        res = {}
        for exp, c in self.nums.items():
            e = [0] * self.nvars
            for i, v in enumerate(exp):
                e[perm[i]] = v
            res[tuple(e)] = c
        return MultiPoly._from_nums(self.nvars, res, self.den)

    # -- reduction mod p ----------------------------------------------------

    def mod_p(self, p: int) -> "ModPoly":
        """Coefficient-wise reduction mod a prime not dividing any denominator,
        that is, not dividing den."""
        if p < 2:
            raise ValueError("modulus must be at least 2")
        if self.den % p == 0:  # name a coefficient whose denominator p divides
            for c in self.nums.values():
                g = gcd(c, self.den)
                if self.den // g % p == 0:
                    raise ValueError(f"denominator of {c // g}/{self.den // g} divisible by {p}")
        inv = pow(self.den, -1, p)
        return ModPoly(self.nvars, p, {e: c * inv for e, c in self.nums.items()})


def _pack(terms: Mapping[Exponent, int], nvars: int, base: int) -> dict[int, int]:
    """{exponent: c} with each exponent of `nvars` entries read as the
    base-`base` digits of one int, its first entry lowest; a product of
    monomials whose exponents all stay below `base` is then the sum of their
    keys."""
    weights = [base**i for i in range(nvars)]
    return {sum(map(mul, e, weights)): c for e, c in terms.items()}


def _unpack(terms: Mapping[int, int], nvars: int, base: int) -> dict[Exponent, int]:
    """The inverse of `_pack` for exponents of `nvars` entries."""
    out = {}
    for key, c in terms.items():
        e = []
        for _ in range(nvars):
            key, d = divmod(key, base)
            e.append(d)
        out[tuple(e)] = c
    return out


def _mul_integer_terms(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Product of two polynomials given as {packed exponent: integer
    coefficient} (`_pack`), in a base no exponent of the product reaches;
    the one monomial-product loop."""
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out


def monomial_table(forms: Sequence[MultiPoly]) -> MonomialTable:
    """(monomials, rows) for forms in one set of variables: the monomials of
    any of them, in decreasing lex order of exponents, each as the tuple of
    its variable indices with multiplicity (x0²·x2 is (0, 0, 2)), and for
    each form the row of its numerators `nums` at those monomials.
    `table_values` reads all the forms at a point from it."""
    if len({f.nvars for f in forms}) > 1:
        raise ValueError("the forms of a table must have one variable count")
    return _table([f.nums for f in forms])


def partials_table(f: MultiPoly, order: int) -> MonomialTable:
    """The `monomial_table` of the partials of den·f, read straight off its
    numerators `nums`: the n first partials d_i (order 1) or the n(n+1)/2
    second partials d_i d_j, i <= j, row by row (order 2).  A term c·x^e
    gives c·e_i at e − u_i, and c·e_i·(e_j − δ_ij) at e − u_i − u_j: two
    terms never meet in one partial, so the rows are the numerators of
    `MultiPoly.partial` taken once or twice, with no polynomial formed."""
    n = f.nvars
    if order == 1:
        derivatives = [(i,) for i in range(n)]
    elif order == 2:
        derivatives = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        raise ValueError(f"a partials table has order 1 or 2, not {order}")
    rows = []
    for ij in derivatives:
        row = {}
        for exp, c in f.nums.items():
            e = list(exp)
            for i in ij:
                c *= e[i]
                e[i] -= 1
            if c:
                row[tuple(e)] = c
        rows.append(row)
    return _table(rows)


def _table(rows: Sequence[Mapping[Exponent, int]]) -> MonomialTable:
    """The (monomials, rows) of `monomial_table` for rows of {exponent: c}."""
    exps = sorted({e for row in rows for e in row}, reverse=True)
    monomials = tuple(tuple(i for i, k in enumerate(e) for _ in range(k)) for e in exps)
    return monomials, tuple(tuple(row.get(e, 0) for e in exps) for row in rows)


def table_values(table: MonomialTable, xs: Sequence[int]) -> list[int]:
    """den·f(xs) of each form of a `monomial_table`, as `_integer_value`
    reads it: each monomial is valued once, and each form is one integer
    dot product of its row with those values."""
    monomials, rows = table
    values = [prod(map(xs.__getitem__, m)) for m in monomials]
    return [sum(map(mul, row, values)) for row in rows]


class LinearMap:
    """Immutable rational matrix read as a substitution of variables by
    linear forms; `substitute_linear` takes it as well as plain rows."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable]):
        entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LinearMap is immutable")


class ModPoly:
    """Polynomial with coefficients reduced mod p, used by the F_p singular
    scans.  It holds `poly`, the `MultiPoly` of the reduced coefficients in
    [1, p) over den 1, and reads through its integer kernel: `terms` is its
    read-only `nums` and `evaluate` its integer value reduced mod p (the
    scans read only the partials of `poly`, so no library code evaluates)."""

    __slots__ = ("nvars", "p", "poly", "terms")

    def __init__(self, nvars: int, p: int, terms: Mapping[Exponent, int]):
        poly = MultiPoly._from_nums(nvars, {e: c % p for e, c in terms.items()}, 1)
        for name, value in (("nvars", nvars), ("p", p), ("poly", poly), ("terms", poly.nums)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ModPoly is immutable")

    def evaluate(self, point: Sequence[int]) -> int:
        return self.poly._integer_value(point) % self.p

    def __eq__(self, other):
        return isinstance(other, ModPoly) and (self.p, self.poly) == (other.p, other.poly)


def perfect_square_factor(f: MultiPoly) -> Optional[tuple[Fraction, MultiPoly]]:
    """Write a homogeneous even-degree form as c·q² if possible.

    q is normalized to leading (graded-lex) coefficient 1 and c absorbs the
    scale; returns None when f is not a rational square times a constant.
    With f = F/den and lc the leading coefficient of F, Q = lc·q has integer
    coefficients (Gauss's lemma) and Q² = lc·F.  The loop solves for Q's
    coefficients in integers: each step peels the leading term of the
    residual lc·F − Q² by a new term of Q, its leading coefficient over
    2·lc (a nonzero remainder: not a square), updating the residual by one
    product with a monomial instead of squaring Q again.
    """
    if not f.is_homogeneous():
        raise ValueError("perfect_square_factor needs a homogeneous form")
    if not f:
        return (MultiPoly.constant(f.nvars, 1).leading_coefficient(), f)  # 0 = 1·0²
    deg = f.total_degree()
    if deg % 2:
        raise ValueError("perfect_square_factor needs even degree")
    lead = f.leading_monomial()
    if any(e % 2 for e in lead):
        return None
    lc = f.nums[lead]
    half = tuple(e // 2 for e in lead)
    q = {half: lc}
    r = {e: lc * v for e, v in f.nums.items() if e != lead}  # lc·F − Q², Q = lc·x^half
    last_key = grlex_key(half)
    while r:
        t = max(r, key=grlex_key)
        # next term of Q is a·x^e with 2·lc·a = lead(r), x^e = x^t / x^half
        e = tuple(a - b for a, b in zip(t, half))
        if any(x < 0 for x in e):
            return None
        key = grlex_key(e)
        if key >= last_key:
            return None
        last_key = key
        a, rem = divmod(r[t], 2 * lc)
        if rem:
            return None
        # lc·F − (Q + a·x^e)² = r − 2a·x^e·Q − a²·x^(2e)
        for eq, cq in q.items():
            _add_to_term(r, tuple(map(add, eq, e)), -2 * a * cq)
        _add_to_term(r, tuple(2 * x for x in e), -a * a)
        q[e] = a
    return (f.leading_coefficient(), MultiPoly._from_nums(f.nvars, q, lc))


def _add_to_term(terms: dict[Exponent, int], e: Exponent, v: int) -> None:
    s = terms.get(e, 0) + v
    if s:
        terms[e] = s
    else:
        terms.pop(e, None)


# -- exact linear algebra over the rationals -------------------------------
#
# A thin front end: rows are scaled to integers by `clear_denominators` (which
# leaves the row space unchanged) and eliminated by `lattice.bareiss`.


def rref(rows: Iterable[Iterable]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    The elimination is fraction-free on the denominator-cleared rows; the
    only division is by the common final pivot, as the rows are returned.
    """
    a, pivots, _ = bareiss([clear_denominators(row)[0] for row in rows], reduce_above=True)
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [[Fraction(x, d) for x in row] for row in a], pivots


def nullspace(rows: Iterable[Iterable], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel {x : M x = 0}, read off the reduced row
    echelon form: free columns in increasing order, each set to 1 in turn."""
    m = [list(row) for row in rows]
    if ncols is None:
        if not m:
            raise ValueError("ncols required for empty matrix")
        ncols = len(m[0])
    if m and len(m[0]) != ncols:
        raise ValueError("ncols disagrees with the row length")
    red, pivots = rref(m)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [Fraction(int(i == fc)) for i in range(ncols)]
            for r, pc in enumerate(pivots):
                vec[pc] = -red[r][fc]
            basis.append(vec)
    return basis


def primitive_integer_vector(vec: Sequence) -> list[int]:
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    iv, _ = clear_denominators(vec)
    g = gcd(*iv)
    if g:
        iv = [x // g for x in iv]
    if next((x for x in iv if x), 0) < 0:
        iv = [-x for x in iv]
    return iv
