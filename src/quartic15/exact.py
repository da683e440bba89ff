"""Exact rational and modular arithmetic, sparse multivariate polynomials.

Every coefficient in the workbench is a `fractions.Fraction`; nothing here
ever touches floating point.  Polynomials are stored sparsely as a map from
exponent tuples to nonzero rational coefficients, with graded-lexicographic
term order fixed once so that serialized output is bit-stable.  Evaluation
and linear substitution clear denominators once and sum in integers,
building one Fraction per returned coefficient or value.  The rational
linear algebra (`rref`, `nullspace` and `LinearMap`) is a front end to the
fraction-free integer kernels of `lattice`; no library module calls it, and
the benchmark builds its section chart with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .lattice import bareiss, clear_denominators

Rational = Fraction

Exponent = tuple[int, ...]


def grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    """Sort key for graded-lexicographic order (degree first, then lex)."""
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Immutable after construction, `terms` included (a read-only view);
    zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms", "_integral")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        cleaned: dict[Exponent, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} does not have {nvars} entries")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c != 0:
                cleaned[tuple(exp)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(cleaned))

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
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def linear_form(cls, coeffs: Sequence) -> "MultiPoly":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                exp = [0] * n
                exp[i] = 1
                terms[tuple(exp)] = c
        return cls(n, terms)

    # -- ring structure ------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials have different variable counts")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        res = self.terms.copy()
        for exp, c in other.terms.items():
            s = res.get(exp, 0) + c
            if s:
                res[exp] = s
            else:
                res.pop(exp, None)
        return MultiPoly(self.nvars, res)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        res: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        return MultiPoly(self.nvars, res)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        if c == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

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
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"z{i}^{e}" if e > 1 else f"z{i}" for i, e in enumerate(exp) if e
            )
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts)

    # -- degree bookkeeping ---------------------------------------------

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_monomial(self) -> Optional[Exponent]:
        if not self.terms:
            return None
        return max(self.terms, key=grlex_key)

    # -- calculus --------------------------------------------------------

    def _integer_terms(self) -> tuple[int, int, tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]:
        """(den, D, ((num, D − deg, ((i, e), ...)), ...)): every coefficient as
        num/den over one common denominator, with D the total degree and each
        monomial kept as its nonzero (variable, exponent) pairs; built once."""
        try:
            return self._integral
        except AttributeError:
            pass
        den = lcm(*(c.denominator for c in self.terms.values()))
        top = self.total_degree()
        terms = tuple(
            (c.numerator * (den // c.denominator), top - sum(e), tuple((i, k) for i, k in enumerate(e) if k))
            for e, c in self.terms.items()
        )
        object.__setattr__(self, "_integral", (den, top, terms))
        return self._integral

    def evaluate(self, point: Sequence) -> Fraction:
        """Value at `point`, summed in integers: with point = xs/d, each term
        c·xs^e/d^deg is brought to the common denominator d^D by d^(D − deg)."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} entries, expected {self.nvars}")
        xs, d = clear_denominators(point)
        den, top, terms = self._integer_terms()
        total = 0
        for c, gap, mono in terms:
            for i, e in mono:
                c *= xs[i] ** e
            total += c * d**gap if gap else c
        return Fraction(total, den * d**top)

    def partial(self, i: int) -> "MultiPoly":
        res: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                res[tuple(e)] = c * exp[i]
        return MultiPoly(self.nvars, res)

    def gradient(self) -> list["MultiPoly"]:
        return [self.partial(i) for i in range(self.nvars)]

    # -- substitution -----------------------------------------------------

    def substitute_linear(self, matrix: "LinearMap | Sequence[Sequence]") -> "MultiPoly":
        """Compose with a linear substitution: variables become linear forms.

        `matrix` has one row per current variable; the result lives in
        `cols` variables.  Homogeneity degree is preserved.  Row i is cleared
        once to an integer form F_i over d_i, so a term (c/den)·x^e becomes
        c·Π F_i^(e_i) over den·Π d_i^(e_i); every term is summed in integers
        over the least common multiple of those denominators.
        """
        rows = matrix.entries if isinstance(matrix, LinearMap) else [list(r) for r in matrix]
        if len(rows) != self.nvars:
            raise ValueError(
                f"substitution matrix has {len(rows)} rows, expected {self.nvars}"
            )
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged substitution matrix")
        units = [tuple(int(k == j) for k in range(ncols)) for j in range(ncols)]
        forms, dens = [], []
        for row in rows:
            ints, d = clear_denominators(row)
            forms.append({units[j]: a for j, a in enumerate(ints) if a})
            dens.append(d)
        one = {(0,) * ncols: 1}
        powers = [[one] for _ in rows]  # powers[i][e] = F_i^e
        den, _, terms = self._integer_terms()
        scales = [prod(dens[i] ** e for i, e in mono) for _, _, mono in terms]
        common = lcm(*scales)
        acc: dict[Exponent, int] = {}
        for (c, _, mono), q in zip(terms, scales):
            product = one
            for i, e in mono:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(_mul_integer_terms(pw[-1], forms[i]))
                product = pw[e] if product is one else _mul_integer_terms(product, pw[e])
            c *= common // q
            for e, v in product.items():
                acc[e] = acc.get(e, 0) + c * v
        denominator = den * common
        return MultiPoly(ncols, {e: Fraction(v, denominator) for e, v in acc.items() if v})

    def permute_variables(self, perm: Sequence[int]) -> "MultiPoly":
        """Relabel variables: new variable perm[i] receives old variable i."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation of the variable indices")
        res = {}
        for exp, c in self.terms.items():
            e = [0] * self.nvars
            for i, v in enumerate(exp):
                e[perm[i]] = v
            res[tuple(e)] = c
        return MultiPoly(self.nvars, res)

    # -- reduction mod p ----------------------------------------------------

    def mod_p(self, p: int) -> "ModPoly":
        """Coefficient-wise reduction mod a prime not dividing any denominator."""
        if p < 2:
            raise ValueError("modulus must be at least 2")
        terms = {}
        for exp, c in self.terms.items():
            if c.denominator % p == 0:
                raise ValueError(f"denominator of {c} divisible by {p}")
            v = (c.numerator * pow(c.denominator, -1, p)) % p
            if v:
                terms[exp] = v
        return ModPoly(self.nvars, p, terms)


def _mul_integer_terms(a: Mapping[Exponent, int], b: Mapping[Exponent, int]) -> dict[Exponent, int]:
    """Product of two polynomials given as {exponent: integer coefficient}."""
    out: dict[Exponent, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


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
    """Polynomial with coefficients reduced mod p, with read-only `terms`;
    used by the F_p singular scans."""

    __slots__ = ("nvars", "p", "terms")

    def __init__(self, nvars: int, p: int, terms: Mapping[Exponent, int]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "p", p)
        object.__setattr__(
            self, "terms", MappingProxyType({e: c % p for e, c in terms.items() if c % p})
        )

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ModPoly is immutable")

    def evaluate(self, point: Sequence[int]) -> int:
        p = self.p
        total = 0
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(point, exp):
                if e:
                    v = (v * pow(x, e, p)) % p
                    if v == 0:
                        break
            total += v
        return total % p

    def partial(self, i: int) -> "ModPoly":
        res = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                res[tuple(e)] = (c * exp[i]) % self.p
        return ModPoly(self.nvars, self.p, res)

    def __eq__(self, other):
        return (
            isinstance(other, ModPoly)
            and (self.nvars, self.p, self.terms) == (other.nvars, other.p, other.terms)
        )


def perfect_square_factor(f: MultiPoly) -> Optional[tuple[Fraction, MultiPoly]]:
    """Write a homogeneous even-degree form as c·q² if possible.

    q is normalized to leading (graded-lex) coefficient 1 and c absorbs the
    scale; returns None when f is not a rational square times a constant.
    The loop is the triangular linear solve for q's coefficients: each step
    peels the leading term of the residual f − c·q², which each new term of
    q updates by one product with a monomial instead of squaring q again.
    """
    if not f.is_homogeneous():
        raise ValueError("perfect_square_factor needs a homogeneous form")
    if not f:
        return (Fraction(1), MultiPoly.zero(f.nvars))
    deg = f.total_degree()
    if deg % 2:
        raise ValueError("perfect_square_factor needs even degree")
    lead = f.leading_monomial()
    if any(e % 2 for e in lead):
        return None
    c = f.terms[lead]
    half = tuple(e // 2 for e in lead)
    q = {half: 1}
    r = {e: v for e, v in f.terms.items() if e != lead}  # f − c·q², q = x^half
    last_key = grlex_key(half)
    while r:
        t = max(r, key=grlex_key)
        # next term of q is a·x^e with a = lead(r) / (2c·x^half)
        e = tuple(a - b for a, b in zip(t, half))
        if any(x < 0 for x in e):
            return None
        key = grlex_key(e)
        if key >= last_key:
            return None
        last_key = key
        lt = r[t]
        a = lt / (2 * c)
        # f − c·(q + a·x^e)² = r − lt·x^e·q − c·a²·x^(2e), since 2c·a = lt
        for eq, cq in q.items():
            _add_to_term(r, tuple(map(add, eq, e)), -lt * cq)
        _add_to_term(r, tuple(2 * x for x in e), -lt * a / 2)
        q[e] = a
    return (c, MultiPoly(f.nvars, q))


def _add_to_term(terms: dict[Exponent, Fraction], e: Exponent, v: Fraction) -> None:
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
