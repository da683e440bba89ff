"""Closed-form invariants of line congruences of bidegree (m, n).

Implements the classical counting formulas for order-m class-n congruences
with smooth focal data: rank and sectional genus, focal-surface degree, the
degrees of the associated curve |l| and surface (P) and the branch-locus
degree.  The (2, n) family is specialized separately, and the Diophantine
singular-point table is solved by exhaustive enumeration.
"""

from __future__ import annotations

from typing import NamedTuple

from .configs import TABLE1_COLUMNS


class CongruenceInvariants(NamedTuple):
    g: int
    deg_focal: int
    deg_l_curve: int
    deg_p_surface: int
    deg_branch_locus: int


def invariants(m: int, n: int, r: int) -> CongruenceInvariants:
    """All derived invariants of a bidegree-(m, n) congruence of rank r.

    With g = (m−1)(n−1) − r the focal degree 2m + 2g − 2 equals 2n(m−1) − 2r
    and the branch degree 4(mn−r) − 2(m+n) equals 4(g−1) + 2(m+n) for every
    input, so each is evaluated once (the tests prove both identities).
    """
    if m < 2 or n < 2:
        raise ValueError("order and class must both be at least 2")
    g = (m - 1) * (n - 1) - r
    if r < 0 or g < 0:
        raise ValueError(f"rank must lie in [0, {(m - 1) * (n - 1)}]")
    return CongruenceInvariants(
        g=g,
        deg_focal=2 * m + 2 * g - 2,
        deg_l_curve=n * (n - 1) // 2 + r,
        deg_p_surface=m * (m - 1) // 2 + r,
        deg_branch_locus=4 * (m * n - r) - 2 * (m + n),
    )


class TwoNProfile(NamedTuple):
    invariants: CongruenceInvariants
    expected_nodes: int  # 18 - n singular points on the focal quartic


def two_n_profile(n: int) -> TwoNProfile:
    """The order-2 specialization r = n−2: g = 1, a quartic focal surface,
    branch degree 2(n+2) and deg(P) = n−1, by algebra for every n."""
    if not 2 <= n <= 7:
        raise ValueError("the order-2 family requires 2 <= n <= 7")
    return TwoNProfile(invariants=invariants(2, n, n - 2), expected_nodes=18 - n)


class AlphaVector(NamedTuple):
    """Counts alpha_i of focal singular points with cone degree i."""

    counts: tuple[int, int, int, int, int, int]  # alpha_1 ... alpha_6

    def cubic_sum(self) -> int:
        """Σ i³·α_i; certifies Table 1's defining sum (n+2)³ − 3(n+2)² on
        every published column."""
        return sum((i + 1) ** 3 * a for i, a in enumerate(self.counts))


def _cube_sum_solutions(n: int) -> list[AlphaVector]:
    """All non-negative solutions of the singular-point count equation
    sum_i i^3 alpha_i = (n+2)^3 − 3(n+2)^2, in decreasing order."""
    if not 2 <= n <= 7:
        raise ValueError("the order-2 family requires 2 <= n <= 7")
    target = (n + 2) ** 3 - 3 * (n + 2) ** 2
    solutions = []
    bounds = [target // ((i + 1) ** 3) for i in range(6)]
    for a6 in range(bounds[5] + 1):
        for a5 in range(bounds[4] + 1):
            for a4 in range(bounds[3] + 1):
                for a3 in range(bounds[2] + 1):
                    for a2 in range(bounds[1] + 1):
                        partial = (
                            216 * a6 + 125 * a5 + 64 * a4 + 27 * a3 + 8 * a2
                        )
                        if partial > target:
                            break
                        a1 = target - partial
                        solutions.append(AlphaVector((a1, a2, a3, a4, a5, a6)))
    return sorted(solutions, key=lambda v: v.counts, reverse=True)


def published_columns(n: int) -> list[AlphaVector]:
    """The table columns for class n, as alpha-vectors."""
    cols = []
    for key, col in TABLE1_COLUMNS.items():
        if key.startswith(f"(2,{n})"):
            counts = tuple(col.get(i, 0) for i in range(1, 7))
            cols.append(AlphaVector(counts))
    return cols


class Table1Report(NamedTuple):
    with_node_count: tuple[AlphaVector, ...]
    without_node_count_total: int
    published_found: bool
    extra_solutions: tuple[AlphaVector, ...]


def table1_report(n: int) -> Table1Report:
    """Solver output with and without the node count sum_i alpha_i = 18 − n,
    from one enumeration, with the published columns flagged; extra
    solutions are reported, never suppressed."""
    loose = _cube_sum_solutions(n)
    strict = [v for v in loose if sum(v.counts) == 18 - n]
    published = published_columns(n)
    found = all(col in strict for col in published)
    extras = tuple(v for v in strict if v not in published)
    return Table1Report(
        with_node_count=tuple(strict),
        without_node_count_total=len(loose),
        published_found=found,
        extra_solutions=extras,
    )
