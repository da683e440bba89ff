import pytest

from quartic15.congruence import (
    AlphaVector,
    invariants,
    published_columns,
    table1_report,
    two_n_profile,
)


def test_invariants_2_3_1():
    inv = invariants(2, 3, 1)
    assert inv.g == 1
    assert inv.deg_focal == 4
    assert inv.deg_l_curve == 4
    assert inv.deg_p_surface == 2
    assert inv.deg_branch_locus == 10


def test_invariants_2_2_0():
    inv = invariants(2, 2, 0)
    assert inv.g == 1 and inv.deg_focal == 4
    assert two_n_profile(2).expected_nodes == 16


def test_invariants_rejects_order_one():
    with pytest.raises(ValueError):
        invariants(1, 3, 0)
    with pytest.raises(ValueError):
        invariants(3, 1, 0)
    with pytest.raises(ValueError):
        invariants(2, 3, 5)


def test_focal_degree_identity_symbolic():
    # 2m + 2g - 2 = 2n(m-1) - 2r identically, with g = (m-1)(n-1) - r,
    # checked as an exact polynomial identity in the variables (m, n, r)
    from quartic15.exact import MultiPoly

    m = MultiPoly.variable(3, 0)
    n = MultiPoly.variable(3, 1)
    r = MultiPoly.variable(3, 2)
    one = MultiPoly.constant(3, 1)
    g = (m - one) * (n - one) - r
    lhs = 2 * m + 2 * g - 2 * one
    rhs = 2 * n * (m - one) - 2 * r
    assert lhs == rhs
    # branch degree: 4(mn - r) - 2(m + n) = 4(g - 1) + 2(m + n)
    assert 4 * (m * n - r) - 2 * (m + n) == 4 * (g - one) + 2 * (m + n)


def test_focal_degree_identity_sweep():
    rows = [
        (m, n, r, invariants(m, n, r))
        for m in range(2, 9)
        for n in range(2, 9)
        for r in range((m - 1) * (n - 1) + 1)
    ]
    for m, n, r, row in rows:
        g = row.g
        assert row.deg_focal == 2 * m + 2 * g - 2 == 2 * n * (m - 1) - 2 * r
        assert row.deg_branch_locus == 4 * (m * n - r) - 2 * (m + n)


def test_duality_swap():
    for m in range(2, 7):
        for n in range(2, 7):
            for r in range(0, (m - 1) * (n - 1) + 1):
                a = invariants(m, n, r)
                b = invariants(n, m, r)
                assert a.deg_l_curve == b.deg_p_surface
                assert a.deg_focal == 2 * m + 2 * a.g - 2
                assert a.g == b.g


def test_two_n_profiles():
    assert two_n_profile(3).expected_nodes == 15
    assert two_n_profile(7).expected_nodes == 11
    assert two_n_profile(2).expected_nodes == 16
    assert two_n_profile(3).invariants == invariants(2, 3, 1)
    # the order-2 identities the library no longer re-checks on every call
    for n in range(2, 8):
        inv = two_n_profile(n).invariants
        assert inv.g == 1 and inv.deg_focal == 4, n
        assert inv.deg_branch_locus == 2 * (n + 2), n
        assert inv.deg_p_surface == n - 1, n
    with pytest.raises(ValueError):
        two_n_profile(8)


def test_table1_columns_verified_against_constraints():
    # every published column satisfies both defining sums
    for n in range(2, 8):
        for col in published_columns(n):
            assert sum(i**3 * a for i, a in enumerate(col.counts, 1)) == (n + 2) ** 3 - 3 * (n + 2) ** 2
            assert sum(col.counts) == 18 - n


def test_table1_solutions_contain_published():
    assert AlphaVector((10, 5, 0, 0, 0, 0)) in table1_report(3).with_node_count
    sols6 = table1_report(6).with_node_count
    assert AlphaVector((1, 4, 6, 0, 1, 0)) in sols6
    assert AlphaVector((0, 8, 0, 4, 0, 0)) in sols6
    assert AlphaVector((0, 0, 10, 0, 0, 1)) in table1_report(7).with_node_count


def test_table1_report_all_n():
    for n in range(2, 8):
        rep = table1_report(n)
        assert rep.published_found, f"published column missing for n={n}"
        assert rep.without_node_count_total >= len(rep.with_node_count)
    rep6 = table1_report(6)
    assert (len(rep6.with_node_count), rep6.without_node_count_total) == (3, 841)


def test_table1_report_matches_a_brute_force_enumeration():
    # every (alpha_2, ..., alpha_6) in range, alpha_1 whatever the cube sum
    # leaves: the total counts every solution, the report keeps those that
    # also meet the node count, in decreasing order
    import itertools

    for n in range(2, 8):
        target = (n + 2) ** 3 - 3 * (n + 2) ** 2
        ranges = [range(target // i**3 + 1) for i in range(2, 7)]
        solutions = [
            (target - sum(i**3 * a for i, a in enumerate(rest, 2)),) + rest
            for rest in itertools.product(*ranges)
            if sum(i**3 * a for i, a in enumerate(rest, 2)) <= target
        ]
        rep = table1_report(n)
        assert rep.without_node_count_total == len(solutions), n
        strict = sorted((s for s in solutions if sum(s) == 18 - n), reverse=True)
        assert [v.counts for v in rep.with_node_count] == strict, n


def test_table1_report_builds_only_the_vectors_it_keeps(monkeypatch):
    # the enumeration counts the 3,500 solutions for n = 7 without building
    # a vector for each: only the 4 that meet the node count and the
    # published columns are built
    from quartic15 import congruence

    built = []

    class Counted(AlphaVector):
        def __new__(cls, counts):
            built.append(counts)
            return super().__new__(cls, counts)

    monkeypatch.setattr(congruence, "AlphaVector", Counted)
    rep = table1_report(7)
    assert (rep.without_node_count_total, len(rep.with_node_count)) == (3500, 4)
    assert len(built) == 4 + 1  # the kept vectors and the one published column for n = 7
