import re

import pytest

from dense_oracle import dense, is_involution, mat_mul, preserves_gram, reflection, sparse
from quartic15 import involutions
from quartic15.configs import apply_perm_duad, apply_perm_duad_set, s6_elements
from quartic15.involutions import (
    GOEPEL_PENTAD,
    NATURALITY_SAMPLE,
    _apply_to_class,
    pentad_naturality_spot_check,
    pentad_root,
    reye_image_report,
    reye_root,
    s6_isometry,
    sigma_star,
    tau_pentad_star,
    tau_rey_star,
    verify_relations,
)
from quartic15.lattice import Isometry, reflection_rows
from quartic15.nodal_surface import (
    AMBIENT,
    CODE_BASIS_DUADS,
    C_SET,
    E,
    ETA,
    L_SET,
    NODE_INDEX,
    NODES,
    DivisorClass,
    b_tilde,
    even_set_code,
    maps_code_into_code,
    picard_lattice,
    sigma_class,
    sigma_eta,
    word_of_nodes,
)
from quartic15.pentads import all_pentads


@pytest.fixture(scope="module")
def model():
    return picard_lattice()


def test_sigma_star_involution_and_images(model):
    # the rows of sigma(eta) and sigma(E_x) on AMBIENT, over den 2
    sig = sigma_star()
    assert sig.den == 2
    assert dense(sig) == [[2 // c.den * x for x in c.nums] for c in [sigma_eta()] + [sigma_class(d) for d in NODES]]
    assert is_involution(dense(sig), 2)
    assert preserves_gram(dense(sig), AMBIENT.gram, 2)
    assert _maps_pic_into_pic(dense(sig), model, 2)
    # sigma exchanges E_x and sigma(E_x)
    for d in NODES:
        assert _apply_to_class(sig, E[d]) == sigma_class(d)
        assert _apply_to_class(sig, sigma_class(d)) == E[d]
    # image of eta has degree 16
    img = _apply_to_class(sig, ETA)
    assert img.degree() == 16
    # the branch class is sigma-invariant
    assert _apply_to_class(sig, b_tilde()) == b_tilde()


def test_reye_root_norm():
    assert reye_root().norm() == -4
    assert pentad_root(GOEPEL_PENTAD).norm() == -4


def test_tau_rey_images():
    report = reye_image_report()
    assert report.all_hold(), report


def test_tau_rey_invariant_rank():
    tau = tau_rey_star()
    assert tau.invariant_rank() == 15
    assert tau.trace() == 14


def test_tau_pentad_examples(model):
    pentad = tuple(sorted(NODES[:5]))
    tau = tau_pentad_star(pentad)
    assert is_involution(dense(tau)) and preserves_gram(dense(tau), AMBIENT.gram)
    assert _maps_pic_into_pic(dense(tau), model)
    # eta -> 19*eta - 12*sum_P E
    expected = 19 * ETA - sum((12 * E[x] for x in pentad), DivisorClass.make())
    assert _apply_to_class(tau, ETA) == expected
    # E_x fixed for x outside the pentad
    for x in NODES[5:]:
        assert _apply_to_class(tau, E[x]) == E[x]


@pytest.mark.parametrize(
    "bad",
    [
        ((2, 1), (1, 3), (1, 4), (1, 5), (1, 6)),  # a reversed duad is no node label
        ((1, 2), (1, 3), (1, 4), (1, 5), (1, 7)),  # 7 is no point of [1, 6]
    ],
)
def test_tau_pentad_star_refuses_labels_that_are_no_nodes(bad):
    with pytest.raises(ValueError, match="^a pentad consists of five distinct node labels$"):
        tau_pentad_star(bad)


def test_verify_relations():
    rep = verify_relations()
    assert rep.goepel_conjugation
    assert rep.reflection_routes_agree
    assert rep.reye_invariant_rank == 15
    assert rep.goepel_invariant_rank == 15
    assert rep.lefschetz_reye == 10
    assert rep.lefschetz_goepel == 10
    assert rep.pencil_norms
    assert rep.reye_fixes_pencils


def test_pentad_naturality():
    assert pentad_naturality_spot_check()


def test_s6_isometries_are_isometries(model):
    # each relabeling is its node-permutation rows on AMBIENT, over den 1
    for g in s6_elements()[:24]:
        iso = s6_isometry(g)
        assert iso.den == 1 and preserves_gram(dense(iso), AMBIENT.gram)
        assert iso.rows == sparse(dense(iso))  # canonical: column order, no stored zero
        assert iso.rows[0] == ((0, 1),)
        assert all(iso.rows[1 + NODE_INDEX[d]] == ((1 + NODE_INDEX[apply_perm_duad(g, d)], 1),) for d in NODES)


def test_isometry_errors_name_the_isometry(monkeypatch):
    with pytest.raises(ValueError, match=re.escape("tau_rey: the class ")) as err:
        _apply_to_class(tau_rey_star(), ETA / 2)
    assert str(err.value) == f"tau_rey: the class {ETA / 2} is not in the Picard lattice"
    # E_(1,2) and E_(1,3) read as each other: the identity relabeling is the
    # swap of two nodes, which preserves the Gram form but leaves Pic
    e12, e13 = E[(1, 2)], E[(1, 3)]
    monkeypatch.setitem(involutions.E, (1, 2), e13)
    monkeypatch.setitem(involutions.E, (1, 3), e12)
    with pytest.raises(ValueError) as err:
        s6_isometry((1, 2, 3, 4, 5, 6))
    assert str(err.value) == "perm(1, 2, 3, 4, 5, 6): does not map the Picard lattice into itself"
    # a root of norm 1 on AMBIENT: the reflection refuses it by name
    monkeypatch.setattr(involutions, "pentad_root", lambda p: ETA / 2)
    with pytest.raises(ValueError, match=re.escape("tau_P(16,26,36,46,56): reflection vector must have norm")):
        tau_pentad_star(C_SET)


def test_class_images_off_the_gram_form_are_refused(monkeypatch):
    # the identity relabeling with 2*eta for eta has the matrix
    # diag(2, 1, ..., 1), which multiplies eta's norm by 4
    monkeypatch.setattr(involutions, "ETA", 2 * ETA)
    with pytest.raises(ValueError, match=re.escape("perm(1, 2, 3, 4, 5, 6): Gram form not preserved")):
        s6_isometry((1, 2, 3, 4, 5, 6))


def test_a_sigma_that_does_not_square_to_one_is_refused(monkeypatch):
    # sigma∘g for the 3-cycle g = (2,3,1,4,5,6) on the nodes: E_x goes to
    # sigma(E_{g(x)}), an isometry whose square is g², not the identity
    g = (2, 3, 1, 4, 5, 6)
    real = involutions.sigma_class
    monkeypatch.setattr(involutions, "sigma_class", lambda d: real(apply_perm_duad(g, d)))
    with pytest.raises(AssertionError, match=re.escape("sigma* must square to the identity")):
        sigma_star()


def test_a_sigma_that_leaves_pic_is_refused(monkeypatch):
    # sigma conjugated by the E_(1,2) <-> E_(1,3) swap S: rows and columns
    # (1,2) and (1,3) exchanged, S·(2σ)·S over 2 squares to 4·1 and
    # preserves 4·G on AMBIENT, so only the Pic test over den 2 refuses it
    swap = {(1, 2): (1, 3), (1, 3): (1, 2)}
    i, j = 1 + NODE_INDEX[(1, 2)], 1 + NODE_INDEX[(1, 3)]
    real = involutions.sigma_class

    def conjugated(d):
        nums = list(real(swap.get(d, d)).nums)
        nums[i], nums[j] = nums[j], nums[i]
        return DivisorClass(tuple(nums), real(d).den)

    monkeypatch.setattr(involutions, "sigma_class", conjugated)
    with pytest.raises(ValueError) as err:
        sigma_star()
    assert str(err.value) == "sigma*: does not map the Picard lattice into itself"


def test_a_reye_reflection_off_the_gram_form_is_refused(monkeypatch, model):
    # the certificate read against a Gram matrix raised by 2 at a basis
    # vector c whose column in the Reye reflection is no ±e_c: the
    # reflection preserves the true Gram matrix only
    tau = tau_rey_star()
    n = tau.rank
    images = [tau.apply([int(j == k) for j in range(n)]) for k in range(n)]
    c = next(c for c in range(n) if sum(1 for row in images if row[c]) > 1)
    gram = [list(row) for row in AMBIENT.gram]
    gram[c][c] += 2
    other = type(AMBIENT)(gram)
    real = Isometry.involutive_isometry
    monkeypatch.setattr(Isometry, "involutive_isometry", lambda self, lat: real(self, other))
    with pytest.raises(ValueError, match=re.escape("tau_rey: Gram form not preserved")):
        tau_rey_star()


def test_reflections_commute_for_disjoint_roots():
    # two pentads with orthogonal roots? pentad roots are never orthogonal:
    # r_P·r_Q = 36 - 8*|P∩Q| ... instead check commuting with a fixed E-reflection
    # via the S6 action: conjugation by commuting permutations commutes
    g1 = (2, 1, 3, 4, 5, 6)
    g2 = (1, 2, 4, 3, 5, 6)
    a = s6_isometry(g1)
    b = s6_isometry(g2)
    assert a.compose(b).rows == b.compose(a).rows


def test_reflection_matches_divisor_class_formula():
    # v -> v + (v·r)/2 · r through DivisorClass.dot, on the rows of AMBIENT
    for root, tau in ((reye_root(), tau_rey_star()), (pentad_root(C_SET), tau_pentad_star(C_SET))):
        for row, b in zip(dense(tau), [ETA] + [E[d] for d in NODES]):
            assert DivisorClass(tuple(row)) == b + (b.dot(root) / 2) * root


def test_sparse_products_see_every_entry_of_a_reflection():
    # changing any one entry of a pentad reflection by ±1, whether the entry
    # is zero or not, must break M·G·M^T = G or M·M = 1: skipping zero
    # entries in the products drops no part of either check
    gram = AMBIENT.gram
    tau = tau_pentad_star(tuple(sorted(NODES[:5])))
    m = dense(tau)
    assert preserves_gram(m, gram) and is_involution(m)
    nonzero = [(i, j) for i in range(tau.rank) for j in range(tau.rank) if m[i][j]]
    zero = next((i, j) for i in range(tau.rank) for j in range(tau.rank) if not m[i][j])
    for i, j in nonzero + [zero]:
        for step in (1, -1):
            rows = [list(r) for r in m]
            rows[i][j] += step
            assert not (preserves_gram(rows, gram) and is_involution(rows)), (i, j, step)
            # the two-product test answers exactly as the two dense ones
            expected = (is_involution(rows), preserves_gram(rows, gram))
            bad = Isometry("mutant", sparse(rows))
            assert bad.involutive_isometry(AMBIENT) == expected, (i, j, step)


def test_pentad_root_is_the_root_on_the_ambient_lattice():
    # `verify_all_pentad_reflections` reflects in pentad_root(P).nums on
    # AMBIENT: den 1, 3 at eta and -2 at the five nodes of P, norm -4, and
    # even pairings with every coordinate vector (12 with eta, 4 with each
    # E_x of P, 0 with the others), so the reflection is integral there
    pentads = all_pentads()
    assert len(pentads) == 3003
    for pentad in pentads:
        root = pentad_root(pentad)
        assert root.den == 1, pentad
        assert root.nums == tuple([3] + [-2 if x in pentad else 0 for x in NODES]), pentad
        assert AMBIENT.form(root.nums, root.nums) == -4, pentad
        assert AMBIENT.times_gram([root.nums])[0] == [12] + [4 if x in pentad else 0 for x in NODES], pentad


def test_the_pentad_products_take_the_multiply_adds_of_the_ambient_lattice():
    # the loop forms M·M and M·G over the sparse rows `reflection_rows` gives
    # it and the sparse rows of G: row i of a product costs, for each entry
    # (k, x) of row i of M, the length of row k of the right factor.  On
    # AMBIENT every pentad reflection has 46 nonzero entries and the Gram
    # matrix 16, so the 6,006 products of the 3003 reflections cost 816,816
    # multiply-adds: 678,678 for M·M and 138,138 for M·G (4,504,124 on the
    # HNF basis of Pic)
    gram = [len(row) for row in AMBIENT.sparse_gram]
    assert sum(gram) == 16
    squares = products = 0
    for pentad in all_pentads():
        m = reflection_rows(AMBIENT, pentad_root(pentad).nums, "r").rows
        own = [len(row) for row in m]
        assert sum(own) == 46, pentad
        squares += sum(own[k] for row in m for k, _ in row)
        products += sum(gram[k] for row in m for k, _ in row)
    assert (squares, products) == (678_678, 138_138)
    assert squares + products == 816_816


def test_reflection_rows_are_the_sparse_rows_of_the_dense_reflection():
    gram = AMBIENT.gram
    for pentad in all_pentads():
        r = pentad_root(pentad).nums
        rows = reflection_rows(AMBIENT, r, "r").rows
        assert rows == sparse(reflection(gram, r)), pentad
        assert all(x for row in rows for _, x in row), pentad


def _times(a, b):
    """a·b for dense a and b, summing row k of b once per nonzero a[i][k]."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(acc)
    return out


def test_times_is_the_dense_product(model):
    b = model.basis.rows
    m = dense(tau_pentad_star(GOEPEL_PENTAD))
    assert _times(b, m) == mat_mul(b, m) and _times(m, b) == mat_mul(m, b)


def test_ambient_reflections_are_the_reflections_on_the_hermite_basis(model):
    # B·M_amb = M_pic·B, B the Hermite basis rows of Pic (numerators over
    # den 2): `tau_pentad_star(P)` on AMBIENT and the dense reflection on
    # Pic's Gram matrix, in the root's coordinates on that basis, are one map
    # for every pentad
    b = model.basis.rows
    assert model.basis.den == 2
    for pentad in all_pentads():
        amb = tau_pentad_star(pentad)
        assert amb == reflection_rows(AMBIENT, pentad_root(pentad).nums, amb.name), pentad
        pic = reflection(model.lattice.gram, model.basis.coordinates(pentad_root(pentad).nums))
        assert _times(b, dense(amb)) == _times(pic, b), pentad


def _maps_pic_into_pic(m, model, den=1):
    """Whether M/den, M integral on AMBIENT, maps every basis row of Pic to
    a vector of Pic, by its integer coordinates on that basis."""
    basis = model.basis
    return all(basis.coordinates(row, basis.den * den) is not None for row in _times(basis.rows, m))


def _swap_e12_e13():
    # E_(1,2) <-> E_(1,3): an involutive isometry of AMBIENT (both have norm
    # -2) that no relabeling of {1,...,6} induces
    m = [[int(i == j) for j in range(16)] for i in range(16)]
    i, j = 1 + NODE_INDEX[(1, 2)], 1 + NODE_INDEX[(1, 3)]
    m[i], m[j] = m[j], m[i]
    return m


def _tau_rey_on_ambient():
    return dense(reflection_rows(AMBIENT, reye_root().nums, "tau_rey"))


def _sigma_conjugated_by_the_swap():
    # S·(2σ)·S over 2, S the E_(1,2) <-> E_(1,3) swap: it squares to 4·1 and
    # preserves 4·G, but maps Pic off itself
    s = _swap_e12_e13()
    return mat_mul(mat_mul(s, dense(sigma_star())), s)


def test_the_code_test_agrees_with_pic_membership(model):
    # `maps_code_into_code` against the coordinates of the images of the
    # basis rows of Pic, on every pentad reflection, on tau_rey built on
    # AMBIENT, on the E_(1,2) <-> E_(1,3) swap, on a pentad reflection with
    # one entry bumped by 1 or by 2, on the 12 relabelings of the naturality
    # spot check, and over den 2 on sigma*, on sigma conjugated by the swap
    # on 2·1 + (every row the code word c): its rows are code words mod 2,
    # but each generator word, of odd weight, maps to c mod 2, not to 0; and
    # on 2·1 + (e_eta at eta and the five code basis duads): each generator
    # word meets those six rows 4 times, so it maps to itself mod 2, but
    # those rows are the eta bit mod 2, no code word
    matrices = [dense(reflection_rows(AMBIENT, pentad_root(p).nums, "a")) for p in all_pentads()]
    first = matrices[0]
    bumped = []
    for step in (1, 2):
        m = [list(row) for row in first]
        m[0][0] += step
        bumped.append(m)
    perms = s6_elements()
    relabelings = [dense(s6_isometry(perms[(37 * k + 11) % len(perms)])) for k in range(NATURALITY_SAMPLE)]
    cases = [(m, 1) for m in matrices + [_tau_rey_on_ambient(), _swap_e12_e13()] + bumped + relabelings]
    c = even_set_code().generator_words[0]
    odd = [[2 * (i == j) + (c >> j & 1) for j in range(16)] for i in range(16)]
    t = word_of_nodes(CODE_BASIS_DUADS, eta_bit=True)
    eta_rows = [[2 * (i == j) + (j == 0 and t >> i & 1) for j in range(16)] for i in range(16)]
    cases += [(dense(sigma_star()), 2), (_sigma_conjugated_by_the_swap(), 2), (odd, 2), (eta_rows, 2)]
    verdicts = []
    for m, den in cases:
        verdict = maps_code_into_code(sparse(m), den)
        assert verdict == _maps_pic_into_pic(m, model, den)
        verdicts.append(verdict)
    assert verdicts == [True] * 3003 + [True, False, False, True] + [True] * NATURALITY_SAMPLE + [True, False, False, False]


def test_the_swap_of_two_nodes_is_refused_only_by_the_code_test(model):
    # the swap over den 1, and sigma* conjugated by it over den 2
    for m, den in ((_swap_e12_e13(), 1), (_sigma_conjugated_by_the_swap(), 2)):
        iso = Isometry.from_matrix("swap", m, den)
        assert iso.den == den and dense(iso) == m
        assert iso.involutive_isometry(AMBIENT) == (True, True)
        assert is_involution(m, den) and preserves_gram(m, AMBIENT.gram, den)
        assert not _maps_pic_into_pic(m, model, den)
        assert not maps_code_into_code(iso.rows, iso.den)
    # no permutation of {1,...,6} moves (1,2) to (1,3) and fixes every other duad
    swap = {(1, 2): (1, 3), (1, 3): (1, 2)}
    assert not any(all(apply_perm_duad(g, d) == swap.get(d, d) for d in NODES) for g in s6_elements())


def test_the_code_test_is_not_a_test_of_the_identity_mod_2():
    # tau_rey on AMBIENT adds c·r to e_i with c ≡ (0, 1 on L) mod 2 and
    # r ≡ (0, 1 on L): it is not the identity mod 2, yet it maps Pic onto Pic
    m = _tau_rey_on_ambient()
    mod2 = [[x % 2 for x in row] for row in m]
    assert mod2 != [[int(i == j) for j in range(16)] for i in range(16)]
    assert all(mod2[1 + NODE_INDEX[x]][1 + NODE_INDEX[y]] == (x == y) ^ 1 for x in L_SET for y in L_SET)
    assert is_involution(m) and preserves_gram(m, AMBIENT.gram)
    assert maps_code_into_code(sparse(m))


def test_tau_pentad_star_is_the_dense_form_of_the_rows():
    # the 12 pentads P and g(P) of the naturality spot check, through
    # `tau_pentad_star`, against the dense definition on AMBIENT
    perms, pentads = s6_elements(), all_pentads()
    for k in range(NATURALITY_SAMPLE):
        p = pentads[(211 * k + 5) % len(pentads)]
        for q in (p, apply_perm_duad_set(perms[(37 * k + 11) % len(perms)], p)):
            tau = tau_pentad_star(q)
            r = pentad_root(q).nums
            assert tau.den == 1 and dense(tau) == reflection(AMBIENT.gram, r), q
            assert tau == reflection_rows(AMBIENT, r, tau.name), q
