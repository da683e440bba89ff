import re

import pytest

from dense_oracle import dense, is_involution, preserves_gram, reflection, sparse
from quartic15 import involutions
from quartic15.configs import apply_perm_duad, apply_perm_duad_set, s6_elements
from quartic15.involutions import (
    GOEPEL_PENTAD,
    NATURALITY_SAMPLE,
    _apply_to_class,
    pentad_naturality_spot_check,
    pentad_root,
    pentad_root_coordinates,
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
    C_SET,
    E,
    ETA,
    NODES,
    DivisorClass,
    b_tilde,
    picard_basis_classes,
    picard_lattice,
    sigma_class,
)
from quartic15.pentads import all_pentads


@pytest.fixture(scope="module")
def model():
    return picard_lattice()


def test_sigma_star_involution_and_images(model):
    sig = sigma_star()
    assert is_involution(dense(sig))
    assert preserves_gram(dense(sig), model.lattice.gram)
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
    assert is_involution(dense(tau)) and preserves_gram(dense(tau), model.lattice.gram)
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
    for g in s6_elements()[:24]:
        iso = s6_isometry(g)
        assert preserves_gram(dense(iso), model.lattice.gram)
        assert iso.rows == sparse(dense(iso))  # canonical: column order, no stored zero


def test_isometry_errors_name_the_isometry(monkeypatch):
    with pytest.raises(ValueError, match=re.escape("tau_rey: the class ")) as err:
        _apply_to_class(tau_rey_star(), ETA / 2)
    assert str(err.value) == f"tau_rey: the class {ETA / 2} is not in the Picard lattice"
    basis = picard_basis_classes()
    monkeypatch.setattr(involutions, "picard_basis_classes", lambda: [E[(1, 2)] / 2] + basis[1:])
    with pytest.raises(ValueError, match=re.escape("perm(2, 1, 3, 4, 5, 6): image of basis vector 0 ")):
        s6_isometry((2, 1, 3, 4, 5, 6))
    monkeypatch.setattr(involutions, "pentad_root", lambda p: ETA / 2)
    with pytest.raises(ValueError, match=re.escape("tau_P(16,26,36,46,56): the root ")):
        tau_pentad_star(C_SET)


def test_class_images_off_the_gram_form_are_refused(monkeypatch):
    # the identity relabeling of a basis that lists 2*eta for eta has the
    # matrix diag(2, 1, ..., 1), which multiplies eta's norm by 4
    basis = picard_basis_classes()
    monkeypatch.setattr(involutions, "picard_basis_classes", lambda: [2 * basis[0]] + basis[1:])
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


def test_a_reye_reflection_off_the_gram_form_is_refused(monkeypatch, model):
    # the certificate read against a Gram matrix raised by 2 at a basis
    # vector c whose column in the Reye reflection is no ±e_c: the
    # reflection preserves the true Gram matrix only
    tau = tau_rey_star()
    n = tau.rank
    images = [tau.apply([int(j == k) for j in range(n)]) for k in range(n)]
    c = next(c for c in range(n) if sum(1 for row in images if row[c]) > 1)
    gram = [list(row) for row in model.lattice.gram]
    gram[c][c] += 2
    other = type(model.lattice)(gram)
    real = Isometry.involutive_isometry
    monkeypatch.setattr(Isometry, "involutive_isometry", lambda self, lat: real(self, other))
    with pytest.raises(AssertionError, match=re.escape("tau_rey must preserve the Gram form")):
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


def test_reflection_matches_divisor_class_formula(model):
    # v -> v + (v·r)/2 · r through DivisorClass.dot, in ambient coordinates
    for root in (reye_root(), pentad_root(C_SET)):
        iso = reflection_rows(model.lattice, model.basis.coordinates(root.nums, root.den), "r")
        for i, b in enumerate(picard_basis_classes()):
            expected = b + (b.dot(root) / 2) * root
            image = model.basis.vector(dense(iso)[i])
            assert DivisorClass(tuple(image), model.basis.den) == expected


def test_sparse_products_see_every_entry_of_a_reflection(model):
    # changing any one entry of a pentad reflection by ±1, whether the entry
    # is zero or not, must break M·G·M^T = G or M·M = 1: skipping zero
    # entries in the products drops no part of either check
    gram = model.lattice.gram
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
            assert bad.involutive_isometry(model.lattice) == expected, (i, j, step)


def test_pentad_root_coordinates_match_the_class_route(model):
    # the integer roots by linearity are the coordinates of the divisor
    # class 3*eta - 2*sum_P E for every one of the 3003 pentads
    roots = list(pentad_root_coordinates())
    assert len(roots) == 3003
    for pentad, w in roots:
        root = pentad_root(pentad)
        assert w == model.basis.coordinates(root.nums, root.den), pentad
    pentad, w = roots[0]
    iso = reflection_rows(model.lattice, w, "w")
    assert iso.rows == tau_pentad_star(pentad).rows


def test_the_pentad_products_take_the_multiply_adds_of_the_named_basis(model):
    # the loop forms M·M and M·G over the sparse rows `reflection_rows` gives
    # it and the sparse rows of G: row i of a product costs, for each entry
    # (k, x) of row i of M, the length of row k of the right factor.  On the
    # named basis the 6,006 products of the 3003 pentad reflections cost
    # 2,260,736 multiply-adds (4,504,124 on the HNF basis), over a Gram
    # matrix with 76 nonzero entries
    gram = [len(row) for row in model.lattice.sparse_gram]
    assert sum(gram) == 76
    total = 0
    for pentad, w in pentad_root_coordinates():
        m = reflection_rows(model.lattice, w, "r").rows
        own = [len(row) for row in m]
        total += sum(own[k] + gram[k] for row in m for k, _ in row)
    assert total == 2_260_736


def test_reflection_rows_are_the_sparse_rows_of_the_dense_reflection(model):
    gram = model.lattice.gram
    for pentad, w in pentad_root_coordinates():
        rows = reflection_rows(model.lattice, w, "r").rows
        assert rows == sparse(reflection(gram, w)), pentad
        assert all(x for row in rows for _, x in row), pentad


def test_tau_pentad_star_is_the_dense_form_of_the_rows(model):
    # the 12 pentads P and g(P) of the naturality spot check, through the
    # divisor-class route of `tau_pentad_star`, against the dense definition
    perms, pentads = s6_elements(), all_pentads()
    for k in range(NATURALITY_SAMPLE):
        p = pentads[(211 * k + 5) % len(pentads)]
        for q in (p, apply_perm_duad_set(perms[(37 * k + 11) % len(perms)], p)):
            tau = tau_pentad_star(q)
            w = model.basis.coordinates(pentad_root(q).nums)
            assert dense(tau) == reflection(model.lattice.gram, w), q
            assert tau == reflection_rows(model.lattice, w, tau.name), q
