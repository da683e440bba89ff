import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dense_oracle import fraction_solve
import quartic15
from quartic15 import nodal_surface as ns
from quartic15.configs import s6_elements
from quartic15.lattice import IntegerLattice, RowBasis, discriminant_q_multiset, orthogonal_complement, overlattice
from quartic15.nodal_surface import (
    E,
    L_SET,
    DivisorClass,
    b_tilde,
    class_invariants,
    discriminant_comparison,
    even_set_code,
    eta_star,
    is_pic_integral,
    kummer_add,
    kummer_embedding_check,
    kummer_model,
    kummer_node_trope_pairings,
    kummer_tropes,
    pic_coordinates,
    picard_basis_classes,
    picard_lattice,
    sigma_class,
    standard_classes,
    transcendental_reference_lattice,
    verify_class_identities,
    word_of_nodes,
)


def test_code_dimension_and_enumerator():
    code = even_set_code()
    assert code.dimension == 5
    assert code.node_weight_enumerator() == {0: 1, 6: 10, 8: 15, 10: 6}


def test_code_generator_sigma12():
    # sigma(E_12) is half of eta minus the six nodes 12,34,35,45,16,26
    word = sigma_class((1, 2)).mod2_word()
    expected = word_of_nodes([(1, 2), (3, 4), (3, 5), (4, 5), (1, 6), (2, 6)], eta_bit=True)
    assert word == expected


def test_weight6_words_are_trope_sets():
    from quartic15.configs import trope_node_sets

    code = even_set_code()
    weight6 = {w for w in code.words if bin(w >> 1).count("1") == 6}
    assert len(weight6) == 10
    assert all(w & 1 for w in weight6)  # eta marker set
    expected = {
        word_of_nodes(sorted(nodes), eta_bit=True) for nodes in trope_node_sets().values()
    }
    assert weight6 == expected


def test_weight8_words_lack_eta_marker():
    code = even_set_code()
    weight8 = {w for w in code.words if bin(w >> 1).count("1") == 8}
    assert len(weight8) == 15
    assert all(not (w & 1) for w in weight8)


def test_weight10_words_are_l_sets():
    # one weight-10 word per total: the complement of a five-star
    code = even_set_code()
    weight10 = {w for w in code.words if bin(w >> 1).count("1") == 10}
    assert word_of_nodes(L_SET, eta_bit=True) in weight10
    assert len(weight10) == 6


def test_code_words_orbit_structure():
    # S6 orbit/stabilizer bookkeeping for the three nontrivial weights
    from quartic15.configs import s6_orbits
    from quartic15.nodal_surface import nodes_of_word

    code = even_set_code()

    def act(g, w):
        nodes = nodes_of_word(w)
        imgs = [tuple(sorted((g[a - 1], g[b - 1]))) for a, b in nodes]
        return word_of_nodes(imgs, eta_bit=bool(w & 1))

    for weight, orbit_size, stab in ((6, 10, 72), (8, 15, 48), (10, 6, 120)):
        words = sorted(w for w in code.words if bin(w >> 1).count("1") == weight)
        orbits = s6_orbits(act, words)
        assert len(orbits) == 1
        assert len(orbits[0].elements) == orbit_size and orbits[0].stabilizer_order == stab


def test_pic_membership_words_and_nonwords():
    code = even_set_code()
    model = picard_lattice()
    rng = random.Random(13)
    # all 32 words give Pic-integral half-classes, confirmed against the
    # overlattice itself (code membership <=> coordinates in the lattice)
    for w in code.words:
        cls = DivisorClass(tuple(1 if w & (1 << i) else 0 for i in range(16)), 2)
        assert is_pic_integral(cls)
        assert model.basis.coordinates(cls.nums, cls.den) is not None
    # 100 random non-words do not
    nonwords = 0
    while nonwords < 100:
        w = rng.getrandbits(16)
        if w in code.words:
            continue
        nonwords += 1
        cls = DivisorClass(tuple(1 if w & (1 << i) else 0 for i in range(16)), 2)
        assert not is_pic_integral(cls)
        if nonwords <= 10:
            assert model.basis.coordinates(cls.nums, cls.den) is None


def test_named_class_norm_table():
    # every named class norm re-derived from the pairing, none cached
    classes = standard_classes()
    expected = {"eta": 4, "eta_star": 4, "B_tilde": 10, "map10": 10, "deg20": 20,
                "deg10_rey": 10, "reye_root": -4, "goepel_root": -4}
    for name, cls in classes.items():
        if name.startswith("E") or name.startswith("sigma_E"):
            assert cls.norm() == -2, name
        elif name.startswith("F"):
            assert cls.norm() == 0, name
        else:
            assert cls.norm() == expected[name], name


def test_picard_lattice_rank_det_index():
    model = picard_lattice()
    assert model.lattice.rank == 16
    assert abs(model.lattice.det()) == 128
    assert model.index == 32  # code dimension 5
    assert model.lattice.is_even()
    assert model.lattice.signature() == (1, 15)


def test_degree_even_on_pic():
    # the degree functional is even on the whole Picard lattice
    model = picard_lattice()
    for cls in picard_basis_classes():
        deg = cls.degree()
        assert deg.denominator == 1 and int(deg) % 2 == 0


def test_class_invariants_examples():
    norm, degree, member = class_invariants(b_tilde())
    assert (norm, degree, member) == (10, 10, True)
    norm, degree, member = class_invariants(standard_classes()["deg20"])
    assert norm == 20 and member
    norm, degree, member = class_invariants(sigma_class((1, 2)))
    assert (norm, degree, member) == (-2, 2, True)
    norm, degree, member = class_invariants(E[(1, 2)])
    assert (norm, degree, member) == (-2, 0, True)
    norm, degree, member = class_invariants(sigma_class((1, 6)))
    assert (norm, degree, member) == (-2, 4, True)


def test_class_identities():
    results = verify_class_identities()
    assert all(results.values()), results


def test_f_class_pairings():
    classes = standard_classes()
    # ten conic-type pencils: F_x = eta_star - E_x
    for x in L_SET:
        f = classes[f"F{x[0]}{x[1]}"]
        assert f.norm() == 0 and f.degree() == 6
    for x, y in itertools.combinations(L_SET, 2):
        assert classes[f"F{x[0]}{x[1]}"].dot(classes[f"F{y[0]}{y[1]}"]) == 2
    # five quartic-type pencils
    for a in range(1, 6):
        f = classes[f"F{a}6"]
        assert f.norm() == 0 and f.degree() == 8 and is_pic_integral(f)
    for a, b in itertools.combinations(range(1, 6), 2):
        assert classes[f"F{a}6"].dot(classes[f"F{b}6"]) == 2


def test_sigma_classes_s6_equivariant():
    # the ten conic classes are a single S6 orbit of divisor classes
    conics = {sigma_class(x) for x in L_SET}
    for g in s6_elements()[:60]:
        assert {c.permuted(g) for c in conics} == conics


def test_discriminant_comparison():
    comp = discriminant_comparison()
    assert comp.groups_match
    assert list(comp.pic_invariants.invariant_factors) == [2, 2, 2, 2, 2, 4]
    assert comp.pic_invariants.order == 128
    # q(Pic) = -q(transcendental); the direct match must fail
    assert comp.q_match_negated
    q_pic = discriminant_q_multiset(picard_lattice().lattice)
    assert q_pic != discriminant_q_multiset(transcendental_reference_lattice())
    # the classically quoted generator list carries typos: exactly the
    # first, fifth and sixth vectors are dual as transcribed
    assert comp.classical_generator_duality == (True, False, False, False, True, True)
    assert comp.weight4_duals_are_four_cycles
    assert comp.snf_generators_generate


def test_kummer_group_structure():
    assert len(ns.KUMMER_GROUP) == 16
    assert kummer_add((1, 2), (1, 6)) == (2, 6)
    assert kummer_add((1, 2), (3, 6)) == (4, 5)  # complement of {1,2,3,6}
    assert kummer_add((1, 2), (1, 2)) == ()


def test_kummer_model_basics():
    model = kummer_model()
    assert model.lattice.rank == 17
    assert model.index == 64  # the 16-node even-set code has dimension 6
    assert abs(model.lattice.det()) == 64
    assert kummer_node_trope_pairings()
    for beta, t in kummer_tropes().items():
        assert sum(1 for x in t[1:] if x) == 6
    with pytest.raises(TypeError):  # the cached tropes are read-only
        kummer_tropes()[()] = (0,) * 17


def test_kummer_embedding():
    cert = kummer_embedding_check()
    assert cert.pairings_preserved
    assert cert.image_in_lattice
    assert cert.image_orthogonal_to_n0
    assert cert.image_equals_complement
    assert cert.gram_match


@pytest.mark.parametrize("d", [(1, 3), (1, 6)])
def test_a_perturbed_sigma_class_turns_the_kummer_embedding_red(monkeypatch, d):
    # E_12 added to one conic-type or quartic-type sigma-class: its image is
    # no longer the classical trope combination
    picard_lattice()  # built from the true classes before the patch
    real = ns.sigma_class
    monkeypatch.setattr(ns, "sigma_class", lambda x: real(x) + E[(1, 2)] if x == d else real(x))
    cert = kummer_embedding_check()
    assert not cert.pairings_preserved
    assert cert.image_in_lattice and cert.image_equals_complement and cert.gram_match


def test_an_altered_kummer_ambient_entry_turns_the_kummer_embedding_red(monkeypatch):
    # N_12's square doubled: inserting a zero N_0 entry no longer preserves
    # the pairings, while the glued lattice, built before, is unchanged
    kummer_model()
    gram = [list(row) for row in ns.KUMMER_AMBIENT.gram]
    i = 1 + ns.KUMMER_INDEX[(1, 2)]
    assert gram[i][i] == -2
    gram[i][i] = -4
    monkeypatch.setattr(ns, "KUMMER_AMBIENT", IntegerLattice(gram))
    cert = kummer_embedding_check()
    assert not cert.pairings_preserved
    assert cert.image_in_lattice and cert.image_orthogonal_to_n0
    assert cert.image_equals_complement and cert.gram_match


def test_pic_coordinates_names_a_class_off_the_lattice():
    assert pic_coordinates(E[(1, 2)], "E_12") == picard_lattice().basis.coordinates(E[(1, 2)].nums)
    with pytest.raises(ValueError, match="^half of E_12 is not in the Picard lattice$"):
        pic_coordinates(E[(1, 2)] / 2, "half of E_12")
    half = E[(1, 2)] / 2
    with pytest.raises(ValueError) as err:
        pic_coordinates(half, "the class", name_class=True)
    assert str(err.value) == f"the class {half} is not in the Picard lattice"


def _rational_rows(basis):
    return [[Fraction(x, basis.den) for x in row] for row in basis.rows]


def _rational_coordinates(basis, v):
    """Reference route: a Fraction solve of x·B = v, that is Bᵀ·x = v, kept
    integral or None (the rows of B are independent)."""
    sol = fraction_solve(list(zip(*basis)), v)
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return [int(c) for c in sol]


def test_integer_coordinates_match_rational_solve():
    model = picard_lattice()
    for name, cls in standard_classes().items():
        assert is_pic_integral(cls), name
        got = model.basis.coordinates(cls.nums, cls.den)
        assert got is not None, name
        coords = [Fraction(x, cls.den) for x in cls.nums]
        assert got == _rational_coordinates(_rational_rows(model.basis), coords), name
    kum = kummer_model()
    for beta, t in kummer_tropes().items():
        coords = [Fraction(x, 2) for x in t]
        assert kum.basis.coordinates(t, 2) == _rational_coordinates(_rational_rows(kum.basis), coords), beta
    n0 = [0] * 17
    n0[1 + ns.KUMMER_INDEX[()]] = 1
    n0_coords = kum.basis.coordinates(n0)
    _, comp_basis = orthogonal_complement(kum.lattice, [n0_coords])
    comp = RowBasis(comp_basis)
    rng = random.Random(5)
    for _ in range(20):
        x = [rng.randint(-3, 3) for _ in comp_basis]
        v = [sum(c * row[j] for c, row in zip(x, comp_basis)) for j in range(17)]
        assert comp.coordinates(v) == x == _rational_coordinates(comp_basis, v)
    v = [a + b for a, b in zip(v, n0_coords)]  # in the Kummer lattice, off the complement
    assert comp.coordinates(v) is None and _rational_coordinates(comp_basis, v) is None


def test_integer_coordinates_reject_non_members():
    model = picard_lattice()
    half_eta = DivisorClass((1,) + (0,) * 15, 2)
    third = DivisorClass((1,) + (0,) * 15, 3)
    for cls in (half_eta, third):
        assert model.basis.coordinates(cls.nums, cls.den) is None
        coords = [Fraction(x, cls.den) for x in cls.nums]
        assert _rational_coordinates(_rational_rows(model.basis), coords) is None


def test_named_class_check_survives_optimize_flag():
    # under -O a bare assert vanishes; the membership check must still raise
    code = (
        "import quartic15.nodal_surface as ns\n"
        "ns.is_pic_integral = lambda cls: False\n"
        "print('debug', __debug__)\n"
        "try:\n"
        "    ns.picard_lattice()\n"
        "except AssertionError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "debug False" in proc.stdout
    assert "raised named class eta must lie in the Picard lattice" in proc.stdout


def test_overlattice_names_a_perturbed_kummer_glue():
    model = kummer_model()
    glues = [[Fraction(x, 2) for x in t] for t in kummer_tropes().values()]
    # a step of ±1 adds a lattice vector: same coset, so the same overlattice
    shifted = [row[:] for row in glues]
    shifted[3][0] += 1
    assert overlattice(ns.KUMMER_AMBIENT, shifted).lattice == model.lattice
    # a step of ±1/2 in any single entry leaves the coset and must be named
    for k in range(len(glues[3])):
        for step in (Fraction(1, 2), Fraction(-1, 2)):
            bad = [row[:] for row in glues]
            bad[3][k] += step
            with pytest.raises(ValueError, match="glue vector 3 "):
                overlattice(ns.KUMMER_AMBIENT, bad)


def test_kummer_in_lattice_rejects_vectors_of_the_wrong_length():
    n0 = [0] * 17
    n0[1 + ns.KUMMER_INDEX[()]] = 1
    model = kummer_model()
    assert model.basis.coordinates(n0) is not None
    with pytest.raises(ValueError, match="expected 17"):
        model.basis.coordinates(n0 + [5])
    with pytest.raises(ValueError, match="expected 17"):
        model.basis.coordinates(n0[:-1])


def test_divisor_class_integer_arithmetic():
    half = (ns.ETA - E[(1, 2)]) / 2
    assert (half.nums[:2], half.den) == ((1, -1), 2)
    # one normalised representation: equality is field equality
    assert 2 * half == ns.ETA - E[(1, 2)] and (2 * half).den == 1
    assert DivisorClass(tuple(2 * x for x in half.nums), 4) == half
    assert half + half == Fraction(2) * half == ns.ETA - E[(1, 2)]
    assert half - half == DivisorClass.make() and -half == half * -1
    assert ns.ETA / 3 + ns.ETA / 6 == ns.ETA / 2
    assert half.norm() == Fraction(1, 2) and half.degree() == 2 and half.dot(ns.ETA) == 2
    assert half.mod2_word() == word_of_nodes([(1, 2)], eta_bit=True)
    assert (ns.ETA / 3).mod2_word() is None and ns.ETA.mod2_word() == 0
    with pytest.raises(ValueError, match="16 coordinates"):
        DivisorClass((1,) * 15)
    with pytest.raises(ValueError, match="positive"):
        DivisorClass((1,) * 16, 0)
    with pytest.raises(TypeError):
        DivisorClass((Fraction(1, 2),) + (0,) * 15)


# -- the named Picard basis ----------------------------------------------------------


def _hnf_basis():
    """The Hermite normal form basis the Picard lattice is certified on."""
    return overlattice(ns.AMBIENT, [sigma_class(d).nums for d in ns.CODE_BASIS_DUADS], 2).basis


def _gram_det(sympy, rows, den):
    """det of the Gram matrix of rows/den, by sympy."""
    m = sympy.Matrix(rows) / den
    return (m * sympy.Matrix(ns.AMBIENT.gram) * m.T).det()


def test_picard_basis_classes_are_the_named_classes():
    tropes = ns.trope_node_sets()
    for i, (d, pivot) in enumerate(zip(ns.CODE_BASIS_DUADS, ns.CODE_PIVOTS)):
        # each pivot lies in T_d for its own d and in no other of the five
        assert [pivot in tropes[e] for e in ns.CODE_BASIS_DUADS] == [j == i for j in range(5)]
    named = (
        [ns.ETA]
        + [(ns.ETA - sum((E[x] for x in tropes[d]), DivisorClass.make())) / 2 for d in ns.CODE_BASIS_DUADS]
        + [E[x] for x in ns.NODES if x not in {(3, 5), (1, 4), (2, 5), (1, 3), (2, 4)}]
    )
    assert picard_basis_classes() == named


def test_named_basis_is_a_unimodular_change_of_the_hnf_basis():
    sympy = pytest.importorskip("sympy")
    hnf, named = _hnf_basis(), picard_lattice().basis
    assert named.den == hnf.den == 2
    # both containments: each basis has integer coordinates on the other
    to_named = [named.coordinates(row, hnf.den) for row in hnf.rows]
    to_hnf = [hnf.coordinates(row, named.den) for row in named.rows]
    assert None not in to_named and None not in to_hnf
    assert sympy.Matrix(to_named).det() in (1, -1)
    assert sympy.Matrix(to_named) * sympy.Matrix(to_hnf) == sympy.eye(16)
    assert _gram_det(sympy, hnf.rows, 2) == _gram_det(sympy, named.rows, 2) == -128


@pytest.mark.parametrize(
    "swap, message",
    [
        # sigma(E_12) for its pivot E_35: the 16 classes span an index-2 sublattice
        (E[(3, 5)], "HNF basis row 0 must lie in the span of the named basis"),
        # sigma(E_12) for half of E_12, which is off the lattice
        (E[(1, 2)] / 2, "named basis class 1 must lie in the Picard lattice"),
    ],
)
def test_a_wrong_named_basis_makes_picard_lattice_raise(monkeypatch, swap, message):
    real = ns._named_basis_classes()
    classes = real[:1] + [swap] + real[2:]
    monkeypatch.setattr(ns, "_named_basis_classes", lambda: classes)
    ns.picard_lattice.cache_clear()
    try:
        with pytest.raises(AssertionError, match=f"^{message}$"):
            ns.picard_lattice()
    finally:
        ns.picard_lattice.cache_clear()


def test_the_pivot_swap_spans_an_index_two_sublattice():
    sympy = pytest.importorskip("sympy")
    classes = picard_basis_classes()
    classes[1] = E[(3, 5)]
    rows = [[x * (2 // c.den) for x in c.nums] for c in classes]
    assert _gram_det(sympy, rows, 2) == -512 == 2**2 * -128


def test_the_named_basis_check_survives_optimize_flag():
    # the same pivot swap under -O, where a bare assert would vanish
    code = (
        "import quartic15.nodal_surface as ns\n"
        "real = ns._named_basis_classes()\n"
        "ns._named_basis_classes = lambda: real[:1] + [ns.E[(3, 5)]] + real[2:]\n"
        "print('debug', __debug__)\n"
        "try:\n"
        "    ns.picard_lattice()\n"
        "except AssertionError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "debug False" in proc.stdout
    assert "raised HNF basis row 0 must lie in the span of the named basis" in proc.stdout


def test_the_named_gram_is_the_ambient_gram_of_the_named_rows():
    # T·G·T^T from the glued Gram equals B·AMBIENT·B^T/den² for the named
    # rows B over den = 2, formed here without the library's products
    model = picard_lattice()
    rows, den = model.basis.rows, model.basis.den
    g = ns.AMBIENT.gram
    expected = []
    for u in rows:
        line = []
        for v in rows:
            total = sum(u[i] * g[i][j] * v[j] for i in range(16) for j in range(16))
            assert total % (den * den) == 0
            line.append(total // (den * den))
        expected.append(tuple(line))
    assert model.lattice.gram == tuple(expected)


def test_the_pairing_table_finds_the_dual_half_sums_of_is_dual_vector():
    # the table route against one `is_dual_vector` call per half-sum, over
    # all 1,365 node quadruples
    quadruples = list(itertools.combinations(ns.NODES, 4))
    assert len(quadruples) == 1365
    dual = [q for q in quadruples if ns.is_dual_vector(DivisorClass.make(nodes=dict.fromkeys(q, 1)) / 2)]
    assert len(dual) == 45
    assert ns._weight4_dual_quadruples() == dual
