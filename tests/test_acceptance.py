"""Acceptance gate: every required check, exact equality, one line each.

Criterion 5 includes the assertion that the F11 scan of the reference
section (1,2,3,5,7,11) finds exactly 15 singular points.  That assertion is
implemented faithfully and fails: 11 divides the pairing of the hyperplane
with the line-intersection point for the duad (1,4), so the three nodes on
those lines collide mod 11 and the exhaustive scan provably returns 13.
Good primes (23, 29) return 15 for the same section; see the companion
regression tests in test_varieties.py and the verification CLI details.
"""

import random

import pytest

from dense_oracle import dense, is_involution, preserves_gram
from quartic15 import involutions as inv
from quartic15 import nodal_surface as ns
from quartic15 import pentads as pt
from quartic15 import varieties as va
from quartic15.configs import (
    IncidenceStructure,
    synthemes,
    three_subsets,
    trope_incidence_model,
)
from quartic15.congruence import published_columns, table1_report, two_n_profile
from quartic15.exact import perfect_square_factor

REFERENCE_COEFFS = (1, 2, 3, 5, 7, 11)


def _line(num: int, label: str, passed: bool):
    print(f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {label}")


def _criterion(num: int, label: str, fn):
    try:
        fn()
    except BaseException:
        _line(num, label, False)
        raise
    _line(num, label, True)


@pytest.fixture(scope="module")
def segre():
    return va.build_variety("segre")


@pytest.fixture(scope="module")
def cr():
    return va.build_variety("cr")


@pytest.fixture(scope="module")
def reference_section():
    return va.hyperplane_section(REFERENCE_COEFFS)


@pytest.fixture(scope="module")
def picard():
    return ns.picard_lattice()


def test_criterion_01_segre_nodes(segre):
    def body():
        assert len(three_subsets()) == 10
        for label in three_subsets():
            cert = va.certify_ordinary_node(segre, va.node_point(label))
            assert not isinstance(cert, va.SmoothPointFailure)
            assert cert.hessian_rank == 4 and cert.is_ordinary
        assert len(va.singular_scan_fp(segre, 11)) == 10

    _criterion(1, "cubic: 10 certified ordinary nodes, F11 scan agrees", body)


def test_criterion_02_double_lines(cr):
    def body():
        assert len(synthemes()) == 15
        for s in synthemes():
            assert va.verify_double_line(cr, va.syntheme_line(s))
        assert len(va.singular_scan_fp(cr, 7)) == 15 * 8 - 30 == 90

    _criterion(2, "quartic: 15 double lines, F7 scan finds the 90 line points", body)


def test_criterion_03_duality():
    def body():
        rng = random.Random(7)
        for _ in range(200):
            z = va.sample_smooth_cubic_point(rng)
            assert va.duality_image(z).quartic_value == 0
        for s in synthemes():
            assert va.duality_plane_to_line(s)
        for subset in three_subsets():
            assert va.ProjectivePoint(va.cardinal_coefficients(subset)) == va.node_point(subset)

    _criterion(3, "duality: 200 samples, planes to lines, nodes to cardinals", body)


def test_criterion_04_cardinal_tangency():
    def body():
        for subset in three_subsets():
            res = va.cardinal_restriction(subset)
            plane = res.plane
            restricted = va.cr_quartic_form().substitute_linear(plane.parametrization, plane.den)
            scale, root = perfect_square_factor(restricted)
            assert root == res.square_root and scale * root * root == restricted
        res = va.cardinal_restriction((1, 2, 3))
        stated = va.cardinal_tangency_quadric().substitute_linear(res.plane.parametrization, res.plane.den)
        assert stated * res.square_root.leading_coefficient() == res.square_root * stated.leading_coefficient()

    _criterion(4, "all 10 cardinal restrictions are perfect squares", body)


def test_criterion_05_reference_section(reference_section):
    def body():
        model = reference_section
        assert len(model.nodes) == 15
        assert all(n.certificate.is_ordinary for n in model.nodes)
        assert len(model.tropes) == 10
        assert all(len(t.incident_nodes) == 6 for t in model.tropes)
        geometric = IncidenceStructure(
            tuple(n.syntheme for n in model.nodes),
            tuple(t.subset for t in model.tropes),
            tuple(
                tuple(n.syntheme in t.incident_nodes for t in model.tropes)
                for n in model.nodes
            ),
        )
        assert geometric == trope_incidence_model()  # the labels are the isomorphism
        count = len(va.singular_scan_fp(model, 11))
        assert count == 15, (
            f"F11 scan found {count} points, not 15: 11 divides the hyperplane's "
            "pairing with the duad point (1,4), so three nodes collide mod 11; "
            "the stated count is unattainable (good primes 23/29 give 15)"
        )

    _criterion(5, "reference section: nodes, tropes, incidence, F11 count", body)


def test_criterion_06_tangent_section():
    def body():
        model = va.sample_tangent_section(random.Random(7))
        assert len(model.nodes) == 16
        assert all(n.certificate.is_ordinary for n in model.nodes)

    _criterion(6, "tangent section at a seeded smooth point has 16 nodes", body)


def test_criterion_07_code():
    def body():
        code = ns.even_set_code()
        assert code.dimension == 5
        assert code.node_weight_enumerator() == {0: 1, 6: 10, 8: 15, 10: 6}

    _criterion(7, "even-set code: dimension 5, weights 1 + 10w^6 + 15w^8 + 6w^10", body)


def test_criterion_08_picard_lattice(picard):
    def body():
        assert picard.lattice.rank == 16
        assert abs(picard.lattice.det()) == 128
        comp = ns.discriminant_comparison()
        assert comp.groups_match
        assert comp.q_match_negated

    _criterion(8, "Picard lattice: rank 16, |det| 128, discriminant matches", body)


def test_criterion_09_kummer_embedding():
    def body():
        cert = ns.kummer_embedding_check()
        assert cert.pairings_preserved and cert.image_in_lattice
        assert cert.image_orthogonal_to_n0
        assert cert.image_equals_complement and cert.gram_match

    _criterion(9, "specialization embeds Pic onto the complement of the new node", body)


def test_criterion_10_involutions():
    def body():
        sig = inv.sigma_star()
        assert sig.den == 2 and is_involution(dense(sig), 2)
        assert preserves_gram(dense(sig), ns.AMBIENT.gram, 2)
        assert inv.reye_image_report().all_hold()
        rep = inv.verify_relations()
        assert rep.goepel_conjugation
        assert rep.reye_invariant_rank == 15 and rep.goepel_invariant_rank == 15
        assert rep.lefschetz_reye == 10 and rep.lefschetz_goepel == 10
        count, integral, isometric, involutive = inv.verify_all_pentad_reflections()
        assert count == integral == isometric == involutive == 3003

    _criterion(10, "all involutions certified; conjugation and Lefschetz arithmetic", body)


def test_criterion_11_divisor_degrees():
    def body():
        bt = ns.b_tilde()
        assert bt.norm() == 10 and bt.degree() == 10
        classes = ns.standard_classes()
        assert classes["deg20"].norm() == 20
        m10 = classes["map10"]
        zero = ns.DivisorClass.make()
        sum_l_e = sum((ns.E[x] for x in ns.L_SET), zero)
        sum_l_sigma = sum((ns.sigma_class(x) for x in ns.L_SET), zero)
        sum_c_e = sum((ns.E[x] for x in ns.C_SET), zero)
        sum_c_sigma = sum((ns.sigma_class(x) for x in ns.C_SET), zero)
        assert m10.norm() == 10
        assert 2 * m10 == 5 * ns.ETA - sum_l_e - 2 * sum_c_e
        assert 2 * m10 == sum_l_e + sum_l_sigma == sum_c_e + sum_c_sigma
        data = pt.pencil_classes(tuple(sorted(ns.C_SET)))
        for i, f in enumerate(data.classes):
            assert f.norm() == 0 and f.degree() == 8
            for j in range(i + 1, 5):
                assert f.dot(data.classes[j]) == 2

    _criterion(11, "divisor norms and degrees: 10, 20, pencil pairings", body)


def test_criterion_12_pentads():
    def body():
        table = pt.orbit_table()
        assert sum(o.size for o in table) == 3003
        goepel = [o for o in table if o.goepel]
        assert len(goepel) == 1 and goepel[0].size == 6
        cls = pt.classify(((1, 5), (2, 3), (3, 4), (3, 5), (4, 5)))
        assert len(cls.trope_triples) == 3
        assert sorted(t[0] for t in cls.trope_triples) == [(1, 2), (1, 5), (2, 3)]
        report = pt.graph_criterion_crosscheck()
        assert report.total == 3003 and report.triple_rule_agrees

    _criterion(12, "3003 pentads, 6 Goepel, worked example, criterion report", body)


def test_criterion_13_congruence():
    def body():
        prof = two_n_profile(3)
        i = prof.invariants
        assert i.deg_focal == 4 and i.deg_l_curve == 4
        assert i.deg_p_surface == 2 and i.deg_branch_locus == 10
        assert prof.expected_nodes == 15
        for n in range(2, 8):
            sols = table1_report(n).with_node_count
            for col in published_columns(n):
                assert col in sols
        assert len(published_columns(6)) == 2

    _criterion(13, "congruence formulas and singular-point table columns", body)
