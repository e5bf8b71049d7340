"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison is equality; run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
from fractions import Fraction

from superext.algebra import GradedLinearMap, is_homomorphism
from superext.cohomology import (
    class_of,
    coboundary1,
    derivation_space,
    map_from_coords,
)
from superext.extension import (
    classify_endomorphism,
    extend_endomorphism,
    extend_obstruction,
    extend_obstruction_aut,
    fixes_action,
    from_derivation,
    induced_on_quotient,
    inflate2,
    lift_endomorphism,
    lift_obstruction,
    restrict1,
    ring_add,
)
from superext.fixtures import (
    central_direct_sum_extension,
    identity_action_module,
    odd_line_module,
)
from superext.linalg import Mat, vec
from superext.sequences import (
    verify_automorphism_extension,
    verify_five_term,
    verify_ring_sequence,
    verify_monoid_sequence,
    verify_semidirect_automorphisms,
)


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _diag(basis, *cs):
    return GradedLinearMap(
        basis, basis,
        Mat([[Fraction(c) if i == j else Fraction(0) for j in range(len(cs))]
             for i, c in enumerate(map(Fraction, cs))]),
    )


def _random_module_endo(ext, rng):
    coords = ext.module_end_space.combine(
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(ext.module_end_space.dim)))
    return map_from_coords(ext.a_basis, ext.a_basis, coords)


def _oracle_equivalence(ext, rng, randoms=50):
    """Solver decision vs obstruction-class test, both directions."""
    candidates = [
        map_from_coords(ext.a_basis, ext.a_basis, v)
        for v in ext.module_end_space.basis
    ]
    candidates += [_random_module_endo(ext, rng) for _ in range(randoms)]
    for phi in candidates:
        witness = extend_endomorphism(phi, ext)
        obstruction = extend_obstruction(phi, ext)
        if (witness is not None) != obstruction.is_zero:
            return False
        if witness is not None:
            if not classify_endomorphism(witness, ext).fixes_quotient:
                return False
    return True


def test_criterion_1_heisenberg_endomorphism_picture(h3_ext):
    ok = derivation_space(h3_ext.g, h3_ext.action).dim == 2

    # the kernel of the shifted restriction is the two-parameter shear family
    ok &= h3_ext.z1_e.dim == 2
    for v in h3_ext.z1_e.basis:
        f = map_from_coords(h3_ext.e.basis, h3_ext.a_basis, v)
        ok &= restrict1(f, h3_ext).is_zero()
        endo = from_derivation(f, h3_ext)
        ok &= classify_endomorphism(endo, h3_ext).fixes_both
        m = endo.matrix
        ok &= all(m.data[i][j] == (1 if i == j else 0)
                  for i in range(2) for j in range(3))
    # the family adds like F ⊕ F under the transported ring addition
    shear = lambda a, b: GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.e.basis,
        [vec([1, 0, a]), vec([0, 1, b]), vec([0, 0, 1])])
    ok &= ring_add(shear(2, 3), shear(-1, 4), h3_ext) == shear(1, 7)

    ok &= h3_ext.h2_g.dim == 1

    beta_coords = class_of(h3_ext.beta, h3_ext.h2_g).coords
    ok &= beta_coords == (Fraction(1),)
    ident = GradedLinearMap.identity(h3_ext.a_basis)
    for c in (1, 2, -1, Fraction(1, 2), 3):
        cls = extend_obstruction_aut(_diag(h3_ext.a_basis, c), h3_ext)
        ok &= cls.coords == ((1 - Fraction(c)) * beta_coords[0],)
        ok &= cls.is_zero == (Fraction(c) == 1)
        witness = extend_endomorphism(_diag(h3_ext.a_basis, c) - ident, h3_ext)
        ok &= (witness is not None) == (Fraction(c) == 1)
    _criterion(1, "Heisenberg derivations, shear family, H2 and scaling obstruction", ok)


def test_criterion_2_five_term_exactness(corpus, h3_ext):
    ok = True
    for name, ext in corpus:
        report = verify_five_term(ext)
        ok &= report.passed
    # explicit witness: lambda(z) = -z exhibits the inflated cocycle as a coboundary
    lam = GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.a_basis, [vec([0]), vec([0]), vec([-1])])
    ok &= coboundary1(lam, h3_ext.e, h3_ext.adjoint) == inflate2(h3_ext.beta, h3_ext)
    _criterion(2, "five-term sequence exact on the corpus with explicit witness", ok)


def test_criterion_3_ring_transport(corpus):
    ok = True
    for name, ext in corpus:
        report = verify_ring_sequence(ext, seed=100, pairs=100)
        ok &= report.passed
        wanted = {
            "derivation_sum_transports_to_ring_add",
            "derivation_composition_transports_to_ring_mul",
            "circle_operation_is_composition",
            "shifted_restriction_is_additive",
            "shifted_restriction_is_multiplicative",
        }
        seen = {c.name for c in report.checks if c.passed}
        ok &= wanted <= seen
    _criterion(3, "ring transport verified on >=100 random derivation pairs per fixture", ok)


def test_criterion_4_oracle_equivalence(corpus):
    ok = True
    for index, (name, ext) in enumerate(corpus):
        ok &= _oracle_equivalence(ext, random.Random(1000 + index), randoms=50)
    _criterion(4, "direct extension solver agrees with the obstruction class everywhere", ok)


def test_criterion_5_monoid_stage(h3_ext, sd_ext, aff_ext):
    ok = True
    # compatible diagonal lifts with a verified witness
    psi = _diag(h3_ext.g.basis, 2, Fraction(1, 2))
    gamma = lift_endomorphism(psi, h3_ext)
    ok &= gamma is not None
    ok &= classify_endomorphism(gamma, h3_ext).fixes_ideal
    ok &= induced_on_quotient(gamma, h3_ext) == psi
    ok &= gamma.matrix == Mat([[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    # incompatible diagonal is obstructed by the extension class
    bad = _diag(h3_ext.g.basis, 2, 1)
    ok &= lift_endomorphism(bad, h3_ext) is None
    ok &= lift_obstruction(bad, h3_ext).coords == class_of(h3_ext.beta, h3_ext.h2_g).coords
    # split fixtures: every sampled endomorphism lifts
    for ext in (sd_ext, aff_ext):
        report = verify_monoid_sequence(ext, seed=101)
        ok &= report.passed and not report.notes
        for check in report.checks:
            if check.name == "lift_decided_by_obstruction":
                ok &= all(o["lifts"] for o in check.detail["outcomes"])
    # central split fixture: arbitrary even endomorphisms lift
    ds = central_direct_sum_extension()
    for entries in ((2, 3), (0, 1), (5, 5), (1, 0)):
        psi = _diag(ds.g.basis, *entries)
        ok &= fixes_action(psi, ds)
        ok &= lift_endomorphism(psi, ds) is not None
    _criterion(5, "lift criterion on the Heisenberg fixture and on split/central fixtures", ok)


def test_criterion_6_semidirect_decompositions():
    m_even = identity_action_module()
    m_odd = odd_line_module()
    ok = verify_semidirect_automorphisms(m_even.algebra, m_even, seed=102).passed
    ok &= verify_semidirect_automorphisms(m_odd.algebra, m_odd, seed=103).passed
    _criterion(6, "automorphism groups of semidirect products decompose with explicit sections", ok)


def test_criterion_7_odd_heisenberg_report(ba1_ext):
    ok = not class_of(ba1_ext.beta, ba1_ext.h2_g).is_zero  # non-split

    # the computed diagonal automorphism family requires bc = 1, not bc != 0
    def diag_family(b, c, d):
        return GradedLinearMap.from_images(
            ba1_ext.e.basis, ba1_ext.e.basis,
            [vec([b, 0, 0]), vec([0, c, d]), vec([0, 0, 1])])

    for b, c, d in [(1, 1, 0), (2, Fraction(1, 2), 3), (3, Fraction(1, 3), -1)]:
        ok &= is_homomorphism(diag_family(b, c, d), ba1_ext.e, ba1_ext.e)
    for b, c, d in [(2, 3, 0), (1, 2, 1), (2, 1, 0), (-1, 1, 5)]:
        ok &= not is_homomorphism(diag_family(b, c, d), ba1_ext.e, ba1_ext.e)

    # lift criterion for diag(b | c) is bc = 1, obstruction (bc - 1)[beta]
    for b, c in [(2, Fraction(1, 2)), (1, 1), (-2, Fraction(-1, 2))]:
        ok &= lift_endomorphism(_diag(ba1_ext.g.basis, b, c), ba1_ext) is not None
    for b, c in [(2, 3), (1, 2), (-1, 1)]:
        psi = _diag(ba1_ext.g.basis, b, c)
        ok &= lift_endomorphism(psi, ba1_ext) is None
        ok &= lift_obstruction(psi, ba1_ext).coords == (Fraction(b) * Fraction(c) - 1,)

    # the discrepancy with the full invertible family is flagged, not resolved
    report = verify_monoid_sequence(
        ba1_ext, psi_samples=[_diag(ba1_ext.g.basis, 2, 3)], seed=104)
    ok &= report.passed
    ok &= any("not surjective" in note for note in report.notes)
    _criterion(7, "odd Heisenberg: unit-determinant lift criterion, non-splitness, discrepancy flag", ok)


def test_criterion_8_classical_degeneration(all_even_corpus):
    ok = all(ext.e.basis.is_all_even() for _, ext in all_even_corpus)
    for name, ext in all_even_corpus:
        ok &= verify_five_term(ext).passed
        ok &= verify_ring_sequence(ext, seed=105, pairs=100).passed
        ok &= verify_automorphism_extension(ext, seed=106).passed
        ok &= _oracle_equivalence(ext, random.Random(107), randoms=50)
    _criterion(8, "all-even corpus reproduces the classical Lie algebra behavior", ok)
