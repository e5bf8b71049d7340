import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings

from superext import fixtures, sequences
from superext.algebra import (
    GradedLinearMap, LieSuperalgebra, SuperBasis, is_homomorphism, semidirect_product,
)
from superext.cohomology import c1_positions, map_from_coords
from superext.extension import (
    beta_with_section,
    extend_endomorphism,
    build_extension,
    extend_obstruction_aut,
    fixes_action,
    is_ideal_derivation,
    lift_endomorphism,
    lift_obstruction,
)
from superext.fixtures import (
    central_direct_sum_extension,
    identity_action_module,
    odd_line_module,
)
from superext.linalg import (
    Mat, SparseMat, SubspacePresentation, _as_sparse, kernel_basis, subspace_equal, unit_vec,
)
from superext.sequences import (
    sample_cocycle,
    verify_automorphism_extension,
    verify_five_term,
    verify_ring_sequence,
    verify_monoid_sequence,
    verify_semidirect_automorphisms,
)

from conftest import sl2_v2_extension
from dense_oracle import dense
from test_trusted import _nilpotent_module


def _diag(basis, *cs):
    return GradedLinearMap(
        basis, basis,
        Mat([[Fraction(c) if i == j else Fraction(0) for j in range(len(cs))]
             for i, c in enumerate(map(Fraction, cs))]),
    )


def test_five_term_passes_on_the_corpus(corpus):
    for name, ext in corpus:
        report = verify_five_term(ext)
        assert report.passed, (name, report.to_dict())


def test_five_term_heisenberg_dimensions(h3_ext):
    report = verify_five_term(h3_ext)
    assert report.dims["z1_g"] == 2
    assert report.dims["z1_e"] == 2
    assert report.dims["img_res"] == 0
    assert report.dims["ker_d"] == 0
    assert report.dims["img_d"] == 1
    assert report.dims["h2_g"] == 1
    assert report.dims["ker_inf2"] == 1


def test_five_term_split_extension_has_trivial_connecting_map(sd_ext):
    report = verify_five_term(sd_ext)
    assert report.passed
    assert report.dims["img_d"] == 0
    assert report.dims["ker_d"] == report.dims["end_g_a"]


def test_ring_sequence_passes_on_the_corpus(corpus):
    for name, ext in corpus:
        report = verify_ring_sequence(ext, seed=1, pairs=25)
        assert report.passed, (name, report.to_dict())


# -- the linear stages against the subspace identities they stand for --------


def _sympy_rank(m):
    """Rank by sympy, which shares no code with the engine."""
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.dense() for x in row]).rank()


def _subspace_path(ext):
    """The linear checks of five-term and thm1 as exact subspace identities:
    images spanned by columns, kernels from `kernel_basis` mapped into the
    middle space, compared by `subspace_equal`.  Returns the expected
    five-term checks, thm1's two linear checks, each as (name, verdict,
    detail items), and the five-term dims, after asserting that each
    dimension equals its value by sympy's rank."""
    z1g, z1e, enda, h2g, h2e = ext.z1_g, ext.z1_e, ext.module_end_space, ext.h2_g, ext.h2_e

    def columns(m):
        return list(m.T.dense())

    inf = ext.inflation1 @ z1g.vectors.T
    res = ext.restriction @ z1e.vectors.T
    d = ext.connecting_map @ enda.vectors.T
    inf2 = h2e.coordinates(ext.inflation2 @ h2g.quotient.vectors.T)
    img_inf = SubspacePresentation.from_spanning(inf.rows, columns(inf))
    img_res = SubspacePresentation.from_spanning(res.rows, columns(res))
    ker_res = SubspacePresentation.from_spanning(
        inf.rows, [z1e.combine(c) for c in kernel_basis(res).basis])
    ker_d = SubspacePresentation.from_spanning(
        res.rows, [enda.combine(c) for c in kernel_basis(d).basis])
    img_d = SubspacePresentation.from_spanning(h2g.dim, columns(d))
    ker_inf2 = kernel_basis(inf2)

    assert img_inf.dim == _sympy_rank(inf)
    assert ker_res.dim == z1e.dim - _sympy_rank(res)
    assert img_res.dim == _sympy_rank(res)
    assert ker_d.dim == enda.dim - _sympy_rank(d)
    assert img_d.dim == _sympy_rank(d)
    assert ker_inf2.dim == h2g.dim - _sympy_rank(inf2)

    at_z1e = (subspace_equal(ker_res, img_inf),
              [("kernel_dim", ker_res.dim), ("image_dim", img_inf.dim)])
    at_enda = (subspace_equal(img_res, ker_d),
               [("image_dim", img_res.dim), ("kernel_dim", ker_d.dim)])
    five = [
        ("inflation1_injective", img_inf.dim == z1g.dim,
         [("rank", img_inf.dim), ("domain_dim", z1g.dim)]),
        ("kernel_of_restriction_is_image_of_inflation", *at_z1e),
        ("image_of_restriction_is_kernel_of_connecting_map", *at_enda),
        ("image_of_connecting_map_is_kernel_of_inflation2", subspace_equal(img_d, ker_inf2),
         [("image_dim", img_d.dim), ("kernel_dim", ker_inf2.dim)]),
    ]
    ring = [("kernel_of_shifted_restriction_is_the_doubly_fixing_set", *at_z1e),
            ("image_of_shifted_restriction_is_kernel_of_connecting_map", *at_enda)]
    dims = dict(z1_g=z1g.dim, z1_e=z1e.dim, end_g_a=enda.dim, h2_g=h2g.dim, h2_e=h2e.dim,
                img_res=img_res.dim, ker_d=ker_d.dim, img_d=img_d.dim, ker_inf2=ker_inf2.dim)
    return five, ring, dims


def _as_triples(checks):
    return [(c.name, c.passed, list(c.detail.items())) for c in checks]


def _assert_matches_subspace_path(ext, name=None):
    five_expected, ring_expected, dims = _subspace_path(ext)
    five, ring = verify_five_term(ext), verify_ring_sequence(ext, seed=4, pairs=3)
    assert _as_triples(five.checks) == five_expected, name
    assert five.dims == dims, name
    ring_names = [n for n, _, _ in ring_expected]
    assert _as_triples(c for c in ring.checks if c.name in ring_names) == ring_expected, name
    assert ring.dims == {k: dims[k] for k in ("z1_g", "z1_e", "end_g_a", "h2_g")}, name
    return five, ring


def _central_pair_extension():
    """h3 ⊕ <c> over the central <z, c>: g = <x, y> abelian and End_g(a) = gl(a),
    Z1(e,a) = {f : f(z) = 0}, restriction reads f(c), and D(phi) = -phi(z)."""
    e = LieSuperalgebra.from_brackets(
        SuperBasis([("x", 0), ("y", 0), ("z", 0), ("c", 0)]), {("x", "y"): {"z": 1}})
    return build_extension(e, [2, 3])


def _h3_plus_line_extension():
    """h3 ⊕ <w> over <z>: H2(g,a) = Λ²<x, y, w>*, of which inflation kills
    only the class of x∧y, the image of the connecting map."""
    e = LieSuperalgebra.from_brackets(
        SuperBasis([("x", 0), ("y", 0), ("w", 0), ("z", 0)]), {("x", "y"): {"z": 1}})
    return build_extension(e, [3])


def _restriction_reading_x(ext):
    """Restriction with the values on c replaced by the values on x: the same
    rank on Z1(e,a), but inflated derivations no longer restrict to zero."""
    slot = {p: i for i, p in enumerate(ext.cochains_e.pos1)}
    source = {0: 2, 1: 0}  # ideal position -> basis index read: z, then x in place of c
    return _as_sparse(Mat([unit_vec(len(slot), slot[n, source[m]]) for n, m in ext.pos_a],
                          cols=len(slot)))


def _connecting_map_on_swapped_ideal(ext):
    """D(phi ∘ swap of z and c) = -phi(c): the same rank on End_g(a), but
    restrictions (phi(z) = 0) are no longer in the kernel."""
    d, column = ext.connecting_map, {p: i for i, p in enumerate(ext.pos_a)}
    return SparseMat(tuple(d.T.data[column[n, 1 - m]] for n, m in ext.pos_a), d.rows).T


def _connecting_map_rotated(ext):
    """D with its H2(g, a) coordinates rotated: the same rank, but its image
    leaves the kernel of inflation."""
    d = ext.connecting_map
    return SparseMat(d.data[1:] + d.data[:1], d.cols)


_THM1_NAMES = {  # the five-term checks that thm1 shares, by their names in thm1
    "kernel_of_restriction_is_image_of_inflation":
        "kernel_of_shifted_restriction_is_the_doubly_fixing_set",
    "image_of_restriction_is_kernel_of_connecting_map":
        "image_of_shifted_restriction_is_kernel_of_connecting_map",
}

_MUTATIONS = [
    # (i) the composite is nonzero, the dimensions agree
    (_central_pair_extension, "restriction", _restriction_reading_x,
     "kernel_of_restriction_is_image_of_inflation", True),
    (_central_pair_extension, "connecting_map", _connecting_map_on_swapped_ideal,
     "image_of_restriction_is_kernel_of_connecting_map", True),
    (_h3_plus_line_extension, "connecting_map", _connecting_map_rotated,
     "image_of_connecting_map_is_kernel_of_inflation2", True),
    # (ii) the composite is zero, the dimensions disagree
    (_central_pair_extension, "restriction",
     lambda ext: _as_sparse(Mat.zeros(len(ext.pos_a), len(ext.cochains_e.pos1))),
     "kernel_of_restriction_is_image_of_inflation", False),
    (fixtures.heisenberg3_extension, "connecting_map",
     lambda ext: _as_sparse(Mat.zeros(ext.h2_g.dim, len(ext.pos_a))),
     "image_of_restriction_is_kernel_of_connecting_map", False),
    (fixtures.heisenberg3_extension, "connecting_map",
     lambda ext: _as_sparse(Mat.zeros(ext.h2_g.dim, len(ext.pos_a))),
     "image_of_connecting_map_is_kernel_of_inflation2", False),
]


def test_linear_stages_match_the_subspace_identities(pin_corpus):
    # rank–nullity stands in for the subspace comparison: same verdicts, same
    # details in the same key order, same report dims; the last two cases have
    # a connecting map of rank 2 and a proper nonzero kernel of inflation
    for name, ext in pin_corpus + [("central_pair", _central_pair_extension()),
                                   ("h3_plus_line", _h3_plus_line_extension())]:
        _assert_matches_subspace_path(ext, name)


@pytest.mark.parametrize("build, attr, mutate, check, dims_agree", _MUTATIONS)
def test_each_half_of_a_rank_identity_can_fail_its_check(build, attr, mutate, check, dims_agree):
    ext = build()
    assert verify_five_term(ext).passed
    ext.__dict__[attr] = mutate(ext)  # shadows the cached operator
    five, ring = _assert_matches_subspace_path(ext)
    found = ([c for c in five.checks if c.name == check]
             + [c for c in ring.checks if c.name == _THM1_NAMES.get(check)])
    assert len(found) == 1 + (check in _THM1_NAMES)
    assert not any(c.passed for c in found)
    assert all((c.detail["image_dim"] == c.detail["kernel_dim"]) == dims_agree for c in found)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(m=_nilpotent_module())
def test_split_extensions_have_a_trivial_connecting_map(m):
    # Wells: on g ⋉ a the section is a homomorphism, so the connecting map
    # vanishes, every module endomorphism restricts from a derivation
    # (phi ∘ projection onto a), and pulling back along the section splits
    # inflation H2(g, a) -> H2(e, a), which is therefore injective
    _, ext = semidirect_product(m.algebra, m)
    five = verify_five_term(ext)
    assert five.passed, five.to_dict()
    assert verify_ring_sequence(ext, seed=0, pairs=3).passed
    assert five.dims["img_d"] == 0
    assert five.dims["ker_inf2"] == 0
    assert five.dims["img_res"] == five.dims["end_g_a"]


def test_ring_sequence_shifts_the_section_by_a_map_that_changes_the_cocycle(monkeypatch):
    # the section-independence check compares the obstruction classes of two
    # cocycles; a derivation's coboundary is zero, so shifting the section by
    # one would compare beta with itself
    ext = sl2_v2_extension()
    assert ext.z1_g.dim > 0
    shifted = []

    def spy(ext, mu):
        shifted.append(beta_with_section(ext, mu))
        return shifted[-1]

    monkeypatch.setattr(sequences, "beta_with_section", spy)
    report = verify_ring_sequence(ext, seed=0, pairs=2)
    assert report.passed, report.to_dict()
    assert len(shifted) == 1 and shifted[0] != ext.beta


def test_automorphism_extension_passes_on_the_corpus(corpus):
    for name, ext in corpus:
        report = verify_automorphism_extension(ext, seed=2)
        assert report.passed, (name, report.to_dict())


def test_heisenberg_scaling_does_not_extend(h3_ext):
    phi = _diag(h3_ext.a_basis, 2)
    cls = extend_obstruction_aut(phi, h3_ext)
    # d(c id) = (1 - c)[beta]
    assert cls.coords == (Fraction(-1),)
    assert extend_endomorphism(phi - GradedLinearMap.identity(h3_ext.a_basis), h3_ext) is None


def test_identity_of_the_ideal_extends(h3_ext):
    phi = GradedLinearMap.identity(h3_ext.a_basis)
    assert extend_obstruction_aut(phi, h3_ext).is_zero
    witness = extend_endomorphism(phi - phi, h3_ext)
    assert witness == GradedLinearMap.identity(h3_ext.e.basis)


def test_quasiregular_check_fails_on_a_missing_inverse(h3_ext, monkeypatch):
    """cor1 inverts each sampled f once: a None for an f whose block a -> a is
    invertible fails the check.  A wrong inverse is refused inside
    `quasiregular_inverse` itself."""
    def check(report):
        return next(c for c in report.checks if c.name == "quasiregular_elements_are_the_invertibles")

    assert check(verify_automorphism_extension(h3_ext, seed=2)).passed
    monkeypatch.setattr(sequences, "quasiregular_inverse", lambda f, ext: None)
    failed = check(verify_automorphism_extension(h3_ext, seed=2))
    assert not failed.passed and failed.detail["noninvertible_seen"] == failed.detail["samples"]


def test_monoid_sequence_passes_on_the_corpus(corpus):
    for name, ext in corpus:
        report = verify_monoid_sequence(ext, seed=3)
        assert report.passed, (name, report.to_dict())


def test_monoid_sequence_supplied_samples(ba1_ext):
    samples = [_diag(ba1_ext.g.basis, 2, Fraction(1, 2)),
               _diag(ba1_ext.g.basis, 2, 3)]
    report = verify_monoid_sequence(ba1_ext, psi_samples=samples, seed=4)
    assert report.passed


def test_monoid_sequence_flags_invertible_non_lifting_maps(ba1_ext):
    samples = [_diag(ba1_ext.g.basis, 2, 3)]
    report = verify_monoid_sequence(ba1_ext, psi_samples=samples, seed=4)
    assert any("not surjective" in note for note in report.notes)


def test_monoid_sequence_rejects_bad_samples(sd_ext):
    bad = _diag(sd_ext.g.basis, 2)
    with pytest.raises(Exception):
        verify_monoid_sequence(sd_ext, psi_samples=[bad], seed=0)


def test_warm_monoid_sequence_asks_each_lifting_question_once(monkeypatch):
    """One obstruction and one lift per sampled psi, and one computation of
    `fixes_action` per psi: the gates of both read its kept answer.  sigma
    once per kernel sample, per pool element and per composite, and once
    more per lift in its self-check; one classification computed per kernel
    sample and per pool element: a lift's second gate reads the one its
    self-check kept, and no composite is classified (its factors passed the
    gate)."""
    from superext import extension
    from superext.fixtures import odd_heisenberg_extension

    from conftest import heisenberg_extension

    calls = dict.fromkeys(("lift_obstruction", "lift_endomorphism", "_induced_on_quotient"), 0)
    originals = {fn: getattr(extension, fn) for fn in calls}
    asked: list[GradedLinearMap] = []

    def counting(fn):
        def wrapper(*args):
            calls[fn] += 1
            if fn == "lift_obstruction":
                asked.append(args[0])
            return originals[fn](*args)
        return wrapper

    # each memo's own computation, the undecorated predicate, behind its closure
    computed: dict[str, list[GradedLinearMap]] = {"fixes_action": [], "classify_endomorphism": []}
    cells = {}
    for fn in computed:
        decide = getattr(extension, fn).__wrapped__
        cells[fn] = (next(c for c in getattr(extension, fn).__closure__
                          if c.cell_contents is decide), decide)

    def computing(fn, decide):
        def compute(f, ext):
            computed[fn].append(f)
            return decide(f, ext)
        return compute

    # a supplied symplectic scaling lifts, so the identity is not the only witness;
    # the counted run gets a new one, whose answers are not kept yet
    for name, ext, scaling in (("h5", heisenberg_extension(2), (2, 2, Fraction(1, 2), Fraction(1, 2))),
                               ("odd_heisenberg", odd_heisenberg_extension(), (2, Fraction(1, 2)))):
        verify_monoid_sequence(ext, psi_samples=[_diag(ext.g.basis, *scaling)], seed=0)  # warm
        calls.update(dict.fromkeys(calls, 0))
        asked.clear()
        for seen in computed.values():
            seen.clear()
        with monkeypatch.context() as m:
            for fn in calls:
                for mod in (extension, sequences):
                    m.setattr(mod, fn, counting(fn))
            for fn, (cell, decide) in cells.items():
                cell.cell_contents = computing(fn, decide)
            try:
                report = verify_monoid_sequence(ext, psi_samples=[_diag(ext.g.basis, *scaling)],
                                                seed=0)
            finally:
                for cell, decide in cells.values():
                    cell.cell_contents = decide
        assert report.passed, name
        detail = {c.name: c.detail for c in report.checks}
        psis = report.dims["end_a_g_samples"]
        pool = detail["sigma_is_multiplicative"]["pool"]
        lifted = detail["lift_witnesses_verified"]["lifted"]
        kernel_samples = 4  # max(3, count // 2) at the default count 8
        assert lifted >= 2 and psis > lifted, (name, psis, lifted)
        assert calls["lift_obstruction"] == calls["lift_endomorphism"] == psis == len(asked), \
            (name, calls)
        assert all(sum(m is psi for m in computed["fixes_action"]) == 1 for psi in asked), name
        assert calls["_induced_on_quotient"] == pool * pool + pool + kernel_samples + lifted, \
            (name, calls, pool, lifted)
        assert len(computed["classify_endomorphism"]) == pool + kernel_samples, \
            (name, len(computed["classify_endomorphism"]), pool, lifted)


def test_cor1_and_thm2_decide_through_the_public_obstructions(monkeypatch):
    """The suites ask the gated library functions, as a caller would: cor1
    one `extend_obstruction_aut` per candidate, thm2 one `lift_obstruction`
    per sampled psi."""
    from conftest import heisenberg_extension

    calls = dict.fromkeys(("extend_obstruction_aut", "lift_obstruction"), 0)

    def counting(fn, original):
        def wrapper(*args):
            calls[fn] += 1
            return original(*args)
        return wrapper

    for fn in calls:
        monkeypatch.setattr(sequences, fn, counting(fn, getattr(sequences, fn)))
    most = 0
    for ext in (fixtures.identity_semidirect_extension(), fixtures.affine_scaling_extension(),
                heisenberg_extension(2)):
        calls.update(dict.fromkeys(calls, 0))
        cor1 = verify_automorphism_extension(ext, seed=3)
        thm2 = verify_monoid_sequence(ext, seed=3)
        assert cor1.passed and thm2.passed, ext
        candidates = cor1.checks[0].detail["samples"]
        assert candidates >= 2 and calls["extend_obstruction_aut"] == candidates, (ext, calls)
        psis = thm2.dims["end_a_g_samples"]
        assert calls["lift_obstruction"] == psis, (ext, calls)
        most = max(most, psis)
    assert most >= 2, most


def test_cor1_inverts_each_candidate_once(monkeypatch):
    """The sampler's invertibility test and the gate of `extend_obstruction_aut`
    share one kept answer: one `inverse` of each candidate's matrix per run."""
    from superext import extension

    candidates, inverted = [], []
    gate = sequences.extend_obstruction_aut

    def asked(phi, ext):
        candidates.append(phi)
        return gate(phi, ext)

    def counting(original):
        def wrapper(m):
            inverted.append(m)
            return original(m)
        return wrapper

    monkeypatch.setattr(sequences, "extend_obstruction_aut", asked)
    for module in (sequences, extension):
        monkeypatch.setattr(module, "inverse", counting(module.inverse))
    for ext in (fixtures.identity_semidirect_extension(), fixtures.affine_scaling_extension()):
        candidates.clear()
        inverted.clear()
        report = verify_automorphism_extension(ext, seed=3)
        assert report.passed and len(candidates) == 12, ext
        assert [sum(m is phi.matrix for m in inverted) for phi in candidates] == [1] * 12, ext


def test_odd_heisenberg_lift_criterion_is_the_unit_determinant():
    from superext.fixtures import odd_heisenberg_extension

    ext = odd_heisenberg_extension()
    for b, c in [(2, Fraction(1, 2)), (1, 1), (-1, -1), (3, Fraction(1, 3))]:
        psi = _diag(ext.g.basis, b, c)
        assert fixes_action(psi, ext)
        assert lift_obstruction(psi, ext).is_zero
        assert lift_endomorphism(psi, ext) is not None
    for b, c in [(2, 3), (1, 2), (-1, 1), (2, 1)]:
        psi = _diag(ext.g.basis, b, c)
        cls = lift_obstruction(psi, ext)
        assert cls.coords == (Fraction(b) * Fraction(c) - 1,)
        assert lift_endomorphism(psi, ext) is None


def test_central_extensions_accept_arbitrary_even_endomorphisms(h3_ext, ba1_ext):
    # trivial action: the action-preservation predicate imposes nothing
    assert fixes_action(_diag(h3_ext.g.basis, 4, 7), h3_ext)
    assert fixes_action(_diag(ba1_ext.g.basis, 5, 9), ba1_ext)


def test_central_split_extension_lifts_everything():
    ext = central_direct_sum_extension()
    for entries in [(1, 1), (2, 3), (0, 5), (7, 0)]:
        psi = _diag(ext.g.basis, *entries)
        assert fixes_action(psi, ext)
        assert lift_endomorphism(psi, ext) is not None
    report = verify_monoid_sequence(ext, seed=5)
    assert report.passed
    assert not report.notes


def test_vanishing_h2_extends_a_whole_basis_of_module_endomorphisms(sd_ext, aff_ext):
    from superext.cohomology import map_from_coords
    from superext.extension import extend_endomorphism

    for ext in (sd_ext, aff_ext):
        assert ext.h2_g.dim == 0
        for v in ext.module_end_space.basis:
            phi = map_from_coords(ext.a_basis, ext.a_basis, v)
            assert extend_endomorphism(phi, ext) is not None


def test_block_lift_of_a_quotient_map_has_zero_section_offset():
    from superext.extension import section_offset

    ext = central_direct_sum_extension()
    psi = _diag(ext.g.basis, 2, 3)
    gamma = lift_endomorphism(psi, ext)
    assert gamma is not None
    assert section_offset(gamma, psi, ext).is_zero()


def test_doubling_the_ideal_gives_a_homomorphic_section(sd_ext):
    from superext.algebra import is_homomorphism
    from superext.extension import classify_endomorphism
    from superext.sequences import _ideal_block_map, _restrict_to_ideal

    phi = GradedLinearMap.identity(sd_ext.a_basis).scale(2)
    eps = _ideal_block_map(phi, sd_ext)
    assert is_homomorphism(eps, sd_ext.e, sd_ext.e)
    assert classify_endomorphism(eps, sd_ext).fixes_quotient
    assert _restrict_to_ideal(eps, sd_ext) == phi


def test_block_maps_match_the_column_forms(pin_corpus):
    # the split-extension block maps and the ideal restriction, on arbitrary
    # even maps, against their column-by-column definitions
    import random

    from superext.cohomology import c1_positions, map_from_coords
    from superext.linalg import unit_vec
    from superext.sequences import _ideal_block_map, _quotient_block_map, _restrict_to_ideal

    rng = random.Random(103)
    for name, ext in pin_corpus:
        pos_g = c1_positions(ext.g.basis, ext.g.basis)
        for _ in range(3):
            phi = map_from_coords(ext.a_basis, ext.a_basis,
                                  [Fraction(rng.randint(-5, 5)) for _ in ext.pos_a])
            psi = map_from_coords(ext.g.basis, ext.g.basis,
                                  [Fraction(rng.randint(-5, 5)) for _ in pos_g])
            eps, alpha = _ideal_block_map(phi, ext), _quotient_block_map(psi, ext)
            for m, idx in enumerate(ext.ideal_indices):
                assert eps.image_of_basis(idx) == ext.inclusion.apply(phi.image_of_basis(m))
                assert alpha.image_of_basis(idx) == unit_vec(ext.dim_e, idx)
            for k, idx in enumerate(ext.complement_indices):
                assert eps.image_of_basis(idx) == unit_vec(ext.dim_e, idx)
                assert alpha.image_of_basis(idx) == ext.section.apply(psi.image_of_basis(k))
            for gamma in (eps, alpha, eps.compose(alpha)):
                restricted = _restrict_to_ideal(gamma, ext)
                assert restricted == GradedLinearMap.from_images(
                    ext.a_basis, ext.a_basis,
                    [ext.a_coords(gamma.apply(ext.inclusion.image_of_basis(m)))
                     for m in range(ext.dim_a)]), name
            assert _restrict_to_ideal(eps, ext) == phi, name


def test_semidirect_automorphisms_identity_module():
    m = identity_action_module()
    report = verify_semidirect_automorphisms(m.algebra, m, seed=6)
    assert report.passed, report.to_dict()


def test_semidirect_automorphisms_odd_module():
    m = odd_line_module()
    report = verify_semidirect_automorphisms(m.algebra, m, seed=7)
    assert report.passed, report.to_dict()


def test_sample_cocycle_is_deterministic(h3_ext):
    assert sample_cocycle(h3_ext, 0) == sample_cocycle(h3_ext, 0)
    assert sample_cocycle(h3_ext, 0) != sample_cocycle(h3_ext, 1)
    assert is_ideal_derivation(sample_cocycle(h3_ext, 0), h3_ext)


def test_sample_cocycle_of_zero_dimensional_space_is_zero():
    from superext.algebra import LieSuperalgebra, SuperBasis
    from superext.extension import build_extension

    e = LieSuperalgebra.abelian(SuperBasis([("u", 0), ("v", 0)]))
    ext = build_extension(e, [])
    assert sample_cocycle(ext, 3).is_zero()


def test_reports_serialize_to_json(h3_ext):
    report = verify_five_term(h3_ext)
    payload = json.dumps(report.to_dict())
    assert "five-term" in payload


def _map_level_action_endo_samples(ext, rng, count):
    """The sampler as it was before the coordinate prefilter: every draw is
    built as a map and tested with the product against the action matrix
    (column i holds ρ(x_i) flattened) and `is_homomorphism`."""
    action = dense(ext.action._sparse, ext.dim_a)
    rho = Mat.from_columns([tuple(x for v in row for x in v) for row in action], rows=ext.dim_a * ext.dim_a)
    out = [GradedLinearMap.identity(ext.g.basis)]
    pos = c1_positions(ext.g.basis, ext.g.basis)
    attempts = 0
    while len(out) < count and attempts < 40 * count:
        attempts += 1
        coords = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(len(pos)))
        psi = map_from_coords(ext.g.basis, ext.g.basis, coords)
        if rho @ psi.matrix == rho and is_homomorphism(psi, ext.g, ext.g) and psi not in out:
            out.append(psi)
    for i in range(len(out)):
        for j in range(len(out)):
            if len(out) >= 2 * count:
                break
            comp = out[i].compose(out[j])
            if comp not in out:
                out.append(comp)
    return out


def test_action_sampler_prefilter_keeps_the_map_level_samples(pin_corpus):
    """The coordinate prefilter admits exactly the draws the map-level filter
    admits, from the same random stream, at the counts of the monoid and
    semidirect suites."""
    drawn = 0
    for name, ext in pin_corpus:
        for seed in range(4):
            for count in (6, 8):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                got = sequences._action_endo_samples(ext, rng, count)
                want = _map_level_action_endo_samples(ext, ref_rng, count)
                assert got == want, (name, seed, count)
                assert rng.getstate() == ref_rng.getstate(), (name, seed, count)
                drawn += len(got) > 1
    assert drawn >= 20, drawn


def test_rand_frac_reads_the_two_draws_of_the_fraction_it_replaces():
    rng, ref = random.Random(5), random.Random(5)
    for _ in range(500):
        assert sequences._rand_frac(rng) == Fraction(ref.randint(-6, 6), ref.randint(1, 3))
    assert rng.getstate() == ref.getstate()


def test_rand_combination_is_the_map_of_a_combination_of_rand_fracs(pin_corpus):
    # the integer sum must be the map of `combine` at the same coefficients
    for name, ext in pin_corpus:
        spaces = ((ext.z1_e, ext.e.basis), (ext.z1_g, ext.g.basis), (ext.module_end_space, ext.a_basis))
        for pres, domain in spaces:
            rng, ref = random.Random(11), random.Random(11)
            for _ in range(4):
                got = sequences._rand_combination(pres, rng, domain, ext.a_basis)
                coeffs = tuple(sequences._rand_frac(ref) for _ in range(pres.dim))
                assert got == map_from_coords(domain, ext.a_basis, pres.combine(coeffs)), name
            assert rng.getstate() == ref.getstate(), name


def test_ring_sequence_makes_few_d1_zero_tests_per_pair(corpus, monkeypatch):
    """Work guard: each sampled pair of thm1 asks d¹ at most 12 zero tests,
    counted as the difference between runs of 2 and 6 pairs."""
    original = SparseMat._annihilates
    for name, ext in corpus:
        counts = []
        for pairs in (2, 6):
            seen = []

            def counted(self, v, seen=seen, d1=ext.cochains_e.d1):
                seen.append(self is d1)
                return original(self, v)

            with monkeypatch.context() as m:
                m.setattr(SparseMat, "_annihilates", counted)
                assert verify_ring_sequence(ext, seed=7, pairs=pairs).passed, name
            counts.append(sum(seen))
        assert (counts[1] - counts[0]) / 4 <= 12, (name, counts)
