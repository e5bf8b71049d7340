import random
from fractions import Fraction

import pytest

from superext.algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    _upper_pairs,
    is_homomorphism,
    semidirect_product,
)
from superext.cohomology import (
    Cochain2,
    c1_positions,
    class_of,
    coboundary1,
    map_from_coords,
    map_to_coords,
)
from superext.errors import MembershipError, NotAnIdealError, ShapeError
from superext import fixtures
from superext.extension import (
    _derivation,
    _module_end_residuals,
    beta_with_section,
    build_extension,
    classify_endomorphism,
    derivation_compose,
    extend_endomorphism,
    extend_obstruction,
    extend_obstruction_aut,
    fixes_action,
    from_derivation,
    induced_on_quotient,
    inflate1,
    inflate2,
    is_ideal_derivation,
    is_module_endomorphism,
    lift_endomorphism,
    lift_obstruction,
    quasi_mul,
    quasiregular_inverse,
    restrict1,
    ring_add,
    ring_mul,
    section_offset,
    shifted_restriction,
    to_derivation,
)
from superext.fixtures import (
    AFFINE_SCALING,
    CENTRAL_DIRECT_SUM,
    HEISENBERG3,
    ODD_SEMIDIRECT,
    SL2_V2,
    build,
    heisenberg,
    sl2_vn,
    strictly_upper,
)
from superext.sequences import verify_five_term

import dense_oracle
from dense_oracle import dense, zero_vec
from superext.linalg import (
    _ZERO, Mat, SparseMat, inverse, is_zero_vec, solve, sub_vec, unit_vec, vec,
)


def _shear(ext, a, b):
    """The quotient-fixing endomorphism x -> x + a z, y -> y + b z, z -> z."""
    return GradedLinearMap.from_images(
        ext.e.basis, ext.e.basis,
        [vec([1, 0, a]), vec([0, 1, b]), vec([0, 0, 1])],
    )


def _shear_derivation(ext, a, b):
    return GradedLinearMap.from_images(
        ext.e.basis, ext.a_basis, [vec([a]), vec([b]), vec([0])])


def _module_scaling(ext, c):
    return GradedLinearMap.identity(ext.a_basis).scale(c)


def _quotient_diag(ext, *cs):
    return GradedLinearMap.from_images(
        ext.g.basis, ext.g.basis,
        [tuple(c if j == i else Fraction(0) for j in range(ext.dim_g))
         for i, c in enumerate(map(Fraction, cs))],
    )


# -- construction -----------------------------------------------------------


def test_heisenberg_extension_data(h3_ext):
    assert h3_ext.g == LieSuperalgebra.abelian(SuperBasis([("x", 0), ("y", 0)]))
    beta = dense(h3_ext.beta._view(), h3_ext.dim_a)
    assert beta[0][1] == vec([1])
    assert beta[1][0] == vec([-1])
    assert h3_ext.is_central()
    assert not h3_ext.is_split_on_section()
    # p ∘ s = id
    assert h3_ext.projection.compose(h3_ext.section) == GradedLinearMap.identity(h3_ext.g.basis)


def test_odd_heisenberg_extension_data(ba1_ext):
    assert ba1_ext.g.basis.parities == (0, 1)
    assert dense(ba1_ext.beta._view(), ba1_ext.dim_a)[0][1] == vec([1])
    assert ba1_ext.is_central()


def test_split_extension_has_zero_cocycle(sd_ext):
    assert sd_ext.beta.is_zero()
    assert sd_ext.is_split_on_section()
    assert not sd_ext.is_central()


def test_non_ideal_rejected():
    with pytest.raises(NotAnIdealError):
        build_extension(build(HEISENBERG3).e, [0])


def test_non_abelian_ideal_rejected():
    with pytest.raises(NotAnIdealError):
        build_extension(build(AFFINE_SCALING).e, [0, 1, 2])


def test_invalid_ambient_algebra_rejected():
    basis = SuperBasis([("x", 0), ("y", 0), ("z", 0)])
    structure = [[zero_vec(3)] * 3 for _ in range(3)]
    structure[0][1] = vec([0, 0, 1])
    structure[1][0] = vec([0, 0, 1])
    bad = LieSuperalgebra(basis, structure)
    with pytest.raises(MembershipError):
        build_extension(bad, [2])


# -- endomorphism classification -------------------------------------------


def test_identity_flags(h3_ext):
    flags = classify_endomorphism(GradedLinearMap.identity(h3_ext.e.basis), h3_ext)
    assert flags.homomorphism and flags.fixes_quotient and flags.fixes_ideal
    assert flags.fixes_both


def test_shear_flags(h3_ext):
    flags = classify_endomorphism(_shear(h3_ext, 4, -7), h3_ext)
    assert flags.fixes_both


def test_diagonal_flags(h3_ext):
    f = GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.e.basis,
        [vec([2, 0, 0]), vec([0, Fraction(1, 2), 0]), vec([0, 0, 1])],
    )
    flags = classify_endomorphism(f, h3_ext)
    assert flags.homomorphism and flags.fixes_ideal
    assert not flags.induces_identity and not flags.fixes_quotient


# -- the derivation picture -------------------------------------------------


def test_zero_derivation_gives_identity(h3_ext):
    h = GradedLinearMap.zero(h3_ext.e.basis, h3_ext.a_basis)
    assert from_derivation(h, h3_ext) == GradedLinearMap.identity(h3_ext.e.basis)


def test_shear_comes_from_a_derivation(h3_ext):
    f = from_derivation(_shear_derivation(h3_ext, 5, -2), h3_ext)
    assert f == _shear(h3_ext, 5, -2)


def test_derivation_round_trip_on_random_samples(corpus):
    rng = random.Random(31)
    for _, ext in corpus:
        for _ in range(8):
            coords = ext.z1_e.combine(
                tuple(Fraction(rng.randint(-5, 5)) for _ in range(ext.z1_e.dim)))
            h = map_from_coords(ext.e.basis, ext.a_basis, coords)
            assert to_derivation(from_derivation(h, ext), ext) == h


def test_from_derivation_rejects_non_derivations(h3_ext):
    h = GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.a_basis, [vec([0]), vec([0]), vec([1])])
    assert not is_ideal_derivation(h, h3_ext)
    with pytest.raises(MembershipError):
        from_derivation(h, h3_ext)


def test_derivation_composition_stays_a_derivation(corpus):
    rng = random.Random(37)
    for _, ext in corpus:
        for _ in range(5):
            h = map_from_coords(ext.e.basis, ext.a_basis, ext.z1_e.combine(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(ext.z1_e.dim))))
            k = map_from_coords(ext.e.basis, ext.a_basis, ext.z1_e.combine(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(ext.z1_e.dim))))
            assert is_ideal_derivation(derivation_compose(h, k, ext), ext)


# -- ring structure ----------------------------------------------------------


def test_identity_is_the_ring_zero(h3_ext):
    f = _shear(h3_ext, 3, 4)
    ident = GradedLinearMap.identity(h3_ext.e.basis)
    assert ring_add(f, ident, h3_ext) == f
    assert ring_add(ident, f, h3_ext) == f


def test_shear_family_ring_laws(h3_ext):
    f = _shear(h3_ext, 2, 3)
    g = _shear(h3_ext, -1, 5)
    assert ring_add(f, g, h3_ext) == _shear(h3_ext, 1, 8)
    # the underlying derivations kill z, so their composition vanishes
    assert ring_mul(f, g, h3_ext) == GradedLinearMap.identity(h3_ext.e.basis)


def test_quasi_mul_is_composition(corpus):
    rng = random.Random(41)
    for _, ext in corpus:
        for _ in range(5):
            h = map_from_coords(ext.e.basis, ext.a_basis, ext.z1_e.combine(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(ext.z1_e.dim))))
            k = map_from_coords(ext.e.basis, ext.a_basis, ext.z1_e.combine(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(ext.z1_e.dim))))
            f, g = from_derivation(h, ext), from_derivation(k, ext)
            composite = quasi_mul(f, g, ext)
            assert composite == f.compose(g)
            assert composite == ring_add(ring_add(f, g, ext), ring_mul(f, g, ext), ext)


def test_ring_ops_reject_outsiders(h3_ext):
    diag = GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.e.basis,
        [vec([2, 0, 0]), vec([0, Fraction(1, 2), 0]), vec([0, 0, 1])],
    )
    with pytest.raises(MembershipError):
        ring_add(diag, diag, h3_ext)


def _ring_corpus():
    """The fixture corpus plus a nilpotent action, whose End_g(a) is a proper subspace."""
    g = LieSuperalgebra.abelian(SuperBasis([("t", 0)]))
    nilpotent = ModuleAction(g, SuperBasis([("v1", 0), ("v2", 0)]), [[[0, 0], [1, 0]]])
    return fixtures.standard_corpus() + [
        ("central_direct_sum", build(CENTRAL_DIRECT_SUM)),
        ("odd_semidirect", build(ODD_SEMIDIRECT)),
        ("nilpotent_semidirect", semidirect_product(g, nilpotent)[1]),
    ]


def _rand_coeffs(rng, n):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))


def _endomorphism_samples(ext, rng):
    """Seeded even maps e -> e, labelled by how they relate to the quotient."""
    n, ce = ext.dim_e, ext.cochains_e
    ident = Mat.identity(n)

    def plus_derivation(coords):
        h = ce.cochain1(coords)
        return GradedLinearMap(ext.e.basis, ext.e.basis, ident + ext.inclusion.matrix @ h.matrix)

    def plus_unit(r, c, x):
        rows = [list(row) for row in ident.data]
        rows[r][c] += x
        return GradedLinearMap(ext.e.basis, ext.e.basis, Mat(rows, cols=n))

    n1 = len(ce.pos1)
    inside = [ext.z1_e.combine(_rand_coeffs(rng, ext.z1_e.dim)) for _ in range(3)]
    units_out = [unit_vec(n1, p) for p in range(n1) if not ext.z1_e.contains(unit_vec(n1, p))]
    outside = [tuple(a + Fraction(rng.randint(1, 3)) * b for a, b in zip(inside[0], u))
               for u in units_out[:3]]
    par = ext.e.basis.parity
    comp = ext.complement_indices
    samples = [("cocycle", plus_derivation(v)) for v in inside]
    samples += [("non-cocycle", plus_derivation(v)) for v in outside]
    samples += [("leaves ideal", plus_unit(c, i, Fraction(rng.randint(1, 4))))
                for i in ext.ideal_indices for c in comp if par(c) == par(i)]
    samples += [("moves quotient", plus_unit(c, d, Fraction(rng.randint(1, 4))))
                for c in comp for d in comp if par(c) == par(d)]
    pos = c1_positions(ext.e.basis, ext.e.basis)
    samples += [("random", map_from_coords(ext.e.basis, ext.e.basis,
                                           _rand_coeffs(rng, len(pos)))) for _ in range(2)]
    samples.append(("zero", GradedLinearMap.zero(ext.e.basis, ext.e.basis)))
    return samples


def test_quotient_fixing_predicate_agrees_with_classification():
    """`_derivation` is None exactly off the quotient-fixing maps, and
    elsewhere equals the definitional h = f - id on the ideal rows."""
    rng = random.Random(43)
    seen = {}
    for name, ext in _ring_corpus():
        for label, f in _endomorphism_samples(ext, rng):
            got = _derivation(f, ext)
            fixes = got is not None
            assert fixes == classify_endomorphism(f, ext).fixes_quotient, (name, label, f)
            if fixes:
                rows = [[f.matrix.data[i][j] - (i == j) for j in range(ext.dim_e)]
                        for i in ext.ideal_indices]
                h = GradedLinearMap(ext.e.basis, ext.a_basis, Mat(rows, cols=ext.dim_e))
                assert got == h, (name, label, f)
            if label == "cocycle":
                assert fixes, (name, f)
            if label in ("non-cocycle", "leaves ideal", "moves quotient", "zero"):
                assert not fixes, (name, label, f)
            seen[label] = seen.get(label, 0) + 1
    assert all(seen.get(label, 0) >= 3 for label in
               ("cocycle", "non-cocycle", "leaves ideal", "moves quotient", "zero")), seen


def test_from_derivation_is_the_identity_plus_the_included_derivation():
    rng = random.Random(59)
    for name, ext in _ring_corpus():
        ident = Mat.identity(ext.dim_e)
        for _ in range(4):
            h = ext.cochains_e.cochain1(ext.z1_e.combine(_rand_coeffs(rng, ext.z1_e.dim)))
            f = from_derivation(h, ext)
            assert f == GradedLinearMap(ext.e.basis, ext.e.basis,
                                        ident + ext.inclusion.matrix @ h.matrix), (name, h)
            assert to_derivation(f, ext) == h, (name, h)


def test_module_endomorphism_product_agrees_with_the_residuals():
    rng = random.Random(47)
    verdicts = []
    for name, ext in _ring_corpus():
        pos_a = c1_positions(ext.a_basis, ext.a_basis)
        phis = [map_from_coords(ext.a_basis, ext.a_basis, v)
                for v in ext.module_end_space.basis]
        phis += [map_from_coords(ext.a_basis, ext.a_basis, _rand_coeffs(rng, len(pos_a)))
                 for _ in range(3)]
        for _, f in _endomorphism_samples(ext, rng):
            blocks = [[f.matrix.data[i][j] - (i == j) for j in ext.ideal_indices]
                      for i in ext.ideal_indices]
            phis.append(GradedLinearMap(ext.a_basis, ext.a_basis, Mat(blocks, cols=ext.dim_a)))
        for phi in phis:
            verdicts.append(is_module_endomorphism(phi, ext))
            assert verdicts[-1] == all(is_zero_vec(r) for r in _module_end_residuals(phi, ext)), \
                (name, phi)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 5, verdicts.count(True)


def test_module_end_columns_are_the_residuals_of_unit_maps(pin_corpus):
    # the matrix is read off the action tensor; column p must be the flattened
    # `_module_end_residuals` of the p-th unit even map on a
    for name, ext in pin_corpus:
        pos = ext.pos_a
        assert ext.module_end_constraints.rows == ext.dim_g * ext.dim_a * ext.dim_a, name
        columns = ext.module_end_constraints.T.dense()
        for p in range(len(pos)):
            phi = map_from_coords(ext.a_basis, ext.a_basis, unit_vec(len(pos), p))
            assert columns[p] == tuple(
                x for r in _module_end_residuals(phi, ext) for x in r), (name, p)


def test_ring_helpers_reject_maps_that_do_not_fix_the_quotient():
    rng = random.Random(53)
    for name, ext in _ring_corpus():
        ident = GradedLinearMap.identity(ext.e.basis)
        outsiders = [f for label, f in _endomorphism_samples(ext, rng)
                     if label in ("non-cocycle", "leaves ideal", "moves quotient", "zero")]
        assert outsiders, name
        for f in outsiders:
            calls = [lambda: to_derivation(f, ext), lambda: shifted_restriction(f, ext),
                     lambda: quasiregular_inverse(f, ext)]
            for op in (ring_add, ring_mul, quasi_mul):
                calls += [lambda op=op: op(f, ident, ext), lambda op=op: op(ident, f, ext)]
            for call in calls:
                with pytest.raises(MembershipError):
                    call()


def _dense_ring_operations(f, g):
    """f + g - id, f·g - f - g + 2·id and their ring sum minus id, computed
    on whole matrices entry by entry: the reference for the ideal-row kernels."""
    n = len(f)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    added = [[f[i][j] + g[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    multiplied = [[sum(f[i][k] * g[k][j] for k in range(n)) - f[i][j] - g[i][j] + 2 * ident[i][j]
                   for j in range(n)] for i in range(n)]
    circle = [[added[i][j] + multiplied[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    return added, multiplied, circle


def test_ring_operations_on_ideal_rows_match_the_dense_formulas():
    rng = random.Random(61)
    corpus = _ring_corpus() + [("h5", build(heisenberg(2))),
                               ("h5_odd", build(heisenberg(2, odd=True))),
                               ("sl2_v2", build(SL2_V2))]
    for name, ext in corpus:
        maps = [GradedLinearMap.identity(ext.e.basis)]
        maps += [from_derivation(ext.cochains_e.cochain1(
            ext.z1_e.combine(_rand_coeffs(rng, ext.z1_e.dim))), ext) for _ in range(3)]
        # a copy on rows of its own, and a result fed back in
        maps.append(GradedLinearMap(ext.e.basis, ext.e.basis,
                                    Mat([list(r) for r in maps[1].matrix.data])))
        maps.append(ring_mul(maps[2], maps[3], ext))
        for f in maps:
            for g in maps:
                dense = _dense_ring_operations(f.matrix.data, g.matrix.data)
                for op, want in zip((ring_add, ring_mul, quasi_mul), dense):
                    got = op(f, g, ext).matrix
                    assert got == Mat(want, cols=ext.dim_e), (name, op.__name__)
                    assert all(x is _ZERO for row in got.data for x in row if x == 0), name


def test_derivation_coordinates_are_kept_per_extension_object():
    # in h3, x -> x + y fixes the quotient by <y, z> but not the one by <z>; the
    # answer kept for one extension is not read for the other (the counts of
    # recomputation are in test_membership_answers_are_kept_per_extension_object)
    e = build(HEISENBERG3).e
    centre, plane = build_extension(e, [2]), build_extension(e, [1, 2])
    tilt = GradedLinearMap.from_images(e.basis, e.basis, [vec([1, 1, 0]), vec([0, 1, 0]),
                                                          vec([0, 0, 1])])
    assert _derivation(tilt, centre) is None
    assert _derivation(tilt, plane) is not None
    assert classify_endomorphism(tilt, plane).fixes_quotient
    assert _derivation(tilt, centre) is None
    assert tilt == GradedLinearMap(e.basis, e.basis, tilt.matrix)


def _swap_extension(scale):
    """<x, y> abelian acting on <v1, v2> by x·v1 = v2, x·v2 = v1 and y as x,
    after rescaling y and v2 by `scale`: [x, v1] = v2/s, [x, v2] = s v1,
    [y, v1] = v2 and [y, v2] = s² v1."""
    s = Fraction(scale)
    basis = SuperBasis([("x", 0), ("y", 0), ("v1", 0), ("v2", 0)])
    return build_extension(LieSuperalgebra.from_brackets(basis, {
        ("x", "v1"): {"v2": 1 / s}, ("x", "v2"): {"v1": s},
        ("y", "v1"): {"v2": 1}, ("y", "v2"): {"v1": s * s}}), [2, 3])


def test_membership_answers_are_kept_per_extension_object(monkeypatch):
    """Each memoized predicate answers from the map's memo only for the
    extension object it last decided on: a map is decided once on the swap
    extension, again on a rescaled copy (same bases, where it fails, and
    fails again from the memo), and again on the first, which the memo no
    longer holds; the memo changes neither == nor hash."""
    plain, rescaled = _swap_extension(1), _swap_extension(2)
    swap_a = Mat([[0, 1], [1, 0]])
    h = GradedLinearMap(plain.e.basis, plain.a_basis, Mat([[0, 0, 0, 1], [0, 0, 1, 0]]))
    f = GradedLinearMap(plain.e.basis, plain.e.basis, Mat(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]))
    cases = [(is_ideal_derivation, h), (_derivation, f),
             (is_module_endomorphism, GradedLinearMap(plain.a_basis, plain.a_basis, swap_a)),
             (fixes_action, GradedLinearMap(plain.g.basis, plain.g.basis, swap_a))]
    tests = []
    original = SparseMat._annihilates  # each predicate's one zero test, on integer coordinates

    def counted(self, w):
        assert all(type(x) is int for x in w), w
        tests.append(w)
        return original(self, w)

    monkeypatch.setattr(SparseMat, "_annihilates", counted)
    for predicate, m in cases:
        twin, before = GradedLinearMap(m.domain, m.codomain, m.matrix), hash(m)
        for ext, holds, work in ((plain, True, 1), (plain, True, 0), (rescaled, False, 1),
                                 (rescaled, False, 0), (plain, True, 1)):
            tests.clear()
            assert (predicate(m, ext) not in (None, False)) == holds, (predicate.__name__, ext)
            assert len(tests) == work, (predicate.__name__, ext, holds)
        assert m == twin and hash(m) == before == hash(twin), predicate.__name__
        assert m._facts is not None and twin._facts is None, predicate.__name__


# -- shifted restriction ------------------------------------------------------


def test_shifted_restriction_of_identity_is_zero(h3_ext):
    out = shifted_restriction(GradedLinearMap.identity(h3_ext.e.basis), h3_ext)
    assert out.is_zero()


def test_shifted_restriction_of_shears_is_zero(h3_ext):
    assert shifted_restriction(_shear(h3_ext, 9, -4), h3_ext).is_zero()


def test_shifted_restriction_recovers_the_prescribed_map(sd_ext):
    phi = GradedLinearMap(
        sd_ext.a_basis, sd_ext.a_basis, Mat([[1, 2], [3, -1]]))
    assert is_module_endomorphism(phi, sd_ext)
    witness = extend_endomorphism(phi, sd_ext)
    assert witness is not None
    assert shifted_restriction(witness, sd_ext) == phi


def test_shifted_restriction_is_a_ring_map(corpus):
    rng = random.Random(43)
    for _, ext in corpus:
        for _ in range(5):
            h = map_from_coords(ext.e.basis, ext.a_basis, ext.z1_e.combine(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(ext.z1_e.dim))))
            k = map_from_coords(ext.e.basis, ext.a_basis, ext.z1_e.combine(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(ext.z1_e.dim))))
            f, g = from_derivation(h, ext), from_derivation(k, ext)
            rf, rg = shifted_restriction(f, ext), shifted_restriction(g, ext)
            assert shifted_restriction(ring_add(f, g, ext), ext) == rf + rg
            assert shifted_restriction(ring_mul(f, g, ext), ext) == rf.compose(rg)


# -- obstruction classes ------------------------------------------------------


def test_zero_endomorphism_has_zero_obstruction(h3_ext):
    zero = GradedLinearMap.zero(h3_ext.a_basis, h3_ext.a_basis)
    assert extend_obstruction(zero, h3_ext).is_zero


def test_identity_obstruction_is_minus_the_extension_class(h3_ext):
    ident = GradedLinearMap.identity(h3_ext.a_basis)
    cls = extend_obstruction(ident, h3_ext)
    beta_cls = class_of(h3_ext.beta, h3_ext.h2_g)
    assert cls.coords == tuple(-c for c in beta_cls.coords)
    assert cls.coords == (Fraction(-1),)


def test_split_extension_obstructions_vanish(sd_ext, aff_ext):
    for ext in (sd_ext, aff_ext):
        for v in ext.module_end_space.basis:
            phi = map_from_coords(ext.a_basis, ext.a_basis, v)
            assert extend_obstruction(phi, ext).is_zero


def test_aut_obstruction_matches_ring_variant(h3_ext):
    for c in (2, -1, Fraction(1, 2)):
        phi = _module_scaling(h3_ext, c)
        h = phi - GradedLinearMap.identity(h3_ext.a_basis)
        assert extend_obstruction_aut(phi, h3_ext).coords \
            == extend_obstruction(h, h3_ext).coords


def test_aut_obstruction_requires_invertibility(h3_ext):
    zero = GradedLinearMap.zero(h3_ext.a_basis, h3_ext.a_basis)
    with pytest.raises(MembershipError):
        extend_obstruction_aut(zero, h3_ext)


def test_obstructions_and_lifts_build_no_cochain_through_the_public_constructor(monkeypatch):
    # a work guard: β ∘ (ψ x ψ) - β, β - ψ∘β and -h∘β are derived from the
    # checked cocycle β on coordinates, so no obstruction or lift repeats the
    # checks of `from_upper`, the one public constructor; on Heisenberg g,
    # x1 -> 2 x1 scales the form β and does not lift
    cases = [build(heisenberg(3)), build(heisenberg(2, odd=True)), build(SL2_V2),
             build(AFFINE_SCALING)]
    constructed = []
    from_upper = Cochain2.from_upper

    def counted(cls, *args, **kwargs):
        constructed.append(args)
        return from_upper(*args, **kwargs)

    monkeypatch.setattr(Cochain2, "from_upper", classmethod(counted))
    lifted = []
    for ext in cases:
        n = ext.dim_g
        scale_x1 = GradedLinearMap(ext.g.basis, ext.g.basis, Mat(
            [[Fraction(2 if r == c == 0 else int(r == c)) for c in range(n)] for r in range(n)]))
        for psi in (GradedLinearMap.identity(ext.g.basis), scale_x1):
            if fixes_action(psi, ext):
                lift = lift_endomorphism(psi, ext)
                lifted.append(lift is not None)
                assert (lift is not None) == lift_obstruction(psi, ext).is_zero
        two = GradedLinearMap.identity(ext.a_basis).scale(2)
        assert (extend_endomorphism(two, ext) is None) != extend_obstruction(two, ext).is_zero
        extend_obstruction_aut(two, ext)
    assert True in lifted and False in lifted
    assert constructed == []


# -- the extend solver --------------------------------------------------------


def test_extending_zero_gives_the_identity(h3_ext):
    zero = GradedLinearMap.zero(h3_ext.a_basis, h3_ext.a_basis)
    assert extend_endomorphism(zero, h3_ext) == GradedLinearMap.identity(h3_ext.e.basis)


def test_identity_of_the_ideal_does_not_extend_over_heisenberg(h3_ext):
    ident = GradedLinearMap.identity(h3_ext.a_basis)
    assert extend_endomorphism(ident, h3_ext) is None


def test_everything_extends_over_split_extensions(sd_ext):
    rng = random.Random(47)
    for _ in range(10):
        coords = sd_ext.module_end_space.combine(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(sd_ext.module_end_space.dim)))
        phi = map_from_coords(sd_ext.a_basis, sd_ext.a_basis, coords)
        witness = extend_endomorphism(phi, sd_ext)
        assert witness is not None
        assert shifted_restriction(witness, sd_ext) == phi


def _extend_through_the_five_term_maps(phi, ext):
    """The extension of phi built on the 1-cochains of e: `from_derivation`
    of restriction.T·c - inflation1·mu, for phi's coordinates c and the
    solution mu of d(mu) = -phi∘beta, or None when there is none."""
    c = map_to_coords(phi)
    mu = solve(ext.cochains_g.d1, ext.obstruction_cochains.apply(c))
    if mu is None:
        return None
    return from_derivation(ext.cochains_e.cochain1(
        sub_vec(ext.restriction.T.apply(c), ext.inflation1.apply(mu))), ext)


def test_extend_witnesses_are_the_stacked_e_side_solution(pin_corpus):
    """The solve on d¹ of g gives, on every pin case, the first solution of
    the stacked system on e, and the map that the 1-cochains of e give
    through the five-term maps: for 0, the identity and each basis element of
    End_g(a), and for seeded combinations of that basis; both extendable
    and obstructed elements occur."""
    rng = random.Random(29)
    seen = set()
    for name, ext in pin_corpus + [("n4", build(strictly_upper(4))),
                                   ("sl2_v4", build(sl2_vn(4)))]:
        space = ext.module_end_space
        elements = [zero_vec(len(ext.pos_a)), map_to_coords(GradedLinearMap.identity(ext.a_basis))]
        elements += list(space.basis)
        elements += [space.combine(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                         for _ in range(space.dim))) for _ in range(3)]
        for coords in elements:
            phi = map_from_coords(ext.a_basis, ext.a_basis, coords)
            want = dense_oracle.extend_derivation(phi, ext)
            witness = extend_endomorphism(phi, ext)
            assert (witness is None) == (want is None), (name, coords)
            if witness is not None:
                assert ext.cochains_e.coords1(to_derivation(witness, ext)) == want, (name, coords)
            assert witness == _extend_through_the_five_term_maps(phi, ext), (name, coords)
            seen.add(witness is None)
    assert seen == {True, False}


def test_cold_extend_factors_d1_of_the_quotient_only(monkeypatch):
    """A cold extend solves on d¹ of g: no matrix as wide as the 1-cochains
    of e is eliminated."""
    factored = []
    for method in ("_factor", "_echelon"):
        original = getattr(SparseMat, method)

        def recording(self, original=original):
            factored.append(self)
            return original(self)

        monkeypatch.setattr(SparseMat, method, recording)
    ext = build(strictly_upper(5))
    assert extend_endomorphism(GradedLinearMap.identity(ext.a_basis), ext) is None  # obstructed
    assert any(m is ext.cochains_g.d1 for m in factored)
    assert all(m.cols != len(ext.cochains_e.pos1) for m in factored), \
        sorted(m.cols for m in factored)


def test_extend_rejects_maps_on_the_wrong_space(aff_ext):
    bad = GradedLinearMap.zero(aff_ext.g.basis, aff_ext.g.basis)
    with pytest.raises(ShapeError):
        extend_endomorphism(bad, aff_ext)


def test_extend_rejects_non_equivariant_maps():
    # t acts as v1 <-> shift: v1 -> v2 -> 0; swapping v1, v2 does not commute
    g = LieSuperalgebra.abelian(SuperBasis([("t", 0)]))
    space = SuperBasis([("v1", 0), ("v2", 0)])
    m = ModuleAction(g, space, [[[0, 1], [0, 0]]])
    from superext.algebra import semidirect_product

    _, ext = semidirect_product(g, m)
    swap = GradedLinearMap(ext.a_basis, ext.a_basis, Mat([[0, 1], [1, 0]]))
    assert not is_module_endomorphism(swap, ext)
    with pytest.raises(MembershipError):
        extend_endomorphism(swap, ext)


def test_warm_extend_and_lift_evaluate_coboundaries_only_in_membership_checks(
        corpus, monkeypatch):
    # the solvers and the membership checks of their witnesses are products
    # with the extension's cached d¹, which is read off the structure
    # tensors, so coboundary1 never runs
    from superext import cohomology, extension

    original = cohomology.coboundary1
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    def queries(ext):
        for phi in (GradedLinearMap.zero(ext.a_basis, ext.a_basis),
                    GradedLinearMap.identity(ext.a_basis)):
            extend_endomorphism(phi, ext)
        lift_endomorphism(GradedLinearMap.identity(ext.g.basis), ext)

    for _, ext in corpus:
        queries(ext)  # warm
    for mod in (cohomology, extension):
        if getattr(mod, "coboundary1", None) is original:
            monkeypatch.setattr(mod, "coboundary1", counted)
    for _, ext in corpus:
        queries(ext)
    assert calls == []


# -- the monoid picture -------------------------------------------------------


def test_induced_quotient_map_of_identity(h3_ext):
    ident = GradedLinearMap.identity(h3_ext.e.basis)
    assert induced_on_quotient(ident, h3_ext) == GradedLinearMap.identity(h3_ext.g.basis)


def test_shears_induce_the_identity(h3_ext):
    assert induced_on_quotient(_shear(h3_ext, 3, -8), h3_ext) \
        == GradedLinearMap.identity(h3_ext.g.basis)


def test_diagonal_induces_diagonal(h3_ext):
    gamma = GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.e.basis,
        [vec([2, 0, 0]), vec([0, Fraction(1, 2), 0]), vec([0, 0, 1])],
    )
    assert induced_on_quotient(gamma, h3_ext) == _quotient_diag(h3_ext, 2, Fraction(1, 2))


def test_induced_quotient_map_rejects_non_ideal_fixers(h3_ext):
    gamma = GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.e.basis,
        [vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 2])],
    )
    with pytest.raises(MembershipError):
        induced_on_quotient(gamma, h3_ext)


def test_section_offset_of_identity_is_zero(h3_ext):
    ident = GradedLinearMap.identity(h3_ext.e.basis)
    out = section_offset(ident, GradedLinearMap.identity(h3_ext.g.basis), h3_ext)
    assert out.is_zero()


def test_section_offset_of_shears(h3_ext):
    lam = section_offset(_shear(h3_ext, 4, -1),
                         GradedLinearMap.identity(h3_ext.g.basis), h3_ext)
    assert lam.image_of_basis(0) == vec([4])
    assert lam.image_of_basis(1) == vec([-1])


def test_section_offset_requires_matching_quotient_map(h3_ext):
    with pytest.raises(MembershipError):
        section_offset(_shear(h3_ext, 1, 1), _quotient_diag(h3_ext, 2, 1), h3_ext)


def test_section_offset_vanishes_on_block_lifts(sd_ext):
    psi = GradedLinearMap.identity(sd_ext.g.basis)
    gamma = lift_endomorphism(psi, sd_ext)
    assert gamma is not None
    assert section_offset(gamma, psi, sd_ext).is_zero()


def test_lift_obstruction_values(h3_ext):
    assert lift_obstruction(GradedLinearMap.identity(h3_ext.g.basis), h3_ext).is_zero
    assert lift_obstruction(_quotient_diag(h3_ext, 2, Fraction(1, 2)), h3_ext).is_zero
    cls = lift_obstruction(_quotient_diag(h3_ext, 2, 1), h3_ext)
    assert cls.coords == (Fraction(1),)


def test_lift_witness_for_compatible_diagonal(h3_ext):
    psi = _quotient_diag(h3_ext, 2, Fraction(1, 2))
    gamma = lift_endomorphism(psi, h3_ext)
    assert gamma is not None
    expected = GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.e.basis,
        [vec([2, 0, 0]), vec([0, Fraction(1, 2), 0]), vec([0, 0, 1])],
    )
    assert gamma == expected
    # stored in lowest terms over den 2, where no row is an identity row
    assert gamma.matrix.den == 2 and gamma.matrix.nums == ((4, 0, 0), (0, 1, 0), (0, 0, 2))
    # over den 1 the rows equal to the identity's are the identity's own
    flip = lift_endomorphism(_quotient_diag(h3_ext, -1, -1), h3_ext)
    assert flip.matrix.den == 1 and flip.matrix.nums == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    assert [r is i for r, i in zip(flip.matrix.nums, h3_ext.identity.nums)] == [False, False, True]


def test_lift_fails_for_incompatible_diagonal(h3_ext):
    assert lift_endomorphism(_quotient_diag(h3_ext, 2, 1), h3_ext) is None


def test_lift_of_identity_is_identity(h3_ext):
    out = lift_endomorphism(GradedLinearMap.identity(h3_ext.g.basis), h3_ext)
    assert out == GradedLinearMap.identity(h3_ext.e.basis)


def test_lift_rejects_action_breakers(sd_ext):
    # for the identity action only the identity preserves it
    psi = _quotient_diag(sd_ext, 2)
    assert not fixes_action(psi, sd_ext)
    with pytest.raises(MembershipError):
        lift_endomorphism(psi, sd_ext)


def _fixes_action_by_pairs(psi, ext):
    """The definition, pair by pair: psi is a homomorphism and
    psi(x_i)·a_m = x_i·a_m for every basis pair (i, m)."""
    hom = is_homomorphism(psi, ext.g, ext.g)
    act = all(ext.action.act(psi.image_of_basis(i), unit_vec(ext.dim_a, m))
              == ext.action.act_basis(i, m)
              for i in range(ext.dim_g) for m in range(ext.dim_a))
    return hom, act


def test_fixes_action_agrees_with_the_per_pair_definition(pin_corpus):
    """The zero test with the cached action constraints decides as the
    per-pair loop on the identity, sampled elements of End^a(g), random even maps,
    perturbed samples and multiples; every combination of the two conditions occurs."""
    rng = random.Random(61)
    g = LieSuperalgebra.abelian(SuperBasis([("t", 0), ("u", 0)]))
    space = SuperBasis([("v1", 0), ("v2", 0)])
    # t acts nilpotently and u trivially, so End^a(g) holds t -> t + c u, u -> b u
    nilpotent = ModuleAction(g, space, [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    cases = pin_corpus + [case for case in _ring_corpus() if case[0] == "nilpotent_semidirect"]
    cases.append(("nilpotent_with_kernel", semidirect_product(g, nilpotent)[1]))
    seen = {}
    for name, ext in cases:
        pos = c1_positions(ext.g.basis, ext.g.basis)
        members = _quotient_map_samples(ext, rng)
        psis = [GradedLinearMap.identity(ext.g.basis)] + members
        psis += [map_from_coords(ext.g.basis, ext.g.basis, _rand_coeffs(rng, len(pos)))
                 for _ in range(5)]
        for psi in members:
            p = rng.randrange(len(pos))
            psis.append(psi + map_from_coords(ext.g.basis, ext.g.basis, unit_vec(len(pos), p)))
        # multiples of members: on a nonabelian quotient they break the
        # bracket, and on a faithful action the action too
        psis += [psi.scale(c) for psi in psis[:3] for c in (2, -1)]
        for psi in psis:
            hom, act = _fixes_action_by_pairs(psi, ext)
            assert fixes_action(psi, ext) == (hom and act), (name, psi)
            seen[hom, act] = seen.get((hom, act), 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


# -- inflation and restriction ------------------------------------------------


def test_inflate_zero(h3_ext):
    zero = GradedLinearMap.zero(h3_ext.g.basis, h3_ext.a_basis)
    assert inflate1(zero, h3_ext).is_zero()


def test_restriction_of_heisenberg_derivations_vanishes(h3_ext):
    for v in h3_ext.z1_e.basis:
        f = map_from_coords(h3_ext.e.basis, h3_ext.a_basis, v)
        assert restrict1(f, h3_ext).is_zero()


def test_inflated_heisenberg_cocycle_is_a_coboundary(h3_ext):
    inflated = inflate2(h3_ext.beta, h3_ext)
    lam = GradedLinearMap.from_images(
        h3_ext.e.basis, h3_ext.a_basis, [vec([0]), vec([0]), vec([-1])])
    assert coboundary1(lam, h3_ext.e, h3_ext.adjoint) == inflated
    assert class_of(inflated, h3_ext.h2_e).is_zero


def test_inflate1_requires_a_cocycle():
    # central line added to the Heisenberg algebra: the quotient is the
    # Heisenberg algebra itself, whose derivations into the line kill z
    basis = SuperBasis([("x", 0), ("y", 0), ("z", 0), ("c", 0)])
    e = LieSuperalgebra.from_brackets(basis, {("x", "y"): {"z": 1}})
    ext = build_extension(e, [3])
    f = GradedLinearMap.from_images(
        ext.g.basis, ext.a_basis, [vec([0]), vec([0]), vec([1])])
    with pytest.raises(MembershipError):
        inflate1(f, ext)


def test_kernel_of_restriction_is_the_inflated_space(corpus):
    from superext.linalg import SubspacePresentation

    for _, ext in corpus:
        pos_e = c1_positions(ext.e.basis, ext.a_basis)
        inflated = SubspacePresentation.from_spanning(
            len(pos_e),
            [map_to_coords(
                inflate1(map_from_coords(ext.g.basis, ext.a_basis, v), ext))
             for v in ext.z1_g.basis],
        )
        vanishing = [
            v for v in ext.z1_e.basis
            if restrict1(map_from_coords(ext.e.basis, ext.a_basis, v), ext).is_zero()
        ]
        # every inflated derivation restricts to zero, and inside Z1(e) the
        # restriction-kernel dimension matches
        for v in inflated.basis:
            assert restrict1(map_from_coords(ext.e.basis, ext.a_basis, v), ext).is_zero()
        assert inflated.dim <= len(vanishing) or ext.z1_g.dim == 0


def _inflate2_body(b, ext):
    """inflate2 without its membership checks: b on projected arguments, at
    every pair; the cochain its upper pairs determine has the whole grid."""
    images = [ext.projection.image_of_basis(i) for i in range(ext.dim_e)]
    grid = tuple(tuple(b.eval(x, y) for y in images) for x in images)
    out = Cochain2.from_upper(ext.e.basis, ext.a_basis,
                              {(i, j): grid[i][j] for i, j in _upper_pairs(ext.e.basis.parities)})
    assert dense(out._view(), ext.dim_a) == grid
    return out


def test_inflation_and_restriction_matrices_match_the_definitions(pin_corpus):
    # every unit column against the bare composite; the cocycles of each
    # domain against inflate1, inflate2 and restrict1 themselves
    for name, ext in pin_corpus:
        cg, ce = ext.cochains_g, ext.cochains_e
        for p, column in enumerate(ext.inflation1.T.dense()):
            f = cg.cochain1(unit_vec(len(cg.pos1), p))
            assert column == ce.coords1(f.compose(ext.projection)), (name, p)
        for v in ext.z1_g.basis:
            assert ext.inflation1.apply(v) == ce.coords1(inflate1(cg.cochain1(v), ext)), name
        for p, column in enumerate(ext.inflation2.T.dense()):
            b = cg.cochain2(unit_vec(len(cg.pos2), p))
            assert column == ce.coords2(_inflate2_body(b, ext)), (name, p)
        for v in ext.cochains_g.z2.basis:
            assert ext.inflation2.apply(v) == ce.coords2(inflate2(cg.cochain2(v), ext)), name
        for p, column in enumerate(ext.restriction.T.dense()):
            f = ce.cochain1(unit_vec(len(ce.pos1), p))
            assert column == map_to_coords(f.compose(ext.inclusion))
        for v in ext.z1_e.basis:
            assert ext.restriction.apply(v) == map_to_coords(
                restrict1(ce.cochain1(v), ext)), name


def test_connecting_map_matches_the_extension_obstruction(pin_corpus):
    rng = random.Random(83)
    for name, ext in pin_corpus:
        pos_a = c1_positions(ext.a_basis, ext.a_basis)
        coords, _ = ext.h2_g.quotient.coordinate_map
        for p, column in enumerate(ext.connecting_map.T.dense()):
            phi = map_from_coords(ext.a_basis, ext.a_basis, unit_vec(len(pos_a), p))
            minus_phi_beta = ext.cochains_g.coords2(ext.beta.postcompose(phi).scale(-1))
            assert column == coords.apply(minus_phi_beta), (name, p)
        space = ext.module_end_space
        samples = list(space.basis) + [
            space.combine(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(space.dim))) for _ in range(2)]
        for v in samples:
            phi = map_from_coords(ext.a_basis, ext.a_basis, v)
            assert ext.connecting_map.apply(v) == extend_obstruction(phi, ext).coords, name


def test_connecting_map_multiplies_by_the_class_coordinate_map_once(monkeypatch):
    # the images of End_g(a) are checked to be cocycles with the annihilator
    # alone, and the five-term sequence reuses the cached D: one product with
    # H²(g)'s class-coordinate map per extension
    left = []
    product = SparseMat.__matmul__  # P and A are sparse: this is their product

    def counted(self, other):
        left.append(self)
        return product(self, other)

    monkeypatch.setattr(SparseMat, "__matmul__", counted)
    for ext in (build(heisenberg(2)), build(heisenberg(2, odd=True)), build(SL2_V2),
                build(AFFINE_SCALING)):
        coords, annihilator = ext.h2_g.quotient.coordinate_map
        left.clear()
        assert verify_five_term(ext).passed and verify_five_term(ext).passed
        assert sum(m is coords for m in left) == 1 and sum(m is annihilator for m in left) == 1


def test_connecting_map_requires_the_images_of_end_g_a_to_be_cocycles():
    # beta replaced by a 2-cochain that is not a cocycle: -id∘beta is none either
    ext = build(SL2_V2)
    ext.beta = Cochain2.from_upper(ext.g.basis, ext.a_basis, {(0, 1): (1, 0)})
    assert not ext.cochains_g.is_cocycle2(ext.beta)
    with pytest.raises(MembershipError, match="the 2-cochain is not a cocycle"):
        ext.connecting_map


# -- the block layout of maps on e -------------------------------------------


def _quotient_map_samples(ext, rng):
    """Sampled action-preserving maps g -> g, among them those of the maps
    b_j -> b_j + b_i (i != j of one parity) and b_i -> 2 b_i that preserve
    the action."""
    from superext.sequences import _action_endo_samples

    supplied = []
    par = ext.g.basis.parity
    for i in range(ext.dim_g):
        for j in range(ext.dim_g):
            if par(i) == par(j):
                rows = [[Fraction(int(r == c) + int((r, c) == (i, j))) for c in range(ext.dim_g)]
                        for r in range(ext.dim_g)]
                psi = GradedLinearMap(ext.g.basis, ext.g.basis, Mat(rows, cols=ext.dim_g))
                if fixes_action(psi, ext):
                    supplied.append(psi)
    return _action_endo_samples(ext, rng, 4, supplied)


def _ideal_fixing_samples(ext, rng):
    """(gamma, psi) with gamma fixing the ideal and inducing psi: lifts of
    sampled action-preserving quotient maps, inflated derivations
    x -> x + f(p x), and lifts composed with an inflated derivation."""
    lifts = [(lift_endomorphism(psi, ext), psi) for psi in _quotient_map_samples(ext, rng)]
    lifts = [(gamma, psi) for gamma, psi in lifts if gamma is not None]
    ident_g = GradedLinearMap.identity(ext.g.basis)
    inflated = [(from_derivation(inflate1(ext.cochains_g.cochain1(
                    ext.z1_g.combine(_rand_coeffs(rng, ext.z1_g.dim))), ext), ext), ident_g)
                for _ in range(2)]
    return lifts + inflated + [(gamma.compose(inflated[0][0]), psi) for gamma, psi in lifts]


def test_quotient_map_and_section_offset_match_the_product_forms(pin_corpus):
    rng = random.Random(89)
    seen_psi = seen_lam = 0
    for name, ext in pin_corpus:
        ident_g = GradedLinearMap.identity(ext.g.basis)
        for gamma, psi in _ideal_fixing_samples(ext, rng):
            induced = induced_on_quotient(gamma, ext)
            assert induced == ext.projection.compose(gamma).compose(ext.section), name
            assert induced == psi, name
            lam = section_offset(gamma, psi, ext)
            assert lam.domain == ext.g.basis and lam.codomain == ext.a_basis, name
            for k in range(ext.dim_g):
                w = sub_vec(gamma.apply(ext.section.image_of_basis(k)),
                            ext.section.apply(psi.image_of_basis(k)))
                assert lam.image_of_basis(k) == ext.a_coords(w), (name, k)
            seen_psi += psi != ident_g
            seen_lam += not lam.is_zero()
    assert seen_psi >= 5 and seen_lam >= 5, (seen_psi, seen_lam)


def test_lift_columns_are_the_included_offset_plus_the_sectioned_map(pin_corpus):
    rng = random.Random(97)
    lifted = offsets = 0
    for name, ext in pin_corpus:
        cg = ext.cochains_g
        for psi in _quotient_map_samples(ext, rng):
            gamma = lift_endomorphism(psi, ext)
            sol = solve(cg.d1, cg.coords2(ext.beta - ext.beta.precompose(psi)))
            assert (gamma is None) == (sol is None), name
            if gamma is None:
                continue
            lam = cg.cochain1(sol)
            for idx in ext.ideal_indices:
                assert gamma.image_of_basis(idx) == unit_vec(ext.dim_e, idx), name
            for k, idx in enumerate(ext.complement_indices):
                assert gamma.image_of_basis(idx) == tuple(a + b for a, b in zip(
                    ext.inclusion.apply(lam.image_of_basis(k)),
                    ext.section.apply(psi.image_of_basis(k)))), (name, k)
            lifted += psi != GradedLinearMap.identity(ext.g.basis)
            offsets += not lam.is_zero()
    assert lifted >= 5 and offsets >= 1, (lifted, offsets)


def test_shifted_restriction_and_derivation_compose_match_the_product_forms(pin_corpus):
    rng = random.Random(101)
    asymmetric = 0
    for name, ext in pin_corpus:
        hs = [ext.cochains_e.cochain1(ext.z1_e.combine(_rand_coeffs(rng, ext.z1_e.dim)))
              for _ in range(3)]
        for h in hs:
            f = from_derivation(h, ext)
            restricted = shifted_restriction(f, ext)
            assert restricted == to_derivation(f, ext).compose(ext.inclusion), name
            for k in hs:
                assert derivation_compose(h, k, ext) == h.compose(ext.inclusion.compose(k)), name
            m = restricted.matrix
            asymmetric += any(m.data[i][j] != m.data[j][i]
                              for i in range(m.rows) for j in range(m.cols))
    assert asymmetric >= 3, asymmetric


# -- quasiregular elements ----------------------------------------------------


def test_quasiregular_inverse_of_identity(h3_ext):
    ident = GradedLinearMap.identity(h3_ext.e.basis)
    assert quasiregular_inverse(ident, h3_ext) == ident


def test_quasiregular_inverse_of_shears(h3_ext):
    out = quasiregular_inverse(_shear(h3_ext, 6, -5), h3_ext)
    assert out == _shear(h3_ext, -6, 5)


def test_every_heisenberg_shear_is_quasiregular(h3_ext):
    rng = random.Random(53)
    for _ in range(10):
        f = _shear(h3_ext, rng.randint(-9, 9), rng.randint(-9, 9))
        assert quasiregular_inverse(f, h3_ext) is not None


def test_noninvertible_quotient_fixer_has_no_quasiregular_inverse(sd_ext):
    # h(v1) = -v1 collapses v1: x -> x + h(x) is singular
    rows = [[Fraction(0)] * sd_ext.dim_e for _ in range(sd_ext.dim_a)]
    rows[0][sd_ext.e.basis.index("v1")] = Fraction(-1)
    h = GradedLinearMap(sd_ext.e.basis, sd_ext.a_basis, Mat(rows, cols=sd_ext.dim_e))
    f = from_derivation(h, sd_ext)
    assert inverse(f.matrix) is None
    assert quasiregular_inverse(f, sd_ext) is None


# -- section independence -----------------------------------------------------


def test_section_shift_changes_beta_by_a_coboundary(corpus):
    rng = random.Random(59)
    for _, ext in corpus:
        pos = c1_positions(ext.g.basis, ext.a_basis)
        mu = map_from_coords(
            ext.g.basis, ext.a_basis,
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(len(pos))))
        shifted = beta_with_section(ext, mu)
        assert shifted - ext.beta == coboundary1(mu, ext.g, ext.action)


def test_obstruction_agrees_with_the_cup_product_route(corpus):
    from superext.cohomology import cup

    rng = random.Random(67)
    for _, ext in corpus:
        for _ in range(4):
            coords = ext.module_end_space.combine(
                tuple(Fraction(rng.randint(-4, 4))
                      for _ in range(ext.module_end_space.dim)))
            h = map_from_coords(ext.a_basis, ext.a_basis, coords)
            direct = extend_obstruction(h, ext)
            via_cup = class_of(cup(ext.beta, h), ext.h2_g)
            assert direct.coords == tuple(-c for c in via_cup.coords)


def test_obstruction_classes_are_section_independent(h3_ext):
    rng = random.Random(61)
    pos = c1_positions(h3_ext.g.basis, h3_ext.a_basis)
    mu = map_from_coords(
        h3_ext.g.basis, h3_ext.a_basis,
        tuple(Fraction(rng.randint(-4, 4)) for _ in range(len(pos))))
    shifted = beta_with_section(h3_ext, mu)
    h = _module_scaling(h3_ext, 3) - GradedLinearMap.identity(h3_ext.a_basis)
    direct = extend_obstruction(h, h3_ext)
    via_shift = class_of(shifted.postcompose(h).scale(-1), h3_ext.h2_g)
    assert direct.coords == via_shift.coords
    psi = _quotient_diag(h3_ext, 2, 1)
    assert class_of(shifted.precompose(psi) - shifted, h3_ext.h2_g).coords \
        == lift_obstruction(psi, h3_ext).coords


# -- the shape checks of the algebra, extension and linalg surface ---------------


def test_algebra_extension_and_linalg_shape_checks_raise_their_own_class_and_message(h3_ext):
    # each check on the way into a tensor, a map, an extension, an
    # extension's maps and cochains, and the matrices and presentations of
    # linalg; h3 has quotient <x, y> and ideal <z>
    from superext import linalg
    from superext.algebra import quotient_by_ideal
    from superext.linalg import SubspacePresentation, quotient_presentation

    ext, e, g, a = h3_ext, h3_ext.e, h3_ext.g, h3_ext.a_basis
    line = SuperBasis([("t", 0)])
    m = ModuleAction.trivial(g, a)
    id_e, id_g, id_a = (GradedLinearMap.identity(b) for b in (e.basis, g.basis, a))
    plane, space3 = SubspacePresentation(2, [(1, 0)]), SubspacePresentation(3, [(1, 0, 0)])
    quotient = quotient_presentation(plane, SubspacePresentation(2, []))
    mismatch = "maps are not of the same shape and degree"
    cases = [
        (lambda: e.basis.index("q"), ShapeError, "unknown basis element 'q'"),
        (lambda: LieSuperalgebra(e.basis, [[[0] * 3] * 3] * 2), ShapeError,
         "structure tensor does not match the basis size"),
        (lambda: LieSuperalgebra(line, [[[0, 0]]]), ShapeError,
         "structure tensor entries have the wrong length"),
        (lambda: e.bracket((1, 0), (1, 0, 0)), ShapeError, "vectors do not match the algebra dimension"),
        (lambda: ModuleAction(g, a, [[[0]]]), ShapeError,
         "action tensor does not match the algebra/space sizes"),
        (lambda: ModuleAction(g, a, [[[0, 0]], [[0]]]), ShapeError,
         "action tensor entries have the wrong length"),
        (lambda: m.act((1, 0), (1, 0)), ShapeError, "vector sizes do not match the action"),
        (lambda: GradedLinearMap(g.basis, a, Mat([[1]])), ShapeError, "matrix is 1x1, expected 1x2"),
        (lambda: GradedLinearMap.from_images(g.basis, a, [(1,)]), ShapeError,
         "need one image per domain basis element"),
        (lambda: id_g.compose(id_a), ShapeError, "composition domains do not match"),
        (lambda: id_g + id_a, ShapeError, mismatch),
        (lambda: id_a - GradedLinearMap.zero(g.basis, a), ShapeError, mismatch),
        (lambda: is_homomorphism(id_g, e, e), ShapeError, "map bases do not match the given algebras"),
        (lambda: semidirect_product(e, m), ShapeError, "module is not over the given algebra"),
        (lambda: quotient_by_ideal(e, [3]), ShapeError, "ideal index 3 out of range"),
        (lambda: build_extension(e, [-1]), ShapeError, "ideal index -1 out of range"),
        (lambda: ext.a_coords((1, 0, 0)), MembershipError, "vector does not lie in the ideal"),
        (lambda: ext.a_coords((0, 0, 5, 9, 9)), ShapeError, "vector of length 5 in ambient dimension 3"),
        (lambda: ext.a_coords((0,)), ShapeError, "vector of length 1 in ambient dimension 3"),
        (lambda: classify_endomorphism(id_g, ext), ShapeError,
         "map is not an endomorphism of the ambient algebra"),
        (lambda: is_ideal_derivation(id_e, ext), ShapeError, "map is not of the shape e -> a"),
        (lambda: fixes_action(id_e, ext), ShapeError, "map is not an endomorphism of the quotient"),
        (lambda: to_derivation(id_g, ext), ShapeError,
         "map is not an endomorphism of the ambient algebra"),
        (lambda: inflate1(GradedLinearMap.zero(e.basis, a), ext), ShapeError,
         "map is not of the shape g -> a"),
        (lambda: inflate2(Cochain2.zero(e.basis, a), ext), ShapeError,
         "cochain is not of the shape g x g -> a"),
        (lambda: beta_with_section(ext, GradedLinearMap.zero(e.basis, a)), ShapeError,
         "section shift must be an even map g -> a"),
        (lambda: sub_vec((1,), (1, 2)), ShapeError, "vector lengths differ: 1 vs 2"),
        (lambda: Mat.from_columns([(1,), (1, 2)]), ShapeError, "columns have varying lengths"),
        (lambda: Mat.identity(2).apply((1,)), ShapeError, "matrix is 2x2, vector has length 1"),
        (lambda: Mat.identity(2) + Mat.identity(3), ShapeError, "shape mismatch: 2x2 vs 3x3"),
        (lambda: ext.restriction.apply((1,)), ShapeError,
         f"matrix is 1x{len(ext.cochains_e.pos1)}, vector has length 1"),
        (lambda: ext.restriction @ ext.restriction, ShapeError,
         f"cannot multiply 1x{len(ext.cochains_e.pos1)} by 1x{len(ext.cochains_e.pos1)}"),
        (lambda: inverse(Mat.zeros(2, 3)), ShapeError, "only square matrices can be inverted"),
        (lambda: SubspacePresentation(3, [(1, 0)]), ShapeError, "vector of length 2 in ambient dimension 3"),
        (lambda: space3.contains_subspace(plane), ShapeError, "ambient dimension mismatch"),
        (lambda: quotient.coordinates(linalg.SparseMat(((),) * 3, (1,) * 3, 1)), ShapeError,
         "ambient dimension is 2, vectors have length 3"),
        (lambda: quotient.coordinates_of((1, 0, 0)), ShapeError,
         "ambient dimension is 2, vectors have length 3"),
        (lambda: quotient_presentation(space3, plane), ShapeError, "ambient dimension mismatch"),
    ]
    for k, (call, error, message) in enumerate(cases):
        with pytest.raises((ShapeError, MembershipError)) as caught:
            call()
        assert (type(caught.value), str(caught.value)) == (error, message), k


# -- degenerate extensions ----------------------------------------------------


def test_full_ideal_extension():
    e = LieSuperalgebra.abelian(SuperBasis([("u", 0), ("v", 0)]))
    ext = build_extension(e, [0, 1])
    assert ext.dim_g == 0 and ext.dim_a == 2
    assert ext.h2_g.dim == 0
    phi = GradedLinearMap(ext.a_basis, ext.a_basis, Mat([[1, 2], [0, 1]]))
    witness = extend_endomorphism(phi, ext)
    assert witness is not None


def test_empty_ideal_extension():
    e = LieSuperalgebra.abelian(SuperBasis([("u", 0), ("v", 0)]))
    ext = build_extension(e, [])
    assert ext.dim_a == 0 and ext.dim_g == 2
    psi = GradedLinearMap(ext.g.basis, ext.g.basis, Mat([[0, 1], [1, 0]]))
    assert fixes_action(psi, ext)
    gamma = lift_endomorphism(psi, ext)
    assert gamma is not None
    assert gamma.matrix == psi.matrix


# -- self-checks ----------------------------------------------------------------


def test_library_self_checks_survive_optimized_mode():
    # `python -O` strips assert statements, so the library raises explicitly
    import ast
    from pathlib import Path

    import superext

    found = []
    for path in sorted(Path(superext.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
