import itertools
import math
import random
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superext.algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    _jacobi_residual,
    _jacobi_residuals,
    _sign,
    _sum_structure,
    semidirect_product,
    validate_module,
)
from superext import cohomology, extension, linalg
from superext.cohomology import (
    Cochain2,
    CochainComplex,
    c1_positions,
    c2_positions,
    class_of,
    coboundary1,
    coboundary2_space,
    cochain2_from_coords,
    cocycle2_space,
    cup,
    derivation_space,
    h2,
    inner_space,
    is_cocycle1,
    is_cocycle2,
    map_from_coords,
)
from superext.errors import MembershipError, ShapeError, SuperextError
from superext.extension import build_extension
from superext.fixtures import (
    AFFINE_SCALING,
    CENTRAL_DIRECT_SUM,
    HEISENBERG3,
    IDENTITY_SEMIDIRECT,
    ODD_HEISENBERG,
    ODD_SEMIDIRECT,
    SL2_V2,
    build,
    heisenberg,
    osp12_adjoint,
    sl2_vn,
    strictly_upper,
)
from superext.linalg import Mat, inverse, kernel_basis, rank, solve, unit_vec, vec
from superext.sequences import verify_five_term, verify_ring_sequence

from dense_oracle import dense, dense_rows, zero_vec
from dense_oracle import kernel_basis as dense_kernel_basis


def _ab2():
    return LieSuperalgebra.abelian(SuperBasis([("p", 0), ("q", 0)]))


def _ab2_trivial_line():
    g = _ab2()
    return g, ModuleAction.trivial(g, SuperBasis([("c", 0)]))


def _ab11_odd_line():
    g = LieSuperalgebra.abelian(SuperBasis([("p", 0), ("q", 1)]))
    return g, ModuleAction.trivial(g, SuperBasis([("z", 1)]))


def test_coboundary_of_zero_is_zero():
    g, m = _ab2_trivial_line()
    lam = GradedLinearMap.zero(g.basis, m.space)
    assert coboundary1(lam, g, m).is_zero()


def test_coboundary_vanishes_for_abelian_trivial():
    g, m = _ab2_trivial_line()
    lam = GradedLinearMap.from_images(g.basis, m.space, [vec([2]), vec([-3])])
    assert coboundary1(lam, g, m).is_zero()


def test_one_dimensional_even_source_has_no_two_cochains():
    g = LieSuperalgebra.abelian(SuperBasis([("x", 0)]))
    m = ModuleAction(g, SuperBasis([("a1", 0), ("a2", 0)]), [[[1, 0], [0, 1]]])
    assert c2_positions(g.basis, m.space) == []
    lam = GradedLinearMap.from_images(g.basis, m.space, [vec([1, 0])])
    assert coboundary1(lam, g, m).is_zero()
    assert coboundary2_space(g, m).dim == 0


def test_derivation_space_of_abelian_pair_is_everything():
    g, m = _ab2_trivial_line()
    assert derivation_space(g, m).dim == 2


def test_derivation_space_of_heisenberg_into_center():
    ext = build(HEISENBERG3)
    # any derivation kills z = [x, y]
    space = derivation_space(ext.e, ext.adjoint)
    assert space.dim == 2
    z_col = ext.e.basis.index("z")
    for v in space.basis:
        f = map_from_coords(ext.e.basis, ext.a_basis, v)
        assert f.image_of_basis(z_col) == zero_vec(1)


def test_derivation_space_into_zero_module():
    g = _ab2()
    m = ModuleAction.trivial(g, SuperBasis([]))
    assert derivation_space(g, m).dim == 0


def test_cocycle_space_of_ab2():
    g, m = _ab2_trivial_line()
    assert cocycle2_space(g, m).dim == 1


def test_cocycle_space_on_even_line_is_zero():
    g = LieSuperalgebra.abelian(SuperBasis([("x", 0)]))
    m = ModuleAction.trivial(g, SuperBasis([("c", 0)]))
    assert cocycle2_space(g, m).dim == 0


def test_cocycle_space_of_ab11_contains_the_odd_heisenberg_cocycle():
    g, m = _ab11_odd_line()
    space = cocycle2_space(g, m)
    beta = Cochain2.from_upper(g.basis, m.space, {(0, 1): vec([1])})
    assert space.contains(beta.coords)
    assert is_cocycle2(beta, g, m)


def test_coboundaries_vanish_for_abelian_trivial():
    g, m = _ab2_trivial_line()
    assert coboundary2_space(g, m).dim == 0


def test_coboundaries_inside_cocycles(corpus):
    for _, ext in corpus:
        z = cocycle2_space(ext.g, ext.action)
        b = coboundary2_space(ext.g, ext.action)
        assert z.contains_subspace(b)


def test_h2_of_ab2_is_one_dimensional():
    g, m = _ab2_trivial_line()
    assert h2(g, m).dim == 1


def test_h2_of_ab11_contains_a_nonzero_extension_class():
    ext = build(ODD_HEISENBERG)
    pres = ext.h2_g
    assert pres.dim >= 1
    assert not class_of(ext.beta, pres).is_zero


def test_class_of_coboundary_is_zero():
    ext = build(HEISENBERG3)
    lam = GradedLinearMap.from_images(
        ext.g.basis, ext.a_basis, [vec([2]), vec([5])])
    delta = coboundary1(lam, ext.g, ext.action)
    assert class_of(delta, ext.h2_g).is_zero


def test_class_of_heisenberg_cocycle_is_nonzero():
    ext = build(HEISENBERG3)
    cls = class_of(ext.beta, ext.h2_g)
    assert not cls.is_zero
    assert class_of(ext.beta.scale(2), ext.h2_g).coords == tuple(2 * c for c in cls.coords)


def test_cochain_scale_rejects_inexact_scalars():
    # like Mat.scale and GradedLinearMap.scale: a float would be rounded in binary
    beta = build(HEISENBERG3).beta
    for bad in (0.1, 2.0, True):
        with pytest.raises(TypeError):
            beta.scale(bad)
    assert beta.scale("1/2") == beta.scale(Fraction(1, 2))
    assert beta.scale(Fraction(2)) == beta + beta


def test_class_of_non_cocycle_raises(aff_ext):
    pres = aff_ext.h2_e
    pos = c2_positions(aff_ext.e.basis, aff_ext.a_basis)
    z2 = cocycle2_space(aff_ext.e, aff_ext.adjoint)
    assert z2.dim < len(pos)
    outside = next(
        unit_vec(len(pos), k) for k in range(len(pos))
        if not z2.contains(unit_vec(len(pos), k))
    )
    bad = cochain2_from_coords(aff_ext.e.basis, aff_ext.a_basis, outside)
    assert not is_cocycle2(bad, aff_ext.e, aff_ext.adjoint)
    with pytest.raises(MembershipError):
        class_of(bad, pres)


def _dense_cochain2_error(source, target, tensor):
    """`Cochain2.from_upper`'s checks restated as plain loops over every entry
    of the dense tensor its entries determine."""
    n, d = source.dim, target.dim
    for i in range(n):
        for j in range(i, n):
            s = -1 if source.parity(i) * source.parity(j) == 0 else 1
            if any(tensor[j][i][k] != s * tensor[i][j][k] for k in range(d)):
                return f"tensor breaks super-antisymmetry at ({source.names[j]}, {source.names[i]})"
    for i in range(n):
        for j in range(n):
            want = (source.parity(i) + source.parity(j)) % 2
            for k in range(d):
                if tensor[i][j][k] != 0 and target.parity(k) != want:
                    return (f"tensor entry ({source.names[i]}, {source.names[j]}, "
                            f"{target.names[k]}) breaks homogeneity of degree 0")
    return None


def _upper_grid(source, target, upper):
    """The dense tensor that entries at pairs i <= j determine: each value,
    its mirror by super-antisymmetry off the diagonal, zero elsewhere."""
    n = source.dim
    grid = [[[0] * target.dim for _ in range(n)] for _ in range(n)]
    for (i, j), v in upper.items():
        grid[i][j] = list(v)
        if i != j:
            s = -1 if source.parity(i) * source.parity(j) == 0 else 1
            grid[j][i] = [s * x for x in v]
    return grid


def test_cochain2_constructor_errors_match_the_dense_reference():
    # even-diagonal values, wrong-parity values, or both, on pairs listed in a
    # shuffled order: `from_upper` reads the upper pairs only, and reports what
    # the dense checks report on the tensor its entries determine
    rng, seen = random.Random(31), {}
    for _ in range(400):
        source = SuperBasis([(f"b{i}", rng.randint(0, 1)) for i in range(rng.randint(1, 4))])
        target = SuperBasis([(f"t{k}", rng.randint(0, 1)) for k in range(rng.randint(1, 3))])
        n, d = source.dim, target.dim
        upper = {}
        for i, j in [(i, j) for i in range(n) for j in range(i, n) if i < j or source.parity(i)]:
            want = (source.parity(i) + source.parity(j)) % 2
            upper[(i, j)] = [rng.choice((0, 1, -2, Fraction(1, 3))) if target.parity(k) == want else 0
                             for k in range(d)]
        kind = rng.choice(("even-diagonal", "parity", "both", None))
        evens = [i for i in range(n) if source.parity(i) == 0]
        if kind in ("even-diagonal", "both") and evens:
            i = rng.choice(evens)
            upper[(i, i)] = [rng.choice((0, 1, Fraction(-1, 2))) for _ in range(d)]
        if kind in ("parity", "both"):
            i, j = sorted((rng.randrange(n), rng.randrange(n)))
            want = (source.parity(i) + source.parity(j)) % 2
            wrong = [k for k in range(d) if target.parity(k) != want]
            if wrong:
                upper.setdefault((i, j), [0] * d)[rng.choice(wrong)] += 1
        pairs = list(upper.items())
        rng.shuffle(pairs)
        upper = dict(pairs)
        grid = _upper_grid(source, target, upper)
        want = _dense_cochain2_error(source, target, grid)
        if want is None:
            got = Cochain2.from_upper(source, target, upper)
            assert dense(got._view(), d) == tuple(tuple(vec(v) for v in row) for row in grid)
        else:
            with pytest.raises(MembershipError) as err:
                Cochain2.from_upper(source, target, upper)
            assert str(err.value) == want
            seen[(kind, want.split()[1])] = seen.get((kind, want.split()[1]), 0) + 1
    for case in (("even-diagonal", "breaks"), ("parity", "entry"), ("both", "breaks"), ("both", "entry")):
        assert seen.get(case, 0) >= 10, seen


def test_cup_with_identity_is_identity():
    ext = build(HEISENBERG3)
    f = GradedLinearMap.identity(ext.a_basis)
    assert cup(ext.beta, f) == ext.beta


def test_cup_is_linear_in_the_endomorphism():
    ext = build(HEISENBERG3)
    f = GradedLinearMap.identity(ext.a_basis).scale(2)
    assert cup(ext.beta, f) == ext.beta.scale(2)


def test_cup_is_the_pointwise_composite():
    # brute-force comparison with plain composition, for an even map that
    # mixes the two even target elements and scales the odd one
    g = LieSuperalgebra.abelian(SuperBasis([("p", 0), ("q", 1)]))
    space = SuperBasis([("u", 0), ("v", 0), ("w", 1)])
    h = Cochain2.from_upper(
        g.basis, space, {(0, 1): vec([0, 0, 1]), (1, 1): vec([1, 2, 0])})
    f = GradedLinearMap(space, space, Mat([[1, 3, 0], [-1, 0, 0], [0, 0, 5]]))
    product = cup(h, f)
    assert product == h.postcompose(f) and not product.is_zero()
    got, values = dense(product._view(), 3), dense(h._view(), 3)
    for i in range(2):
        for j in range(2):
            assert got[i][j] == f.apply(values[i][j])


def test_coboundary_lands_in_cocycles(corpus):
    rng = random.Random(23)
    for _, ext in corpus:
        pos = c1_positions(ext.g.basis, ext.a_basis)
        for _ in range(5):
            coords = tuple(Fraction(rng.randint(-4, 4)) for _ in range(len(pos)))
            lam = map_from_coords(ext.g.basis, ext.a_basis, coords)
            delta = coboundary1(lam, ext.g, ext.action)
            assert is_cocycle2(delta, ext.g, ext.action)
            assert is_cocycle2(ext.beta + delta, ext.g, ext.action)


def test_h2_dimension_is_basis_order_invariant():
    # same data presented with the basis reversed
    g1, m1 = _ab11_odd_line()
    g2 = LieSuperalgebra.abelian(SuperBasis([("q", 1), ("p", 0)]))
    m2 = ModuleAction.trivial(g2, SuperBasis([("z", 1)]))
    assert h2(g1, m1).dim == h2(g2, m2).dim
    g3, m3 = _ab2_trivial_line()
    g4 = LieSuperalgebra.abelian(SuperBasis([("q", 0), ("p", 0)]))
    m4 = ModuleAction.trivial(g4, SuperBasis([("c", 0)]))
    assert h2(g3, m3).dim == h2(g4, m4).dim


def test_all_even_cocycles_are_alternating():
    g, m = _ab2_trivial_line()
    for v in cocycle2_space(g, m).basis:
        beta = dense(cochain2_from_coords(g.basis, m.space, v)._view(), m.space.dim)
        for i in range(g.dim):
            assert beta[i][i] == zero_vec(m.space.dim)
            for j in range(g.dim):
                assert beta[j][i] == tuple(-c for c in beta[i][j])


def test_inner_space_of_trivial_action_is_zero():
    g, m = _ab2_trivial_line()
    assert inner_space(g, m).dim == 0


def test_d1_columns_are_coboundaries_of_unit_cochains(corpus):
    # the ordered-triples corpus adds odd cases with a nonzero action
    # (osp(1|2) ⋉ ad among them), on which the sign (-1)^{|a||b|} of d¹ matters;
    # the odd modules in random bases have bracket and action constants over
    # different denominators (2 and 3 at seed 1, 3 and 9 at seed 7), which d¹
    # reads over their common one
    extra = [(name, build()) for name, build in sorted(_ORDERED_TRIPLES_CORPUS.items())]
    complexes = [(name, cx) for name, ext in corpus + extra for cx in (ext.cochains_g, ext.cochains_e)]
    complexes += [(f"odd module {seed}", CochainComplex(m.algebra, m))
                  for seed in range(10) for m in [_odd_module(seed)]]
    for name, cx in complexes:
        n1 = len(cx.pos1)
        assert (cx.d1.rows, cx.d1.cols) == (len(cx.pos2), n1), name
        columns = cx.d1.T.dense()
        for p in range(n1):
            lam = cx.cochain1(unit_vec(n1, p))
            assert columns[p] == cx.coords2(coboundary1(lam, cx.g, cx.m)), (name, p)


# -- the linearized 2-cocycle constraints --------------------------------------


def _odd_scaling_line_extension():
    """g = <h | x> with [h, x] = x, split by a trivial even line <c>.

    The 2-cochains of g with values in <c> have one free slot, beta(x, x),
    and only the triple (h, x, x), which repeats the odd x, constrains it:
    its residual is 2 beta(x, x), so Z²(g) = 0.  Over e = g ⊕ <c> the slots
    are beta(x, x) and beta(h, c), and again only (h, x, x) constrains, so
    Z²(e) = <beta(h, c)>.  Dropping the triples with a repeated index would
    give dimensions 1 and 2."""
    g = LieSuperalgebra.from_brackets(SuperBasis([("h", 0), ("x", 1)]), {("h", "x"): {"x": 1}})
    return semidirect_product(g, ModuleAction.trivial(g, SuperBasis([("c", 0)])))[1]


_Z2_CORPUS = {
    **{s.name: partial(build, s) for s in (
        HEISENBERG3, ODD_HEISENBERG, IDENTITY_SEMIDIRECT, AFFINE_SCALING, CENTRAL_DIRECT_SUM,
        ODD_SEMIDIRECT, heisenberg(2), heisenberg(2, odd=True), heisenberg(3),
        heisenberg(3, odd=True), SL2_V2)},
    "odd_scaling_line": _odd_scaling_line_extension,
}


def _z2_case(name, side):
    ext = _Z2_CORPUS[name]()
    return ext.cochains_g if side == "g" else ext.cochains_e


def _per_unit_z2(cx):
    """Reference Z²: one full twisted-Jacobi residual per unit 2-cochain."""
    g, m = cx.g, cx.m
    n2 = len(cx.pos2)
    columns = [tuple(cohomology._twisted_jacobi_residuals(g, m, cx.cochain2(unit_vec(n2, p))))
               for p in range(n2)]
    rows = len(cohomology._twisted_jacobi_residuals(g, m, Cochain2.zero(g.basis, m.space)))
    return dense_kernel_basis(Mat.from_columns(columns, rows=rows))


@pytest.mark.parametrize("side", ["g", "e"])
@pytest.mark.parametrize("name", sorted(_Z2_CORPUS))
def test_linearized_z2_equals_the_per_unit_assembly(name, side):
    cx = _z2_case(name, side)
    reference = _per_unit_z2(cx)
    assert cx.z2.ambient_dim == len(cx.pos2)
    assert cx.z2.basis == reference


def _definition_rows(cx, triples):
    """The linear 2-cocycle conditions read off the definition, without the
    engine's builder: column p holds the module parts of the super-Jacobi
    residuals of g ⊕ M twisted by the p-th unit 2-cochain, at the given g×g×g
    triples.  The residual vanishes at beta = 0 for a valid module, so these
    columns are its linear part; zero and repeated rows are dropped."""
    g, m, n2 = cx.g, cx.m, len(cx.pos2)
    parities = g.basis.parities + m.space.parities
    columns = []
    for p in range(n2):
        sparse = _sum_structure(g, m, cx.cochain2(unit_vec(n2, p))._view())
        columns.append([x for t in triples
                        for x in linalg._spread(_jacobi_residual(sparse, parities, *t),
                                                len(parities))[g.dim:]])
    rows = dict.fromkeys(r for r in zip(*columns) if any(r))
    return Mat(list(rows), cols=n2)


def test_an_odd_repeated_triple_alone_constrains_z2():
    ext = _odd_scaling_line_extension()
    assert len(ext.cochains_g.pos2) == 1 and len(ext.cochains_e.pos2) == 2
    assert ext.cochains_g.z2.dim == 0 and ext.h2_g.dim == 0
    assert ext.cochains_e.z2.dim == 1
    assert ext.cochains_e.z2.basis == (ext.cochains_e.coords2(Cochain2.from_upper(
        ext.e.basis, ext.a_basis, {(0, 2): (Fraction(1),)})),)


_DEDUP_CORPUS = {**_Z2_CORPUS, "n6": lambda: build(strictly_upper(6)),
                 "sl2_v4": lambda: build(sl2_vn(4))}


@pytest.mark.parametrize("side", ["g", "e"])
@pytest.mark.parametrize("name", sorted(_DEDUP_CORPUS))
def test_sparse_key_dedup_gives_the_rows_of_the_dense_key_dedup(name, side):
    # the rows are nonzero and pairwise distinct as dense rows, and they span
    # the row space of the definition's conditions on the sorted triples
    ext = _DEDUP_CORPUS[name]()
    cx = ext.cochains_g if side == "g" else ext.cochains_e
    got = cx.cocycle2_constraints
    assert got.cols == len(cx.pos2)
    for row in got.nums:  # nonzero numerators at strictly increasing columns, and some
        assert row and all(x != 0 for _, x in row)
        assert all(a[0] < b[0] for a, b in zip(row, row[1:]))
    assert len(set(got.dense())) == got.rows
    reference = _definition_rows(cx, list(itertools.combinations_with_replacement(range(cx.g.dim), 3)))
    stacked = Mat(dense_rows(got) + dense_rows(reference), cols=got.cols)
    assert rank(got) == rank(reference) == rank(stacked)


_ORDERED_TRIPLES_CORPUS = {**_Z2_CORPUS, "osp12_adjoint": lambda: build(osp12_adjoint()),
                           "n5": lambda: build(strictly_upper(5)),
                           "sl2_v3": lambda: build(sl2_vn(3))}


@pytest.mark.parametrize("side", ["g", "e"])
@pytest.mark.parametrize("name", sorted(_ORDERED_TRIPLES_CORPUS))
def test_sorted_triples_give_the_z2_of_all_ordered_triples(name, side):
    ext = _ORDERED_TRIPLES_CORPUS[name]()
    cx = ext.cochains_g if side == "g" else ext.cochains_e
    every = range(cx.g.dim)
    reference = kernel_basis(_definition_rows(cx, list(itertools.product(every, repeat=3))))
    assert cx.z2.basis == reference.basis


def _gl11_standard():
    """gl(1|1) on the elementary matrices E_ab (parity |a| + |b|, index 0 even
    and 1 odd) with the supercommutator, acting on C^{1|1}."""
    parity = [0, 1]
    units = [(a, b) for a in range(2) for b in range(2)]
    basis = SuperBasis([(f"E{a}{b}", (parity[a] + parity[b]) % 2) for a, b in units])
    structure = [[[0] * len(units) for _ in units] for _ in units]
    for x, (a, b) in enumerate(units):
        for y, (c, d) in enumerate(units):
            # [E_ab, E_cd] = [b = c] E_ad - (-1)^{|E_ab||E_cd|} [d = a] E_cb
            if b == c:
                structure[x][y][units.index((a, d))] += 1
            if d == a:
                structure[x][y][units.index((c, b))] -= _sign(basis.parity(x), basis.parity(y))
    g = LieSuperalgebra(basis, structure)
    space = SuperBasis([(f"v{a}", p) for a, p in enumerate(parity)])
    return ModuleAction(g, space, [[unit_vec(2, a) if b == c else zero_vec(2) for c in range(2)]
                                   for a, b in units])


def _change_basis(tensor, left, right, out):
    """T[i][j] (a vector) after the basis changes whose new basis vectors are
    the columns of the even invertible matrices `left` (for i), `right` (for
    j) and `out` (for the values)."""
    back = inverse(out)
    n, d = left.rows, right.rows
    return [[back.apply(tuple(sum(left.data[a][i] * right.data[b][j] * tensor[a][b][k]
                                  for a in range(n) for b in range(d))
                              for k in range(out.rows)))
             for j in range(d)] for i in range(n)]


def _odd_module(seed):
    """gl(1|1) on C^{1|1}, gl(1|1) or osp(1|2) on itself, by seed mod 3, in
    random even bases: odd elements act, and no coefficient is special."""
    rng = random.Random(seed)
    if seed % 3 == 2:
        m = build(osp12_adjoint()).action
    elif seed % 3 == 1:
        g = _gl11_standard().algebra
        m = ModuleAction(g, g.basis, dense(g._sparse, g.dim))
    else:
        m = _gl11_standard()

    def even_basis(b):
        # unitriangular within each parity, then scaled: even and invertible
        return Mat([[rng.choice((1, -2, 3)) if r == c
                     else rng.randint(-2, 2) if r < c and b.parity(r) == b.parity(c) else 0
                     for c in range(b.dim)] for r in range(b.dim)])

    p, q = even_basis(m.algebra.basis), even_basis(m.space)
    g = LieSuperalgebra(m.algebra.basis,
                        _change_basis(dense(m.algebra._sparse, m.algebra.dim), p, p, p))
    return ModuleAction(g, m.space, _change_basis(dense(m._sparse, m.space.dim), p, q, q))


@pytest.mark.parametrize("seed", range(10))
def test_z2_of_modules_with_odd_actions_matches_the_definition(seed):
    # the super-signs of the builder, (-1)^{|i||j|}, (-1)^{(|i|+|j|)|k|} and
    # beta's antisymmetry, all act here; the reference does not call the builder
    m = _odd_module(seed)
    cx = CochainComplex(m.algebra, m)
    action = dense(m._sparse, m.space.dim)
    assert any(action[i][v][w] != 0 for i, pi in enumerate(m.algebra.basis.parities) if pi
               for v in range(m.space.dim) for w in range(m.space.dim))
    every = range(cx.g.dim)
    reference = kernel_basis(_definition_rows(cx, list(itertools.product(every, repeat=3))))
    assert cx.z2.basis == reference.basis


@pytest.mark.parametrize("side", ["g", "e"])
@pytest.mark.parametrize("name", sorted(_Z2_CORPUS))
def test_complex_is_cocycle2_agrees_with_the_definition(name, side):
    cx = _z2_case(name, side)
    rng = random.Random(71)
    n2 = len(cx.pos2)
    samples = list(cx.z2.basis)
    for _ in range(2):
        samples.append(cx.z2.combine(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cx.z2.dim))))
    outside = [unit_vec(n2, p) for p in range(n2) if not cx.z2.contains(unit_vec(n2, p))]
    for u in outside[:3]:
        base = samples[rng.randrange(len(samples))] if samples else zero_vec(n2)
        samples.append(tuple(a + Fraction(rng.randint(1, 3)) * b for a, b in zip(base, u)))
    verdicts = []
    for coords in samples:
        beta = cx.cochain2(coords)
        verdicts.append(cx.is_cocycle2(beta))
        assert verdicts[-1] == is_cocycle2(beta, cx.g, cx.m), (name, side, coords)
    assert verdicts.count(False) == len(outside[:3])


@pytest.mark.parametrize("side", ["g", "e"])
@pytest.mark.parametrize("name", sorted(_Z2_CORPUS))
def test_complex_is_cocycle1_agrees_with_the_definition(name, side):
    cx = _z2_case(name, side)
    rng = random.Random(73)
    n1 = len(cx.pos1)
    samples = list(cx.z1.basis)
    for _ in range(2):
        samples.append(cx.z1.combine(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cx.z1.dim))))
    outside = [unit_vec(n1, p) for p in range(n1) if not cx.z1.contains(unit_vec(n1, p))]
    for u in outside[:3]:
        base = samples[rng.randrange(len(samples))] if samples else zero_vec(n1)
        samples.append(tuple(a + Fraction(rng.randint(1, 3)) * b for a, b in zip(base, u)))
    verdicts = []
    for f in map(cx.cochain1, samples):
        verdicts.append(cx.is_cocycle1(f))
        assert verdicts[-1] == is_cocycle1(f, cx.g, cx.m), (name, side, f)
    assert verdicts.count(False) == len(outside[:3])
    stranger = SuperBasis([("stranger", 0)])
    for f in (GradedLinearMap.zero(stranger, cx.m.space),
              GradedLinearMap.zero(cx.g.basis, stranger)):
        with pytest.raises(ShapeError):
            cx.is_cocycle1(f)
        with pytest.raises(ShapeError):
            is_cocycle1(f, cx.g, cx.m)


def test_complex_coordinates_reject_cochains_of_another_shape(h3_ext):
    # a map or cochain over other bases has no coordinates in the complex's
    # format: reading it at the complex's slots would raise an IndexError or
    # give another cochain's entries
    cx, other = h3_ext.cochains_g, SuperBasis([("s", 0), ("t", 0)])
    g, a = cx.g.basis, cx.m.space
    for f in (GradedLinearMap.zero(other, a), GradedLinearMap.zero(g, other)):
        with pytest.raises(ShapeError, match="^map bases do not match the algebra and module$"):
            cx.coords1(f)
    for beta in (Cochain2.zero(other, a), Cochain2.zero(g, other)):
        with pytest.raises(ShapeError, match="^cochain bases do not match the algebra and module$"):
            cx.coords2(beta)
    assert cx.coords2(h3_ext.beta) == h3_ext.beta.coords


@pytest.mark.parametrize("side", ["g", "e"])
@pytest.mark.parametrize("name", sorted(_Z2_CORPUS))
def test_cached_class_coordinates_equal_the_solve_path(name, side):
    # one product with the cached P against one elimination of [B | C] per vector
    cx = _z2_case(name, side)
    quotient = cx.h2.quotient
    system = Mat.from_columns(quotient.sub.basis + quotient.complement, rows=len(cx.pos2))
    rng = random.Random(79)
    for _ in range(4):
        v = cx.z2.combine(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cx.z2.dim)))
        coords = quotient.coordinates_of(v)
        assert coords == solve(system, v)[quotient.sub.dim:], (name, side, v)
        assert class_of(cx.cochain2(v), cx.h2).coords == coords
    n2 = len(cx.pos2)
    for u in [unit_vec(n2, p) for p in range(n2) if not cx.z2.contains(unit_vec(n2, p))][:2]:
        assert solve(system, u) is None
        with pytest.raises(MembershipError, match="outside the ambient subspace"):
            quotient.coordinates_of(u)
        with pytest.raises(MembershipError, match="the 2-cochain is not a cocycle"):
            class_of(cx.cochain2(u), cx.h2)


def test_complex_is_cocycle2_rejects_mismatched_cochains(h3_ext):
    cx = h3_ext.cochains_g
    with pytest.raises(ShapeError):
        cx.is_cocycle2(Cochain2.zero(h3_ext.e.basis, h3_ext.a_basis))
    odd_line = SuperBasis([("w", 1)])
    with pytest.raises(ShapeError):
        cx.is_cocycle2(Cochain2.zero(h3_ext.g.basis, odd_line))
    odd_cx = CochainComplex(h3_ext.g, ModuleAction.trivial(h3_ext.g, odd_line))
    assert odd_cx.is_cocycle2(Cochain2.zero(h3_ext.g.basis, odd_line))
    with pytest.raises(ShapeError):
        odd_cx.is_cocycle2(h3_ext.beta)


def test_cochain_shape_checks_raise_their_own_class_and_message():
    # every shape check on the way into and through a 2-cochain, and on the
    # presentations that read one; over sl2 ⋉ V2 some 1- and 2-cochains of g
    # are not cocycles
    ext = build(SL2_V2)
    g, m, a, cx, beta = ext.g, ext.action, ext.a_basis, ext.cochains_g, ext.beta
    on_e = Cochain2.zero(ext.e.basis, a)
    n1, n2 = len(cx.pos1), len(cx.pos2)
    outside = [next(unit_vec(n, p) for p in range(n) if not space.contains(unit_vec(n, p)))
               for n, space in ((n1, cx.z1), (n2, cx.z2))]
    column = [linalg._sparse_vecs([v], len(v)).T for v in outside]
    mismatch = "cochains are not of the same shape and degree"
    cases = [
        (lambda: Cochain2.from_upper(g.basis, a, {(1, 0): [1, 0]}), ShapeError,
         "from_upper expects pairs with i <= j"),
        (lambda: Cochain2.from_upper(g.basis, a, {(0, 1): [1]}), ShapeError,
         "tensor entries have the wrong length"),
        (lambda: beta.eval(unit_vec(2, 0), unit_vec(3, 0)), ShapeError,
         "vectors do not match the source dimension"),
        (lambda: beta.precompose(GradedLinearMap.identity(a)), ShapeError,
         "precompose needs an even endomorphism of the source"),
        (lambda: beta.postcompose(GradedLinearMap.identity(g.basis)), ShapeError,
         "postcompose needs a map defined on the target"),
        (lambda: beta + Cochain2.zero(g.basis, g.basis), ShapeError, mismatch),
        (lambda: beta - on_e, ShapeError, mismatch),
        (lambda: cochain2_from_coords(g.basis, a, [0] * (n2 + 1)), ShapeError,
         "coordinate vector does not match the position list"),
        (lambda: coboundary1(GradedLinearMap.zero(ext.e.basis, a), ext.e, m), ShapeError,
         "module is not over the given algebra"),
        (lambda: coboundary1(GradedLinearMap.identity(g.basis), g, m), ShapeError,
         "cochain bases do not match the algebra and module"),
        (lambda: is_cocycle2(on_e, g, m), ShapeError, "cochain bases do not match the algebra and module"),
        (lambda: ext.h1_g.coordinates(column[0]), MembershipError, "the 1-cochain is not a cocycle"),
        (lambda: ext.h2_g.coordinates(column[1]), MembershipError, "the 2-cochain is not a cocycle"),
        (lambda: class_of(beta, ext.h1_g), ShapeError, "presentation is not in degree 2"),
        (lambda: class_of(on_e, ext.h2_g), ShapeError, "cochain does not match the presentation"),
        (lambda: cup(beta, GradedLinearMap.identity(g.basis)), ShapeError,
         "cup needs an endomorphism of the cochain's target"),
    ]
    for k, (call, error, message) in enumerate(cases):
        with pytest.raises(SuperextError) as caught:
            call()
        assert (type(caught.value), str(caught.value)) == (error, message), k


def test_building_and_verifying_h5_never_runs_the_full_residual(monkeypatch):
    original = cohomology._twisted_jacobi_residuals
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cohomology, "_twisted_jacobi_residuals", counted)
    ext = build(heisenberg(2))
    assert verify_five_term(ext).passed
    assert calls == []


@pytest.mark.parametrize("name", ["h5", "odd_heisenberg"])
def test_warm_ring_sequence_checks_membership_with_cached_operators(name, monkeypatch):
    # only the suite's final witness check evaluates the bracket definition
    from superext import algebra, extension, sequences

    ext = _Z2_CORPUS[name]()
    assert verify_ring_sequence(ext).passed  # warm
    coboundaries, homs = [], []
    original_d, original_hom = cohomology.coboundary1, algebra.is_homomorphism

    def counted_d(*args):
        coboundaries.append(args)
        return original_d(*args)

    def counted_hom(*args):
        homs.append(args)
        return original_hom(*args)

    monkeypatch.setattr(cohomology, "coboundary1", counted_d)
    for mod in (algebra, extension, sequences):
        # sequences reaches is_homomorphism only through extension today;
        # the patch still catches a direct import there
        monkeypatch.setattr(mod, "is_homomorphism", counted_hom, raising=False)
    assert verify_ring_sequence(ext).passed
    assert coboundaries == []
    assert len(homs) <= ext.z1_g.dim


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_heisenberg_h2_matches_the_closed_form(k):
    # Santharoubane (Proc. AMS 87, 1983): dim H²(h_{2k+1}) = C(2k,2) - 1 for
    # k >= 2 and 2 for k = 1; the quotient Ab(2k) has dim H² = C(2k,2)
    ext = build(heisenberg(k))
    pairs = math.comb(2 * k, 2)
    assert ext.h2_g.dim == pairs
    assert ext.h2_e.dim == (2 if k == 1 else pairs - 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 10, 15, 20])
def test_heisenberg_five_term_dims_match_the_closed_form(k):
    # h_{2k+1} over its centre <z>: g = Ab(2k) with the trivial action; every
    # linear map is a derivation of g, and those of e are the maps killing z;
    # End_g(a) = Q, restriction is zero, and D(id) = -[beta] spans H²(g)'s
    # image, which inflation kills (Santharoubane's H² dims as above)
    pairs = math.comb(2 * k, 2)
    report = verify_five_term(build(heisenberg(k)))
    assert report.passed
    assert report.dims == {
        "z1_g": 2 * k, "z1_e": 2 * k, "end_g_a": 1,
        "h2_g": pairs, "h2_e": 2 if k == 1 else pairs - 1,
        "img_res": 0, "ker_d": 0, "img_d": 1, "ker_inf2": 1,
    }


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_odd_heisenberg_cohomology_matches_the_closed_form(k):
    """oh_{2k+1}: x_i even, y_i and z odd, [x_i, y_i] = z, over the ideal <z>.

    z is central, so a = <z> is a trivial module of both g and e.

    g = e/<z> is abelian and a is trivial, so d¹ = 0: every cochain of g is a
    cocycle, and only 0 is a coboundary.  An even 1-cochain sends each odd y_i to a multiple of z and each x_i to 0:
    h1_g = k.  An even 2-cochain is nonzero only on the pairs of one even and
    one odd element, the k² pairs (x_i, y_j): h2_g = k².

    On e, an even λ is given by λ(y_i) and λ(z), and (dλ)(u, v) = -λ([u, v]).
    So λ is a derivation iff λ(z) = λ([x_i, y_i]) = 0: z1_e = k.  B²(e) is
    the line β(x_i, y_i) = c for every i.  The even 2-cochains are the k²
    values β(x_i, y_j) and the k values β(x_i, z); β(y_j, z) and β(z, z) join
    two odd elements and vanish by parity.  The twisted Jacobi identity only
    constrains triples holding a pair (x_i, y_i), whose bracket z is the only
    nonzero one.  For i ≠ j the triple (x_i, x_j, y_j) gives
    β(x_i, [x_j, y_j]) = β(x_i, z) = 0.  The other triples give β(z, y_l) or
    β(z, z), which vanish anyway, or repeat the even x_i, where the super-
    alternating residual is zero.  So Z²(e) has dimension k² for k ≥ 2 and
    h2_e = k² - 1.  At k = 1 nothing constrains β(x_1, z), Z²(e) has
    dimension 2 and h2_e = 1.
    """
    ext = build(heisenberg(k, odd=True))
    assert ext.h1_g.dim == k
    assert ext.h2_g.dim == k * k
    assert ext.z1_e.dim == k
    assert ext.h2_e.dim == (1 if k == 1 else k * k - 1)
    assert verify_five_term(ext).passed


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_strictly_upper_triangular_cohomology_matches_kostant(k):
    # Kostant (Ann. Math. 74, 1961): dim H^p(n_k) is the number of permutations
    # of length p in S_k, so dim H¹(n_k) = k - 1 and dim H²(n_k) = (k-2)(k+1)/2;
    # the centre <E_1k> is a trivial line, so these are z1_e and h2_e
    ext = build(strictly_upper(k))
    assert ext.z1_e.dim == k - 1
    assert ext.h2_e.dim == (k - 2) * (k + 1) // 2
    assert verify_five_term(ext).passed


@pytest.mark.parametrize("n", range(1, 17))
def test_sl2_semidirect_irreducible_cohomology_matches_the_closed_form(n):
    # Whitehead's lemmas: H¹(sl2, V_n) = H²(sl2, V_n) = 0.  Z¹(e, V_n) holds the
    # inner derivations ad v (V_n has no invariants) and the derivation that is
    # the identity on V_n and zero on sl2.  By Hochschild-Serre and Whitehead,
    # H²(e, V_n) = Hom_sl2(Λ²V_n, V_n), which Clebsch-Gordan makes one-dimensional
    # iff n ≡ 2 (mod 4)
    ext = build(sl2_vn(n))
    assert ext.h1_g.dim == 0 and ext.h2_g.dim == 0
    assert ext.z1_e.dim == n + 2
    assert ext.h2_e.dim == (1 if n % 4 == 2 else 0)
    assert verify_five_term(ext).passed


@pytest.mark.parametrize("build, components, widest", [
    (lambda: build(sl2_vn(8)), 54, 28),
    (lambda: build(strictly_upper(8)), 273, 6),
    (lambda: build(heisenberg(15)), 465, 1),
])
def test_z2_elimination_works_component_by_component(build, components, widest, monkeypatch):
    # a work guard, not a timer: the widths of the components that the
    # elimination of Z²(e)'s constraint rows sees, against the column graph
    # of the matrix (a column no row holds is a component of its own, with
    # nothing to eliminate); h31's 465 columns are each their own component
    ext = build()
    widths = []
    reduce_part = linalg._reduce_part

    def recorded(rows, cols):
        widths.append(len(cols))
        return reduce_part(rows, cols)

    monkeypatch.setattr(linalg, "_reduce_part", recorded)
    z2 = ext.cochains_e.z2
    assert len(widths) + z2.ambient_dim - sum(widths) == components
    assert max(widths) == widest


@pytest.mark.parametrize("build", [
    lambda: build(sl2_vn(4)),
    lambda: build(heisenberg(3)),
    pytest.param(partial(build, AFFINE_SCALING), id="affine_scaling_extension"),
])
def test_quotient_presentation_eliminates_b_and_z_once(build, monkeypatch):
    # a work guard, not a timer: presenting H²(e) = Z²/B² and reading a class
    # eliminates [B | Z] once, component by component, and nothing else; the
    # complement and the coordinate map come out of the same factorization
    ext = build()
    z2, b2 = ext.cochains_e.z2, ext.cochains_e.b2
    rng = random.Random(97)
    v = z2.combine(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(z2.dim)))
    expected = ext.h2_e.quotient.coordinates_of(v)
    stacked = linalg._stacked(b2.vectors, z2.vectors).T
    eliminated = []
    reduce_part = linalg._reduce_part

    def recorded(rows, cols):
        eliminated.append(cols)
        return reduce_part(rows, cols)

    monkeypatch.setattr(linalg, "_reduce_part", recorded)
    q = linalg.quotient_presentation(z2, b2)
    assert q.coordinates_of(v) == expected
    assert eliminated == [cols for _, cols in stacked._components()]
    assert q.dim == ext.h2_e.dim and eliminated


def test_cold_five_term_builds_no_dense_matrix_wider_than_e(monkeypatch):
    # a work guard, not a timer: on h41 (dim C²(e,a) = 820) the five-term
    # maps stay sparse from the build to the last product; every dense `Mat`
    # made on the way, by the public or the trusted constructor, is at most
    # dim_e x dim_e (inflation² times H²(g)'s complement was 820 x 780)
    shapes = []
    init, from_ints = Mat.__init__, Mat._from_ints.__func__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shapes.append((self.rows, self.cols))

    def counted_from_ints(cls, nums, den, cols):
        shapes.append((len(nums), cols))
        return from_ints(cls, nums, den, cols)

    monkeypatch.setattr(Mat, "__init__", counted_init)
    monkeypatch.setattr(Mat, "_from_ints", classmethod(counted_from_ints))
    ext = build(heisenberg(20))
    assert verify_five_term(ext).passed
    assert shapes and max(max(s) for s in shapes) <= ext.dim_e == 41, max(shapes)


def test_operator_assembly_builds_no_fraction(monkeypatch):
    # a work guard: on cold complexes whose constants are fractions (the odd
    # module of seed 3 has bracket and action denominators 3 and 6, and so
    # has its semidirect product), d¹, the Z² constraints and the action
    # operators are assembled in integers; the counter sees Fraction's
    # constructor and, on the Pythons that have one, the private constructor
    # its arithmetic builds results with
    m = _odd_module(3)
    cx, ext = CochainComplex(m.algebra, m), semidirect_product(m.algebra, m)[1]
    cx_e = ext.cochains_e
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        from_coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(lambda cls, n, d: built.append((n, d)) or from_coprime(cls, n, d)))
    operators = [cx.d1, cx.cocycle2_constraints, ext.cochains_g.d1, cx_e.d1, cx_e.cocycle2_constraints,
                 ext.action_constraints, ext.module_end_constraints]
    assert built == [], built[:5]
    assert all(not op.is_zero() for op in operators)
    assert any(d > 1 for op in operators for d in op.dens)


def test_osp12_adjoint_semidirect_dims_are_pinned():
    # a regression pin, not a closed form: all four values were measured, and
    # no e-side formula is derived here; it keeps an odd semidirect case covered
    ext = build(osp12_adjoint())
    assert ext.h1_g.dim == 0 and ext.h2_g.dim == 0
    assert ext.h2_e.dim == 1
    assert ext.z1_e.dim == 4
    assert verify_five_term(ext).passed


@pytest.mark.parametrize("k, odd", [(3, False), (2, True)])
def test_five_term_maps_are_products_with_cached_matrices(k, odd, monkeypatch):
    # building H² makes no coboundary1 call, and a warm five-term check no
    # solve, no inflate2 and no Cochain2.eval: every map is a cached matrix
    counts = {}

    def counted(name, fn):
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items() if n.startswith("superext")]
    for name, original in (("solve", linalg.solve), ("coboundary1", cohomology.coboundary1),
                           ("inflate2", extension.inflate2)):
        wrapper = counted(name, original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    monkeypatch.setattr(Cochain2, "eval", counted("eval", Cochain2.eval))
    ext = build(heisenberg(k, odd=odd))
    ext.h2_g, ext.h2_e
    assert counts["coboundary1"] == 0
    cold = verify_five_term(ext)
    counts.update(dict.fromkeys(counts, 0))
    assert verify_five_term(ext).to_dict() == cold.to_dict()
    assert counts == {"solve": 0, "coboundary1": 0, "inflate2": 0, "eval": 0}


_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_central_extension_by_a_nondegenerate_form_matches_the_closed_form(k, data):
    # [u_i, u_j] = w_ij z with w nondegenerate is h_{2k+1} in a basis where
    # nearly every bracket is nonzero, so few triples are skipped as zero
    n = 2 * k
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = data.draw(_RATIONALS)
            w[j][i] = -w[i][j]
    assume(inverse(Mat(w, cols=n)) is not None)
    basis = SuperBasis([(f"u{i}", 0) for i in range(n)] + [("z", 0)])
    e = LieSuperalgebra.from_brackets(basis, {
        (f"u{i}", f"u{j}"): {"z": w[i][j]} for i in range(n) for j in range(i + 1, n) if w[i][j]})
    ext = build_extension(e, [n])
    pairs = math.comb(n, 2)
    assert ext.h2_g.dim == pairs
    assert ext.h2_e.dim == (2 if k == 1 else pairs - 1)


def _conjugate(m, rng):
    """The module m in a random even basis change P: b_i acts as P A_i P^-1."""
    space = m.space
    while True:
        p = Mat([[rng.randint(-2, 2) if space.parity(r) == space.parity(c) else 0
                  for c in range(space.dim)] for r in range(space.dim)], cols=space.dim)
        p_inv = inverse(p)
        if p_inv is not None:
            break
    action, given = [], dense(m._sparse, space.dim)
    for i in range(m.algebra.dim):
        a = p @ Mat.from_columns(given[i], rows=space.dim) @ p_inv
        action.append([a.column(v) for v in range(space.dim)])
    return ModuleAction(m.algebra, space, action)


def _random_action(g, rng):
    """A parity-respecting action of g on a random super space of dimension ≤ 3."""
    space = SuperBasis([(f"v{k}", rng.randint(0, 1)) for k in range(rng.randint(1, 3))])
    action = [[[rng.choice((-1, 0, 0, 1)) if space.parity(k) == (g.basis.parity(i) + space.parity(v)) % 2
                else 0 for k in range(space.dim)] for v in range(space.dim)] for i in range(g.dim)]
    return ModuleAction(g, space, action)


def test_validate_module_agrees_with_the_twisted_residual_at_zero():
    # CochainComplex.z2 relies on validate_module to make the beta = 0 residual vanish
    names = ("heisenberg3", "odd_heisenberg", "identity_semidirect", "affine_scaling",
             "central_direct_sum", "sl2_v2")
    exts = [_Z2_CORPUS[name]() for name in names]
    corpus = [cx.m for ext in exts for cx in (ext.cochains_g, ext.cochains_e)]
    rng = random.Random(4)
    modules = corpus + [_conjugate(m, rng) for m in corpus * 3]
    modules += [_random_action(rng.choice(corpus).algebra, rng) for _ in range(150)]
    verdicts = []
    for m in modules:
        zero = Cochain2.zero(m.algebra.basis, m.space)
        vanishes = all(r == 0 for r in cohomology._twisted_jacobi_residuals(m.algebra, m, zero))
        verdicts.append(validate_module(m) is None)
        assert verdicts[-1] == vanishes, (m.algebra.basis, m.space, m._sparse)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50, verdicts.count(True)
