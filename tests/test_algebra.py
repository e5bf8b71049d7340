import itertools
import random
from fractions import Fraction

import pytest

import dense_oracle
from dense_oracle import dense
from superext.algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    Violation,
    _jacobi_residual,
    _jacobi_residuals,
    _nonzero_entries,
    _sign,
    is_homomorphism,
    quotient_by_ideal,
    semidirect_product,
    validate_module,
    validate_superalgebra,
)
from superext.errors import MembershipError, NotAnIdealError, ShapeError
from superext.extension import build_extension, from_derivation
from superext.fixtures import (
    all_even_corpus,
    heisenberg3,
    identity_action_module,
    odd_heisenberg,
    odd_line_module,
    odd_semidirect_extension,
    standard_corpus,
)
from superext.linalg import Mat, _spread, bilinear, inverse, is_zero_vec, scale_vec, unit_vec, vec
from superext.sequences import sample_cocycle


def test_superbasis_rejects_duplicate_names():
    with pytest.raises(ShapeError):
        SuperBasis([("x", 0), ("x", 1)])


def test_superbasis_rejects_bad_parity():
    # bools and floats equal to 0 or 1 are refused too, not turned into ints
    for parity in (2, -1, True, False, 1.0, 0.0, None):
        with pytest.raises(ShapeError, match=rf"^parity of 'x' must be 0 or 1, got {parity!r}$"):
            SuperBasis([("x", parity)])
    assert SuperBasis([("x", 0), ("y", 1)]).parities == (0, 1)


def test_heisenberg_validates():
    assert validate_superalgebra(heisenberg3()) is None


def test_odd_heisenberg_validates():
    assert validate_superalgebra(odd_heisenberg()) is None


def test_broken_antisymmetry_is_reported_at_the_reversed_pair():
    basis = SuperBasis([("x", 0), ("y", 0), ("z", 0)])
    structure = [[vec([0, 0, 0])] * 3 for _ in range(3)]
    structure[0][1] = vec([0, 0, 1])
    structure[1][0] = vec([0, 0, 1])
    g = LieSuperalgebra(basis, structure)
    violation = validate_superalgebra(g)
    assert violation is not None
    assert violation.rule == "antisymmetry"
    assert violation.where == ("y", "x")


def test_even_self_bracket_is_reported_as_an_antisymmetry_violation():
    basis = SuperBasis([("x", 0), ("z", 0)])
    with pytest.raises(MembershipError, match="super-antisymmetry") as info:
        LieSuperalgebra.from_brackets(basis, {("x", "x"): {"z": 1}})
    assert "[x,x]" in str(info.value) and "both listed" not in str(info.value)


def test_parity_violation_detected():
    basis = SuperBasis([("x", 0), ("y", 1)])
    g = LieSuperalgebra.from_brackets(basis, {("x", "y"): {"x": 1}})
    violation = validate_superalgebra(g)
    assert violation is not None and violation.rule == "parity"


def test_jacobi_violation_detected():
    basis = SuperBasis([("x", 0), ("y", 0), ("z", 0)])
    g = LieSuperalgebra.from_brackets(
        basis, {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1}}
    )
    violation = validate_superalgebra(g)
    assert violation is not None and violation.rule == "jacobi"
    assert violation.where == ("x", "y", "z")


def test_from_brackets_rejects_inconsistent_orientations():
    basis = SuperBasis([("x", 0), ("y", 0), ("z", 0)])
    with pytest.raises(MembershipError):
        LieSuperalgebra.from_brackets(
            basis, {("x", "y"): {"z": 1}, ("y", "x"): {"z": 1}}
        )


def test_from_brackets_accepts_consistent_orientations():
    basis = SuperBasis([("x", 0), ("y", 0), ("z", 0)])
    g = LieSuperalgebra.from_brackets(
        basis, {("x", "y"): {"z": 1}, ("y", "x"): {"z": -1}}
    )
    assert g == heisenberg3()


def test_odd_diagonal_bracket_is_legal():
    # [q, q] = 2p is the basic supersymmetry relation
    basis = SuperBasis([("p", 0), ("q", 1)])
    g = LieSuperalgebra.from_brackets(basis, {("q", "q"): {"p": 2}})
    assert validate_superalgebra(g) is None


def test_trivial_module_validates():
    g = heisenberg3()
    m = ModuleAction.trivial(g, SuperBasis([("v", 0)]))
    assert validate_module(m) is None


def test_identity_action_module_validates():
    assert validate_module(identity_action_module()) is None


def test_nilpotent_action_validates():
    g = LieSuperalgebra.abelian(SuperBasis([("t", 0)]))
    space = SuperBasis([("v1", 0), ("v2", 0)])
    m = ModuleAction(g, space, [[[0, 1], [0, 0]]])
    assert validate_module(m) is None


def test_module_axiom_violation_detected():
    g = heisenberg3()
    space = SuperBasis([("v", 0)])
    # z acts nontrivially although z = [x,y] acts through the bracket as 0
    m = ModuleAction(g, space, [[[0]], [[0]], [[1]]])
    violation = validate_module(m)
    assert violation is not None and violation.rule == "module-axiom"
    assert violation.where == ("x", "y", "v")


def test_module_parity_violation_detected():
    g = LieSuperalgebra.abelian(SuperBasis([("t", 0)]))
    space = SuperBasis([("v", 0), ("w", 1)])
    m = ModuleAction(g, space, [[[0, 1], [0, 0]]])
    violation = validate_module(m)
    assert violation is not None and violation.rule == "module-parity"


def test_graded_map_rejects_inhomogeneous_entries():
    # every map is even: a parity-swapping matrix is refused like a stray entry
    dom = SuperBasis([("x", 0), ("y", 1)])
    for rows in ([[0, 1], [0, 0]], [[0, 1], [1, 0]]):
        with pytest.raises(ShapeError, match=r"^entry \(x, y\) breaks homogeneity of degree 0$"):
            GradedLinearMap(dom, dom, Mat(rows))


def test_identity_is_a_homomorphism():
    g = heisenberg3()
    assert is_homomorphism(GradedLinearMap.identity(g.basis), g, g)


def test_central_shear_is_a_homomorphism():
    g = heisenberg3()
    # x -> x + a z, y -> y + b z, z -> z
    f = GradedLinearMap.from_images(
        g.basis, g.basis,
        [vec([1, 0, 2]), vec([0, 1, -3]), vec([0, 0, 1])],
    )
    assert is_homomorphism(f, g, g)


def test_bad_scaling_is_not_a_homomorphism():
    g = odd_heisenberg()
    f = GradedLinearMap.from_images(
        g.basis, g.basis,
        [vec([2, 0, 0]), vec([0, 3, 0]), vec([0, 0, 1])],
    )
    # [2x, 3y] = 6z but z -> z
    assert not is_homomorphism(f, g, g)


def test_homomorphisms_compose():
    g = heisenberg3()
    rng = random.Random(5)
    for _ in range(10):
        a, b, c, d = (Fraction(rng.randint(-4, 4)) for _ in range(4))
        f1 = GradedLinearMap.from_images(
            g.basis, g.basis, [vec([1, 0, a]), vec([0, 1, b]), vec([0, 0, 1])])
        f2 = GradedLinearMap.from_images(
            g.basis, g.basis, [vec([1, 0, c]), vec([0, 1, d]), vec([0, 0, 1])])
        assert is_homomorphism(f1, g, g) and is_homomorphism(f2, g, g)
        assert is_homomorphism(f1.compose(f2), g, g)


def test_semidirect_identity_action():
    m = identity_action_module()
    product, ext = semidirect_product(m.algebra, m)
    assert product.dim == 3
    t, v1, v2 = 0, 1, 2
    structure = dense(product._sparse, product.dim)
    assert structure[t][v1] == unit_vec(3, v1)
    assert structure[t][v2] == unit_vec(3, v2)
    assert ext.beta.is_zero()
    assert validate_superalgebra(product) is None


def test_semidirect_trivial_action_is_abelian():
    g = LieSuperalgebra.abelian(SuperBasis([("u1", 0), ("u2", 0)]))
    m = ModuleAction.trivial(g, SuperBasis([("c", 0)]))
    product, ext = semidirect_product(g, m)
    assert product == LieSuperalgebra.abelian(product.basis)
    assert ext.beta.is_zero()


def test_semidirect_odd_module():
    m = odd_line_module()
    product, ext = semidirect_product(m.algebra, m)
    assert validate_superalgebra(product) is None
    assert dense(product._sparse, product.dim)[0][1] == unit_vec(2, 1)
    assert product.basis.parities == (0, 1)


def test_semidirect_rejects_name_collisions():
    g = LieSuperalgebra.abelian(SuperBasis([("t", 0)]))
    m = ModuleAction.trivial(g, SuperBasis([("t", 0)]))
    with pytest.raises(ShapeError):
        semidirect_product(g, m)


def test_semidirect_rejects_invalid_module():
    g = heisenberg3()
    space = SuperBasis([("v", 0)])
    m = ModuleAction(g, space, [[[0]], [[0]], [[1]]])
    with pytest.raises(MembershipError):
        semidirect_product(g, m)


def test_quotient_heisenberg_by_center():
    g = heisenberg3()
    q, proj = quotient_by_ideal(g, [2])
    assert q == LieSuperalgebra.abelian(SuperBasis([("x", 0), ("y", 0)]))
    assert proj.apply(vec([1, 2, 3])) == vec([1, 2])


def test_quotient_odd_heisenberg_by_center():
    g = odd_heisenberg()
    q, _ = quotient_by_ideal(g, [2])
    assert q.basis.parities == (0, 1)
    assert q == LieSuperalgebra.abelian(q.basis)


def test_quotient_by_everything_is_zero_dimensional():
    g = heisenberg3()
    q, _ = quotient_by_ideal(g, [0, 1, 2])
    assert q.dim == 0


def test_quotient_rejects_non_ideal():
    g = heisenberg3()
    with pytest.raises(NotAnIdealError):
        quotient_by_ideal(g, [0])


def test_quotients_revalidate():
    for e, ideal in [(heisenberg3(), [2]), (odd_heisenberg(), [2])]:
        q, _ = quotient_by_ideal(e, ideal)
        assert validate_superalgebra(q) is None


# -- the sparse super-Jacobi kernel against the dense definition ----------------


def _dense_bilinear(tensor, x, y, dim):
    """Reference product: sum_{i,j} x_i y_j tensor[i][j] over the dense tensor,
    testing every structure constant against zero."""
    out = [Fraction(0)] * dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = tensor[i]
        for j, yj in enumerate(y):
            c = xi * yj
            if c == 0:
                continue
            for k, s in enumerate(row[j]):
                if s != 0:
                    out[k] += c * s
    return tuple(out)


def _dense_jacobi_residual(structure, parities, i, j, k):
    """Reference residual: three dense bilinear products against unit vectors."""
    n = len(parities)
    left = _dense_bilinear(structure, structure[i][j], unit_vec(n, k), n)
    right1 = _dense_bilinear(structure, unit_vec(n, i), structure[j][k], n)
    right2 = _dense_bilinear(structure, unit_vec(n, j), structure[i][k], n)
    s = _sign(parities[i], parities[j])
    return tuple(a - b + s * c for a, b, c in zip(left, right1, right2))


def _dense_validate_superalgebra(g):
    """Reference validator: parity, antisymmetry, then the dense residual on all triples."""
    b, n, names = g.basis, g.dim, g.basis.names
    structure = dense(g._sparse, n)
    for i in range(n):
        for j in range(n):
            want = (b.parity(i) + b.parity(j)) % 2
            for k in range(n):
                if structure[i][j][k] != 0 and b.parity(k) != want:
                    return Violation("parity", (names[i], names[j], names[k]),
                                     f"[{names[i]},{names[j]}] has a component of the wrong parity on {names[k]}")
    for i in range(n):
        for j in range(i, n):
            if structure[j][i] != scale_vec(-_sign(b.parity(i), b.parity(j)), structure[i][j]):
                return Violation("antisymmetry", (names[j], names[i]),
                                 f"[{names[j]},{names[i]}] != -(-1)^(|{names[i]}||{names[j]}|) [{names[i]},{names[j]}]")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not is_zero_vec(_dense_jacobi_residual(structure, b.parities, i, j, k)):
                    return Violation("jacobi", (names[i], names[j], names[k]),
                                     "super-Jacobi identity fails on this basis triple")
    return None


def _dense_validate_module(m):
    bad = _dense_validate_superalgebra(m.algebra)
    if bad is not None:
        return bad
    ab, sb = m.algebra.basis, m.space
    action = dense(m._sparse, sb.dim)
    for i in range(ab.dim):
        for v in range(sb.dim):
            want = (ab.parity(i) + sb.parity(v)) % 2
            for k in range(sb.dim):
                if action[i][v][k] != 0 and sb.parity(k) != want:
                    return Violation("module-parity", (ab.names[i], sb.names[v], sb.names[k]),
                                     "action component has the wrong parity")
    structure = dense_oracle.sum_structure(m.algebra, m)
    parities = ab.parities + sb.parities
    for i in range(ab.dim):
        for j in range(ab.dim):
            for v in range(sb.dim):
                if not is_zero_vec(_dense_jacobi_residual(structure, parities, i, j, ab.dim + v)):
                    return Violation("module-axiom", (ab.names[i], ab.names[j], sb.names[v]),
                                     "[x,y]·v != x·(y·v) - (-1)^(|x||y|) y·(x·v) on this triple")
    return None


def _odd_h5():
    basis = SuperBasis([("x1", 0), ("x2", 0), ("y1", 1), ("y2", 1), ("z", 1)])
    e = LieSuperalgebra.from_brackets(basis, {("x1", "y1"): {"z": 1}, ("x2", "y2"): {"z": 1}})
    return build_extension(e, [4])


def _sl2_v2():
    basis = SuperBasis([("e", 0), ("f", 0), ("h", 0), ("v1", 0), ("v2", 0)])
    e = LieSuperalgebra.from_brackets(basis, {
        ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
        ("e", "v2"): {"v1": 1}, ("f", "v1"): {"v2": 1},
        ("h", "v1"): {"v1": 1}, ("h", "v2"): {"v2": -1}})
    return build_extension(e, [3, 4])


def _random_tensor(rng):
    """A structure tensor with random parities and sparse random entries; rarely Jacobi."""
    n = rng.randint(2, 5)
    parities = tuple(rng.randint(0, 1) for _ in range(n))
    structure = [[tuple(Fraction(rng.choice((-2, -1, 0, 0, 0, 0, 0, 1, 3))) for _ in range(n))
                  for _ in range(n)] for _ in range(n)]
    return structure, parities


def _kernel_extensions():
    exts = [ext for _, ext in standard_corpus() + all_even_corpus()]
    return exts + [odd_semidirect_extension(), _odd_h5(), _sl2_v2()]


def _kernel_corpus():
    """Structure tensors of the extensions, of their semidirect and twisted
    sums g ⊕ M (the twist a random 2-cochain, rarely a cocycle), and random ones."""
    cases = []
    rng = random.Random(11)
    for ext in _kernel_extensions():
        cases.append((dense(ext.e._sparse, ext.e.dim), ext.e.basis.parities))
        for cx in (ext.cochains_g, ext.cochains_e):
            parities = cx.g.basis.parities + cx.m.space.parities
            beta = cx.cochain2(tuple(Fraction(rng.choice((-2, -1, 0, 1, 3))) for _ in cx.pos2))
            beta = dense(beta._view(), cx.m.space.dim)
            cases.append((dense_oracle.sum_structure(cx.g, cx.m), parities))
            cases.append((dense_oracle.sum_structure(cx.g, cx.m, beta), parities))
        cases.append((dense_oracle.sum_structure(ext.g, ext.action, dense(ext.beta._view(), ext.dim_a)),
                      ext.g.basis.parities + ext.a_basis.parities))
    cases += [_random_tensor(rng) for _ in range(60)]
    return cases


def test_sparse_jacobi_kernel_matches_the_dense_residual_on_every_triple():
    skipped = nonzero = 0
    for structure, parities in _kernel_corpus():
        sparse = _nonzero_entries(structure)
        n = len(parities)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    dense = _dense_jacobi_residual(structure, parities, i, j, k)
                    assert _spread(_jacobi_residual(sparse, parities, i, j, k), n) == dense, (i, j, k)
                    if not (sparse[i][j] or sparse[j][k] or sparse[i][k]):
                        skipped += 1
                        assert all(r == 0 for r in dense), (i, j, k)
                    elif any(r != 0 for r in dense):
                        nonzero += 1
    assert skipped >= 1000 and nonzero >= 1000, (skipped, nonzero)


def test_jacobi_residuals_visit_exactly_the_triples_with_a_nonzero_bracket():
    # the rule restated: only sorted triples i <= j <= k are visited, and one is
    # skipped iff [b_i,b_j], [b_j,b_k] and [b_i,b_k] all vanish
    for structure, parities in _kernel_corpus():
        sparse, n = _nonzero_entries(structure), len(parities)
        for xs, zs in ((range(n), range(n)), (range(n // 2), range(n // 2, n))):
            want = [(i, j, k, _jacobi_residual(sparse, parities, i, j, k))
                    for i in xs for j in xs for k in zs
                    if i <= j <= k and (sparse[i][j] or sparse[j][k] or sparse[i][k])]
            assert list(_jacobi_residuals(sparse, parities, xs, xs, zs)) == want


def _is_super_antisymmetric(structure, parities):
    n = len(parities)
    return all(structure[j][i] == scale_vec(-_sign(parities[i], parities[j]), structure[i][j])
               for i in range(n) for j in range(n))


def test_jacobi_residual_is_super_alternating_on_antisymmetric_tensors():
    # why sorted triples suffice: swapping two adjacent slots holding b_u, b_v
    # multiplies the residual by -(-1)^{|u||v|}, so every order of a triple
    # gives the Koszul sign times the residual at the sorted triple; checked on
    # the antisymmetric tensors of the kernel corpus and random even ones
    cases = [case for case in _kernel_corpus() if _is_super_antisymmetric(*case)]
    rng = random.Random(13)
    for _ in range(60):  # made even and antisymmetric, rarely Jacobi
        structure, parities = _random_tensor(rng)
        n = len(parities)
        for i in range(n):
            for j in range(i, n):
                # keep the components of parity |i| + |j|; an even self-bracket vanishes
                want = (parities[i] + parities[j]) % 2 if i < j or parities[i] else None
                structure[i][j] = tuple(c if parities[k] == want else Fraction(0)
                                        for k, c in enumerate(structure[i][j]))
                structure[j][i] = scale_vec(-_sign(parities[i], parities[j]), structure[i][j])
        cases.append((structure, parities))
    checked = odd_repeats = 0
    for structure, parities in cases:
        sparse, n = _nonzero_entries(structure), len(parities)
        residual = {t: _jacobi_residual(sparse, parities, *t)
                    for t in itertools.product(range(n), repeat=3)}
        for t, r in residual.items():
            order, sign = list(t), Fraction(1)
            for _ in range(2):  # bubble sort of three slots
                for a in range(2):
                    u, v = order[a], order[a + 1]
                    if u > v:
                        order[a], order[a + 1] = v, u
                        sign *= -_sign(parities[u], parities[v])
            assert _spread(r, n) == scale_vec(sign, _spread(residual[tuple(order)], n)), (t, parities)
            checked += 1
            if any(parities[x] and t.count(x) > 1 for x in t) and r:
                odd_repeats += 1  # a repeated odd slot: such triples must stay visited
    assert checked >= 8000 and odd_repeats >= 300, (checked, odd_repeats)


def _random_vector(rng, n):
    """Random rationals mixed with zeros that are not the shared zero of `linalg`."""
    return tuple(rng.choice((Fraction(0, 7), Fraction(0), 0, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
                 for _ in range(n))


def test_sparse_kernels_match_the_dense_bilinear():
    """`bilinear` over the nonzero view, and the `bracket`, `act` and `eval` built
    on it, against the dense product on unit and random vectors."""
    rng = random.Random(17)
    compared = 0
    for structure, parities in _kernel_corpus():
        sparse, n = _nonzero_entries(structure), len(parities)
        vectors = [unit_vec(n, i) for i in range(n)] + [_random_vector(rng, n) for _ in range(4)]
        for x in vectors:
            for y in vectors:
                assert bilinear(sparse, x, y, n) == _dense_bilinear(structure, x, y, n), (x, y)
                compared += 1
    for ext in _kernel_extensions():
        for alg in (ext.e, ext.g):
            structure = dense(alg._sparse, alg.dim)
            for _ in range(20):
                x, y = _random_vector(rng, alg.dim), _random_vector(rng, alg.dim)
                assert alg.bracket(x, y) == _dense_bilinear(structure, x, y, alg.dim)
        for m in (ext.action, ext.adjoint):
            action = dense(m._sparse, m.space.dim)
            for _ in range(20):
                x, v = _random_vector(rng, m.algebra.dim), _random_vector(rng, m.space.dim)
                assert m.act(x, v) == _dense_bilinear(action, x, v, m.space.dim)
        beta = dense(ext.beta._view(), ext.dim_a)
        for _ in range(20):
            x, y = _random_vector(rng, ext.dim_g), _random_vector(rng, ext.dim_g)
            assert ext.beta.eval(x, y) == _dense_bilinear(beta, x, y, ext.dim_a)
    assert compared >= 5000, compared


def _random_algebra(rng):
    """Random brackets on a random super basis, antisymmetric by construction
    except for one broken entry now and then; parities are broken now and
    then, Jacobi usually."""
    n = rng.randint(2, 5)
    basis = SuperBasis([(f"b{i}", rng.randint(0, 1)) for i in range(n)])
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            if (i == j and basis.parity(i) == 0) or rng.random() < 0.25:
                continue
            want = (basis.parity(i) + basis.parity(j)) % 2
            value = {f"b{k}": rng.choice((-1, 1, 2)) for k in range(n)
                     if (basis.parity(k) == want or rng.random() < 0.05) and rng.random() < 0.5}
            if value:
                brackets[(f"b{i}", f"b{j}")] = value
    g = LieSuperalgebra.from_brackets(basis, brackets)
    if rng.random() < 0.1:
        structure = [list(row) for row in dense(g._sparse, g.dim)]
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        structure[i][j] = tuple(c + (k == t) for t, c in enumerate(structure[i][j]))
        g = LieSuperalgebra(basis, structure)
    return g


def test_validators_report_the_same_violation_as_the_dense_reference():
    rng = random.Random(5)
    algebras = [_random_algebra(rng) for _ in range(300)]
    rules = []
    for g in algebras:
        got = validate_superalgebra(g)
        assert str(got) == str(_dense_validate_superalgebra(g)), g._sparse
        rules.append(got.rule if got else None)
    valid = [g for g, rule in zip(algebras, rules) if rule is None]
    valid += [heisenberg3(), odd_heisenberg(), _odd_h5().e, _sl2_v2().e, _sl2_v2().g]
    for _ in range(300):
        g = rng.choice(valid if rng.random() < 0.9 else algebras)
        space = SuperBasis([(f"v{k}", rng.randint(0, 1)) for k in range(rng.randint(1, 3))])
        action = [[[rng.choice((-1, 0, 1, 2))
                    if space.parity(k) == (g.basis.parity(i) + space.parity(v)) % 2 or rng.random() < 0.03
                    else 0 for k in range(space.dim)] for v in range(space.dim)] for i in range(g.dim)]
        m = ModuleAction(g, space, action)
        got = validate_module(m)
        assert str(got) == str(_dense_validate_module(m)), (g._sparse, m._sparse)
        rules.append(got.rule if got else None)
    assert rules[:300].count(None) <= 100 and rules[300:].count(None) <= 100, rules.count(None)
    for rule in ("parity", "antisymmetry", "jacobi", "module-parity", "module-axiom"):
        assert rules.count(rule) >= 10, (rule, rules.count(rule))


def _random_bracket_table(rng):
    """Random bracket data on a random super basis: each pair listed in one
    orientation or the other, now and then in both (agreeing, or not), now and
    then an even element's self-bracket, and now and then a zero coefficient."""
    n = rng.randint(1, 5)
    basis = SuperBasis([(f"b{i}", rng.randint(0, 1)) for i in range(n)])
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                continue
            if i == j and basis.parity(i) == 0 and rng.random() < 0.9:
                continue
            value = {f"b{k}": rng.choice((-2, -1, 0, 1, Fraction(1, 2), 3))
                     for k in range(n) if rng.random() < 0.5}
            left, right = (i, j) if rng.random() < 0.5 else (j, i)
            brackets[(f"b{left}", f"b{right}")] = value
            if i != j and rng.random() < 0.1:  # the other orientation too
                s = 1 if basis.parity(i) * basis.parity(j) else -1
                other = {name: s * Fraction(c) for name, c in value.items()}
                if rng.random() < 0.5:
                    other[f"b{rng.randrange(n)}"] = rng.choice((1, 2))
                brackets[(f"b{right}", f"b{left}")] = other
    return basis, brackets


def _random_modules(rng, algebras):
    """Valid modules: random actions on one to three elements over the given
    algebras, kept when `validate_module` accepts them, and trivial ones."""
    modules = []
    while len(modules) < 60:
        g = rng.choice(algebras)
        space = SuperBasis([(f"w{k}", rng.randint(0, 1)) for k in range(rng.randint(1, 3))])
        if rng.random() < 0.2:
            modules.append(ModuleAction.trivial(g, space))
            continue
        action = [[[rng.choice((-1, 0, 0, 1, 2))
                    if space.parity(k) == (g.basis.parity(i) + space.parity(v)) % 2 else 0
                    for k in range(space.dim)] for v in range(space.dim)] for i in range(g.dim)]
        m = ModuleAction(g, space, action)
        if validate_module(m) is None:
            modules.append(m)
    return modules


def test_from_brackets_and_semidirect_product_match_the_dense_reference():
    rng = random.Random(23)
    outcomes = []
    for _ in range(400):
        basis, brackets = _random_bracket_table(rng)
        try:
            want = dense_oracle.from_brackets(basis, brackets)
        except MembershipError as exc:
            with pytest.raises(MembershipError) as info:
                LieSuperalgebra.from_brackets(basis, brackets)
            assert str(info.value) == str(exc), brackets
            outcomes.append("self-bracket" if "self-bracket" in str(exc) else "orientations")
            continue
        g = LieSuperalgebra.from_brackets(basis, brackets)
        assert dense(g._sparse, g.dim) == want, brackets
        assert g == LieSuperalgebra(basis, want)
        outcomes.append(None)
    for outcome in ("self-bracket", "orientations", None):
        assert outcomes.count(outcome) >= 20, (outcome, outcomes.count(outcome))
    algebras = [heisenberg3(), odd_heisenberg(), _odd_h5().e, _sl2_v2().e, _sl2_v2().g,
                LieSuperalgebra.abelian(SuperBasis([("t", 0), ("u", 1)]))]
    modules = _random_modules(rng, algebras) + [
        ext.action for ext in _kernel_extensions() if ext.g.dim]
    for m in modules:
        product, ext = semidirect_product(m.algebra, m)
        assert dense(product._sparse, product.dim) == dense_oracle.sum_structure(m.algebra, m), m._sparse
        assert product == LieSuperalgebra(product.basis, dense(product._sparse, product.dim))
        assert ext.action == m and ext.beta.is_zero()


def _is_homomorphism_loop(phi, g, h):
    """`is_homomorphism` in Fractions: phi([b_i, b_j]) == [phi b_i, phi b_j]
    on every basis pair."""
    images, structure = [phi.image_of_basis(i) for i in range(g.dim)], dense(g._sparse, g.dim)
    return all(phi.apply(structure[i][j]) == h.bracket(images[i], images[j])
               for i in range(g.dim) for j in range(g.dim))


def _big_entry(rng):
    """A small fraction, a plain int or a fraction with a denominator above 200 bits."""
    return rng.choice((Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-3, 3),
                       Fraction(rng.randint(1, 10 ** 60), rng.randint(2 ** 200, 2 ** 210))))


def _transported(g, rng):
    """(T, h): a random even invertible T with entries of all sizes and the
    algebra h on g's basis with [x, y]_h = T[T^-1 x, T^-1 y]_g, so that T is
    an isomorphism g -> h."""
    parities = g.basis.parities
    while True:
        t = Mat([[_big_entry(rng) if parities[r] == parities[c] else 0 for c in range(g.dim)]
                 for r in range(g.dim)], cols=g.dim)
        t_inv = inverse(t)
        if t_inv is not None:
            break
    cols = [t_inv.column(i) for i in range(g.dim)]
    structure = [[t.apply(g.bracket(cols[i], cols[j])) for j in range(g.dim)] for i in range(g.dim)]
    h = LieSuperalgebra(g.basis, structure)
    return GradedLinearMap(g.basis, g.basis, t), h


def test_is_homomorphism_agrees_with_the_fraction_loop():
    rng = random.Random(151)
    cases = []
    for ext in _kernel_extensions():
        cases += [(GradedLinearMap.identity(ext.e.basis), ext.e, ext.e),
                  (ext.projection, ext.e, ext.g), (ext.section, ext.g, ext.e),
                  (from_derivation(sample_cocycle(ext, 3), ext), ext.e, ext.e)]
        for alg in (ext.e, ext.g):
            if alg.dim:
                phi, h = _transported(alg, rng)
                back = GradedLinearMap(alg.basis, alg.basis, inverse(phi.matrix))
                cases += [(phi, alg, h), (back, h, alg), (GradedLinearMap.identity(alg.basis), h, h),
                          (phi.compose(phi), alg, alg), (phi, alg, alg), (phi, h, h)]
    verdicts = []
    for phi, g, h in cases:
        n, m = phi.matrix.rows, phi.matrix.cols
        maps = [phi]
        for _ in range(3):  # perturb one entry, keeping the map even
            pairs = [(r, c) for r in range(n) for c in range(m)
                     if phi.codomain.parity(r) == phi.domain.parity(c)]
            if pairs:
                r, c = rng.choice(pairs)
                rows = [list(row) for row in phi.matrix.data]
                rows[r][c] += _big_entry(rng) or 1
                maps.append(GradedLinearMap(phi.domain, phi.codomain, Mat(rows, cols=m)))
        for f in maps:
            expected = _is_homomorphism_loop(f, g, h)
            assert is_homomorphism(f, g, h) == expected, (f, g, h)
            verdicts.append(expected)
    assert verdicts.count(True) >= 150 and verdicts.count(False) >= 120, (
        verdicts.count(True), verdicts.count(False))
