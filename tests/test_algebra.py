import random
from fractions import Fraction

import pytest

from superext.algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    Violation,
    _jacobi_residual,
    _nonzero_entries,
    _sign,
    _sum_structure,
    is_homomorphism,
    quotient_by_ideal,
    semidirect_product,
    validate_module,
    validate_superalgebra,
)
from superext.cohomology import _LinearForm
from superext.errors import MembershipError, NotAnIdealError, ShapeError
from superext.extension import build_extension
from superext.fixtures import (
    all_even_corpus,
    heisenberg3,
    identity_action_module,
    odd_heisenberg,
    odd_line_module,
    odd_semidirect_extension,
    standard_corpus,
)
from superext.linalg import Mat, bilinear, is_zero_vec, scale_vec, unit_vec, vec


def test_superbasis_rejects_duplicate_names():
    with pytest.raises(ShapeError):
        SuperBasis([("x", 0), ("x", 1)])


def test_superbasis_rejects_bad_parity():
    with pytest.raises(ShapeError):
        SuperBasis([("x", 2)])


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
    dom = SuperBasis([("x", 0), ("y", 1)])
    with pytest.raises(ShapeError):
        GradedLinearMap(dom, dom, Mat([[0, 1], [0, 0]]))


def test_graded_map_odd_degree():
    dom = SuperBasis([("x", 0), ("y", 1)])
    f = GradedLinearMap(dom, dom, Mat([[0, 1], [1, 0]]), degree=1)
    assert f.apply(vec([1, 0])) == vec([0, 1])


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
    assert product.structure[t][v1] == unit_vec(3, v1)
    assert product.structure[t][v2] == unit_vec(3, v2)
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
    assert product.structure[0][1] == unit_vec(2, 1)
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


def _dense_jacobi_residual(structure, parities, i, j, k):
    """Reference residual: three dense bilinear products against unit vectors."""
    n = len(parities)
    left = bilinear(structure, structure[i][j], unit_vec(n, k), n)
    right1 = bilinear(structure, unit_vec(n, i), structure[j][k], n)
    right2 = bilinear(structure, unit_vec(n, j), structure[i][k], n)
    s = _sign(parities[i], parities[j])
    return tuple(a - b + s * c for a, b, c in zip(left, right1, right2))


def _dense_validate_superalgebra(g):
    """Reference validator: parity, antisymmetry, then the dense residual on all triples."""
    b, n, names = g.basis, g.dim, g.basis.names
    for i in range(n):
        for j in range(n):
            want = (b.parity(i) + b.parity(j)) % 2
            for k in range(n):
                if g.structure[i][j][k] != 0 and b.parity(k) != want:
                    return Violation("parity", (names[i], names[j], names[k]),
                                     f"[{names[i]},{names[j]}] has a component of the wrong parity on {names[k]}")
    for i in range(n):
        for j in range(i, n):
            if g.structure[j][i] != scale_vec(-_sign(b.parity(i), b.parity(j)), g.structure[i][j]):
                return Violation("antisymmetry", (names[j], names[i]),
                                 f"[{names[j]},{names[i]}] != -(-1)^(|{names[i]}||{names[j]}|) [{names[i]},{names[j]}]")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not is_zero_vec(_dense_jacobi_residual(g.structure, b.parities, i, j, k)):
                    return Violation("jacobi", (names[i], names[j], names[k]),
                                     "super-Jacobi identity fails on this basis triple")
    return None


def _dense_validate_module(m):
    bad = _dense_validate_superalgebra(m.algebra)
    if bad is not None:
        return bad
    ab, sb = m.algebra.basis, m.space
    for i in range(ab.dim):
        for v in range(sb.dim):
            want = (ab.parity(i) + sb.parity(v)) % 2
            for k in range(sb.dim):
                if m.action[i][v][k] != 0 and sb.parity(k) != want:
                    return Violation("module-parity", (ab.names[i], sb.names[v], sb.names[k]),
                                     "action component has the wrong parity")
    structure = _sum_structure(m.algebra, m)
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


def _symbolic_beta(cx):
    """beta held as linear forms over the complex's 2-cochain coordinates."""
    g, na = cx.g, cx.m.space.dim
    grid = [[[Fraction(0)] * na for _ in range(g.dim)] for _ in range(g.dim)]
    for p, (i, j, k) in enumerate(cx.pos2):
        grid[i][j][k] = _LinearForm({p: Fraction(1)})
        if i != j:
            grid[j][i][k] = _LinearForm({p: -_sign(g.basis.parity(i), g.basis.parity(j))})
    return grid


def _random_tensor(rng):
    """A structure tensor with random parities and sparse random entries; rarely Jacobi."""
    n = rng.randint(2, 5)
    parities = tuple(rng.randint(0, 1) for _ in range(n))
    structure = [[tuple(Fraction(rng.choice((-2, -1, 0, 0, 0, 0, 0, 1, 3))) for _ in range(n))
                  for _ in range(n)] for _ in range(n)]
    return structure, parities


def _kernel_corpus():
    exts = [ext for _, ext in standard_corpus() + all_even_corpus()]
    exts += [odd_semidirect_extension(), _odd_h5(), _sl2_v2()]
    cases = []
    for ext in exts:
        cases.append((ext.e.structure, ext.e.basis.parities))
        for cx in (ext.cochains_g, ext.cochains_e):
            parities = cx.g.basis.parities + cx.m.space.parities
            cases.append((_sum_structure(cx.g, cx.m), parities))
            cases.append((_sum_structure(cx.g, cx.m, _symbolic_beta(cx)), parities))
        cases.append((_sum_structure(ext.g, ext.action, ext.beta.tensor),
                      ext.g.basis.parities + ext.a_basis.parities))
    rng = random.Random(11)
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
                    assert _jacobi_residual(sparse, parities, i, j, k) == dense, (i, j, k)
                    if not (sparse[i][j] or sparse[j][k] or sparse[i][k]):
                        skipped += 1
                        assert all(r == 0 for r in dense), (i, j, k)
                    elif any(r != 0 for r in dense):
                        nonzero += 1
    assert skipped >= 1000 and nonzero >= 1000, (skipped, nonzero)


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
        structure = [list(row) for row in g.structure]
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
        assert str(got) == str(_dense_validate_superalgebra(g)), g.structure
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
        assert str(got) == str(_dense_validate_module(m)), (g.structure, m.action)
        rules.append(got.rule if got else None)
    assert rules[:300].count(None) <= 100 and rules[300:].count(None) <= 100, rules.count(None)
    for rule in ("parity", "antisymmetry", "jacobi", "module-parity", "module-axiom"):
        assert rules.count(rule) >= 10, (rule, rules.count(rule))
