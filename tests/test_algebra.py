import random
from fractions import Fraction

import pytest

from superext.algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    is_homomorphism,
    quotient_by_ideal,
    semidirect_product,
    validate_module,
    validate_superalgebra,
)
from superext.errors import MembershipError, NotAnIdealError, ShapeError
from superext.fixtures import (
    heisenberg3,
    identity_action_module,
    odd_heisenberg,
    odd_line_module,
)
from superext.linalg import Mat, unit_vec, vec


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
