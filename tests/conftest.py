import pytest

from dense_oracle import dense
from superext import fixtures
from superext.algebra import LieSuperalgebra, ModuleAction, SuperBasis, semidirect_product
from superext.extension import build_extension


def heisenberg_extension(k, odd=False):
    """h_{2k+1} on x1..xk, y1..yk, z with [x_i, y_i] = z, over its centre <z>.

    The odd variant keeps every x_i even and makes the y_i and z odd.
    """
    p = 1 if odd else 0
    pairs = range(1, k + 1)
    basis = SuperBasis([(f"x{i}", 0) for i in pairs] + [(f"y{i}", p) for i in pairs] + [("z", p)])
    e = LieSuperalgebra.from_brackets(basis, {(f"x{i}", f"y{i}"): {"z": 1} for i in pairs})
    return build_extension(e, [2 * k])


def sl2_v2_extension():
    """sl2 ⋉ V2 with the standard representation, over the ideal V2."""
    basis = SuperBasis([("e", 0), ("f", 0), ("h", 0), ("v1", 0), ("v2", 0)])
    e = LieSuperalgebra.from_brackets(basis, {
        ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
        ("e", "v2"): {"v1": 1}, ("f", "v1"): {"v2": 1},
        ("h", "v1"): {"v1": 1}, ("h", "v2"): {"v2": -1}})
    return build_extension(e, [3, 4])


@pytest.fixture(scope="session")
def h3_ext():
    return fixtures.heisenberg3_extension()


@pytest.fixture(scope="session")
def ba1_ext():
    return fixtures.odd_heisenberg_extension()


@pytest.fixture(scope="session")
def sd_ext():
    return fixtures.identity_semidirect_extension()


@pytest.fixture(scope="session")
def aff_ext():
    return fixtures.affine_scaling_extension()


@pytest.fixture(scope="session")
def corpus(h3_ext, ba1_ext, sd_ext, aff_ext):
    return [
        ("heisenberg3", h3_ext),
        ("odd_heisenberg", ba1_ext),
        ("identity_semidirect", sd_ext),
        ("affine_scaling", aff_ext),
    ]


@pytest.fixture(scope="session")
def all_even_corpus(h3_ext, sd_ext, aff_ext):
    return [
        ("heisenberg3", h3_ext),
        ("identity_semidirect", sd_ext),
        ("affine_scaling", aff_ext),
        ("central_direct_sum", fixtures.central_direct_sum_extension()),
    ]


@pytest.fixture(scope="session")
def pin_corpus(corpus):
    """The fixture corpus with split and odd cases, and ideals listed first;
    the last case has a nonabelian quotient [x, y] = y and a cocycle that is
    a nonzero coboundary, so lifts of y -> 2y need a nonzero section offset."""
    return corpus + [
        ("central_direct_sum", fixtures.central_direct_sum_extension()),
        ("odd_semidirect", fixtures.odd_semidirect_extension()),
        ("h5_odd", heisenberg_extension(2, odd=True)),
        ("sl2_v2", sl2_v2_extension()),
        ("h3_centre_first", build_extension(LieSuperalgebra.from_brackets(
            SuperBasis([("z", 0), ("x", 0), ("y", 0)]), {("x", "y"): {"z": 1}}), [0])),
        ("twisted_affine_line", build_extension(LieSuperalgebra.from_brackets(
            SuperBasis([("z", 0), ("x", 0), ("y", 0)]), {("x", "y"): {"y": 1, "z": 1}}), [0])),
    ]


def strictly_upper_extension(k):
    """n_k, the strictly upper-triangular k x k matrices on E_ij (i < j) with
    [E_ij, E_jl] = E_il, over its centre <E_1k>."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    basis = SuperBasis([(f"E{i}_{j}", 0) for i, j in pairs])
    e = LieSuperalgebra.from_brackets(basis, {
        (f"E{i}_{j}", f"E{j}_{l}"): {f"E{i}_{l}": 1}
        for i, j in pairs for l in range(j + 1, k + 1)})
    return build_extension(e, [pairs.index((1, k))])


def sl2_vn_extension(n):
    """sl2 ⋉ V_n over V_n, the irreducible module on v0..vn with h·v_k = (n-2k) v_k,
    f·v_k = (k+1) v_{k+1} and e·v_k = (n-k+1) v_{k-1}."""
    vs = [f"v{k}" for k in range(n + 1)]
    basis = SuperBasis([("e", 0), ("f", 0), ("h", 0)] + [(v, 0) for v in vs])
    brackets = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}
    for k, v in enumerate(vs):
        brackets[("h", v)] = {v: n - 2 * k}
        if k < n:
            brackets[("f", v)] = {vs[k + 1]: k + 1}
        if k > 0:
            brackets[("e", v)] = {vs[k - 1]: n - k + 1}
    return build_extension(LieSuperalgebra.from_brackets(basis, brackets), range(3, 4 + n))


def osp12_adjoint_extension():
    """osp(1|2) ⋉ ad over the adjoint copy: even h, e, f and odd P, M with
    [h,e] = 2e, [h,f] = -2f, [e,f] = h, [h,P] = P, [h,M] = -M, [e,M] = -P,
    [f,P] = -M, [P,P] = 2e, [M,M] = -2f and [P,M] = h; the copy's elements
    carry a trailing "'"."""
    basis = SuperBasis([("h", 0), ("e", 0), ("f", 0), ("P", 1), ("M", 1)])
    g = LieSuperalgebra.from_brackets(basis, {
        ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
        ("h", "P"): {"P": 1}, ("h", "M"): {"M": -1}, ("e", "M"): {"P": -1},
        ("f", "P"): {"M": -1}, ("P", "P"): {"e": 2}, ("M", "M"): {"f": -2},
        ("P", "M"): {"h": 1}})
    space = SuperBasis([(f"{name}'", p) for name, p in basis.items()])
    return semidirect_product(g, ModuleAction(g, space, dense(g._sparse, g.dim)))[1]

