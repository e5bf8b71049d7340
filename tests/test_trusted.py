"""Checked boundaries and trusted derivations.

The public constructors of `AbelianExtension`, `CochainComplex`,
`SubspacePresentation`, `GradedLinearMap` and `Cochain2` check their input.
Objects that the library derives from input it has already checked are built
through the private `_trusted` constructors instead: the quotient, its action,
the adjoint module and both cochain complexes of an extension (their axioms
are instances of e's super-Jacobi identity, validated once), the semidirect
product of a validated module, the bases of `kernel_basis` and
`from_spanning`, the products, sums, blocks and inverses of maps, and the
sums, multiples and compositions of 2-cochains.  These tests check that each
trusted object would pass the public checks, that every public path still
rejects bad input with its own message, and that the file loaders and the CLI
never reach a trusted constructor.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import dense_oracle
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import heisenberg_extension
from dense_oracle import dense
from superext import cli, files, fixtures
from superext.algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    _nonzero_entries,
    _upper_pairs,
    semidirect_product,
    validate_module,
    validate_superalgebra,
)
from superext.cohomology import (
    Cochain2,
    CochainComplex,
    c1_positions,
    c2_positions,
    coboundary1,
    cochain2_from_coords,
    cup,
    map_from_coords,
    map_to_coords,
)
from superext.errors import MembershipError, ShapeError
from superext.extension import AbelianExtension, beta_with_section, build_extension, inflate2
from superext.linalg import _ZERO, Mat, SubspacePresentation, kernel_basis, vec
from superext.sequences import (
    _action_endo_samples,
    _rand_combination,
    verify_automorphism_extension,
    verify_five_term,
    verify_monoid_sequence,
    verify_ring_sequence,
    verify_semidirect_automorphisms,
)

_NONZERO = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda x: st.sampled_from((x, -x)))


@st.composite
def _rescaled_heisenberg(draw):
    """h_{2k+1} (even, or with odd y_i and z) with [x_i, y_i] = c_i z, over <z>."""
    k, p = draw(st.integers(1, 3)), draw(st.integers(0, 1))
    basis = SuperBasis([(f"x{i}", 0) for i in range(k)] + [(f"y{i}", p) for i in range(k)]
                       + [("z", p)])
    e = LieSuperalgebra.from_brackets(
        basis, {(f"x{i}", f"y{i}"): {"z": draw(_NONZERO)} for i in range(k)})
    return e, [2 * k]


@st.composite
def _rescaled_kostant(draw):
    """n_k in the basis t_ij E_ij: [E_ij, E_jl] = (t_ij t_jl / t_il) E_il, over <E_1k>."""
    k = draw(st.integers(3, 5))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    t = {ij: draw(_NONZERO) for ij in pairs}
    basis = SuperBasis([(f"E{i}_{j}", 0) for i, j in pairs])
    e = LieSuperalgebra.from_brackets(basis, {
        (f"E{i}_{j}", f"E{j}_{l}"): {f"E{i}_{l}": t[i, j] * t[j, l] / t[i, l]}
        for i, j in pairs for l in range(j + 1, k)})
    return e, [pairs.index((0, k - 1))]


@st.composite
def _nilpotent_module(draw):
    """An abelian even g acting on a super space by polynomials without constant
    term in one parity-preserving strictly upper triangular N: the actions
    commute and are nilpotent, so the module axiom holds."""
    r, d = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    space = SuperBasis([(f"v{m}", draw(st.integers(0, 1))) for m in range(d)])
    units = st.sampled_from((1, -1, 2, -2))
    n = [[draw(units) if r_ < c and space.parity(r_) == space.parity(c) else 0
          for c in range(d)] for r_ in range(d)]
    n_mat = Mat(n, cols=d)
    n2 = n_mat @ n_mat
    g = LieSuperalgebra.abelian(SuperBasis([(f"u{i}", 0) for i in range(r)]))
    action = []
    for _ in range(r):
        a = n_mat.scale(draw(units)) + n2.scale(draw(st.integers(-2, 2)))
        action.append([a.column(m) for m in range(d)])  # action[i][m] = b_i · v_m
    return ModuleAction(g, space, action)


def _independent(vectors, n):
    """Independence by sympy's rank, which shares no code with the engine."""
    if not vectors:
        return True
    rows = [[sympy.Rational(x.numerator, x.denominator) for x in v] for v in vectors]
    return sympy.Matrix(len(rows), n, [x for r in rows for x in r]).rank() == len(vectors)


def _corrupt(algebra):
    """The structure tensor with one bracket [b_i, b_j], i < j, moved by a basis
    element of the right parity and [b_j, b_i] left alone: super-antisymmetry
    breaks, whatever else holds.  None when there is no pair i < j."""
    parities = algebra.basis.parities
    for i, j in _upper_pairs(parities):
        if i < j:
            k = next((k for k, p in enumerate(parities) if p == (parities[i] + parities[j]) % 2),
                     None)
            if k is None:
                continue
            structure = [list(row) for row in dense(algebra._sparse, algebra.dim)]
            v = list(structure[i][j])
            v[k] += 1
            structure[i][j] = tuple(v)
            return structure
    return None


def _check_trusted_derivations(ext):
    # the quotient, its action and the adjoint module pass the public validators
    assert validate_superalgebra(ext.e) is None
    assert validate_superalgebra(ext.g) is None
    assert validate_module(ext.action) is None
    assert validate_module(ext.adjoint) is None
    # the trusted quotient is the one the public constructor would build
    assert ext.g == LieSuperalgebra(ext.g.basis, dense(ext.g._sparse, ext.g.dim))
    assert ext.g._sparse == _nonzero_entries(dense(ext.g._sparse, ext.g.dim))
    # the trusted maps are even
    for f in (ext.projection, ext.inclusion, ext.section):
        assert GradedLinearMap(f.domain, f.codomain, f.matrix) == f
    # every kernel and span basis is independent, and each trusted complex
    # equals the one the public constructor builds after validating its module
    for cx in (ext.cochains_g, ext.cochains_e):
        for space in (cx.z1, cx.b1, cx.z2, cx.b2):
            assert _independent(space.basis, space.ambient_dim)
        public = CochainComplex(cx.g, cx.m)
        assert (public.z1, public.b1, public.z2, public.b2) == (cx.z1, cx.b1, cx.z2, cx.b2)
        assert public.h2.quotient == cx.h2.quotient
    space = ext.module_end_space
    assert _independent(space.basis, space.ambient_dim)


def _check_public_rejections(ext):
    bad = _corrupt(ext.e)
    if bad is not None:
        with pytest.raises(MembershipError, match="^ambient algebra fails validation: antisymmetry"):
            AbelianExtension(LieSuperalgebra(ext.e.basis, bad), ext.ideal_indices)
    bad = _corrupt(ext.g)
    if bad is not None:
        g_bad = LieSuperalgebra(ext.g.basis, bad)
        m_bad = ModuleAction(g_bad, ext.a_basis, dense(ext.action._sparse, ext.dim_a))
        with pytest.raises(MembershipError, match="^invalid module: antisymmetry"):
            CochainComplex(g_bad, m_bad)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(case=st.one_of(_rescaled_heisenberg(), _rescaled_kostant()))
def test_trusted_derivations_of_rescaled_nilpotent_extensions_pass_the_public_checks(case):
    e, ideal = case
    ext = build_extension(e, ideal)
    _check_trusted_derivations(ext)
    _check_public_rejections(ext)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(m=_nilpotent_module())
def test_trusted_semidirect_products_pass_the_public_checks(m):
    product, ext = semidirect_product(m.algebra, m)
    assert ext.e is product
    _check_trusted_derivations(ext)
    _check_public_rejections(ext)
    # the public path builds the same extension from the same product
    public = AbelianExtension(product, ext.ideal_indices)
    assert (public.g, public.action, public.beta) == (ext.g, ext.action, ext.beta)
    # a module over a corrupted algebra is refused before any product is built
    bad = _corrupt(m.algebra)
    if bad is not None:
        g_bad = LieSuperalgebra(m.algebra.basis, bad)
        with pytest.raises(MembershipError, match="^invalid module: antisymmetry"):
            semidirect_product(g_bad, ModuleAction(g_bad, m.space, dense(m._sparse, m.space.dim)))


# -- the public paths keep every check -----------------------------------------


def _broken_module():
    """Heisenberg h3 with z acting by 1 on a line and x, y by 0: [x,y]·v = v but
    x·(y·v) - y·(x·v) = 0, so the module axiom fails."""
    basis = SuperBasis([("x", 0), ("y", 0), ("z", 0)])
    g = LieSuperalgebra.from_brackets(basis, {("x", "y"): {"z": 1}})
    return ModuleAction(g, SuperBasis([("v", 0)]), [[[0]], [[0]], [[1]]])


def test_public_cochain_complex_validates_its_module():
    m = _broken_module()
    with pytest.raises(MembershipError, match="^invalid module: module-axiom at"):
        CochainComplex(m.algebra, m)


def test_public_extension_validates_its_ambient_algebra():
    # [x, y] = [y, x] = z: the Cochain2 of the cocycle would also refuse this,
    # with its own message; the validation comes first
    basis = SuperBasis([("x", 0), ("y", 0), ("z", 0)])
    z = vec([0, 0, 1])
    structure = [[vec([0, 0, 0])] * 3 for _ in range(3)]
    structure[0][1] = structure[1][0] = z
    with pytest.raises(MembershipError, match="^ambient algebra fails validation: antisymmetry"):
        AbelianExtension(LieSuperalgebra(basis, structure), [2])


def test_semidirect_product_validates_its_module():
    m = _broken_module()
    with pytest.raises(MembershipError, match="^invalid module: module-axiom at"):
        semidirect_product(m.algebra, m)


def test_public_subspace_presentation_checks_independence():
    with pytest.raises(MembershipError, match="^basis vectors are linearly dependent$"):
        SubspacePresentation(3, [vec([1, 2, 0]), vec([0, 1, 1]), vec([1, 3, 1])])


def test_public_graded_map_checks_homogeneity():
    dom = SuperBasis([("x", 0), ("y", 1)])
    with pytest.raises(ShapeError, match=r"^entry \(x, y\) breaks homogeneity of degree 0$"):
        GradedLinearMap(dom, dom, Mat([[0, 1], [0, 0]]))


def test_coordinate_builders_reject_indices_outside_the_bases():
    # a negative index would wrap around to the last basis element, and one
    # past the end would raise a bare IndexError: both are shape errors
    plane, line = SuperBasis([("x", 0), ("y", 1)]), SuperBasis([("t", 0)])
    for entries in ({(-1, 1): [1]}, {(-2, -1): [0]}, {(0, 2): [1]}, {(1, 1): [1], (1, 5): [0]}):
        with pytest.raises(ShapeError, match="out of range"):
            Cochain2.from_upper(plane, line, entries)
    assert Cochain2.from_upper(plane, line, {(1, 1): [1]}) == cochain2_from_coords(plane, line, [1])


def test_coordinate_builders_check_length_and_type():
    # one coordinate per slot, each a rational: bools and floats are refused
    dom, line = SuperBasis([("x", 0), ("y", 1)]), SuperBasis([("t", 0)])
    assert map_from_coords(dom, dom, [1, 2]) == GradedLinearMap(dom, dom, Mat([[1, 0], [0, 2]]))
    with pytest.raises(ShapeError, match="^coordinate vector does not match the position list$"):
        map_from_coords(dom, dom, [1, 2, 3])
    with pytest.raises(TypeError):
        map_from_coords(dom, dom, [True, 1])
    with pytest.raises(TypeError):
        cochain2_from_coords(dom, line, [0.5])


@st.composite
def _layout_coords(draw):
    """Super bases of dimension at most 4 and one coordinate per slot of the
    1-cochain and of the 2-cochain layout."""
    ps = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    pt = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    source = SuperBasis([(f"b{i}", p) for i, p in enumerate(ps)])
    target = SuperBasis([(f"t{k}", p) for k, p in enumerate(pt)])
    return (source, target, [draw(_ENTRY) for _ in c1_positions(source, target)],
            [draw(_ENTRY) for _ in c2_positions(source, target)])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=_layout_coords())
def test_coordinate_maps_agree_with_the_public_constructors(case):
    """`map_from_coords` and `cochain2_from_coords` give what the checked
    constructors give on the entries that the layouts assign to the
    coordinates, and give the coordinates back."""
    source, target, v1, v2 = case
    entries: dict = {}
    for (i, j, k), x in zip(c2_positions(source, target), v2):
        entries.setdefault((i, j), [0] * target.dim)[k] = x
    beta = cochain2_from_coords(source, target, v2)
    assert beta == Cochain2.from_upper(source, target, entries)
    grid = [[0] * source.dim for _ in range(target.dim)]
    for (r, c), x in zip(c1_positions(source, target), v1):
        grid[r][c] = x
    f = map_from_coords(source, target, v1)
    assert f == GradedLinearMap(source, target, Mat(grid, cols=source.dim))
    assert beta.coords == tuple(v2) and map_to_coords(f) == tuple(v1)
    assert all(x is _ZERO for x in beta.coords + sum(f.matrix.data, ()) if x == 0)


def test_library_cochains_come_from_their_upper_pairs():
    """Every 2-cochain the library builds comes from its upper-pair values
    (`from_upper`) or its coordinates (`_trusted`), the only two ways in:
    extensions and semidirect products, coboundaries, inflation, shifted
    sections, the zero cochain and all five suites succeed on them."""
    extensions = [ext for _, ext in fixtures.standard_corpus()] + [heisenberg_extension(2, odd=True)]
    modules = [fixtures.identity_action_module(), fixtures.odd_line_module()]
    extensions += [semidirect_product(m.algebra, m)[1] for m in modules]
    for ext in extensions:
        rebuilt = build_extension(ext.e, ext.ideal_indices)
        assert rebuilt.beta == ext.beta
        pos = c1_positions(ext.g.basis, ext.a_basis)
        mu = map_from_coords(ext.g.basis, ext.a_basis, [Fraction(k + 1, 2) for k in range(len(pos))])
        assert beta_with_section(ext, mu) == ext.beta + coboundary1(mu, ext.g, ext.action)
        assert inflate2(ext.beta, ext).source == ext.e.basis
        assert Cochain2.zero(ext.g.basis, ext.a_basis).is_zero()
        assert verify_five_term(ext).passed
        assert verify_ring_sequence(ext, seed=1, pairs=10).passed
        assert verify_automorphism_extension(ext, seed=2, count=3).passed
        assert verify_monoid_sequence(ext, seed=3, count=3).passed
    for m in modules:
        assert verify_semidirect_automorphisms(m.algebra, m, seed=4, count=3).passed


def test_trusted_kernels_and_spans_match_the_public_constructor():
    a = Mat([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]], cols=4)
    kernel = kernel_basis(a)
    assert kernel == SubspacePresentation(4, kernel.basis)
    assert all(x is _ZERO for v in kernel.basis for x in v if x == 0)
    span = SubspacePresentation.from_spanning(4, list(a.data) + list(kernel.basis))
    assert span == SubspacePresentation(4, span.basis) and span.dim == 4


# -- library-built 2-cochains -------------------------------------------------


def _check_derived_cochains(beta, psi, f, q):
    """β∘(ψ×ψ) and f∘β, evaluated at the upper pairs, have the coordinates and
    the tensor of the dense references evaluated at every pair.  Each cochain
    derived from beta (those two, their sums and differences with β, a
    multiple and a cup) is what `from_upper` builds from its values at the
    upper pairs, and keeps its zeros as `_ZERO`."""
    pre, post = beta.precompose(psi), beta.postcompose(f)
    for c, grid in ((pre, dense_oracle.precompose(beta, psi)), (post, dense_oracle.postcompose(beta, f))):
        assert c.coords == tuple(grid[i][j][k] for i, j, k in c2_positions(c.source, c.target))
        assert dense(c._view(), c.target.dim) == tuple(tuple(map(tuple, row)) for row in grid)
    derived = [pre, post, pre.scale(q), post.scale(q), cup(beta, f)]
    for c in (pre, post):
        derived += [beta + c, beta - c, c - beta]
    for c in derived:
        grid = dense(c._view(), c.target.dim)
        upper = {(i, j): grid[i][j] for i, j in _upper_pairs(c.source.parities)}
        assert Cochain2.from_upper(c.source, c.target, upper) == c
        assert all(x is _ZERO for x in c.coords if x == 0)


def test_derived_cochains_of_the_fixture_extensions_pass_the_public_checks(pin_corpus):
    rng = random.Random(29)
    for _, ext in pin_corpus:
        for psi in _action_endo_samples(ext, rng, 3)[:3]:
            h = _rand_combination(ext.module_end_space, rng, ext.a_basis, ext.a_basis)
            for q in (0, -1, Fraction(2, 3)):
                _check_derived_cochains(ext.beta, psi, h, q)


_ENTRY = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 3)))


@st.composite
def _cochain_with_maps(draw):
    """A 2-cochain on small super bases, an endomorphism of its source, one
    of its target and a scalar."""
    ps = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    pt = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    source = SuperBasis([(f"b{i}", p) for i, p in enumerate(ps)])
    target = SuperBasis([(f"t{k}", p) for k, p in enumerate(pt)])
    beta = cochain2_from_coords(source, target, [draw(_ENTRY) for _ in c2_positions(source, target)])
    psi = GradedLinearMap(source, source, Mat(
        [[draw(_ENTRY) if p == r else 0 for r in ps] for p in ps]))
    f = GradedLinearMap(target, target, Mat(
        [[draw(_ENTRY) if p == r else 0 for r in pt] for p in pt]))
    return beta, psi, f, draw(st.sampled_from((0, -1, 2, Fraction(1, 3))))


def _cancelling_case():
    """Entries that cancel to zero: f(1, -1) = (0, -1) and β(x, x) = 0 at
    x = ψ(b0) = ψ(b1) = b0 + b1."""
    plane = SuperBasis([("b0", 0), ("b1", 0)])
    beta = Cochain2.from_upper(plane, plane, {(0, 1): [1, -1]})
    ones = GradedLinearMap(plane, plane, Mat([[1, 1], [1, 1]]))
    return beta, ones, GradedLinearMap(plane, plane, Mat([[1, 1], [0, 1]])), 2


@settings(derandomize=True, deadline=None, max_examples=25)
@given(case=_cochain_with_maps())
@example(case=_cancelling_case())
def test_derived_cochains_pass_the_public_checks(case):
    beta, psi, f, q = case
    _check_derived_cochains(beta, psi, f, q)
    # the cup product against its defining formula, entry by entry: f is
    # even, so both of its signs are 1
    d = beta.target.dim
    values = dense(beta._view(), d)
    for i, row in enumerate(dense(cup(beta, f)._view(), d)):
        for j, v in enumerate(row):
            assert v == tuple(sum(f.matrix.data[r][c] * values[i][j][c] for c in range(d))
                              for r in range(d))


# -- outside input stays on the checked path -----------------------------------


_TRUSTED = {"_trusted", "_from_ints"}


@pytest.mark.parametrize("module", [files, cli], ids=["files", "cli"])
def test_file_loaders_and_cli_never_reach_a_trusted_constructor(module):
    """Everything read from a file or the command line goes through a public,
    checking constructor: neither module names a private trusted one."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    used = sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in _TRUSTED}
                  | {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and node.id in _TRUSTED})
    assert used == [], f"{module.__name__} uses {used}"
