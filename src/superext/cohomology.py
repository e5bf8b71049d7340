"""Even cochains, coboundaries and low-degree cohomology of a module.

Degree conventions:

* 1-cochains are homogeneous linear maps g -> M (degree 0 unless stated);
* the coboundary of a 1-cochain is
      (d f)(x, y) = x·f(y) - (-1)^{|x||y|} y·f(x) - f([x,y]),
  so derivations are exactly the 1-cocycles;
* 2-cocycles are characterized operationally: beta is a cocycle iff the
  bracket ([x,y], x·b - (-1)^{|a||y|} y·a + beta(x,y)) on g ⊕ M satisfies
  the super-Jacobi identity.  This sidesteps any explicit degree-2
  differential and is immune to sign-convention drift.  The bracket is
  `algebra._sum_structure`, the same one that validates modules and builds
  semidirect products, so the conditions vanish at beta = 0 and are linear
  in beta: `CochainComplex` runs `validate_module` on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    _jacobi_residual,
    _nonzero_entries,
    _sign,
    _sum_structure,
    validate_module,
)
from .errors import MembershipError, ShapeError
from .linalg import (
    Mat,
    QuotientPresentation,
    SubspacePresentation,
    Vec,
    add_vec,
    bilinear,
    is_zero_vec,
    kernel_basis,
    quotient_presentation,
    scale_vec,
    sub_vec,
    unit_vec,
    vec,
    zero_vec,
)


def c1_positions(domain: SuperBasis, codomain: SuperBasis, degree: int = 0) -> list[tuple[int, int]]:
    """Free coordinate slots (row, col) of a homogeneous map matrix."""
    return [
        (n, i)
        for i in range(domain.dim)
        for n in range(codomain.dim)
        if codomain.parity(n) == (domain.parity(i) + degree) % 2
    ]


def map_to_coords(f: GradedLinearMap, positions: list[tuple[int, int]]) -> Vec:
    return tuple(f.matrix.entry(r, c) for r, c in positions)


def map_from_coords(
    domain: SuperBasis,
    codomain: SuperBasis,
    positions: list[tuple[int, int]],
    coords: Sequence[Fraction],
    degree: int = 0,
) -> GradedLinearMap:
    if len(coords) != len(positions):
        raise ShapeError("coordinate vector does not match the position list")
    rows = [[Fraction(0)] * domain.dim for _ in range(codomain.dim)]
    for (r, c), x in zip(positions, coords):
        rows[r][c] = x
    return GradedLinearMap(domain, codomain, Mat(rows, cols=domain.dim), degree)


class Cochain2:
    """Super-antisymmetric bilinear map g x g -> a of homogeneous degree.

    tensor[i][j] holds the coordinates of beta(b_i, b_j); the constructor
    enforces beta(y,x) = -(-1)^{|x||y|} beta(x,y) and homogeneity.
    """

    __slots__ = ("source", "target", "tensor", "degree")

    def __init__(self, source: SuperBasis, target: SuperBasis,
                 tensor: Sequence[Sequence[Sequence]], degree: int = 0):
        n, d = source.dim, target.dim
        if degree not in (0, 1):
            raise ShapeError("degree must be 0 or 1")
        if len(tensor) != n or any(len(row) != n for row in tensor):
            raise ShapeError("tensor does not match the source basis size")
        grid = tuple(tuple(vec(tensor[i][j]) for j in range(n)) for i in range(n))
        for i in range(n):
            for j in range(n):
                if len(grid[i][j]) != d:
                    raise ShapeError("tensor entries have the wrong length")
        for i in range(n):
            for j in range(i, n):
                s = _sign(source.parity(i), source.parity(j))
                if grid[j][i] != scale_vec(-s, grid[i][j]):
                    raise MembershipError(
                        f"tensor breaks super-antisymmetry at "
                        f"({source.names[j]}, {source.names[i]})"
                    )
        for i in range(n):
            for j in range(n):
                want = (source.parity(i) + source.parity(j) + degree) % 2
                for k in range(d):
                    if grid[i][j][k] != 0 and target.parity(k) != want:
                        raise MembershipError(
                            f"tensor entry ({source.names[i]}, {source.names[j]}, "
                            f"{target.names[k]}) breaks homogeneity of degree {degree}"
                        )
        self.source = source
        self.target = target
        self.tensor = grid
        self.degree = degree

    @classmethod
    def zero(cls, source: SuperBasis, target: SuperBasis, degree: int = 0) -> "Cochain2":
        z = zero_vec(target.dim)
        return cls(source, target, [[z] * source.dim for _ in range(source.dim)], degree)

    @classmethod
    def from_upper(cls, source: SuperBasis, target: SuperBasis,
                   entries: dict[tuple[int, int], Sequence[Fraction]], degree: int = 0) -> "Cochain2":
        """Build from entries on pairs i <= j; the rest follows by antisymmetry."""
        n = source.dim
        grid = [[zero_vec(target.dim) for _ in range(n)] for _ in range(n)]
        for (i, j), value in entries.items():
            if i > j:
                raise ShapeError("from_upper expects pairs with i <= j")
            v = vec(value)
            grid[i][j] = v
            s = _sign(source.parity(i), source.parity(j))
            if i != j:
                grid[j][i] = scale_vec(-s, v)
        return cls(source, target, grid, degree)

    def value(self, i: int, j: int) -> Vec:
        return self.tensor[i][j]

    def eval(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        if len(x) != self.source.dim or len(y) != self.source.dim:
            raise ShapeError("vectors do not match the source dimension")
        return bilinear(self.tensor, x, y, self.target.dim)

    def __add__(self, other: "Cochain2") -> "Cochain2":
        self._compatible(other)
        n = self.source.dim
        return Cochain2(
            self.source, self.target,
            [[add_vec(self.tensor[i][j], other.tensor[i][j]) for j in range(n)] for i in range(n)],
            self.degree,
        )

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        return self + other.scale(-1)

    def scale(self, c) -> "Cochain2":
        n = self.source.dim
        cc = Fraction(c)
        return Cochain2(
            self.source, self.target,
            [[scale_vec(cc, self.tensor[i][j]) for j in range(n)] for i in range(n)],
            self.degree,
        )

    def precompose(self, psi: GradedLinearMap) -> "Cochain2":
        """beta ∘ (psi x psi) for an even endomorphism psi of the source."""
        if psi.domain != self.source or psi.codomain != self.source or psi.degree != 0:
            raise ShapeError("precompose needs an even endomorphism of the source")
        n = self.source.dim
        return Cochain2(
            self.source, self.target,
            [[self.eval(psi.image_of_basis(i), psi.image_of_basis(j)) for j in range(n)]
             for i in range(n)],
            self.degree,
        )

    def postcompose(self, f: GradedLinearMap) -> "Cochain2":
        """f ∘ beta pointwise, for a homogeneous map f on the target."""
        if f.domain != self.target:
            raise ShapeError("postcompose needs a map defined on the target")
        n = self.source.dim
        return Cochain2(
            self.source, f.codomain,
            [[f.apply(self.tensor[i][j]) for j in range(n)] for i in range(n)],
            (self.degree + f.degree) % 2,
        )

    def is_zero(self) -> bool:
        return all(is_zero_vec(v) for row in self.tensor for v in row)

    def _compatible(self, other: "Cochain2") -> None:
        if (self.source != other.source or self.target != other.target
                or self.degree != other.degree):
            raise ShapeError("cochains are not of the same shape and degree")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain2)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.tensor == other.tensor
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.degree, self.tensor))

    def __repr__(self) -> str:
        return f"Cochain2({self.source!r} -> {self.target!r}, degree={self.degree})"


def c2_positions(source: SuperBasis, target: SuperBasis, degree: int = 0) -> list[tuple[int, int, int]]:
    """Free coordinate slots (i, j, k) of a homogeneous 2-cochain.

    Pairs with i < j, plus the diagonal for odd i (where antisymmetry
    imposes nothing); k runs over target slots of the right parity.
    """
    out = []
    for i in range(source.dim):
        for j in range(i, source.dim):
            if i == j and source.parity(i) == 0:
                continue
            want = (source.parity(i) + source.parity(j) + degree) % 2
            for k in range(target.dim):
                if target.parity(k) == want:
                    out.append((i, j, k))
    return out


def cochain2_to_coords(c: Cochain2, positions: list[tuple[int, int, int]]) -> Vec:
    return tuple(c.tensor[i][j][k] for i, j, k in positions)


def cochain2_from_coords(source: SuperBasis, target: SuperBasis,
                         positions: list[tuple[int, int, int]],
                         coords: Sequence[Fraction], degree: int = 0) -> Cochain2:
    if len(coords) != len(positions):
        raise ShapeError("coordinate vector does not match the position list")
    entries: dict[tuple[int, int], list[Fraction]] = {}
    for (i, j, k), x in zip(positions, coords):
        entries.setdefault((i, j), [Fraction(0)] * target.dim)[k] = x
    return Cochain2.from_upper(source, target, entries, degree)


def coboundary1(lam: GradedLinearMap, g: LieSuperalgebra, m: ModuleAction) -> Cochain2:
    """(d lam)(x,y) = x·lam(y) - (-1)^{|x||y|} y·lam(x) - lam([x,y]).

    Entries are computed on pairs i <= j only; the rest follows by the
    super-antisymmetry of the result (the even diagonal vanishes exactly).
    """
    if m.algebra != g:
        raise ShapeError("module is not over the given algebra")
    if lam.domain != g.basis or lam.codomain != m.space:
        raise ShapeError("cochain bases do not match the algebra and module")
    if lam.degree != 0:
        raise MembershipError("coboundary is defined here for even 1-cochains only")
    n = g.dim
    entries: dict[tuple[int, int], Vec] = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and g.basis.parity(i) == 0:
                continue
            s = _sign(g.basis.parity(i), g.basis.parity(j))
            term = sub_vec(
                m.act_left_basis(i, lam.image_of_basis(j)),
                scale_vec(s, m.act_left_basis(j, lam.image_of_basis(i))),
            )
            entries[(i, j)] = sub_vec(term, lam.apply(g.structure[i][j]))
    return Cochain2.from_upper(g.basis, m.space, entries)


class _LinearForm:
    """A sparse linear form {2-cochain coordinate: coefficient}.

    Stands in for a Fraction in the beta slots of `_sum_structure` when beta
    is held symbolically: it supports the sums, differences, scalar multiples
    and comparisons with zero that the bracket applies to module parts.
    Beta only fills g×g slots, so no product of two forms arises.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction]):
        self.terms = terms

    def __add__(self, other):
        if not isinstance(other, _LinearForm):
            if other != 0:
                raise TypeError("a linear form has no constant part")
            return self
        terms = dict(self.terms)
        for p, c in other.terms.items():
            total = terms.get(p, 0) + c
            if total:
                terms[p] = total
            else:
                del terms[p]
        return _LinearForm(terms)

    __radd__ = __add__

    def __neg__(self) -> "_LinearForm":
        return _LinearForm({p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, c):
        if isinstance(c, _LinearForm):
            raise TypeError("the product of two linear forms is not linear")
        if c == 0:
            return _LinearForm({})
        return _LinearForm({p: c * x for p, x in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, _LinearForm):
            return self.terms == other.terms
        return other == 0 and not self.terms

    def dense(self, n: int) -> Vec:
        out = list(zero_vec(n))
        for p, c in self.terms.items():
            out[p] = c
        return tuple(out)


def _twisted_jacobi_residuals(g: LieSuperalgebra, m: ModuleAction, beta: Cochain2) -> list[Fraction]:
    """Flattened super-Jacobi residuals of the beta-twisted sum over all triples."""
    sparse = _nonzero_entries(_sum_structure(g, m, beta.tensor))
    parities = g.basis.parities + m.space.parities
    n = len(parities)
    out: list[Fraction] = []
    for s in range(n):
        for t in range(n):
            for u in range(n):
                out.extend(_jacobi_residual(sparse, parities, s, t, u))
    return out


def _cocycle2_constraints(g: LieSuperalgebra, m: ModuleAction,
                          pos2: list[tuple[int, int, int]]) -> Mat:
    """The linear part of beta -> twisted-Jacobi residual, in 2-cochain coordinates.

    One pass of the super-Jacobi residual of g ⊕ M over the g×g×g triples,
    with each entry of beta held as a linear form in the coordinates `pos2`;
    the signs come from the bracket itself.  Triples with a module slot do
    not involve beta (it only enters the bracket of two g-parts), so they add
    no rows.  Zero rows and repeated rows are dropped: they do not change
    the row space.
    """
    ng, na = g.dim, m.space.dim
    grid = [[list(zero_vec(na)) for _ in range(ng)] for _ in range(ng)]
    for p, (i, j, k) in enumerate(pos2):
        grid[i][j][k] = _LinearForm({p: Fraction(1)})
        if i != j:
            grid[j][i][k] = _LinearForm({p: -_sign(g.basis.parity(i), g.basis.parity(j))})
    sparse = _nonzero_entries(_sum_structure(g, m, grid))
    parities = g.basis.parities + m.space.parities
    n2 = len(pos2)
    rows: dict[Vec, None] = {}
    for s in range(ng):
        for t in range(ng):
            for u in range(ng):
                if not (sparse[s][t] or sparse[t][u] or sparse[s][u]):
                    continue
                for r in _jacobi_residual(sparse, parities, s, t, u)[ng:]:
                    if r != 0:
                        rows.setdefault(r.dense(n2))
    return Mat(list(rows), cols=n2)


def is_cocycle2(beta: Cochain2, g: LieSuperalgebra, m: ModuleAction) -> bool:
    """Whether the beta-twisted bracket on g ⊕ M satisfies super-Jacobi."""
    if beta.source != g.basis or beta.target != m.space or beta.degree != 0:
        raise ShapeError("cochain bases do not match the algebra and module")
    return all(r == 0 for r in _twisted_jacobi_residuals(g, m, beta))


def is_cocycle1(f: GradedLinearMap, g: LieSuperalgebra, m: ModuleAction) -> bool:
    """Whether f is an even derivation g -> M."""
    if f.domain != g.basis or f.codomain != m.space:
        raise ShapeError("map bases do not match the algebra and module")
    if f.degree != 0:
        return False
    return coboundary1(f, g, m).is_zero()


class CochainComplex:
    """The even cochains of g with values in m, in degrees 1 and 2.

    Owns the coordinate formats of both degrees and builds each operator of
    the low-degree theory once, on first use: d¹ as a matrix, the cocycle
    and coboundary spaces, and the H¹ and H² presentations.  The module is
    validated once, on construction.
    """

    def __init__(self, g: LieSuperalgebra, m: ModuleAction):
        bad = validate_module(m)
        if bad is not None:
            raise MembershipError(f"invalid module: {bad}")
        self.g = g
        self.m = m
        self.pos1 = c1_positions(g.basis, m.space)
        self.pos2 = c2_positions(g.basis, m.space)

    def cochain1(self, coords: Sequence[Fraction]) -> GradedLinearMap:
        return map_from_coords(self.g.basis, self.m.space, self.pos1, coords)

    def coords1(self, f: GradedLinearMap) -> Vec:
        return map_to_coords(f, self.pos1)

    def cochain2(self, coords: Sequence[Fraction]) -> Cochain2:
        return cochain2_from_coords(self.g.basis, self.m.space, self.pos2, coords)

    def coords2(self, beta: Cochain2) -> Vec:
        return cochain2_to_coords(beta, self.pos2)

    @cached_property
    def d1(self) -> Mat:
        """Matrix of d¹: column p holds the coboundary of the p-th unit 1-cochain."""
        n1 = len(self.pos1)
        columns = [self.coords2(coboundary1(self.cochain1(unit_vec(n1, p)), self.g, self.m))
                   for p in range(n1)]
        return Mat.from_columns(columns, rows=len(self.pos2))

    def is_cocycle1(self, f: GradedLinearMap) -> bool:
        """Whether f is an even derivation: a product with the cached d¹."""
        if f.domain != self.g.basis or f.codomain != self.m.space:
            raise ShapeError("map bases do not match the algebra and module")
        if f.degree != 0:
            return False
        return is_zero_vec(self.d1.apply(self.coords1(f)))

    @cached_property
    def z1(self) -> SubspacePresentation:
        """The even derivations g -> M, in 1-cochain coordinates."""
        return kernel_basis(self.d1)

    @cached_property
    def b1(self) -> SubspacePresentation:
        """Span of the inner derivations x -> x·v over even module elements v."""
        spanning = []
        for v in range(self.m.space.dim):
            if self.m.space.parity(v) != 0:
                continue
            images = [self.m.act_basis(i, v) for i in range(self.g.dim)]
            f = GradedLinearMap.from_images(self.g.basis, self.m.space, images)
            spanning.append(self.coords1(f))
        return SubspacePresentation.from_spanning(len(self.pos1), spanning)

    @cached_property
    def cocycle2_constraints(self) -> Mat:
        """Rows of the linear 2-cocycle conditions, in 2-cochain coordinates.

        The twisted-Jacobi residual is affine in beta and vanishes at beta = 0
        for a valid module, so beta is a cocycle iff every row annihilates
        its coordinates.
        """
        return _cocycle2_constraints(self.g, self.m, self.pos2)

    def is_cocycle2(self, beta: Cochain2) -> bool:
        """Whether beta is an even 2-cocycle: a product with the cached constraints."""
        if beta.source != self.g.basis or beta.target != self.m.space or beta.degree != 0:
            raise ShapeError("cochain bases do not match the algebra and module")
        return is_zero_vec(self.cocycle2_constraints.apply(self.coords2(beta)))

    @cached_property
    def z2(self) -> SubspacePresentation:
        """The even 2-cocycles, in 2-cochain coordinates: the kernel of the
        linear part of the super-Jacobi equations of the twisted sum.  Their
        constant part, the Jacobi identity of g and the module axiom, was
        checked with the same residual by `validate_module` on construction.
        """
        return kernel_basis(self.cocycle2_constraints)

    @cached_property
    def b2(self) -> SubspacePresentation:
        """Span of the coboundaries of the even 1-cochains: the image of d¹."""
        return SubspacePresentation.from_spanning(
            len(self.pos2), [self.d1.column(p) for p in range(self.d1.cols)])

    @cached_property
    def h1(self) -> CohomologyPresentation:
        """Even first cohomology: derivations modulo inner derivations."""
        return CohomologyPresentation(self.g.basis, self.m.space, 1,
                                      quotient_presentation(self.z1, self.b1))

    @cached_property
    def h2(self) -> CohomologyPresentation:
        """Even second cohomology in 2-cochain coordinates."""
        return CohomologyPresentation(self.g.basis, self.m.space, 2,
                                      quotient_presentation(self.z2, self.b2))


def cocycle2_space(g: LieSuperalgebra, m: ModuleAction) -> SubspacePresentation:
    """Basis of the even 2-cocycles, in canonical 2-cochain coordinates."""
    return CochainComplex(g, m).z2


def coboundary2_space(g: LieSuperalgebra, m: ModuleAction) -> SubspacePresentation:
    """Span of the coboundaries of the even 1-cochains."""
    return CochainComplex(g, m).b2


def derivation_space(g: LieSuperalgebra, m: ModuleAction) -> SubspacePresentation:
    """Basis of the even derivations g -> M, in 1-cochain coordinates."""
    return CochainComplex(g, m).z1


def inner_space(g: LieSuperalgebra, m: ModuleAction) -> SubspacePresentation:
    """Span of the inner derivations x -> x·v over even module elements v."""
    return CochainComplex(g, m).b1


@dataclass(frozen=True)
class CohomologyPresentation:
    """Cocycles, coboundaries and a chosen complement basis for one degree."""

    source: SuperBasis
    target: SuperBasis
    degree: int
    quotient: QuotientPresentation

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def cocycle_dim(self) -> int:
        return self.quotient.ambient.dim

    @property
    def coboundary_dim(self) -> int:
        return self.quotient.sub.dim


@dataclass(frozen=True)
class CohomologyClass:
    """A class given by coordinates in the complement basis of a presentation."""

    presentation: CohomologyPresentation
    coords: Vec

    @property
    def is_zero(self) -> bool:
        return is_zero_vec(self.coords)


def h1(g: LieSuperalgebra, m: ModuleAction) -> CohomologyPresentation:
    """Even first cohomology: derivations modulo inner derivations."""
    return CochainComplex(g, m).h1


def h2(g: LieSuperalgebra, m: ModuleAction) -> CohomologyPresentation:
    """Even second cohomology in canonical 2-cochain coordinates."""
    return CochainComplex(g, m).h2


def class_of(beta: Cochain2, pres: CohomologyPresentation) -> CohomologyClass:
    """Class of a 2-cocycle in the presentation's complement coordinates."""
    if pres.degree != 2:
        raise ShapeError("presentation is not in degree 2")
    if beta.source != pres.source or beta.target != pres.target or beta.degree != 0:
        raise ShapeError("cochain does not match the presentation")
    positions = c2_positions(pres.source, pres.target)
    try:
        coords = pres.quotient.coordinates_of(cochain2_to_coords(beta, positions))
    except MembershipError:
        raise MembershipError("the 2-cochain is not a cocycle") from None
    return CohomologyClass(pres, coords)


def cup(h: Cochain2, f: GradedLinearMap) -> Cochain2:
    """Cup product of a 2-cochain with an endomorphism-valued 0-cochain:

        (h ∪ f)(x, y) = (-1)^{|f|(|x|+|y|)} (-1)^{|f||h(x,y)|} f(h(x,y)).

    For even h the two signs cancel and the result is f ∘ h pointwise.
    """
    if f.domain != h.target or f.codomain != h.target:
        raise ShapeError("cup needs an endomorphism of the cochain's target")
    n = h.source.dim
    tensor = []
    for i in range(n):
        row = []
        for j in range(n):
            pxy = (h.source.parity(i) + h.source.parity(j)) % 2
            ph = (pxy + h.degree) % 2
            sign = Fraction(-1 if (f.degree * pxy + f.degree * ph) % 2 else 1)
            row.append(scale_vec(sign, f.apply(h.tensor[i][j])))
        tensor.append(row)
    return Cochain2(h.source, h.target, tensor, (h.degree + f.degree) % 2)
