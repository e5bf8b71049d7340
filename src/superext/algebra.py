"""Lie superalgebras, modules over them, and graded linear maps.

Conventions used throughout:

* every basis element is homogeneous (parity 0 or 1);
* structure constants: [b_i, b_j] = sum_k c[i][j][k] b_k;
* super-antisymmetry: [y, x] = -(-1)^{|x||y|} [x, y];
* super-Jacobi (left form): [[x,y],z] = [x,[y,z]] - (-1)^{|x||y|} [y,[x,z]].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import MembershipError, NotAnIdealError, ShapeError
from .linalg import (
    Mat,
    Vec,
    bilinear,
    is_zero_vec,
    rat,
    scale_vec,
    unit_vec,
    vec,
    zero_vec,
)


def _sign(p: int, q: int) -> Fraction:
    return Fraction(-1 if (p * q) % 2 else 1)


class SuperBasis:
    """Ordered homogeneous basis: unique names with parities in {0, 1}."""

    __slots__ = ("names", "parities")

    def __init__(self, items: Iterable[tuple[str, int]]):
        names = []
        parities = []
        for name, parity in items:
            if parity not in (0, 1):
                raise ShapeError(f"parity of {name!r} must be 0 or 1, got {parity!r}")
            names.append(str(name))
            parities.append(int(parity))
        if len(set(names)) != len(names):
            raise ShapeError("basis names are not unique")
        self.names = tuple(names)
        self.parities = tuple(parities)

    @property
    def dim(self) -> int:
        return len(self.names)

    def parity(self, i: int) -> int:
        return self.parities[i]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ShapeError(f"unknown basis element {name!r}") from None

    def items(self) -> list[tuple[str, int]]:
        return list(zip(self.names, self.parities))

    def is_all_even(self) -> bool:
        return all(p == 0 for p in self.parities)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperBasis)
            and self.names == other.names
            and self.parities == other.parities
        )

    def __hash__(self) -> int:
        return hash((self.names, self.parities))

    def __repr__(self) -> str:
        parts = [f"{n}|{p}" for n, p in zip(self.names, self.parities)]
        return f"SuperBasis({', '.join(parts)})"


@dataclass(frozen=True)
class Violation:
    """First broken axiom found by a validator, with the offending elements."""

    rule: str
    where: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} at ({', '.join(self.where)}): {self.detail}"


class LieSuperalgebra:
    """Finite-dimensional Lie superalgebra given by structure constants."""

    __slots__ = ("basis", "structure")

    def __init__(self, basis: SuperBasis, structure: Sequence[Sequence[Sequence]]):
        n = basis.dim
        if len(structure) != n or any(len(row) != n for row in structure):
            raise ShapeError("structure tensor does not match the basis size")
        self.basis = basis
        self.structure = tuple(
            tuple(vec(structure[i][j]) for j in range(n)) for i in range(n)
        )
        for i in range(n):
            for j in range(n):
                if len(self.structure[i][j]) != n:
                    raise ShapeError("structure tensor entries have the wrong length")

    @classmethod
    def abelian(cls, basis: SuperBasis) -> "LieSuperalgebra":
        n = basis.dim
        return cls(basis, [[zero_vec(n)] * n for _ in range(n)])

    @classmethod
    def from_brackets(
        cls,
        basis: SuperBasis,
        brackets: Mapping[tuple[str, str], Mapping[str, object]],
    ) -> "LieSuperalgebra":
        """Build from sparse bracket data; the missing orientation is
        synthesized by super-antisymmetry, and listing both orientations is
        an error unless they agree with it.
        """
        n = basis.dim
        given: dict[tuple[int, int], Vec] = {}
        for (left, right), value in brackets.items():
            i, j = basis.index(left), basis.index(right)
            out = list(zero_vec(n))
            for name, coeff in value.items():
                out[basis.index(name)] = rat(coeff)
            given[(i, j)] = tuple(out)
        structure = [[zero_vec(n)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                s = _sign(basis.parity(i), basis.parity(j))
                if (i, j) in given:
                    structure[i][j] = given[(i, j)]
                    if i == j and given[(i, i)] != scale_vec(-s, given[(i, i)]):
                        raise MembershipError(
                            f"bracket [{basis.names[i]},{basis.names[i]}] breaks "
                            "super-antisymmetry: an even element's self-bracket is zero"
                        )
                    if (j, i) in given and given[(j, i)] != scale_vec(-s, given[(i, j)]):
                        raise MembershipError(
                            f"brackets [{basis.names[i]},{basis.names[j]}] and "
                            f"[{basis.names[j]},{basis.names[i]}] are both listed "
                            "and disagree with super-antisymmetry"
                        )
                elif (j, i) in given:
                    structure[i][j] = scale_vec(-s, given[(j, i)])
        return cls(basis, structure)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ShapeError("vectors do not match the algebra dimension")
        return bilinear(self.structure, x, y, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieSuperalgebra)
            and self.basis == other.basis
            and self.structure == other.structure
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.structure))

    def __repr__(self) -> str:
        return f"LieSuperalgebra({self.basis!r})"


def _nonzero_entries(structure: Sequence[Sequence[Sequence]]) -> list[list[tuple]]:
    """Sparse view of a structure tensor: [i][j] lists the nonzero (k, c) of [b_i, b_j]."""
    return [[tuple((k, c) for k, c in enumerate(v) if c != 0) for v in row] for row in structure]


def _jacobi_residual(sparse: Sequence[Sequence[tuple]], parities: Sequence[int],
                     i: int, j: int, k: int) -> Vec:
    """[[x,y],z] - [x,[y,z]] + (-1)^{|x||y|}[y,[x,z]] at x, y, z = b_i, b_j, b_k.

    `sparse` is the `_nonzero_entries` view of the structure tensor, which
    satisfies super-Jacobi iff this vanishes on every basis triple.  Each term
    holds one of [b_i,b_j], [b_j,b_k], [b_i,b_k], so the residual is zero by
    construction where all three are; the enumeration passes skip those triples.
    """
    out = list(zero_vec(len(parities)))
    for l, c in sparse[i][j]:
        for m, d in sparse[l][k]:
            out[m] += c * d
    for l, c in sparse[j][k]:
        for m, d in sparse[i][l]:
            out[m] -= c * d
    s = _sign(parities[i], parities[j])
    for l, c in sparse[i][k]:
        for m, d in sparse[j][l]:
            out[m] += s * c * d
    return tuple(out)


def validate_superalgebra(g: LieSuperalgebra) -> Optional[Violation]:
    """Return the first violated axiom (parity, antisymmetry, Jacobi) or None."""
    b = g.basis
    n = b.dim
    names = b.names
    for i in range(n):
        for j in range(n):
            want = (b.parity(i) + b.parity(j)) % 2
            for k in range(n):
                if g.structure[i][j][k] != 0 and b.parity(k) != want:
                    return Violation(
                        "parity",
                        (names[i], names[j], names[k]),
                        f"[{names[i]},{names[j]}] has a component of the wrong parity on {names[k]}",
                    )
    for i in range(n):
        for j in range(i, n):
            s = _sign(b.parity(i), b.parity(j))
            lhs = g.structure[j][i]
            rhs = scale_vec(-s, g.structure[i][j])
            if lhs != rhs:
                return Violation(
                    "antisymmetry",
                    (names[j], names[i]),
                    f"[{names[j]},{names[i]}] != -(-1)^(|{names[i]}||{names[j]}|) [{names[i]},{names[j]}]",
                )
    sparse = _nonzero_entries(g.structure)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if ((sparse[i][j] or sparse[j][k] or sparse[i][k])
                        and not is_zero_vec(_jacobi_residual(sparse, b.parities, i, j, k))):
                    return Violation(
                        "jacobi",
                        (names[i], names[j], names[k]),
                        "super-Jacobi identity fails on this basis triple",
                    )
    return None


class ModuleAction:
    """Action of a Lie superalgebra on a super vector space.

    action[i][m] holds the coordinates of b_i · v_m in the space basis.
    """

    __slots__ = ("algebra", "space", "action")

    def __init__(self, algebra: LieSuperalgebra, space: SuperBasis,
                 action: Sequence[Sequence[Sequence]]):
        n, d = algebra.dim, space.dim
        if len(action) != n or any(len(row) != d for row in action):
            raise ShapeError("action tensor does not match the algebra/space sizes")
        self.algebra = algebra
        self.space = space
        self.action = tuple(tuple(vec(action[i][m]) for m in range(d)) for i in range(n))
        for i in range(n):
            for m in range(d):
                if len(self.action[i][m]) != d:
                    raise ShapeError("action tensor entries have the wrong length")

    @classmethod
    def trivial(cls, algebra: LieSuperalgebra, space: SuperBasis) -> "ModuleAction":
        z = zero_vec(space.dim)
        return cls(algebra, space, [[z] * space.dim for _ in range(algebra.dim)])

    def act_basis(self, i: int, m: int) -> Vec:
        return self.action[i][m]

    def act_left_basis(self, i: int, v: Sequence[Fraction]) -> Vec:
        """b_i · v without expanding the left factor."""
        out = list(zero_vec(self.space.dim))
        for m, vm in enumerate(v):
            if vm == 0:
                continue
            for k, s in enumerate(self.action[i][m]):
                if s != 0:
                    out[k] += vm * s
        return tuple(out)

    def act(self, x: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        if len(x) != self.algebra.dim or len(v) != self.space.dim:
            raise ShapeError("vector sizes do not match the action")
        return bilinear(self.action, x, v, self.space.dim)

    def is_trivial(self) -> bool:
        return all(is_zero_vec(self.action[i][m])
                   for i in range(self.algebra.dim) for m in range(self.space.dim))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleAction)
            and self.algebra == other.algebra
            and self.space == other.space
            and self.action == other.action
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.space, self.action))


def _sum_structure(g: LieSuperalgebra, m: ModuleAction,
                   beta: Optional[Sequence[Sequence[Sequence]]] = None) -> list[list[Vec]]:
    """Structure tensor of g ⊕ M (g first) with the bracket
    ([x,y], x·b - (-1)^{|a||y|} y·a + beta(x,y)).

    `beta` is a 2-cochain tensor, beta[i][j] = beta(b_i, b_j); None gives the
    semidirect product g ⋉ M.  Its super-Jacobi residual on the triples
    (x, y, v) is the module axiom; over all triples, the cocycle condition.
    """
    ng, na = g.dim, m.space.dim
    zg, za = zero_vec(ng), zero_vec(na)
    structure = [[zg + za] * (ng + na) for _ in range(ng + na)]
    for i in range(ng):
        for j in range(ng):
            structure[i][j] = g.structure[i][j] + (za if beta is None else tuple(beta[i][j]))
        for v in range(na):
            structure[i][ng + v] = zg + m.action[i][v]
            s = _sign(m.space.parity(v), g.basis.parity(i))
            structure[ng + v][i] = zg + scale_vec(-s, m.action[i][v])
    return structure


def validate_module(m: ModuleAction) -> Optional[Violation]:
    """Check parity compatibility and the module axiom on all basis triples.

    A violation in the underlying algebra is reported first.  The module
    axiom is checked as super-Jacobi of g ⋉ M on the triples (x, y, v).
    """
    bad = validate_superalgebra(m.algebra)
    if bad is not None:
        return bad
    ab = m.algebra.basis
    sb = m.space
    for i in range(ab.dim):
        for v in range(sb.dim):
            want = (ab.parity(i) + sb.parity(v)) % 2
            for k in range(sb.dim):
                if m.action[i][v][k] != 0 and sb.parity(k) != want:
                    return Violation(
                        "module-parity",
                        (ab.names[i], sb.names[v], sb.names[k]),
                        "action component has the wrong parity",
                    )
    sparse = _nonzero_entries(_sum_structure(m.algebra, m))
    parities = ab.parities + sb.parities
    for i in range(ab.dim):
        for j in range(ab.dim):
            for v in range(sb.dim):
                k = ab.dim + v
                if ((sparse[i][j] or sparse[j][k] or sparse[i][k])
                        and not is_zero_vec(_jacobi_residual(sparse, parities, i, j, k))):
                    return Violation(
                        "module-axiom",
                        (ab.names[i], ab.names[j], sb.names[v]),
                        "[x,y]·v != x·(y·v) - (-1)^(|x||y|) y·(x·v) on this triple",
                    )
    return None


class GradedLinearMap:
    """Homogeneous linear map between super vector spaces.

    The matrix is codomain x domain (column j = image of domain basis j).
    Degree 0 maps preserve parity, degree 1 maps flip it; entries violating
    the declared degree are rejected.
    """

    __slots__ = ("domain", "codomain", "matrix", "degree")

    def __init__(self, domain: SuperBasis, codomain: SuperBasis, matrix: Mat, degree: int = 0):
        if degree not in (0, 1):
            raise ShapeError("degree must be 0 or 1")
        if matrix.rows != codomain.dim or matrix.cols != domain.dim:
            raise ShapeError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected {codomain.dim}x{domain.dim}"
            )
        for r in range(matrix.rows):
            for c in range(matrix.cols):
                if matrix.entry(r, c) != 0 and codomain.parity(r) != (domain.parity(c) + degree) % 2:
                    raise ShapeError(
                        f"entry ({codomain.names[r]}, {domain.names[c]}) breaks homogeneity "
                        f"of degree {degree}"
                    )
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.degree = degree

    @classmethod
    def identity(cls, basis: SuperBasis) -> "GradedLinearMap":
        return cls(basis, basis, Mat.identity(basis.dim))

    @classmethod
    def zero(cls, domain: SuperBasis, codomain: SuperBasis, degree: int = 0) -> "GradedLinearMap":
        return cls(domain, codomain, Mat.zeros(codomain.dim, domain.dim), degree)

    @classmethod
    def from_images(cls, domain: SuperBasis, codomain: SuperBasis,
                    images: Sequence[Sequence[Fraction]], degree: int = 0) -> "GradedLinearMap":
        if len(images) != domain.dim:
            raise ShapeError("need one image per domain basis element")
        return cls(domain, codomain, Mat.from_columns([vec(v) for v in images], rows=codomain.dim), degree)

    def apply(self, v: Sequence[Fraction]) -> Vec:
        return self.matrix.apply(v)

    def image_of_basis(self, j: int) -> Vec:
        return self.matrix.column(j)

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self ∘ other."""
        if other.codomain != self.domain:
            raise ShapeError("composition domains do not match")
        return GradedLinearMap(
            other.domain, self.codomain, self.matrix @ other.matrix,
            (self.degree + other.degree) % 2,
        )

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        self._compatible(other)
        return GradedLinearMap(self.domain, self.codomain, self.matrix + other.matrix, self.degree)

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        self._compatible(other)
        return GradedLinearMap(self.domain, self.codomain, self.matrix - other.matrix, self.degree)

    def scale(self, c) -> "GradedLinearMap":
        return GradedLinearMap(self.domain, self.codomain, self.matrix.scale(c), self.degree)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def _compatible(self, other: "GradedLinearMap") -> None:
        if (self.domain != other.domain or self.codomain != other.codomain
                or self.degree != other.degree):
            raise ShapeError("maps are not of the same shape and degree")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedLinearMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.degree == other.degree
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.degree, self.matrix))

    def __repr__(self) -> str:
        return f"GradedLinearMap({self.matrix!r}, degree={self.degree})"


def is_homomorphism(phi: GradedLinearMap, g: LieSuperalgebra, h: LieSuperalgebra) -> bool:
    """Even and bracket-preserving on all basis pairs.

    Only pairs i < j and the odd diagonal are tested: the remaining pairs
    follow from super-antisymmetry, which both algebras are assumed to
    satisfy (extensions validate their ambient algebra on construction).
    """
    if phi.domain != g.basis or phi.codomain != h.basis:
        raise ShapeError("map bases do not match the given algebras")
    if phi.degree != 0:
        return False
    n = g.dim
    for i in range(n):
        for j in range(i, n):
            if i == j and g.basis.parity(i) == 0:
                continue
            lhs = phi.apply(g.structure[i][j])
            rhs = h.bracket(phi.image_of_basis(i), phi.image_of_basis(j))
            if lhs != rhs:
                return False
    return True


def semidirect_product(g: LieSuperalgebra, m: ModuleAction):
    """Split extension g ⋉ a: bracket ([x,y], x·b - (-1)^{|a||y|} y·a).

    Returns the product algebra on the concatenated basis (g first) together
    with its extension record; the extracted 2-cocycle is identically zero.
    """
    from .extension import build_extension

    if m.algebra != g:
        raise ShapeError("module is not over the given algebra")
    bad = validate_module(m)
    if bad is not None:
        raise MembershipError(f"invalid module: {bad}")
    if set(g.basis.names) & set(m.space.names):
        raise ShapeError("algebra and module basis names collide")
    ng = g.dim
    basis = SuperBasis(g.basis.items() + m.space.items())
    product = LieSuperalgebra(basis, _sum_structure(g, m))
    ext = build_extension(product, range(ng, product.dim))  # validates the product
    if not all(is_zero_vec(ext.beta.value(i, j)) for i in range(ng) for j in range(ng)):
        raise MembershipError("split extension produced a nonzero cocycle")
    return product, ext


def quotient_by_ideal(e: LieSuperalgebra, ideal_indices: Iterable[int]):
    """Quotient by the span of the indexed basis elements, plus the projection.

    The complement basis elements, in input order, represent the quotient
    basis; the projection kills the ideal coordinates.
    """
    ideal = sorted(set(int(i) for i in ideal_indices))
    n = e.dim
    for i in ideal:
        if not 0 <= i < n:
            raise ShapeError(f"ideal index {i} out of range")
    ideal_set = set(ideal)
    for u in range(n):
        for j in ideal:
            for vecs in (e.structure[u][j], e.structure[j][u]):
                for k, c in enumerate(vecs):
                    if c != 0 and k not in ideal_set:
                        raise NotAnIdealError(
                            f"bracket [{e.basis.names[u]},{e.basis.names[j]}] leaves the span"
                        )
    complement = [i for i in range(n) if i not in ideal_set]
    qbasis = SuperBasis([(e.basis.names[i], e.basis.parity(i)) for i in complement])
    nq = len(complement)
    structure = [
        [tuple(e.structure[complement[p]][complement[q]][k] for k in complement) for q in range(nq)]
        for p in range(nq)
    ]
    quotient = LieSuperalgebra(qbasis, structure)
    proj_cols = []
    for i in range(n):
        if i in ideal_set:
            proj_cols.append(zero_vec(nq))
        else:
            proj_cols.append(unit_vec(nq, complement.index(i)))
    projection = GradedLinearMap(e.basis, qbasis, Mat.from_columns(proj_cols, rows=nq))
    return quotient, projection
