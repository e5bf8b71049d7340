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
    Row,
    Vec,
    _scaled,
    _spread,
    bilinear,
    rat,
    vec,
)

# the terms of a tensor T: [i][j] lists the (k, c) with T[i][j][k] = c != 0,
# in increasing k, so two tensors are equal iff their terms are
Terms = tuple[tuple[Row, ...], ...]


def _sign(p: int, q: int) -> Fraction:
    return Fraction(-1 if (p * q) % 2 else 1)


def _swapped(terms: tuple, p: int, q: int) -> tuple:
    """The terms of [y, x] = -(-1)^{pq} [x, y] from those of [x, y], for x, y
    of parities p and q."""
    return terms if p & q else tuple((k, -c) for k, c in terms)


def _int_terms(*tensors: Terms) -> tuple:
    """(S_1, ..., S_n, E): the terms of each tensor with every value c written
    as the integer c·E, over the least common denominator E of all of them."""
    flat, den = _scaled(x for t in tensors for row in t for v in row for _, x in v)
    nums = iter(flat)
    return (*[[[[(k, next(nums)) for k, _ in v] if v else v for v in row] for row in t]
              for t in tensors], den)


def _nonzero_entries(tensor: Sequence[Sequence[Sequence]]) -> Terms:
    """The terms of a dense tensor: [i][j] lists the nonzero (k, c) of tensor[i][j]."""
    return tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c != 0) for v in row)
                 for row in tensor)


class SuperBasis:
    """Ordered homogeneous basis: unique names with parities in {0, 1}."""

    __slots__ = ("names", "parities")

    def __init__(self, items: Iterable[tuple[str, int]]):
        names, parities = [], []
        for name, parity in items:
            if isinstance(parity, (bool, float)) or parity not in (0, 1):
                raise ShapeError(f"parity of {name!r} must be 0 or 1, got {parity!r}")
            names.append(str(name))
            parities.append(int(parity))
        if len(set(names)) != len(names):
            raise ShapeError("basis names are not unique")
        self.names, self.parities = tuple(names), tuple(parities)

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
        return other is self or (isinstance(other, SuperBasis) and self.names == other.names
                                 and self.parities == other.parities)

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
    """Finite-dimensional Lie superalgebra given by structure constants: the
    constructor takes their dense tensor (structure[i][j] holds [b_i, b_j])
    and keeps only its `Terms`, read through `bracket`."""

    __slots__ = ("basis", "_sparse", "_int_sparse")

    def __init__(self, basis: SuperBasis, structure: Sequence[Sequence[Sequence]]):
        n = basis.dim
        if len(structure) != n or any(len(row) != n for row in structure):
            raise ShapeError("structure tensor does not match the basis size")
        grid = [[vec(v) for v in row] for row in structure]
        if any(len(v) != n for row in grid for v in row):
            raise ShapeError("structure tensor entries have the wrong length")
        self.basis, self._sparse, self._int_sparse = basis, _nonzero_entries(grid), None

    @classmethod
    def _trusted(cls, basis: SuperBasis, sparse: Terms) -> "LieSuperalgebra":
        """An algebra on the terms of a tensor of the right shape, as
        `from_brackets`, `quotient_by_ideal` and `semidirect_product` build them."""
        g = object.__new__(cls)
        g.basis, g._sparse, g._int_sparse = basis, sparse, None
        return g

    @classmethod
    def abelian(cls, basis: SuperBasis) -> "LieSuperalgebra":
        return cls._trusted(basis, (((),) * basis.dim,) * basis.dim)

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
        given: dict[tuple[int, int], tuple] = {}
        for (left, right), value in brackets.items():
            i, j = basis.index(left), basis.index(right)
            given[(i, j)] = tuple(sorted((k, c) for k, c in (
                (basis.index(name), rat(coeff)) for name, coeff in value.items()) if c))
        structure = dict(given)
        for (i, j), terms in sorted(given.items()):
            p, q = basis.parity(i), basis.parity(j)
            x, y = basis.names[i], basis.names[j]
            if i == j and terms and not p:
                raise MembershipError(f"bracket [{x},{x}] breaks super-antisymmetry: "
                                      "an even element's self-bracket is zero")
            if (j, i) in given and given[(j, i)] != _swapped(terms, p, q):
                raise MembershipError(f"brackets [{x},{y}] and [{y},{x}] are both listed "
                                      "and disagree with super-antisymmetry")
            structure.setdefault((j, i), _swapped(terms, p, q))
        return cls._trusted(basis, tuple(tuple(structure.get((i, j), ()) for j in range(n))
                                         for i in range(n)))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def _int_view(self) -> tuple[list[list[tuple]], int]:
        """(S, E): `_int_terms` of the structure tensor.  Built on the first
        call, so algebras that never meet `is_homomorphism` do not pay for it."""
        if self._int_sparse is None:
            self._int_sparse = _int_terms(self._sparse)
        return self._int_sparse

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ShapeError("vectors do not match the algebra dimension")
        return bilinear(self._sparse, x, y, n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieSuperalgebra) and self.basis == other.basis
                and self._sparse == other._sparse)

    def __hash__(self) -> int:
        return hash((self.basis, self._sparse))

    def __repr__(self) -> str:
        return f"LieSuperalgebra({self.basis!r})"


def _jacobi_residual(sparse: Terms, parities: Sequence[int], i: int, j: int, k: int) -> tuple:
    """The terms of [[x,y],z] - [x,[y,z]] + (-1)^{|x||y|}[y,[x,z]] at x, y, z = b_i, b_j, b_k.

    `sparse` holds the terms of a structure tensor, which satisfies
    super-Jacobi iff no residual has a term left on any basis triple.  Each
    summand holds one of [b_i,b_j], [b_j,b_k], [b_i,b_k], so the residual is
    zero by construction where all three are; `_jacobi_residuals` skips those
    triples.
    """
    out: dict[int, Fraction] = {}
    for l, c in sparse[i][j]:
        for m, d in sparse[l][k]:
            out[m] = out.get(m, 0) + c * d
    for l, c in sparse[j][k]:
        for m, d in sparse[i][l]:
            out[m] = out.get(m, 0) - c * d
    odd = parities[i] & parities[j]
    for l, c in sparse[i][k]:
        for m, d in sparse[j][l]:
            out[m] = out.get(m, 0) + (-c * d if odd else c * d)
    return tuple(sorted((m, v) for m, v in out.items() if v))


def _jacobi_residuals(sparse: Terms, parities: Sequence[int],
                      xs: Sequence[int], ys: Sequence[int], zs: Sequence[int]):
    """Yield (i, j, k, `_jacobi_residual`) over i in xs, j in ys, k in zs with
    i <= j <= k, in lexicographic order, except where [b_i,b_j], [b_j,b_k] and
    [b_i,b_k] all vanish: the residual is zero there.  For a super-antisymmetric
    tensor the residual is super-alternating (± the sorted triple's at any
    order), so these triples decide Jacobi, hold the first violation and span
    the residuals of all triples; odd repeats stay, as they need not vanish."""
    for i in xs:
        si = sparse[i]
        for j in ys:
            sij, sj = si[j], sparse[j]
            for k in zs:
                if i <= j <= k and (sij or sj[k] or si[k]):
                    yield i, j, k, _jacobi_residual(sparse, parities, i, j, k)


def _wrong_parity(sparse: Terms, left: Sequence[int], right: Sequence[int],
                  out: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The first (i, j, k), in lexicographic order, with a term (k, c) in
    sparse[i][j] although out[k] != left[i] + right[j] (mod 2); None if there is none."""
    return next(((i, j, k) for i, row in enumerate(sparse) for j, terms in enumerate(row)
                 for k, _ in terms if out[k] != (left[i] + right[j]) % 2), None)


def _broken_antisymmetry(sparse: Terms, parities: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first pair i <= j with T[j][i] != -(-1)^{|i||j|} T[i][j], for the
    tensor T with these terms; None if there is none.  On the diagonal this
    says that an even element's self-bracket vanishes."""
    n = len(parities)
    for i in range(n):
        for j in range(i, n):
            a, b = sparse[i][j], sparse[j][i]
            if (a or b) and b != _swapped(a, parities[i], parities[j]):
                return i, j
    return None


def _upper_pairs(parities: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (i, j) with i < j, or i = j odd, in lexicographic order: they
    determine a super-antisymmetric bracket or 2-cochain (the rest follow by
    antisymmetry, and an even element's self-bracket is zero)."""
    n = len(parities)
    return [(i, j) for i in range(n) for j in range(i, n) if i < j or parities[i]]


def validate_superalgebra(g: LieSuperalgebra) -> Optional[Violation]:
    """Return the first violated axiom (parity, antisymmetry, Jacobi) or None."""
    b, names = g.basis, g.basis.names
    if (bad := _wrong_parity(g._sparse, b.parities, b.parities, b.parities)) is not None:
        x, y, z = (names[t] for t in bad)
        return Violation("parity", (x, y, z), f"[{x},{y}] has a component of the wrong parity on {z}")
    if (bad := _broken_antisymmetry(g._sparse, b.parities)) is not None:
        x, y = (names[t] for t in bad)
        return Violation("antisymmetry", (y, x), f"[{y},{x}] != -(-1)^(|{x}||{y}|) [{x},{y}]")
    every = range(b.dim)
    for i, j, k, r in _jacobi_residuals(g._sparse, b.parities, every, every, every):
        if r:
            return Violation("jacobi", (names[i], names[j], names[k]),
                             "super-Jacobi identity fails on this basis triple")
    return None


class ModuleAction:
    """Action of a Lie superalgebra on a super vector space: the constructor
    takes its dense tensor (action[i][m] holds b_i · v_m) and keeps only its
    `Terms`, read through `act` and `act_basis`."""

    __slots__ = ("algebra", "space", "_sparse")

    def __init__(self, algebra: LieSuperalgebra, space: SuperBasis,
                 action: Sequence[Sequence[Sequence]]):
        n, d = algebra.dim, space.dim
        if len(action) != n or any(len(row) != d for row in action):
            raise ShapeError("action tensor does not match the algebra/space sizes")
        grid = [[vec(v) for v in row] for row in action]
        if any(len(v) != d for row in grid for v in row):
            raise ShapeError("action tensor entries have the wrong length")
        self.algebra, self.space, self._sparse = algebra, space, _nonzero_entries(grid)

    @classmethod
    def _trusted(cls, algebra: LieSuperalgebra, space: SuperBasis, sparse: Terms) -> "ModuleAction":
        """A module on the terms of an action tensor of the right shape, as an
        extension reads them off its ambient algebra."""
        m = object.__new__(cls)
        m.algebra, m.space, m._sparse = algebra, space, sparse
        return m

    @classmethod
    def trivial(cls, algebra: LieSuperalgebra, space: SuperBasis) -> "ModuleAction":
        return cls._trusted(algebra, space, (((),) * space.dim,) * algebra.dim)

    def act_basis(self, i: int, m: int) -> Vec:
        return _spread(self._sparse[i][m], self.space.dim)

    def act(self, x: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        if len(x) != self.algebra.dim or len(v) != self.space.dim:
            raise ShapeError("vector sizes do not match the action")
        return bilinear(self._sparse, x, v, self.space.dim)

    def is_trivial(self) -> bool:
        return not any(map(any, self._sparse))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModuleAction) and self.algebra == other.algebra
                and self.space == other.space and self._sparse == other._sparse)

    def __hash__(self) -> int:
        return hash((self.algebra, self.space, self._sparse))


def _action_entries(m: ModuleAction) -> tuple[dict[tuple[int, int, int], int], int]:
    """(A, E): the nonzero action entries (i, v, k) -> (b_i · v_v)_k·E, integers over one denominator E."""
    act, den = _int_terms(m._sparse)
    return {(i, v, k): c for i, row in enumerate(act) for v, terms in enumerate(row) for k, c in terms}, den


def _sum_structure(g: LieSuperalgebra, m: ModuleAction, beta: Optional[Terms] = None) -> Terms:
    """The terms of the structure tensor of g ⊕ M (g first) with the bracket
    ([x,y], x·b - (-1)^{|a||y|} y·a + beta(x,y)).

    `beta` holds the terms of a 2-cochain, beta[i][j] those of beta(b_i, b_j);
    None gives the semidirect product g ⋉ M.  Its super-Jacobi residual on
    the triples (x, y, v) is the module axiom; over all triples, the cocycle
    condition.
    """
    ng, na = g.dim, m.space.dim

    def shifted(terms):
        return tuple((ng + k, c) for k, c in terms)

    acts = [tuple(map(shifted, row)) for row in m._sparse]
    rows = [(g._sparse[i] if beta is None else tuple(
        t + shifted(b) for t, b in zip(g._sparse[i], beta[i]))) + acts[i] for i in range(ng)]
    rows += [tuple(_swapped(acts[i][v], g.basis.parity(i), m.space.parity(v)) for i in range(ng))
             + ((),) * na for v in range(na)]
    return tuple(rows)


def validate_module(m: ModuleAction) -> Optional[Violation]:
    """Check parity compatibility and the module axiom on all basis triples.

    A violation in the underlying algebra is reported first.  The module
    axiom is checked as super-Jacobi of g ⋉ M on the triples (x, y, v).
    """
    bad = validate_superalgebra(m.algebra)
    if bad is not None:
        return bad
    ab, sb = m.algebra.basis, m.space
    if (bad := _wrong_parity(m._sparse, ab.parities, sb.parities, sb.parities)) is not None:
        i, v, k = bad
        return Violation("module-parity", (ab.names[i], sb.names[v], sb.names[k]),
                         "action component has the wrong parity")
    sparse, parities, xs = _sum_structure(m.algebra, m), ab.parities + sb.parities, range(ab.dim)
    for i, j, k, r in _jacobi_residuals(sparse, parities, xs, xs, range(ab.dim, len(parities))):
        if r:
            return Violation("module-axiom", (ab.names[i], ab.names[j], sb.names[k - ab.dim]),
                             "[x,y]·v != x·(y·v) - (-1)^(|x||y|) y·(x·v) on this triple")
    return None


class GradedLinearMap:
    """Even linear map between super vector spaces.

    The matrix is codomain x domain (column j = image of domain basis j).
    Every map preserves parity: an entry joining elements of different
    parities is rejected.

    `_facts` is a private slot of the membership predicates of `extension`:
    their answers for this map as (extension, predicate, answer, ...).  It takes
    no part in `==` or `hash`.
    """

    __slots__ = ("domain", "codomain", "matrix", "_facts")

    def __init__(self, domain: SuperBasis, codomain: SuperBasis, matrix: Mat):
        if matrix.rows != codomain.dim or matrix.cols != domain.dim:
            raise ShapeError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected {codomain.dim}x{domain.dim}"
            )
        parities = domain.parities
        for r, row in enumerate(matrix.nums):
            want = codomain.parities[r]
            for c, x in enumerate(row):
                if x and parities[c] != want:
                    raise ShapeError(
                        f"entry ({codomain.names[r]}, {domain.names[c]}) breaks homogeneity "
                        "of degree 0"
                    )
        self.domain, self.codomain, self.matrix = domain, codomain, matrix
        self._facts = None

    @classmethod
    def _trusted(cls, domain: SuperBasis, codomain: SuperBasis, matrix: Mat) -> "GradedLinearMap":
        """A map whose matrix has the right shape and is even by construction
        (products, sums, multiples and blocks of checked maps, inverses,
        maps from coordinate slots of the right parity), without the entry
        scan of the public constructor."""
        f = object.__new__(cls)
        f.domain, f.codomain, f.matrix = domain, codomain, matrix
        f._facts = None
        return f

    @classmethod
    def identity(cls, basis: SuperBasis) -> "GradedLinearMap":
        return cls._trusted(basis, basis, Mat.identity(basis.dim))

    @classmethod
    def zero(cls, domain: SuperBasis, codomain: SuperBasis) -> "GradedLinearMap":
        return cls(domain, codomain, Mat.zeros(codomain.dim, domain.dim))

    @classmethod
    def from_images(cls, domain: SuperBasis, codomain: SuperBasis,
                    images: Sequence[Sequence[Fraction]]) -> "GradedLinearMap":
        if len(images) != domain.dim:
            raise ShapeError("need one image per domain basis element")
        return cls(domain, codomain, Mat.from_columns([vec(v) for v in images], rows=codomain.dim))

    def apply(self, v: Sequence[Fraction]) -> Vec:
        return self.matrix.apply(v)

    def image_of_basis(self, j: int) -> Vec:
        return self.matrix.column(j)

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self ∘ other."""
        if other.codomain != self.domain:
            raise ShapeError("composition domains do not match")
        return GradedLinearMap._trusted(other.domain, self.codomain, self.matrix @ other.matrix)

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        self._compatible(other)
        return GradedLinearMap._trusted(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        self._compatible(other)
        return GradedLinearMap._trusted(self.domain, self.codomain, self.matrix - other.matrix)

    def scale(self, c) -> "GradedLinearMap":
        return GradedLinearMap._trusted(self.domain, self.codomain, self.matrix.scale(c))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def _compatible(self, other: "GradedLinearMap") -> None:
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError("maps are not of the same shape and degree")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedLinearMap) and self.domain == other.domain
                and self.codomain == other.codomain and self.matrix == other.matrix)

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.matrix))

    def __repr__(self) -> str:
        return f"GradedLinearMap({self.matrix!r})"


def is_homomorphism(phi: GradedLinearMap, g: LieSuperalgebra, h: LieSuperalgebra) -> bool:
    """Even and bracket-preserving on all basis pairs.

    Only the pairs of `_upper_pairs` (i < j and the odd diagonal) are
    tested, up to the first failure: the remaining pairs follow from
    super-antisymmetry, which both algebras are assumed to satisfy
    (extensions validate their ambient algebra on construction).  Both
    sides are compared in integers, scaled by the common denominators of
    phi and of the two structure tensors.
    """
    if phi.domain != g.basis or phi.codomain != h.basis:
        raise ShapeError("map bases do not match the given algebras")
    # phi = F/D and structure constants C/E: phi([b_i,b_j]) = [phi b_i, phi b_j]
    # iff D·E_h·sum_k C^g_ijk F_·k = E_g·sum_{p,q} F_pi F_qj C^h_pq·, entry by entry
    nums, den = phi.matrix.nums, phi.matrix.den
    images = [[(r, row[i]) for r, row in enumerate(nums) if row[i]] for i in range(g.dim)]
    (cg, eg), (ch, eh) = g._int_view(), h._int_view()
    scale, dim = den * eh, h.dim
    for i, j in _upper_pairs(g.basis.parities):
        lhs = [0] * dim
        for k, c in cg[i][j]:
            for r, x in images[k]:
                lhs[r] += c * x
        rhs = [0] * dim
        for p, x in images[i]:
            row = ch[p]
            for q, y in images[j]:
                xy = x * y
                for r, c in row[q]:
                    rhs[r] += xy * c
        if any(scale * a != eg * b for a, b in zip(lhs, rhs)):
            return False
    return True


def semidirect_product(g: LieSuperalgebra, m: ModuleAction):
    """Split extension g ⋉ a: bracket ([x,y], x·b - (-1)^{|a||y|} y·a).

    Returns the product algebra on the concatenated basis (g first) together
    with its extension record; the extracted 2-cocycle is identically zero.
    """
    from .extension import AbelianExtension

    if m.algebra != g:
        raise ShapeError("module is not over the given algebra")
    bad = validate_module(m)
    if bad is not None:
        raise MembershipError(f"invalid module: {bad}")
    if set(g.basis.names) & set(m.space.names):
        raise ShapeError("algebra and module basis names collide")
    ng = g.dim
    basis = SuperBasis(g.basis.items() + m.space.items())
    product = LieSuperalgebra._trusted(basis, _sum_structure(g, m))
    # its super-Jacobi identity is the module axiom and g's own, just checked
    ext = AbelianExtension._trusted(product, range(ng, product.dim))
    if not ext.is_split_on_section():
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
            for entries in (e._sparse[u][j], e._sparse[j][u]):
                if any(k not in ideal_set for k, _ in entries):
                    raise NotAnIdealError(f"bracket [{e.basis.names[u]},{e.basis.names[j]}] leaves the span")
    complement = [i for i in range(n) if i not in ideal_set]
    slot = {i: p for p, i in enumerate(complement)}
    qbasis = SuperBasis([(e.basis.names[i], e.basis.parity(i)) for i in complement])
    # the complement terms of e's brackets, in order
    quotient = LieSuperalgebra._trusted(qbasis, tuple(
        tuple(tuple((slot[k], c) for k, c in e._sparse[p][q] if k in slot) for q in complement)
        for p in complement))
    projection = GradedLinearMap._trusted(e.basis, qbasis, Mat._from_ints(
        tuple(tuple(int(i == j) for j in range(n)) for i in complement), 1, n))
    return quotient, projection
