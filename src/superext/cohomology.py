"""Even cochains, coboundaries and low-degree cohomology of a module.

Degree conventions:

* 1-cochains are even linear maps g -> M, and 2-cochains are even too;
* the coboundary of a 1-cochain is
      (d f)(x, y) = x·f(y) - (-1)^{|x||y|} y·f(x) - f([x,y]),
  so derivations are exactly the 1-cocycles;
* 2-cocycles are characterized operationally: beta is a cocycle iff the
  bracket ([x,y], x·b - (-1)^{|a||y|} y·a + beta(x,y)) on g ⊕ M satisfies
  the super-Jacobi identity.  This definition, which needs no explicit
  degree-2 differential, stays operational in `is_cocycle2`; the engine's
  operator `CochainComplex.cocycle2_constraints` is an explicit formula
  checked against it, as d¹ is against `coboundary1`.  The bracket is
  `algebra._sum_structure`, the same one that validates modules and builds
  semidirect products, so the conditions vanish at beta = 0 and are linear
  in beta once the module is valid.  The public `CochainComplex` runs
  `validate_module`; `CochainComplex._trusted` does not, and serves only an
  extension's two complexes (g acting on a, and e acting on a by ad).  Their
  axioms are instances of the super-Jacobi identity of e, which
  `AbelianExtension` validates (Scheunert, LNM 716): Jacobi of g is the
  complement part of e's on s(g), the module axioms are e's on the triples
  with one element of the abelian ideal a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Sequence

from .algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    _action_entries,
    _jacobi_residual,
    _sign,
    _sum_structure,
    _swapped,
    _upper_pairs,
    validate_module,
)
from .errors import MembershipError, ShapeError
from .linalg import (
    _ZERO,
    Mat,
    QuotientPresentation,
    SparseMat,
    SubspacePresentation,
    Vec,
    _scaled,
    _spread,
    bilinear,
    is_zero_vec,
    kernel_basis,
    quotient_presentation,
    rat,
    scale_vec,
    sub_vec,
    unit_vec,
    vec,
)


def c1_positions(domain: SuperBasis, codomain: SuperBasis) -> list[tuple[int, int]]:
    """Free coordinate slots (row, col) of an even map matrix, column by
    column; kept per parities and shared: do not change it."""
    return _slots1(domain.parities, codomain.parities)


@lru_cache(maxsize=64)
def _slots1(domain: tuple[int, ...], codomain: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(n, i) for i, p in enumerate(domain) for n, q in enumerate(codomain) if q == p]


def map_to_coords(f: GradedLinearMap) -> Vec:
    """f's entries at the slots of `c1_positions` for its bases."""
    den = f.matrix.den
    return tuple(Fraction(x, den) if x else _ZERO for x in _map_nums(f))


def _map_nums(f: GradedLinearMap) -> list[int]:
    """The integer numerators of `map_to_coords(f)`, over f's denominator."""
    nums = f.matrix.nums
    return [nums[r][c] for r, c in c1_positions(f.domain, f.codomain)]


def map_from_coords(domain: SuperBasis, codomain: SuperBasis,
                    coords: Sequence[Fraction]) -> GradedLinearMap:
    """The map with `coords` at the slots of `c1_positions`, which join
    elements of one parity, and zeros elsewhere; only the coordinates pass `rat`."""
    if len(coords) != len(c1_positions(domain, codomain)):
        raise ShapeError("coordinate vector does not match the position list")
    return _map_from_nums(domain, codomain, *_scaled(vec(coords)))


def _map_from_nums(domain: SuperBasis, codomain: SuperBasis, nums: Sequence[int],
                   den: int) -> GradedLinearMap:
    """`map_from_coords` of nums / den: an integer per slot, over den > 0."""
    rows = [[0] * domain.dim for _ in range(codomain.dim)]
    for (r, c), x in zip(c1_positions(domain, codomain), nums):
        rows[r][c] = x
    matrix = Mat._from_ints(tuple(map(tuple, rows)), den, domain.dim)
    return GradedLinearMap._trusted(domain, codomain, matrix)


class _Layout:
    """The free coordinate slots of an even 2-cochain on bases of given
    parities, in one order: `positions` is `c2_positions`' list of (i, j, k);
    `pairs` lists each upper pair (i, j) with the index of its first
    coordinate and the parity w of its values, whose target slots `slots[w]`
    hold its coordinates in increasing k."""

    __slots__ = ("positions", "pairs", "slots")

    def __init__(self, source: tuple[int, ...], target: tuple[int, ...]):
        self.slots = tuple(tuple(k for k, p in enumerate(target) if p == w) for w in (0, 1))
        self.positions, pairs = [], []
        for i, j in _upper_pairs(source):
            w = (source[i] + source[j]) % 2
            pairs.append((i, j, len(self.positions), w))
            self.positions.extend((i, j, k) for k in self.slots[w])
        self.pairs = tuple(pairs)


# the slots of a cochain, kept per (source parities, target parities): they
# depend on nothing else
_layout = lru_cache(maxsize=64)(_Layout)


class Cochain2:
    """Even super-antisymmetric bilinear map g x g -> a.

    Stored as `nums`, one integer per slot of `c2_positions(source, target)`
    (the upper pairs, at the target slots of the right parity), over one
    positive `den` in lowest terms, as `Mat` stores a map, so `==` and `hash`
    compare the stored form; super-antisymmetry and homogeneity fix every
    other entry.  It is read through `eval`, `coords` (Fractions built on
    each read) and the terms `_view()`, built on first read.  `from_upper`
    is the one checked constructor: it takes the values at the upper pairs
    and checks their homogeneity.  `cochain2_from_coords`, `+`, `-`,
    `scale`, `precompose`, `postcompose` and `cup` build no Fraction and go
    through `_trusted`: both properties hold at the layout's slots and
    survive those operations.
    """

    __slots__ = ("source", "target", "nums", "den", "_layout", "_sparse")

    @classmethod
    def _trusted(cls, source: SuperBasis, target: SuperBasis, layout: _Layout,
                 nums: Sequence[int], den: int) -> "Cochain2":
        """The cochain nums / den (den > 0, brought to lowest terms) on the
        slots of `layout`, even and super-antisymmetric by construction (sums,
        multiples and compositions of checked cochains, and any values at the
        layout's own slots, which hold no even diagonal and only target slots
        of the right parity), without `from_upper`'s checks."""
        if den != 1 and (g := gcd(den, *nums)) != 1:
            nums, den = [x // g for x in nums], den // g
        c = object.__new__(cls)
        c.source, c.target, c._layout, c.nums, c.den = source, target, layout, tuple(nums), den
        c._sparse = None
        return c

    @classmethod
    def zero(cls, source: SuperBasis, target: SuperBasis) -> "Cochain2":
        return cls.from_upper(source, target, {})

    @classmethod
    def from_upper(cls, source: SuperBasis, target: SuperBasis,
                   entries: dict[tuple[int, int], Sequence[Fraction]]) -> "Cochain2":
        """Build from entries on pairs i <= j, zero where none is given; the rest
        follows by antisymmetry.  Reports an even diagonal entry, then the first of the wrong parity."""
        values = {}
        for (i, j), value in entries.items():
            if i > j:
                raise ShapeError("from_upper expects pairs with i <= j")
            if i < 0 or j >= source.dim:
                raise ShapeError(f"pair ({i}, {j}) is out of range")
            values[(i, j)] = vec(value)
        if any(len(v) != target.dim for v in values.values()):
            raise ShapeError("tensor entries have the wrong length")
        # the lower pairs follow by antisymmetry: only an even diagonal can break it
        if bad := [i for (i, j), v in values.items() if i == j and not source.parity(i) and any(v)]:
            name = source.names[min(bad)]
            raise MembershipError(f"tensor breaks super-antisymmetry at ({name}, {name})")
        layout, zero = _layout(source.parities, target.parities), (_ZERO,) * target.dim
        coords: list[Fraction] = []
        for i, j, _, w in layout.pairs:
            v = values.get((i, j), zero)
            for k, x in enumerate(v):
                if x and target.parities[k] != w:
                    raise MembershipError(f"tensor entry ({source.names[i]}, {source.names[j]}, "
                                          f"{target.names[k]}) breaks homogeneity of degree 0")
            coords.extend(v[k] for k in layout.slots[w])
        return cls._trusted(source, target, layout, *_scaled(coords))

    @property
    def coords(self) -> Vec:
        """The value at each slot of `c2_positions`, built on each read; every zero is `_ZERO`."""
        den = self.den
        return tuple(Fraction(x, den) if x else _ZERO for x in self.nums)

    def _view(self) -> tuple:
        """The terms of the tensor (`algebra.Terms`), read off the coordinates
        on first use, the lower pairs by super-antisymmetry."""
        if self._sparse is None:
            n, parity, coords, slots = self.source.dim, self.source.parities, self.coords, self._layout.slots
            terms = [[()] * n for _ in range(n)]
            for i, j, start, w in self._layout.pairs:
                terms[i][j] = tuple((k, x) for k, x in zip(slots[w], coords[start:start + len(slots[w])])
                                    if x is not _ZERO)
                if i != j:
                    terms[j][i] = _swapped(terms[i][j], parity[i], parity[j])
            self._sparse = tuple(map(tuple, terms))
        return self._sparse

    def eval(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        if len(x) != self.source.dim or len(y) != self.source.dim:
            raise ShapeError("vectors do not match the source dimension")
        return bilinear(self._view(), x, y, self.target.dim)

    def _like(self, nums: Sequence[int], den: int) -> "Cochain2":
        return Cochain2._trusted(self.source, self.target, self._layout, nums, den)

    def _combined(self, other: "Cochain2", sign: int) -> "Cochain2":
        """self + sign·other, over the least common denominator."""
        if self.source != other.source or self.target != other.target:
            raise ShapeError("cochains are not of the same shape and degree")
        den = lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return self._like([x * p + y * q for x, y in zip(self.nums, other.nums)], den)

    def __add__(self, other: "Cochain2") -> "Cochain2":
        return self._combined(other, 1)

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        return self._combined(other, -1)

    def scale(self, c) -> "Cochain2":
        c = rat(c)
        return self._like([x * c.numerator for x in self.nums], self.den * c.denominator)

    def precompose(self, psi: GradedLinearMap) -> "Cochain2":
        """beta ∘ (psi x psi) for an even endomorphism psi of the source.

        Evaluated at the upper pairs only, from beta's nonzero numerators and
        psi's, over the product of the denominators: the result is even and
        super-antisymmetric, and the upper pairs fix it."""
        if psi.domain != self.source or psi.codomain != self.source:
            raise ShapeError("precompose needs an even endomorphism of the source")
        parity, d, slots, values = self.source.parities, self.target.dim, self._layout.slots, self.nums
        # row a of psi: the (i, numerator of psi_ai), the b_i whose images have a b_a part
        rows = [[(i, x) for i, x in enumerate(r) if x] for r in psi.matrix.nums]
        acc: dict[tuple[int, int], list[int]] = {}
        for a, b, start, w in self._layout.pairs:
            terms = [(k, c) for k, c in zip(slots[w], values[start:start + len(slots[w])]) if c]
            if not terms:
                continue
            # beta(b_b, b_a) = -(-1)^{|a||b|} beta(b_a, b_b); an odd diagonal pair counts once
            swapped = 1 if parity[a] & parity[b] else -1
            for p, q, sign in ((a, b, 1), (b, a, swapped))[:1 if a == b else 2]:
                for i, x in rows[p]:
                    for j, y in rows[q]:
                        if i < j or i == j and parity[i]:
                            v = acc.get((i, j)) or acc.setdefault((i, j), [0] * d)
                            xy = sign * x * y
                            for k, c in terms:
                                v[k] += xy * c
        nums: list[int] = []
        for i, j, _, w in self._layout.pairs:
            ks, v = slots[w], acc.get((i, j))
            nums.extend((0,) * len(ks) if v is None else (v[k] for k in ks))
        return self._like(nums, self.den * psi.matrix.den ** 2)

    def postcompose(self, f: GradedLinearMap) -> "Cochain2":
        """f ∘ beta pointwise, for a map f on the target: f once per upper
        pair, on that pair's numerators."""
        if f.domain != self.target:
            raise ShapeError("postcompose needs a map defined on the target")
        layout = _layout(self.source.parities, f.codomain.parities)
        nums, slots, out = f.matrix.nums, self._layout.slots, layout.slots
        # for values of parity w: each output slot's (index into slots[w], f numerator)
        reads = [[tuple((p, nums[r][k]) for p, k in enumerate(slots[w]) if nums[r][k])
                  for r in out[w]] for w in (0, 1)]
        values, result = self.nums, []
        for _, _, start, w in self._layout.pairs:
            v = values[start:start + len(slots[w])]
            result.extend((sum(c * v[p] for p, c in read) for read in reads[w]) if any(v)
                          else (0,) * len(reads[w]))
        return Cochain2._trusted(self.source, f.codomain, layout, result, self.den * f.matrix.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain2) and self.source == other.source and self.target == other.target
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.den, self.nums))

    def __repr__(self) -> str:
        return f"Cochain2({self.source!r} -> {self.target!r})"


def c2_positions(source: SuperBasis, target: SuperBasis) -> list[tuple[int, int, int]]:
    """Free coordinate slots (i, j, k) of an even 2-cochain.

    (i, j) runs over `algebra._upper_pairs`: pairs with i < j, plus the
    diagonal for odd i (where antisymmetry imposes nothing); k runs over
    target slots of the parity |i| + |j|.  The list is kept per parities and
    shared: do not change it.
    """
    return _layout(source.parities, target.parities).positions


def cochain2_from_coords(source: SuperBasis, target: SuperBasis,
                         coords: Sequence[Fraction]) -> Cochain2:
    """The cochain with `coords`, each passed through `rat`, at the slots of `c2_positions`."""
    layout = _layout(source.parities, target.parities)
    if len(coords) != len(layout.positions):
        raise ShapeError("coordinate vector does not match the position list")
    return Cochain2._trusted(source, target, layout, *_scaled(vec(coords)))


def coboundary1(lam: GradedLinearMap, g: LieSuperalgebra, m: ModuleAction) -> Cochain2:
    """(d lam)(x,y) = x·lam(y) - (-1)^{|x||y|} y·lam(x) - lam([x,y]).

    Entries are computed on pairs i <= j only; the rest follows by the
    super-antisymmetry of the result (the even diagonal vanishes exactly).
    """
    if m.algebra != g:
        raise ShapeError("module is not over the given algebra")
    if lam.domain != g.basis or lam.codomain != m.space:
        raise ShapeError("cochain bases do not match the algebra and module")
    n = g.dim
    entries: dict[tuple[int, int], Vec] = {}
    for i, j in _upper_pairs(g.basis.parities):
        s = _sign(g.basis.parity(i), g.basis.parity(j))
        term = sub_vec(m.act(unit_vec(n, i), lam.image_of_basis(j)),
                       scale_vec(s, m.act(unit_vec(n, j), lam.image_of_basis(i))))
        entries[(i, j)] = sub_vec(term, lam.apply(_spread(g._sparse[i][j], n)))
    return Cochain2.from_upper(g.basis, m.space, entries)


def _twisted_jacobi_residuals(g: LieSuperalgebra, m: ModuleAction, beta: Cochain2) -> list[Fraction]:
    """Flattened super-Jacobi residuals of the beta-twisted sum over all triples."""
    sparse = _sum_structure(g, m, beta._view())
    parities = g.basis.parities + m.space.parities
    n = len(parities)
    out: list[Fraction] = []
    for s in range(n):
        for t in range(n):
            for u in range(n):
                out.extend(_spread(_jacobi_residual(sparse, parities, s, t, u), n))
    return out


def _cocycle2_constraints(g: LieSuperalgebra, m: ModuleAction,
                          pos2: list[tuple[int, int, int]]) -> SparseMat:
    """The linear part of beta -> twisted-Jacobi residual, in 2-cochain coordinates.

    Read off the structure tensors over the sorted g×g×g triples i <= j <= k:
    the module part of the super-Jacobi residual of g ⊕ M at (b_i, b_j, b_k)
    is the row
        sum_l c_ij^l beta(l,k) - c_jk^l beta(i,l) + (-1)^{|i||j|} c_ik^l beta(j,l)
        - (-1)^{(|i|+|j|)|k|} b_k·beta(i,j) - b_i·beta(j,k) + (-1)^{|i||j|} b_j·beta(i,k),
    the residual of `_twisted_jacobi_residuals` at beta = 0 taken away.  Other
    orders would only add ± these rows, so the Z² basis is that of all
    triples.  Triples with a module slot do not involve beta (it only enters
    the bracket of two g-parts), so they add no rows; nor do the triples
    whose three brackets vanish and whose three elements act by zero.  Zero
    rows and repeated rows are dropped: they do not change the row space.
    Each row is kept as its sorted nonzero terms, which tell rows apart as
    their dense forms do.
    """
    ng, na, parity = g.dim, m.space.dim, g.basis.parities
    # beta[p][q] lists (n, x, neg): component n of beta(b_p, b_q) is coordinate
    # x, negated when neg; the signs below are flags too, so that each term
    # costs one negation at most
    beta: list[list[list]] = [[[] for _ in range(ng)] for _ in range(ng)]
    for x, (i, j, n) in enumerate(pos2):
        beta[i][j].append((n, x, False))
        if i != j:
            beta[j][i].append((n, x, not parity[i] * parity[j]))
    c, act = g._sparse, m._sparse
    negated = [[tuple((n, -a) for n, a in v) for v in row] for row in act]
    acts = [any(v) for v in act]
    rows: dict[tuple, None] = {}

    def add(row: dict[int, Fraction], x: int, v: Fraction) -> None:
        row[x] = row[x] + v if x in row else v

    for i in range(ng):
        for j in range(i, ng):
            odd_ij = parity[i] * parity[j] == 1
            for k in range(j, ng):
                if not (c[i][j] or c[j][k] or c[i][k] or acts[i] or acts[j] or acts[k]):
                    continue
                terms: list[dict[int, Fraction]] = [{} for _ in range(na)]
                brackets = ([(d, -d, beta[l][k]) for l, d in c[i][j]]
                            + [(-d, d, beta[i][l]) for l, d in c[j][k]]
                            + [(-d, d, beta[j][l]) if odd_ij else (d, -d, beta[j][l])
                               for l, d in c[i][k]])
                for d, minus_d, form in brackets:
                    for n, x, neg in form:
                        add(terms[n], x, minus_d if neg else d)
                # the signs -(-1)^{(|i|+|j|)|k|}, -1 and (-1)^{|i||j|}, as "negative"
                actions = (((parity[i] + parity[j]) * parity[k] % 2 == 0, k, beta[i][j]),
                           (True, i, beta[j][k]), (odd_ij, j, beta[i][k]))
                for neg_d, y, form in actions:
                    for q, x, neg in form:
                        for n, a in (negated if neg_d != neg else act)[y][q]:
                            add(terms[n], x, a)
                for row in terms:
                    if key := tuple(sorted((x, v) for x, v in row.items() if v)):
                        rows.setdefault(key)
    return SparseMat(tuple(rows), len(pos2))


def is_cocycle2(beta: Cochain2, g: LieSuperalgebra, m: ModuleAction) -> bool:
    """Whether the beta-twisted bracket on g ⊕ M satisfies super-Jacobi."""
    if beta.source != g.basis or beta.target != m.space:
        raise ShapeError("cochain bases do not match the algebra and module")
    return all(r == 0 for r in _twisted_jacobi_residuals(g, m, beta))


def is_cocycle1(f: GradedLinearMap, g: LieSuperalgebra, m: ModuleAction) -> bool:
    """Whether f is an even derivation g -> M."""
    if f.domain != g.basis or f.codomain != m.space:
        raise ShapeError("map bases do not match the algebra and module")
    return coboundary1(f, g, m).is_zero()


class CochainComplex:
    """The even cochains of g with values in m, in degrees 1 and 2.

    Owns the coordinate formats of both degrees and builds each operator of
    the low-degree theory once, on first use: d¹ as a matrix, the cocycle
    and coboundary spaces, and the H¹ and H² presentations.  The public
    constructor validates the module once; `_trusted` does not.
    """

    def __init__(self, g: LieSuperalgebra, m: ModuleAction):
        bad = validate_module(m)
        if bad is not None:
            raise MembershipError(f"invalid module: {bad}")
        self.g, self.m = g, m
        self.pos1, self.pos2 = c1_positions(g.basis, m.space), c2_positions(g.basis, m.space)

    @classmethod
    def _trusted(cls, g: LieSuperalgebra, m: ModuleAction) -> "CochainComplex":
        """The complex of a module known to be valid, without `validate_module`:
        the quotient's action and the adjoint module of an extension whose
        ambient algebra was validated (`AbelianExtension`)."""
        cx = object.__new__(cls)
        cx.g, cx.m = g, m
        cx.pos1, cx.pos2 = c1_positions(g.basis, m.space), c2_positions(g.basis, m.space)
        return cx

    def cochain1(self, coords: Sequence[Fraction]) -> GradedLinearMap:
        return map_from_coords(self.g.basis, self.m.space, coords)

    def coords1(self, f: GradedLinearMap) -> Vec:
        if f.domain != self.g.basis or f.codomain != self.m.space:
            raise ShapeError("map bases do not match the algebra and module")
        return map_to_coords(f)

    def cochain2(self, coords: Sequence[Fraction]) -> Cochain2:
        return cochain2_from_coords(self.g.basis, self.m.space, coords)

    def coords2(self, beta: Cochain2) -> Vec:
        if beta.source != self.g.basis or beta.target != self.m.space:
            raise ShapeError("cochain bases do not match the algebra and module")
        return beta.coords

    @cached_property
    def d1(self) -> SparseMat:
        """Matrix of d¹: column p holds the coboundary of the p-th unit 1-cochain.

        Read off the structure tensors: for lam = e_n at b_i,
        (d lam)(b_a, b_b) = [b = i] b_a·e_n - (-1)^{|a||b|} [a = i] b_b·e_n
        - [b_a, b_b]_i e_n, the formula of `coboundary1` on a unit cochain.
        """
        slot1 = {rc: p for p, rc in enumerate(self.pos1)}
        slot2 = {abk: r for r, abk in enumerate(self.pos2)}
        act, bracket, parity = self.m._sparse, self.g._sparse, self.g.basis.parities
        rows: list[dict[int, Fraction]] = [{} for _ in self.pos2]
        dim = self.m.space.dim
        for a, b in dict.fromkeys((a, b) for a, b, _ in self.pos2):
            odd = parity[a] * parity[b] == 1  # the sign (-1)^{|a||b|} is -1
            terms = [(slot1.get((n, b)), k, v) for n in range(dim) for k, v in act[a][n]]
            terms += [(slot1.get((n, a)), k, v if odd else -v) for n in range(dim)
                      for k, v in act[b][n]]
            for i, c in bracket[a][b]:
                terms += [(slot1.get((k, i)), k, -c) for k in range(dim)]
            for p, k, v in terms:
                if p is not None and (r := slot2.get((a, b, k))) is not None:
                    row = rows[r]
                    row[p] = row[p] + v if p in row else v
        return SparseMat(tuple(tuple(sorted((p, x) for p, x in row.items() if x)) for row in rows),
                         len(self.pos1))

    def is_cocycle1(self, f: GradedLinearMap) -> bool:
        """Whether f is a derivation: a product of the cached d¹ with f's
        integer coordinates."""
        if f.domain != self.g.basis or f.codomain != self.m.space:
            raise ShapeError("map bases do not match the algebra and module")
        return self.d1._annihilates(_map_nums(f))

    @cached_property
    def z1(self) -> SubspacePresentation:
        """The even derivations g -> M, in 1-cochain coordinates."""
        return kernel_basis(self.d1)

    @cached_property
    def b1(self) -> SubspacePresentation:
        """Span of the inner derivations x -> x·v over even module elements v."""
        # the 1-cochain x -> x·v has entry (n, i) = (b_i·v)_n
        act = _action_entries(self.m)
        return SubspacePresentation.from_spanning(len(self.pos1), [
            tuple(act.get((i, v, n), _ZERO) for n, i in self.pos1)
            for v, p in enumerate(self.m.space.parities) if p == 0])

    @cached_property
    def cocycle2_constraints(self) -> SparseMat:
        """Rows of the linear 2-cocycle conditions, in 2-cochain coordinates.

        The twisted-Jacobi residual is affine in beta and vanishes at beta = 0
        for a valid module, so beta is a cocycle iff every row annihilates
        its coordinates.  `_cocycle2_constraints` reads the rows off the
        structure tensors of g and of the action.
        """
        return _cocycle2_constraints(self.g, self.m, self.pos2)

    def is_cocycle2(self, beta: Cochain2) -> bool:
        """Whether beta is an even 2-cocycle: a product with the cached constraints."""
        if beta.source != self.g.basis or beta.target != self.m.space:
            raise ShapeError("cochain bases do not match the algebra and module")
        return self.cocycle2_constraints._annihilates(beta.nums)

    @cached_property
    def z2(self) -> SubspacePresentation:
        """The even 2-cocycles, in 2-cochain coordinates: the kernel of the
        linear part of the super-Jacobi equations of the twisted sum.  Their
        constant part, the Jacobi identity of g and the module axiom, was
        checked with the same residual by `validate_module`, or, for an
        extension's `_trusted` complexes, by `validate_superalgebra` of e.
        """
        return kernel_basis(self.cocycle2_constraints)

    @cached_property
    def b2(self) -> SubspacePresentation:
        """Span of the coboundaries of the even 1-cochains, the image of d¹:
        the columns of d¹ at the pivots of its reduced form, which `z1` reads
        too (`from_spanning` of all the columns keeps the same ones)."""
        return SubspacePresentation._trusted(self.d1.T._take(sorted(self.d1._echelon())))

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

    def coordinates(self, cochains: SparseMat) -> SparseMat:
        """Class coordinates of each column of a matrix of cochain coordinates,
        one product with the cached coordinate map; raises when a column is
        not a cocycle."""
        try:
            return self.quotient.coordinates(cochains)
        except MembershipError:
            raise MembershipError(f"the {self.degree}-cochain is not a cocycle") from None


@dataclass(frozen=True, slots=True)
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
    if beta.source != pres.source or beta.target != pres.target:
        raise ShapeError("cochain does not match the presentation")
    try:  # beta's own coordinates are at the positions of the presentation
        coords = pres.quotient.coordinates_of(beta.coords)
    except MembershipError:
        raise MembershipError("the 2-cochain is not a cocycle") from None
    return CohomologyClass(pres, coords)


def cup(h: Cochain2, f: GradedLinearMap) -> Cochain2:
    """Cup product of a 2-cochain with an endomorphism-valued 0-cochain:

        (h ∪ f)(x, y) = (-1)^{|f|(|x|+|y|)} (-1)^{|f||h(x,y)|} f(h(x,y)).

    f is even, so both signs are 1 and the result is f ∘ h pointwise.
    """
    if f.domain != h.target or f.codomain != h.target:
        raise ShapeError("cup needs an endomorphism of the cochain's target")
    return h.postcompose(f)
