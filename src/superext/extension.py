"""Abelian extensions 0 -> a -> e -> g -> 0 and their endomorphism theory.

An extension record is built from an ambient algebra and a set of basis
indices spanning an abelian ideal.  Everything else is derived: the
quotient, the canonical even section (complement basis elements represent
quotient classes), the induced action g·a = [s(g), a], and the 2-cocycle
beta(x, y) = [s x, s y] - s [x, y].

Obstruction conventions:

* extending h in End_g(a): class of -(h ∘ beta);
* extending an automorphism phi: class of beta - phi ∘ beta (the two agree
  under phi = id + h);
* lifting psi in End^a(g): class of beta ∘ (psi x psi) - beta, and a lift
  solves d(lambda) = beta - beta ∘ (psi x psi).

Membership in every endomorphism set is computed by the library; callers
cannot assert flags.  `classify_endomorphism` and `_module_end_residuals`
are the definitions.  The engine asks the same questions with one zero test
against a cached operator: the d¹ of e for derivations and quotient-fixing
maps, the residual matrix of End_g(a) for module endomorphisms, and
`action_constraints` for the action condition of End^a(g).  Their answers
are kept in the map's private `_facts` slot (see `_kept`), so each runs once
per map per extension, and the sequence suites ask through the public
gated functions, whose gates then read the kept answers.
`induced_on_quotient` is the one gate for "a homomorphism fixing the ideal
pointwise"; its ungated `_induced_on_quotient` serves composites of maps
that passed it and callers that hold a map's `EndFlags`.  In the same way
`inflate1`, `inflate2`, `restrict1` and `extend_obstruction` are the
definitions of the five-term maps, which the extension caches as
coordinate matrices.

The ring operations on quotient-fixing maps take and return maps equal to
the identity on every complement row: they reuse the identity's rows there
and compute only the ideal rows.  `_derivation_coords` is the one
quotient-fixing test; `from_derivation` records on x + h(x) the coordinates
of the derivation h it has just checked.

Maps on e = s(g) ⊕ a are read by their blocks with `_block` (the
restriction to a, the section offset λ: g -> a, the induced map ψ on g)
and built from them with `_assemble`; the End(a) coordinate slots are the
cached `AbelianExtension.pos_a`.  The definitional forms
`classify_endomorphism`, `inflate1`, `inflate2`, `restrict1` and
`beta_with_section` keep their products with the projection, section and
inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    _action_entries,
    is_homomorphism,
    quotient_by_ideal,
    validate_superalgebra,
)
from .cohomology import (
    Cochain2,
    CochainComplex,
    CohomologyClass,
    CohomologyPresentation,
    c1_positions,
    class_of,
    map_to_coords,
)
from .errors import MembershipError, NotAnIdealError, ShapeError
from .linalg import (
    _ONE,
    _ZERO,
    Mat,
    SparseMat,
    SubspacePresentation,
    Vec,
    _combination,
    _row_add,
    _row_sub,
    _sparse_scaled,
    _spread,
    inverse,
    kernel_basis,
    solve,
    sub_vec,
    unit_vec,
    zero_vec,
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MembershipError(message)


def _check(condition: bool, message: str) -> None:
    """A self-check on a computed witness; raises even under `python -O`."""
    if not condition:
        raise AssertionError(message)


class AbelianExtension:
    """An abelian extension with its derived quotient, section, action, cocycle."""

    def __init__(self, e: LieSuperalgebra, ideal_indices: Iterable[int]):
        bad = validate_superalgebra(e)
        if bad is not None:
            raise MembershipError(f"ambient algebra fails validation: {bad}")
        self._derive(e, ideal_indices)

    @classmethod
    def _trusted(cls, e: LieSuperalgebra, ideal_indices: Iterable[int]) -> "AbelianExtension":
        """The extension of an ambient algebra known to be valid (the product
        that `semidirect_product` builds from a validated module), without
        `validate_superalgebra`; the ideal is checked as in the public path."""
        ext = object.__new__(cls)
        ext._derive(e, ideal_indices)
        return ext

    def _derive(self, e: LieSuperalgebra, ideal_indices: Iterable[int]) -> None:
        """The quotient, section, action and cocycle of a valid e.  The axioms
        of g and of both modules on a are instances of e's super-Jacobi
        identity, so their complexes are `CochainComplex._trusted`."""
        ideal = tuple(sorted(set(int(i) for i in ideal_indices)))
        for i in ideal:
            if not 0 <= i < e.dim:
                raise ShapeError(f"ideal index {i} out of range")
        for i in ideal:
            for j in ideal:
                if e._sparse[i][j]:
                    raise NotAnIdealError(
                        f"ideal is not abelian: [{e.basis.names[i]},{e.basis.names[j]}] != 0")
        g, projection = quotient_by_ideal(e, ideal)
        self.e, self.g, self.projection, self.ideal_indices = e, g, projection, ideal
        comp = self.complement_indices = tuple(i for i in range(e.dim) if i not in set(ideal))
        self.a_basis = SuperBasis([(e.basis.names[i], e.basis.parity(i)) for i in ideal])

        ne = e.dim
        self.inclusion = GradedLinearMap._trusted(
            self.a_basis, e.basis, Mat.from_columns([unit_vec(ne, i) for i in ideal], rows=ne))
        self.section = GradedLinearMap._trusted(
            g.basis, e.basis, Mat.from_columns([unit_vec(ne, i) for i in comp], rows=ne))
        # the terms of [b, a] in ideal coordinates: it lies in the ideal, as
        # `quotient_by_ideal` has checked; g acts through the complement rows
        slot = _slots(ideal)
        self._ad = tuple(tuple(tuple((slot[k], c) for k, c in row[m]) for m in ideal) for row in e._sparse)
        self.action = ModuleAction._trusted(g, self.a_basis, tuple(self._ad[c] for c in comp))
        self.cochains_g = CochainComplex._trusted(g, self.action)

        # the complement part of [s x, s y] is exactly s([x, y]); the cocycle
        # is the ideal part that remains
        self.beta = Cochain2(g.basis, self.a_basis, [
            [_spread(((slot[k], c) for k, c in e._sparse[p][q] if k in slot), len(ideal)) for q in comp]
            for p in comp])
        if not self.cochains_g.is_cocycle2(self.beta):
            raise MembershipError("extracted 2-cochain is not a cocycle")

    @property
    def dim_e(self) -> int:
        return self.e.dim

    @property
    def dim_a(self) -> int:
        return len(self.ideal_indices)

    @property
    def dim_g(self) -> int:
        return self.g.dim

    def a_coords(self, v: Sequence[Fraction]) -> Vec:
        """Ideal coordinates of an ambient vector whose complement part vanishes."""
        if any(v[i] != 0 for i in self.complement_indices):
            raise MembershipError("vector does not lie in the ideal")
        return tuple(v[i] for i in self.ideal_indices)

    def is_central(self) -> bool:
        return self.action.is_trivial()

    def is_split_on_section(self) -> bool:
        """Whether the canonical section is already a homomorphism."""
        return self.beta.is_zero()

    # -- cached derived spaces -------------------------------------------

    @cached_property
    def identity(self) -> Mat:
        """The identity matrix of e, which the quotient-fixing maps are read against."""
        return Mat.identity(self.dim_e)

    @cached_property
    def adjoint(self) -> ModuleAction:
        """The ideal as a module over the ambient algebra (adjoint action)."""
        return ModuleAction._trusted(self.e, self.a_basis, self._ad)

    @cached_property
    def cochains_e(self) -> CochainComplex:
        return CochainComplex._trusted(self.e, self.adjoint)

    @property
    def z1_e(self) -> SubspacePresentation:
        return self.cochains_e.z1

    @property
    def z1_g(self) -> SubspacePresentation:
        return self.cochains_g.z1

    @cached_property
    def pos_a(self) -> list[tuple[int, int]]:
        """The coordinate slots of an even endomorphism of the ideal."""
        return c1_positions(self.a_basis, self.a_basis)

    @cached_property
    def pos_g(self) -> list[tuple[int, int]]:
        """The coordinate slots of an even endomorphism of the quotient."""
        return c1_positions(self.g.basis, self.g.basis)

    @cached_property
    def action_constraints(self) -> SparseMat:
        """psi -> ρ∘psi - ρ on the `pos_g` coordinates of an even psi followed
        by a 1: row (i, m, k) is the k-th coordinate of psi(x_i)·a_m - x_i·a_m,
        which reads A[j][m][k] at slot (j, i) and -A[i][m][k] at the last
        column, for the action tensor A."""
        act, slot, n, g = _action_entries(self.action), _slots(self.pos_g), len(self.pos_g), range(self.dim_g)
        return SparseMat(tuple(
            tuple([(slot[j, i], act[j, m, k]) for j in g if (j, m, k) in act and (j, i) in slot]
                  + ([(n, -act[i, m, k])] if (i, m, k) in act else []))
            for i in g for m in range(self.dim_a) for k in range(self.dim_a)), n + 1)

    @cached_property
    def module_end_constraints(self) -> SparseMat:
        """Residual matrix of End_g(a): column p holds the flattened
        `_module_end_residuals` of the p-th unit even map on a.  Read off the
        action tensor A: for the unit map E_rc, row (i, m, n) of
        phi(x_i·a_m) - x_i·phi(a_m) is [n = r] A[i][m][c] - [m = c] A[i][r][n]."""
        act, view, slot, da = _action_entries(self.action), self.action._sparse, _slots(self.pos_a), self.dim_a
        rows = []
        for i in range(self.dim_g):
            for m in range(da):
                for n in range(da):
                    row = {p: x for c, x in view[i][m] if (p := slot.get((n, c))) is not None}
                    for r in range(da):
                        if (i, r, n) in act and (p := slot.get((r, m))) is not None:
                            row[p] = row.get(p, _ZERO) - act[i, r, n]
                    rows.append(tuple(sorted((p, x) for p, x in row.items() if x)))
        return SparseMat(tuple(rows), len(self.pos_a))

    @cached_property
    def module_end_space(self) -> SubspacePresentation:
        """End_g(a) as a subspace of the even map coordinates on a."""
        return kernel_basis(self.module_end_constraints)

    @property
    def h1_g(self) -> CohomologyPresentation:
        return self.cochains_g.h1

    @property
    def h2_g(self) -> CohomologyPresentation:
        return self.cochains_g.h2

    @property
    def h2_e(self) -> CohomologyPresentation:
        return self.cochains_e.h2

    @cached_property
    def extend_operator(self) -> SparseMat:
        """d¹ of e stacked over the rows reading a 1-cochain's values on the ideal.

        Row order matches the right-hand side of `extend_endomorphism`: all
        2-cochain coordinates, then for each ideal element its image in a.
        """
        slot = _slots(self.cochains_e.pos1)
        reads = SparseMat.copies([slot.get((k, idx)) for idx in self.ideal_indices
                                  for k in range(self.dim_a)], len(slot))
        return SparseMat(self.cochains_e.d1.data + reads.data, len(slot))

    # -- the maps of the five-term sequence, on cochain coordinates ---------

    @cached_property
    def inflation1(self) -> SparseMat:
        """`inflate1` on 1-cochain coordinates, g -> e: entry (n, s(k)) of f∘p
        copies entry (n, k) of f, and the ideal columns vanish."""
        slot, quotient = _slots(self.cochains_g.pos1), _slots(self.complement_indices)
        return SparseMat.copies([slot.get((n, quotient.get(j))) for n, j in self.cochains_e.pos1],
                                len(slot))

    @cached_property
    def inflation2(self) -> SparseMat:
        """`inflate2` on 2-cochain coordinates, g -> e: entry (s(i), s(j), k)
        copies entry (i, j, k), and pairs with an ideal element vanish."""
        slot, quotient = _slots(self.cochains_g.pos2), _slots(self.complement_indices)
        return SparseMat.copies([slot.get((quotient.get(i), quotient.get(j), k))
                                 for i, j, k in self.cochains_e.pos2], len(slot))

    @cached_property
    def restriction(self) -> SparseMat:
        """`restrict1` on coordinates: entry (n, m) of f∘ι copies entry
        (n, ideal[m]) of the 1-cochain f of e."""
        slot = _slots(self.cochains_e.pos1)
        return SparseMat.copies([slot[n, self.ideal_indices[m]] for n, m in self.pos_a], len(slot))

    @cached_property
    def connecting_map(self) -> SparseMat:
        """D: phi -> [-phi∘beta] from even maps on a to H²(g, a) coordinates.

        The product of H²(g)'s coordinate map with phi -> coords2(-phi∘beta);
        it agrees with `extend_obstruction` on End_g(a), whose images are
        checked once to be cocycles.
        """
        beta = self.beta.tensor
        cochains = SparseMat(tuple(
            tuple((p, -beta[i][j][m]) for p, (n, m) in enumerate(self.pos_a) if n == k and beta[i][j][m])
            for i, j, k in self.cochains_g.pos2), len(self.pos_a))
        coords, annihilator = self.h2_g.quotient.coordinate_map
        if not (annihilator @ (cochains @ self.module_end_space.vectors.T)).is_zero():
            raise MembershipError("the 2-cochain is not a cocycle")
        return coords @ cochains

    def __repr__(self) -> str:
        names = [self.e.basis.names[i] for i in self.ideal_indices]
        return f"AbelianExtension(ideal=<{', '.join(names)}> in {self.e!r})"


def _slots(items: Sequence) -> dict:
    """Position of each item in a coordinate list."""
    return {x: p for p, x in enumerate(items)}


# -- the block layout of maps on e = s(g) ⊕ a -------------------------------


def _block(f: GradedLinearMap, rows: Sequence[int], cols: Sequence[int]) -> Mat:
    """The entries of f's matrix in the given rows and columns, in their order.

    Reading the ideal rows of a column does not test that its complement
    rows vanish.  `section_offset` and `sequences._restrict_to_ideal` need no
    such test: `a_coords` could never fail there, since the maps
    they are given preserve the ideal, by construction or by a checked
    precondition (for the offset: gamma fixes the ideal and induces psi).
    """
    data = f.matrix.data
    return Mat._canonical(tuple(tuple(data[r][c] for c in cols) for r in rows), len(cols))


def _assemble(ext: AbelianExtension, aa: Mat, ag: Mat, gg: Mat) -> GradedLinearMap:
    """The endomorphism of e with blocks a -> a, s(g) -> a and s(g) -> s(g),
    each the matrix of an even map; its block a -> s(g) is zero, so it
    preserves the ideal, and it is even."""
    ideal, comp = ext.ideal_indices, ext.complement_indices
    rows = [list(zero_vec(ext.dim_e)) for _ in range(ext.dim_e)]
    for block, row_idx, col_idx in ((aa, ideal, ideal), (ag, ideal, comp), (gg, comp, comp)):
        for r, row in zip(row_idx, block.data):
            for c, x in zip(col_idx, row):
                rows[r][c] = x
    return GradedLinearMap._trusted(ext.e.basis, ext.e.basis,
                                    Mat._canonical(tuple(map(tuple, rows)), ext.dim_e))


def build_extension(e: LieSuperalgebra, ideal_indices: Iterable[int]) -> AbelianExtension:
    """Derive the full extension record from an algebra and an abelian ideal."""
    return AbelianExtension(e, ideal_indices)


@dataclass(frozen=True)
class EndFlags:
    """Recomputed membership flags of an endomorphism of the ambient algebra."""

    homomorphism: bool
    preserves_ideal: bool
    fixes_ideal_pointwise: bool
    induces_identity: bool

    @property
    def fixes_quotient(self) -> bool:
        """Ideal-preserving homomorphism inducing the identity on the quotient."""
        return self.homomorphism and self.preserves_ideal and self.induces_identity

    @property
    def fixes_ideal(self) -> bool:
        """Homomorphism restricting to the identity on the ideal."""
        return self.homomorphism and self.fixes_ideal_pointwise

    @property
    def fixes_both(self) -> bool:
        return self.fixes_quotient and self.fixes_ideal


def classify_endomorphism(f: GradedLinearMap, ext: AbelianExtension) -> EndFlags:
    """Compute all membership flags of a candidate endomorphism of e."""
    if f.domain != ext.e.basis or f.codomain != ext.e.basis:
        raise ShapeError("map is not an endomorphism of the ambient algebra")
    hom = is_homomorphism(f, ext.e, ext.e)
    preserves = True
    fixes = True
    for m, idx in enumerate(ext.ideal_indices):
        img = f.image_of_basis(idx)
        if any(img[c] != 0 for c in ext.complement_indices):
            preserves = False
        if img != unit_vec(ext.dim_e, idx):
            fixes = False
    induces = True
    for k, idx in enumerate(ext.complement_indices):
        if ext.projection.apply(f.image_of_basis(idx)) != unit_vec(ext.dim_g, k):
            induces = False
            break
    return EndFlags(hom, preserves, fixes and preserves, induces)


def _kept(decide):
    """`decide(f, ext)` with its answers kept in f's `_facts` slot as a flat tuple (ext, predicate,
    answer, ...) for one extension at a time; `record(f, ext, answer)` keeps one found otherwise."""
    def record(f: GradedLinearMap, ext: AbelianExtension, answer):
        facts = f._facts if f._facts is not None and f._facts[0] is ext else (ext,)
        f._facts = facts + (known, answer)
        return answer

    @wraps(decide)
    def known(f: GradedLinearMap, ext: AbelianExtension):
        facts = f._facts if f._facts is not None and f._facts[0] is ext else ()
        for k in range(1, len(facts), 2):
            if facts[k] is known:
                return facts[k + 1]
        return record(f, ext, decide(f, ext))

    known.record = record
    return known


@_kept
def is_ideal_derivation(h: GradedLinearMap, ext: AbelianExtension) -> bool:
    """Whether h is an even derivation of e into the ideal."""
    if h.domain != ext.e.basis or h.codomain != ext.a_basis:
        raise ShapeError("map is not of the shape e -> a")
    return ext.cochains_e.is_cocycle1(h)


@_kept
def is_module_endomorphism(phi: GradedLinearMap, ext: AbelianExtension) -> bool:
    """Whether phi is an even endomorphism of the ideal commuting with the action."""
    if phi.domain != ext.a_basis or phi.codomain != ext.a_basis:
        raise ShapeError("map is not an endomorphism of the ideal")
    if phi.degree != 0:
        return False
    coords = map_to_coords(phi, ext.pos_a)
    return ext.module_end_constraints._annihilates(coords)


def _module_end_residuals(phi: GradedLinearMap, ext: AbelianExtension) -> Iterator[Vec]:
    """phi(x·m) - x·phi(m) over basis pairs (x, m), in row-major order."""
    for i in range(ext.dim_g):
        for m in range(ext.dim_a):
            lhs = phi.apply(ext.action.act_basis(i, m))
            rhs = ext.action.act(unit_vec(ext.dim_g, i), phi.image_of_basis(m))
            yield sub_vec(lhs, rhs)


@_kept
def fixes_action(psi: GradedLinearMap, ext: AbelianExtension) -> bool:
    """Whether psi is an endomorphism of the quotient with psi(x)·a = x·a.

    The action condition, one zero test with `action_constraints`, comes
    first: the maps it rejects skip the bracket check."""
    if psi.domain != ext.g.basis or psi.codomain != ext.g.basis:
        raise ShapeError("map is not an endomorphism of the quotient")
    return (psi.degree == 0 and _fixes_action_coords(map_to_coords(psi, ext.pos_g), ext)
            and is_homomorphism(psi, ext.g, ext.g))


def _fixes_action_coords(coords: Vec, ext: AbelianExtension) -> bool:
    """Whether the even map on g with these `pos_g` coordinates satisfies ρ∘psi = ρ."""
    return ext.action_constraints._annihilates(coords + (_ONE,))


# -- the derivation picture of quotient-fixing endomorphisms --------------


@_kept
def _derivation_coords(f: GradedLinearMap, ext: AbelianExtension) -> Optional[Vec]:
    """The 1-cochain coordinates of h with f = id + ι∘h when f fixes the quotient, else None.

    Agrees with `classify_endomorphism(f, ext).fixes_quotient`: f preserves
    the ideal and induces the identity iff the complement rows of f - id
    vanish, so f = id + ι∘h with h even; since a is abelian, [h x, h y] = 0
    and f is a homomorphism iff h is a derivation, one product with d¹.
    h's coordinates are read off f's ideal rows: f and id are even, so h
    has no entries outside the positions of `cochains_e.pos1`.
    """
    if f.domain != ext.e.basis or f.codomain != ext.e.basis:
        raise ShapeError("map is not an endomorphism of the ambient algebra")
    data, ident = f.matrix.data, ext.identity.data
    if f.degree != 0 or any(data[c] != ident[c] for c in ext.complement_indices):
        return None
    ideal = ext.ideal_indices
    coords = tuple(data[ideal[n]][i] - 1 if ideal[n] == i else data[ideal[n]][i]
                   for n, i in ext.cochains_e.pos1)
    return coords if ext.cochains_e.d1._annihilates(coords) else None


def _quotient_fixing_map(ext: AbelianExtension, rows: tuple[Vec, ...], what: str) -> GradedLinearMap:
    """The endomorphism of e with these canonical rows, checked to fix the quotient."""
    f = GradedLinearMap._trusted(ext.e.basis, ext.e.basis, Mat._canonical(rows, ext.dim_e))
    _check(_derivation_coords(f, ext) is not None, f"{what} does not fix the quotient")
    return f


def from_derivation(h: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """x -> x + h(x), an ideal-preserving endomorphism inducing the identity,
    with h's coordinates, just checked, recorded as its `_derivation_coords`."""
    _require(is_ideal_derivation(h, ext), "not an even derivation into the ideal")
    rows = list(ext.identity.data)
    for m, idx in enumerate(ext.ideal_indices):
        rows[idx] = _row_add(rows[idx], h.matrix.data[m])
    f = GradedLinearMap._trusted(ext.e.basis, ext.e.basis, Mat._canonical(tuple(rows), ext.dim_e))
    _derivation_coords.record(f, ext, ext.cochains_e.coords1(h))
    return f


def to_derivation(f: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """Inverse of `from_derivation`: recover h = f - id as a map into the ideal.

    The one product that decides whether f fixes the quotient checks that h is a derivation.
    """
    coords = _derivation_coords(f, ext)
    _require(coords is not None, "map is not an ideal-preserving homomorphism inducing the identity")
    return ext.cochains_e.cochain1(coords)


def _require_quotient_fixing(maps, ext: AbelianExtension) -> None:
    for m in maps:
        _require(_derivation_coords(m, ext) is not None,
                 "ring operations need quotient-fixing endomorphisms")


def _ring_add_rows(f: Sequence[Vec], g: Sequence[Vec], ext: AbelianExtension) -> tuple[Vec, ...]:
    """The rows of f + g - id, for f and g equal to the identity on the
    complement rows: the result's complement rows are the identity's own."""
    rows = list(ext.identity.data)
    for i in ext.ideal_indices:
        row = _row_add(f[i], g[i])
        rows[i] = row[:i] + ((row[i] - 1) or _ZERO,) + row[i + 1:]
    return tuple(rows)


def _ring_mul_rows(f: Sequence[Vec], g: Sequence[Vec], ext: AbelianExtension) -> tuple[Vec, ...]:
    """The rows of f·g - f - g + 2·id; row i of f·g is the combination of g's
    rows with f's row i as coefficients, in integers over one denominator."""
    g_rows, den = _sparse_scaled(g)
    rows = list(ext.identity.data)
    for i in ext.ideal_indices:
        prod = _combination(f[i], g_rows, den, len(f[i]))
        prod = prod[:i] + ((prod[i] + 2) or _ZERO,) + prod[i + 1:]
        rows[i] = _row_sub(_row_sub(prod, f[i]), g[i])
    return tuple(rows)


def ring_add(f: GradedLinearMap, g: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """Transported addition on quotient-fixing endomorphisms: x -> f(x) - x + g(x).

    The identity map is the zero element of this ring.
    """
    _require_quotient_fixing((f, g), ext)
    return _quotient_fixing_map(ext, _ring_add_rows(f.matrix.data, g.matrix.data, ext), "ring sum")


def ring_mul(f: GradedLinearMap, g: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """Transported multiplication: x -> f(g(x)) - f(x) - g(x) + 2x."""
    _require_quotient_fixing((f, g), ext)
    return _quotient_fixing_map(ext, _ring_mul_rows(f.matrix.data, g.matrix.data, ext),
                                "ring product")


def quasi_mul(f: GradedLinearMap, g: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """The ring's circle operation f*g = f + g + f·g, evaluated through the
    transported ring operations; it turns out to equal composition."""
    _require_quotient_fixing((f, g), ext)
    fd, gd = f.matrix.data, g.matrix.data
    return _quotient_fixing_map(
        ext, _ring_add_rows(_ring_add_rows(fd, gd, ext), _ring_mul_rows(fd, gd, ext), ext),
        "circle product")


def derivation_compose(h: GradedLinearMap, k: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """h ∘ k as maps e -> a, going through the inclusion of the ideal."""
    _require(is_ideal_derivation(h, ext) and is_ideal_derivation(k, ext),
             "composition needs derivations into the ideal")
    out = GradedLinearMap._trusted(ext.e.basis, ext.a_basis,
                                   _block(h, range(ext.dim_a), ext.ideal_indices) @ k.matrix)
    _check(is_ideal_derivation(out, ext), "composite is not a derivation into the ideal")
    return out


def shifted_restriction(f: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """x -> f(x) - x on the ideal, read off f's ideal rows; a module endomorphism of the ideal."""
    _require(_derivation_coords(f, ext) is not None,
             "map is not an ideal-preserving homomorphism inducing the identity")
    ideal = ext.ideal_indices
    out = GradedLinearMap._trusted(ext.a_basis, ext.a_basis,
                                   _block(f, ideal, ideal) - Mat.identity(ext.dim_a))
    _check(is_module_endomorphism(out, ext), "shifted restriction is not a module endomorphism")
    return out


def quasiregular_inverse(f: GradedLinearMap, ext: AbelianExtension) -> Optional[GradedLinearMap]:
    """Circle-inverse of f when it exists, i.e. when f is bijective."""
    _require(_derivation_coords(f, ext) is not None,
             "quasiregular inverse needs a quotient-fixing endomorphism")
    inv = inverse(f.matrix)
    if inv is None:
        return None
    g = _quotient_fixing_map(ext, inv.data, "inverse")  # f is even, so is its inverse
    ident = GradedLinearMap.identity(ext.e.basis)
    _check(quasi_mul(f, g, ext) == ident and quasi_mul(g, f, ext) == ident,
           "inverse is not a two-sided circle inverse")
    return g


# -- obstruction classes and the extend solver -----------------------------


def extend_obstruction(h: GradedLinearMap, ext: AbelianExtension) -> CohomologyClass:
    """Obstruction class -[h ∘ beta] to extending a module endomorphism h."""
    _require(is_module_endomorphism(h, ext), "not a module endomorphism of the ideal")
    return class_of(ext.beta.postcompose(h).scale(-1), ext.h2_g)


def extend_obstruction_aut(phi: GradedLinearMap, ext: AbelianExtension) -> CohomologyClass:
    """Obstruction class [beta - phi ∘ beta] to extending an automorphism phi."""
    _require(is_module_endomorphism(phi, ext), "not a module endomorphism of the ideal")
    _require(inverse(phi.matrix) is not None, "map is not invertible")
    return class_of(ext.beta - ext.beta.postcompose(phi), ext.h2_g)


def extend_endomorphism(phi: GradedLinearMap, ext: AbelianExtension) -> Optional[GradedLinearMap]:
    """Extend a module endomorphism of the ideal to a quotient-fixing
    endomorphism of e, or None when impossible.

    Solves the linear system for an even derivation f: e -> a with
    f restricted to the ideal equal to phi, free variables set to 0, and
    returns x -> x + f(x).  The solver never consults the obstruction class.
    """
    _require(is_module_endomorphism(phi, ext), "not a module endomorphism of the ideal")
    rhs = list(zero_vec(len(ext.cochains_e.pos2)))
    for m in range(ext.dim_a):
        rhs.extend(phi.image_of_basis(m))
    sol = solve(ext.extend_operator, tuple(rhs))
    if sol is None:
        return None
    f = ext.cochains_e.cochain1(sol)
    out = from_derivation(f, ext)
    _check(shifted_restriction(out, ext) == phi, "extension does not restrict to phi")
    return out


# -- the monoid picture: induced quotient maps and the lift solver ---------


def induced_on_quotient(gamma: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """The endomorphism p ∘ gamma ∘ s of the quotient, for ideal-fixing gamma."""
    _require_fixes_ideal(classify_endomorphism(gamma, ext))
    return _induced_on_quotient(gamma, ext)


def _require_fixes_ideal(flags: EndFlags) -> None:
    """The gate of `induced_on_quotient`, on flags already computed."""
    _require(flags.fixes_ideal, "map must be a homomorphism fixing the ideal pointwise")


def _induced_on_quotient(gamma: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """`induced_on_quotient` without its gate, for a composite of maps that
    passed it (a composite of homomorphisms fixing the ideal pointwise is
    one) or for a gamma whose flags passed `_require_fixes_ideal`."""
    psi = GradedLinearMap._trusted(ext.g.basis, ext.g.basis,
                                   _block(gamma, ext.complement_indices, ext.complement_indices))
    _check(fixes_action(psi, ext), "induced quotient map does not fix the action")
    return psi


def section_offset(gamma: GradedLinearMap, psi: GradedLinearMap,
                   ext: AbelianExtension) -> GradedLinearMap:
    """The even map lambda with gamma(s(x)) = lambda(x) + s(psi(x))."""
    _require(induced_on_quotient(gamma, ext) == psi,
             "psi is not the quotient map induced by gamma")
    return GradedLinearMap._trusted(ext.g.basis, ext.a_basis,
                                    _block(gamma, ext.ideal_indices, ext.complement_indices))


def lift_obstruction(psi: GradedLinearMap, ext: AbelianExtension) -> CohomologyClass:
    """Obstruction class [beta ∘ (psi x psi) - beta] to lifting psi."""
    _require(fixes_action(psi, ext), "map does not preserve the action on the ideal")
    return class_of(ext.beta.precompose(psi) - ext.beta, ext.h2_g)


def lift_endomorphism(psi: GradedLinearMap, ext: AbelianExtension) -> Optional[GradedLinearMap]:
    """Lift an action-preserving endomorphism of the quotient to an
    endomorphism of e fixing the ideal pointwise, or None when impossible.

    Solves d(lambda) = beta - beta ∘ (psi x psi) for an even lambda: g -> a
    (free variables 0) and builds gamma(a + s(x)) = a + lambda(x) + s(psi(x)).
    The solver never consults the obstruction class.
    """
    _require(fixes_action(psi, ext), "map does not preserve the action on the ideal")
    cochains = ext.cochains_g
    sol = solve(cochains.d1, cochains.coords2(ext.beta - ext.beta.precompose(psi)))
    if sol is None:
        return None
    gamma = _assemble(ext, Mat.identity(ext.dim_a), cochains.cochain1(sol).matrix, psi.matrix)
    _check(induced_on_quotient(gamma, ext) == psi, "lift does not induce psi")
    return gamma


# -- inflation and restriction ---------------------------------------------


def inflate1(f: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """Precompose a derivation g -> a with the projection; lands in Z1(e, a)."""
    if f.domain != ext.g.basis or f.codomain != ext.a_basis:
        raise ShapeError("map is not of the shape g -> a")
    _require(ext.cochains_g.is_cocycle1(f), "input is not a derivation of the quotient")
    out = f.compose(ext.projection)
    _check(is_ideal_derivation(out, ext), "inflated map is not a derivation of e")
    return out


def inflate2(b: Cochain2, ext: AbelianExtension) -> Cochain2:
    """Precompose a 2-cocycle of the quotient with the projection twice."""
    if b.source != ext.g.basis or b.target != ext.a_basis or b.degree != 0:
        raise ShapeError("cochain is not of the shape g x g -> a")
    _require(ext.cochains_g.is_cocycle2(b), "input is not a 2-cocycle of the quotient")
    n = ext.dim_e
    tensor = [
        [b.eval(ext.projection.image_of_basis(i), ext.projection.image_of_basis(j))
         for j in range(n)]
        for i in range(n)
    ]
    out = Cochain2(ext.e.basis, ext.a_basis, tensor)
    _check(ext.cochains_e.is_cocycle2(out), "inflated cochain is not a 2-cocycle of e")
    return out


def restrict1(f: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """Restrict a derivation e -> a to the ideal; a module endomorphism."""
    _require(is_ideal_derivation(f, ext), "input is not a derivation into the ideal")
    out = f.compose(ext.inclusion)
    _check(is_module_endomorphism(out, ext), "restriction is not a module endomorphism")
    return out


def beta_with_section(ext: AbelianExtension, mu: GradedLinearMap) -> Cochain2:
    """The cocycle extracted with the shifted section s' = s + mu.

    Shifting the section by an even map mu: g -> a changes the cocycle by
    the coboundary of mu and nothing else.
    """
    if mu.domain != ext.g.basis or mu.codomain != ext.a_basis or mu.degree != 0:
        raise ShapeError("section shift must be an even map g -> a")
    s2 = ext.section.matrix + ext.inclusion.matrix @ mu.matrix
    cols = [s2.column(k) for k in range(ext.dim_g)]
    tensor = []
    for p in range(ext.dim_g):
        row = []
        for q in range(ext.dim_g):
            row.append(ext.a_coords(sub_vec(ext.e.bracket(cols[p], cols[q]),
                                            s2.apply(_spread(ext.g._sparse[p][q], ext.dim_g)))))
        tensor.append(row)
    out = Cochain2(ext.g.basis, ext.a_basis, tensor)
    _check(ext.cochains_g.is_cocycle2(out), "shifted-section cochain is not a 2-cocycle")
    return out
