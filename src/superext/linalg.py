"""Exact linear algebra over the rationals: dense matrices, sparse row updates.

Everything here is tolerance-free: entries are `fractions.Fraction`, pivot
choice is deterministic (first nonzero entry in row order), and outputs
are reproducible bit for bit.  No floating point enters at any stage.
Elimination updates rows only at a pivot row's nonzero columns; the reduced
row echelon form is unique, so this changes no result of the dense update.

Public constructors check their input; the private trusted ones take what
this library built and checked.  Every zero entry of a `Mat` is the one
shared `_ZERO`: the public constructor passes each entry through `rat`, and
`Mat._canonical` takes grids of Fractions with that zero as they are (the
results of `@`, `+`, `-` and `scale`, the blocks, copy matrices, d¹, Z²
constraints, End_g(a) residuals and coordinate maps of this library).
`Mat.apply`, `+` and `-` test a matrix's own entries for zero by identity;
vectors passed in by callers may hold other zeros, such as `Fraction(0, 7)`,
and are tested by value.  `SubspacePresentation`'s constructor eliminates to
check that its basis is independent; `SubspacePresentation._trusted` takes
the bases of `kernel_basis` and `from_spanning`, independent by construction.

The small-map kernels work on integer-scaled views: `_scaled` writes a list
of rationals as integer numerators over their least common denominator, so
`@`, the zero test `Mat._annihilates` and `SubspacePresentation.combine`
add and multiply integers and build a Fraction only for each nonzero value
they return.  The arithmetic is exact, so every result is the one the
Fraction arithmetic gives.  A matrix caches its integer rows on the first
zero test, which the operators kept by a cochain complex or an extension
pay for once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter, mul
from typing import Iterable, Optional, Sequence

from .errors import MembershipError, ShapeError

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def rat(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational.

    Floats are rejected: silent binary rounding would defeat the whole
    point of the engine.  Every zero comes back as the one shared `_ZERO`,
    so the zero entries of vectors and matrices cost no memory of their own.
    """
    if isinstance(value, Fraction):
        return value if value.numerator else _ZERO
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, str)):
        return rat(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _scaled(values: Iterable) -> tuple[list[int], int]:
    """(N, d) with values = N / d: integer numerators over the least common
    denominator d of the entries (ints and Fractions)."""
    values = list(values)
    d = lcm(*set(map(_denominator, values)))
    if d == 1:
        return list(map(_numerator, values)), 1
    return [x.numerator * (d // x.denominator) for x in values], d


def _sparse_scaled(rows: Sequence[Sequence], width: int) -> tuple[list[list[tuple[int, int]]], int]:
    """The rows of a grid as lists of their nonzero (j, N_j), over one common
    denominator: `_scaled` of all entries at once."""
    flat, d = _scaled(x for row in rows for x in row)
    return [[(j, x) for j, x in enumerate(flat[k * width:(k + 1) * width]) if x]
            for k in range(len(rows))], d


def _combination(coeffs: Sequence, rows: Sequence[Sequence[tuple[int, int]]], den: int,
                 width: int) -> Vec:
    """sum_k coeffs_k · rows_k, for rows given by `_sparse_scaled` over den:
    integer sums over one denominator, skipping zero coefficients and entries."""
    cs, d = _scaled(coeffs)
    acc = [0] * width
    for c, row in zip(cs, rows):
        if c:
            for j, x in row:
                acc[j] += c * x
    d *= den
    return tuple(Fraction(x, d) if x else _ZERO for x in acc)


def _row_add(r: Vec, s: Vec) -> Vec:
    """r + s for rows whose zeros are all `_ZERO`; the sum has the same form."""
    return tuple(a if b is _ZERO else b if a is _ZERO else (a + b) or _ZERO for a, b in zip(r, s))


def _row_sub(r: Vec, s: Vec) -> Vec:
    """r - s for rows whose zeros are all `_ZERO`; the difference has the same form."""
    return tuple(a if b is _ZERO else (a - b) or _ZERO for a, b in zip(r, s))


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def unit_vec(n: int, k: int) -> Vec:
    return tuple(_ONE if i == k else _ZERO for i in range(n))


def add_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    if len(u) != len(v):
        raise ShapeError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def sub_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    if len(u) != len(v):
        raise ShapeError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def scale_vec(c: Fraction, v: Sequence[Fraction]) -> Vec:
    return tuple(c * a for a in v)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def bilinear(sparse: Sequence[Sequence[Sequence[tuple]]], x: Sequence, y: Sequence, dim: int) -> Vec:
    """sum_{i,j} x_i y_j T[i][j], a vector of length `dim`.

    `sparse` is the nonzero view of the tensor T: sparse[i][j] lists the
    (k, c) with T[i][j][k] = c != 0, in increasing k, so the terms are added
    in the same order as over the dense tensor.
    """
    out = [_ZERO] * dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = sparse[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            c = xi * yj
            for k, s in row[j]:
                out[k] += c * s
    return tuple(out)


class Mat:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data", "_int_rows")

    def __init__(self, data: Iterable[Iterable], cols: Optional[int] = None):
        grid = tuple(tuple(rat(x) for x in row) for row in data)
        width = len(grid[0]) if grid else 0 if cols is None else cols
        for row in grid:
            if len(row) != width:
                raise ShapeError("rows have varying lengths")
        if cols is not None and width != cols:
            raise ShapeError(f"rows have length {width}, expected {cols}")
        self.data, self.rows, self.cols, self._int_rows = grid, len(grid), width, None

    @classmethod
    def _canonical(cls, grid: tuple[Vec, ...], cols: int) -> "Mat":
        """A matrix on a grid of Fractions whose zeros are all `_ZERO`,
        without the `rat` pass of the public constructor."""
        m = object.__new__(cls)
        m.data, m.rows, m.cols, m._int_rows = grid, len(grid), cols, None
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._canonical(tuple(unit_vec(n, i) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._canonical((zero_vec(cols),) * rows, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]], rows: Optional[int] = None) -> "Mat":
        if columns:
            rows = len(columns[0])
            for c in columns:
                if len(c) != rows:
                    raise ShapeError("columns have varying lengths")
        elif rows is None:
            rows = 0
        return cls([[col[i] for col in columns] for i in range(rows)], cols=len(columns))

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> Vec:
        return self.data[i]

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.data)

    def apply(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ShapeError(f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}")
        out = [_ZERO] * self.rows
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            for i, row in enumerate(self.data):
                c = row[j]
                if c is not _ZERO:
                    out[i] += vj * c
        return tuple(out)

    def _annihilates(self, v: Sequence[Fraction]) -> bool:
        """Whether A·v = 0, in integers: each nonzero row of A scaled by its
        own denominator (cached on first use) against v scaled by one; stops
        at the first row with a nonzero product."""
        if len(v) != self.cols:
            raise ShapeError(f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}")
        w = _scaled(v)[0]
        if not any(w):
            return True
        if self._int_rows is None:
            self._int_rows = [n for n, _ in map(_scaled, self.data) if any(n)]
        return not any(sum(map(mul, n, w)) for n in self._int_rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        """A·B row by row in integers: row i of A is the combination of B's
        rows with A's row as coefficients."""
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        m = other.cols
        b_rows, den = _sparse_scaled(other.data, m)
        live = [k for k, r in enumerate(b_rows) if r]  # entries of A facing a zero row add nothing
        out = []
        for row in self.data:
            terms = [k for k in live if row[k] is not _ZERO]
            out.append(_combination([row[k] for k in terms], [b_rows[k] for k in terms], den, m)
                       if terms else zero_vec(m))
        return Mat._canonical(tuple(out), m)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._canonical(tuple(map(_row_add, self.data, other.data)), self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._canonical(tuple(map(_row_sub, self.data, other.data)), self.cols)

    def __neg__(self) -> "Mat":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "Mat":
        c = rat(c)
        return Mat._canonical(tuple(tuple(x if x is _ZERO else (c * x) or _ZERO for x in r)
                                    for r in self.data), self.cols)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.data)

    def _same_shape(self, other: "Mat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return f"Mat({[list(map(str, r)) for r in self.data]})"


def _reduce_rows(rows: list[list[Fraction]], pivot_cols: Optional[int] = None) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns.

    Pivot = first nonzero entry in row order, so the result is unique for
    a given input ordering.  Rows are updated only at the pivot row's nonzero
    columns; the rest would change by f·0, so every value is that of the
    dense update.  With `pivot_cols`, pivots are sought only in the first
    `pivot_cols` columns; the columns after them are carried along.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols if pivot_cols is None else pivot_cols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row, pv = rows[r], rows[r][c]
        # rows r.. vanish left of c, so the pivot row's nonzero entries lie in c..
        terms = [(j, row[j] if pv == 1 else row[j] / pv) for j in range(c, ncols) if row[j] != 0]
        for j, x in terms:
            row[j] = x
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                other, f = rows[i], rows[i][c]
                for j, x in terms:
                    other[j] -= f * x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(a: Mat) -> int:
    rows = [list(r) for r in a.data]
    return len(_reduce_rows(rows))


def solve(a: Mat, b: Sequence[Fraction]) -> Optional[Vec]:
    """First solution of A·x = b with free variables set to 0, or None."""
    if len(b) != a.rows:
        raise ShapeError(f"matrix has {a.rows} rows, right-hand side has length {len(b)}")
    if a.cols == 0:
        return () if is_zero_vec(b) else None
    rows = [list(r) + [rat(x)] for r, x in zip(a.data, b)]
    if not rows:
        return zero_vec(a.cols)
    pivots = _reduce_rows(rows)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [_ZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return tuple(x)


def inverse(a: Mat) -> Optional[Mat]:
    """Inverse of a square matrix, or None when singular."""
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    n = a.rows
    rows = [list(r) + list(unit_vec(n, i)) for i, r in enumerate(a.data)]
    pivots = _reduce_rows(rows)
    if pivots != list(range(n)):
        return None
    return Mat([row[n:] for row in rows], cols=n)


def _pivots(vectors: Sequence[Sequence[Fraction]], n: int) -> list[int]:
    """Pivot columns of the n x k matrix whose columns are `vectors`.

    Column j is a pivot iff vectors[j] is not in the span of vectors[:j].
    """
    return _reduce_rows([[v[i] for v in vectors] for i in range(n)])


class SubspacePresentation:
    """A subspace of Q^n given by a linearly independent list of vectors."""

    __slots__ = ("ambient_dim", "basis", "_int_basis")

    def __init__(self, ambient_dim: int, basis: Iterable[Sequence[Fraction]]):
        vs = tuple(vec(v) for v in basis)
        for v in vs:
            if len(v) != ambient_dim:
                raise ShapeError(f"basis vector of length {len(v)} in ambient dimension {ambient_dim}")
        if len(_pivots(vs, ambient_dim)) < len(vs):
            raise MembershipError("basis vectors are linearly dependent")
        # `_int_basis`: the basis as sparse integer rows over one denominator, for `combine`
        self.ambient_dim, self.basis, self._int_basis = ambient_dim, vs, None

    @classmethod
    def _trusted(cls, ambient_dim: int, basis: tuple[Vec, ...]) -> "SubspacePresentation":
        """A presentation on vectors of length `ambient_dim`, zeros `_ZERO`,
        independent by construction, without the public constructor's checks."""
        s = object.__new__(cls)
        s.ambient_dim, s.basis, s._int_basis = ambient_dim, basis, None
        return s

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "SubspacePresentation":
        """Greedy independent sublist of `vectors`, in input order (the pivots)."""
        vs = [vec(v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise ShapeError(f"expected length {ambient_dim}, got {len(v)}")
        return cls._trusted(ambient_dim, tuple(vs[j] for j in _pivots(vs, ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        return len(_pivots(self.basis + (vec(v),), self.ambient_dim)) == self.dim

    def contains_subspace(self, other: "SubspacePresentation") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        return len(_pivots(self.basis + other.basis, self.ambient_dim)) == self.dim

    def combine(self, coeffs: Sequence[Fraction]) -> Vec:
        """Linear combination of the basis with the given coefficients."""
        if len(coeffs) != self.dim:
            raise ShapeError("coefficient count does not match the basis size")
        if self._int_basis is None:
            self._int_basis = _sparse_scaled(self.basis, self.ambient_dim)
        return _combination(coeffs, *self._int_basis, self.ambient_dim)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubspacePresentation) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"SubspacePresentation(dim {self.dim} in Q^{self.ambient_dim})"


def subspace_equal(u: SubspacePresentation, w: SubspacePresentation) -> bool:
    """span(U) == span(W): equal dimensions and W ⊆ U."""
    if u.ambient_dim != w.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    return u.dim == w.dim and u.contains_subspace(w)


def kernel_basis(a: Mat) -> SubspacePresentation:
    """Basis of the null space of A, ordered by ascending free column; each
    vector is 1 at its own free column and 0 at the others, so independent."""
    rows = [list(r) for r in a.data]
    pivots = _reduce_rows(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(a.cols):
        if f in pivot_set:
            continue
        v = [_ZERO] * a.cols
        v[f] = _ONE
        for r, c in enumerate(pivots):
            x = rows[r][f]
            v[c] = -x if x else _ZERO
        basis.append(tuple(v))
    return SubspacePresentation._trusted(a.cols, tuple(basis))


class QuotientPresentation:
    """A quotient span(Z)/span(B) with a chosen complement basis.

    Classes are coordinatized in the complement basis; the complement is
    picked greedily from Z's basis vectors in order, so coordinates are
    reproducible.
    """

    __slots__ = ("ambient", "sub", "complement", "_coordinate_map")

    def __init__(self, ambient: SubspacePresentation, sub: SubspacePresentation,
                 complement: tuple[Vec, ...]):
        self.ambient = ambient
        self.sub = sub
        self.complement = complement
        self._coordinate_map: Optional[tuple[Mat, Mat]] = None

    @property
    def dim(self) -> int:
        return len(self.complement)

    @property
    def coordinate_map(self) -> tuple[Mat, Mat]:
        """(P, A): P·v are the class coordinates of v in span Z, A·v = 0 iff v is in span Z.

        Built once, from E·[B | C | I] = [R | E], eliminating only until
        [B | C] is in reduced row echelon form.  [B | C] has independent
        columns, so after its b + k pivots R is the identity on top of zeros:
        for v = B·x + C·y the top rows of E give (x, y), and the rows below
        (independent, as E is invertible) annihilate exactly span [B | C] =
        span Z.  The entries of P and A depend on where elimination stops;
        P·v on span Z and the kernel of A do not.
        """
        if self._coordinate_map is None:
            n, b, k = self.ambient.ambient_dim, self.sub.dim, self.dim
            columns = self.sub.basis + self.complement
            rows = [[v[i] for v in columns] + list(unit_vec(n, i)) for i in range(n)]
            _reduce_rows(rows, b + k)
            self._coordinate_map = tuple(
                Mat._canonical(tuple(tuple(x or _ZERO for x in r[b + k:]) for r in part), n)
                for part in (rows[b:b + k], rows[b + k:]))
        return self._coordinate_map

    def coordinates(self, columns: Mat) -> Mat:
        """Class coordinates of each column of an N-row matrix: P·columns,
        after the membership test A·columns = 0.

        They solve column = (sub part) + (complement part); raises when a
        column is not in the ambient span.
        """
        if columns.rows != self.ambient.ambient_dim:
            raise ShapeError(f"ambient dimension is {self.ambient.ambient_dim}, "
                             f"vectors have length {columns.rows}")
        coords, annihilator = self.coordinate_map
        if not (annihilator @ columns).is_zero():
            raise MembershipError("vector lies outside the ambient subspace")
        return coords @ columns

    def coordinates_of(self, v: Sequence[Fraction]) -> Vec:
        """Coordinates of [v] in the complement basis."""
        return self.coordinates(Mat.from_columns([v], rows=len(v))).column(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuotientPresentation) and self.ambient == other.ambient
                and self.sub == other.sub and self.complement == other.complement)

    def __hash__(self) -> int:
        return hash((self.ambient, self.sub, self.complement))

    def __repr__(self) -> str:
        return f"QuotientPresentation(dim {self.dim})"


def quotient_presentation(z: SubspacePresentation, b: SubspacePresentation) -> QuotientPresentation:
    """Present span(Z)/span(B); requires B ⊆ Z."""
    if z.ambient_dim != b.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    # B is independent, so its columns are all pivots; B ⊆ span Z iff Z adds
    # only z.dim - b.dim more, and those are the greedy complement.
    pivots = _pivots(b.basis + z.basis, z.ambient_dim)
    if len(pivots) != z.dim:
        raise MembershipError("sub is not contained in the ambient space of the quotient")
    complement = tuple(z.basis[j - b.dim] for j in pivots[b.dim:])
    return QuotientPresentation(z, b, complement)
