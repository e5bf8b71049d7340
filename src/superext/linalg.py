"""Exact linear algebra over the rationals: dense small maps, sparse operators.

Everything is tolerance-free and reproducible bit for bit: values are
`fractions.Fraction`s or integer numerators over a common denominator, and
no floating point enters at any stage.  `Mat` holds the small maps on an
algebra as integer rows `nums` over one positive denominator `den`, in
lowest terms (`Mat._from_ints`), so `==` and `hash` compare the stored form;
`data`, `column` and `apply` build Fractions on each read, every zero the
shared `_ZERO`.  `SparseMat`, the nonzero (column, value) pairs of each row,
is the form of the big operators (d¹, the Z² constraint rows, the five-term
maps, a quotient's coordinate map) and of what elimination produces: a
subspace or a quotient's complement keeps its vectors as the rows of one.
Its products and `SparseMat._annihilates` work on the integer rows it keeps
(`_scaled`: numerators over the least common denominator).

Every elimination is one integer kernel, `_reduce_part`: fraction-free
Gauss–Jordan with the pivot rule of elimination over Q (first row holding
the column, columns in increasing order), each updated row divided by its
content, and Fractions built only for the final pivot rows.  A `SparseMat`
is reduced component by component of its column graph (columns joined when
a row holds both); the reduced row echelon form is unique and no row holds
two components, so every pivot, kernel basis, complement, rank and solution
is the whole-matrix one.  `inverse` eliminates a `Mat`'s integer rows
directly, with the identity carried.  `quotient_presentation` factors [B | Z]
once: the pivots give the complement, and the factorization the quotient's
coordinate map.  Public constructors check their input (the one of
`SubspacePresentation` eliminates to prove its basis independent); the
private trusted ones take what this library built and checked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, attrgetter, is_not, itemgetter, mul, sub
from typing import Iterable, Optional, Sequence

from .errors import MembershipError, ShapeError

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def rat(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational.

    Floats are rejected: silent binary rounding would defeat the whole
    point of the engine.  Every zero comes back as the one shared `_ZERO`
    and every one as `_ONE`, so the zero and unit entries of vectors cost no
    memory of their own.
    """
    if isinstance(value, Fraction):
        if not value.numerator:
            return _ZERO
        return _ONE if value.numerator == 1 and value.denominator == 1 else value
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


def _nonzeros(row: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """The (j, x) at the nonzero entries of a row whose zeros are all `_ZERO`."""
    return list(compress(enumerate(row), map(is_not, row, repeat(_ZERO))))


def _scaled_pairs(rows: Sequence[Sequence[tuple[int, Fraction]]]) -> tuple[list[list[tuple[int, int]]], int]:
    """Rows of (j, x) pairs as (j, N_j) over one common denominator: `_scaled`
    of all values at once."""
    flat, d = _scaled(x for row in rows for _, x in row)
    nums = iter(flat)
    return [[(j, next(nums)) for j, _ in row] for row in rows], d


def _row_add(r: Vec, s: Vec) -> Vec:
    """r + s for rows whose zeros are all `_ZERO`; the sum has the same form."""
    return tuple(a if b is _ZERO else b if a is _ZERO else (a + b) or _ZERO for a, b in zip(r, s))


def _row_sub(r: Vec, s: Vec) -> Vec:
    """r - s for rows whose zeros are all `_ZERO`; the difference has the same form."""
    return tuple(a if b is _ZERO else (a - b) or _ZERO for a, b in zip(r, s))


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def unit_vec(n: int, k: int) -> Vec:
    return tuple(_ONE if i == k else _ZERO for i in range(n))


def sub_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    if len(u) != len(v):
        raise ShapeError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def scale_vec(c: Fraction, v: Sequence[Fraction]) -> Vec:
    return tuple(c * a for a in v)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return not any(v)


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
    """Immutable dense matrix of exact rationals, stored as `nums / den`:
    integer numerator rows over one positive denominator, in lowest terms
    (gcd(den, every numerator) = 1, and the zero matrix has den 1).  The form
    is unique, so `==` and `hash` compare it as it is.  `data`, `column` and
    `apply` build Fractions on each read; the arithmetic stays in integers."""

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, data: Iterable[Iterable], cols: Optional[int] = None):
        grid = tuple(tuple(rat(x) for x in row) for row in data)
        width = len(grid[0]) if grid else 0 if cols is None else cols
        for row in grid:
            if len(row) != width:
                raise ShapeError("rows have varying lengths")
        if cols is not None and width != cols:
            raise ShapeError(f"rows have length {width}, expected {cols}")
        # over the least common denominator of lowest-terms entries, the
        # numerators share no factor with it
        flat, den = _scaled(x for row in grid for x in row)
        nums = iter(flat)
        self.nums = tuple(tuple(next(nums) for _ in row) for row in grid)
        self.den, self.rows, self.cols = den, len(grid), width

    @classmethod
    def _from_ints(cls, nums: tuple[tuple[int, ...], ...], den: int, cols: int) -> "Mat":
        """The matrix nums / den, for integer rows of length `cols` and den > 0,
        brought to lowest terms without the public constructor's `rat` pass."""
        if den != 1 and (g := gcd(den, *chain.from_iterable(nums))) != 1:
            nums, den = tuple(tuple(x // g for x in row) for row in nums), den // g
        m = object.__new__(cls)
        m.nums, m.den, m.rows, m.cols = nums, den, len(nums), cols
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._from_ints(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._from_ints(((0,) * cols,) * rows, 1, cols)

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

    @property
    def data(self) -> tuple[Vec, ...]:
        """The entries as Fractions, built on each read; every zero is `_ZERO`."""
        den = self.den
        return tuple(tuple(Fraction(x, den) if x else _ZERO for x in row) for row in self.nums)

    def column(self, j: int) -> Vec:
        den = self.den
        return tuple(Fraction(row[j], den) if row[j] else _ZERO for row in self.nums)

    def apply(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ShapeError(f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}")
        w, d = _scaled(v)
        d *= self.den
        return tuple(Fraction(t, d) if (t := sum(map(mul, row, w))) else _ZERO for row in self.nums)

    def __matmul__(self, other: "Mat") -> "Mat":
        """A·B in integers: row i is the combination of B's rows with A's row
        as coefficients, over the product of the denominators."""
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        b, zero = other.nums, (0,) * other.cols
        out = []
        for row in self.nums:
            acc = None
            for x, b_row in zip(row, b):
                if x:
                    term = b_row if x == 1 else tuple(map(mul, repeat(x), b_row))
                    acc = term if acc is None else tuple(map(add, acc, term))
            out.append(zero if acc is None else acc)
        return Mat._from_ints(tuple(out), self.den * other.den, other.cols)

    def _combined(self, other: "Mat", op) -> "Mat":
        """op (add or sub) entrywise, over the least common denominator."""
        self._same_shape(other)
        d, e = self.den, other.den
        if d == e:
            return Mat._from_ints(tuple(tuple(map(op, r, s)) for r, s in zip(self.nums, other.nums)),
                                  d, self.cols)
        den = lcm(d, e)
        p, q = repeat(den // d), repeat(den // e)
        return Mat._from_ints(tuple(tuple(map(op, map(mul, r, p), map(mul, s, q)))
                                    for r, s in zip(self.nums, other.nums)), den, self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combined(other, add)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combined(other, sub)

    def scale(self, c) -> "Mat":
        c = rat(c)
        p = repeat(c.numerator)
        return Mat._from_ints(tuple(tuple(map(mul, row, p)) for row in self.nums),
                              self.den * c.denominator, self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def _same_shape(self, other: "Mat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.cols == other.cols and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.nums))

    def __repr__(self) -> str:
        return f"Mat({[list(map(str, r)) for r in self.data]})"


Row = tuple[tuple[int, Fraction], ...]


def _spread(pairs: Iterable[tuple[int, Fraction]], n: int) -> Vec:
    """The dense vector of length n with these (index, value) entries."""
    v = [_ZERO] * n
    for j, x in pairs:
        v[j] = x
    return tuple(v)


class SparseMat:
    """Immutable sparse matrix of exact rationals: each row the tuple of its
    nonzero (column, value) pairs in increasing column, and the width `cols`.

    The constructor trusts its rows; the product of two `SparseMat`s is a
    `SparseMat`.  Its transpose, integer rows, components, reduced rows and
    factorization are kept on first use.
    """

    __slots__ = ("data", "rows", "cols", "_t", "_int_rows", "_parts", "_reduced", "_factored")

    def __init__(self, data: tuple[Row, ...], cols: int):
        self.data, self.rows, self.cols = data, len(data), cols
        self._t = self._int_rows = self._parts = self._reduced = self._factored = None

    @classmethod
    def copies(cls, sources: Sequence[Optional[int]], cols: int) -> "SparseMat":
        """The 0/1 matrix whose row r copies coordinate sources[r] (None: a zero row)."""
        return cls(tuple(() if s is None else ((s, _ONE),) for s in sources), cols)

    @property
    def T(self) -> "SparseMat":
        """The transpose: row j holds the (i, x) of column j, in increasing i."""
        if self._t is None:
            out: list[list] = [[] for _ in range(self.cols)]
            for i, row in enumerate(self.data):
                for j, x in row:
                    out[j].append((i, x))
            self._t = SparseMat(tuple(map(tuple, out)), self.rows)
        return self._t

    def dense(self) -> tuple[Vec, ...]:
        """The rows, dense, with every zero the shared `_ZERO`."""
        return tuple(_spread(row, self.cols) for row in self.data)

    def is_zero(self) -> bool:
        return not any(self.data)

    def _int_view(self) -> list[tuple[int, itemgetter, list[int], int]]:
        """Each nonzero row i as (i, a getter of the entries of a vector at its
        columns, its integer numerators, their denominator)."""
        if self._int_rows is None:
            self._int_rows = [(i, itemgetter(*(j for j, _ in row)) if len(row) > 1
                               else itemgetter(slice(row[0][0], row[0][0] + 1)),
                               *_scaled(x for _, x in row))
                              for i, row in enumerate(self.data) if row]
        return self._int_rows

    def apply(self, v: Sequence[Fraction]) -> Vec:
        """A·v in integers: v over one denominator against the integer rows."""
        if len(v) != self.cols:
            raise ShapeError(f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}")
        w, d = _scaled(v)
        out = [_ZERO] * self.rows
        for i, pick, nums, e in self._int_view():
            if t := sum(map(mul, nums, pick(w))):
                out[i] = Fraction(t, d * e)
        return tuple(out)

    def _annihilates(self, w: Sequence[int]) -> bool:
        """Whether A·v = 0, for the integer numerators w of v over any common
        denominator (`_scaled(v)[0]`, or a map's integer entries), stopping
        at the first row with a nonzero product."""
        if len(w) != self.cols:
            raise ShapeError(f"matrix is {self.rows}x{self.cols}, vector has length {len(w)}")
        return not any(w) or not any(sum(map(mul, nums, pick(w))) for _, pick, nums, _ in self._int_view())

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        """A·B: row i is the integer combination of B's rows at the columns of
        A's row i, kept at its nonzero entries."""
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        b_rows, den = _scaled_pairs(other.data)
        out = []
        for row in self.data:
            cs, d = _scaled(x for _, x in row)
            acc: dict[int, int] = {}
            for c, (j, _) in zip(cs, row):
                for k, y in b_rows[j]:
                    acc[k] = acc.get(k, 0) + c * y
            d *= den
            out.append(tuple(sorted((k, Fraction(t, d)) for k, t in acc.items() if t)))
        return SparseMat(tuple(out), other.cols)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseMat) and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def _components(self) -> list[tuple[list[int], list[int]]]:
        """The connected components of the column graph, columns joined when
        a row holds both: (rows in order, columns ascending) each.  Empty rows
        and the columns no row holds belong to none."""
        if self._parts is None:
            root = list(range(self.cols))

            def find(x: int) -> int:
                while root[x] != x:
                    root[x] = x = root[root[x]]
                return x

            for row in self.data:
                for j, _ in row:
                    if (a := find(j)) != (b := find(row[0][0])):
                        root[a] = b
            parts: dict[int, tuple[list[int], set]] = {}
            for i, row in enumerate(self.data):
                if row:
                    rows, cols = parts.setdefault(find(row[0][0]), ([], set()))
                    rows.append(i)
                    cols.update(j for j, _ in row)
            self._parts = [(rows, sorted(cols)) for rows, cols in parts.values()]
        return self._parts

    def _int_parts(self, carry: bool) -> Iterable[tuple[list[dict[int, int]], list[int]]]:
        """Each component's rows as integer dicts over its least common
        denominator d, and its columns; with `carry`, row i is d·[S_i | e_i],
        e_i at keys from cols on."""
        for rows, cols in self._components():
            d = lcm(*{x.denominator for i in rows for _, x in self.data[i]})
            part = [{j: x.numerator * (d // x.denominator) for j, x in self.data[i]} for i in rows]
            for i, row in zip(rows, part) if carry else ():
                row[self.cols + i] = d
            yield part, cols

    def _echelon(self) -> dict[int, dict[int, Fraction]]:
        """The reduced row echelon form, as {pivot column: its row}."""
        if self._reduced is None:
            self._reduced = {}
            for part, cols in self._int_parts(False):
                for c, row in zip(_reduce_part(part, cols), part):
                    self._reduced[c] = {j: Fraction(x, row[c]) for j, x in row.items()}
        return self._reduced

    def _factor(self) -> tuple[list[int], "SparseMat", "SparseMat"]:
        """(pivots, P, A) with E·S = R, the reduced row echelon form of S:
        P holds E's rows at the pivots, in order, and A nonzero multiples of
        the others (a unit row for each empty row of S).  S·x = b is solvable
        iff A·b = 0, and then P·b at the pivots, 0 elsewhere, is its first
        solution.  Each row carries its row of the identity block, times its
        component's denominator."""
        if self._factored is None:
            m = self.cols
            found, rest = [], [((i, _ONE),) for i, row in enumerate(self.data) if not row]
            for part, cols in self._int_parts(True):
                pivots = _reduce_part(part, cols)
                scales = [row[c] for c, row in zip(pivots, part)] + [1] * (len(part) - len(pivots))
                tails = [tuple(sorted((j - m, Fraction(x, p)) for j, x in row.items() if j >= m))
                         for row, p in zip(part, scales)]
                found += zip(pivots, tails)
                rest += tails[len(pivots):]
            found.sort()
            self._factored = ([c for c, _ in found], SparseMat(tuple(r for _, r in found), self.rows),
                              SparseMat(tuple(rest), self.rows))
        return self._factored


def _reduce_part(rows: list[dict[int, int]], cols: Sequence[int]) -> list[int]:
    """In-place fraction-free Gauss–Jordan on integer rows over the columns
    `cols` (ascending); returns the pivots, and rows[r] becomes a multiple of
    the r-th pivot's reduced row, its entry there the factor.  A row holding
    b at the pivot a becomes (a/g)·row − (b/g)·pivot row, g = gcd(a, b), over
    its content, so each row stays a nonzero multiple of the one elimination
    over Q holds, with the same pivot rule.  Keys outside `cols` are carried
    along (the identity block of `SparseMat._factor` and `inverse`)."""
    n, r = len(rows), 0
    if n == 1:  # a single row is reduced as it is
        return [c for c in cols if c in rows[0]][:1]
    pivots: list[int] = []
    for c in cols:
        for i in range(r, n):
            if c in rows[i]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        row = rows[r]
        a, terms = row[c], list(row.items())
        for other in rows:
            if other is not row and (b := other.get(c)):
                g = gcd(a, b)
                p, q = (a // g, b // g) if a > 0 else (-a // g, -b // g)
                if p != 1:
                    for j in other:
                        other[j] *= p
                for j, x in terms:
                    if y := other.get(j, 0) - q * x:
                        other[j] = y
                    else:
                        del other[j]
                if (g := gcd(*other.values())) > 1:
                    for j in other:
                        other[j] //= g
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def _as_sparse(a) -> SparseMat:
    """A `SparseMat` as it is; a `Mat` at its nonzero entries."""
    if isinstance(a, SparseMat):
        return a
    den = a.den
    return SparseMat(tuple(tuple((j, Fraction(x, den)) for j, x in enumerate(row) if x) for row in a.nums),
                     a.cols)


def rank(a) -> int:
    return len(_as_sparse(a)._echelon())


def solve(a, b: Sequence[Fraction]) -> Optional[Vec]:
    """First solution of A·x = b with free variables set to 0, or None: two
    products with A's factorization, which an operator keeps."""
    if len(b) != a.rows:
        raise ShapeError(f"matrix has {a.rows} rows, right-hand side has length {len(b)}")
    pivots, coords, annihilator = _as_sparse(a)._factor()
    b = vec(b)
    if not annihilator._annihilates(_scaled(b)[0]):
        return None
    return _spread(zip(pivots, coords.apply(b)), a.cols)


def inverse(a: Mat) -> Optional[Mat]:
    """Inverse of a square matrix, or None when singular: one elimination of
    its integer rows N with the identity carried, [N | I] → [λ_r·e_r | T_r],
    so A⁻¹ has rows den·T_r/λ_r."""
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    n = a.cols
    rows = [{j: x for j, x in enumerate(row) if x} | {n + i: 1} for i, row in enumerate(a.nums)]
    if len(_reduce_part(rows, range(n))) != n:
        return None
    den = lcm(*(row[r] for r, row in enumerate(rows)))
    return Mat._from_ints(tuple(tuple(a.den * (den // row[r]) * row.get(n + j, 0) for j in range(n))
                                for r, row in enumerate(rows)), den, n)


def _pivots(vectors: tuple[Row, ...], n: int) -> list[int]:
    """Pivot columns of the n x k matrix whose columns are these sparse vectors.

    Column j is a pivot iff vectors[j] is not in the span of vectors[:j].
    """
    return sorted(SparseMat(vectors, n).T._echelon())


def _sparse_vecs(vectors: Iterable[Sequence[Fraction]], n: int) -> tuple[Row, ...]:
    """Vectors of length n given by a caller, coerced by `vec`, at their nonzero entries."""
    out = []
    for v in map(vec, vectors):
        if len(v) != n:
            raise ShapeError(f"vector of length {len(v)} in ambient dimension {n}")
        out.append(tuple(_nonzeros(v)))
    return tuple(out)


class SubspacePresentation:
    """A subspace of Q^n given by a linearly independent list of vectors,
    kept as the rows of the `SparseMat` `vectors`; `basis` is their dense view."""

    __slots__ = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, basis: Iterable[Sequence[Fraction]]):
        vs = _sparse_vecs(basis, ambient_dim)
        if len(_pivots(vs, ambient_dim)) < len(vs):
            raise MembershipError("basis vectors are linearly dependent")
        self.ambient_dim, self.vectors = ambient_dim, SparseMat(vs, ambient_dim)

    @classmethod
    def _trusted(cls, ambient_dim: int, vectors: tuple[Row, ...]) -> "SubspacePresentation":
        """A presentation on sparse vectors of length `ambient_dim`, independent
        by construction, without the public constructor's checks."""
        s = object.__new__(cls)
        s.ambient_dim, s.vectors = ambient_dim, SparseMat(vectors, ambient_dim)
        return s

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "SubspacePresentation":
        """Greedy independent sublist of `vectors`, in input order (the pivots)."""
        vs = _sparse_vecs(vectors, ambient_dim)
        return cls._trusted(ambient_dim, tuple(vs[j] for j in _pivots(vs, ambient_dim)))

    @property
    def basis(self) -> tuple[Vec, ...]:
        return self.vectors.dense()

    @property
    def dim(self) -> int:
        return self.vectors.rows

    def contains(self, v: Sequence[Fraction]) -> bool:
        vs = self.vectors.data + _sparse_vecs([v], self.ambient_dim)
        return len(_pivots(vs, self.ambient_dim)) == self.dim

    def contains_subspace(self, other: "SubspacePresentation") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        return len(_pivots(self.vectors.data + other.vectors.data, self.ambient_dim)) == self.dim

    def combine(self, coeffs: Sequence[Fraction]) -> Vec:
        """Linear combination of the basis with the given coefficients."""
        if len(coeffs) != self.dim:
            raise ShapeError("coefficient count does not match the basis size")
        return self.vectors.T.apply(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubspacePresentation) and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash(self.vectors)

    def __repr__(self) -> str:
        return f"SubspacePresentation(dim {self.dim} in Q^{self.ambient_dim})"


def subspace_equal(u: SubspacePresentation, w: SubspacePresentation) -> bool:
    """span(U) == span(W): equal dimensions and W ⊆ U."""
    if u.ambient_dim != w.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    return u.dim == w.dim and u.contains_subspace(w)


def kernel_basis(a) -> SubspacePresentation:
    """Basis of the null space of A, ordered by ascending free column; each
    vector is 1 at its own free column and 0 at the others, so independent.
    A free column's vector reads only the pivot rows of its own component."""
    n, reduced = a.cols, _as_sparse(a)._echelon()
    entries = {f: [(f, _ONE)] for f in range(n) if f not in reduced}
    for c, row in reduced.items():
        for f, x in row.items():
            if f != c:
                entries[f].append((c, -x))
    return SubspacePresentation._trusted(n, tuple(tuple(sorted(e)) for e in entries.values()))


class QuotientPresentation:
    """A quotient span(Z)/span(B) with a chosen complement basis.

    Classes are coordinatized in the complement basis; the complement is
    picked greedily from Z's basis vectors in order, so coordinates are
    reproducible.  It is kept as the rows of the `SparseMat` `vectors`;
    `complement` is their dense view.  `coordinate_map` is (P, A):
    P·v are the class coordinates of v in span Z, and A·v = 0 iff v is in
    span Z.  `quotient_presentation` builds both with the complement.
    """

    __slots__ = ("ambient", "sub", "vectors", "coordinate_map")

    def __init__(self, ambient: SubspacePresentation, sub: SubspacePresentation, vectors: SparseMat,
                 coordinate_map: tuple[SparseMat, SparseMat]):
        self.ambient = ambient
        self.sub = sub
        self.vectors = vectors
        self.coordinate_map = coordinate_map

    @property
    def complement(self) -> tuple[Vec, ...]:
        return self.vectors.dense()

    @property
    def dim(self) -> int:
        return self.vectors.rows

    def coordinates(self, columns: SparseMat) -> SparseMat:
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
        """Coordinates of [v] in the complement basis: P·v, after A·v = 0."""
        if len(v) != self.ambient.ambient_dim:
            raise ShapeError(f"ambient dimension is {self.ambient.ambient_dim}, "
                             f"vectors have length {len(v)}")
        coords, annihilator = self.coordinate_map
        if not annihilator._annihilates(_scaled(v)[0]):
            raise MembershipError("vector lies outside the ambient subspace")
        return coords.apply(v)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuotientPresentation) and self.ambient == other.ambient
                and self.sub == other.sub and self.vectors == other.vectors)

    def __hash__(self) -> int:
        return hash((self.ambient, self.sub, self.vectors))

    def __repr__(self) -> str:
        return f"QuotientPresentation(dim {self.dim})"


def quotient_presentation(z: SubspacePresentation, b: SubspacePresentation) -> QuotientPresentation:
    """Present span(Z)/span(B); requires B ⊆ Z.

    One factorization E·[B | Z] = R (`SparseMat._factor`) gives the
    complement and the coordinate map.  B is independent, so its columns are
    all pivots; B ⊆ span Z iff Z adds only z.dim - b.dim more, and those are
    the greedy complement C.  For v = B·x + C·y in span Z the first solution
    of [B | Z]·u = v is (x, y) at the pivots and 0 elsewhere, so E's rows at
    C's pivots give y, and its other rows (independent, as E is invertible)
    annihilate exactly span Z.  The entries of P and A depend on the order of
    elimination; P·v on span Z and the kernel of A do not.
    """
    if z.ambient_dim != b.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    n = z.ambient_dim
    pivots, coords, annihilator = SparseMat(b.vectors.data + z.vectors.data, n).T._factor()
    if len(pivots) != z.dim:
        raise MembershipError("sub is not contained in the ambient space of the quotient")
    complement = tuple(z.vectors.data[j - b.dim] for j in pivots[b.dim:])
    return QuotientPresentation(z, b, SparseMat(complement, n),
                                (SparseMat(coords.data[b.dim:], n), annihilator))
