"""Dense references, for the tests only.

The library eliminates sparse rows component by component, stores each
structure tensor as its nonzero terms and each 2-cochain as its coordinates,
and keeps no dense view of either; these are the whole-matrix and
whole-tensor forms it replaced, over dense lists of Fractions, and `dense`
is the one way the tests read a stored tensor densely.  They share no code
with `superext.linalg`, with the algebra builders or with the cochain
operations.  `reduce_part` is the elimination over Q that the library's
integer kernel replaced, kept on the same sparse dict rows to check it.
"""

from fractions import Fraction

from superext.errors import MembershipError
from superext.linalg import Mat


def _swap_sign(p, q):
    """-(-1)^{pq}: [y, x] is this multiple of [x, y] for x, y of parities p and q."""
    return 1 if p * q % 2 else -1


def zero_vec(n):
    return (Fraction(0),) * n


def dense(terms, width):
    """The dense tensor with these terms (an algebra's or a module's `_sparse`,
    a 2-cochain's `_view()`), its vectors of length `width`."""
    return tuple(tuple(tuple(dict(v).get(k, Fraction(0)) for k in range(width)) for v in row)
                 for row in terms)


def from_brackets(basis, brackets):
    """The dense structure tensor of `LieSuperalgebra.from_brackets`, filled
    grid cell by grid cell: the missing orientation by super-antisymmetry,
    and the same `MembershipError` for the first offending pair in
    lexicographic order."""
    n = basis.dim
    given = {}
    for (left, right), value in brackets.items():
        out = [Fraction(0)] * n
        for name, coeff in value.items():
            out[basis.index(name)] = Fraction(coeff)
        given[(basis.index(left), basis.index(right))] = tuple(out)
    structure = [[(Fraction(0),) * n] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = _swap_sign(basis.parity(i), basis.parity(j))
            if (i, j) in given:
                structure[i][j] = given[(i, j)]
                if i == j and given[(i, i)] != tuple(s * c for c in given[(i, i)]):
                    raise MembershipError(
                        f"bracket [{basis.names[i]},{basis.names[i]}] breaks "
                        "super-antisymmetry: an even element's self-bracket is zero")
                if (j, i) in given and given[(j, i)] != tuple(s * c for c in given[(i, j)]):
                    raise MembershipError(
                        f"brackets [{basis.names[i]},{basis.names[j]}] and "
                        f"[{basis.names[j]},{basis.names[i]}] are both listed "
                        "and disagree with super-antisymmetry")
            elif (j, i) in given:
                structure[i][j] = tuple(s * c for c in given[(j, i)])
    return tuple(map(tuple, structure))


def sum_structure(g, m, beta=None):
    """The dense structure tensor of g ⊕ M (g first) with the bracket
    ([x,y], x·b - (-1)^{|a||y|} y·a + beta(x,y)), for a dense 2-cochain
    tensor beta; None gives the semidirect product g ⋉ M."""
    ng, na = g.dim, m.space.dim
    bracket, action = dense(g._sparse, ng), dense(m._sparse, na)
    zg, za = (Fraction(0),) * ng, (Fraction(0),) * na
    structure = [[zg + za] * (ng + na) for _ in range(ng + na)]
    for i in range(ng):
        for j in range(ng):
            structure[i][j] = bracket[i][j] + (za if beta is None else tuple(beta[i][j]))
        for v in range(na):
            structure[i][ng + v] = zg + action[i][v]
            s = _swap_sign(m.space.parity(v), g.basis.parity(i))
            structure[ng + v][i] = zg + tuple(s * c for c in action[i][v])
    return tuple(map(tuple, structure))


def precompose(beta, psi):
    """The dense tensor of beta ∘ (psi x psi): every pair (i, j), the sum of
    psi_ai psi_bj beta(b_a, b_b) over all (a, b), read off beta's dense tensor."""
    n, d, m = beta.source.dim, beta.target.dim, psi.matrix.data
    t = dense(beta._view(), d)
    return [[[sum(m[a][i] * m[b][j] * t[a][b][k] for a in range(n) for b in range(n))
              for k in range(d)] for j in range(n)] for i in range(n)]


def postcompose(beta, f):
    """The dense tensor of f ∘ beta pointwise: f's matrix times every vector of
    beta's dense tensor."""
    m, t = f.matrix.data, dense(beta._view(), beta.target.dim)
    return [[[sum(x * y for x, y in zip(row, v)) for row in m] for v in line] for line in t]


def reduce_rows(rows, pivot_cols=None):
    """In-place reduced row echelon form of dense rows; returns the pivot columns.

    Pivot = first nonzero entry in row order, columns in increasing order.
    Rows are updated only at the pivot row's nonzero columns; the rest would
    change by f·0.  With `pivot_cols`, pivots are sought only in the first
    `pivot_cols` columns; the columns after them are carried along.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols if pivot_cols is None else pivot_cols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row, pv = rows[r], rows[r][c]
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


def reduce_part(rows, cols):
    """In-place reduced row echelon form of sparse rows of Fractions ({column:
    value}, no zeros) over the columns `cols` (ascending); returns the pivot
    columns, and rows[r] becomes the row of the r-th pivot.  Pivot = first
    row holding the column; each pivot row is divided by its pivot, and the
    other rows lose their multiple of it.  Keys outside `cols` are carried
    along."""
    n, r = len(rows), 0
    pivots = []
    for c in cols:
        for i in range(r, n):
            if c in rows[i]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        row = rows[r]
        if (pv := row[c]) != 1:
            for j, x in row.items():
                row[j] = x / pv
        terms = list(row.items())
        for other in rows:
            if other is not row and c in other:
                f = other[c]
                for j, x in terms:
                    if (y := other.get(j)) is None:
                        other[j] = -f * x
                    elif y := y - f * x:
                        other[j] = y
                    else:
                        del other[j]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def product(a, b, width):
    """The product of dense rows a and b, b's rows of length `width`, entry
    by entry as a sum of products of Fractions."""
    return [[sum((x * row[j] for x, row in zip(r, b)), Fraction(0)) for j in range(width)]
            for r in a]


def inverse(a):
    """The inverse of the square dense rows a, or None when singular, from
    one elimination of [A | I]."""
    n = len(a)
    rows = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(a)]
    if reduce_rows(rows, n) != list(range(n)):
        return None
    return [r[n:] for r in rows]


def dense_rows(m):
    """The rows of a `Mat`, or of a sparse operator spread over its width."""
    if isinstance(m, Mat):
        return [list(r) for r in m.data]
    rows = []
    for row in m.data:
        dense = [Fraction(0)] * m.cols
        for j, x in row:
            dense[j] = x
        rows.append(dense)
    return rows


def kernel_basis(m):
    """Null space basis of a matrix, by ascending free column, from one
    elimination of all its rows."""
    rows = dense_rows(m)
    pivots = reduce_rows(rows)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def pivots(vectors, n):
    """Pivot columns of the n x k matrix whose columns are `vectors`."""
    return reduce_rows([[v[i] for v in vectors] for i in range(n)])



def solve(rows, b, n):
    """First solution of A·x = b with free variables 0, or None, for the
    dense rows of A with n columns, from one elimination of [A | b]."""
    rows = [list(row) + [Fraction(v)] for row, v in zip(rows, b)]
    found = reduce_rows(rows, n)
    if any(row[-1] != 0 and not any(row[:-1]) for row in rows):
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(found):
        x[c] = rows[r][-1]
    return tuple(x)


def extend_derivation(phi, ext):
    """The 1-cochain coordinates of the derivation f: e -> a that extends
    phi, or None: the first solution of d¹ of e stacked over the rows that
    read f on the ideal, against 0 on d¹'s rows and phi's images on the
    others.  The reference for `extend_endomorphism`, which solves on d¹ of
    the quotient instead."""
    slot = {rc: p for p, rc in enumerate(ext.cochains_e.pos1)}
    rows = dense_rows(ext.cochains_e.d1)
    rhs = [Fraction(0)] * len(rows)
    for m, idx in enumerate(ext.ideal_indices):
        for k in range(ext.dim_a):
            rows.append([Fraction(int(slot.get((k, idx)) == p)) for p in range(len(slot))])
            rhs.append(phi.matrix.data[k][m])
    return solve(rows, rhs, len(slot))
