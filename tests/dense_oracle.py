"""Dense reference elimination, for the tests only.

The library eliminates sparse rows component by component; these are the
whole-matrix forms it replaced, over dense lists of Fractions.  They share
no code with `superext.linalg`.
"""

from fractions import Fraction

from superext.linalg import Mat


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
