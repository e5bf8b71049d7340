import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from superext import linalg
from dense_oracle import kernel_basis as dense_kernel_basis
from dense_oracle import pivots as oracle_pivots
from dense_oracle import reduce_rows as _reduce_rows
from dense_oracle import zero_vec
from superext.errors import MembershipError, ShapeError
from superext.linalg import (
    _ONE,
    _ZERO,
    Mat,
    SparseMat,
    _as_sparse,
    _scaled,
    SubspacePresentation,
    inverse,
    is_zero_vec,
    kernel_basis,
    quotient_presentation,
    rank,
    rat,
    solve,
    subspace_equal,
    unit_vec,
    vec,
)


def test_rat_accepts_int_str_fraction():
    assert rat(3) == Fraction(3)
    assert rat("-3/7") == Fraction(-3, 7)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)


def test_rat_shares_one_zero_and_one_one():
    """The zero and unit entries of every vector and matrix are two shared objects."""
    assert all(rat(x) is _ZERO for x in (0, "0/3", Fraction(0, 5)))
    assert all(rat(x) is _ONE for x in (1, "2/2", Fraction(3, 3)))
    assert all(rat(x) == x and rat(x) is not _ONE for x in (-1, Fraction(1, 2), Fraction(2)))


def test_rat_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_solve_identity():
    assert solve(Mat.identity(2), vec([1, 2])) == vec([1, 2])


def test_solve_inconsistent():
    assert solve(Mat.zeros(2, 2), vec([1, 0])) is None


def test_solve_free_variables_are_zero():
    # row reduction of [[1,2|3],[2,4|6]] leaves x1 free
    a = Mat([[1, 2], [2, 4]])
    assert solve(a, vec([3, 6])) == vec([3, 0])


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        solve(Mat.identity(2), vec([1, 2, 3]))


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(Mat.identity(3)).dim == 0


def test_kernel_of_zero_map_is_everything():
    assert kernel_basis(Mat.zeros(1, 3)).dim == 3


def test_kernel_vectors_satisfy_the_equation():
    a = Mat([[1, 2, 3]])
    ker = kernel_basis(a)
    assert ker.dim == 2
    for v in ker.basis:
        assert a.apply(v) == zero_vec(1)


def test_kernel_is_deterministic():
    a = Mat([[1, 2, 3]])
    assert kernel_basis(a).basis == kernel_basis(a).basis
    assert kernel_basis(a).basis[0] == vec([-2, 1, 0])
    assert kernel_basis(a).basis[1] == vec([-3, 0, 1])


def test_subspace_equal_examples():
    e1 = SubspacePresentation(2, [unit_vec(2, 0)])
    scaled = SubspacePresentation(2, [vec([2, 0])])
    both = SubspacePresentation(2, [unit_vec(2, 0), unit_vec(2, 1)])
    assert subspace_equal(e1, e1)
    assert subspace_equal(e1, scaled)
    assert not subspace_equal(e1, both)


def test_subspace_equal_ambient_mismatch():
    with pytest.raises(ShapeError):
        subspace_equal(SubspacePresentation(2, []), SubspacePresentation(3, []))


def test_dependent_basis_rejected():
    with pytest.raises(MembershipError):
        SubspacePresentation(2, [vec([1, 1]), vec([2, 2])])


def test_subspace_rank_questions_read_no_transpose(monkeypatch):
    # a work guard, not a timer: the basis check and both containment tests
    # count the row rank of the stacked vectors, which is their column rank,
    # so none of them builds a transpose
    def refused(self):
        raise AssertionError("SparseMat.T was read")

    monkeypatch.setattr(SparseMat, "T", property(refused))
    u = SubspacePresentation(3, [vec([1, 2, 0]), vec([0, 1, 1])])
    assert u.contains(vec([1, 3, 1])) and not u.contains(unit_vec(3, 2))
    assert u.contains_subspace(SubspacePresentation(3, [vec([2, 5, 1])]))
    assert not u.contains_subspace(SubspacePresentation(3, [unit_vec(3, 0)]))
    with pytest.raises(MembershipError):
        SubspacePresentation(3, [vec([1, 2, 0]), vec([2, 4, 0])])


def test_quotient_complement_is_greedy():
    z = SubspacePresentation(2, [unit_vec(2, 0), unit_vec(2, 1)])
    b = SubspacePresentation(2, [unit_vec(2, 0)])
    q = quotient_presentation(z, b)
    assert q.complement == (unit_vec(2, 1),)


def test_quotient_by_everything_is_zero():
    z = SubspacePresentation(2, [unit_vec(2, 0), unit_vec(2, 1)])
    q = quotient_presentation(z, z)
    assert q.dim == 0


def test_quotient_class_coordinates():
    z = SubspacePresentation(2, [vec([1, 1]), vec([0, 1])])
    b = SubspacePresentation(2, [vec([1, 2])])
    q = quotient_presentation(z, b)
    assert q.dim == 1
    coords = q.coordinates_of(vec([1, 1]))
    assert coords != zero_vec(1)


def test_quotient_requires_containment():
    z = SubspacePresentation(2, [unit_vec(2, 0)])
    b = SubspacePresentation(2, [unit_vec(2, 1)])
    with pytest.raises(MembershipError):
        quotient_presentation(z, b)


def test_coordinates_of_outside_vector_raises():
    z = SubspacePresentation(2, [unit_vec(2, 0)])
    q = quotient_presentation(z, SubspacePresentation(2, []))
    with pytest.raises(MembershipError):
        q.coordinates_of(vec([0, 1]))


def test_solve_and_coordinates_of_scale_their_vector_once(monkeypatch):
    # a work guard: on a warm operator each call scales its vector to
    # integers once (`_scaled`) and hands the result to both the zero test
    # and the product
    a = SparseMat([((0, 1), (1, 6)), ((1, -2),), ((0, 1),)], [2, 5, 1], 2)
    z = SubspacePresentation(3, [(1, 0, 0), (0, 1, Fraction(1, 3))])
    q = quotient_presentation(z, SubspacePresentation(3, [(1, 0, 0)]))
    cases = [(lambda: solve(a, (4, Fraction(-2, 5), 2)), (2, 1)), (lambda: solve(a, (1, 0, 0)), None),
             (lambda: q.coordinates_of(vec((5, 3, 1))), (3,))]
    for call, expected in cases:
        assert call() == expected
    calls, scaled = [], linalg._scaled
    monkeypatch.setattr(linalg, "_scaled", lambda v: calls.append(v) or scaled(v))
    for call, expected in cases:
        calls.clear()
        assert call() == expected and len(calls) == 1, calls
    calls.clear()
    with pytest.raises(MembershipError):
        q.coordinates_of(vec((0, 1, 0)))
    assert len(calls) == 1, calls


def test_coordinate_map_keeps_the_class_coordinates_and_the_annihilated_space(pin_corpus):
    # elimination stops after the b + k pivots of [B | C]: P·v is still the C part
    # of the solution of [B | C]·x = v on span Z, and A has the kernel of the
    # annihilator that the full reduced echelon form of [B | C | I] gives
    rng = random.Random(89)
    seen = 0
    for name, ext in pin_corpus:
        for q in (ext.cochains_g.h1.quotient, ext.h2_g.quotient,
                  ext.cochains_e.h1.quotient, ext.h2_e.quotient):
            n, b, k = q.ambient.ambient_dim, q.sub.dim, q.dim
            columns = q.sub.basis + q.complement
            rows = [[v[i] for v in columns] + list(unit_vec(n, i)) for i in range(n)]
            _reduce_rows(rows)
            full_annihilator = Mat([r[b + k:] for r in rows[b + k:]], cols=n)
            coords, annihilator = q.coordinate_map
            assert annihilator.rows == n - b - k, name
            assert subspace_equal(kernel_basis(annihilator), kernel_basis(full_annihilator)), name
            assert subspace_equal(kernel_basis(annihilator), q.ambient), name
            stacked = Mat.from_columns(columns, rows=n)
            samples = list(q.ambient.basis) + [
                q.ambient.combine(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                        for _ in range(q.ambient.dim))) for _ in range(3)]
            for v in samples:
                assert coords.apply(v) == solve(stacked, v)[b:], name
            seen += k > 0 and b > 0 and annihilator.rows > 0
    assert seen >= 3, seen


def test_inverse():
    m = Mat([[1, 2], [3, 4]])
    inv = inverse(m)
    assert inv is not None
    assert m @ inv == Mat.identity(2)
    assert inverse(Mat([[1, 2], [2, 4]])) is None


def _random_matrix(rng, rows, cols):
    return Mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)])


def test_solve_reproduces_rhs_when_consistent():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x0 = vec([Fraction(rng.randint(-3, 3)) for _ in range(a.cols)])
        b = a.apply(x0)
        x = solve(a, b)
        assert x is not None
        assert a.apply(x) == b


def test_kernel_exactness_on_random_matrices():
    rng = random.Random(11)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        ker = kernel_basis(a)
        assert ker.dim == a.cols - rank(a)
        for v in ker.basis:
            assert a.apply(v) == zero_vec(a.rows)


def test_subspace_equal_is_an_equivalence_relation():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = _random_matrix(rng, rng.randint(1, n), n)
        rows = [r for r in a.data if any(c != 0 for c in r)]
        if not rows:
            continue
        u = SubspacePresentation.from_spanning(n, rows)
        # same span, different presentations
        mixed = [u.combine(tuple(Fraction(rng.randint(-3, 3)) for _ in range(u.dim)))
                 for _ in range(2 * u.dim)]
        w = SubspacePresentation.from_spanning(n, list(mixed) + list(u.basis))
        v = SubspacePresentation.from_spanning(n, list(reversed(u.basis)))
        assert subspace_equal(u, u)
        assert subspace_equal(u, w) and subspace_equal(w, u)
        assert subspace_equal(u, v) and subspace_equal(v, w)
        assert subspace_equal(u, w) and subspace_equal(w, v) and subspace_equal(u, v)


def test_quotient_dimension_formula():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 6)
        z = SubspacePresentation.from_spanning(
            n, [_random_matrix(rng, 1, n).data[0] for _ in range(n)])
        if z.dim == 0:
            continue
        take = rng.randint(0, z.dim)
        b = SubspacePresentation.from_spanning(
            n,
            [z.combine(tuple(Fraction(rng.randint(-2, 2)) for _ in range(z.dim)))
             for _ in range(take)],
        )
        q = quotient_presentation(z, b)
        assert q.dim == z.dim - b.dim


def test_mat_requires_rectangular_data():
    with pytest.raises(ShapeError):
        Mat([[1, 2], [3]])


def test_mat_rejects_rows_of_another_width_than_cols():
    with pytest.raises(ShapeError):
        Mat([[1, 2]], cols=3)
    with pytest.raises(ShapeError):
        Mat([[1, 2], [3, 4]], cols=1)
    assert Mat([[1, 2]], cols=2).cols == 2
    empty = Mat([], cols=3)
    assert (empty.rows, empty.cols) == (0, 3)


def test_every_zero_entry_of_a_matrix_is_the_shared_zero():
    """`Mat.apply` tests its entries by identity with `_ZERO`; every way of
    building a matrix, cancellations included, must keep that invariant."""
    rng = random.Random(19)
    a = Mat([[0, "0", Fraction(0, 5)], [1, "-2/4", Fraction(3)], ["0/3", 2, -1]])
    b = Mat([[Fraction(0), 0, "1"], [1, "1/2", Fraction(-3)], [0, 2, 0]])
    cancel = Mat([[1, -1], [2, -2]]) @ Mat([[1, 3], [1, 3]])
    built = [a, b, cancel, a + b, a - a, a - b, a @ b, b @ a, a.scale(0), a.scale("1/2"), b.scale(-1),
             Mat.identity(3), Mat.zeros(2, 3),
             Mat.from_columns([(Fraction(0, 5), 1, "0"), (0, Fraction(0), 2)]),
             Mat.from_columns([a.column(j) for j in range(3)], rows=3)]
    for _ in range(20):
        x, y = _random_matrix(rng, 3, 3), _random_matrix(rng, 3, 3)
        built += [x @ y, x + y, x - y, x - x, x.scale(Fraction(0, 7)), x.scale(rng.randint(-2, 2))]
    zeros = 0
    for m in built:
        for row in m.data:
            for x in row:
                if x == 0:
                    assert x is _ZERO, m
                    zeros += 1
    assert zeros >= 100, zeros


def test_apply_matches_the_dense_product_on_vectors_with_other_zeros():
    rng = random.Random(23)
    for _ in range(60):
        m = Mat([[rng.choice((0, 0, Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
                  for _ in range(4)] for _ in range(rng.randint(1, 4))])
        v = tuple(rng.choice((Fraction(0, 7), Fraction(0), 0, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
                  for _ in range(4))
        dense = tuple(sum((row[j] * v[j] for j in range(4)), Fraction(0)) for row in m.data)
        assert m.apply(v) == dense


# -- sympy as an independent oracle: it shares no code with linalg ----------

def _oracle_rows(rng, count, n):
    """Seeded rational vectors with zero, repeated and dependent ones mixed in."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append((Fraction(0),) * n)
        elif kind < 0.3 and rows:
            rows.append(rng.choice(rows))
        elif kind < 0.5 and len(rows) >= 2:
            u, v = rng.sample(rows, 2)
            c, d = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
            rows.append(tuple(c * x + d * y for x, y in zip(u, v)))
        else:
            rows.append(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                              if rng.random() < 0.7 else Fraction(0) for _ in range(n)))
    return rows


def _sympy_matrix(rows, n):
    return sympy.Matrix(len(rows), n, [sympy.Rational(x.numerator, x.denominator)
                                       for row in rows for x in row])


def _greedy_oracle(start, vectors, n):
    """The vectors that raise the sympy rank of `start` plus those kept so far."""
    kept = []
    for v in vectors:
        if _sympy_matrix(list(start) + kept + [v], n).rank() > len(start) + len(kept):
            kept.append(v)
    return kept


def test_kernel_basis_matches_sympy_nullspace():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(0, 7)
        rows = _oracle_rows(rng, rng.randint(0, 6), n)
        expected = tuple(tuple(Fraction(int(x.p), int(x.q)) for x in v)
                         for v in _sympy_matrix(rows, n).nullspace())
        assert kernel_basis(Mat(rows, cols=n)).basis == expected, rows


def test_from_spanning_keeps_what_greedy_sympy_rank_keeps():
    rng = random.Random(103)
    for _ in range(150):
        n = rng.randint(0, 6)
        vectors = _oracle_rows(rng, rng.randint(0, 8), n)
        kept = SubspacePresentation.from_spanning(n, vectors).basis
        assert kept == tuple(_greedy_oracle([], vectors, n)), vectors


def test_quotient_complement_matches_greedy_sympy_rank():
    rng = random.Random(107)
    for _ in range(150):
        n = rng.randint(1, 6)
        z = SubspacePresentation.from_spanning(n, _oracle_rows(rng, rng.randint(0, 7), n))
        if z.dim and rng.random() < 0.7:
            vectors = _oracle_rows(rng, rng.randint(0, z.dim + 1), z.dim)
            b = SubspacePresentation.from_spanning(n, [z.combine(c) for c in vectors])
        else:
            b = SubspacePresentation.from_spanning(n, _oracle_rows(rng, rng.randint(0, 3), n))
        contained = _sympy_matrix(list(z.basis) + list(b.basis), n).rank() == z.dim
        if not contained:
            with pytest.raises(MembershipError):
                quotient_presentation(z, b)
            continue
        complement = quotient_presentation(z, b).complement
        assert complement == tuple(_greedy_oracle(b.basis, z.basis, n)), (z, b)


def _dense_reduce_rows(rows):
    """Reference for `_reduce_rows` with the dense row update: the pivot row
    is normalised in full and every other row updated in full."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def test_sparse_row_update_matches_the_dense_update():
    # same pivots and same entries by value on sparse, dense and rank-deficient
    # matrices whose zeros include Fraction(0, 7) and the int 0
    rng = random.Random(109)
    deficient = 0
    for t in range(240):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        density = (0.15, 0.5, 1.0)[t % 3]
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density
                 else rng.choice((Fraction(0, 7), 0, _ZERO)) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 1 and t % 2:  # append combinations of earlier rows
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(rows, 2)
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                rows.insert(rng.randint(0, len(rows)), [x - c * y for x, y in zip(a, b)])
        dense, sparse = [list(r) for r in rows], [list(r) for r in rows]
        pivots = _dense_reduce_rows(dense)
        assert _reduce_rows(sparse) == pivots, rows
        assert sparse == dense, rows
        deficient += len(pivots) < min(len(rows), ncols)
    assert deficient >= 60, deficient


# -- the integer-scaled kernels against their Fraction forms -----------------


def _kernel_entry(rng):
    """A rational of each kind the kernels are given: the shared zero, other
    zeros, plain ints, small fractions and denominators above 200 bits."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice((_ZERO, Fraction(0, 7), 0))
    if kind == 1:
        return rng.randint(-4, 4)
    if kind == 5:
        return Fraction(rng.randint(-10 ** 70, 10 ** 70), rng.randint(2 ** 200, 2 ** 210))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _kernel_matrix(rng, rows, cols):
    sparse = rng.random() < 0.5
    return Mat([[_kernel_entry(rng) if not sparse or rng.random() < 0.3 else 0
                 for _ in range(cols)] for _ in range(rows)], cols=cols)


def _with_other_zeros(rng, v):
    """v with its zeros replaced by Fraction(0, 7) or 0 and its integral
    entries by ints, at random."""
    return tuple(rng.choice((x, Fraction(0, 7), 0)) if x == 0
                 else int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in v)


def test_zero_test_agrees_with_the_product():
    rng = random.Random(131)
    verdicts = []
    for _ in range(300):
        a = _kernel_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
        kernel = kernel_basis(a).basis
        if kernel and rng.random() < 0.6:
            v = [Fraction(0)] * a.cols
            for k in kernel:
                c = _kernel_entry(rng)
                v = [x + c * y for x, y in zip(v, k)]
            if rng.random() < 0.3:  # leave the kernel
                j = rng.randrange(a.cols)
                v[j] += Fraction(1, 2 ** 205 + 3)
        else:
            v = [_kernel_entry(rng) for _ in range(a.cols)]
        v = _with_other_zeros(rng, v)
        expected = is_zero_vec(a.apply(v))
        sparse, w = _as_sparse(a), _scaled(v)[0]
        assert sparse._annihilates(w) == expected, (a, v)
        # again, on the cached integer rows, with v over another denominator
        assert sparse._annihilates([-3 * x for x in w]) == expected
        verdicts.append(expected)
    assert 60 <= verdicts.count(True) <= 240, verdicts.count(True)
    with pytest.raises(ShapeError):
        _as_sparse(Mat.identity(2))._annihilates((1,))


def test_product_agrees_with_the_column_form():
    rng = random.Random(137)
    for _ in range(200):
        n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a, b = _kernel_matrix(rng, n, k), _kernel_matrix(rng, k, m)
        columns = Mat.from_columns([a.apply(b.column(j)) for j in range(m)], rows=n)
        product = a @ b
        assert (product.rows, product.cols) == (n, m)
        assert product.data == columns.data, (a, b)
    with pytest.raises(ShapeError):
        Mat.identity(2) @ Mat.identity(3)


def _combine_loop(pres, coeffs):
    """`SubspacePresentation.combine` as one Fraction vector per coefficient."""
    out = list(zero_vec(pres.ambient_dim))
    for c, b in zip(coeffs, pres.basis):
        if c != 0:
            out = [a + c * x for a, x in zip(out, b)]
    return tuple(out)


def test_combine_agrees_with_the_fraction_loop():
    rng = random.Random(139)
    for _ in range(200):
        n = rng.randint(1, 6)
        pres = SubspacePresentation.from_spanning(
            n, [[_kernel_entry(rng) for _ in range(n)] for _ in range(rng.randint(0, n + 1))])
        for _ in range(3):
            coeffs = tuple(_kernel_entry(rng) for _ in range(pres.dim))
            got = pres.combine(coeffs)
            assert got == _combine_loop(pres, coeffs), (pres.basis, coeffs)
            assert all(x is _ZERO for x in got if x == 0)
    with pytest.raises(ShapeError):
        SubspacePresentation(2, [(1, 0)]).combine(())


def test_results_of_the_integer_kernels_hold_only_the_shared_zero():
    rng = random.Random(149)
    zeros = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        a, b = _kernel_matrix(rng, n, n), _kernel_matrix(rng, n, n)
        c = _kernel_entry(rng)
        for m in (a @ b, a + b, a - b, a - a, b + b.scale(-1), a.scale(c), a.scale(-1)):
            for row in m.data:
                for x in row:
                    assert isinstance(x, Fraction)
                    if x == 0:
                        assert x is _ZERO, m
                        zeros += 1
    assert zeros >= 300, zeros


# -- the integer stored form of Mat against plain Fraction arithmetic ---------


_RATIONALS = st.one_of(st.just(0), st.integers(-6, 6),
                       st.fractions(min_value=-9, max_value=9, max_denominator=12),
                       st.fractions(max_denominator=2 ** 70))


def _grid(data, rows, cols):
    """Dense rows of Fractions, all zero one time in four."""
    if data.draw(st.integers(0, 3)) == 0:
        return [[Fraction(0)] * cols for _ in range(rows)]
    return [[Fraction(data.draw(_RATIONALS)) for _ in range(cols)] for _ in range(rows)]


def _as_tuples(grid):
    return tuple(map(tuple, grid))


def _check_stored_form(m, grid, cols):
    """m holds the entries of `grid` as integer rows over one positive
    denominator in lowest terms, the zero matrix over 1, and equals, with
    the same hash, the matrix the public constructor builds from `grid`."""
    assert (m.rows, m.cols) == (len(grid), cols)
    assert all(type(x) is int for row in m.nums for x in row) and type(m.den) is int and m.den > 0
    assert all(len(row) == cols for row in m.nums)
    assert gcd(m.den, *chain.from_iterable(m.nums)) == 1, (m.nums, m.den)
    assert m.data == _as_tuples(grid)
    assert all(x is _ZERO for row in m.data for x in row if x == 0)
    twin = Mat(grid, cols=cols)
    assert m == twin and hash(m) == hash(twin)


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(data=st.data())
def test_mat_agrees_with_plain_fraction_arithmetic(data):
    """`@`, `+`, `-`, `scale`, `==`, `hash`, `apply`, `column` and `inverse`
    on the integer form give what Fraction arithmetic gives, on shapes
    with zero rows or columns too, and every result is in lowest terms."""
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, a2, b = _grid(data, n, k), _grid(data, n, k), _grid(data, k, m)
    ma, ma2, mb = Mat(a, cols=k), Mat(a2, cols=k), Mat(b, cols=m)
    for built, grid, cols in ((ma, a, k), (ma2, a2, k), (mb, b, m)):
        _check_stored_form(built, grid, cols)
    c = Fraction(data.draw(_RATIONALS))
    _check_stored_form(ma @ mb, dense_oracle.product(a, b, m), m)
    _check_stored_form(ma + ma2, [[x + y for x, y in zip(r, s)] for r, s in zip(a, a2)], k)
    _check_stored_form(ma - ma2, [[x - y for x, y in zip(r, s)] for r, s in zip(a, a2)], k)
    _check_stored_form(ma - ma, [[Fraction(0)] * k for _ in a], k)
    _check_stored_form(ma.scale(c), [[c * x for x in r] for r in a], k)
    assert (ma == ma2) == (a == a2) and (ma == mb) == (n == k and k == m and a == b)
    assert (ma + ma2 == ma2 + ma) and hash(ma + ma2) == hash(ma2 + ma)
    v = [Fraction(data.draw(_RATIONALS)) for _ in range(k)]
    assert ma.apply(v) == tuple(r[0] for r in dense_oracle.product(a, [[x] for x in v], 1))
    assert all(ma.column(j) == tuple(r[j] for r in a) for j in range(k))
    square = _grid(data, n, n)
    expected = dense_oracle.inverse(square)
    got = inverse(Mat(square, cols=n))
    assert (got is None) == (expected is None), square
    if got is not None:
        _check_stored_form(got, expected, n)


# -- the component split against the dense whole-matrix oracle ----------------


def _planted_blocks(rng):
    """A sparse matrix of 1-4 planted blocks under random row and column
    permutations, with empty rows and columns mixed in; the first block of
    two or more rows has its last row a combination of the others, so it is
    rank-deficient."""
    blocks = []
    for b in range(rng.randint(1, 4)):
        h, w = rng.randint(1, 5), rng.randint(1, 5)
        block = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else _ZERO
                  for _ in range(w)] for _ in range(h)]
        if b == 0 and h > 1:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(h - 1)]
            block[-1] = [sum((c * r[j] for c, r in zip(coeffs, block)), Fraction(0)) for j in range(w)]
        blocks.append(block)
    ncols = sum(len(b[0]) for b in blocks) + rng.randint(0, 2)
    rows, offset = [], 0
    for block in blocks:
        for r in block:
            rows.append([_ZERO] * offset + r + [_ZERO] * (ncols - offset - len(r)))
        offset += len(block[0])
    rows += [[_ZERO] * ncols for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    order = list(range(ncols))
    rng.shuffle(order)
    return Mat([[r[j] for j in order] for r in rows], cols=ncols)


def _oracle_coordinates(sub, complement, v):
    """The complement part of the solution x of [B | C]·x = v, by one
    elimination of the whole augmented matrix."""
    columns = list(sub) + list(complement)
    rows = [[c[i] for c in columns] + [v[i]] for i in range(len(v))]
    pivots = _reduce_rows(rows)
    assert pivots == list(range(len(columns)))  # independent columns, v in their span
    return tuple(rows[r][-1] for r in range(len(sub), len(columns)))


def test_component_split_matches_the_dense_oracle():
    rng = random.Random(151)
    shapes = {"interleaved": 0, "deficient": 0, "classes": 0}
    for _ in range(150):
        a = _planted_blocks(rng)
        n = a.cols
        dense = [list(r) for r in a.data]
        pivots = _reduce_rows(dense)
        reduced = _as_sparse(a)._echelon()
        assert sorted(reduced) == pivots and rank(a) == len(pivots), a
        kernel = kernel_basis(a)
        assert kernel.basis == dense_kernel_basis(a), a
        shapes["deficient"] += len(pivots) < min(a.rows, n)
        parts = _as_sparse(a)._components()
        free = [[f for f in cols if f not in reduced] for _, cols in parts]
        by_component = [f for fs in free for f in fs]
        shapes["interleaved"] += by_component != sorted(by_component)

        columns = [a.column(j) for j in range(n)]
        sparse, at = _as_sparse(a), Mat.from_columns(list(a.data), rows=n)
        assert sparse.T.T == sparse and sparse.T.dense() == tuple(columns), a
        assert (sparse @ sparse.T).dense() == (a @ at).data, a
        assert (sparse.T @ sparse).dense() == (at @ a).data, a
        span = SubspacePresentation.from_spanning(a.rows, columns)
        assert span.basis == tuple(columns[j] for j in oracle_pivots(columns, a.rows)), a

        if not kernel.dim:
            continue
        take = rng.sample(kernel.basis, rng.randint(0, kernel.dim))
        b = SubspacePresentation.from_spanning(n, [
            kernel.combine(tuple(Fraction(rng.randint(-2, 2)) for _ in range(kernel.dim)))
            for _ in take] + take[:1])
        q = quotient_presentation(kernel, b)
        kept = oracle_pivots(b.basis + kernel.basis, n)[b.dim:]
        assert q.complement == tuple(kernel.basis[j - b.dim] for j in kept), a
        coords, annihilator = q.coordinate_map
        for _ in range(3):
            v = kernel.combine(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                     for _ in range(kernel.dim)))
            assert q.coordinates_of(v) == _oracle_coordinates(b.basis, q.complement, v), a
            shapes["classes"] += q.dim > 0
        ker_a = dense_kernel_basis(annihilator)
        assert len(ker_a) == kernel.dim, a
        assert len(oracle_pivots(ker_a + kernel.basis, n)) == kernel.dim, a
    assert shapes["interleaved"] >= 15 and shapes["deficient"] >= 100 and shapes["classes"] >= 200, shapes


# -- the integer elimination kernel against the elimination over Q ------------


def _is_multiple(got, want):
    """Whether the row `got` ({column: value}) is a nonzero multiple of `want`."""
    if got.keys() != want.keys():
        return False
    if not want:
        return True
    ratio = Fraction(got[next(iter(want))]) / want[next(iter(want))]
    return ratio != 0 and all(got[j] == ratio * x for j, x in want.items())


def _check_kernel_against_the_oracle(s):
    """On each component of s, with and without the carried identity block:
    the kernel's pivots are the Fraction elimination's on the dense rows of
    s, and each of its rows is a nonzero multiple of the row there;
    `_echelon`, whose rows divided by their pivot entries are the reduced
    rows, is the oracle's reduced form.  `_factor` then has the oracle's
    pivots and P, A's rows are nonzero multiples of the oracle's (so ker A
    is the same)."""
    m, reduced, dense = s.cols, {}, s.dense()
    found, rest = [], [((i, Fraction(1)),) for i, row in enumerate(dense) if not any(row)]
    for carry in (False, True):
        for rows, cols in s._components():
            assert cols == sorted({j for i in rows for j, x in enumerate(dense[i]) if x})
            part = [dict(s.nums[i] + (((m + i, s.dens[i]),) if carry else ())) for i in rows]
            want = [{j: x for j, x in enumerate(dense[i]) if x} | ({m + i: Fraction(1)} if carry else {})
                    for i in rows]
            pivots = dense_oracle.reduce_part(want, cols)
            assert linalg._reduce_part(part, cols) == pivots, (s, cols)
            assert all(_is_multiple(g, w) for g, w in zip(part, want)), (s, cols)
            if carry:
                tails = [tuple(sorted((j - m, x) for j, x in row.items() if j >= m)) for row in want]
                found += zip(pivots, tails)
                rest += tails[len(pivots):]
            else:
                reduced.update(zip(pivots, want))
    assert {c: {j: Fraction(x, row[c]) for j, x in row.items()} for c, row in s._echelon().items()} == reduced
    found.sort()
    pivots, p, a = s._factor()
    assert pivots == [c for c, _ in found] and p == _from_rows([r for _, r in found], s.rows), s
    assert a.rows == len(rest) and all(_is_multiple(dict(g), dict(w)) for g, w in zip(a.nums, rest)), s
    assert dense_kernel_basis(a) == dense_kernel_basis(_from_rows(rest, s.rows)), s


def _check_sparse_stored_form(m):
    """Every row of m in lowest terms over a positive denominator, at
    increasing columns, with no zero numerator."""
    assert len(m.nums) == len(m.dens) == m.rows
    for row, d in zip(m.nums, m.dens):
        assert d > 0 and gcd(d, *(x for _, x in row)) == 1, (m, row, d)
        assert all(x != 0 for _, x in row) and all(j < k for (j, _), (k, _) in zip(row, row[1:])), (m, row)


# nonzero entries of either sign over small and 70-bit denominators; zero one
# time in three for _ENTRY
_NONZERO = st.builds(Fraction, st.one_of(st.integers(-9, -1), st.integers(1, 9)),
                     st.sampled_from((1, 1, 2, 3, 2 ** 70 - 25)))
_ENTRY = st.one_of(st.just(Fraction(0)), _NONZERO, _NONZERO)


@st.composite
def _planted_sparse(draw):
    """A sparse matrix of planted blocks under row and column permutations,
    with empty rows and columns mixed in: a one-row block and a one-column
    block with every entry nonzero, then 0-3 blocks of 1-5 x 1-5, each with
    its last row a combination of the others one time in two."""
    blocks = [[[draw(_NONZERO) for _ in range(draw(st.integers(1, 4)))]],
              [[draw(_NONZERO)] for _ in range(draw(st.integers(1, 4)))]]
    for _ in range(draw(st.integers(0, 3))):
        h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        block = [[draw(_ENTRY) for _ in range(w)] for _ in range(h)]
        if h > 1 and draw(st.booleans()):
            coeffs = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))) for _ in range(h - 1)]
            block[-1] = [sum((c * r[j] for c, r in zip(coeffs, block)), Fraction(0)) for j in range(w)]
        blocks.append(block)
    ncols = sum(len(b[0]) for b in blocks) + draw(st.integers(0, 2))
    rows, offset = [], 0
    for block in blocks:
        rows += [[(offset + j, Fraction(x)) for j, x in enumerate(r) if x] for r in block]
        offset += len(block[0])
    rows += [[] for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(ncols)))
    return _from_rows([[(order[j], x) for j, x in r] for r in rows], ncols)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(s=_planted_sparse())
def test_integer_kernel_agrees_with_the_elimination_over_q(s):
    """Planted blocks with empty rows, one-row and one-column components,
    negative pivots and 70-bit denominators: the kernel against
    `dense_oracle.reduce_part`, and `rank`, `kernel_basis` and `inverse` of
    a `Mat` against the sparse ones and the oracle."""
    _check_kernel_against_the_oracle(s)
    _, p, a = s._factor()
    for m in (s, s.T, s @ s.T, p, a, kernel_basis(s).vectors):
        _check_sparse_stored_form(m)
    assert s.T.T == s and hash(s.T.T) == hash(s)
    rows = dense_oracle.dense_rows(s)
    assert s.dense() == tuple(map(tuple, rows))
    columns = [[r[j] for r in rows] for j in range(s.cols)]
    assert (s @ s.T).dense() == tuple(map(tuple, dense_oracle.product(rows, columns, s.rows)))
    dense = Mat(s.dense(), cols=s.cols)
    assert rank(dense) == len(s._echelon())
    assert kernel_basis(dense) == kernel_basis(s)
    k, rows = min(s.rows, s.cols), s.dense()
    square = Mat([[x + (i == j) for j, x in enumerate(rows[i][:k])] for i in range(k)], cols=k)
    expected = dense_oracle.inverse([list(r) for r in square.data])
    got = inverse(square)
    assert (got is None) == (expected is None)
    assert got is None or got.data == tuple(map(tuple, expected))


def _from_rows(rows, cols):
    """The `SparseMat` with these (column, value) rows, each scaled once to
    integers by `_sparse_vecs`."""
    return linalg._sparse_vecs([linalg._spread(row, cols) for row in rows], cols)


def _uncached(m):
    """A copy of the sparse operator m that has kept nothing yet."""
    return SparseMat(m.nums, m.dens, m.cols)


def test_integer_kernel_agrees_with_the_elimination_over_q_on_the_pin_corpus(pin_corpus):
    """d¹ and the Z² constraint rows of both complexes, and the stacked
    [B | Z] that presents H², of every pin-corpus extension; and two fixed
    matrices with a negative pivot, 70-bit denominators and a dependent row."""
    big = Fraction(2 ** 70 + 1, 2 ** 69 + 3)
    operators = [
        _from_rows((((0, Fraction(-3)), (2, big)), ((0, Fraction(5, 7)), (1, -big), (2, Fraction(1))),
                    ((1, Fraction(2)), (2, Fraction(-1, 3))), ()), 4),
        _from_rows((((1, -big),), ((0, Fraction(2)), (1, big)), ((0, Fraction(-4)), (1, -2 * big))), 2),
    ]
    for _, ext in pin_corpus:
        for cx in (ext.cochains_g, ext.cochains_e):
            z2, b2 = cx.z2, cx.b2
            stacked = linalg._stacked(b2.vectors, z2.vectors).T
            operators += [_uncached(cx.d1), _uncached(cx.cocycle2_constraints), stacked]
    for s in operators:
        _check_kernel_against_the_oracle(s)
