"""Exact linear algebra over Z, Q and F_p.

Ranks and Z torsion come from one sparse elimination per matrix: over a
field every nonzero entry is a pivot; over Z only entries +-1 are, and the
small core that is left goes to a dense invariant-factor routine that
keeps no transforms.  Smith normal form with transforms (the steps of
sympy's, so that its transforms are reproduced without importing it),
saturated integer kernels and Gaussian elimination over Q / F_p serve the
explicit cycle bases that homology representatives and class coordinates
need.

Dense matrices are plain lists of rows; sparse matrices are lists of
columns, each a dict row index -> nonzero entry.  Everything is arbitrary
precision.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .rings import ZZ, QQ


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    m, k = len(a), len(b)
    n = len(b[0]) if k else 0
    out = zeros(m, n)
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(n):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def smith_normal_form(mat):
    """Return (D, U, V) with D = U * mat * V, U and V unimodular, and the
    nonzero diagonal of D a divisibility chain.  mat is a list of rows of
    exact integers; shapes may be degenerate (zero rows or columns).

    The steps are those of sympy's smith_normal_decomp (sympy 1.14), so U
    and V, and the homology representatives built from them, are the ones
    it gives.  Level k moves a nonzero entry to (k, k) and clears row and
    column k by Bezout steps; then, deepest level first, each level makes
    its pivot divide the invariants below it, or rotates a zero pivot to
    the end.  Both transforms are updated in place, in the order in which
    sympy composes them.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    if m == 0 or n == 0:
        return zeros(m, n), identity(m), identity(n)
    a = [[int(x) for x in row] for row in mat]
    u, v = identity(m), identity(n)
    levels = min(m, n)
    for k in range(levels):
        _clear_corner(a, u, v, k)
    invs = []
    for k in reversed(range(levels)):
        p = a[k][k]
        if not p:
            if m - k > 1:
                u[k:] = u[k + 1:] + [u[k]]
            if n - k > 1:
                for row in v:
                    row[k:] = row[k + 1:] + [row[k]]
            invs.append(0)
            continue
        invs.insert(0, p)
        for i in range(len(invs) - 1):
            x, y = invs[i], invs[i + 1]
            if not y or not y % x:
                break
            s, t, g = _gcdex(x, y)
            alpha, beta = x // g, y // g
            r = k + i
            _rows(u, r, r + 1, 1, 0, s, 1)
            _cols(v, r, r + 1, 1, t, 0, 1)
            _rows(u, r, r + 1, 1, -alpha, 0, 1)
            _cols(v, r, r + 1, 1, 0, -beta, 1)
            _rows(u, r, r + 1, 0, 1, -1, 0)
            invs[i], invs[i + 1] = g, y * alpha
    d = zeros(m, n)
    for i, x in enumerate(invs):
        d[i][i] = x
    return d, u, v


def _clear_corner(a, u, v, k):
    """One level of smith_normal_form: a nonzero entry of a[k:][k:] to
    (k, k), then row and column k cleared below and right of it, with the
    matching row operations on u and column operations on v."""
    m, n = len(a), len(a[0])
    if not a[k][k]:
        i = next((i for i in range(k + 1, m) if a[i][k]), None)
        if i is not None:
            a[k], a[i] = a[i], a[k]
            u[k], u[i] = u[i], u[k]
        else:
            j = next((j for j in range(k + 1, n) if a[k][j]), None)
            if j is not None:
                for mat in (a, v):
                    for row in mat:
                        row[k], row[j] = row[j], row[k]
    while any(a[k][k + 1:]) or any(a[i][k] for i in range(k + 1, m)):
        p = a[k][k]
        for i in range(k + 1, m):
            x = a[i][k]
            if not x:
                continue
            q, r = divmod(x, p)
            if not r:
                ops = (1, 0, -q, 1)
            else:
                s, t, g = _gcdex(p, x)
                ops = (s, t, x // g, -(p // g))
                p = g
            _rows(a, k, i, *ops, start=k)
            _rows(u, k, i, *ops)
        p = a[k][k]
        for j in range(k + 1, n):
            x = a[k][j]
            if not x:
                continue
            q, r = divmod(x, p)
            if not r:
                ops = (1, 0, -q, 1)
            else:
                s, t, g = _gcdex(p, x)
                ops = (s, t, x // g, -(p // g))
                p = g
            _cols(a, k, j, *ops, start=k)
            _cols(v, k, j, *ops)
    if a[k][k] < 0:
        a[k][k] = -a[k][k]
        u[k] = [-x for x in u[k]]


def _rows(mat, i, j, a, b, c, d, start=0):
    """Rows i and j of mat become a*r_i + b*r_j and c*r_i + d*r_j, from
    column start on (the columns before it are zero in both)."""
    ri, rj = mat[i], mat[j]
    mat[i] = ri[:start] + [a * x + b * y for x, y in zip(ri[start:], rj[start:])]
    mat[j] = rj[:start] + [c * x + d * y for x, y in zip(ri[start:], rj[start:])]


def _cols(mat, i, j, a, b, c, d, start=0):
    """Columns i and j of mat become a*c_i + b*c_j and c*c_i + d*c_j,
    from row start on (the rows before it are zero in both)."""
    for row in mat[start:]:
        x, y = row[i], row[j]
        row[i] = a * x + b * y
        row[j] = c * x + d * y


def _gcdex(a, b):
    """(s, t, g) with s*a + t*b = g = gcd(a, b), by the extended Euclidean
    algorithm on |a| and |b|, with sympy's choice of s and t."""
    if not a or not b:
        g = abs(a) or abs(b)
        if not g:
            return 0, 0, 0
        return a // g, b // g, g
    sa, a = (-1, -a) if a < 0 else (1, a)
    sb, b = (-1, -b) if b < 0 else (1, b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * sa, y * sb, a


def invariant_factors(mat):
    """The nonzero invariant factors of an integer matrix, in divisibility
    order, without transforms."""
    units, core = _eliminate(sparse_columns(mat), ZZ)
    return [1] * units + _core_factors(core)


def sparse_columns(mat):
    """The columns of a dense matrix as dicts row index -> nonzero entry."""
    cols = [{} for _ in range(len(mat[0]) if mat else 0)]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def rank_and_torsion(cols, ring):
    """Rank of a matrix given by sparse columns, and its invariant factors
    other than 0 and 1 (always empty over a field)."""
    units, core = _eliminate(cols, ring)
    factors = _core_factors(core)
    return units + len(factors), [d for d in factors if d != 1]


def product_is_zero(a_cols, b_cols, ring):
    """Whether A * B = 0 for matrices given by sparse columns."""
    p = ring.p if ring.kind == "Fp" else None
    for col in b_cols:
        acc = {}
        for t, y in col.items():
            for i, x in a_cols[t].items():
                acc[i] = acc.get(i, 0) + x * y
        if any((v % p if p else v) for v in acc.values()):
            return False
    return True


def _eliminate(cols, ring):
    """Sparse elimination on a copy of the columns.  Over Z only entries
    +-1 are pivots; over a field every nonzero entry is.  Each pivot
    clears its row from every other column, so the matrix splits as a
    unit block plus the columns left over.  Returns (number of pivots,
    leftover columns), the leftover columns having no unit entry (none
    over a field).

    The next pivot column is the shortest one, and within it the pivot row
    with the fewest other entries, which keeps fill-in low."""
    p = ring.p if ring.kind == "Fp" else None
    integer = ring.kind == "Z"
    live = {}
    where = {}
    for j, col in enumerate(cols):
        col = {i: x % p for i, x in col.items() if x % p} if p else dict(col)
        if col:
            live[j] = col
            for i in col:
                where.setdefault(i, set()).add(j)
    version = dict.fromkeys(live, 0)
    heap = [(len(col), j, 0) for j, col in live.items()]
    heapify(heap)
    pivots = 0
    while heap:
        _, j, ver = heappop(heap)
        if version.get(j) != ver:
            continue
        col = live[j]
        rows = [i for i, x in col.items() if x == 1 or x == -1] \
            if integer else col
        if not rows:
            continue
        i = min(rows, key=lambda r: len(where[r]))
        inv = ring.inv(col[i])
        del live[j], version[j]
        for r in col:
            where[r].discard(j)
        for t in list(where[i]):
            other = live[t]
            f = other[i] * inv
            for r, x in col.items():
                y = other.get(r, 0) - f * x
                if p:
                    y %= p
                if y:
                    if r not in other:
                        where[r].add(t)
                    other[r] = y
                elif r in other:
                    del other[r]
                    where[r].discard(t)
            if other:
                version[t] += 1
                heappush(heap, (len(other), t, version[t]))
            else:
                del live[t], version[t]
        pivots += 1
    return pivots, list(live.values())


def _core_factors(cols):
    """Nonzero invariant factors, in divisibility order, of the integer
    matrix with the given sparse columns: dense elimination on the
    smallest entry by absolute value, with no transforms kept."""
    index = {}
    for col in cols:
        for i in col:
            index.setdefault(i, len(index))
    a = []
    for col in cols:
        row = [0] * len(index)
        for i, x in col.items():
            row[index[i]] = x
        a.append(row)
    out = []
    while True:
        a = [row for row in a if any(row)]
        if not a:
            return out
        keep = [j for j in range(len(a[0])) if any(row[j] for row in a)]
        a = [[row[j] for j in keep] for row in a]
        _, pi, pj = min((abs(x), i, j) for i, row in enumerate(a)
                        for j, x in enumerate(row) if x)
        piv = a[pi][pj]
        prow = a[pi]
        for i, row in enumerate(a):
            if i != pi and row[pj]:
                q = row[pj] // piv
                a[i] = [x - q * y for x, y in zip(row, prow)]
        for j in range(len(prow)):
            if j != pj and prow[j]:
                q = prow[j] // piv
                for row in a:
                    row[j] -= q * row[pj]
        prow = a[pi]
        if any(row[pj] for i, row in enumerate(a) if i != pi) or \
                any(x for j, x in enumerate(prow) if j != pj):
            continue
        bad = next((row for i, row in enumerate(a)
                    if i != pi and any(x % piv for x in row)), None)
        if bad is not None:
            a[pi] = [x + y for x, y in zip(prow, bad)]
            continue
        out.append(abs(piv))
        del a[pi]
        for row in a:
            del row[pj]


def kernel_saturated(mat):
    """Columns spanning ker(mat) over Z as a direct summand of the lattice.

    Row-reduces the augmented transpose [mat^T | I] with unimodular row
    operations (Bezout pivots); the identity-block halves of the rows whose
    mat^T half vanished form a basis, saturated because the accumulated
    transform is unimodular.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    aug = [[mat[i][j] for i in range(m)] +
           [1 if t == j else 0 for t in range(n)] for j in range(n)]
    width = m + n
    r = 0
    for col in range(m):
        piv = None
        for i in range(r, n):
            x = aug[i][col]
            if x and (piv is None or abs(x) < abs(aug[piv][col])):
                piv = i
                if abs(x) == 1:
                    break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(r + 1, n):
            b = aug[i][col]
            if not b:
                continue
            a = aug[r][col]
            if b % a == 0:
                q = b // a
                ri, rr = aug[i], aug[r]
                aug[i] = [ri[t] - q * rr[t] for t in range(width)]
            else:
                g = gcd(a, b)
                # Bezout coefficients for a unimodular 2x2 block
                x0, x1 = 1, 0
                y0, y1 = 0, 1
                aa, bb = a, b
                while bb:
                    q, aa, bb = aa // bb, bb, aa % bb
                    x0, x1 = x1, x0 - q * x1
                    y0, y1 = y1, y0 - q * y1
                u, v = -(b // g), a // g
                rr, ri = aug[r], aug[i]
                new_r = [x0 * rr[t] + y0 * ri[t] for t in range(width)]
                new_i = [u * rr[t] + v * ri[t] for t in range(width)]
                aug[r], aug[i] = new_r, new_i
        r += 1
        if r == n:
            break
    return [aug[i][m:] for i in range(r, n)]


def integer_inverse(mat):
    """Inverse of a unimodular integer matrix, exactly."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    _gauss(aug, n)
    out = []
    for i in range(n):
        row = aug[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append([int(x) for x in row])
    return out


def _gauss(aug, ncols):
    """Full Gauss-Jordan on the first ncols columns of an augmented
    Fraction matrix; requires those columns to be nonsingular."""
    m = len(aug)
    for col in range(ncols):
        piv = next(i for i in range(col, m) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(m):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]


def rref(mat, ring):
    """Reduced row echelon form over a field ring.  Returns (R, pivots)."""
    rows = [[ring.norm(x) for x in row] for row in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if not ring.is_zero(rows[i][col]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ring.inv(rows[r][col])
        rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and not ring.is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [ring.add(a, ring.neg(ring.mul(f, b)))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank_field(mat, ring):
    _, pivots = rref(mat, ring)
    return len(pivots)


def kernel_field(mat, ring):
    """Columns spanning ker(mat) over a field, in deterministic echelon form."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[ring.one if i == j else ring.zero for i in range(n)] for j in range(n)]
    r, pivots = rref(mat, ring)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    cols = []
    for j in free:
        col = [ring.zero] * n
        col[j] = ring.one
        for i, pc in enumerate(pivots):
            col[pc] = ring.neg(r[i][j])
        cols.append(col)
    return cols


def solve_field(mat, rhs_cols, ring):
    """Solve mat * X = rhs for each rhs column over a field.
    Returns list of solution columns; raises if any system is inconsistent."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    k = len(rhs_cols)
    aug = [[ring.norm(mat[i][j]) for j in range(n)] + [ring.norm(rhs_cols[t][i]) for t in range(k)]
           for i in range(m)]
    r, pivots = rref(aug, ring)
    for i in range(len(pivots)):
        if pivots[i] >= n:
            raise ValueError("inconsistent linear system")
    sols = []
    for t in range(k):
        col = [ring.zero] * n
        for i, pc in enumerate(pivots):
            col[pc] = r[i][n + t]
        sols.append(col)
    # rows of rank beyond pivots are zero by rref; consistency is guaranteed
    # unless a pivot landed in the rhs block, checked above
    return sols


def solve_integer(mat, rhs_cols):
    """Solve mat * X = rhs over Q and verify integrality of the solutions."""
    sols = solve_field(mat, rhs_cols, QQ)
    out = []
    for col in sols:
        if any(Fraction(x).denominator != 1 for x in col):
            raise ValueError("solution is not integral")
        out.append([int(x) for x in col])
    return out
