"""Exact linear algebra over Z, Q and F_p.

Ranks, Z torsion and kernels come from one sparse elimination per
matrix: over a field every nonzero entry is a pivot; over Z only entries
+-1 are, and the small core that is left goes to a dense invariant-factor
routine (ranks) or to kernel_saturated (kernels).  Dense cycle bases come
from kernel_saturated and kernel_field (rref), and homology
representatives from Smith normal form with transforms (the steps of
sympy's, so that its transforms are reproduced without importing it).

Every exact solve A x = b goes through one Solver: built once on the
independent columns of A, as dicts over ordered keys, in an echelon form
(bezout_echelon over Z, sparse over a field), it gives each b's
coordinates by substitution.  solve_field, solve_integer and
integer_inverse are fronts on it for dense matrices.

Dense matrices are plain lists of rows; sparse matrices are lists of
columns, each a dict row key -> nonzero entry.  Everything is arbitrary
precision.
"""

from heapq import heapify, heappop, heappush
from math import gcd

from .rings import ZZ


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def rank_and_torsion(cols, ring):
    """Rank of a matrix given by sparse columns, and its invariant factors
    other than 0 and 1 (always empty over a field)."""
    pivots, core = _eliminate(cols, ring)
    factors = _core_factors(core.values())
    return len(pivots) + len(factors), [d for d in factors if d != 1]


def kernel(cols, ring):
    """A basis of the kernel of the matrix with the given sparse columns,
    as (free, vectors), each vector a dict column index -> nonzero entry.
    Each column that _eliminate clears gives its transform, which is 1 at
    that column and 0 at every other free column (only pivot columns are
    added into a column): these are the first len(free) vectors.  Over Z
    a kernel_saturated basis of the core's kernel follows, carried back
    through the core's transforms; as these are unimodular, the whole
    basis is saturated."""
    log = {}
    pivots, core = _eliminate(cols, ring, log)
    done = set(pivots).union(core)
    free = [j for j in range(len(cols)) if j not in done]
    vecs = [log.get(j, {j: ring.one}) for j in free]
    if core:
        order = list(core)
        rows = dict.fromkeys(i for j in order for i in core[j])
        for x in kernel_saturated([[core[j].get(i, 0) for j in order]
                                   for i in rows]):
            v = {}
            for j, c in zip(order, x):
                if c:
                    add_multiple(v, log.get(j, {j: ring.one}), c, ring)
            vecs.append(v)
    return free, vecs


def add_multiple(dst, src, f, ring):
    """dst += f * src for dicts key -> nonzero coefficient, in place,
    dropping the entries that become zero."""
    p = ring.p if ring.kind == "Fp" else None
    for k, x in src.items():
        y = dst.get(k, 0) + f * x
        if p:
            y %= p
        if y:
            dst[k] = y
        else:
            dst.pop(k, None)


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


def _eliminate(cols, ring, log=None):
    """Sparse elimination on a copy of the columns.  Over Z only entries
    +-1 are pivots; over a field every nonzero entry is.  Each pivot
    clears its row from every other column, so the matrix splits as a
    unit block plus the columns left over.  Returns (pivot columns,
    leftover columns as a dict column index -> column), the leftover
    columns having no unit entry (none over a field).

    If log is a dict, it gets the transform of each column that a step
    changes: the combination of given columns (a dict column index ->
    coefficient) that it has become.

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
    pivots = []
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
            if log is not None:
                add_multiple(log.setdefault(t, {t: ring.one}),
                             log.get(j, {j: ring.one}), -f, ring)
            if other:
                version[t] += 1
                heappush(heap, (len(other), t, version[t]))
            else:
                del live[t], version[t]
        pivots.append(j)
    return pivots, live


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
        if len(keep) < len(a[0]):
            a = [[row[j] for j in keep] for row in a]
        # the first smallest entry in row order
        lows = [min(map(abs, filter(None, row))) for row in a]
        low = min(lows)
        pi = lows.index(low)
        pj = next(j for j, x in enumerate(a[pi]) if abs(x) == low)
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
        # a unit pivot divides every entry
        bad = low > 1 and next((row for i, row in enumerate(a) if i != pi
                                and any(x % piv for x in row)), None)
        if bad:
            a[pi] = [x + y for x, y in zip(prow, bad)]
            continue
        out.append(abs(piv))
        del a[pi]
        for row in a:
            del row[pj]


def kernel_saturated(mat):
    """Columns spanning ker(mat) over Z as a direct summand of the lattice.

    Row-reduces the augmented transpose [mat^T | I] with bezout_echelon;
    the identity-block halves of the rows whose mat^T half vanished form a
    basis, saturated because the accumulated transform is unimodular.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    aug = [[mat[i][j] for i in range(m)] +
           [1 if t == j else 0 for t in range(n)] for j in range(n)]
    r = len(bezout_echelon(aug, m))
    return [aug[i][m:] for i in range(r, n)]


def bezout_echelon(rows, ncols):
    """Row echelon form over Z of the first ncols columns of rows (lists
    of ints of equal length, reduced in place by unimodular row operations
    on whole rows).  Returns the pivot columns: row i leads at the i-th of
    them, and every later row is zero there.

    Per column, the pivot is the remaining row with the smallest nonzero
    entry (the first +-1 if there is one); each row below it is cleared by
    subtracting a multiple when the pivot divides its entry, else by a
    Bezout step that leaves their gcd in the pivot row.
    """
    n = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == n:
            break
        piv = None
        for i in range(r, n):
            x = rows[i][col]
            if x and (piv is None or abs(x) < abs(rows[piv][col])):
                piv = i
                if abs(x) == 1:
                    break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, n):
            b = rows[i][col]
            if not b:
                continue
            a = rows[r][col]
            if b % a == 0:
                q = b // a
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
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
                rr, ri = rows[r], rows[i]
                rows[r] = [x0 * x + y0 * y for x, y in zip(rr, ri)]
                rows[i] = [u * x + v * y for x, y in zip(rr, ri)]
        pivots.append(col)
        r += 1
    return pivots


def integer_inverse(mat):
    """Inverse of a unimodular integer matrix, exactly: the solution X of
    mat * X = I."""
    n = len(mat)
    cols = solve_integer(mat, identity(n))
    return [[col[i] for col in cols] for i in range(n)]


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
    """Solve mat * X = rhs for each rhs column over a field; a column of
    mat that depends on earlier ones gets coordinate 0.  Raises
    ValueError if a system is inconsistent."""
    return _solve(mat, rhs_cols, ring)


def solve_integer(mat, rhs_cols):
    """Solve mat * X = rhs over Z.  Raises ValueError if a rhs column is
    not an integer combination of the columns of mat."""
    return _solve(mat, rhs_cols, ZZ)


def _solve(mat, rhs_cols, ring):
    cols = [{i: x for i, row in enumerate(mat) if (x := ring.norm(row[j]))}
            for j in range(len(mat[0]) if mat else 0)]
    solver = Solver(cols, range(len(mat)), ring)
    return [solver.coordinates({i: x for i, c in enumerate(col)
                                if (x := ring.norm(c))})
            for col in rhs_cols]


class Solver:
    """Exact coordinates over a basis of independent vectors.

    The vectors are dicts key -> nonzero coefficient over an ordered list
    of keys.  Their echelon form E = W K is built once, one way per ring:

    - over Z, bezout_echelon reduces [K | I], so each row leads at its
      first key, W is unimodular and E spans the same lattice;
    - over a field, each vector in turn is cleared at the earlier rows'
      pivots and then leads at its last key.  A kernel_field basis holds
      the identity on its free columns, so it takes no row operation: its
      rows lead at their free columns and E = K.  A vector that clears to
      zero depends on the earlier ones and gets coordinate 0.

    Every later row of E vanishes at an earlier row's pivot key, so
    coordinates() substitutes a vector into E row by row.  It refuses a
    vector with a key outside the list, a coordinate that is not integral
    over Z, or a remainder once every pivot is cleared; span names the
    subspace in those messages.
    """

    def __init__(self, vectors, keys, ring, span="column space"):
        self.ring = ring
        self.size = len(vectors)
        self.span = span
        self._index = {u: t for t, u in enumerate(keys)}
        # rows of E as (pivot key, E row, W row); pivot key -> row number
        self._rows = []
        self._pivot_row = {}
        if ring.kind == "Z":
            nk = len(keys)
            dense = []
            for j, v in enumerate(vectors):
                row = [0] * (nk + self.size)
                for u, c in v.items():
                    row[self._index[u]] = c
                row[nk + j] = 1
                dense.append(row)
            for pc, row in zip(bezout_echelon(dense, nk), dense):
                self._add_row(keys[pc],
                              {keys[t]: x for t, x in enumerate(row[:nk]) if x},
                              {j: x for j, x in enumerate(row[nk:]) if x})
            return
        for j, v in enumerate(vectors):
            left = dict(v)
            back = {i: ring.neg(c) for i, c in self._clear(left).items()}
            if left:
                back[j] = ring.one
                self._add_row(max(left, key=self._index.__getitem__), left,
                              back)

    def _add_row(self, pivot, e, back):
        self._pivot_row[pivot] = len(self._rows)
        self._rows.append((pivot, e, back))

    def _clear(self, left):
        """Take off left (a dict, changed in place) the multiple of each
        row that clears its pivot key, in row order.  Returns the sum of
        those multiples of the W rows, as a dict basis index -> coefficient
        (over F_p not yet reduced mod p)."""
        ring = self.ring
        integer = ring.kind == "Z"
        p = ring.p if ring.kind == "Fp" else None
        where = self._pivot_row
        todo = [where[u] for u in left if u in where]
        heapify(todo)
        acc = {}
        while todo:
            pivot, e, back = self._rows[heappop(todo)]
            x = left.get(pivot)
            if x is None:
                continue
            if integer:
                y, rem = divmod(x, e[pivot])
                if rem:
                    raise ValueError("coordinates are not integral: vector "
                                     "outside the %s" % self.span)
            else:
                y = ring.mul(x, ring.inv(e[pivot]))
            for u, c in e.items():
                z = left.get(u, 0) - y * c
                if p:
                    z %= p
                if z:
                    if u not in left and u in where:
                        heappush(todo, where[u])
                    left[u] = z
                else:
                    left.pop(u, None)
            for j, c in back.items():
                acc[j] = acc.get(j, 0) + y * c
        return acc

    def coordinates(self, vector):
        """The coefficients, one per basis vector, of the combination that
        equals vector, a dict key -> coefficient (left unchanged)."""
        if any(u not in self._index for u in vector):
            raise ValueError("vector leaves the stored block")
        left = dict(vector)
        acc = self._clear(left)
        if left:
            raise ValueError("vector outside the %s" % self.span)
        return [self.ring.norm(acc.get(j, 0)) for j in range(self.size)]
