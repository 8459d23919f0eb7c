"""Chain complexes on named graded bases, with homology ranks and torsion
from sparse elimination, and representatives built on demand.

A complex stores one ordered label list per degree (through a cutoff) and a
differential callback label -> Vect.  Homology is reported only through
cutoff - 1: at the cutoff the incoming boundary is not fully known.

The rank of H_n is dim C_n - rank d_n - rank d_{n+1}, and its torsion is
the invariant factors of d_{n+1} other than 0 and 1.  Each boundary
matrix is eliminated once (see linalg.rank_and_torsion) and the result is
shared by the two degrees it borders.  Representative cycles and class
coordinates need an explicit cycle basis (saturated kernels and Smith
normal form over Z, echelon kernels over a field); that is computed only
when a summary's representatives or class_of are first used.
"""

from collections import namedtuple

from .vectors import Vect, label_key, label_str
from . import linalg

# The explicit description of H_n behind representatives and class_of.
CyclePresentation = namedtuple(
    "CyclePresentation", "free_rank torsion reps kernel decomp kmat")


class ChainComplex:
    def __init__(self, ring, bases, diff, cutoff, name=""):
        """bases: dict degree -> iterable of labels (will be sorted
        canonically); diff: callable label -> Vect of degree one lower."""
        self.ring = ring
        self.cutoff = cutoff
        self.name = name
        self.bases = {}
        for n, labels in bases.items():
            ordered = sorted(labels, key=label_key)
            if len(set(ordered)) != len(ordered):
                raise ValueError("duplicate labels in degree %d" % n)
            self.bases[n] = ordered
        self._index = {n: {l: i for i, l in enumerate(b)} for n, b in self.bases.items()}
        self.diff = diff
        self._matrices = {}
        self._columns = {}
        self._reduced = {}
        self._square_zero = set()

    def basis(self, n):
        return self.bases.get(n, [])

    def rank(self, n):
        return len(self.basis(n))

    def degrees(self):
        return sorted(self.bases)

    def matrix(self, n):
        """The matrix of d_n : C_n -> C_{n-1}, rows indexed by the basis in
        degree n-1, columns by the basis in degree n."""
        if n in self._matrices:
            return self._matrices[n]
        src = self.basis(n)
        tgt_index = self._index.get(n - 1, {})
        mat = linalg.zeros(len(tgt_index), len(src))
        for j, label in enumerate(src):
            v = self.diff(label)
            for out_label, c in v.items():
                i = tgt_index.get(out_label)
                if i is None:
                    raise ValueError(
                        "differential of %s leaves the stored basis (term %s)"
                        % (label_str(label), label_str(out_label)))
                mat[i][j] = c
        self._matrices[n] = mat
        return mat

    def verify_differential(self):
        """Check d(d(g)) = 0 for every stored basis label.  Returns
        (ok, counterexample_label, residue)."""
        for n in self.degrees():
            for label in self.basis(n):
                residue = self.diff(label).map_terms(self.diff)
                if not residue.is_zero():
                    return False, label, residue
        return True, None, None

    def homology(self, n):
        """HomologySummary in degree n (requires n <= cutoff - 1).  Raises
        ValueError if d_n d_{n+1} != 0."""
        if n > self.cutoff - 1:
            raise ValueError("homology in degree %d is above the reliable "
                             "range (cutoff %d)" % (n, self.cutoff))
        if n not in self._square_zero:
            if not linalg.product_is_zero(self._sparse(n), self._sparse(n + 1),
                                          self.ring):
                raise ValueError("d^2 != 0: d_%d d_%d is not zero"
                                 % (n, n + 1))
            self._square_zero.add(n)
        rank_in, _ = self._reduction(n)
        rank_out, torsion = self._reduction(n + 1)
        return HomologySummary(self, n, self.rank(n) - rank_in - rank_out,
                               torsion)

    def _sparse(self, n):
        if n not in self._columns:
            # a matrix with no rows still has one (empty) column per label
            self._columns[n] = (linalg.sparse_columns(self.matrix(n))
                                or [{} for _ in self.basis(n)])
        return self._columns[n]

    def _reduction(self, n):
        """(rank, torsion) of d_n, from one sparse elimination."""
        if n not in self._reduced:
            self._reduced[n] = linalg.rank_and_torsion(self._sparse(n),
                                                       self.ring)
        return self._reduced[n]

    def _cycle_presentation(self, n):
        """The CyclePresentation of H_n: an explicit cycle basis and the
        decomposition that representatives and class_of use."""
        if self.ring.kind == "Z":
            return self._homology_integer(n)
        return self._homology_field(n)

    def betti(self, lo=0, hi=None):
        if hi is None:
            hi = self.cutoff - 1
        return [self.homology(n).free_rank for n in range(lo, hi + 1)]

    def _kernel_cols(self, n):
        mat = self.matrix(n)
        k = self.rank(n)
        if not mat:
            # no basis one degree down: everything is a cycle
            if self.ring.kind == "Z":
                return [[1 if i == j else 0 for i in range(k)] for j in range(k)]
            return [[self.ring.one if i == j else self.ring.zero for i in range(k)]
                    for j in range(k)]
        if self.ring.kind == "Z":
            return linalg.kernel_saturated(mat)
        return linalg.kernel_field(mat, self.ring)

    def _homology_integer(self, n):
        basis = self.basis(n)
        kernel = self._kernel_cols(n)
        k = len(kernel)
        dnext = self.matrix(n + 1)
        ncols = len(dnext[0]) if dnext else 0
        if k == 0:
            return CyclePresentation(0, [], [], kernel, None, None)
        kmat = [[kernel[j][i] for j in range(k)] for i in range(len(basis))]
        if ncols:
            rhs = [[dnext[i][j] for i in range(len(basis))] for j in range(ncols)]
            ycols = linalg.solve_integer(kmat, rhs)
            ymat = [[ycols[j][i] for j in range(ncols)] for i in range(k)]
        else:
            ymat = [[0] * 0 for _ in range(k)]
        d, u, _ = linalg.smith_normal_form(ymat) if ncols else (None, linalg.identity(k), None)
        diag = []
        for i in range(k):
            val = d[i][i] if (ncols and i < min(k, ncols)) else 0
            diag.append(abs(val))
        uinv = linalg.integer_inverse(u)
        torsion = []
        torsion_reps = []
        free_reps = []
        for i in range(k):
            if diag[i] == 1:
                continue
            coeffs = [uinv[r][i] for r in range(k)]
            cycle = [sum(kmat[r][t] * coeffs[t] for t in range(k)) for r in range(len(basis))]
            vec = Vect(self.ring, list(zip(basis, cycle)))
            if diag[i] == 0:
                free_reps.append(vec)
            else:
                torsion.append(diag[i])
                torsion_reps.append(vec)
        free_rank = len(free_reps)
        # class coordinates come back torsion-first, then free
        return CyclePresentation(free_rank, torsion, torsion_reps + free_reps,
                                 kernel, (u, diag), kmat)

    def _homology_field(self, n):
        basis = self.basis(n)
        kernel = self._kernel_cols(n)
        k = len(kernel)
        if k == 0:
            return CyclePresentation(0, [], [], kernel, None, None)
        kmat = [[kernel[j][i] for j in range(k)] for i in range(len(basis))]
        dnext = self.matrix(n + 1)
        ncols = len(dnext[0]) if dnext else 0
        if ncols:
            rhs = [[dnext[i][j] for i in range(len(basis))] for j in range(ncols)]
            ycols = linalg.solve_field(kmat, rhs, self.ring)
            yrows = [[col[i] for i in range(k)] for col in ycols]
            rr, pivots = linalg.rref(yrows, self.ring)
        else:
            rr, pivots = [], []
        pivset = set(pivots)
        reps = []
        free_idx = [j for j in range(k) if j not in pivset]
        for j in free_idx:
            cycle = [kmat[r][j] for r in range(len(basis))]
            reps.append(Vect(self.ring, list(zip(basis, cycle))))
        return CyclePresentation(len(free_idx), [], reps, kernel,
                                 (rr, pivots, free_idx), kmat)


class HomologySummary:
    """Free rank and torsion coefficients of H_n; deterministic
    representative cycles and a class_of map for product computations,
    built on first use."""

    def __init__(self, complex_, degree, free_rank, torsion):
        self.complex = complex_
        self.degree = degree
        self.free_rank = free_rank
        self.torsion = list(torsion)
        self._presentation = None

    @property
    def rank(self):
        return self.free_rank

    def _present(self):
        if self._presentation is None:
            self._presentation = self.complex._cycle_presentation(self.degree)
        return self._presentation

    @property
    def representatives(self):
        """Cycles whose classes generate H_n: torsion classes first, then
        free classes over Z; free classes over a field."""
        return self._present().reps

    def class_of(self, vect):
        """Coordinates of a cycle's homology class in the representative
        basis (torsion classes first, then free classes over Z; free classes
        over a field)."""
        ring = self.complex.ring
        basis = self.complex.basis(self.degree)
        col = [vect.terms.get(l, ring.zero) for l in basis]
        pres = self._present()
        if not pres.kernel:
            if any(not ring.is_zero(x) for x in col):
                raise ValueError("vector is not a cycle")
            return []
        if ring.kind == "Z":
            coords = linalg.solve_integer(pres.kmat, [col])[0]
            u, diag = pres.decomp
            k = len(coords)
            out_t, out_f = [], []
            for i in range(k):
                val = sum(u[i][t] * coords[t] for t in range(k))
                if diag[i] == 1:
                    continue
                if diag[i] == 0:
                    out_f.append(val)
                else:
                    out_t.append(val % diag[i])
            return out_t + out_f
        coords = linalg.solve_field(pres.kmat, [col], ring)[0]
        rr, pivots, free_idx = pres.decomp
        vec = list(coords)
        for i, pc in enumerate(pivots):
            f = vec[pc]
            if not ring.is_zero(f):
                for j in range(len(vec)):
                    vec[j] = ring.add(vec[j], ring.neg(ring.mul(f, rr[i][j])))
        return [vec[j] for j in free_idx]
