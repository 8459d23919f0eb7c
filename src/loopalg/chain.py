"""Chain complexes on named graded bases, with homology ranks and torsion
from sparse elimination, and representatives built on demand.

A complex stores one ordered label list per degree (through a cutoff) and
a column callback: n -> the sparse columns of d_n on row indices, which
its builder makes (word algebras from their d_columns, the cofixed models
from their projections read at the start words, a label rule through
from_labels, which refuses a term off the stored basis).  Its label hook
reads a basis element for error messages and verify_differential (a word
algebra's word of letter codes as its letters).  Homology is
reported only through cutoff - 1: at the cutoff the incoming boundary is
not fully known.

The rank of H_n is dim C_n - rank d_n - rank d_{n+1}, and its torsion is
the invariant factors of d_{n+1} other than 0 and 1.  Each degree's
columns are taken once and eliminated once (see linalg.rank_and_torsion);
the result is shared by the two degrees it borders.  d^2 = 0 is checked
on the same columns, one product d_{n-1} d_n at a time:
verify_differential runs through every degree and homology checks the
product it needs.  Representative cycles and class
coordinates need an explicit cycle basis (a saturated kernel over Z, an
echelon kernel over a field, both on the dense matrix) and a
linalg.Solver on it.  The solver gives the coordinates of the
boundaries (then put in Smith normal form over Z, or row reduced over a
field) and of every class_of argument.  Both are built once per degree,
when class_of or a nonzero degree's representatives are first used.
"""

from collections import namedtuple

from .vectors import Vect, label_str
from . import linalg

# The explicit description of H_n behind representatives and class_of.
CyclePresentation = namedtuple(
    "CyclePresentation", "free_rank torsion reps solver decomp")


class ChainComplex:
    def __init__(self, ring, bases, columns, cutoff, label=None):
        """bases: dict degree -> iterable of labels, kept in the order
        given (the builders hand over label_key order, which fixes every
        matrix and pivot); columns: callable n -> the columns of d_n, one
        dict row index -> nonzero entry per label of degree n; label: the
        readable label of a stored one, the identity by default."""
        self.ring = ring
        self.label = label or (lambda l: l)
        self.cutoff = cutoff
        self.bases = {}
        self._index = {}
        for n, labels in bases.items():
            self.bases[n] = ordered = list(labels)
            self._index[n] = {l: i for i, l in enumerate(ordered)}
            if len(self._index[n]) != len(ordered):
                raise ValueError("duplicate labels in degree %d" % n)
        self._build = columns
        self._matrices = {}
        self._columns = {}
        self._reduced = {}
        self._square_zero = set()

    @classmethod
    def from_labels(cls, ring, bases, diff, cutoff, label=None):
        """The complex of a label rule diff: label -> Vect of degree one
        lower.  A term off the stored basis is refused."""
        def columns(n):
            rows = cx._index.get(n - 1, {})
            cols = []
            for label in cx.basis(n):
                col = {}
                for out_label, c in diff(label).items():
                    i = rows.get(out_label)
                    if i is None:
                        raise ValueError(
                            "differential of %s leaves the stored basis "
                            "(term %s)" % (label_str(cx.label(label)),
                                           label_str(cx.label(out_label))))
                    col[i] = c
                cols.append(col)
            return cols
        cx = cls(ring, bases, columns, cutoff, label)
        return cx

    def basis(self, n):
        return self.bases.get(n, [])

    def rank(self, n):
        return len(self.basis(n))

    def degrees(self):
        return sorted(self.bases)

    def matrix(self, n):
        """The dense matrix of d_n : C_n -> C_{n-1}, rows indexed by the
        basis in degree n-1, columns by the basis in degree n.  Only the
        cycle presentations ask for it."""
        if n not in self._matrices:
            mat = linalg.zeros(self.rank(n - 1), self.rank(n))
            for j, col in enumerate(self.columns(n)):
                for i, c in col.items():
                    mat[i][j] = c
            self._matrices[n] = mat
        return self._matrices[n]

    def verify_differential(self):
        """Check d_{n-1} d_n = 0 on the sparse columns, degree by degree
        upwards.  Returns (ok, counterexample_label, residue): the first
        basis label, in basis order, whose d(d(label)) is not zero, with
        that residue over degree n - 2, both read through label.  Raises
        ValueError if the differential leaves the stored basis."""
        for n in self.degrees():
            defect = self._square_defect(n)
            if defect:
                j, residue = defect
                lower = self.basis(n - 2)
                return False, self.label(self.basis(n)[j]), Vect(
                    self.ring, {self.label(lower[i]): c
                                for i, c in residue.items()})
        return True, None, None

    def homology(self, n):
        """HomologySummary in degree n (requires n <= cutoff - 1).  Raises
        ValueError if d_n d_{n+1} != 0."""
        if n > self.cutoff - 1:
            raise ValueError("homology in degree %d is above the reliable "
                             "range (cutoff %d)" % (n, self.cutoff))
        if self._square_defect(n + 1):
            raise ValueError("d^2 != 0: d_%d d_%d is not zero" % (n, n + 1))
        rank_in, _ = self._reduction(n)
        rank_out, torsion = self._reduction(n + 1)
        return HomologySummary(self, n, self.rank(n) - rank_in - rank_out,
                               torsion)

    def columns(self, n):
        """The columns of d_n, asked of the builder once per degree and
        sorted by row: the elimination breaks its ties in that order."""
        if n not in self._columns:
            self._columns[n] = [dict(sorted(c.items())) for c in
                                (self._build(n) if n in self.bases else [])]
        return self._columns[n]

    def _square_defect(self, n):
        """None if d_{n-1} d_n = 0, which is remembered; else (j, residue)
        for the first column j of d_n that d_{n-1} does not kill, the
        residue a dict row index in degree n - 2 -> nonzero entry."""
        if n in self._square_zero:
            return None
        lower = self.columns(n - 1)
        for j, col in enumerate(self.columns(n)):
            acc = {}
            for t, y in col.items():
                for i, x in lower[t].items():
                    acc[i] = acc.get(i, 0) + x * y
            residue = self.ring.reduce(acc)
            if residue:
                return j, residue
        self._square_zero.add(n)
        return None

    def _reduction(self, n):
        """(rank, torsion) of d_n, from one sparse elimination."""
        if n not in self._reduced:
            self._reduced[n] = linalg.rank_and_torsion(self.columns(n),
                                                       self.ring)
        return self._reduced[n]

    def _cycle_presentation(self, n):
        """The CyclePresentation of H_n: an explicit cycle basis and the
        decomposition that representatives and class_of use."""
        if self.ring.kind == "Z":
            return self._homology_integer(n)
        return self._homology_field(n)

    def _kernel_cols(self, n):
        mat = self.matrix(n)
        k = self.rank(n)
        if not mat:
            # no basis one degree down: everything is a cycle
            return [[self.ring.one if i == j else self.ring.zero for i in range(k)]
                    for j in range(k)]
        if self.ring.kind == "Z":
            return linalg.kernel_saturated(mat)
        return linalg.kernel_field(mat, self.ring)

    def _cycles(self, n):
        """(kernel columns of d_n, the linalg.Solver on them, the
        coordinates of the columns of d_{n+1} over them)."""
        basis = self.basis(n)
        kernel = self._kernel_cols(n)
        solver = linalg.Solver(
            [{basis[i]: x for i, x in enumerate(col) if x} for col in kernel],
            basis, self.ring, "cycle space")
        ycols = [solver.coordinates({basis[i]: x for i, x in col.items()})
                 for col in self.columns(n + 1)] if kernel else []
        return kernel, solver, ycols

    def _homology_integer(self, n):
        basis = self.basis(n)
        kernel, solver, ycols = self._cycles(n)
        k = len(kernel)
        if k == 0:
            return CyclePresentation(0, [], [], solver, ([], []))
        ncols = len(ycols)
        if ncols:
            ymat = [[col[i] for col in ycols] for i in range(k)]
            d, u, _ = linalg.smith_normal_form(ymat)
        else:
            u = linalg.identity(k)
        diag = [abs(d[i][i]) if i < min(k, ncols) else 0 for i in range(k)]
        uinv = linalg.integer_inverse(u)
        torsion, torsion_reps, free_reps = [], [], []
        for i in range(k):
            if diag[i] == 1:
                continue
            coeffs = [uinv[r][i] for r in range(k)]
            cycle = [sum(col[r] * c for col, c in zip(kernel, coeffs))
                     for r in range(len(basis))]
            vec = Vect(self.ring, list(zip(basis, cycle)))
            if diag[i] == 0:
                free_reps.append(vec)
            else:
                torsion.append(diag[i])
                torsion_reps.append(vec)
        # class coordinates come back torsion-first, then free
        return CyclePresentation(len(free_reps), torsion,
                                 torsion_reps + free_reps, solver, (u, diag))

    def _homology_field(self, n):
        basis = self.basis(n)
        kernel, solver, ycols = self._cycles(n)
        k = len(kernel)
        rr, pivots = linalg.rref(ycols, self.ring) if ycols else ([], [])
        pivset = set(pivots)
        free_idx = [j for j in range(k) if j not in pivset]
        reps = [Vect(self.ring, list(zip(basis, kernel[j]))) for j in free_idx]
        return CyclePresentation(len(free_idx), [], reps, solver,
                                 (rr, pivots, free_idx))


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

    def _present(self):
        if self._presentation is None:
            self._presentation = self.complex._cycle_presentation(self.degree)
        return self._presentation

    @property
    def representatives(self):
        """Cycles whose classes generate H_n (none, with no presentation
        built, where H_n = 0): torsion classes first, then free classes
        over Z; free classes over a field."""
        if not self.free_rank and not self.torsion:
            return []
        return self._present().reps

    def class_of(self, vect):
        """Coordinates of a cycle's homology class in the representative
        basis (torsion classes first, then free classes over Z; free classes
        over a field)."""
        pres = self._present()
        # terms off the degree's basis (above a weight cap) are dropped
        stored = self.complex._index.get(self.degree, {})
        coords = pres.solver.coordinates(
            {l: c for l, c in vect.items() if l in stored})
        if self.complex.ring.kind == "Z":
            u, diag = pres.decomp
            out_t, out_f = [], []
            for row, d in zip(u, diag):
                if d == 1:
                    continue
                val = sum(a * b for a, b in zip(row, coords))
                if d:
                    out_t.append(val % d)
                else:
                    out_f.append(val)
            return out_t + out_f
        ring = self.complex.ring
        rr, pivots, free_idx = pres.decomp
        for row, pc in zip(rr, pivots):
            f = coords[pc]
            if f:
                coords = [ring.norm(x - f * y) for x, y in zip(coords, row)]
        return [coords[j] for j in free_idx]
