"""Expected homology for the benchmark's jobs, derived from the family
parameters alone.  Nothing here imports loopalg.

Tables are Betti numbers over a field of characteristic p (p = 0 for the
rationals), degrees 0 .. top:

    loop space (cobar)   the tensor algebra on the desuspended generators,
                         counted as words; for S^a x S^b the tensor product
                         T(x_{a-1}) (x) T(y_{b-1}).  Torsion-free.
    Omega^2 S^n, n odd   p = 0: Lambda[x_{n-2}]
                         p = 2: F2[x_{2^k(n-1)-1}, k >= 0]
                         p odd: Lambda[x_{(n-1)p^k-1}, k >= 0]
                                (x) Fp[y_{(n-1)p^k-2}, k >= 1]
    Omega^2 of a wedge   Hilton-Milnor: the product of Omega^2 S^{|w|+1}
                         over basic products w, counted by Witt's formula
    Omega^2 of S^a x S^b the product Omega^2 S^a x Omega^2 S^b
    fiber of a trivial   Omega X' x Omega^2 X
    map X' -> X
    path-loop, Cotor     acyclic
    with regular
    coefficients
    Cotor with trivial   the double-loop table
    coefficients

A result over Z is checked by its free ranks against p = 0 and, for every
prime p up to the cutoff, by the universal-coefficient prediction of the
mod-p Betti numbers (rank + p-torsion in degree n + p-torsion in n - 1)
against the mod-p table.
"""

from math import comb, gcd

from gen import generator_degrees


def _poly(degrees, top):
    counts = [1] + [0] * top
    for d in degrees:
        for n in range(d, top + 1):
            counts[n] += counts[n - d]
    return counts


def _exterior(degrees, top):
    counts = [1] + [0] * top
    for d in degrees:
        for n in range(top, d - 1, -1):
            counts[n] += counts[n - d]
    return counts


def _convolve(a, b, top):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(top + 1)]


def _words(letter_degrees, top):
    """Number of words of each degree in letters of the given degrees."""
    counts = [1] + [0] * top
    for n in range(1, top + 1):
        counts[n] = sum(counts[n - d] for d in letter_degrees if d <= n)
    return counts


def _primes(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]


def _moebius(n):
    out, m, q = 1, n, 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            out = -out
        q += 1
    return -out if m > 1 else out


def witt(i, j):
    """Number of basic products of bidegree (i, j) in a free Lie algebra on
    two generators."""
    n = i + j
    total = 0
    g = gcd(i, j)
    for d in range(1, g + 1):
        if g % d == 0:
            total += _moebius(d) * comb(n // d, i // d)
    return total // n


def double_loop_sphere(n, p, top):
    if n % 2 == 0:
        raise ValueError("double-loop tables cover odd spheres only")
    m = n - 1
    if p == 0:
        return _exterior([m - 1], top)
    if p == 2:
        degs = []
        k = 0
        while (2 ** k) * m - 1 <= top:
            degs.append((2 ** k) * m - 1)
            k += 1
        return _poly(degs, top)
    ext, pol = [], []
    k = 0
    while m * p ** k - 2 <= top:
        ext.append(m * p ** k - 1)
        if k >= 1:
            pol.append(m * p ** k - 2)
        k += 1
    return _convolve(_exterior([d for d in ext if d <= top], top),
                     _poly(pol, top), top)


def loop_table(space, top):
    """Betti numbers of Omega X (any coefficients)."""
    kind, dims = space["family"], space["dims"]
    if kind == "product":
        return _convolve(_words([dims[0] - 1], top), _words([dims[1] - 1], top),
                         top)
    return _words([d - 1 for d in generator_degrees(space)], top)


def double_loop_table(space, p, top):
    kind, dims = space["family"], space["dims"]
    if kind == "sphere":
        return double_loop_sphere(dims[0], p, top)
    if kind == "product":
        return _convolve(double_loop_sphere(dims[0], p, top),
                         double_loop_sphere(dims[1], p, top), top)
    if kind == "wedge":
        a, b = dims[0] - 1, dims[1] - 1
        out = [1] + [0] * top
        for i in range(top + 2):
            for j in range(top + 2):
                if i + j == 0 or i * a + j * b - 1 > top:
                    continue
                table = double_loop_sphere(i * a + j * b + 1, p, top)
                for _ in range(witt(i, j)):
                    out = _convolve(out, table, top)
        return out
    raise ValueError("no double-loop table for %s" % kind)


def table(job, p, top):
    """Expected Betti numbers of the job's output over characteristic p."""
    cmd, spaces = job["command"], job["spaces"]
    args = job["args"]
    if cmd == "path-loop" or (cmd == "cotor" and "self" in args):
        return [1] + [0] * top
    if cmd == "cobar":
        return loop_table(spaces[0], top)
    if cmd in ("double-loop", "formal-dl", "cotor"):
        return double_loop_table(spaces[0], p, top)
    if cmd == "fiber":
        return _convolve(loop_table(spaces[0], top),
                         double_loop_table(spaces[1], p, top), top)
    raise ValueError("no table for %s" % cmd)


def _char(ring):
    if ring == "Z":
        return None
    return 2 if ring == "F2" else int(ring.split(":")[1])


def homology_mismatches(job, report):
    """Degrees where the reported homology disagrees with the tables."""
    top = job["cutoff"] - 1
    hom = report["homology"]
    ranks = [hom[str(n)]["rank"] for n in range(top + 1)]
    p = _char(job["ring"])
    if p is not None:
        want = table(job, p, top)
        return sorted(n for n in range(top + 1) if ranks[n] != want[n])
    bad = set(n for n, (r, w) in enumerate(zip(ranks, table(job, 0, top)))
              if r != w)
    torsion = [hom[str(n)]["torsion"] for n in range(top + 1)]
    for q in _primes(max(top + 1, 3)):
        t = [sum(1 for x in tor if x % q == 0) for tor in torsion]
        want = table(job, q, top)
        for n in range(top + 1):
            if ranks[n] + t[n] + (t[n - 1] if n else 0) != want[n]:
                bad.add(n)
    return sorted(bad)


def expected_verdict(job):
    """(exit code, first failing suite) that `verify` must report."""
    space = job["spaces"][0]
    if space["family"] == "noncoassoc":
        p, q = space["dims"]
        if p + 2 * q - 2 <= job["cutoff"]:
            return 2, "induced-coassociativity"
    return 0, None


def known_defect(job, bad):
    """Name the known seed defect that explains the mismatched degrees,
    or None.

    cotor-top-degree: cotor with trivial coefficients builds the Hopf
        algebra only through the cutoff, so H_{cutoff-1} misses the
        boundaries of words of degree cutoff + 1.
    dropped-generator: coalgebras drop generators of degree cutoff + 1
        (and the path object drops the bar partner of a degree cutoff + 2
        generator), so the top two or three reported degrees lose classes
        or boundaries.
    """
    c = job["cutoff"]
    if not bad:
        return None
    if (job["command"] == "cotor" and "trivial" in job["args"]
            and set(bad) <= {c - 1}):
        return "cotor-top-degree"
    reach = 1 if job["command"] in ("cobar", "cotor") else 2
    if _generator_above_cutoff(job, reach) and min(bad) >= c - 2:
        return "dropped-generator"
    return None


def _generator_above_cutoff(job, reach):
    c = job["cutoff"]
    return any(c < d <= c + reach
               for sp in job["spaces"] for d in generator_degrees(sp))


def check(job, result):
    """(ok, detail, defect) for one job's result."""
    if result.get("error"):
        return False, result["error"], None
    if job["command"] == "verify":
        rc_want, suite_want = expected_verdict(job)
        report = result.get("report") or {}
        fails = [v["suite"] for v in report.get("verifications", [])
                 if v["status"] == "fail"]
        first = fails[0] if fails else None
        if result["rc"] != rc_want or first != suite_want:
            # a generator just above the cutoff is dropped today, so the
            # verdict on such a document moves once that defect is fixed
            defect = "dropped-generator" \
                if _generator_above_cutoff(job, 2) else None
            return False, "verdict rc=%s first failure %s, expected rc=%s %s" % (
                result["rc"], first, rc_want, suite_want), defect
        return True, None, None
    if result["rc"] != 0 or not result.get("report"):
        return False, "exit code %s: %s" % (result["rc"], " ".join(
            result.get("stderr") or [])), None
    bad = homology_mismatches(job, result["report"])
    if bad:
        return False, "homology differs from the oracle in degrees %s" % bad, \
            known_defect(job, bad)
    return True, None, None
