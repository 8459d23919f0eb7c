"""Seeded job lists for the loopalg benchmark.

A job is one `loopalg` command on generated coalgebra documents.  The
program sees only the JSON documents; the oracle sees only the family
parameters recorded beside them (`spaces`), never the documents.

Families (dims are sphere dimensions):
    sphere [n]             S^n
    wedge [a, b]           S^a v S^b, primitive generators
    product [a, b]         S^a x S^b, explicit delta on the top class
    nonprimitive [p, q]    a_p, b_q, v_{p+q-1} with psi_2(v) = (a(x)1)(1(x)b)
    noncoassoc [p, q]      nonprimitive plus u_{p+2q-2} with
                           psi_2(u) = (v(x)1)(1(x)b)

Each workload is a list of tiers.  A tier is a menu of options of similar
cost at the seed commit and the number of options drawn from it without
replacement.  Drawing from cost-matched menus keeps a pass's total work,
its median job and its 90th-percentile job close from one seed to the
next, while the seed still changes the families, cutoffs, generator
labels and order, and job order.  Options whose inputs hit a known seed
defect (a generator one or two degrees above the cutoff, or trivial-
coefficient Cotor where the Hopf algebra has elements in degree
cutoff + 1) sit in tiers of their own, so every
seed carries the same number of them and the failure rate does not move
with the seed.
"""

import random

LETTERS = "abcdefghjkmnpqrstuvwxyz"


def generator_degrees(space):
    """Degrees of the generators a family's document lists."""
    kind, dims = space["family"], space["dims"]
    if kind == "sphere":
        return [dims[0]]
    if kind == "wedge":
        return list(dims)
    if kind == "product":
        return [dims[0], dims[1], dims[0] + dims[1]]
    p, q = dims
    if kind == "nonprimitive":
        return [p, q, p + q - 1]
    if kind == "noncoassoc":
        return [p, q, p + q - 1, p + 2 * q - 2]
    raise ValueError("unknown family %r" % kind)


def _labels(rng, degrees):
    """Distinct seeded labels, one per generator."""
    names = set()
    out = []
    for d in degrees:
        while True:
            name = "%s%d_%d" % (rng.choice(LETTERS), rng.randrange(100), d)
            if name not in names:
                break
        names.add(name)
        out.append(name)
    return out


def document(rng, space, ring, cutoff):
    """A coalgebra document for the family, with seeded labels and
    generator order."""
    kind, dims = space["family"], space["dims"]
    degs = generator_degrees(space)
    labels = _labels(rng, degs)
    gens = [{"label": l, "degree": d} for l, d in zip(labels, degs)]
    rng.shuffle(gens)
    name = "%s-%s" % (kind, "-".join(str(d) for d in dims))
    doc = {"name": name, "ring": ring, "cutoff": cutoff, "generators": gens}
    if kind == "product":
        x, y, z = labels
        sign = -1 if (dims[0] * dims[1]) % 2 else 1
        doc["delta"] = {z: [[1, x, y], [sign, y, x]]}
    elif kind in ("nonprimitive", "noncoassoc"):
        a, b, v = labels[:3]
        doc["psi"] = {"2": {v: [[1, [a, "1"], ["1", b]]]}}
        if kind == "noncoassoc":
            doc["psi"]["2"][labels[3]] = [[1, [v, "1"], ["1", b]]]
    return doc


def S(n):
    return {"family": "sphere", "dims": [n]}


def W(a, b):
    return {"family": "wedge", "dims": [a, b]}


def P(a, b):
    return {"family": "product", "dims": [a, b]}


def NP(p, q):
    return {"family": "nonprimitive", "dims": [p, q]}


def NC(p, q):
    return {"family": "noncoassoc", "dims": [p, q]}


# An option: (command, spaces, cutoff or (lo, hi) range, extra arguments).
# `fiber` takes [source, target] and maps trivially.  Every option runs at
# each of the workload's rings on the same document.
TRIV = ("--hopf", "trivial")
SELF = ("--hopf", "self")
VALL = ("--verify-all",)

WORKLOADS = {
    "torsion-z": {
        "why": "integer homology with torsion: Smith normal form, saturated "
               "kernels and Q-rref dominate; documents are distinct, so jobs "
               "share no work",
        "rings": ["Z"],
        "tiers": [
            (2, [("double-loop", [P(3, 5)], 8, ()),
                 ("fiber", [S(5), S(3)], 9, ())]),
            (1, [("double-loop", [S(3)], 11, ())]),
            (2, [("double-loop", [W(3, 7)], 9, ()),
                 ("double-loop", [P(3, 7)], 9, ())]),
            (1, [("cotor", [S(3)], 9, SELF),
                 ("fiber", [S(7), S(3)], 9, ())]),
            (1, [("cotor", [S(3)], 9, TRIV)]),
            (2, [("double-loop", [S(3)], 9, ()),
                 ("path-loop", [S(3)], 9, ()),
                 ("fiber", [S(5), S(3)], 8, ())]),
            (1, [("double-loop", [P(3, 5)], 7, ()),
                 ("double-loop", [P(3, 7)], 8, ())]),
            (1, [("cobar", [P(2, 3)], 4, ())]),
            (1, [("cotor", [S(5)], 11, TRIV)]),
            (3, [("double-loop", [W(3, 5)], 7, ()),
                 ("double-loop", [W(3, 7)], 8, ()),
                 ("cobar", [NP(3, 3)], 12, ())]),
            (2, [("double-loop", [S(3)], 8, ()),
                 ("cotor", [S(3)], 8, SELF),
                 ("double-loop", [P(5, 5)], 12, ()),
                 ("cotor", [S(3)], 8, TRIV)]),
            (5, [("cobar", [P(3, 5)], (8, 14), ()),
                 ("cobar", [P(2, 3)], (5, 7), ()),
                 ("cobar", [W(3, 4)], (8, 14), ()),
                 ("cobar", [NP(3, 3)], (8, 11), ()),
                 ("cotor", [S(5)], (10, 14), SELF),
                 ("double-loop", [S(5)], (9, 14), ()),
                 ("fiber", [S(3), S(5)], (9, 11), ())]),
        ],
    },
    "field-fp": {
        "why": "F2 and F3 homology at higher cutoffs: rref mod p, the path-loop "
               "kernels, the induced comultiplication and word enumeration; "
               "every document recurs at both primes, so jobs share work",
        "rings": ["F2", "Fp:3"],
        "tiers": [
            (1, [("double-loop", [S(3)], 11, ())]),
            (1, [("double-loop", [P(3, 5)], 9, ())]),
            (1, [("path-loop", [P(3, 5)], 10, ())]),
            (1, [("formal-dl", [S(3)], 14, ())]),
            (2, [("fiber", [S(5), S(3)], 9, ()),
                 ("formal-dl", [W(3, 5)], 10, ())]),
            (1, [("cotor", [S(3)], 11, TRIV)]),
            (1, [("cotor", [S(5)], 11, TRIV)]),
            (1, [("formal-dl", [S(3)], 12, ()),
                 ("path-loop", [P(3, 5)], 9, ()),
                 ("formal-dl", [W(3, 5)], 9, ())]),
            (2, [("double-loop", [P(5, 5)], 13, ()),
                 ("double-loop", [S(5)], (10, 14), ()),
                 ("cotor", [S(5)], (10, 14), SELF),
                 ("formal-dl", [S(5)], (12, 16), ()),
                 ("cobar", [NP(3, 3)], (9, 12), ()),
                 ("cobar", [P(3, 5)], (8, 14), ())]),
        ],
    },
    "verify-suite": {
        "why": "the verify suites and --verify-all d^2 sweeps over Z: "
               "identity checks through bilinear, coherence, coassociativity "
               "and the cofreeness kernels rather than homology",
        "rings": ["Z"],
        "tiers": [
            (4, [("verify", [NP(3, 3)], 7, ()),
                 ("verify", [NC(3, 3)], 8, ()),
                 ("double-loop", [W(3, 5)], 8, VALL),
                 ("verify", [S(3)], 11, ())]),
            (2, [("verify", [NC(3, 3)], 6, ()),
                 ("verify", [NP(3, 3)], 6, ()),
                 ("double-loop", [S(3)], 9, VALL)]),
            (4, [("verify", [NC(3, 3)], 7, ()),
                 ("verify", [NC(3, 5)], 9, ()),
                 ("verify", [W(3, 5)], 9, ()),
                 ("verify", [P(3, 5)], 9, ())]),
            (2, [("verify", [S(3)], 10, ()),
                 ("path-loop", [S(3)], 9, VALL),
                 ("fiber", [S(5), S(3)], 8, VALL)]),
            (6, [("verify", [NP(3, 5)], 8, ()),
                 ("verify", [NP(3, 5)], 7, ()),
                 ("verify", [NP(3, 3)], 5, ()),
                 ("verify", [NC(3, 3)], 5, ()),
                 ("verify", [S(5)], (10, 14), ()),
                 ("cotor", [S(3)], 8, TRIV + VALL),
                 ("cotor", [S(3)], 8, SELF + VALL),
                 ("cobar", [NP(3, 3)], (8, 11), VALL),
                 ("cobar", [P(3, 5)], (8, 13), VALL)]),
        ],
    },
}


def jobs(workload, seed):
    """The workload's job list for a seed: a list of dicts with id,
    command, documents, extra arguments, ring, cutoff and spaces."""
    spec = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    picks = []
    for count, menu in spec["tiers"]:
        picks.extend(rng.sample(menu, count))
    out = []
    for cmd, spaces, cutoff, extra in picks:
        c = rng.randint(*cutoff) if isinstance(cutoff, tuple) else cutoff
        docs = [document(rng, sp, spec["rings"][0], c) for sp in spaces]
        for ring in spec["rings"]:
            out.append({"command": cmd, "spaces": spaces, "cutoff": c,
                        "ring": ring, "args": list(extra),
                        "documents": [dict(d, ring=ring) for d in docs]})
    rng.shuffle(out)
    for i, job in enumerate(out):
        job["id"] = "%s-%02d" % (workload, i)
    return out
