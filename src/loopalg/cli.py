"""Command-line front end: load a coalgebra document, run a construction,
and report homology; or run the verification suites.

Exit codes: 0 success, 1 parse/validation problem, 2 mathematical
invariant failure (d^2 != 0, coherence residue, non-coassociative induced
diagonal, or a failing verification suite).
"""

import argparse
import sys
import time

from .rings import ring_from_name
from .vectors import Vect, label_str
from .coalg import tensor_coalgebra
from .cobar import (CobarAlgebra, OneSidedCobar, TwistedHopfTensor,
                    cotor_trivial_coefficients, cotor_regular_coefficients)
from .shfamily import InducedHopf, TensorSquare, letterwise_split
from .pathloop import (path_object, PathLoop, FiberCoaction, double_loop,
                       loop_fiber, identity_family, trivial_family)
from .formal import FormalDoubleLoop
from .documents import (DocumentError, load_json, coalgebra_from_document,
                        shmap_from_document, render_report)


class MathError(Exception):
    """A mathematical invariant failed."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    p = Parser(prog="loopalg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=Parser)

    def common(sp, inputs=1):
        if inputs == 2:
            sp.add_argument("source", help="source coalgebra document (JSON)")
            sp.add_argument("target", help="target coalgebra document (JSON)")
        else:
            sp.add_argument("document", help="coalgebra document (JSON)")
        sp.add_argument("--ring", help="override the document ring "
                        "(Z, Q, F2, Fp:<p>)")
        sp.add_argument("--cutoff", type=int, help="override the degree cutoff")
        sp.add_argument("--format", choices=("json", "table", "csv"),
                        default="table")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--verify-all", action="store_true",
                        help="also check d^2 = 0 on the assembled complex")

    common(sub.add_parser("cobar", help="homology of the cobar algebra"))
    sp = sub.add_parser("cotor", help="Cotor of the induced Hopf algebra")
    common(sp)
    sp.add_argument("--hopf", choices=("trivial", "self"), default="trivial",
                    help="coefficients: trivial (R) or the regular comodule "
                    "algebra (B = H)")
    common(sub.add_parser("path-loop", help="homology of the path-loop "
                          "algebra (acyclic)"))
    common(sub.add_parser("double-loop", help="homology of the double-loop "
                          "model"))
    sp = sub.add_parser("fiber", help="homology of the loop-homotopy-fiber "
                        "model of a map")
    common(sp, inputs=2)
    sp.add_argument("--map", default="trivial",
                    help="'trivial', 'identity', or a map document path")
    common(sub.add_parser("formal-dl", help="homology of the bracket "
                          "presentation of the double-loop model"))
    common(sub.add_parser("verify", help="run the invariant suites"))
    return p


# -- shared plumbing -----------------------------------------------------

def load_input(path, args):
    ring = None
    if args.ring is not None:
        try:
            ring = ring_from_name(args.ring)
        except (ValueError, TypeError) as e:
            raise DocumentError(str(e))
    if args.cutoff is not None and args.cutoff < 2:
        raise DocumentError("cutoff must be at least 2")
    C, A = coalgebra_from_document(load_json(path), ring=ring,
                                   cutoff=args.cutoff)
    ok, problems = C.verify()
    if not ok:
        kind, gen, _ = problems[0]
        raise MathError("coalgebra %s fails %s at generator %s"
                        % (C.name, kind, label_str(gen)))
    ok, problems = A.verify()
    if not ok:
        raise MathError("homotopy diagonal of %s fails coherence: %s"
                        % (C.name, _problem_str(problems[0])))
    return C, A


def _problem_str(problem):
    # family problems are ("psi1", gen) or ("degree"/"coherence", level,
    # gen, residue)
    if isinstance(problem, tuple) and len(problem) >= 3:
        return "%s (%s, level %s)" % (label_str(problem[2]), problem[0],
                                      problem[1])
    if isinstance(problem, tuple) and len(problem) == 2:
        return "%s (%s)" % (label_str(problem[1]), problem[0])
    return str(problem)


def weight_cap(alg, cutoff):
    """The total-weight cap for a word algebra: none when every letter
    has positive degree, else the cutoff (degree-0 letters give
    infinitely many words per degree)."""
    return None if alg.finite_type else cutoff


def complex_of(obj, cutoff, alg):
    """Build the chain complex of obj, whose basis is made of words in
    the free algebra alg, with the weight cap that alg needs."""
    mw = weight_cap(alg, cutoff)
    return obj.to_chain_complex(max_weight=mw, top=cutoff), mw


def coeff_str(c):
    return str(c)


def homology_section(cx):
    betti = []
    hom = {}
    for n in range(cx.cutoff):
        h = cx.homology(n)
        betti.append(h.free_rank)
        hom[str(n)] = {"rank": h.free_rank, "torsion": list(h.torsion)}
    return betti, hom


def check_d2(cx):
    ok, label, residue = cx.verify_differential()
    if not ok:
        raise MathError("d^2 != 0 at %s (residue %s)"
                        % (label_str(label), residue))


def require_coassociative(hopf):
    defects = hopf.coassociativity_defects()
    if defects:
        raise MathError("induced diagonal is not coassociative at letter %s"
                        % label_str(defects[0][0]))


def base_report(args, C, construction):
    return {"command": args.command, "input": C.name,
            "ring": C.ring.name, "cutoff": C.cutoff,
            "construction": construction}


def emit(args, report, t0):
    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("elapsed: %.2fs" % (time.time() - t0), file=sys.stderr)


# -- compute subcommands -------------------------------------------------

def cmd_cobar(args, t0):
    C, A = load_input(args.document, args)
    om = CobarAlgebra(C)
    cx, mw = complex_of(om, C.cutoff, om.alg)
    if args.verify_all:
        check_d2(cx)
    report = base_report(args, C, "cobar")
    report["max_weight"] = mw
    report["betti"], report["homology"] = homology_section(cx)
    emit(args, report, t0)


def cmd_cotor(args, t0):
    C, A = load_input(args.document, args)
    hopf = InducedHopf(A)
    require_coassociative(hopf)
    mw = weight_cap(hopf.omega.alg, C.cutoff)
    if args.hopf == "self":
        alg = cotor_regular_coefficients(hopf, C.cutoff, max_weight=mw)
    else:
        alg = cotor_trivial_coefficients(hopf, C.cutoff, max_weight=mw)
    if args.verify_all:
        check_d2(alg.complex)
    report = base_report(args, C, "cotor-%s" % args.hopf)
    report["max_weight"] = mw
    report["betti"], report["homology"] = homology_section(alg.complex)
    sc = []
    for (n1, i1, n2, i2), coords in sorted(alg.structure_constants().items()):
        if any(not C.ring.is_zero(c) for c in coords):
            sc.append({"left": [n1, i1], "right": [n2, i2],
                       "value": [coeff_str(c) for c in coords]})
    report["structure_constants"] = sc
    emit(args, report, t0)


def cmd_path_loop(args, t0):
    C, A = load_input(args.document, args)
    pl = PathLoop(A)
    cx, mw = complex_of(pl, C.cutoff, pl.omega.alg)
    if args.verify_all:
        check_d2(cx)
    report = base_report(args, C, "path-loop")
    report["max_weight"] = mw
    report["betti"], report["homology"] = homology_section(cx)
    emit(args, report, t0)


def cmd_double_loop(args, t0):
    C, A = load_input(args.document, args)
    mw = weight_cap(PathLoop(A).omega.alg, C.cutoff)
    dl, pl = double_loop(A, max_weight=mw)
    cx = dl.to_chain_complex(top=C.cutoff)
    if args.verify_all:
        check_d2(cx)
    report = base_report(args, C, "double-loop")
    report["max_weight"] = mw
    report["betti"], report["homology"] = homology_section(cx)
    emit(args, report, t0)


def cmd_fiber(args, t0):
    Cp, Ap = load_input(args.source, args)
    C, A = load_input(args.target, args)
    if Cp.ring.name != C.ring.name:
        raise DocumentError("source and target rings differ (%s vs %s)"
                            % (Cp.ring.name, C.ring.name))
    if args.map == "trivial":
        family = trivial_family(Ap, A)
    elif args.map == "identity":
        if Cp.gens != C.gens:
            raise DocumentError("identity map needs identical generators "
                                "in source and target")
        family = identity_family(A)
    else:
        family = shmap_from_document(load_json(args.map), Cp, C)
    cutoff = min(C.cutoff, Cp.cutoff)
    mw = weight_cap(FiberCoaction(Ap, A, family).omega.alg, cutoff)
    hf, fc = loop_fiber(Ap, A, family, max_weight=mw)
    cx = hf.to_chain_complex(top=cutoff)
    if args.verify_all:
        check_d2(cx)
    report = base_report(args, C, "fiber")
    report["input"] = "%s -> %s" % (Cp.name, C.name)
    report["map"] = args.map
    report["max_weight"] = mw
    report["betti"], report["homology"] = homology_section(cx)
    emit(args, report, t0)


def cmd_formal_dl(args, t0):
    C, A = load_input(args.document, args)
    try:
        fm = FormalDoubleLoop(C)
    except ValueError as e:
        raise DocumentError(str(e))
    cx, mw = complex_of(fm, C.cutoff, fm.alg)
    if args.verify_all:
        check_d2(cx)
    report = base_report(args, C, "formal-dl")
    report["max_weight"] = mw
    report["betti"], report["homology"] = homology_section(cx)
    emit(args, report, t0)


# -- verification suites -------------------------------------------------

def _suite_d2(builder, alphabet):
    """A d^2 = 0 suite on builder(); alphabet(obj) is the word algebra
    spanning its basis."""
    def run():
        obj = builder()
        cx, _ = complex_of(obj, obj.cutoff, alphabet(obj))
        ok, label, residue = cx.verify_differential()
        if ok:
            return "pass", None
        return "fail", "d^2 != 0 at %s" % label_str(label)
    return run


def _verify_suites(C, A):
    """Ordered list of (name, runner); each runner returns
    (status, detail)."""
    cutoff = C.cutoff
    small = min(cutoff, 4)

    def coalgebra():
        ok, problems = C.verify()
        if ok:
            return "pass", None
        kind, gen, _ = problems[0]
        return "fail", "%s at generator %s" % (kind, label_str(gen))

    def coherence():
        ok, problems = A.verify()
        if ok:
            return "pass", None
        return "fail", "generator %s" % _problem_str(problems[0])

    def coassoc():
        defects = InducedHopf(A).coassociativity_defects()
        if not defects:
            return "pass", None
        return "fail", "letter %s" % label_str(defects[0][0])

    def chain_map():
        defects = InducedHopf(A).chain_map_defects()
        if not defects:
            return "pass", None
        return "fail", "letter %s" % label_str(defects[0][0])

    def section_defect():
        hopf = InducedHopf(A)
        tw = TwistedHopfTensor(hopf, cutoff)
        mw = weight_cap(hopf.omega.alg, cutoff)
        for n in range(cutoff + 1):
            for b in hopf.basis(n, mw):
                v = Vect.basis(C.ring, b)
                lhs = tw.section(v).map_terms(tw.diff)
                rhs = tw.section(hopf.d_of(b)) + tw.section_defect(v)
                if not (lhs - rhs).is_zero():
                    return "fail", "element %s" % label_str(b)
                if not (tw.projection(tw.section(v)) - v).is_zero():
                    return "fail", "projection of section at %s" % label_str(b)
                if not tw.projection(tw.section_defect(v)).is_zero():
                    return "fail", "projection of defect at %s" % label_str(b)
        return "pass", None

    def kappa():
        pl = PathLoop(A)
        mw = weight_cap(pl.omega_base.alg, cutoff)
        for deg in range(small + 1):
            for w in pl.omega_base.alg.words(deg, mw):
                v = Vect.basis(C.ring, w)
                if not (pl.kappa(pl.omega_base.d_vect(v))
                        + pl.omega.d_vect(pl.kappa(v))).is_zero():
                    return "fail", "anticommutation at %s" % label_str(w)
                left = Vect(C.ring)
                for u, c in pl.kappa(v).items():
                    left = left + pl.nu(u).scale(c)
                right = Vect(C.ring)
                for (_, a, b), c in pl.base_hopf.psi(w).items():
                    for u2, c2 in pl.kappa(Vect.basis(C.ring, a)).items():
                        right.iadd_term(C.ring.mul(c, c2), ("t", u2, b))
                if not (left - right).is_zero():
                    return "fail", "coaction identity at %s" % label_str(w)
        return "pass", None

    def cofreeness():
        pl = PathLoop(A)
        if not pl.omega.alg.finite_type:
            dl, _ = double_loop(A, max_weight=cutoff)
            blocked = True
        else:
            dl, _ = double_loop(A)
            blocked = False
        for n in range(cutoff + 1):
            if blocked:
                lhs = len(pl.omega.alg.words(n, cutoff))
                rhs = 0
                for lab in [l for p in range(n + 1) for l in dl.basis(p)]:
                    p, w = lab[1], lab[2]
                    rhs += len(pl.omega_base.alg.words(n - p, cutoff - w))
            else:
                lhs = len(pl.omega.alg.words(n))
                rhs = sum(dl.rank(p) * len(pl.omega_base.alg.words(n - p))
                          for p in range(n + 1))
            if lhs != rhs:
                return "fail", "degree %d: %d != %d" % (n, lhs, rhs)
        return "pass", None

    def tensor_split():
        T = tensor_coalgebra(C, C)
        omT = CobarAlgebra(T)
        om = CobarAlgebra(C)
        tsq = TensorSquare(om, om)
        split = letterwise_split(omT, tsq)
        mw = weight_cap(omT.alg, cutoff)
        for deg in range(small + 1):
            for w in omT.alg.words(deg, mw):
                lhs = omT.d_word(w).map_terms(split)
                rhs = split(w).map_terms(tsq.diff)
                if not (lhs - rhs).is_zero():
                    return "fail", "word %s" % label_str(w)
        return "pass", None

    def formal():
        if C.ring.kind == "Z":
            return "skipped", "needs a field"
        try:
            fm = FormalDoubleLoop(C)
        except ValueError as e:
            return "skipped", str(e)
        cx, _ = complex_of(fm, cutoff, fm.alg)
        ok, label, residue = cx.verify_differential()
        if ok:
            return "pass", None
        return "fail", "d^2 != 0 at %s" % label_str(label)

    def path_ok():
        pc = path_object(C)
        ok, problems = pc.verify()
        if ok:
            return "pass", None
        kind, gen, _ = problems[0]
        return "fail", "%s at generator %s" % (kind, label_str(gen))

    return [
        ("coalgebra", coalgebra),
        ("sh-coherence", coherence),
        ("induced-coassociativity", coassoc),
        ("induced-chain-map", chain_map),
        ("cobar-d2", _suite_d2(lambda: CobarAlgebra(C), lambda om: om.alg)),
        ("acyclic-cobar-d2-right",
         _suite_d2(lambda: OneSidedCobar(CobarAlgebra(C), side="right"),
                   lambda oc: oc.omega.alg)),
        ("acyclic-cobar-d2-left",
         _suite_d2(lambda: OneSidedCobar(CobarAlgebra(C), side="left"),
                   lambda oc: oc.omega.alg)),
        ("path-object", path_ok),
        ("path-loop-d2", _suite_d2(lambda: PathLoop(A), lambda pl: pl.omega.alg)),
        ("section-defect", section_defect),
        ("kappa", kappa),
        ("cofreeness", cofreeness),
        ("tensor-split", tensor_split),
        ("formal-dl-d2", formal),
    ]


def cmd_verify(args, t0):
    C, A = None, None
    try:
        ring = ring_from_name(args.ring) if args.ring else None
    except (ValueError, TypeError) as e:
        raise DocumentError(str(e))
    if args.cutoff is not None and args.cutoff < 2:
        raise DocumentError("cutoff must be at least 2")
    C, A = coalgebra_from_document(load_json(args.document), ring=ring,
                                   cutoff=args.cutoff)
    report = base_report(args, C, "verify")
    outcomes = []
    failed = False
    for name, runner in _verify_suites(C, A):
        try:
            status, detail = runner()
        except NotImplementedError as e:
            status, detail = "skipped", str(e)
        except (MathError, ValueError) as e:
            status, detail = "fail", str(e)
        if status == "fail":
            failed = True
        entry = {"suite": name, "status": status}
        if detail:
            entry["detail"] = detail
        outcomes.append(entry)
    report["verifications"] = outcomes
    emit(args, report, t0)
    if failed:
        first = next(o for o in outcomes if o["status"] == "fail")
        raise MathError("verification failed: %s" % first["suite"])


COMMANDS = {
    "cobar": cmd_cobar,
    "cotor": cmd_cotor,
    "path-loop": cmd_path_loop,
    "double-loop": cmd_double_loop,
    "fiber": cmd_fiber,
    "formal-dl": cmd_formal_dl,
    "verify": cmd_verify,
}


def main(argv=None):
    t0 = time.time()
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](args, t0)
    except DocumentError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MathError as e:
        print("invariant failure: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
