"""Command-line front end: load a coalgebra document, run a construction,
and report homology; or run the verification suites.

Exit codes: 0 success, 1 parse/validation problem, 2 mathematical
invariant failure (d^2 != 0, coherence residue, non-coassociative induced
diagonal, or a failing verification suite), 3 internal error (a library
ValueError that escaped a command, reported on one line of stderr).
"""

import argparse
import functools
import gc
import sys
import time

from . import linalg
from .rings import ring_from_name
from .vectors import Vect, label_str
from .cobar import (CobarAlgebra, OneSidedCobar, TwistedHopfTensor,
                    AlgebraOnHomology, coalgebra_of_hopf, s_letter)
from .pathloop import (path_object, PathLoop, FiberCoaction,
                       identity_family, trivial_family)
from .formal import FormalDoubleLoop
from .documents import (DocumentError, load_json, coalgebra_from_document,
                        shmap_from_document, render_report)


class MathError(Exception):
    """A mathematical invariant failed."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser():
    """The command-line parser, built once per process."""
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
    for sp in sub.choices.values():  # the compute commands, not verify
        sp.add_argument("--verify-all", action="store_true",
                        help="also check d^2 = 0 on the assembled complex")
    common(sub.add_parser("verify", help="run the invariant suites"))
    return p


# -- shared plumbing -----------------------------------------------------

def read_document(path, args):
    """The coalgebra and homotopy diagonal of a document, with the --ring
    and --cutoff overrides applied; not yet verified."""
    ring = None
    if args.ring is not None:
        try:
            ring = ring_from_name(args.ring)
        except (ValueError, TypeError) as e:
            raise DocumentError(str(e))
    return coalgebra_from_document(load_json(path), ring=ring,
                                   cutoff=args.cutoff)


def load_input(path, args, simply_connected=False):
    """read_document, refusing a coalgebra or diagonal that fails its
    checks and, if simply_connected, a generator of degree 1 (the path
    object and the cobar of the induced Hopf algebra need degree >= 2)."""
    C, A = read_document(path, args)
    if simply_connected:
        require_degree2(C, args.command)
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


def require_degree2(C, what):
    """Refuse a coalgebra with a generator of degree 1, which what needs
    to be simply connected."""
    for g, deg in C.gens.items():
        if deg < 2:
            raise DocumentError("%s needs generators in degree >= 2; %s has "
                                "degree %d" % (what, label_str(g), deg))


def _problem_str(problem):
    # family problems are ("psi1", gen) or ("degree"/"coherence", level,
    # gen, residue)
    if isinstance(problem, tuple) and len(problem) >= 3:
        return "%s (%s, level %s)" % (label_str(problem[2]), problem[0],
                                      problem[1])
    if isinstance(problem, tuple) and len(problem) == 2:
        return "%s (%s)" % (label_str(problem[1]), problem[0])
    return str(problem)


def require_coassociative(hopf, coaction=None):
    """Refuse an induced diagonal that is not coassociative and, if given,
    a coaction nu over it with (nu (x) 1)nu != (1 (x) Delta)nu: the
    cofixed models need a Hopf module.  The path-loop coaction needs no
    check of its own, as nu is psi on the unbarred letters and -(kappa
    (x) 1)psi on the barred ones; a fiber's takes its source letters
    through the map's cobar map, which need not keep Delta."""
    defects, what = hopf.coassociativity_defects(), "induced diagonal"
    if coaction and not defects:
        defects, what = coaction.comodule_defects(), "coaction"
    if defects:
        raise MathError("%s is not coassociative at letter %s"
                        % (what, label_str(defects[0][0])))


def base_report(args, C, construction):
    return {"command": args.command, "input": C.name,
            "ring": C.ring.name, "cutoff": C.cutoff,
            "construction": construction}


def emit(args, report, t0):
    text = render_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise DocumentError("cannot write %s: %s" % (args.out, e))
    else:
        sys.stdout.write(text)
    print("elapsed: %.2fs" % (time.time() - t0), file=sys.stderr)


def emit_homology(args, C, construction, model, t0, extra=None):
    """The compute commands' report on the complex of model: with
    --verify-all, first check d^2 = 0 on it; then its cutoff, the model's
    weight cap, the homology below the cutoff and the fields that
    extra(complex) returns."""
    cx = model.to_chain_complex()
    if args.verify_all:
        ok, label, residue = cx.verify_differential()
        if not ok:
            raise MathError("d^2 != 0 at %s (residue %s)"
                            % (label_str(label), residue))
    report = base_report(args, C, construction)
    report["cutoff"], report["max_weight"] = cx.cutoff, model.cap
    report["betti"], report["homology"] = [], {}
    for n in range(cx.cutoff):
        h = cx.homology(n)
        report["betti"].append(h.free_rank)
        report["homology"][str(n)] = {"rank": h.free_rank,
                                      "torsion": list(h.torsion)}
    if extra:
        report.update(extra(cx))
    emit(args, report, t0)


# -- compute subcommands -------------------------------------------------

def cmd_cobar(args, t0):
    C, A = load_input(args.document, args)
    emit_homology(args, C, "cobar", A.psi.omegas[0], t0)


def cmd_cotor(args, t0):
    C, A = load_input(args.document, args, simply_connected=True)
    hopf = A.hopf
    require_coassociative(hopf)
    if args.hopf == "self":
        coeffs = TwistedHopfTensor(hopf)
    else:
        coeffs = CobarAlgebra(coalgebra_of_hopf(hopf, C.cutoff))

    def structure_constants(cx):
        sc = []
        for (n1, i1, n2, i2), coords in sorted(AlgebraOnHomology(
                cx, coeffs.mul).structure_constants().items()):
            if any(coords):
                sc.append({"left": [n1, i1], "right": [n2, i2],
                           "value": [str(c) for c in coords]})
        return {"structure_constants": sc}
    emit_homology(args, C, "cotor-%s" % args.hopf, coeffs, t0,
                  structure_constants)


def cmd_path_loop(args, t0):
    C, A = load_input(args.document, args, simply_connected=True)
    emit_homology(args, C, "path-loop", CobarAlgebra(path_object(C)), t0)


def cmd_double_loop(args, t0):
    C, A = load_input(args.document, args, simply_connected=True)
    pl = PathLoop(A)
    require_coassociative(pl.base_hopf)
    emit_homology(args, C, "double-loop", pl.cofixed(), t0)


def cmd_fiber(args, t0):
    Cp, Ap = load_input(args.source, args)
    C, A = load_input(args.target, args, simply_connected=True)
    if Cp.ring.name != C.ring.name:
        raise DocumentError("source and target rings differ (%s vs %s)"
                            % (Cp.ring.name, C.ring.name))
    if args.map == "trivial":
        family = trivial_family(Ap, A)
    else:
        if args.map == "identity":
            if Cp.gens != C.gens:
                raise DocumentError("identity map needs identical "
                                    "generators in source and target")
            family = identity_family(Ap, A)
        else:
            family = shmap_from_document(load_json(args.map), Cp, C)
        # check coherence on the cobar algebras that the coaction reads
        family.omegas = Ap.hopf.omega, A.hopf.omega
        ok, problems = family.verify()
        if not ok:
            raise MathError("map %s fails coherence: %s"
                            % (args.map, _problem_str(problems[0])))
    fc = FiberCoaction(Ap, A, family)
    require_coassociative(fc.base_hopf, fc)
    emit_homology(args, C, "fiber", fc.cofixed(), t0,
                  lambda cx: {"input": "%s -> %s" % (Cp.name, C.name),
                              "map": args.map})


def cmd_formal_dl(args, t0):
    C, A = load_input(args.document, args)
    try:
        fm = FormalDoubleLoop(C)
    except ValueError as e:
        raise DocumentError(str(e))
    # the bracket model sees C alone: refuse a diagonal that makes a
    # letter of Omega C non-primitive
    hopf = A.hopf
    for l, letter in enumerate(hopf.omega._ordered):
        if not hopf.delta_red((l,)).is_zero():
            raise DocumentError("the bracket model requires primitive "
                                "letters; the homotopy diagonal makes %s "
                                "non-primitive" % label_str(letter))
    emit_homology(args, C, "formal-dl", fm, t0)


# -- verification suites -------------------------------------------------

def _suite_d2(builder):
    """A d^2 = 0 suite on the complex of builder()."""
    def run():
        ok, label, residue = builder().to_chain_complex().verify_differential()
        if ok:
            return "pass", None
        return "fail", "d^2 != 0 at %s" % label_str(label)
    return run


def _verify_suites(C, A):
    """Ordered list of (name, runner); each runner returns
    (status, detail).  The suites share the diagonal's Omega C, its
    induced Hopf algebra A.hopf and one PathLoop over it, each built on
    first use; a build that raises is not kept, so every suite that needs
    it reports the failure itself."""
    cutoff = C.cutoff
    small = min(cutoff, 4)
    path_loop = functools.cache(lambda: PathLoop(A))

    def coalgebra(build):
        def run():
            ok, problems = build().verify()
            if ok:
                return "pass", None
            kind, gen, _ = problems[0]
            return "fail", "%s at generator %s" % (kind, label_str(gen))
        return run

    def coherence():
        ok, problems = A.verify()
        if ok:
            return "pass", None
        return "fail", "generator %s" % _problem_str(problems[0])

    def letters(defects_of):
        def run():
            defects = defects_of(A.hopf)
            if not defects:
                return "pass", None
            return "fail", "letter %s" % label_str(defects[0][0])
        return run

    def section_defect():
        # the twisted tensor product needs cobar letters of positive degree
        require_degree2(C, "section-defect")
        hopf = A.hopf
        tw = TwistedHopfTensor(hopf)
        letter = tw.omega.code
        for n in range(cutoff + 1):
            for b in map(hopf.omega.label, hopf.omega.words(n)):
                v = Vect.basis(C.ring, b)
                # the closed form, from the reduced comultiplication alone
                want = Vect(C.ring)
                if n:
                    want.iadd_term(1, ("t", (letter[s_letter(b)],), tw.unit))
                    for (_, h, bp), c in tw.C.delta_red(b).items():
                        want.iadd_term(c, ("t", (letter[s_letter(h)],), bp))
                if tw.section_defect(v) != want:
                    return "fail", "element %s" % label_str(b)
                if not (tw.projection(tw.section(v)) - v).is_zero():
                    return "fail", "projection of section at %s" % label_str(b)
        return "pass", None

    def kappa():
        # nu kappa = (kappa (x) 1)psi holds on letters by construction of
        # nu; the suite checks it on longer words, and d kappa + kappa d = 0
        pl = path_loop()
        ob = pl.omega_base
        at = ob.label  # a base word as read
        for deg in range(small + 1):
            for w in ob.words(deg, ob.cap):
                v = Vect.basis(C.ring, w)
                if not (pl.kappa(v.map_terms(ob.d_word)) +
                        pl.kappa(v).map_terms(pl.omega.d_word)).is_zero():
                    return "fail", "anticommutation at %s" % label_str(at(w))
                left = pl.kappa(v).map_terms(pl.coaction)
                right = Vect(C.ring)
                for (_, a, b), c in pl.base_hopf.psi(w).items():
                    for u2, c2 in pl.kappa(Vect.basis(C.ring, a)).items():
                        right.iadd_term(c * c2, ("t", u2, b))
                if not (left - right).is_zero():
                    return "fail", "coaction identity at %s" % label_str(at(w))
        return "pass", None

    def cofreeness():
        # |words(n)| = the sum over degrees p and weights w of the cofixed
        # rank, the word count less the rank of their reduced coaction
        # columns, times |base words of degree n - p| under cap - w
        pl = path_loop()
        om, cap = pl.omega, pl.omega.cap

        @functools.cache
        def kernel_rank(p, w):
            # uncapped, the weight bounds nothing: one block per degree
            words = [u for u in om.words(p, cap)
                     if cap is None or om.weight(u) == w]
            return len(words) - linalg.rank_and_torsion(
                [pl.column(u) for u in words], C.ring)[0]
        for n in range(cutoff + 1):
            lhs = len(om.words(n, cap))
            rhs = sum(kernel_rank(p, w) * len(pl.omega_base.words(
                n - p, None if cap is None else cap - w))
                for p in range(n + 1) for w in range((cap or 0) + 1))
            if lhs != rhs:
                return "fail", "degree %d: %d != %d" % (n, lhs, rhs)
        return "pass", None

    def tensor_split():
        hopf = A.hopf
        omT, split = hopf.omega_tensor, hopf._split
        for deg in range(small + 1):
            for w in omT.words(deg, omT.cap):
                lhs = omT.d_word(w).map_terms(split)
                rhs = split(w).map_terms(hopf.tsq.diff)
                if not (lhs - rhs).is_zero():
                    return "fail", "word %s" % label_str(omT.label(w))
        return "pass", None

    def formal():
        # NotImplementedError marks the suite skipped
        if C.ring.kind == "Z":
            raise NotImplementedError("needs a field")
        try:
            return FormalDoubleLoop(C)
        except ValueError as e:
            raise NotImplementedError(str(e))

    return [
        ("coalgebra", coalgebra(lambda: C)),
        ("sh-coherence", coherence),
        ("induced-coassociativity",
         letters(lambda hopf: hopf.coassociativity_defects())),
        ("induced-chain-map", letters(lambda hopf: hopf.chain_map_defects())),
        ("cobar-d2", _suite_d2(lambda: A.psi.omegas[0])),
        ("acyclic-cobar-d2-right",
         _suite_d2(lambda: OneSidedCobar(A.psi.omegas[0], side="right"))),
        ("acyclic-cobar-d2-left",
         _suite_d2(lambda: OneSidedCobar(A.psi.omegas[0], side="left"))),
        ("path-object", coalgebra(lambda: path_object(C))),
        ("path-loop-d2", _suite_d2(lambda: path_loop().omega)),
        ("section-defect", section_defect),
        ("kappa", kappa),
        ("cofreeness", cofreeness),
        ("tensor-split", tensor_split),
        ("formal-dl-d2", _suite_d2(formal)),
    ]


def cmd_verify(args, t0):
    C, A = read_document(args.document, args)
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
    # the cyclic collector would only rescan a command's large, acyclic data
    collecting = gc.isenabled()
    gc.disable()
    try:
        COMMANDS[args.command](args, t0)
    except DocumentError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MathError as e:
        print("invariant failure: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
