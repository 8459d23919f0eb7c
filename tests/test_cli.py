"""Command-line interface: subcommands, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
import time

import pytest

import loopalg
from loopalg.chain import ChainComplex
from loopalg.cli import main
from loopalg.tensoralg import FreeAlgebra
from loopalg.vectors import label_key

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = os.path.join(HERE, "sample_inputs")


DOCUMENTS = [os.path.join(d, name) for d in
             (SAMPLES, os.path.join(HERE, "tests", "golden", "inputs"))
             for name in sorted(os.listdir(d))]


def child_env():
    """The environment for a child interpreter, with the package under
    test first on its path, installed or not."""
    src = os.path.dirname(os.path.dirname(loopalg.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def sample(name):
    return os.path.join(SAMPLES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def test_double_loop_sphere3_mod2(capsys):
    code, rep, _ = run_json(capsys, "double-loop", sample("sphere3.json"),
                            "--ring", "F2", "--cutoff", "8")
    assert code == 0
    assert rep["betti"] == [1, 1, 1, 2, 2, 2, 3, 4]
    assert rep["ring"] == "F2" and rep["cutoff"] == 8


def test_cobar_sphere2(capsys):
    code, rep, _ = run_json(capsys, "cobar", sample("sphere2.json"),
                            "--cutoff", "8")
    assert code == 0
    assert rep["betti"] == [1] * 8


def test_cotor_self_sphere3(capsys):
    code, rep, _ = run_json(capsys, "cotor", "--hopf", "self",
                            sample("sphere3.json"))
    assert code == 0
    assert rep["betti"] == [1] + [0] * 7


def test_cotor_self_builds_the_coalgebra_of_h_once(capsys, monkeypatch):
    # letters and coefficients of Omega H (x) H come from one build
    from loopalg import cli, cobar
    built = []

    def counting(H, cutoff):
        built.append(cutoff)
        return coalgebra_of_hopf(H, cutoff)

    coalgebra_of_hopf = cobar.coalgebra_of_hopf
    monkeypatch.setattr(cobar, "coalgebra_of_hopf", counting)
    monkeypatch.setattr(cli, "coalgebra_of_hopf", counting)
    code, rep, _ = run_json(capsys, "cotor", "--hopf", "self",
                            sample("sphere3.json"), "--cutoff", "6")
    assert code == 0 and rep["betti"] == [1] + [0] * 5
    assert built == [7]


@pytest.mark.parametrize("argv", [
    ["cotor", "--hopf", "self", sample("sphere3.json"), "--cutoff", "9"],
    ["cotor", sample("sphere5.json"), "--cutoff", "11"]],
    ids=["self-S3", "trivial-S5"])
def test_structure_constants_present_only_degrees_with_classes(monkeypatch,
                                                               capsys, argv):
    """The structure constants ask every degree for its representatives,
    but a degree with no classes has none: over Z, cotor builds a cycle
    presentation (dense matrix, saturated kernel, Smith form) once for
    each degree with classes and for no other, here 1 of 9 and 5 of 11."""
    built = []
    present = ChainComplex._cycle_presentation
    monkeypatch.setattr(ChainComplex, "_cycle_presentation",
                        lambda cx, n: built.append(n) or present(cx, n))
    code, rep, _ = run_json(capsys, *argv, "--ring", "Z")
    assert code == 0
    classes = sorted(int(n) for n, h in rep["homology"].items()
                     if h["rank"] or h["torsion"])
    assert built == sorted(built) == classes
    assert len(classes) == (1 if "self" in argv else 5)


def test_verify_sphere3_all_pass(capsys):
    code, rep, _ = run_json(capsys, "verify", sample("sphere3.json"))
    assert code == 0
    assert rep["verifications"]
    assert all(o["status"] in ("pass", "skipped")
               for o in rep["verifications"])


def test_verify_nonprimitive_all_pass(capsys):
    code, rep, _ = run_json(capsys, "verify", sample("nonprimitive.json"),
                            "--cutoff", "6")
    assert code == 0
    assert all(o["status"] in ("pass", "skipped")
               for o in rep["verifications"])


def test_verify_incoherent_family_names_generator(capsys, tmp_path):
    doc = {"name": "broken", "ring": "Z", "cutoff": 8,
           "generators": [{"label": "a2", "degree": 2},
                          {"label": "w7", "degree": 7}],
           "psi": {"2": {"w7": [[1, ["a2", "a2"], ["a2", "a2"]]]}}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, rep, err = run_json(capsys, "verify", str(path))
    assert code == 2
    bad = [o for o in rep["verifications"] if o["status"] == "fail"]
    assert bad and bad[0]["suite"] == "sh-coherence"
    assert "w7" in bad[0]["detail"]


@pytest.mark.parametrize("ring", ["Z", "F2"])
def test_a_differential_that_does_not_square_to_zero_is_refused(capsys,
                                                                 tmp_path,
                                                                 ring):
    """d a5 = b4 and d b4 = c3 pass every other input check.  The
    commands refuse the document up front with exit 2, naming a5, and
    verify's coalgebra suite names it too."""
    doc = {"name": "dd", "ring": "Z", "cutoff": 8,
           "generators": [{"label": "a5", "degree": 5},
                          {"label": "b4", "degree": 4},
                          {"label": "c3", "degree": 3}],
           "d": {"a5": [[1, "b4"]], "b4": [[1, "c3"]]}}
    path = tmp_path / "dd.json"
    path.write_text(json.dumps(doc))
    for argv in (["cobar", str(path)], ["double-loop", str(path)],
                 ["fiber", sample("sphere5.json"), str(path)]):
        assert run(capsys, *argv, "--ring", ring) == (
            2, "", "invariant failure: coalgebra dd fails d-square at "
            "generator a5\n")
    code, rep, err = run_json(capsys, "verify", str(path), "--ring", ring)
    assert code == 2 and err.endswith("verification failed: coalgebra\n")
    suites = {o["suite"]: o for o in rep["verifications"]}
    assert suites["coalgebra"] == {"suite": "coalgebra", "status": "fail",
                                   "detail": "d-square at generator a5"}
    assert suites["sh-coherence"]["status"] == "pass"


def test_verify_noncoassoc_fails_coassociativity(capsys):
    code, rep, err = run_json(capsys, "verify", sample("noncoassoc.json"),
                              "--cutoff", "8")
    assert code == 2
    failed = {o["suite"] for o in rep["verifications"]
              if o["status"] == "fail"}
    assert "induced-coassociativity" in failed
    detail = next(o["detail"] for o in rep["verifications"]
                  if o["suite"] == "induced-coassociativity")
    assert "u7" in detail


def test_noncoassoc_truncated_below_defect_passes(capsys):
    # cutoff 6 drops the degree-7 generator carrying the defect
    code, rep, _ = run_json(capsys, "verify", sample("noncoassoc.json"),
                            "--cutoff", "6")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["double-loop", sample("noncoassoc.json")],
    ["fiber", sample("noncoassoc.json"), sample("noncoassoc.json"),
     "--map", "identity"],
    ["fiber", sample("sphere3.json"), sample("noncoassoc.json")]],
    ids=["double-loop", "identity-fiber", "trivial-fiber"])
def test_cofixed_models_refuse_a_non_coassociative_target(capsys, argv):
    """The cofixed models need Omega C to be a Hopf algebra: over
    noncoassoc, whose induced diagonal fails coassociativity at s[u7],
    double-loop and fiber exit 2 with cotor's message and no report.  At
    cutoff 6, which drops u7, they run."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("invariant failure: induced diagonal is not "
                   "coassociative at letter s[u7]\n")
    code, rep, _ = run_json(capsys, *argv, "--cutoff", "6")
    assert code == 0 and rep["betti"][0] == 1


def test_fiber_refuses_a_map_that_makes_no_coaction(capsys, tmp_path):
    """The level-4 family S5 -> S2 with x5 -> x2 (x) x2 (x) x2 (x) x2 is
    coherent, but s[x2]^4 is not primitive over Z (its coproduct has the
    middle term 2 s[x2]^2 (x) s[x2]^2), so nu is no coaction at s[L.x5]:
    fiber exits 2.  Over F2 the term vanishes and the fiber runs."""
    doc = tmp_path / "power4.json"
    doc.write_text(json.dumps(
        {"components": {"4": {"x5": [[1, ["x2", "x2", "x2", "x2"]]]}}}))
    argv = ["fiber", sample("sphere5.json"), sample("sphere2.json"),
            "--map", str(doc), "--cutoff", "6"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("invariant failure: coaction is not coassociative at "
                   "letter s[L.x5]\n")
    code, rep, _ = run_json(capsys, *argv, "--ring", "F2")
    assert code == 0 and rep["max_weight"] == 6


def test_parse_errors_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "cobar", "/nonexistent.json")
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1 and "ring" in err

    code, out, err = run(capsys, "cobar", sample("sphere3.json"),
                         "--cutoff", "0")
    assert code == 1 and "cutoff" in err

    code, out, err = run(capsys, "cobar", sample("sphere3.json"),
                         "--ring", "F9")
    assert code == 1


@pytest.mark.parametrize("command", ["cobar", "double-loop", "verify"])
def test_cutoff_override_follows_the_document_rule(capsys, tmp_path,
                                                     command):
    """--cutoff takes the documents' rule, a positive integer: --cutoff 1
    gives the report of a document with cutoff 1, and --cutoff 0 is one
    error line with exit 1."""
    with open(sample("sphere3.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "sphere3-c1.json"
    path.write_text(json.dumps(dict(doc, cutoff=1)))
    code, out, _ = run(capsys, command, str(path), "--format", "json")
    assert code == 0 and json.loads(out)["cutoff"] == 1
    assert run(capsys, command, sample("sphere3.json"), "--cutoff", "1",
               "--format", "json")[:2] == (code, out)
    code, out, err = run(capsys, command, sample("sphere3.json"),
                         "--cutoff", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


SPHERE3 = {"name": "s3", "ring": "Z", "cutoff": 6,
           "generators": [{"label": "x3", "degree": 3}]}


@pytest.mark.parametrize("doc,map_doc,flags", [
    (dict(SPHERE3, psi={"2": {"x3": 5}}), None, []),
    (dict(SPHERE3, delta={"x3": [[1, ["x3"], "x3"]]}), None, []),
    (dict(SPHERE3, d=[[1, "x3"]]), None, []),
    (SPHERE3, {"components": {"1": [1]}}, []),
    (SPHERE3, {"components": {"1": {"x3": 7}}}, []),
    (SPHERE3, None, ["--out", "/nonexistent/x.json"]),
    (SPHERE3, None, ["--ring", "Fp:x"]),
], ids=["psi-terms", "delta-label", "d-list", "map-level", "map-terms",
        "out-path", "ring-name"])
def test_malformed_input_is_one_error_line(tmp_path, doc, map_doc, flags):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["cobar", str(path)]
    if map_doc is not None:
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(map_doc))
        argv = ["fiber", str(path), str(path), "--map", str(map_path)]
    proc = subprocess.run([sys.executable, "-m", "loopalg.cli"] + argv + flags,
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    if flags:
        assert flags[1] in proc.stderr


@pytest.mark.parametrize("key", ["02", " 2", "+2", "\u0662", "2"],
                         ids=["zero", "space", "plus", "arabic-indic",
                              "duplicate"])
def test_psi_level_keys_are_canonical_and_unique(capsys, tmp_path, key):
    """A psi level is written [1-9][0-9]* and given once.  Each of these
    keys, read as level 2, would replace the level-2 component of v5; it
    is refused on one line that names it."""
    with open(sample("nonprimitive.json")) as fh:
        text = fh.read()
    extra = '%s: {"v5": [[2, ["a3", "1"], ["1", "b3"]]]}, ' % json.dumps(key)
    assert text.count('"psi": {') == 1
    path = tmp_path / "doc.json"
    path.write_text(text.replace('"psi": {', '"psi": {' + extra))
    code, out, err = run(capsys, "cobar", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert repr(key) in err


def test_fiber_reports_the_cutoff_it_computed_at(capsys, tmp_path):
    """The fiber model runs at the smaller of its documents' cutoffs, and
    its report says so."""
    with open(sample("sphere5.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "sphere5-c6.json"
    path.write_text(json.dumps(dict(doc, cutoff=6)))
    code, rep, _ = run_json(capsys, "fiber", str(path), sample("sphere3.json"))
    assert code == 0
    assert rep["cutoff"] == 6 and len(rep["betti"]) == 6
    assert sorted(rep["homology"], key=int) == [str(n) for n in range(6)]


def test_verify_takes_no_verify_all(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", sample("sphere3.json"), "--verify-all"])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --verify-all" in err


BOOLEAN_DOCUMENTS = {
    "cutoff": (dict(SPHERE3, cutoff=True), None),
    "degree": (dict(SPHERE3, generators=[{"label": "x3", "degree": True}]),
               None),
    "coefficient": (dict(SPHERE3, generators=[{"label": "x3", "degree": 3},
                                              {"label": "y2", "degree": 2}],
                         d={"x3": [[True, "y2"]]}), None),
    "map-coefficient": (SPHERE3, {"components": {"1": {"x3": [[True,
                                                               ["x3"]]]}}})}


@pytest.mark.parametrize("what", sorted(BOOLEAN_DOCUMENTS))
def test_json_booleans_are_not_integers(tmp_path, what):
    """true passes isinstance(x, int) in Python; a document that puts it
    where an integer belongs is refused, not read as 1."""
    doc, map_doc = BOOLEAN_DOCUMENTS[what]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["cobar", str(path)]
    if map_doc is not None:
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(map_doc))
        argv = ["fiber", str(path), str(path), "--map", str(map_path)]
    proc = subprocess.run([sys.executable, "-m", "loopalg.cli"] + argv,
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("p,code", [
    (2 ** 61 - 1, 0), (1073741789 * (2 ** 31 - 1), 1), (2 ** 64 + 13, 1)],
    ids=["prime-2^61-1", "composite-near-2^61", "prime-above-2^64"])
def test_large_primes_are_decided_at_once(capsys, p, code):
    """Fp:<p> with p near 2^61 is decided in well under a second, and a
    prime p at or above 2^64 is refused by name of the bound."""
    t0 = time.perf_counter()
    got, out, err = run(capsys, "cobar", sample("sphere3.json"),
                        "--ring", "Fp:%d" % p, "--cutoff", "4")
    assert got == code and time.perf_counter() - t0 < 1
    if code:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert ("2^64" in err) == (p > 2 ** 64)


def test_formal_dl_needs_field(capsys):
    code, out, err = run(capsys, "formal-dl", sample("sphere3.json"))
    assert code == 1 and "field" in err
    code, rep, _ = run_json(capsys, "formal-dl", sample("sphere3.json"),
                            "--ring", "Q", "--cutoff", "6")
    assert code == 0
    assert rep["betti"][0] == 1


@pytest.mark.parametrize("ring", ["F2", "Q"])
def test_formal_dl_refuses_a_diagonal_with_non_primitive_letters(capsys,
                                                                 ring):
    """nonprimitive has reduced comultiplication 0 but psi_2(v5) = (a3 (x)
    1)(1 (x) b3): the bracket model of C alone would be the double loop of
    another space, so formal-dl refuses it, naming the letter."""
    code, out, err = run(capsys, "formal-dl", sample("nonprimitive.json"),
                         "--ring", ring, "--cutoff", "8")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "s[v5] non-primitive" in err


def test_formal_dl_agrees_with_double_loop_where_it_runs(capsys):
    """On every sample and golden document that the bracket model accepts,
    over F2, F3 and Q at cutoff 8, its homology is double-loop's."""
    accepted = set()
    for path in DOCUMENTS:
        for ring in ("F2", "Fp:3", "Q"):
            argv = [path, "--ring", ring, "--cutoff", "8"]
            code, rep, _ = run_json(capsys, "formal-dl", *argv)
            if code:
                continue
            accepted.add(os.path.basename(path))
            _, want, _ = run_json(capsys, "double-loop", *argv)
            assert rep["homology"] == want["homology"], (path, ring)
    assert accepted == {"sphere2.json", "sphere3.json", "sphere5.json",
                        "sphere3-f3.json", "wedge3-5.json"}


def test_fiber_identity_and_trivial(capsys):
    code, rep, _ = run_json(capsys, "fiber", sample("sphere3.json"),
                            sample("sphere3.json"), "--map", "identity",
                            "--cutoff", "6")
    assert code == 0
    assert rep["betti"] == [1, 0, 0, 0, 0, 0]
    code, rep, _ = run_json(capsys, "fiber", sample("sphere5.json"),
                            sample("sphere3.json"), "--cutoff", "5")
    assert code == 0
    assert rep["betti"][0] == 1


def test_path_loop_acyclic(capsys):
    code, rep, _ = run_json(capsys, "path-loop", sample("sphere3.json"),
                            "--cutoff", "6")
    assert code == 0
    assert rep["betti"] == [1, 0, 0, 0, 0, 0]


def test_out_flag_and_determinism(capsys, tmp_path):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    for p in (p1, p2):
        code, out, err = run(capsys, "cobar", sample("sphere3.json"),
                             "--cutoff", "6", "--format", "json",
                             "--out", str(p))
        assert code == 0 and out == ""
    assert p1.read_bytes() == p2.read_bytes()


def test_table_and_csv_formats(capsys):
    for fmt in ("table", "csv"):
        code = main(["cobar", sample("sphere3.json"), "--cutoff", "4",
                     "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0 and "betti" in out


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "loopalg.cli", "cobar",
         sample("sphere3.json"), "--cutoff", "6", "--format", "json"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["betti"] == [1, 0, 1, 0, 1, 0]


def test_integer_report_does_not_load_sympy():
    # neither ranks and torsion nor cotor's representatives, which take
    # the in-house Smith normal form, need sympy
    code = ("import sys\n"
            "from loopalg.cli import main\n"
            "assert main(['double-loop', %r, '--cutoff', '7',"
            " '--format', 'json']) == 0\n"
            "assert main(['cotor', '--hopf', 'trivial', %r, '--cutoff', '7',"
            " '--format', 'json']) == 0\n"
            "print('sympy' in sys.modules)\n"
            % (sample("sphere3.json"), sample("sphere3.json")))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("cutoff", [4, 5, 6])
def test_cotor_degree2_generator_matches_double_loop(capsys, cutoff):
    # the cobar of the induced Hopf algebra of S2 has degree-0 letters,
    # so cotor needs a weight cap; trivial coefficients give the
    # double-loop homology and regular ones an acyclic complex
    argv = (sample("sphere2.json"), "--cutoff", str(cutoff))
    code, dl, _ = run_json(capsys, "double-loop", *argv)
    assert code == 0
    code, trivial, _ = run_json(capsys, "cotor", "--hopf", "trivial", *argv)
    assert code == 0
    assert trivial["betti"] == dl["betti"]
    assert trivial["homology"] == dl["homology"]
    if cutoff == 6:
        assert [trivial["homology"][n]["torsion"] for n in "234"] == \
            [[2, 2, 2], [2], [3]]
    code, regular, _ = run_json(capsys, "cotor", "--hopf", "self", *argv)
    assert code == 0
    assert regular["homology"] == {
        str(n): {"rank": 1 if n == 0 else 0, "torsion": []}
        for n in range(cutoff)}


@pytest.mark.parametrize("ring", ["Z", "F2", "Fp:3"])
def test_incoherent_map_exits_2(capsys, tmp_path, ring):
    # x5 -> z5 is not a chain map of cobar algebras: d s[z5] has the
    # s[x2]|s[y3] terms of the product's diagonal, d s[x5] = 0
    target = os.path.join(HERE, "tests", "golden", "inputs",
                          "product2-3.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"components": {"1": {"x5": [[1, ["z5"]]]}}}))
    code, out, err = run(capsys, "fiber", sample("sphere5.json"), target,
                         "--map", str(bad), "--ring", ring, "--cutoff", "6")
    assert code == 2 and out == ""
    assert err.startswith("invariant failure: map ")
    assert "x5 (coherence, level 2)" in err
    assert len(err.splitlines()) == 1


def test_coherent_map_document_matches_identity(capsys, tmp_path):
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps({"components": {"1": {"x3": [[1, ["x3"]]]}}}))
    argv = (sample("sphere3.json"), sample("sphere3.json"), "--cutoff", "6")
    code, doc, _ = run_json(capsys, "fiber", *argv, "--map", str(ident))
    assert code == 0
    code, builtin, _ = run_json(capsys, "fiber", *argv, "--map", "identity")
    assert code == 0
    assert doc["homology"] == builtin["homology"]


def test_benchmark_tracer_reaches_the_layers():
    # loopbench/spans.py wraps library names by attribute; run in a fresh
    # interpreter because it patches classes for good
    code = ("import json, sys\n"
            "sys.path.insert(0, %r)\n"
            "import spans\n"
            "from loopalg import cli\n"
            "tracer = spans.Tracer()\n"
            "tracer.install()\n"
            "for command, ring in ((['cotor', '--hopf', 'trivial'], 'Z'),\n"
            "                      (['cotor', '--hopf', 'self'], 'Z'),\n"
            "                      (['double-loop'], 'Z'),\n"
            "                      (['formal-dl'], 'F2'),\n"
            "                      (['fiber', %r], 'Z'),\n"
            "                      (['verify'], 'Z')):\n"
            "    argv = command + [%r, '--ring', ring, '--cutoff', '6',"
            " '--format', 'json']\n"
            "    assert tracer.root('job', cli.main, argv) == 0\n"
            "print(json.dumps(tracer.metrics()))\n"
            % (os.path.join(HERE, "loopbench"), sample("sphere5.json"),
               sample("sphere3.json")))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    # the last four are inherited or overridden by subclasses, where a
    # method of the same name would hide the wrapper
    for name in ("linalg.solve_integer", "chain.matrix",
                 "pathloop.CofixedSubalgebra.basis",
                 "shfamily.InducedHopf.psi", "pathloop.PathLoop.nu",
                 "tensoralg.FreeAlgebra.words",
                 "cobar.TwistedHopfTensor.mul",
                 "formal.FormalDoubleLoop.expand"):
        assert metrics.get(name + ".calls", 0) > 0, name
    # these read library internals (the cofixed kernels, the psi cache),
    # which a refactor could leave behind without an error
    for name in ("chain.homology.calls", "pathloop.kernel_yield",
                 "shfamily.InducedHopf.psi.reuse"):
        assert metrics.get(name, 0) > 0, name
    # the cofixed bases of the S3 double loop and the S5 -> S3 fiber through
    # degree 6: 49 basis vectors over 74 ambient words, as the kernels of
    # the reduced coaction had
    assert metrics["pathloop.kernel_yield"] == 49 / 74


def test_library_error_exits_3_on_one_line(capsys):
    # the weight-capped path-loop basis of S2xS3 over F2 is not closed
    # under the differential at cutoff 6
    doc = os.path.join(HERE, "tests", "golden", "inputs", "product2-3.json")
    code, out, err = run(capsys, "path-loop", doc, "--ring", "F2",
                         "--cutoff", "6")
    assert code == 3 and out == ""
    # the first word, degree by degree in basis order, and the first of
    # its d_word terms above the weight cap
    assert err == (
        "internal error: differential of s[bar(x2)]|s[bar(x2)]|s[bar(x2)]|"
        "s[bar(x2)]|s[bar(x2)]|s[bar(z5)] leaves the stored basis (term "
        "s[bar(x2)]|s[bar(x2)]|s[bar(x2)]|s[bar(x2)]|s[bar(x2)]|s[bar(x2)]|"
        "s[y3])\n")
    # the d^2 check reads the same columns, so it refuses them too
    assert run(capsys, "path-loop", doc, "--ring", "F2", "--cutoff", "6",
               "--verify-all") == (code, out, err)


@pytest.mark.parametrize("cutoff,status", [(4, "pass"), (5, "fail"),
                                           (6, "fail")])
def test_verify_refuses_a_differential_that_leaves_the_basis(capsys, cutoff,
                                                             status):
    # from cutoff 5 on, the weight-capped path-loop basis of S2xS3 over F2
    # is not closed under the differential, and path-loop exits 3
    doc = os.path.join(HERE, "tests", "golden", "inputs", "product2-3.json")
    code, rep, _ = run_json(capsys, "verify", doc, "--ring", "F2",
                            "--cutoff", str(cutoff))
    suites = {o["suite"]: o for o in rep["verifications"]}
    assert suites["path-loop-d2"]["status"] == status
    assert code == (0 if status == "pass" else 2)
    if status == "fail":
        _, _, err = run(capsys, "path-loop", doc, "--ring", "F2",
                        "--cutoff", str(cutoff))
        assert "leaves the stored basis" in suites["path-loop-d2"]["detail"]
        assert err == "internal error: %s\n" % suites["path-loop-d2"]["detail"]


@pytest.mark.parametrize("argv", [
    ["path-loop", sample("sphere3.json")],
    ["double-loop", sample("nonprimitive.json"), "--cutoff", "6"],
    ["cotor", "--hopf", "self", sample("sphere3.json"), "--cutoff", "6"]],
    ids=["path-loop", "double-loop", "cotor-self"])
def test_verify_all_takes_each_differential_once(monkeypatch, capsys, argv):
    """--verify-all checks d^2 = 0 on the columns that the homology then
    eliminates: over both, each complex takes each degree's columns from
    its builder once, and each word algebra builds a degree's word
    columns once."""
    calls, built = [], []
    init, d_columns = ChainComplex.__init__, FreeAlgebra.d_columns

    def spying(self, ring, bases, columns, *args, **kwargs):
        init(self, ring, bases,
             lambda n: calls.append((self, n)) or columns(n),
             *args, **kwargs)

    def counting(self, n, cap=None):
        if (n, cap) not in self._columns:
            built.append((self, n, cap))
        return d_columns(self, n, cap)

    monkeypatch.setattr(ChainComplex, "__init__", spying)
    monkeypatch.setattr(FreeAlgebra, "d_columns", counting)
    code, plain, _ = run_json(capsys, *argv)
    assert code == 0
    del calls[:], built[:]
    code, checked, _ = run_json(capsys, *argv, "--verify-all")
    assert code == 0 and checked == plain
    assert len(calls) > 5
    assert len(calls) == len(set(calls))
    assert len(built) == len(set(built))
    assert built or argv[0] == "cotor"


@pytest.mark.parametrize("command,flags", [
    ("cobar", []), ("cotor", []), ("cotor", ["--hopf", "self"]),
    ("path-loop", []), ("double-loop", []), ("fiber", []),
    ("fiber", ["--map", "identity"]), ("formal-dl", ["--ring", "F2"])],
    ids=["cobar", "cotor", "cotor-self", "path-loop", "double-loop",
         "fiber", "fiber-identity", "formal-dl"])
def test_built_bases_are_in_label_key_order(monkeypatch, capsys, command,
                                            flags):
    """ChainComplex keeps the order it is given, so every basis that a
    command builds on the sample and golden documents must come from its
    builder in label_key order."""
    built = []
    init = ChainComplex.__init__

    def recording(self, ring, bases, *args, **kwargs):
        bases = {n: list(labels) for n, labels in bases.items()}
        built.append((doc, bases))
        init(self, ring, bases, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", recording)
    for doc in DOCUMENTS:
        docs = [doc, doc] if command == "fiber" else [doc]
        main([command] + docs + flags + ["--cutoff", "5", "--format", "json"])
    capsys.readouterr()
    assert len(built) >= 5
    for doc, bases in built:
        for n, labels in bases.items():
            assert labels == sorted(labels, key=label_key), (doc, n)


CIRCLE = os.path.join(HERE, "tests", "golden", "inputs", "circle.json")


@pytest.mark.parametrize("argv", [
    ["cotor", CIRCLE], ["cotor", "--hopf", "self", CIRCLE],
    ["path-loop", CIRCLE], ["double-loop", CIRCLE],
    ["fiber", sample("sphere3.json"), CIRCLE]],
    ids=["cotor", "cotor-self", "path-loop", "double-loop", "fiber-target"])
def test_degree1_generator_is_refused_up_front(capsys, argv):
    # the path object and the cobar letters of the induced Hopf algebra
    # need generators in degree >= 2
    code, out, err = run(capsys, *argv, "--cutoff", "5")
    assert code == 1 and out == ""
    assert err == ("error: %s needs generators in degree >= 2; e1 has "
                   "degree 1\n" % argv[0])


def test_section_defect_needs_degree2_generators(capsys):
    code, rep, _ = run_json(capsys, "verify", CIRCLE)
    suites = {o["suite"]: o for o in rep["verifications"]}
    assert code == 2
    assert suites["section-defect"] == {
        "suite": "section-defect", "status": "fail",
        "detail": "section-defect needs generators in degree >= 2; e1 has "
                  "degree 1"}


@pytest.mark.parametrize("doc", ["sphere3.json", "nonprimitive.json"])
def test_section_defect_suite_sees_a_wrong_twisting_sign(monkeypatch, capsys,
                                                          doc):
    """The suite compares d(1 (x) b) - 1 (x) db with its closed form from
    the reduced comultiplication, so it fails once the left twisting term
    changes sign."""
    from loopalg.cobar import OneSidedCobar
    code, rep, _ = run_json(capsys, "verify", sample(doc), "--cutoff", "5")
    suites = {o["suite"]: o["status"] for o in rep["verifications"]}
    assert suites["section-defect"] == "pass"
    coaction = OneSidedCobar.coaction

    def flipped(self, m):
        terms = coaction(self, m)
        return [(t, -c) for t, c in terms] if self.side == "left" else terms
    monkeypatch.setattr(OneSidedCobar, "coaction", flipped)
    code, rep, _ = run_json(capsys, "verify", sample(doc), "--cutoff", "5")
    suites = {o["suite"]: o for o in rep["verifications"]}
    assert code == 2
    assert suites["section-defect"]["status"] == "fail"
    assert suites["section-defect"]["detail"].startswith("element ")


def test_degree1_generator_elsewhere_keeps_its_answer(capsys):
    # cobar's report is the golden case cobar-circle-c5
    code, rep, _ = run_json(capsys, "cobar", CIRCLE)
    assert code == 0 and rep["construction"] == "cobar"
    code, rep, err = run_json(capsys, "verify", CIRCLE)
    assert code == 2 and err.endswith("verification failed: path-object\n")
    code, rep, _ = run_json(capsys, "fiber", CIRCLE, sample("sphere3.json"),
                            "--cutoff", "5")
    assert code == 0 and rep["input"] == "circle -> sphere3"


def test_one_process_runs_jobs_like_fresh_processes():
    # main reuses one parser; a job that fails must not change the next
    jobs = [["double-loop", sample("sphere3.json"), "--cutoff", "6"],
            ["cobar", sample("sphere3.json"), "--ring", "F9"],
            ["double-loop", sample("sphere3.json"), "--cutoff", "6"]]
    jobs = [argv + ["--format", "json"] for argv in jobs]
    code = ("import contextlib, io, json\n"
            "from loopalg.cli import main\n"
            "out = []\n"
            "for argv in %r:\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        rc = main(argv)\n"
            "    out.append([rc, buf.getvalue()])\n"
            "print(json.dumps(out))\n" % jobs)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    together = json.loads(proc.stdout)
    fresh = []
    for argv in jobs:
        proc = subprocess.run([sys.executable, "-m", "loopalg.cli"] + argv,
                              capture_output=True, text=True, env=child_env())
        fresh.append([proc.returncode, proc.stdout])
    assert together == fresh
    assert [rc for rc, _ in fresh] == [0, 1, 0]


def test_verify_builds_one_induced_hopf_and_one_path_loop(monkeypatch,
                                                           capsys):
    from loopalg import cli, shfamily
    built = []
    for module, name in ((shfamily, "InducedHopf"), (cli, "PathLoop")):
        cls = getattr(module, name)
        monkeypatch.setattr(module, name, lambda A, cls=cls, name=name:
                            built.append(name) or cls(A))
    code, rep, _ = run_json(capsys, "verify", sample("sphere3.json"),
                            "--cutoff", "6")
    assert code == 0
    assert sorted(built) == ["InducedHopf", "PathLoop"]

    def broken(A):
        built.append("broken")
        raise ValueError("no path loop here")

    monkeypatch.setattr(cli, "PathLoop", broken)
    del built[:]
    code, rep, _ = run_json(capsys, "verify", sample("sphere3.json"),
                            "--cutoff", "6")
    assert code == 2
    failed = {o["suite"]: o["detail"] for o in rep["verifications"]
              if o["status"] == "fail"}
    assert failed == dict.fromkeys(["path-loop-d2", "kappa", "cofreeness"],
                                   "no path loop here")
    assert built.count("broken") == 3


GOLDEN_INPUTS = os.path.join(HERE, "tests", "golden", "inputs")


def test_models_are_the_same_under_every_hash_seed():
    """The cofixed models list their start words and the terms of each
    P(w) in dict insertion order alone: a set iterated on the way would
    make the kernels, the boundary columns or the report depend on the
    string hash seed."""
    product2_3 = os.path.join(GOLDEN_INPUTS, "product2-3.json")
    jobs = [["double-loop", sample("nonprimitive.json")],
            ["double-loop", os.path.join(GOLDEN_INPUTS, "product3-5.json")],
            ["double-loop", os.path.join(GOLDEN_INPUTS, "wedge3-5.json")],
            ["fiber", sample("sphere5.json"), sample("sphere3.json")],
            ["fiber", sample("sphere3.json"), sample("sphere3.json"),
             "--map", "identity"]]
    jobs = [argv + ["--cutoff", "8"] for argv in jobs] + [
        # capped: one kernel over the words of every weight
        ["double-loop", sample("sphere2.json"), "--cutoff", "5"],
        ["fiber", product2_3, product2_3, "--cutoff", "5"]]
    jobs = [argv + ["--format", "json"] for argv in jobs]
    code = ("import contextlib, hashlib, io, json\n"
            "from loopalg import cli, pathloop\n"
            "built = []\n"
            "to_cx = pathloop.CofixedSubalgebra.to_chain_complex\n"
            "def recording(sub, *args, **kwargs):\n"
            "    cx = to_cx(sub, *args, **kwargs)\n"
            "    built.append((sub, cx))\n"
            "    return cx\n"
            "pathloop.CofixedSubalgebra.to_chain_complex = recording\n"
            "for argv in %r:\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        rc = cli.main(argv)\n"
            "    sub, cx = built.pop()\n"
            "    print(json.dumps([rc, buf.getvalue()] + [\n"
            "        hashlib.sha256(repr(list(d.items())).encode()).hexdigest()\n"
            "        for d in (sub._kernels, cx._columns)]))\n" % jobs)
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=dict(child_env(), PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outs.append([json.loads(line) for line in proc.stdout.splitlines()])
    assert len(outs[0]) == len(jobs)
    for argv, (rc, report, kernels, columns), other in zip(jobs, *outs):
        # H_0 is one copy of the ring per weight through the cap
        rep = json.loads(report)
        assert rc == 0 and rep["betti"][0] == (rep["max_weight"] or 0) + 1, \
            argv
        assert other == [rc, report, kernels, columns], argv


@pytest.fixture
def gc_state():
    """Restores the collector's state after a test that switches it."""
    before = gc.isenabled()
    yield
    if before:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("collecting", [True, False],
                         ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,code", [
    (["double-loop", sample("sphere3.json"), "--cutoff", "6"], 0),
    (["cobar", sample("sphere3.json"), "--ring", "F9"], 1),
    (["verify", sample("noncoassoc.json")], 2),
    (["path-loop", os.path.join(GOLDEN_INPUTS, "product2-3.json"),
      "--ring", "F2", "--cutoff", "6"], 3)],
    ids=["exit0", "exit1", "exit2", "exit3"])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, capsys,
                                                  gc_state, argv, code,
                                                  collecting):
    from loopalg import cli
    seen = []
    command = cli.COMMANDS[argv[0]]

    def watched(args, t0):
        seen.append(gc.isenabled())
        command(args, t0)

    monkeypatch.setitem(cli.COMMANDS, argv[0], watched)
    (gc.enable if collecting else gc.disable)()
    assert run(capsys, *argv)[0] == code
    assert gc.isenabled() is collecting
    assert seen == [False]


@pytest.mark.parametrize("collecting", [True, False],
                         ids=["enabled", "disabled"])
def test_main_restores_the_collector_when_a_command_raises(monkeypatch,
                                                           gc_state,
                                                           collecting):
    from loopalg import cli

    def broken(args, t0):
        raise RuntimeError("broken command")

    monkeypatch.setitem(cli.COMMANDS, "cobar", broken)
    (gc.enable if collecting else gc.disable)()
    with pytest.raises(RuntimeError, match="broken command"):
        main(["cobar", sample("sphere3.json")])
    assert gc.isenabled() is collecting
