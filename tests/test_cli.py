"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import loopalg
from loopalg.chain import ChainComplex
from loopalg.cli import main
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


def test_parse_errors_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "cobar", "/nonexistent.json")
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1 and "ring" in err

    code, out, err = run(capsys, "cobar", sample("sphere3.json"),
                         "--cutoff", "1")
    assert code == 1 and "cutoff" in err

    code, out, err = run(capsys, "cobar", sample("sphere3.json"),
                         "--ring", "F9")
    assert code == 1


def test_formal_dl_needs_field(capsys):
    code, out, err = run(capsys, "formal-dl", sample("sphere3.json"))
    assert code == 1 and "field" in err
    code, rep, _ = run_json(capsys, "formal-dl", sample("sphere3.json"),
                            "--ring", "Q", "--cutoff", "6")
    assert code == 0
    assert rep["betti"][0] == 1


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
            "                      (['formal-dl'], 'F2')):\n"
            "    argv = command + [%r, '--ring', ring, '--cutoff', '6',"
            " '--format', 'json']\n"
            "    assert tracer.root('job', cli.main, argv) == 0\n"
            "print(json.dumps(tracer.metrics()))\n"
            % (os.path.join(HERE, "loopbench"), sample("sphere3.json")))
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


def test_library_error_exits_3_on_one_line(capsys):
    # the weight-capped path-loop basis of S2xS3 over F2 is not closed
    # under the differential at cutoff 6
    doc = os.path.join(HERE, "tests", "golden", "inputs", "product2-3.json")
    code, out, err = run(capsys, "path-loop", doc, "--ring", "F2",
                         "--cutoff", "6")
    assert code == 3 and out == ""
    assert err.startswith("internal error: differential of ")
    assert "leaves the stored basis" in err
    assert len(err.splitlines()) == 1


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
