"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from loopalg.cli import main

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = os.path.join(HERE, "sample_inputs")


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
        capture_output=True, text=True)
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
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"
