"""Golden corpus: `--format json` reports compared byte for byte.

Each case runs `loopalg.cli.main` in-process on a sample input or on a
document under tests/golden/inputs/ and compares stdout and the exit code
with tests/golden/expected/<name>.json.  The expected reports were written
before homology moved to sparse elimination; they change only when an
answer is changed on purpose.  To rewrite them after such a change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from loopalg import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "golden", "expected")


def _path(ref):
    """'sample:<name>' or 'golden:<name>' -> a document path."""
    where, name = ref.split(":")
    base = os.path.join(ROOT, "sample_inputs") if where == "sample" \
        else os.path.join(HERE, "golden", "inputs")
    return os.path.join(base, name + ".json")


# (case name, subcommand, documents, extra flags)
CASES = [
    ("cobar-sphere2", "cobar", ["sample:sphere2"], []),
    ("path-loop-sphere2-c5", "path-loop", ["sample:sphere2"], ["--cutoff", "5"]),
    ("double-loop-sphere2-c6", "double-loop", ["sample:sphere2"], ["--cutoff", "6"]),
    ("formal-dl-sphere2-f2-c6", "formal-dl", ["sample:sphere2"],
     ["--ring", "F2", "--cutoff", "6"]),
    ("verify-sphere2-c5", "verify", ["sample:sphere2"], ["--cutoff", "5"]),
    ("cobar-sphere3", "cobar", ["sample:sphere3"], []),
    ("path-loop-sphere3", "path-loop", ["sample:sphere3"], []),
    ("double-loop-sphere3", "double-loop", ["sample:sphere3"], []),
    ("formal-dl-sphere3-f2", "formal-dl", ["sample:sphere3"], ["--ring", "F2"]),
    ("formal-dl-sphere3-f3", "formal-dl", ["sample:sphere3"], ["--ring", "Fp:3"]),
    ("verify-sphere3", "verify", ["sample:sphere3"], []),
    ("cotor-sphere3", "cotor", ["sample:sphere3"], []),
    ("cotor-self-sphere3", "cotor", ["sample:sphere3"], ["--hopf", "self"]),
    ("cobar-sphere5", "cobar", ["sample:sphere5"], []),
    ("path-loop-sphere5", "path-loop", ["sample:sphere5"], []),
    ("double-loop-sphere5", "double-loop", ["sample:sphere5"], []),
    ("formal-dl-sphere5-q", "formal-dl", ["sample:sphere5"], ["--ring", "Q"]),
    ("verify-sphere5", "verify", ["sample:sphere5"], []),
    ("cotor-sphere5", "cotor", ["sample:sphere5"], []),
    ("cotor-self-sphere5", "cotor", ["sample:sphere5"], ["--hopf", "self"]),
    ("cobar-nonprimitive", "cobar", ["sample:nonprimitive"], []),
    ("path-loop-nonprimitive-c4", "path-loop", ["sample:nonprimitive"],
     ["--cutoff", "4"]),
    ("double-loop-nonprimitive-c5", "double-loop", ["sample:nonprimitive"],
     ["--cutoff", "5"]),
    ("verify-nonprimitive-c6", "verify", ["sample:nonprimitive"], ["--cutoff", "6"]),
    ("cotor-nonprimitive-c4", "cotor", ["sample:nonprimitive"], ["--cutoff", "4"]),
    ("cotor-self-nonprimitive-c4", "cotor", ["sample:nonprimitive"],
     ["--hopf", "self", "--cutoff", "4"]),
    ("cobar-noncoassoc", "cobar", ["sample:noncoassoc"], []),
    ("verify-noncoassoc-c7", "verify", ["sample:noncoassoc"], ["--cutoff", "7"]),
    ("fiber-sphere5-sphere3", "fiber", ["sample:sphere5", "sample:sphere3"], []),
    ("fiber-identity-sphere3-c6", "fiber", ["sample:sphere3", "sample:sphere3"],
     ["--map", "identity", "--cutoff", "6"]),
    ("double-loop-wedge3-5-c7", "double-loop", ["golden:wedge3-5"], ["--cutoff", "7"]),
    ("double-loop-product3-5-c7", "double-loop", ["golden:product3-5"],
     ["--cutoff", "7"]),
    ("cobar-product3-5", "cobar", ["golden:product3-5"], []),
    ("cobar-product2-3-f2", "cobar", ["golden:product2-3"], []),
    ("double-loop-sphere3-f3-c10", "double-loop", ["golden:sphere3-f3"], []),
    ("cobar-circle-c5", "cobar", ["golden:circle"], []),
    ("double-loop-sphere3-f2-c10", "double-loop", ["sample:sphere3"],
     ["--ring", "F2", "--cutoff", "10"]),
    ("double-loop-sphere3-z-c9", "double-loop", ["sample:sphere3"], ["--cutoff", "9"]),
    ("cotor-sphere3-z-c9", "cotor", ["sample:sphere3"], ["--cutoff", "9"]),
    ("cotor-sphere3-f3-c9", "cotor", ["sample:sphere3"],
     ["--ring", "Fp:3", "--cutoff", "9"]),
    ("cotor-self-sphere3-f2-c7", "cotor", ["sample:sphere3"],
     ["--hopf", "self", "--ring", "F2", "--cutoff", "7"]),
]


def run_case(command, docs, flags):
    """(exit code, stdout) of one CLI run with --format json."""
    argv = [command] + flags + [_path(d) for d in docs] + ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _expected(name):
    with open(os.path.join(EXPECTED, name + ".json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,command,docs,flags", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_report(name, command, docs, flags):
    want = _expected(name)
    code, report = run_case(command, docs, flags)
    assert code == want["exit"]
    assert report == want["stdout"]


def test_corpus_covers_the_required_cases():
    reports = {name: json.loads(_expected(name)["stdout"]) for name, *_ in CASES}
    z_cotor = [r for r in reports.values()
               if r["command"] == "cotor" and r["ring"] == "Z"]
    assert {r["construction"] for r in z_cotor if r["structure_constants"]} \
        == {"cotor-trivial", "cotor-self"}
    assert any(r["max_weight"] is not None for r in reports.values())
    torsion_degrees = [n for n, h in
                       reports["double-loop-sphere3-z-c9"]["homology"].items()
                       if h["torsion"]]
    assert len(torsion_degrees) > 1


def write_expected():
    os.makedirs(EXPECTED, exist_ok=True)
    for name, command, docs, flags in CASES:
        code, report = run_case(command, docs, flags)
        with open(os.path.join(EXPECTED, name + ".json"), "w") as fh:
            json.dump({"exit": code, "stdout": report}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    write_expected()
    sys.exit(0)
