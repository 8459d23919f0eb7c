"""Quasi-isomorphism invariance: the commands compute invariants of a
space, so a document wedged with a contractible pair (e, f), d e = f,
must give the minimal document's homology."""

import json
import os

import pytest

from loopalg.cli import main
from loopalg.documents import load_json

from models import wedge_contractible

SAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "sample_inputs")

# the minimal document and the degree k of the pair (e_{k+1}, f_k)
VARIANTS = {"sphere3+e5f4": ("sphere3.json", 4),
            "nonprimitive+e6f5": ("nonprimitive.json", 5)}


def homology(capsys, argv):
    assert main(argv + ["--cutoff", "9", "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["homology"]


# cotor is left out: on both variants it differs from the minimal
# document in its top degree, where H is built only through the cutoff
@pytest.mark.parametrize("ring", ["Z", "F2"])
@pytest.mark.parametrize("command", ["cobar", "path-loop", "double-loop",
                                     "fiber"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_contractible_wedge_summand_changes_no_homology(tmp_path, capsys,
                                                          variant, command,
                                                          ring):
    """cobar, path-loop, double-loop and the fiber of the trivial map
    from S5 at cutoff 9 give the same homology on the variant as on the
    minimal document."""
    name, k = VARIANTS[variant]
    minimal = os.path.join(SAMPLES, name)
    path = tmp_path / (variant + ".json")
    path.write_text(json.dumps(wedge_contractible(load_json(minimal), k)))
    source = [os.path.join(SAMPLES, "sphere5.json")] \
        if command == "fiber" else []
    reports = [homology(capsys, [command] + source + [doc, "--ring", ring])
               for doc in (minimal, str(path))]
    assert reports[0] == reports[1]
