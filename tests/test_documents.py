"""Input document parsing, validation messages, and report rendering."""

import json
import os

import pytest

from loopalg.rings import ZZ, F2
from loopalg.documents import (DocumentError, coalgebra_from_document,
                               shmap_from_document, render_report,
                               load_json)

from models import sphere_model

SAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "sample_inputs")


def sample(name):
    return load_json(os.path.join(SAMPLES, name + ".json"))


def test_examples_all_build_and_verify():
    names = sorted(f[:-5] for f in os.listdir(SAMPLES) if f.endswith(".json"))
    assert names == ["noncoassoc", "nonprimitive", "sphere2", "sphere3",
                     "sphere5"]
    for name in names:
        C, aw = coalgebra_from_document(sample(name))
        okC, problems = C.verify()
        assert okC, (name, problems)
        ok, problems = aw.verify()
        assert ok, (name, problems)


def test_sphere_document_matches_model():
    C, aw = coalgebra_from_document(sample("sphere3"))
    M = sphere_model(3, ZZ, 8)
    assert C.gens == M.gens
    assert aw.psi.max_level() == 1


def test_ring_and_cutoff_overrides():
    C, _ = coalgebra_from_document(sample("sphere3"), ring=F2, cutoff=5)
    assert C.ring is F2 and C.cutoff == 5


def test_validation_messages_name_generators():
    doc = sample("sphere3")
    doc["d"] = {"x3": [[1, "nope"]]}
    with pytest.raises(DocumentError, match="'d' of x3.*nope"):
        coalgebra_from_document(doc)

    doc = sample("sphere3")
    doc["generators"].append({"label": "y4", "degree": 4})
    doc["d"] = {"y4": [[1, "x3"]]}
    C, _ = coalgebra_from_document(doc)
    assert C.d_of("y4").terms == {"x3": 1}
    doc["d"] = {"x3": [[1, "y4"]]}
    with pytest.raises(DocumentError, match="lower degree by one"):
        coalgebra_from_document(doc)

    doc = sample("nonprimitive")
    doc["psi"]["2"]["v5"] = [[1, ["a3", "a3"], ["1", "b3"]]]
    with pytest.raises(DocumentError, match="'psi' level 2 of v5.*raise "
                       "degree by 1"):
        coalgebra_from_document(doc)


def test_bad_toplevel_documents():
    with pytest.raises(DocumentError):
        coalgebra_from_document([])
    with pytest.raises(DocumentError, match="missing 'ring'"):
        coalgebra_from_document({"cutoff": 4, "generators": []})
    with pytest.raises(DocumentError, match="bad ring"):
        coalgebra_from_document({"ring": "F9", "cutoff": 4, "generators": []})
    with pytest.raises(DocumentError, match="duplicate generator"):
        coalgebra_from_document({"ring": "Z", "cutoff": 4, "generators": [
            {"label": "a", "degree": 2}, {"label": "a", "degree": 2}]})


def test_psi_level_one_rejected():
    doc = sample("nonprimitive")
    doc["psi"]["1"] = {}
    with pytest.raises(DocumentError, match="levels start at 2"):
        coalgebra_from_document(doc)


def test_noncoassoc_document_extends_nonprimitive():
    C, aw = coalgebra_from_document(sample("noncoassoc"))
    assert "u7" in C.gens


def test_shmap_from_document():
    C3 = sphere_model(3, ZZ, 8)
    doc = {"name": "id", "components": {"1": {"x3": [[1, ["x3"]]]}}}
    fam = shmap_from_document(doc, C3, C3)
    ok, problems = fam.verify()
    assert ok, problems
    bad = {"components": {"1": {"x3": [[1, ["nope"]]]}}}
    with pytest.raises(DocumentError, match="unknown.*target"):
        shmap_from_document(bad, C3, C3)


def test_render_report_formats():
    report = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    out = render_report(report, "json")
    assert out.endswith("\n")
    assert json.loads(out) == report
    # keys are sorted for byte-identical output
    assert out.index('"a"') < out.index('"b"')
    table = render_report(report, "table")
    csv = render_report(report, "csv")
    assert "a.x" in table and "a.x" in csv


def test_render_report_deterministic():
    r1 = {"z": 1, "a": [3, {"k": 4}]}
    r2 = {"a": [3, {"k": 4}], "z": 1}
    assert render_report(r1, "json") == render_report(r2, "json")


def test_load_json_missing_file():
    with pytest.raises(DocumentError):
        load_json("/nonexistent/file.json")
