"""JSON documents describing coalgebras with homotopy diagonals, and
deterministic report rendering.

A coalgebra document:

    {"name": "...", "ring": "Z" | "Q" | "F2" | "Fp:<p>", "cutoff": N,
     "generators": [{"label": "x3", "degree": 3}, ...],
     "d":     {"x3": [[coeff, "y2"], ...], ...},
     "delta": {"x3": [[coeff, "a", "b"], ...], ...},
     "psi":   {"2": {"x3": [[coeff, ["a","b"], ["c","d"]], ...}, ...}}

"d" / "delta" / "psi" are optional.  "delta" is the reduced
comultiplication; "psi" holds the higher components of the homotopy
diagonal (level 1 is always the full comultiplication and is not
spelled out).  A map document has "components": {"1": {"x3": [[coeff,
["y3"]], ...]}, ...} against an explicit source and target.
"""

import json

from .rings import ring_from_name
from .vectors import Vect
from .coalg import UNIT, DGCoalgebra, tensor_coalgebra
from .shfamily import SHFamily, AWCoalgebra, psi_one


class DocumentError(ValueError):
    """Malformed or semantically invalid input document."""


def load_json(path):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as e:
        raise DocumentError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise DocumentError("invalid JSON in %s: %s" % (path, e))


def _require(cond, msg):
    if not cond:
        raise DocumentError(msg)


def _object(value, what):
    _require(isinstance(value, dict), "%s must be an object" % what)
    return value


def _list(value, what):
    _require(isinstance(value, list), "%s must be a list" % what)
    return value


def _coeff(c, where):
    # type, not isinstance: JSON true/false load as bool, a subclass of int
    _require(type(c) is int, "coefficient in %s must be an integer, "
             "got %r" % (where, c))
    return c


def coalgebra_from_document(doc, ring=None, cutoff=None):
    """Build the coalgebra and its homotopy diagonal from a document dict.
    ring / cutoff override the document's values when given."""
    _require(isinstance(doc, dict), "document must be a JSON object")
    name = doc.get("name", "")
    _require(isinstance(name, str), "'name' must be a string")
    if ring is None:
        _require("ring" in doc, "missing 'ring'")
        _require(isinstance(doc["ring"], str), "'ring' must be a string")
        try:
            ring = ring_from_name(doc["ring"])
        except (ValueError, TypeError) as e:
            raise DocumentError("bad ring: %s" % e)
    if cutoff is None:
        cutoff = doc.get("cutoff")
    _require(type(cutoff) is int and cutoff >= 1,
             "'cutoff' must be a positive integer")
    gens = {}
    _require(isinstance(doc.get("generators"), list),
             "'generators' must be a list")
    for item in doc["generators"]:
        _require(isinstance(item, dict) and "label" in item and "degree" in item,
                 "each generator needs 'label' and 'degree'")
        label = item["label"]
        deg = item["degree"]
        _require(isinstance(label, str) and label and label != UNIT,
                 "bad generator label %r" % (label,))
        _require(type(deg) is int and deg >= 1,
                 "generator %s: degree must be a positive integer" % label)
        _require(label not in gens, "duplicate generator %s" % label)
        gens[label] = deg

    def known(label, where):
        _require(isinstance(label, str) and label in gens,
                 "%s refers to unknown generator %r" % (where, label))
        return label

    d = {}
    for g, terms in _object(doc.get("d") or {}, "'d'").items():
        known(g, "'d'")
        v = Vect(ring)
        for term in _list(terms, "'d' of %s" % g):
            _require(isinstance(term, list) and len(term) == 2,
                     "'d' term of %s must be [coeff, label]" % g)
            c, out = term
            known(out, "'d' of %s" % g)
            _require(gens[out] == gens[g] - 1,
                     "'d' of %s must lower degree by one (term %s)" % (g, out))
            v.iadd_term(_coeff(c, "'d' of %s" % g), out)
        d[g] = v
    delta = {}
    for g, terms in _object(doc.get("delta") or {}, "'delta'").items():
        known(g, "'delta'")
        v = Vect(ring)
        for term in _list(terms, "'delta' of %s" % g):
            _require(isinstance(term, list) and len(term) == 3,
                     "'delta' term of %s must be [coeff, label, label]" % g)
            c, a, b = term
            known(a, "'delta' of %s" % g)
            known(b, "'delta' of %s" % g)
            _require(gens[a] + gens[b] == gens[g],
                     "'delta' of %s must preserve degree (term %s,%s)"
                     % (g, a, b))
            v.iadd_term(_coeff(c, "'delta' of %s" % g), ("t", a, b))
        delta[g] = v
    C = DGCoalgebra(ring, cutoff, gens, d, delta, name=name)

    psi_doc = _object(doc.get("psi") or {}, "'psi'")
    if not psi_doc:
        return C, AWCoalgebra.strict(C)
    comps = {1: psi_one(C)}
    for kstr, table in psi_doc.items():
        try:
            k = int(kstr)
        except (ValueError, TypeError):
            raise DocumentError("'psi' level %r is not an integer" % (kstr,))
        _require(k >= 2, "'psi' levels start at 2 (level 1 is the "
                 "comultiplication); got %d" % k)
        for g, terms in _object(table, "'psi' level %d" % k).items():
            known(g, "'psi' level %d" % k)
            v = Vect(ring)
            for term in _list(terms, "'psi' level %d of %s" % (k, g)):
                _require(isinstance(term, list) and len(term) == k + 1,
                         "'psi' level %d term of %s must be "
                         "[coeff, pair, ..., pair]" % (k, g))
                c = _coeff(term[0], "'psi' of %s" % g)
                parts = []
                total = 0
                for pair in term[1:]:
                    _require(isinstance(pair, list) and len(pair) == 2,
                             "'psi' slots of %s must be [label, label] "
                             "pairs (\"1\" for the unit)" % g)
                    a, b = pair
                    for l in (a, b):
                        _require(isinstance(l, str) and (l == UNIT or l in gens),
                                 "'psi' of %s refers to unknown generator %r"
                                 % (g, l))
                    _require(not (a == UNIT and b == UNIT),
                             "'psi' of %s has an all-unit slot" % g)
                    total += (gens.get(a, 0) + gens.get(b, 0))
                    parts.append(("tp", a, b))
                _require(total == gens[g] + k - 1,
                         "'psi' level %d of %s must raise degree by %d"
                         % (k, g, k - 1))
                v.iadd_term(c, ("t",) + tuple(parts))
            if not v.is_zero():
                comps.setdefault(k, {})[g] = v
    fam = SHFamily(C, tensor_coalgebra(C, C), comps, name="Psi")
    return C, AWCoalgebra(C, fam, name=name)


def shmap_from_document(doc, source, target):
    """Build an SHFamily from a map document against explicit source and
    target coalgebras."""
    _require(isinstance(doc, dict), "map document must be a JSON object")
    _require(isinstance(doc.get("components"), dict),
             "map document needs 'components'")
    comps = {}
    for kstr, table in doc["components"].items():
        try:
            k = int(kstr)
        except (ValueError, TypeError):
            raise DocumentError("component level %r is not an integer" % (kstr,))
        _require(k >= 1, "component levels start at 1")
        for g, terms in _object(table, "component level %d" % k).items():
            _require(g in source.gens, "map refers to unknown source "
                     "generator %r" % (g,))
            v = Vect(source.ring)
            for term in _list(terms, "level %d component of %s" % (k, g)):
                _require(isinstance(term, list) and len(term) == 2
                         and isinstance(term[1], list) and len(term[1]) == k,
                         "level %d term of %s must be [coeff, [%d labels]]"
                         % (k, g, k))
                c = _coeff(term[0], "map component of %s" % g)
                total = 0
                for l in term[1]:
                    _require(isinstance(l, str) and l in target.gens,
                             "map refers to unknown "
                             "target generator %r" % (l,))
                    total += target.gens[l]
                _require(total == source.gens[g] + k - 1,
                         "level %d component of %s must raise degree by %d"
                         % (k, g, k - 1))
                v.iadd_term(c, ("t",) + tuple(term[1]))
            if not v.is_zero():
                comps.setdefault(k, {})[g] = v
    return SHFamily(source, target, comps, name=doc.get("name", "map"))


# -- report rendering ----------------------------------------------------

def render_report(report, fmt):
    """Render a report dict deterministically.  'json' is the machine
    contract; 'table' and 'csv' are cosmetic."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
    rows = _flatten(report)
    if fmt == "csv":
        lines = ["key,value"]
        for k, v in rows:
            sv = str(v)
            if "," in sv or '"' in sv:
                sv = '"' + sv.replace('"', '""') + '"'
            lines.append("%s,%s" % (k, sv))
        return "\n".join(lines) + "\n"
    if fmt == "table":
        width = max((len(k) for k, _ in rows), default=0)
        return "".join("%-*s  %s\n" % (width, k, v) for k, v in rows)
    raise DocumentError("unknown format %r" % (fmt,))


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], "%s.%s" % (prefix, k) if prefix else str(k)))
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, item in enumerate(obj):
            rows.extend(_flatten(item, "%s[%d]" % (prefix, i)))
    elif isinstance(obj, list):
        rows.append((prefix, " ".join(str(x) for x in obj)))
    else:
        rows.append((prefix, obj))
    return rows
