"""No polytope or valuation file can crash `slval valuate`.

Valid documents, at most 4 dimensions and 8 vertex rows, are mutated one
or two places at a time: a key dropped, renamed or given a value of
another JSON type; a value nested in a list or an object; a float, bool,
huge int, long string or non-ASCII string in place of a scalar; a
`field_d` that is not squarefree, negative, too large or not an int; a
row made ragged.  `cli.main(["valuate", ...])` runs in process on each
pair of files and must end with exit 0 and one stdout line, or with exit
2, empty stdout and one stderr line; an exception that escapes `main` is
the traceback a user would see.  Hypothesis is derandomized, so tier-1
runs the same examples every time.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from slval.cli import main

POLYTOPES = (
    {"ambient_dim": 1, "field_d": 0, "vertices": [["-1/2"], ["3"]]},
    {"ambient_dim": 2, "field_d": 0, "vertices": [["0", "0"], ["1", "0"], ["0", "5"], ["1/3", "1/3"]]},
    {"ambient_dim": 2, "field_d": 2, "vertices": [["0", "0"], ["1+1*sqrt(2)", "0"], ["1", "2-1*sqrt(2)"]]},
    {"ambient_dim": 3, "field_d": 0,
     "vertices": [[x, y, z] for x in ("0", "1") for y in ("-1", "1") for z in ("1", "2")]},
    {"ambient_dim": 3, "field_d": 2, "vertices": [["0", "0", "0"], ["0+1*sqrt(2)", "0", "0"], ["0", "1", "1/2"]]},
    {"ambient_dim": 4, "field_d": 0,
     "vertices": [["-1", "-1", "-1", "-1"], ["2", "0", "0", "0"], ["0", "2", "0", "0"],
                  ["0", "0", "2", "0"], ["0", "0", "0", "2"]]},
)
VALUATIONS = (
    {"c0": "1", "c0p": "2", "d0": "4", "psi": {"kind": "linear", "lambda": "3"},
     "phi": {"kind": "linear", "lambda": "5"}},
    {"c0": "-1/2", "c0p": "0", "d0": "1", "psi": {"kind": "rational_part"},
     "phi": {"kind": "linear", "lambda": "5/2"}},
    {"c0": "1", "c0p": "1+1*sqrt(2)", "d0": "0", "psi": {"kind": "linear", "lambda": "1-1*sqrt(2)"},
     "phi": {"kind": "rational_part"}},
)

# json.dumps refuses ints of more than 4,300 digits, so this string stands
# in for one and is swapped for its digits in the written file
HUGE = "\x00huge int\x00"
HUGE_DIGITS = "9" * 5000

SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from([10**30, -(10**300), 10**4000, HUGE]),
    st.sampled_from(["1" * 5000, "x" * 5000, "1/" + "7" * 4400, "1+1*sqrt(" + "3" * 600 + ")"]),
    st.text(st.characters(min_codepoint=128, exclude_categories=["Cs"]), min_size=1, max_size=8),
    st.sampled_from(["½", "١", "１", "1+1*sqrt(２)", "é", "∞"]),
)
OTHER_TYPES = st.sampled_from([None, [], {}, 0, -1, "", "0", [["0"]], {"kind": "linear"}])
BAD_FIELDS = st.sampled_from([-2, -1, 1, 4, 8, 12, 18, 10**10 + 1, 10**11, 2**64, "2", 2.0, True, None, [2]])


def paths(obj, prefix=()):
    """The path of every value in obj, obj itself first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


def parent_of(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw, doc, polytope):
    """A copy of doc with one mutation."""
    doc = copy.deepcopy(doc)
    inner = [p for p in paths(doc) if p]
    kinds = ["drop", "rename", "retype", "nest", "scalar"] + (["field", "ragged"] if polytope else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "field" and isinstance(doc, dict):
        doc["field_d"] = draw(BAD_FIELDS)
        return doc
    rows = doc.get("vertices") if isinstance(doc, dict) else None
    if kind == "ragged" and isinstance(rows, list) and any(isinstance(row, list) for row in rows):
        i = draw(st.sampled_from([i for i, row in enumerate(rows) if isinstance(row, list)]))
        rows[i] = draw(st.sampled_from([rows[i][:-1], rows[i] + ["0"], [], rows[i] * 2]))
        return doc
    if not inner:
        return draw(OTHER_TYPES)
    path = draw(st.sampled_from(inner))
    parent, key = parent_of(doc, path), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "rename":
        if isinstance(parent, dict):
            parent[draw(st.sampled_from([key.upper(), key + "_", " " + key, ""]))] = parent.pop(key)
    elif kind == "retype":
        parent[key] = draw(OTHER_TYPES)
    elif kind == "nest":
        parent[key] = draw(st.sampled_from([[parent[key]], {"value": parent[key]}]))
    else:
        parent[key] = draw(SCALARS)
    return doc


@st.composite
def file_pairs(draw):
    """A valid polytope and valuation, one of them mutated once or twice:
    `valuate` reads the valuation first, so a broken valuation would hide
    the polytope's mutations."""
    polytope = draw(st.sampled_from(POLYTOPES))
    valuation = draw(st.sampled_from(VALUATIONS))
    mutate_polytope = draw(st.booleans())
    for _ in range(draw(st.integers(1, 2))):
        if mutate_polytope:
            polytope = draw(mutated(polytope, True))
        else:
            valuation = draw(mutated(valuation, False))
    return polytope, valuation, draw(st.sampled_from(["text", "json"]))


def write(path, doc):
    text = json.dumps(doc, ensure_ascii=False).replace(json.dumps(HUGE), HUGE_DIGITS)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@given(file_pairs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_valuate_ends_with_a_value_or_one_error_line(case):
    polytope, valuation, form = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        argv = ["valuate", "--format", form,
                "--in", write(os.path.join(directory, "p.json"), polytope),
                "--valuation", write(os.path.join(directory, "v.json"), valuation)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code == 0:
        assert out.getvalue().count("\n") == 1 and err.getvalue() == ""
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


def test_the_unmutated_documents_valuate():
    """Every pair of the documents the mutations start from prints a value,
    so an exit 2 above comes from the mutation."""
    for polytope in POLYTOPES:
        for valuation in VALUATIONS:
            out = io.StringIO()
            with tempfile.TemporaryDirectory() as directory:
                argv = ["valuate", "--in", write(os.path.join(directory, "p.json"), polytope),
                        "--valuation", write(os.path.join(directory, "v.json"), valuation)]
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0, (polytope, valuation)
