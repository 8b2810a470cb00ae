import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import slval
import slval.polytope
import slval.triangulate
from slval import cli, harness
from slval.cli import main
from slval.exactnum import MAX_DISCRIMINANT


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def linear_valuation(c0="0", c0p="0", cn="0", d0="0", dn="0"):
    return {
        "c0": c0,
        "c0p": c0p,
        "d0": d0,
        "psi": {"kind": "linear", "lambda": cn},
        "phi": {"kind": "linear", "lambda": dn},
    }


ORIGIN_POINT = {"ambient_dim": 2, "field_d": 0, "vertices": [["0", "0"]]}
VERTICAL_SEGMENT = {"ambient_dim": 2, "field_d": 0, "vertices": [["0", "-1"], ["0", "1"]]}
TRIANGLE = {"ambient_dim": 2, "field_d": 0, "vertices": [["0", "0"], ["1", "0"], ["0", "5"]]}
SEGMENT = {"ambient_dim": 1, "field_d": 0, "vertices": [["0"], ["5"]]}


def exact_oracle(tmp_path, monkeypatch, tail=""):
    """Command of an oracle that evaluates the valuation (1, 2, 3, 4, 5) on
    each line with the slval under test; `tail` may change the list
    `values` before it is printed."""
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(slval.__file__)))
    val = write_json(tmp_path / "v.json", linear_valuation("1", "2", "3", "4", "5"))
    oracle = tmp_path / "oracle.py"
    oracle.write_text(
        "import json, sys\n"
        "from slval.polytope import from_json\n"
        "from slval.valuation import evaluate, from_json as valuation_from_json\n"
        f"val = valuation_from_json(json.load(open({val!r})))\n"
        "lines = [l for l in sys.stdin if l.strip()]\n"
        "values = [evaluate(val, from_json(json.loads(l))) for l in lines]\n"
        + tail
        + "print('\\n'.join(map(str, values)))\n"
    )
    return f"{sys.executable} {oracle}"


class TestValuate:
    def test_euler_term_on_point(self, tmp_path, capsys):
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", ORIGIN_POINT),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(c0="1")),
        ])
        assert code == 0
        assert capsys.readouterr().out == "1\n"

    def test_relint_term_on_symmetric_segment(self, tmp_path, capsys):
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", VERTICAL_SEGMENT),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(c0p="1")),
        ])
        assert code == 0
        assert capsys.readouterr().out == "-1\n"

    def test_json_format(self, tmp_path, capsys):
        code = main([
            "valuate", "--format", "json",
            "--in", write_json(tmp_path / "p.json", VERTICAL_SEGMENT),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(c0p="1")),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"value": "-1"}

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main([
            "valuate", "--in", str(bad),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation()),
        ])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("vertices", [[], [[]]], ids=["no-vertices", "empty-row"])
    def test_ambient_dim_0_exits_2(self, vertices, tmp_path, capsys):
        polytope = {"ambient_dim": 0, "field_d": 0, "vertices": vertices}
        code = main([
            "valuate", "--in", write_json(tmp_path / "p.json", polytope),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation()),
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "ambient dimension must be >= 1" in captured.err

    @pytest.mark.parametrize("deep", ["polytope", "valuation"])
    def test_deeply_nested_json_exits_2(self, deep, tmp_path, capsys):
        """100,000 nested `[` pass the JSON decoder's recursion limit: one
        stderr line and exit 2, not a RecursionError traceback."""
        paths = {"polytope": write_json(tmp_path / "p.json", TRIANGLE),
                 "valuation": write_json(tmp_path / "v.json", linear_valuation())}
        paths[deep] = str(tmp_path / "deep.json")
        (tmp_path / "deep.json").write_text("[" * 100_000)
        assert main(["valuate", "--in", paths["polytope"], "--valuation", paths["valuation"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {paths[deep]} nests its JSON too deeply to read\n"

    @pytest.mark.parametrize("polytope, d0", [
        ({"ambient_dim": 1, "field_d": 0, "vertices": [["\u0661"], ["\uff13"]]}, "4"),
        (SEGMENT, "\u0664"),
    ], ids=["polytope", "valuation"])
    def test_non_ascii_digits_exit_2(self, polytope, d0, tmp_path, capsys):
        """Digits are 0-9: the segment spelt with an Arabic-Indic one and a
        fullwidth three, or a d0 of Arabic-Indic four, is no input, though
        `int` and a Unicode `\\d` read them as 1, 3 and 4."""
        code = main(["valuate", "--in", write_json(tmp_path / "p.json", polytope),
                     "--valuation", write_json(tmp_path / "v.json", linear_valuation(d0=d0))])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "bad scalar literal" in captured.err

    def test_a_literal_with_a_trailing_newline_exits_2(self, tmp_path, capsys):
        """The vertex "3\\n" is refused as " 3" is, not read as 3."""
        polytope = {"ambient_dim": 1, "field_d": 0, "vertices": [["0"], ["3\n"]]}
        code = main(["valuate", "--in", write_json(tmp_path / "p.json", polytope),
                     "--valuation", write_json(tmp_path / "v.json", linear_valuation())])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "bad scalar literal" in captured.err

    @pytest.mark.parametrize("unreadable", ["polytope", "valuation"])
    def test_an_int_past_the_digit_limit_exits_2(self, unreadable, tmp_path, capsys):
        """A JSON int of more than 4,300 digits, which Python will not read,
        blames the file that holds it, whichever it is: in the polytope file
        it read as `cannot valuate`, the message of the cell cap, before."""
        paths = {"polytope": write_json(tmp_path / "p.json", TRIANGLE),
                 "valuation": write_json(tmp_path / "v.json", linear_valuation())}
        bad = tmp_path / "bad.json"
        bad.write_text('{"ambient_dim": ' + "9" * 5000 + "}")
        paths[unreadable] = str(bad)
        assert main(["valuate", "--in", paths["polytope"], "--valuation", paths["valuation"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: cannot read {bad}: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("valuation, message", [
        (dict(linear_valuation(), psi=3), "is not a valuation file"),
        (linear_valuation(c0="1+1*sqrt(3)", d0="1+1*sqrt(2)"),
         "v.json is not a valuation file: cannot mix sqrt(3) with sqrt(2)\n"),
    ], ids=["bare-psi", "two-fields"])
    def test_a_bad_valuation_is_refused_before_any_hull(self, valuation, message, tmp_path, capsys,
                                                          monkeypatch):
        """The valuation file is read and its field fixed first: a bad one
        exits 2 with no hull pass run and blames only itself, even when the
        polytope file is unreadable; a good one runs the polytope's one."""
        calls = []
        real = slval.polytope._supporting
        monkeypatch.setattr(slval.polytope, "_supporting", lambda *args: calls.append(args) or real(*args))
        polytope = write_json(tmp_path / "p.json", TRIANGLE)
        bad = write_json(tmp_path / "v.json", valuation)
        for path in (polytope, str(tmp_path / "missing.json")):
            assert main(["valuate", "--in", path, "--valuation", bad]) == 2
            err = capsys.readouterr().err
            assert message in err
            assert path not in err
        assert calls == []
        good = write_json(tmp_path / "good.json", linear_valuation(c0="1"))
        assert main(["valuate", "--in", polytope, "--valuation", good]) == 0
        assert len(calls) == 1

    def test_wrong_shape_exits_2(self, tmp_path, capsys):
        """Vertices must be a JSON list of JSON lists: strings as rows, a
        string as the list and an object as the list are refused, not read
        as points character by character or key by key."""
        for polytope in (
            {"vertices": "nope"},
            {"ambient_dim": 2, "field_d": 0, "vertices": ["12", "30", "03"]},
            {"ambient_dim": 1, "field_d": 0, "vertices": "123"},
            {"ambient_dim": 2, "field_d": 0, "vertices": {"12": 0, "30": 0, "03": 0}},
        ):
            code = main([
                "valuate",
                "--in", write_json(tmp_path / "p.json", polytope),
                "--valuation", write_json(tmp_path / "v.json", linear_valuation()),
            ])
            assert code == 2
            assert "not a polytope file" in capsys.readouterr().err

    @pytest.mark.parametrize("term", ["psi", "phi"])
    def test_non_object_cauchy_solution_exits_2(self, term, tmp_path, capsys):
        valuation = dict(linear_valuation(), **{term: "linear"})
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", ORIGIN_POINT),
            "--valuation", write_json(tmp_path / "v.json", valuation),
        ])
        assert code == 2
        assert "not a valuation file" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main([
            "valuate", "--in", str(tmp_path / "absent.json"),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation()),
        ])
        assert code == 2

    def test_non_squarefree_field_exits_2(self, tmp_path, capsys):
        square_root_field = dict(ORIGIN_POINT, field_d=4)
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", square_root_field),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(c0="1")),
        ])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_literal_outside_a_valid_field_is_still_checked(self, tmp_path, capsys):
        # literals in the declared field skip the squarefree test; others do not
        bad = dict(VERTICAL_SEGMENT, field_d=2, vertices=[["0", "-1"], ["0", "1+1*sqrt(12)"]])
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", bad),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(c0="1")),
        ])
        assert code == 2
        assert "squarefree in 2..10000000000, got 12" in capsys.readouterr().err

    def test_huge_field_exits_2_at_once(self, tmp_path, capsys):
        """A discriminant past MAX_DISCRIMINANT is refused before the
        squarefree test, whose trial division would run for hours."""
        start = time.perf_counter()
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", dict(ORIGIN_POINT, field_d=10**18 + 3)),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(c0="1")),
        ])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert str(MAX_DISCRIMINANT) in capsys.readouterr().err

    def test_zero_denominator_vertex_exits_2(self, tmp_path, capsys):
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", dict(SEGMENT, vertices=[["0"], ["1/0"]])),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(c0="1")),
        ])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_zero_denominator_coefficient_exits_2(self, tmp_path, capsys):
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", ORIGIN_POINT),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(c0="1/0")),
        ])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("obj, field, value", [
        (TRIANGLE, "ambient_dim", 2.7), (SEGMENT, "ambient_dim", True), (TRIANGLE, "field_d", 2.9),
    ])
    def test_non_integer_dimension_exits_2(self, obj, field, value, tmp_path, capsys):
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", dict(obj, **{field: value})),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation(dn="1")),
        ])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_more_cells_than_the_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        """The square [1, 2]^2 has four pulling cells, two for its volume and
        one cone from 0 over each edge 0 sees: past a cap of 3, one stderr
        line and exit 2; at a cap of 4 its value."""
        square = {"ambient_dim": 2, "field_d": 0,
                  "vertices": [["1", "1"], ["2", "1"], ["1", "2"], ["2", "2"]]}
        argv = ["valuate", "--in", write_json(tmp_path / "p.json", square),
                "--valuation", write_json(tmp_path / "v.json", linear_valuation(dn="1"))]
        monkeypatch.setattr(slval.triangulate, "MAX_CELLS", 3)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot valuate {tmp_path / 'p.json'}: "
                                "the polytope has more than 3 pulling cells\n")
        monkeypatch.setattr(slval.triangulate, "MAX_CELLS", 4)
        assert main(argv) == 0
        assert capsys.readouterr().out == "2\n"

    def test_the_9_cube_exits_2_at_once(self, tmp_path, capsys):
        """The 9-cube's 362,880 pulling cells pass MAX_CELLS before any
        determinant is taken: refused within a second, not hours later."""
        cube = {"ambient_dim": 9, "field_d": 0,
                "vertices": [[str(v >> i & 1) for i in range(9)] for v in range(512)]}
        argv = ["valuate", "--in", write_json(tmp_path / "p.json", cube),
                "--valuation", write_json(tmp_path / "v.json", linear_valuation(cn="1"))]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert f"more than {slval.triangulate.MAX_CELLS} pulling cells" in capsys.readouterr().err


SURD_TRIANGLE = {"ambient_dim": 2, "field_d": 2,
                 "vertices": [["0", "0"], ["1+1*sqrt(2)", "0"], ["1", "2-1*sqrt(2)"]]}


@pytest.mark.parametrize("argv", [
    ["valuate", "--in", "{p}", "--valuation", "{v}"],
    ["fit", "--valuation", "{v}", "--cases", "5"],
], ids=["valuate", "fit"])
def test_valuation_in_another_field_exits_2(argv, tmp_path, capsys):
    """A valuation over Q(sqrt 3) meets the triangle over Q(sqrt 2), or fit's
    validation simplices of the default --field-d 2: a malformed input, not
    a traceback."""
    paths = {"p": write_json(tmp_path / "p.json", SURD_TRIANGLE),
             "v": write_json(tmp_path / "v.json", linear_valuation("1", "2", "1+1*sqrt(3)", "4", "5"))}
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "cannot mix sqrt(3) with sqrt(2)" in err


#: the triangle (0, 0), (sqrt 2, 0), (0, sqrt 2) over Q(sqrt 2): all five basis values are rational
ROOT_TRIANGLE = {"ambient_dim": 2, "field_d": 2,
                 "vertices": [["0", "0"], ["0+1*sqrt(2)", "0"], ["0", "0+1*sqrt(2)"]]}

#: the unit triangle in a file that declares Q(sqrt 2): its vertices are rational
DECLARED_TRIANGLE = {"ambient_dim": 2, "field_d": 2,
                     "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize("polytope, c0, out, code", [
    (ROOT_TRIANGLE, "1+1*sqrt(3)", "", 2),
    (DECLARED_TRIANGLE, "1+1*sqrt(3)", "", 2),
    (TRIANGLE, "1+1*sqrt(3)", "25+1*sqrt(3)\n", 0),
    (DECLARED_TRIANGLE, "1", "9\n", 0),
    (DECLARED_TRIANGLE, "1+1*sqrt(2)", "9+1*sqrt(2)\n", 0),
], ids=["surd-triangle", "declared-field", "rational-triangle", "declared-field-rational",
        "declared-field-root-2"])
def test_a_coefficient_in_another_field_is_refused_whatever_the_basis(polytope, c0, out, code,
                                                                     tmp_path, capsys):
    """c0 over Q(sqrt 3) on a polytope over Q(sqrt 2) is two fields, though
    every basis value of the triangle is rational, and though the polytope
    file only declares Q(sqrt 2); on a triangle over Q the valuation has its
    value in Q(sqrt 3).  A rational c0, or one over the declared field, is
    read on that file."""
    paths = {"p": write_json(tmp_path / "p.json", polytope),
             "v": write_json(tmp_path / "v.json", linear_valuation(c0, "2", "3", "4", "5"))}
    assert main(["valuate", "--in", paths["p"], "--valuation", paths["v"]]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    if code:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert paths["v"] in captured.err and paths["p"] in captured.err
        assert captured.err.endswith("cannot mix sqrt(3) with sqrt(2)\n")
    else:
        assert captured.err == ""


class TestFit:
    def test_self_test_round_trip(self, tmp_path, capsys):
        ref = linear_valuation("1", "2", "3", "4", "5")
        code = main([
            "fit", "--valuation", write_json(tmp_path / "v.json", ref),
            "--cases", "20",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"] == ["1", "2", "3", "4", "5"]
        assert report["residual_max"] == "0"

    def test_rational_part_plugin_exits_1(self, tmp_path, capsys):
        # RationalPart fixes every rational volume, so only the simplices
        # with a sqrt(2) edge tell it from Linear(1)
        val = dict(linear_valuation(dn="1"), psi={"kind": "rational_part"})
        code = main(["fit", "--n", "3", "--valuation", write_json(tmp_path / "v.json", val)])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"] == ["0", "0", "1", "0", "1"]
        assert report["residual_max"] != "0"

    @pytest.mark.parametrize("field_d", ["2", "0"])
    def test_a_clash_of_fields_inside_the_valuation_blames_the_file(self, field_d, tmp_path,
                                                                    capsys):
        """c0 over Q(sqrt 3) and d0 over Q(sqrt 2) clash inside the file,
        whatever --field-d is: the file's error, exit 2, no --field-d named."""
        bad = write_json(tmp_path / "v.json", linear_valuation(c0="1+1*sqrt(3)", d0="1+1*sqrt(2)"))
        assert main(["fit", "--valuation", bad, "--cases", "1", "--field-d", field_d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad} is not a valuation file: cannot mix sqrt(3) with sqrt(2)\n"

    def test_field_d_0_skips_the_surd_validation(self, tmp_path, capsys):
        val = dict(linear_valuation(dn="1"), psi={"kind": "rational_part"})
        code = main(["fit", "--n", "3", "--field-d", "0",
                     "--valuation", write_json(tmp_path / "v.json", val)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["residual_max"] == "0"

    def test_oracle_euler_only(self, tmp_path, capsys):
        oracle = tmp_path / "oracle.py"
        oracle.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip():\n"
            "        print('1')\n"
        )
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "10",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"] == ["1", "0", "0", "0", "0"]

    def test_crashing_oracle_exits_3(self, tmp_path, capsys):
        oracle = tmp_path / "oracle.py"
        oracle.write_text("import sys\nsys.exit('no')\n")
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "5",
        ])
        assert code == 3
        assert "oracle" in capsys.readouterr().err

    def test_hanging_oracle_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ORACLE_TIMEOUT_S", 0.5)
        oracle = tmp_path / "oracle.py"
        oracle.write_text("import time\ntime.sleep(60)\n")
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "5",
        ])
        assert code == 3
        assert "no answer within 0.5 s" in capsys.readouterr().err

    def test_short_oracle_output_exits_3(self, tmp_path, capsys):
        oracle = tmp_path / "oracle.py"
        oracle.write_text("print('1')\n")
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "5",
        ])
        assert code == 3

    def test_garbage_oracle_value_exits_3(self, tmp_path, capsys):
        oracle = tmp_path / "oracle.py"
        oracle.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip():\n"
            "        print('wat')\n"
        )
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "5",
        ])
        assert code == 3

    def test_zero_denominator_oracle_value_exits_3(self, tmp_path, capsys):
        oracle = tmp_path / "oracle.py"
        oracle.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip():\n"
            "        print('1/0')\n"
        )
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "5",
        ])
        assert code == 3
        assert "zero denominator" in capsys.readouterr().err

    def test_oracle_in_another_field_exits_3(self, tmp_path, capsys):
        """Oracle values over Q(sqrt 3) meet the validation simplices of the
        default --field-d 2: the oracle failed, which is no traceback."""
        oracle = tmp_path / "oracle.py"
        oracle.write_text(
            "import sys\n"
            "for k, line in enumerate(l for l in sys.stdin if l.strip()):\n"
            "    print(f'{k}+1*sqrt(3)')\n"
        )
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "5",
        ])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("oracle error: ") and "cannot mix sqrt(3) with sqrt(2)" in err

    def test_oracle_in_another_field_under_a_rational_model_exits_3(self, tmp_path, capsys):
        """0 on the probes and sqrt 3 on every validation polytope: the fitted
        model is 0, whose values are rational, so no residual meets two fields;
        each answer meets --field-d 2 as it is read, and the oracle failed."""
        oracle = tmp_path / "oracle.py"
        oracle.write_text(
            "import sys\n"
            "for k, line in enumerate(l for l in sys.stdin if l.strip()):\n"
            "    print('0' if k < 5 else '0+1*sqrt(3)')\n"
        )
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "5",
        ])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("oracle error: ") and err.endswith("cannot mix sqrt(3) with sqrt(2)\n")

    def test_non_valuation_blackbox_exits_1(self, tmp_path, capsys):
        # answers depend on nothing but line parity, so no classified
        # valuation can reproduce them and the residual must show it
        oracle = tmp_path / "oracle.py"
        oracle.write_text(
            "import sys\n"
            "for i, line in enumerate(l for l in sys.stdin if l.strip()):\n"
            "    print(i % 2)\n"
        )
        code = main([
            "fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "10",
        ])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["residual_max"] != "0"

    @pytest.mark.parametrize("tail, code, message", [
        ("print(*values, sep='\\n')", 0, ""),
        ("print(*(v * v for v in volumes), sep='\\n')", 1, ""),
        *((f"print(*[{answer!r}] * len(lines), sep='\\n')", 3, "unreadable oracle value")
          for answer in ("0.5", "1e3", "nan", "1/0", "-", "1" * 5001, "\u0663")),
        ("print(*['1+1*sqrt(3)'] * len(lines), sep='\\n')", 3, "cannot mix sqrt(3) with sqrt(2)"),
        ("sys.stdout.buffer.write(b'\\xff\\n' * len(lines))", 3, "unreadable oracle output"),
        ("print(*values[1:], sep='\\n')", 3, "oracle answered 14 of 15 polytopes"),
        ("sys.exit(4)", 3, "oracle failed: exit code 4"),
        ("raise RuntimeError('boom')", 3, "oracle failed: RuntimeError: boom"),
        ("pass", 3, "oracle answered 0 of 15 polytopes"),
    ], ids=["exact", "volume-squared", "0.5", "1e3", "nan", "1/0", "lone-minus", "5001-digits",
            "arabic-indic-3", "sqrt-3", "not-utf-8", "one-line-short", "nonzero-exit", "raises",
            "no-output"])
    def test_oracle_answers_end_as_the_exit_table_says(self, tail, code, message, tmp_path,
                                                       monkeypatch, capsys):
        """An oracle run with sys.executable on the 15 polytopes of a 5-case
        fit: exact answers exit 0, answers that no valuation gives exit 1,
        and an answer that is no value of --field-d 2's field, or a failed
        oracle, exits 3 with one `oracle error:` line and no traceback; a
        failed oracle's message is the last line of its stderr."""
        monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(slval.__file__)))
        oracle = tmp_path / "oracle.py"
        oracle.write_text(
            "import json, sys\n"
            "from slval.polytope import from_json\n"
            "from slval.triangulate import volume\n"
            "from slval.valuation import evaluate, from_json as valuation_from_json\n"
            f"val = valuation_from_json({linear_valuation('1', '2', '3', '4', '5')!r})\n"
            "lines = [l for l in sys.stdin if l.strip()]\n"
            "values = [evaluate(val, from_json(json.loads(l))) for l in lines]\n"
            "volumes = [volume(from_json(json.loads(l))) for l in lines]\n"
            + tail + "\n", encoding="utf-8"
        )
        assert main(["fit", "--oracle-cmd", f"{sys.executable} {oracle}", "--cases", "5"]) == code
        out, err = capsys.readouterr()
        if code == 3:
            assert out == "" and err.startswith("oracle error: ") and err.count("\n") == 1
            assert message in err and "Traceback" not in err
            if message.startswith("oracle "):
                assert err == f"oracle error: {message}\n"
        else:
            assert err == "" and (json.loads(out)["residual_max"] == "0") == (code == 0)

    def test_oracle_answers_are_read_in_order(self, tmp_path, monkeypatch, capsys):
        # every answer differs by polytope, so an answer read at another
        # position than its polytope's breaks the fit
        cmd = exact_oracle(tmp_path, monkeypatch)
        code = main(["fit", "--oracle-cmd", cmd, "--cases", "10"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"] == ["1", "2", "3", "4", "5"]
        assert report["residual_max"] == "0"

    def test_oracle_answering_one_polytope_two_ways_exits_1(self, tmp_path, monkeypatch, capsys):
        """At n = 2, seed 0 the probe {0} is also a validation polytope; an
        oracle that answers its first copy off by one is not a valuation,
        and the answer to each copy counts."""
        cmd = exact_oracle(tmp_path, monkeypatch, tail=(
            "repeat = next(i for i, l in enumerate(lines) if l in lines[:i])\n"
            "values[lines.index(lines[repeat])] += 1\n"
        ))
        code = main(["fit", "--oracle-cmd", cmd])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["residual_max"] != "0"

    def test_one_enumeration_per_fit(self, tmp_path, monkeypatch, capsys):
        """A fit builds the probes once and draws each validation polytope
        once, with an oracle as with a stored valuation."""
        calls = Counter()
        for name in ("gen_polytope", "probe_polytopes"):
            fn = getattr(harness, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            # every binding of the function in slval, not only the harness's
            for module in (harness, cli):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)
        cmd = exact_oracle(tmp_path, monkeypatch)
        assert main(["fit", "--oracle-cmd", cmd, "--cases", "5"]) == 0
        assert calls == {"gen_polytope": 5, "probe_polytopes": 1}
        calls.clear()
        assert main(["fit", "--valuation", str(tmp_path / "v.json"), "--cases", "5"]) == 0
        assert calls == {"gen_polytope": 5, "probe_polytopes": 1}


class TestVerify:
    def test_default_passes(self, capsys):
        code = main(["verify", "--cases", "4", "--seed", "1"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines and all(line["pass"] for line in lines)
        checks = {line["check"] for line in lines}
        assert "valuation_identity" in checks and "fit_roundtrip" in checks

    def test_injected_break_exits_1_with_witness(self, capsys):
        code = main(["verify", "--cases", "3", "--inject-broken"])
        assert code == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        broken = [l for l in lines if not l["pass"]]
        assert broken and all(l["check"] == "broken_plugin" for l in broken)
        assert "witness" in broken[0]

    def test_zero_cases_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--cases", "0"])
        assert err.value.code == 2

    def test_non_squarefree_field_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--field-d", "4"])
        assert err.value.code == 2
        assert "squarefree" in capsys.readouterr().err

    def test_huge_field_is_usage_error_at_once(self, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            main(["verify", "--field-d", str(10**18 + 3)])
        assert time.perf_counter() - start < 1
        assert err.value.code == 2
        assert str(MAX_DISCRIMINANT) in capsys.readouterr().err

    def test_byte_identical_reruns(self, capsys):
        main(["verify", "--cases", "4", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--cases", "4", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_text_format(self, capsys):
        code = main(["verify", "--cases", "2", "--format", "text"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS valuation_identity")
        # a failing line is followed by its witness, indented, as sorted JSON
        code = main(["verify", "--cases", "2", "--format", "text", "--inject-broken"])
        assert code == 1
        *_, verdict, witness = capsys.readouterr().out.splitlines()
        assert verdict == "FAIL broken_plugin seed=0"
        assert witness == '     witness: {"left": "2", "meet": "1", "right": "2", "whole": "2"}'

    def test_reader_gone_exits_141_quietly(self):
        """A stdout whose reader has gone, as in `slval verify | head -1`, is
        no failed check: the broken pipe exits 141 (128 + SIGPIPE) with
        nothing on stderr, not 1 with a traceback."""
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(slval.__file__)))
        try:
            proc = subprocess.run([sys.executable, "-m", "slval.cli", "verify", "--n", "2", "--cases", "2"],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestDemoUsc:
    def test_relint_term_breaks(self, capsys):
        code = main(["demo-usc", "--c0p", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("not upper semicontinuous")

    def test_origin_indicator_survives(self, capsys):
        code = main(["demo-usc", "--c0p", "0", "--d0", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("upper semicontinuous along tested sequences")

    def test_json_report(self, capsys):
        code = main(["demo-usc", "--c0p", "1", "--format", "json", "--steps", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scales"] == ["1", "1/2", "1/4"]
        assert report["sequence1"]["values"] == ["-1", "-1", "-1"]
        assert report["sequence1"]["limit_value"] == "1"
        assert report["sequence2"]["violation"] is True

    def test_bad_scalar_exits_2(self, capsys):
        code = main(["demo-usc", "--c0p", "one"])
        assert code == 2

    def test_coefficients_from_two_fields_exit_2(self, capsys):
        code = main(["demo-usc", "--c0p", "1+1*sqrt(2)", "--d0", "1+1*sqrt(3)"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --c0p and --d0 lie in different fields: "
                                "cannot mix sqrt(2) with sqrt(3)\n")

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["fit", "--n", "x", "--valuation", "v.json"], "slval fit: error: argument --n: not an integer: 'x'"),
    (["verify", "--cases", "1.5"], "slval verify: error: argument --cases: not an integer: '1.5'"),
    (["verify", "--n", "5"], "slval verify: error: argument --n: supported dimensions are 2 to 4"),
    (["fit", "--n", "1", "--valuation", "v.json"],
     "slval fit: error: argument --n: supported dimensions are 2 to 4"),
    (["verify", "--cases", "0"], "slval verify: error: argument --cases: must be at least 1"),
    (["demo-usc", "--steps", "-1"], "slval demo-usc: error: argument --steps: must be at least 1"),
], ids=["fit-n-x", "verify-cases-1.5", "verify-n-5", "fit-n-1", "verify-cases-0", "demo-usc-steps--1"])
def test_integer_options_exit_2_with_their_message(argv, message, capsys):
    """--n, --cases and --steps share one reader; its errors are argparse's
    usage errors, and the last stderr line is byte for byte the message."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message


@pytest.mark.parametrize("cmd, message", [
    ("", "no program in ''"),
    ("   ", "no program in '   '"),
    ("'", "cannot split \"'\": No closing quotation"),
], ids=["empty", "blank", "open-quote"])
def test_an_oracle_command_with_no_program_exits_2(cmd, message, capsys):
    """--oracle-cmd is split as it is parsed, before any polytope is built:
    a command that splits into no program, or does not split, is argparse's
    usage error, with the usage lines that `fit --n 5` prints and one error
    line, and not a traceback from subprocess or shlex."""
    with pytest.raises(SystemExit):
        main(["fit", "--n", "5", "--oracle-cmd", "cat"])
    usage = capsys.readouterr().err.splitlines()[:-1]
    with pytest.raises(SystemExit) as err:
        main(["fit", "--n", "2", "--cases", "1", "--oracle-cmd", cmd])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [*usage, f"slval fit: error: argument --oracle-cmd: {message}"]


def test_an_oracle_that_cannot_start_exits_3(tmp_path, capsys):
    """The split command is what runs: a program that does not exist is an
    oracle failure, named by the command as typed, blanks and quotes kept."""
    missing = tmp_path / "missing-oracle"
    cmd = f"{missing}  '--flag'"
    assert main(["fit", "--cases", "1", "--oracle-cmd", cmd]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (f"oracle error: cannot run {cmd!r}: "
                                 f"[Errno 2] No such file or directory: '{missing}'\n")


# argv cases on which `main` must act exactly as a freshly built full parser:
# help, usage errors, option forms and clean parses
PARSER_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["valuate", "-h"],
    ["fit", "-h"],
    ["verify", "-h"],
    ["demo-usc", "--help"],
    ["verify", "--he"],
    ["frobnicate"],
    ["val"],
    ["-x", "valuate"],
    ["valuate"],
    ["valuate", "--in", "x"],
    ["valuate", "--in", "-h"],
    ["valuate", "--in", "p.json", "--valuation", "v.json", "--format", "xml"],
    ["valuate", "--in", "p.json", "--valuation", "v.json"],
    ["valuate", "--val", "v.json", "--in=p.json", "--format", "json"],
    ["fit"],
    ["fit", "--valuation", "v.json", "--oracle-cmd", "cat"],
    ["fit", "--valuation", "v.json"],
    ["fit", "--oracle-cmd", "cat", "--n", "3", "--fo", "text", "--field-d", "0"],
    ["fit", "--oracle-cmd", "'"],
    ["verify", "--n", "5"],
    ["verify", "--n", "two"],
    ["verify", "--n"],
    ["verify", "--cases", "0"],
    ["verify", "--field-d", "4"],
    ["verify", "--seed", "-3", "--n=3"],
    ["verify", "--n", "3", "--cases", "8", "--seed", "3", "--inject-broken",
     "--format", "text"],
    ["verify", "--n", "2", "extra"],
    ["verify", "--bogus"],
    ["verify", "--", "--n", "2"],
    ["verify", "--cases", "0", "extra"],
    ["demo-usc"],
    ["demo-usc", "--c0p", "-1", "--d0", "-2"],
    ["demo-usc", "--c0p", "-1/2"],
    ["demo-usc", "--steps", "3", "--", "--format"],
]


def _recording_parses(monkeypatch):
    """Record each Namespace the parser of `main` returns, and hand `main` a
    copy whose handler returns 0 at once.  The handlers are bound when the
    parser is built, so the recorded `func` is the real one."""
    seen = []
    parse = cli._PARSER.parse_args

    def record(argv):
        args = parse(argv)
        seen.append(args)
        return argparse.Namespace(**dict(vars(args), func=lambda _: 0))

    monkeypatch.setattr(cli._PARSER, "parse_args", record)
    return seen


def _outcome(call, capsys):
    try:
        result = call()
        code = None
    except SystemExit as exc:
        result, code = None, exc.code
    out, err = capsys.readouterr()
    return result, code, out, err


def _assert_parses_as_a_fresh_parser(argv, seen, capsys):
    """`main(argv)` gives the exit code, stdout, stderr and Namespace, func
    included, of `parse_args` on a freshly built full parser."""
    seen.clear()
    returned, code, out, err = _outcome(lambda: main(list(argv)), capsys)
    fresh, fresh_code, fresh_out, fresh_err = _outcome(
        lambda: cli.build_parser().parse_args(list(argv)), capsys)
    assert (code, out, err) == (fresh_code, fresh_out, fresh_err)
    if fresh_code is None:
        assert returned == 0 and seen == [fresh]
    else:
        assert seen == []


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
    def test_main_parses_as_the_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        _assert_parses_as_a_fresh_parser(argv, _recording_parses(monkeypatch), capsys)

    def test_one_parser_carries_nothing_between_calls(self, monkeypatch, capsys):
        """Every case through the one parser of `main`, forward and then in
        reverse, so that each follows another call the second time."""
        monkeypatch.setenv("COLUMNS", "80")
        seen = _recording_parses(monkeypatch)
        for argv in PARSER_CASES + PARSER_CASES[::-1]:
            _assert_parses_as_a_fresh_parser(argv, seen, capsys)

    @pytest.mark.parametrize("argv, code", [
        (["valuate", "--in", "{p}", "--valuation", "{v}"], 0),
        (["fit", "--valuation", "{v}", "--cases", "1", "--field-d", "0"], 0),
        (["verify", "--cases", "1", "--field-d", "0"], 0),
        (["demo-usc", "--steps", "1"], 0),
        (["-h"], 0),
        (["verify", "--n", "2", "extra"], 2),
    ], ids=["valuate", "fit", "verify", "demo-usc", "help", "leftover"])
    def test_main_builds_no_parser(self, argv, code, tmp_path, monkeypatch, capsys):
        """The parser is built at import: a call of `main` runs its handler,
        prints help or exits on a usage error without building another."""
        paths = {"p": write_json(tmp_path / "p.json", TRIANGLE),
                 "v": write_json(tmp_path / "v.json", linear_valuation("1", "2", "3", "4", "5"))}
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        returned, exit_code, _, _ = _outcome(
            lambda: main([arg.format(**paths) for arg in argv]), capsys)
        assert built == []
        assert (returned if exit_code is None else exit_code) == code
