import json
import sys

import pytest

from slval import cli
from slval.cli import main


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

    def test_wrong_shape_exits_2(self, tmp_path, capsys):
        code = main([
            "valuate",
            "--in", write_json(tmp_path / "p.json", {"vertices": "nope"}),
            "--valuation", write_json(tmp_path / "v.json", linear_valuation()),
        ])
        assert code == 2

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

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
