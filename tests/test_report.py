import json
import math

import pytest

from smale_lab.cli import run
from smale_lab.report import complex_pair, dumps


class TestDumps:
    def test_sorted_keys(self):
        assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_17_significant_digits(self):
        assert dumps(1 / 3) == "0.33333333333333331"
        assert dumps([2 / 3]) == "[0.66666666666666663]"

    def test_integers_stay_integers(self):
        assert dumps({"n": 7}) == '{"n":7}'

    def test_bools_and_null(self):
        assert dumps([True, False, None]) == "[true,false,null]"

    def test_nested_deterministic(self):
        payload = {"z": [1.5, -2.5], "a": {"y": 0.1, "x": (1, 2)}}
        assert dumps(payload) == dumps(json.loads(dumps(payload)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            dumps([math.inf])

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            dumps({1: "x"})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps({"z": 1 + 2j})

    def test_output_is_valid_json(self):
        payload = {"values": [0.1, 2, "three", None, True], "nested": {"k": -1e-9}}
        assert json.loads(dumps(payload)) == payload

    def test_complex_pair(self):
        assert complex_pair(1 - 2j) == [1.0, -2.0]


class TestWrite:
    def test_round_trip_through_file(self, tmp_path, capsys):
        # cli.run writes every report; the file parses back to the report
        # the same run prints on stdout (wall time aside)
        path = tmp_path / "r.json"
        argv = ["analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--samples", "10", "--seed", "7"]
        assert run([*argv, "--out", str(path)]) == 0
        assert run(argv) == 0
        text = path.read_text()
        assert text.endswith("\n")
        from_file = json.loads(text)
        from_stdout = json.loads(capsys.readouterr().out)
        assert from_file["kind"] == "analyze"
        for report in (from_file, from_stdout):
            del report["wall_time_s"]
        assert from_file == from_stdout
        assert json.loads(dumps(from_file)) == from_file
