import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from conftest import run_cli
from hypothesis import given
from hypothesis import strategies as st

import loccdist as L
from loccdist.cli import (
    MAX_EXAMPLE_DIM,
    REPORT_SCHEMA,
    ensemble_from_dict,
    ensemble_to_dict,
    protocol_from_dict,
    protocol_to_dict,
    read_json,
    write_json,
)
from loccdist.errors import ParseError


def report_of(result):
    return json.loads(result.output)


@pytest.fixture
def bell3_file(tmp_path):
    path = tmp_path / "bell3.json"
    write_json(path, ensemble_to_dict(L.canned_example("bell3")))
    return path


@pytest.fixture
def bell2_file(tmp_path):
    path = tmp_path / "bell2.json"
    write_json(path, ensemble_to_dict(L.canned_example("bell2")))
    return path


@pytest.fixture
def six4x4_pair(tmp_path):
    epath = tmp_path / "six4x4.json"
    ppath = tmp_path / "six4x4.protocol.json"
    write_json(epath, ensemble_to_dict(L.canned_example("six4x4")))
    write_json(ppath, protocol_to_dict(L.canned_protocol("six4x4")))
    return epath, ppath


# ---------------------------------------------------------------------------
# serialization round trips


def test_ensemble_round_trip_bit_exact():
    e = L.random_ensemble(3, 2, 4, seed=9, kind="haar-orthogonal")
    payload = ensemble_to_dict(e)
    clone, notices = ensemble_from_dict(json.loads(json.dumps(payload)))
    assert not notices
    assert clone.labels == e.labels
    for a, b in zip(e.states, clone.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert json.dumps(ensemble_to_dict(clone)) == json.dumps(payload)


def test_protocol_round_trip_bit_exact():
    out = L.search_protocol(L.canned_example("six4x4"))
    payload = protocol_to_dict(out.protocol)
    clone = protocol_from_dict(json.loads(json.dumps(payload)))
    assert json.dumps(protocol_to_dict(clone)) == json.dumps(payload)
    assert L.verify_protocol(clone, L.canned_example("six4x4")).ok


def test_parse_error_carries_location(tmp_path):
    payload = ensemble_to_dict(L.canned_example("bell2"))
    payload["states"][1]["amplitudes"][0][1] = [0.0]  # not an [re, im] pair
    with pytest.raises(ParseError) as err:
        ensemble_from_dict(payload)
    assert err.value.location == "states[1].amplitudes[0][1]"


#: an ensemble file whose declared width, 2**60, no row has
HUGE_DIMS = ('{"dims": [1, 1152921504606846976], '
             '"states": [{"name": "x", "amplitudes": [[[1, 0]]]}]}\n')


def test_huge_declared_dims_fail_at_the_first_row(tmp_path):
    with pytest.raises(ParseError) as err:
        ensemble_from_dict(json.loads(HUGE_DIMS))
    assert err.value.location == "states[0].amplitudes[0]"
    path = tmp_path / "huge-dims.json"
    path.write_text(HUGE_DIMS)
    result = run_cli(["check", path, "--format", "json"])
    assert result.exit_code == 3
    assert result.exception is None
    assert "Traceback" not in result.output
    assert report_of(result)["diagnostics"]["kind"] == "ParseError"


def test_integer_beyond_float64_is_a_parse_error():
    # json reads a long integer literal exactly; float() of it overflows
    payload = ensemble_to_dict(L.canned_example("bell2"))
    payload["states"][0]["amplitudes"][1][0] = [10 ** 400, 0]
    with pytest.raises(ParseError) as err:
        ensemble_from_dict(payload)
    assert err.value.location == "states[0].amplitudes[1][0]"
    with pytest.raises(ParseError) as err:
        protocol_from_dict({"party": "A", "outcomes": [
            {"projector_columns": [[[1, 0], [0, -10 ** 400]]], "child": {"fail": True}}]})
    assert err.value.location == "$.outcomes[0].projector_columns[0][1]"


def test_protocol_parse_rejects_bad_party():
    with pytest.raises(ParseError) as err:
        protocol_from_dict({"party": "C", "outcomes": []})
    assert "party" in str(err.value)


def _bell2_with(edit):
    payload = ensemble_to_dict(L.canned_example("bell2"))
    edit(payload)
    return payload


def _bell2_x_with(edit):
    payload = protocol_to_dict(L.canned_protocol("bell2-x"))
    edit(payload)
    return payload


#: (file kind, file payload, location the error names); "{path}" is the file
_PARSE_ERRORS = {
    "top-level-list": ("ensemble", [], "$"),
    "empty-states": ("ensemble", _bell2_with(lambda p: p.update(states=[])), "states"),
    "state-not-object": ("ensemble", _bell2_with(lambda p: p["states"].__setitem__(1, 7)),
                         "states[1]"),
    "name-not-string": ("ensemble", _bell2_with(lambda p: p["states"][0].update(name=3)),
                        "states[0].name"),
    "wrong-row-count": ("ensemble", _bell2_with(lambda p: p["states"][1]["amplitudes"].pop()),
                        "states[1].amplitudes"),
    "node-not-object": ("protocol", "x", "$"),
    "identify-not-string": ("protocol", _bell2_x_with(
        lambda p: p["outcomes"][1].update(child={"identify": 5})), "$.outcomes[1].child.identify"),
    "empty-outcomes": ("protocol", _bell2_x_with(lambda p: p.update(outcomes=[])),
                       "$.outcomes"),
    "outcome-not-object": ("protocol", _bell2_x_with(lambda p: p["outcomes"].__setitem__(0, [])),
                           "$.outcomes[0]"),
    "nested-too-deep": ("ensemble", None, "{path}"),
}


@pytest.mark.parametrize("case", _PARSE_ERRORS)
def test_malformed_files_exit_3_naming_the_location(tmp_path, bell2_file, case):
    kind, payload, location = _PARSE_ERRORS[case]
    path = tmp_path / f"{case}.json"
    if payload is None:  # past the JSON reader's recursion limit
        path.write_text('{"dims": [2, 2], "states": ' + "[" * 5000 + "]" * 5000 + "}")
    else:
        write_json(path, payload)
    args = ["check", path] if kind == "ensemble" else ["verify", bell2_file, path]
    result = run_cli(args + ["--format", "json"])
    assert result.exit_code == 3
    assert result.exception is None
    rep = report_of(result)
    assert rep["diagnostics"]["kind"] == "ParseError"
    assert rep["diagnostics"]["error"].startswith(location.format(path=path) + ": ")


# ---------------------------------------------------------------------------
# commands


def test_cmd_schmidt_bell4(tmp_path):
    path = tmp_path / "bell4.json"
    write_json(path, ensemble_to_dict(L.canned_example("bell4")))
    result = run_cli(["schmidt", path, "--format", "json"])
    assert result.exit_code == 0
    rep = report_of(result)
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert [row["schmidt_number"] for row in rep["diagnostics"]["states"]] == [2, 2, 2, 2]
    assert all(np.allclose(row["weights"], [0.5, 0.5])
               for row in rep["diagnostics"]["states"])


def test_cmd_schmidt_product_state(tmp_path):
    path = tmp_path / "s.json"
    e = L.make_ensemble([L.make_state(2, 2, [[1, 0], [0, 0]], name="s00")])
    write_json(path, ensemble_to_dict(e))
    result = run_cli(["schmidt", path, "--format", "json"])
    assert result.exit_code == 0
    assert report_of(result)["diagnostics"]["states"][0]["schmidt_number"] == 1


def test_cmd_schmidt_malformed_input_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    payload = ensemble_to_dict(L.canned_example("bell2"))
    payload["states"][0]["amplitudes"][1][0] = "oops"
    write_json(path, payload)
    result = run_cli(["schmidt", path, "--format", "json"])
    assert result.exit_code == 3
    assert "states[0].amplitudes[1][0]" in report_of(result)["diagnostics"]["error"]


def test_cmd_check_necessary_bell3(bell3_file):
    result = run_cli(["check", bell3_file, "--mode", "necessary", "--format", "json"])
    assert result.exit_code == 1
    rep = report_of(result)
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["verdict"] == "indistinguishable"
    assert rep["diagnostics"]["schmidt_sum"] == 6
    assert rep["diagnostics"]["capacity"] == 4


@pytest.mark.parametrize("mode", ["necessary", "full"])
def test_cmd_check_gives_the_schmidt_sum_reason_in_every_mode(tmp_path, mode):
    path = tmp_path / "bell4.json"
    write_json(path, ensemble_to_dict(L.canned_example("bell4")))
    reason = "Schmidt ranks sum to 8 > capacity 4"
    result = run_cli(["check", path, "--mode", mode, "--format", "json"])
    assert result.exit_code == 1
    assert report_of(result)["diagnostics"]["reason"] == reason
    result = run_cli(["check", path, "--mode", mode, "--format", "text"])
    assert result.exit_code == 1
    assert f"reason: {reason}" in result.output.splitlines()


def test_cmd_check_full_six4x4(six4x4_pair):
    epath, _ = six4x4_pair
    result = run_cli(["check", epath, "--mode", "full", "--format", "json"])
    assert result.exit_code == 0
    rep = report_of(result)
    assert rep["verdict"] == "distinguishable"
    tree = protocol_from_dict(rep["diagnostics"]["protocol"])
    assert L.verify_protocol(tree, L.canned_example("six4x4")).ok


def test_cmd_check_classify2x2_two_entangled(tmp_path):
    states = [
        L.make_state(2, 2, [[1, 0], [0, 1]], name="e1"),
        L.make_state(2, 2, [[1, 0], [0, -1]], name="e2"),
        L.product_state(2, 2, [0, 1], [1, 0], name="p"),
    ]
    path = tmp_path / "mix.json"
    write_json(path, ensemble_to_dict(L.make_ensemble(states)))
    result = run_cli(["check", path, "--mode", "classify2x2", "--format", "json"])
    assert result.exit_code == 1
    assert report_of(result)["verdict"] == "indistinguishable"


def test_cmd_check_classify2x2_ignores_search_bounds(bell2_file, tmp_path):
    result = run_cli(["check", bell2_file, "--mode", "classify2x2", "--beam", 1,
                      "--max-depth", 1, "--format", "json"])
    assert result.exit_code == 0
    rep = report_of(result)
    assert rep["verdict"] == "distinguishable"
    ppath = tmp_path / "bell2.protocol.json"
    write_json(ppath, rep["diagnostics"]["protocol"])
    verified = run_cli(["verify", bell2_file, ppath, "--format", "json"])
    assert verified.exit_code == 0
    assert report_of(verified)["verdict"] == "verified"


def test_cmd_check_classify2x2_reports_borderline_states(tmp_path):
    # a smallest Schmidt weight of about 9e-10 sits within 10x of the tolerance
    states = [L.make_state(2, 2, [[1, 0], [0, 3e-5]], name="near"),
              L.make_state(2, 2, [[0, 1], [0, 0]], name="p")]
    path = tmp_path / "near.json"
    write_json(path, ensemble_to_dict(L.make_ensemble(states)))
    result = run_cli(["check", path, "--mode", "classify2x2", "--format", "json"])
    rep = report_of(result)
    assert (result.exit_code, rep["verdict"]) == (0, "distinguishable")
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert list(rep["diagnostics"])[:4] == ["schmidt_numbers", "schmidt_sum", "capacity",
                                            "warnings"]
    warnings = rep["diagnostics"]["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith("state 'near': smallest Schmidt weight")


def test_tolerance_reaches_schmidt_ranks(tmp_path):
    # a Schmidt weight of 1e-8 counts at the default tolerance, not at 1e-7
    w = 1e-8
    a, b = np.sqrt(1 - w), np.sqrt(w)
    states = [L.make_state(2, 2, [[a, 0], [0, b]], name="s0"),
              L.make_state(2, 2, [[b, 0], [0, -a]], name="s1"),
              L.make_state(2, 2, [[0, 1], [0, 0]], name="p")]
    path = tmp_path / "near-product.json"
    write_json(path, ensemble_to_dict(L.make_ensemble(states)))
    for tolerance, number, code in (([], 2, 1), (["--tolerance", "1e-7"], 1, 2)):
        result = run_cli(["schmidt", path, "--format", "json", *tolerance])
        assert result.exit_code == 0
        rows = report_of(result)["diagnostics"]["states"]
        assert [row["schmidt_number"] for row in rows] == [number, number, 1]
        result = run_cli(["check", path, "--mode", "necessary", "--format", "json", *tolerance])
        assert result.exit_code == code, tolerance
        assert report_of(result)["diagnostics"]["schmidt_sum"] == 2 * number + 1


def test_cmd_check_classify2x2_wrong_dims_exits_3(six4x4_pair):
    epath, _ = six4x4_pair
    result = run_cli(["check", epath, "--mode", "classify2x2", "--format", "json"])
    assert result.exit_code == 3


def test_cmd_verify_six4x4_pair(six4x4_pair):
    result = run_cli(["verify", *six4x4_pair, "--format", "json"])
    assert result.exit_code == 0
    rep = report_of(result)
    assert rep["verdict"] == "verified"
    assert rep["diagnostics"]["completeness_deviation"] <= 1e-9


def test_cmd_verify_zz_on_bell2_fails(bell2_file, tmp_path):
    eye = np.eye(2)
    z = L.ProjectiveMeasurement(L.ALICE, (eye[:, :1], eye[:, 1:]))
    zb = L.ProjectiveMeasurement(L.BOB, (eye[:, :1], eye[:, 1:]))
    tree = L.Node(z, (L.Node(zb, (L.Leaf("A1"), L.Leaf("A2"))),
                      L.Node(zb, (L.Leaf("A1"), L.Leaf("A2")))))
    ppath = tmp_path / "zz.json"
    write_json(ppath, protocol_to_dict(tree))
    result = run_cli(["verify", bell2_file, ppath, "--format", "json"])
    assert result.exit_code == 1
    rep = report_of(result)
    assert rep["verdict"] == "refuted"
    assert any("A:0/B:0" in f for f in rep["diagnostics"]["failures"])


def test_cmd_verify_nonorthonormal_projector_exits_3(bell2_file, tmp_path):
    payload = protocol_to_dict(L.canned_protocol("bell2-x"))
    payload["outcomes"][0]["projector_columns"][0] = [[1.0, 0.0], [1.0, 0.0]]
    ppath = tmp_path / "bad.json"
    write_json(ppath, payload)
    result = run_cli(["verify", bell2_file, ppath, "--format", "json"])
    assert result.exit_code == 3
    assert report_of(result)["diagnostics"]["kind"] == "NotUnitary"


def test_cmd_verify_tolerance_reaches_protocol_parsing(bell2_file, tmp_path):
    # one column entry moved by 1e-7: its column is orthonormal only to ~1.4e-7
    payload = protocol_to_dict(L.canned_protocol("bell2-x"))
    payload["outcomes"][0]["projector_columns"][0][0][0] += 1e-7
    ppath = tmp_path / "nudged.json"
    write_json(ppath, payload)
    strict = run_cli(["verify", bell2_file, ppath, "--format", "json"])
    assert strict.exit_code == 3
    assert report_of(strict)["diagnostics"]["kind"] == "NotUnitary"
    loose = run_cli(["verify", bell2_file, ppath, "--tolerance", "1e-6", "--format", "json"])
    assert loose.exit_code == 0
    assert report_of(loose)["verdict"] == "verified"


def test_cmd_verify_empty_projector_column_exits_3(bell2_file, tmp_path):
    ppath = tmp_path / "empty-column.json"
    write_json(ppath, {"party": "A", "outcomes": [
        {"projector_columns": [[]], "child": {"fail": True}}]})
    result = run_cli(["verify", bell2_file, ppath, "--format", "json"])
    assert result.exit_code == 3
    assert result.exception is None
    assert "Traceback" not in result.output
    assert report_of(result)["diagnostics"] == {
        "error": "each projector must be a nonempty matrix of columns", "kind": "NotUnitary"}


def test_cmd_check_normalizes_a_state_of_tiny_norm(tmp_path):
    path = tmp_path / "tiny.json"
    write_json(path, {"dims": [2, 2], "states": [
        {"name": "tiny", "amplitudes": [[[1e-13, 0], [0, 0]], [[0, 0], [0, 0]]]},
        {"name": "one", "amplitudes": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}]})
    result = run_cli(["check", path, "--format", "json"])
    assert result.exit_code == 0
    assert "notice: state tiny: input normalized (norm was 1e-13)" in result.stderr
    assert json.loads(result.stdout)["verdict"] == "distinguishable"


def test_cmd_verify_overflowing_projector_warns_nothing(bell2_file, tmp_path):
    # the Gram product of a (1e308, 1e308) column overflows; the report says
    # so, and numpy prints no RuntimeWarning on the way
    payload = protocol_to_dict(L.canned_protocol("bell2-x"))
    payload["outcomes"][0]["projector_columns"][0] = [[1e308, 0.0], [1e308, 0.0]]
    ppath = tmp_path / "huge.json"
    write_json(ppath, payload)
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "loccdist.cli", "verify", str(bell2_file), str(ppath),
         "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout)["diagnostics"]["error"] == (
        "outcome 0: projector columns not orthonormal (deviation inf)")


def test_a_closed_stdout_exits_3(six4x4_pair):
    # the reader closes its end before the report is written: an unwritable
    # output, not "indistinguishable" (1) and not a BrokenPipeError traceback
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "loccdist.cli", "check", str(six4x4_pair[0]), "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 3
    assert stderr == ""


@pytest.mark.parametrize("command,defaults", [
    ("schmidt", {}),
    ("check", {"--mode": "full", "--max-depth": "6", "--beam": "64"}),
    ("verify", {}),
    ("search", {"--max-depth": "6", "--beam": "64", "--output": "<ensemble>.protocol.json"}),
    ("example", {"--output": "<name>.json", "--seed": "0", "--dims": "2x2", "--count": "4"}),
])
def test_help_shows_every_option_with_its_default(command, defaults):
    result = run_cli([command, "--help"])
    assert result.exit_code == 0 and result.stderr == ""
    options = {**defaults, "--format": "text", "--tolerance": "1e-09"}
    # each option's entry after --help's: the option, its metavar, its help
    text = " ".join(result.stdout.split()).partition("show this help message and exit ")[2]
    entries = dict(re.findall(r"(--[a-z-]+) \S+ (.*?)(?= --[a-z-]+ \S+ |$)", text))
    assert entries.keys() == options.keys()
    for flag, default in options.items():
        assert f"(default: {default})" in entries[flag], entries[flag]


def _write_non_finite(root):
    """bell2 ensemble files with one NaN or Infinity amplitude, and the bell2-x
    protocol with NaN in every projector entry (json reads and writes both)."""
    for name, bad in (("nan", float("nan")), ("inf", float("inf"))):
        payload = ensemble_to_dict(L.canned_example("bell2"))
        payload["states"][0]["amplitudes"][0][0] = [bad, 0.0]
        write_json(root / f"{name}.json", payload)
    payload = protocol_to_dict(L.canned_protocol("bell2-x"))
    for outcome in payload["outcomes"]:
        outcome["projector_columns"] = [[[float("nan")] * 2 for _ in column]
                                        for column in outcome["projector_columns"]]
    write_json(root / "nan.protocol.json", payload)


@pytest.mark.parametrize("args", [
    ["check", "{root}/nan.json", "--mode", "full"],
    ["check", "{root}/inf.json", "--mode", "necessary"],
    ["check", "{root}/nan.json", "--mode", "classify2x2"],
    ["search", "{root}/inf.json"],
    ["schmidt", "{root}/nan.json"],
    ["schmidt", "{root}/inf.json"],
    ["verify", "{root}/bell2.json", "{root}/nan.protocol.json"],
])
def test_non_finite_numbers_in_files_exit_3(tmp_path, args):
    _write_non_finite(tmp_path)
    write_json(tmp_path / "bell2.json", ensemble_to_dict(L.canned_example("bell2")))
    result = run_cli([a.format(root=tmp_path) for a in args] + ["--format", "json"])
    assert result.exit_code == 3
    assert result.exception is None
    rep = report_of(result)
    assert rep["diagnostics"]["kind"] == "ParseError"
    assert "finite" in rep["diagnostics"]["error"]


def test_cmd_search_bell2(bell2_file, tmp_path):
    out = tmp_path / "found.protocol.json"
    result = run_cli(["search", bell2_file, "--output", out, "--format", "json"])
    assert result.exit_code == 0
    verify = run_cli(["verify", bell2_file, out, "--format", "json"])
    assert verify.exit_code == 0


def test_cmd_search_bell3_exits_1(bell3_file):
    assert run_cli(["search", bell3_file]).exit_code == 1


def test_cmd_search_domino9_exits_2(tmp_path):
    path = tmp_path / "domino9.json"
    write_json(path, ensemble_to_dict(L.canned_example("domino9")))
    result = run_cli(["search", path, "--format", "json"])
    assert result.exit_code == 2
    assert report_of(result)["verdict"] == "unknown"


def test_cmd_example_bell4_round_trips_through_schmidt(tmp_path):
    path = tmp_path / "bell4.json"
    result = run_cli(["example", "bell4", "--output", path])
    assert result.exit_code == 0
    schmidt = run_cli(["schmidt", path, "--format", "json"])
    assert schmidt.exit_code == 0


def test_cmd_example_six4x4_pair_verifies(tmp_path):
    path = tmp_path / "six.json"
    result = run_cli(["example", "six4x4", "--output", path, "--format", "json"])
    assert result.exit_code == 0
    rep = report_of(result)
    verify = run_cli(["verify", rep["diagnostics"]["ensemble_path"],
                      rep["diagnostics"]["protocol_path"], "--format", "json"])
    assert verify.exit_code == 0


def test_cmd_example_bell2_writes_verifying_protocol(tmp_path):
    path = tmp_path / "bell2.json"
    result = run_cli(["example", "bell2", "--output", path, "--format", "json"])
    assert result.exit_code == 0
    rep = report_of(result)
    verify = run_cli(["verify", rep["diagnostics"]["ensemble_path"],
                      rep["diagnostics"]["protocol_path"]])
    assert verify.exit_code == 0


def test_cmd_example_unknown_exits_3(tmp_path):
    assert run_cli(["example", "nosuch", "--output", tmp_path / "x.json"]).exit_code == 3


def test_cmd_example_random_generators_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        result = run_cli(["example", "random-haar", "--dims", "2x3", "--count", "3",
                          "--seed", "42", "--output", out])
        assert result.exit_code == 0
    assert a.read_text() == b.read_text()
    ens, _ = ensemble_from_dict(read_json(a))
    assert ens.dims == (2, 3) and ens.m == 3


def test_cmd_example_dims_not_n_by_m_exits_3(tmp_path):
    out = tmp_path / "x.json"
    result = run_cli(["example", "random-haar", "--dims", "abc", "--output", out,
                      "--format", "json"])
    assert result.exit_code == 3
    assert result.exception is None
    rep = report_of(result)
    assert rep["diagnostics"] == {"error": "--dims: expected NxM, e.g. 2x2",
                                  "kind": "ParseError"}
    assert not out.exists()


def test_cmd_example_rejects_dims_out_of_range_before_generating(tmp_path, monkeypatch):
    # the generator is never reached above the cap, so no size here allocates;
    # negative dimensions made numpy raise a traceback
    calls = []
    monkeypatch.setattr("loccdist.ensemble.random_ensemble",
                        lambda *args, **kwargs: calls.append(args) or L.canned_example("bell2"))
    out = tmp_path / "x.json"
    for dims in ("100000x100000", "33x32", "1x1025", "-2x-3", "0x4"):
        result = run_cli(["example", "random-haar", f"--dims={dims}", "--output", out])
        assert result.exit_code == 3, dims
        assert result.exception is None
        assert "Traceback" not in result.output
        assert "--dims" in result.output and str(MAX_EXAMPLE_DIM) in result.output
        assert not out.exists()
    assert calls == []
    assert run_cli(["example", "random-product", "--dims", "32x32", "--output", out]).exit_code == 0
    assert calls == [(32, 32, 4, 0)]


def test_cmd_example_negative_seed_is_a_usage_error(tmp_path):
    out = tmp_path / "x.json"
    result = run_cli(["example", "random-haar", "--seed", "-1", "--output", out])
    assert result.exit_code == 3
    assert result.exception is None
    assert "Traceback" not in result.output
    assert "--seed" in result.output
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cmd_example_count_below_one_is_a_usage_error(tmp_path, count):
    out = tmp_path / "x.json"
    result = run_cli(["example", "random-product", "--count", count, "--output", out])
    assert result.exit_code == 3
    assert result.exception is None
    assert "Traceback" not in result.output
    assert "--count" in result.output
    assert not out.exists()


def test_text_mode_contains_same_verdict_line(bell3_file):
    as_json = run_cli(["check", bell3_file, "--mode", "necessary", "--format", "json"])
    as_text = run_cli(["check", bell3_file, "--mode", "necessary"])
    verdict = report_of(as_json)["verdict"]
    assert f"verdict: {verdict}" in as_text.output.splitlines()


def test_tolerance_flag_accepts_sloppy_ensembles(tmp_path):
    # states orthogonal only to 1e-6: rejected at the default tolerance,
    # accepted when the run-wide tolerance is loosened
    s = L.make_state(2, 2, [[1, 0], [1e-6, 0]], name="x")
    t = L.make_state(2, 2, [[0, 0], [1, 0]], name="y")
    payload = {
        "dims": [2, 2],
        "states": [
            {"name": st.name,
             "amplitudes": [[[z.real, z.imag] for z in row] for row in st.amplitudes]}
            for st in (s, t)
        ],
    }
    path = tmp_path / "sloppy.json"
    write_json(path, payload)
    strict = run_cli(["schmidt", path, "--format", "json"])
    assert strict.exit_code == 3
    loose = run_cli(["schmidt", path, "--tolerance", "1e-5", "--format", "json"])
    assert loose.exit_code == 0


def test_unwritable_output_exits_3(bell2_file, tmp_path):
    missing = tmp_path / "no-such-dir"
    for args in (["search", bell2_file, "--output", missing / "p.json"],
                 ["example", "bell2", "--output", missing / "x.json"]):
        result = run_cli(args + ["--format", "json"])
        assert result.exit_code == 3, args
        assert result.exception is None
        assert "Traceback" not in result.output
        rep = report_of(result)
        assert rep["verdict"] == "error"
        assert rep["diagnostics"]["kind"] == "FileNotFoundError"


@pytest.mark.parametrize("command, target", [
    ("check", "loccdist.search.search_protocol"),
    ("verify", "loccdist.protocol.verify_protocol"),
])
def test_memory_error_exits_3_with_an_error_report(six4x4_pair, monkeypatch, command, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, exhausted)
    epath, ppath = six4x4_pair
    args = ["check", epath, "--mode", "full"] if command == "check" else ["verify", epath, ppath]
    result = run_cli(args + ["--format", "json"])
    assert result.exit_code == 3
    assert result.exception is None
    assert "Traceback" not in result.output
    rep = report_of(result)
    assert rep["verdict"] == "error" and rep["exit_code"] == 3
    assert rep["diagnostics"] == {"error": "out of memory", "kind": "MemoryError"}


def _guard_tripping_input(name):
    """Two exact inputs whose search returns a protocol that
    ``verify_protocol`` rejects, so the search's soundness guard raises at
    the default tolerance.  "drops" is three states in 3x2, ``sqrt(1 - 2w)
    |0>|0> + sqrt(w) |1>|1> + sqrt(w) |2>|1>``, ``|1>|0>`` and ``|2>|0>``
    with ``w = 6e-10``: Alice's computational basis drops the first state
    from two outcomes, each drop within tol, 1.2e-9 in all.  "rounding" is
    ``|00> + sqrt(1e-9) |11>`` and ``|01>``: one drop at tol, which the
    verifier's total exceeds by rounding."""
    if name == "drops":
        w = 6e-10
        first = np.zeros((3, 2))
        first[0, 0], first[1, 1], first[2, 1] = np.sqrt(1 - 2 * w), np.sqrt(w), np.sqrt(w)
        states = [L.make_state(3, 2, first, name="s0"),
                  L.product_state(3, 2, [0, 1, 0], [1, 0], name="s1"),
                  L.product_state(3, 2, [0, 0, 1], [1, 0], name="s2")]
    else:
        states = [L.make_state(2, 2, [[1, 0], [0, np.sqrt(1e-9)]], name="a"),
                  L.product_state(2, 2, [1, 0], [0, 1], name="b")]
    return L.make_ensemble(states)


@pytest.mark.parametrize("name, args", [
    ("drops", ["check", "--mode", "full"]),
    ("drops", ["search"]),
    ("rounding", ["check", "--mode", "full"]),
    ("rounding", ["check", "--mode", "classify2x2"]),
    ("rounding", ["search"]),
])
def test_an_internal_error_exits_3_with_an_error_report(tmp_path, name, args):
    # an exception outside the input errors, here the search's soundness
    # guard, is reported, never printed as a traceback with exit 1 (which
    # would read "indistinguishable")
    path = tmp_path / f"{name}.json"
    write_json(path, ensemble_to_dict(_guard_tripping_input(name)))
    result = run_cli([args[0], path, *args[1:], "--format", "json"])
    assert result.exit_code == 3
    assert result.exception is None
    assert "Traceback" not in result.output
    rep = report_of(result)
    assert rep["verdict"] == "error" and rep["exit_code"] == 3
    assert rep["diagnostics"]["kind"] == "RuntimeError"
    assert "fails verification" in rep["diagnostics"]["error"]
    jsonschema.validate(rep, REPORT_SCHEMA)


def test_reports_validate_against_published_schema(bell2_file):
    for args in (["schmidt", bell2_file], ["check", bell2_file, "--mode", "full"],
                 ["search", bell2_file, "--output", str(bell2_file) + ".p.json"]):
        result = run_cli(args + ["--format", "json"])
        jsonschema.validate(report_of(result), REPORT_SCHEMA)


# ---------------------------------------------------------------------------
# exit contract: 0-3 on every argument list, 3 for every input error


_NUMBERS = {"--max-depth": ("1", "6"), "--beam": ("1", "64"),
            "--tolerance": ("1e-9", "1e-6")}
_BAD_NUMBERS = ("0", "-1", "nan", "inf", "abc")


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name in ("bell2", "bell3", "six4x4"):
        write_json(root / f"{name}.json", ensemble_to_dict(L.canned_example(name)))
    (root / "garbled.json").write_text("{not json")
    write_json(root / "bell2.protocol.json", protocol_to_dict(L.canned_protocol("bell2-x")))
    _write_non_finite(root)
    # nested past the JSON reader's recursion limit: 2000 lists of amplitudes,
    # and a chain of 3000 protocol nodes
    deep = "[" * 2000 + "]" * 2000
    (root / "nested.json").write_text(
        '{"dims": [2, 2], "states": [{"name": "x", "amplitudes": ' + deep + "}]}")
    node = '{"party": "A", "outcomes": [{"projector_columns": [[[1, 0]]], "child": '
    (root / "nested.protocol.json").write_text(
        node * 3000 + '{"fail": true}' + "}]}" * 3000)
    # a column that is a number, and a dimension that is a boolean
    write_json(root / "column.protocol.json", {"party": "A", "outcomes": [
        {"projector_columns": [5], "child": {"fail": True}}]})
    payload = ensemble_to_dict(L.canned_example("bell2"))
    payload["dims"] = [2, True]
    write_json(root / "booldims.json", payload)
    return root


@st.composite
def cli_calls(draw, root):
    """A check/search/verify argument list and whether it holds an input error."""
    command = draw(st.sampled_from(["check", "search", "verify"]))
    target = draw(st.sampled_from(["bell2", "bell3", "six4x4"])
                  | st.sampled_from(["garbled", "nan", "inf", "nested", "booldims", "missing",
                                     "directory", None]))
    args, bad = [command], target not in ("bell2", "bell3", "six4x4")
    if target == "directory":
        args.append(str(root))
    elif target is not None:
        args.append(str(root / f"{target}.json"))
    if command == "verify":
        protocol = draw(st.sampled_from(["bell2", "nan", "nested", "column"]))
        args.append(str(root / f"{protocol}.protocol.json"))
        # the bell2-x protocol measures qubits, so it does not fit six4x4
        bad |= protocol != "bell2" or target == "six4x4"
    if command == "check":
        mode = draw(st.sampled_from([None, "necessary", "classify2x2", "full", "bogus"]))
        if mode is not None:
            args += ["--mode", mode]
        bad |= mode == "bogus" or (mode == "classify2x2" and target == "six4x4")
    for option, good in _NUMBERS.items():
        if command == "verify" and option != "--tolerance":
            continue
        value = draw(st.none() | st.sampled_from(good) | st.sampled_from(_BAD_NUMBERS))
        if value is not None:
            args += [option, value]
            bad |= value in _BAD_NUMBERS
    return args + ["--format", "json"], bad


@given(data=st.data())
def test_cli_exit_contract(contract_dir, data):
    args, bad = data.draw(cli_calls(contract_dir))
    result = run_cli(args)
    assert result.exception is None
    assert "Traceback" not in result.output
    assert result.exit_code in (0, 1, 2, 3)
    assert (result.exit_code == 3) == bad


def test_notice_for_a_norm_beyond_float64(tmp_path):
    # every entry is finite, but the Frobenius norm exceeds the float64 range
    payload = {"dims": [2, 2], "states": [
        {"name": "big", "amplitudes": [[[1.7e308, 1.7e308], [0, 0]], [[0, 0], [1e308, 0]]]},
        {"name": "small", "amplitudes": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}
    path = tmp_path / "huge.json"
    write_json(path, payload)
    result = run_cli(["schmidt", path, "--format", "json"])
    assert result.exit_code == 0
    assert "notice: state big: input normalized (norm exceeds the float64 range)" in result.stderr
    assert "inf" not in result.stderr
    assert "notice: state small" not in result.stderr
    # |1.7+1.7i|^2 = 5.78 and 1^2 = 1 after scaling by 1e308
    weights = json.loads(result.stdout)["diagnostics"]["states"][0]["weights"]
    assert weights == pytest.approx([5.78 / 6.78, 1 / 6.78], rel=1e-12)
