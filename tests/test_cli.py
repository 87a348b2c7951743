import json

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import loccdist as L
from loccdist.cli import (
    REPORT_SCHEMA,
    ensemble_from_dict,
    ensemble_to_dict,
    main,
    protocol_from_dict,
    protocol_to_dict,
    read_json,
    write_json,
)
from loccdist.errors import ParseError


def run_cli(args):
    return CliRunner().invoke(main, [str(a) for a in args])


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


def test_protocol_parse_rejects_bad_party():
    with pytest.raises(ParseError) as err:
        protocol_from_dict({"party": "C", "outcomes": []})
    assert "party" in str(err.value)


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
    assert result.exception is None or isinstance(result.exception, SystemExit)
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
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        rep = report_of(result)
        assert rep["verdict"] == "error"
        assert rep["diagnostics"]["kind"] == "FileNotFoundError"


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
    return root


@st.composite
def cli_calls(draw, root):
    """A check/search/verify argument list and whether it holds an input error."""
    command = draw(st.sampled_from(["check", "search", "verify"]))
    target = draw(st.sampled_from(["bell2", "bell3", "six4x4"])
                  | st.sampled_from(["garbled", "nan", "inf", "nested", "missing", "directory",
                                     None]))
    args, bad = [command], target not in ("bell2", "bell3", "six4x4")
    if target == "directory":
        args.append(str(root))
    elif target is not None:
        args.append(str(root / f"{target}.json"))
    if command == "verify":
        protocol = draw(st.sampled_from(["bell2", "nan", "nested"]))
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
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.exit_code in (0, 1, 2, 3)
    assert (result.exit_code == 3) == bad
