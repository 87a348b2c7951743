"""The package namespace loads each submodule on first use, and each CLI
command loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loccdist as L
from loccdist.cli import ensemble_to_dict, protocol_to_dict, write_json

SRC = Path(__file__).resolve().parents[1] / "src"

#: defining module -> the public names of the package it defines
PUBLIC = {
    "errors": ("DEFAULT_TOL", "BadAssignment", "DecompositionFailure", "DimensionMismatch",
               "EmptyEnsemble", "EmptyOutcome", "LoccdistError", "MalformedTree", "NonFinite",
               "NotOrthogonal", "NotUnitary", "ParseError", "ProductSetNotDistinguishable",
               "ReconstructionFailure", "ShapeMismatch", "TooManyStates", "UnknownExample",
               "UnknownProtocol", "VectorsNotOrthogonal", "WrongDimensions", "ZeroState"),
    "states": ("RANK_CUTOFF", "BipartiteState", "SchmidtDecomposition", "apply_local_unitary",
               "make_state", "product_state", "schmidt_decompose", "schmidt_number"),
    "ensemble": ("CANNED_EXAMPLES", "Ensemble", "SchmidtSumReport", "SearchOutcome",
                 "bell_states", "canned_example", "haar_unitary",
                 "make_ensemble", "random_ensemble", "random_state", "schmidt_sum_check"),
    "protocol": ("ALICE", "BOB", "BranchOperator", "Leaf", "Node", "OutcomeRecord",
                 "ProjectiveMeasurement", "ProtocolTree", "VerificationReport",
                 "canned_protocol", "completeness_check", "enumerate_branches", "run_protocol",
                 "tree_depth", "verify_protocol"),
    "search": ("SearchConfig", "candidate_bases", "cross_operators", "search_protocol",
               "surviving_states", "valid_measurement"),
    "criteria": ("Certificate", "CertificateReport", "certificate_check", "classify_2x2",
                 "product_set_distinguishable"),
}
NAMES = [name for names in PUBLIC.values() for name in names]
HOMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_the_package_exports_its_66_names():
    assert len(NAMES) == len(set(NAMES)) == 66
    assert sorted(L.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module,name", HOMES)
def test_a_package_name_is_its_defining_modules_object(module, name):
    value = getattr(L, name)
    assert value is getattr(getattr(L, module), name)
    assert vars(L)[name] is value  # bound on first access


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from loccdist import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) | set(PUBLIC) | {"cli"} <= set(dir(L))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        L.no_such_name
    assert not hasattr(L, "no_such_name")


# ---------------------------------------------------------------------------
# modules loaded by a fresh interpreter

_PROBE = """
import json, sys
args = json.loads(sys.argv[1])
try:
    if args is None:
        import loccdist
    else:
        from loccdist.cli import main
        main(args=args)
finally:
    loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("loccdist."))
    print("loaded:", json.dumps(loaded), file=sys.stderr)
"""


def _loaded(args, cwd):
    """Exit code, the loccdist submodules (and numpy) loaded and the stderr of
    one fresh interpreter that imports the package (``args`` None) or runs
    the CLI."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(args)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("loaded: "), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, set(json.loads(last[len("loaded: "):])), proc.stderr


@pytest.fixture
def files(tmp_path):
    write_json(tmp_path / "bell2.json", ensemble_to_dict(L.canned_example("bell2")))
    write_json(tmp_path / "bell2.protocol.json", protocol_to_dict(L.canned_protocol("bell2-x")))
    return tmp_path


def test_importing_the_package_loads_no_submodule(files):
    assert _loaded(None, files)[:2] == (0, set())


@pytest.mark.parametrize("args,code,named", [
    (["--help"], 0, None),
    ([], 3, "required"),
    (["bogus"], 3, "'bogus'"),
    (["check"], 3, "ensemble_path"),
    (["check", "bell2.json", "--form", "json"], 3, "--form"),
    (["check", "bell2.json", "--mode", "bogus"], 3, "--mode"),
    (["check", "bell2.json", "--mode", "full", "--max-depth=0"], 3, "--max-depth"),
    (["check", "bell2.json", "--mode", "full", "--beam=0"], 3, "--beam"),
    (["check", "bell2.json", "--mode", "full", "--tolerance=nan"], 3, "--tolerance"),
    (["check", "bell2.json", "--tolerance=0"], 3, "--tolerance"),
    (["example", "random-haar", "--seed", "-1"], 3, "--seed"),
    (["example", "random-haar", "--count", "0"], 3, "--count"),
    (["check", "bell2.json", "extra.json"], 3, "extra.json"),
], ids=["help", "no-arguments", "unknown-command", "missing-path", "abbreviation", "mode",
        "max-depth", "beam", "tolerance", "tolerance-0", "seed", "count", "extra-argument"])
def test_help_and_usage_errors_load_no_numpy(files, args, code, named):
    exit_code, loaded, stderr = _loaded(args, files)
    assert exit_code == code
    assert "numpy" not in loaded and loaded <= {"loccdist.cli", "loccdist.errors"}
    if named:  # a usage error names what it refuses, on stderr
        error = stderr.splitlines()[-2]
        assert "error: " in error and named in error, stderr


@pytest.mark.parametrize("args,code,absent", [
    (["verify", "bell2.json", "bell2.protocol.json"], 0, {"search", "criteria"}),
    (["check", "bell2.json", "--mode", "necessary"], 2, {"protocol", "search", "criteria"}),
    (["check", "bell2.json", "--mode", "full"], 0, {"criteria"}),
    (["search", "bell2.json"], 0, {"criteria"}),
], ids=["verify", "check-necessary", "check-full", "search"])
def test_a_command_loads_only_the_modules_it_runs(files, args, code, absent):
    exit_code, loaded, _ = _loaded(args, files)
    assert exit_code == code
    assert "numpy" in loaded
    assert not loaded & {f"loccdist.{name}" for name in absent}
