"""Command-line front end and the JSON file formats.

File formats (complex numbers are always two-element [re, im] arrays of
plain floats, so round-trips are bit-exact):

* ensemble:  {"dims": [Na, Nb], "states": [{"name": str,
  "amplitudes": Na x Nb nested array of [re, im]}]}
* protocol:  nodes {"party": "A"|"B", "outcomes": [{"projector_columns":
  [column, ...], "child": node-or-leaf}]} with leaves {"identify": str} or
  {"fail": true}; each column is a list of [re, im].
* report:    schema "v1", see REPORT_SCHEMA.

Exit codes: 0 distinguishable / success, 1 indistinguishable (proved) or
verification failure, 2 unknown, 3 input error (a bad or unwritable file, a
closed stdout, or a usage error such as a missing or out-of-range argument)
or internal error (any other exception, reported with its kind).

At module level only the standard library and ``errors`` are imported;
numpy and the computational modules are imported by the functions that use
them, so ``--help`` and a usage error load no numpy, and each command loads
only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from .errors import DEFAULT_TOL, LoccdistError, ParseError

SCHEMA_VERSION = "v1"

#: published machine-report schema (JSON Schema draft-07)
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "loccdist report",
    "type": "object",
    "required": ["schema_version", "command", "verdict", "exit_code",
                 "config", "diagnostics", "timing_ms"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "verdict": {"type": "string"},
        "exit_code": {"type": "integer", "minimum": 0, "maximum": 3},
        "config": {"type": "object"},
        "diagnostics": {"type": "object"},
        "timing_ms": {"type": "number", "minimum": 0},
    },
}

EXIT_DISTINGUISHABLE = 0
EXIT_INDISTINGUISHABLE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3

#: largest joint dimension ``dim_a * dim_b`` of a random-* example: its Haar
#: unitary, ``(dim_a * dim_b)`` squared complex entries, then takes 16 MB
MAX_EXAMPLE_DIM = 1024


# ---------------------------------------------------------------------------
# serialization

def _pairs(mat) -> list:
    """The rows of a complex matrix as lists of [re, im] pairs of floats."""
    import numpy as np

    return np.stack((mat.real, mat.imag), -1).tolist()


def ensemble_to_dict(e) -> dict:
    return {
        "dims": [e.dim_a, e.dim_b],
        "states": [{"name": s.name, "amplitudes": _pairs(s.amplitudes)} for s in e.states],
    }


def _parse_pair(entry, location):
    # json reads NaN, Infinity, out-of-range floats such as 1e400 and ints of any size
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       and abs(x) <= sys.float_info.max for x in entry)):
        raise ParseError("expected an [re, im] pair of finite numbers", location)
    return complex(entry[0], entry[1])


def _parse_rows(rows, width, location, message):
    """Parse ``rows`` of ``width`` [re, im] pairs into a complex matrix; every row
    (``ParseError(message)`` at ``location[r]``) and entry is checked first."""
    import numpy as np

    parsed = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(message, f"{location}[{r}]")
        parsed.append([_parse_pair(entry, f"{location}[{r}][{c}]")
                       for c, entry in enumerate(row)])
    return np.array(parsed, dtype=np.complex128)


def ensemble_from_dict(data, tol: float = DEFAULT_TOL):
    """Parse an ensemble file; returns (ensemble, notices).  Bad input raises
    ``ParseError`` at its location, e.g. ``states[1].amplitudes[0][1]``, before
    any matrix is built; ``tol`` governs the notices and the orthogonality check."""
    from .ensemble import make_ensemble
    from .states import make_state

    if not isinstance(data, dict):
        raise ParseError("top level must be an object", "$")
    dims = data.get("dims")
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                       for d in dims)):
        raise ParseError("expected [Na, Nb] with positive integers", "dims")
    raw_states = data.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise ParseError("expected a nonempty list", "states")
    states = []
    notices: list[str] = []
    for si, sd in enumerate(raw_states):
        loc = f"states[{si}]"
        if not isinstance(sd, dict):
            raise ParseError("expected an object", loc)
        name = sd.get("name")
        if name is not None and not isinstance(name, str):
            raise ParseError("name must be a string", f"{loc}.name")
        rows = sd.get("amplitudes")
        if not isinstance(rows, list) or len(rows) != dims[0]:
            raise ParseError(f"expected {dims[0]} rows", f"{loc}.amplitudes")
        mat = _parse_rows(rows, dims[1], f"{loc}.amplitudes", f"expected {dims[1]} entries")
        state = make_state(dims[0], dims[1], mat, name=name)
        if abs(state.normalization - 1.0) > tol:
            norm = (f"norm was {state.normalization:.12g}"
                    if math.isfinite(state.normalization) else "norm exceeds the float64 range")
            notices.append(f"state {state.name or si}: input normalized ({norm})")
        states.append(state)
    return make_ensemble(states, tol=tol), notices


def protocol_to_dict(tree) -> dict:
    from .protocol import Leaf

    if isinstance(tree, Leaf):
        if tree.is_fail:
            return {"fail": True}
        return {"identify": tree.identify}
    return {
        "party": tree.measurement.party,
        "outcomes": [
            {"projector_columns": _pairs(q.T), "child": protocol_to_dict(child)}
            for q, child in zip(tree.measurement.projectors, tree.children)
        ],
    }


def protocol_from_dict(data, location="$", tol: float = DEFAULT_TOL):
    """Parse a protocol file (the subtree at ``location``).  Bad input raises
    ``ParseError`` at its location; each measurement's projector columns must be
    orthonormal and resolve the identity within ``tol`` (``NotUnitary`` otherwise)."""
    from .protocol import Leaf, Node, ProjectiveMeasurement

    if not isinstance(data, dict):
        raise ParseError("expected an object", location)
    if "fail" in data or "identify" in data:
        if data.get("fail"):
            return Leaf(None)
        name = data.get("identify")
        if not isinstance(name, str):
            raise ParseError("identify must be a string", f"{location}.identify")
        return Leaf(name)
    party = data.get("party")
    if party not in ("A", "B"):
        raise ParseError('party must be "A" or "B"', f"{location}.party")
    outcomes = data.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise ParseError("expected a nonempty list", f"{location}.outcomes")
    blocks = []
    children = []
    for k, od in enumerate(outcomes):
        oloc = f"{location}.outcomes[{k}]"
        if not isinstance(od, dict):
            raise ParseError("expected an object", oloc)
        cols = od.get("projector_columns")
        if not isinstance(cols, list) or not cols or not all(isinstance(c, list) for c in cols):
            raise ParseError("expected a nonempty list of columns",
                             f"{oloc}.projector_columns")
        blocks.append(_parse_rows(cols, len(cols[0]), f"{oloc}.projector_columns",
                                  "columns must share one length").T)
        children.append(protocol_from_dict(od.get("child"), f"{oloc}.child", tol))
    return Node(ProjectiveMeasurement(party, tuple(blocks), tol), tuple(children))


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", str(path)) from exc
    except RecursionError as exc:
        raise ParseError("nesting too deep", str(path)) from exc


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_ensemble(path, tol: float = DEFAULT_TOL):
    ens, notices = ensemble_from_dict(read_json(path), tol=tol)
    for note in notices:
        print(f"notice: {note}", file=sys.stderr)
    return ens


# ---------------------------------------------------------------------------
# reports

def _run(command, config, fmt, body):
    """Run one subcommand: time ``body()``, emit its report, exit with its code.

    ``body()`` returns the report verdict, the exit code and the diagnostics.
    Any ``Exception`` it raises (a bad input file, an unwritable output path,
    an input too large to decide, an internal error such as the search's
    soundness guard) becomes the "error" report with its ``kind``, which
    exits 3: never a traceback, and never exit 1.
    """
    started = time.perf_counter()
    try:
        verdict, code, diagnostics = body()
    except Exception as exc:
        verdict, code = "error", EXIT_INPUT_ERROR
        empty = "out of memory" if isinstance(exc, MemoryError) else "internal error"
        diagnostics = {"error": str(exc) or empty, "kind": type(exc).__name__}
    timing_ms = (time.perf_counter() - started) * 1000.0
    if fmt == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "command": command,
                          "verdict": verdict, "exit_code": code, "config": config,
                          "diagnostics": diagnostics, "timing_ms": timing_ms}, indent=1))
    else:
        print(f"command: {command}")
        print(f"verdict: {verdict}")
        for key, value in diagnostics.items():
            print(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
        print(f"timing_ms: {timing_ms:.3f}")
    sys.exit(code)


def cmd_schmidt(ensemble_path, fmt, tolerance):
    """Per-state Schmidt ranks and weights of an ensemble file."""
    config = {"ensemble": str(ensemble_path), "tolerance": tolerance}

    def body():
        from .states import schmidt_decompose

        ens = load_ensemble(ensemble_path, tol=tolerance)
        rows = []
        for s in ens.states:
            dec = schmidt_decompose(s, tolerance)
            rows.append({"name": s.name, "schmidt_number": dec.schmidt_number,
                         "weights": [float(w) for w in dec.weights]})
        return "ok", 0, {"dims": [ens.dim_a, ens.dim_b], "states": rows}

    _run("schmidt", config, fmt, body)


def _decide(config, mode):
    """The decision behind ``check --mode MODE`` and ``search`` (mode "full").

    Loads ``config["ensemble"]`` and decides it.  Returns the report verdict,
    the exit code, the diagnostics and the protocol found (or None).  The
    diagnostics hold the Schmidt data, then the outcome's "warnings", then
    "nodes_explored" and "search_depth" (full mode only), then the "reason"
    of a proof of impossibility.  Only the modules of ``mode`` are loaded.
    """
    from .ensemble import PROVED_NO, UNKNOWN, YES, SearchOutcome, schmidt_sum_check

    tol = config["tolerance"]
    ens = load_ensemble(config["ensemble"], tol=tol)
    if mode == "necessary":
        rep = schmidt_sum_check(ens, tol)
        out = SearchOutcome(PROVED_NO if rep.violates else UNKNOWN, None, rep, reason=rep.reason)
    elif mode == "classify2x2":
        from .criteria import classify_2x2

        out = classify_2x2(ens, tol=tol)
    else:
        from .search import SearchConfig, search_protocol

        out = search_protocol(ens, SearchConfig(max_depth=config["max_depth"], tolerance=tol,
                                                beam_limit=config["beam"]))
    rep = out.schmidt_report
    diagnostics = {"schmidt_numbers": list(rep.schmidt_numbers),
                   "schmidt_sum": rep.total, "capacity": rep.capacity}
    if out.warnings:
        diagnostics["warnings"] = list(out.warnings)
    if mode == "full":
        diagnostics["nodes_explored"] = out.nodes_explored
        diagnostics["search_depth"] = out.max_depth
    if out.reason:
        diagnostics["reason"] = out.reason
    verdicts = {YES: ("distinguishable", EXIT_DISTINGUISHABLE),
                PROVED_NO: ("indistinguishable", EXIT_INDISTINGUISHABLE),
                UNKNOWN: ("unknown", EXIT_UNKNOWN)}
    return (*verdicts[out.verdict], diagnostics, out.protocol)


def cmd_check(ensemble_path, mode, max_depth, beam, fmt, tolerance):
    """Decide distinguishability of an ensemble file."""
    config = {"ensemble": str(ensemble_path), "mode": mode,
              "max_depth": max_depth, "beam": beam, "tolerance": tolerance}

    def body():
        verdict, code, diagnostics, protocol = _decide(config, mode)
        if code != EXIT_UNKNOWN:  # the depth limit matters only when it ran out
            diagnostics.pop("search_depth", None)
        if protocol is not None:
            diagnostics["protocol"] = protocol_to_dict(protocol)
        return verdict, code, diagnostics

    _run("check", config, fmt, body)


def cmd_verify(ensemble_path, protocol_path, fmt, tolerance):
    """Check a protocol file against an ensemble file."""
    config = {"ensemble": str(ensemble_path), "protocol": str(protocol_path),
              "tolerance": tolerance}

    def body():
        from .protocol import format_path, verify_protocol

        ens = load_ensemble(ensemble_path, tol=tolerance)
        tree = protocol_from_dict(read_json(protocol_path), tol=tolerance)
        report = verify_protocol(tree, ens, tol=tolerance)
        diagnostics = {
            "completeness_deviation": report.completeness_deviation,
            "state_totals": report.state_totals,
            "failures": list(report.failures),
            "leaves": [{"path": format_path(path), "identify": label, "probabilities": probs}
                       for path, label, probs in report.leaves],
        }
        return ("verified", 0, diagnostics) if report.ok else ("refuted", 1, diagnostics)

    _run("verify", config, fmt, body)


def cmd_search(ensemble_path, max_depth, beam, fmt, tolerance, output=None):
    """Search for a discrimination protocol; write it on success."""
    config = {"ensemble": str(ensemble_path), "max_depth": max_depth,
              "beam": beam, "tolerance": tolerance}

    def body():
        verdict, code, diagnostics, protocol = _decide(config, "full")
        del diagnostics["schmidt_numbers"]
        if protocol is not None:
            out_path = Path(output) if output else Path(ensemble_path).with_suffix(".protocol.json")
            write_json(out_path, protocol_to_dict(protocol))
            diagnostics["protocol_path"] = str(out_path)
        return verdict, code, diagnostics

    _run("search", config, fmt, body)


def cmd_example(name, seed, dims, count, fmt, tolerance, output=None):
    """Write a canned ensemble (bell4, bell3, bell2, six4x4, domino9) or a
    generated one (random-product, random-haar); canned protocols are written
    alongside where available."""
    config = {"name": name, "seed": seed, "dims": dims, "count": count,
              "tolerance": tolerance}

    def body():
        from .ensemble import CANNED_EXAMPLES, canned_example, random_ensemble

        if name in CANNED_EXAMPLES:
            ens = canned_example(name)
        elif name in ("random-product", "random-haar"):
            try:
                da, db = (int(x) for x in dims.lower().split("x"))
            except ValueError as exc:
                raise ParseError("expected NxM, e.g. 2x2", "--dims") from exc
            if not (da >= 1 and db >= 1 and da * db <= MAX_EXAMPLE_DIM):
                raise ParseError(f"expected positive dimensions whose product is at most "
                                 f"{MAX_EXAMPLE_DIM}, got {da}x{db}", "--dims")
            kind = "product-basis" if name == "random-product" else "haar-orthogonal"
            ens = random_ensemble(da, db, count, seed, kind=kind, tol=tolerance)
        else:
            raise LoccdistError(
                f"unknown example {name!r}; known: {', '.join(CANNED_EXAMPLES)}, "
                f"random-product, random-haar")
        out_path = Path(output) if output else Path(f"{name}.json")
        write_json(out_path, ensemble_to_dict(ens))
        diagnostics = {"ensemble_path": str(out_path),
                       "dims": [ens.dim_a, ens.dim_b], "m": ens.m}
        protocol_name = {"six4x4": "six4x4", "bell2": "bell2-x"}.get(name)
        if protocol_name:
            from .protocol import canned_protocol

            proto_path = out_path.with_suffix(".protocol.json")
            write_json(proto_path, protocol_to_dict(canned_protocol(protocol_name)))
            diagnostics["protocol_path"] = str(proto_path)
        return "written", 0, diagnostics

    _run("example", config, fmt, body)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 3, the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _bounded(convert, accept, wanted: str):
    """An argparse ``type``: ``convert(text)`` where ``accept`` holds of it;
    any other text is a usage error saying that it is not ``wanted``."""
    def parse(text):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {wanted}")
    return parse


def _parser(prog: str) -> _Parser:
    """One subparser per command; a parsed namespace holds the command
    function as ``run`` and its keyword arguments."""
    parser = _Parser(prog=prog, allow_abbrev=False, description=(
        "Decide, certify, or refute local distinguishability of finite "
        "ensembles of orthogonal bipartite pure states."))
    subparsers = parser.add_subparsers(required=True)
    subs = {}
    for run, *positionals in ((cmd_schmidt, "ensemble_path"), (cmd_check, "ensemble_path"),
                              (cmd_verify, "ensemble_path", "protocol_path"),
                              (cmd_search, "ensemble_path"), (cmd_example, "name")):
        name = run.__name__.removeprefix("cmd_")
        subs[name] = sub = subparsers.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sub.set_defaults(run=run)
        for positional in positionals:
            sub.add_argument(positional)
    at_least_1 = _bounded(int, lambda v: v >= 1, "an integer >= 1")
    subs["check"].add_argument("--mode", choices=("necessary", "classify2x2", "full"),
                               default="full", help="Decision to make.")
    for name, scope in (("check", " (--mode full only)"), ("search", "")):
        subs[name].add_argument("--max-depth", type=at_least_1, default=6,
                                help=f"Rounds of measurement per search branch{scope}.")
        subs[name].add_argument("--beam", type=at_least_1, default=64,
                                help=f"Candidate measurements per party and search node{scope}.")
    subs["search"].add_argument("--output", default=argparse.SUPPRESS, help=(
        "Protocol file to write on success (default: <ensemble>.protocol.json)."))
    example = subs["example"]
    example.add_argument("--output", default=argparse.SUPPRESS,
                         help="Ensemble file to write (default: <name>.json).")
    example.add_argument("--seed", type=_bounded(int, lambda v: v >= 0, "an integer >= 0"),
                         default=0, help="Seed for the random-* generators.")
    example.add_argument("--dims", default="2x2",
                         help="Local dimensions for the random-* generators, e.g. 3x2.")
    example.add_argument("--count", type=at_least_1, default=4,
                         help="Number of states for the random-* generators.")
    tolerance = _bounded(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
    for sub in subs.values():
        sub.add_argument("--format", dest="fmt", choices=("text", "json"), default="text",
                         help="Report format.")
        sub.add_argument("--tolerance", type=tolerance, default=DEFAULT_TOL,
                         help="Numerical tolerance for every check in this run.")
    return parser


def main(args=None, prog_name: str = "loccdist"):
    """Run the command line on ``args`` (default ``sys.argv[1:]``) and exit with
    its code; ``prog_name`` names the program in help and usage texts."""
    try:
        try:
            options = vars(_parser(prog_name).parse_args(args))
            options.pop("run")(**options)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the flush at exit
        # stays quiet, and exit as for any unwritable output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_INPUT_ERROR)


if __name__ == "__main__":  # pragma: no cover
    main()
