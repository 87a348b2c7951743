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
verification failure, 2 unknown, 3 input error (a bad or unwritable file, or a
usage error such as a missing argument or an out-of-range option).
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from .criteria import classify_2x2, schmidt_sum_check
from .ensemble import (
    CANNED_EXAMPLES,
    canned_example,
    make_ensemble,
    random_ensemble,
)
from .errors import LoccdistError, ParseError
from .protocol import (
    Leaf,
    Node,
    ProjectiveMeasurement,
    canned_protocol,
    format_path,
    verify_protocol,
)
from .search import PROVED_NO, UNKNOWN, YES, SearchConfig, SearchOutcome, search_protocol
from .states import DEFAULT_TOL, BipartiteState, make_state, schmidt_decompose

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


# ---------------------------------------------------------------------------
# serialization

def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def ensemble_to_dict(e) -> dict:
    return {
        "dims": [e.dim_a, e.dim_b],
        "states": [
            {"name": s.name,
             "amplitudes": [[_pair(z) for z in row] for row in s.amplitudes]}
            for s in e.states
        ],
    }


def _parse_pair(entry, location):
    # json reads NaN, Infinity and out-of-range literals such as 1e400
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       and math.isfinite(x) for x in entry)):
        raise ParseError("expected an [re, im] pair of finite numbers", location)
    return complex(entry[0], entry[1])


def ensemble_from_dict(data, tol: float = DEFAULT_TOL):
    """Parse an ensemble file; returns (ensemble, notices)."""
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", "$")
    dims = data.get("dims")
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(d, int) and d >= 1 for d in dims)):
        raise ParseError("expected [Na, Nb] with positive integers", "dims")
    raw_states = data.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise ParseError("expected a nonempty list", "states")
    states: list[BipartiteState] = []
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
        mat = np.zeros((dims[0], dims[1]), dtype=np.complex128)
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dims[1]:
                raise ParseError(f"expected {dims[1]} entries",
                                 f"{loc}.amplitudes[{r}]")
            for c, entry in enumerate(row):
                mat[r, c] = _parse_pair(entry, f"{loc}.amplitudes[{r}][{c}]")
        state = make_state(dims[0], dims[1], mat, name=name)
        if abs(state.normalization - 1.0) > tol:
            notices.append(f"state {state.name or si}: input normalized "
                           f"(norm was {state.normalization:.12g})")
        states.append(state)
    return make_ensemble(states, tol=tol), notices


def protocol_to_dict(tree) -> dict:
    if isinstance(tree, Leaf):
        if tree.is_fail:
            return {"fail": True}
        return {"identify": tree.identify}
    return {
        "party": tree.measurement.party,
        "outcomes": [
            {"projector_columns": [[_pair(z) for z in q[:, k]]
                                   for k in range(q.shape[1])],
             "child": protocol_to_dict(child)}
            for q, child in zip(tree.measurement.projectors, tree.children)
        ],
    }


def protocol_from_dict(data, location="$"):
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
        if not isinstance(cols, list) or not cols:
            raise ParseError("expected a nonempty list of columns",
                             f"{oloc}.projector_columns")
        mat = np.empty((len(cols[0]), len(cols)), dtype=np.complex128)
        for ci, col in enumerate(cols):
            if not isinstance(col, list) or len(col) != len(cols[0]):
                raise ParseError("columns must share one length",
                                 f"{oloc}.projector_columns[{ci}]")
            for ri, entry in enumerate(col):
                mat[ri, ci] = _parse_pair(
                    entry, f"{oloc}.projector_columns[{ci}][{ri}]")
        blocks.append(mat)
        children.append(protocol_from_dict(od.get("child"), f"{oloc}.child"))
    return Node(ProjectiveMeasurement(party, tuple(blocks)), tuple(children))


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
        click.echo(f"notice: {note}", err=True)
    return ens


# ---------------------------------------------------------------------------
# reports

def _run(command, config, fmt, body):
    """Run one subcommand: time ``body()``, emit its report, exit with its code.

    ``body()`` returns the report verdict, the exit code and the diagnostics.
    A ``LoccdistError`` or ``OSError`` it raises (a bad input file, an
    unwritable output path) becomes the "error" report, which exits 3.
    """
    started = time.perf_counter()
    try:
        verdict, code, diagnostics = body()
    except (LoccdistError, OSError) as exc:
        verdict, code = "error", EXIT_INPUT_ERROR
        diagnostics = {"error": str(exc), "kind": type(exc).__name__}
    timing_ms = (time.perf_counter() - started) * 1000.0
    if fmt == "json":
        click.echo(json.dumps({"schema_version": SCHEMA_VERSION, "command": command,
                               "verdict": verdict, "exit_code": code, "config": config,
                               "diagnostics": diagnostics, "timing_ms": timing_ms},
                              indent=1))
    else:
        click.echo(f"command: {command}")
        click.echo(f"verdict: {verdict}")
        for key, value in diagnostics.items():
            click.echo(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
        click.echo(f"timing_ms: {timing_ms:.3f}")
    sys.exit(code)


def _positive_finite(ctx, param, value):
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"{value} is not a finite number > 0.")
    return value


_format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                              default="text", show_default=True,
                              help="Report format.")
_tolerance_option = click.option("--tolerance", type=float, default=DEFAULT_TOL,
                                 show_default=True, callback=_positive_finite,
                                 help="Numerical tolerance for every check in this run.")
_max_depth_option = click.option("--max-depth", type=click.IntRange(min=1), default=6,
                                 show_default=True,
                                 help="Rounds of measurement per search branch.")
_beam_option = click.option("--beam", type=click.IntRange(min=1), default=64,
                            show_default=True,
                            help="Candidate measurements per party and search node.")


def _usage_error_exits_3(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_INPUT_ERROR
        raise


class _Group(click.Group):
    """Command group whose click usage errors exit 3, the input-error code."""

    def make_context(self, *args, **kwargs):
        return _usage_error_exits_3(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_error_exits_3(super().invoke, ctx)


@click.group(cls=_Group)
def main():
    """Decide, certify, or refute local distinguishability of finite
    ensembles of orthogonal bipartite pure states."""


@main.command("schmidt")
@click.argument("ensemble_path", type=click.Path())
@_format_option
@_tolerance_option
def cmd_schmidt(ensemble_path, fmt, tolerance):
    """Per-state Schmidt ranks and weights of an ensemble file."""
    config = {"ensemble": str(ensemble_path), "tolerance": tolerance}

    def body():
        ens = load_ensemble(ensemble_path, tol=tolerance)
        rows = []
        for s in ens.states:
            dec = schmidt_decompose(s)
            rows.append({"name": s.name, "schmidt_number": dec.schmidt_number,
                         "weights": [float(w) for w in dec.weights]})
        return "ok", 0, {"dims": [ens.dim_a, ens.dim_b], "states": rows}

    _run("schmidt", config, fmt, body)


#: decision verdict -> (report verdict, exit code)
_VERDICTS = {
    YES: ("distinguishable", EXIT_DISTINGUISHABLE),
    PROVED_NO: ("indistinguishable", EXIT_INDISTINGUISHABLE),
    UNKNOWN: ("unknown", EXIT_UNKNOWN),
}


def _decide(config, mode):
    """The decision behind ``check --mode MODE`` and ``search`` (mode "full").

    Loads ``config["ensemble"]`` and decides it.  Returns the report verdict,
    the exit code, the diagnostics and the protocol found (or None).  The
    diagnostics hold the Schmidt data, then the outcome's "warnings", then
    "nodes_explored" and "search_depth" (full mode only), then the "reason"
    of a proof of impossibility.
    """
    tol = config["tolerance"]
    ens = load_ensemble(config["ensemble"], tol=tol)
    if mode == "necessary":
        rep = schmidt_sum_check(ens)
        out = SearchOutcome(PROVED_NO if rep.violates else UNKNOWN, None, rep)
    elif mode == "classify2x2":
        out = classify_2x2(ens, tol=tol)
    else:
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
    return (*_VERDICTS[out.verdict], diagnostics, out.protocol)


@main.command("check")
@click.argument("ensemble_path", type=click.Path())
@click.option("--mode", type=click.Choice(["necessary", "classify2x2", "full"]),
              default="full", show_default=True)
@_max_depth_option
@_beam_option
@_format_option
@_tolerance_option
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


@main.command("verify")
@click.argument("ensemble_path", type=click.Path())
@click.argument("protocol_path", type=click.Path())
@_format_option
@_tolerance_option
def cmd_verify(ensemble_path, protocol_path, fmt, tolerance):
    """Check a protocol file against an ensemble file."""
    config = {"ensemble": str(ensemble_path), "protocol": str(protocol_path),
              "tolerance": tolerance}

    def body():
        ens = load_ensemble(ensemble_path, tol=tolerance)
        tree = protocol_from_dict(read_json(protocol_path))
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


@main.command("search")
@click.argument("ensemble_path", type=click.Path())
@_max_depth_option
@_beam_option
@click.option("--output", type=click.Path(), default=None,
              help="Protocol file to write on success "
                   "[default: <ensemble>.protocol.json].")
@_format_option
@_tolerance_option
def cmd_search(ensemble_path, max_depth, beam, output, fmt, tolerance):
    """Search for a discrimination protocol; write it on success."""
    config = {"ensemble": str(ensemble_path), "max_depth": max_depth,
              "beam": beam, "tolerance": tolerance}

    def body():
        verdict, code, diagnostics, protocol = _decide(config, "full")
        del diagnostics["schmidt_numbers"]
        if protocol is not None:
            out_path = Path(output) if output else Path(str(ensemble_path)).with_suffix(
                ".protocol.json")
            write_json(out_path, protocol_to_dict(protocol))
            diagnostics["protocol_path"] = str(out_path)
        return verdict, code, diagnostics

    _run("search", config, fmt, body)


@main.command("example")
@click.argument("name")
@click.option("--output", type=click.Path(), default=None,
              help="Ensemble file to write [default: <name>.json].")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the random-* generators.")
@click.option("--dims", default="2x2", show_default=True,
              help="Local dimensions for the random-* generators, e.g. 3x2.")
@click.option("--count", type=int, default=4, show_default=True,
              help="Number of states for the random-* generators.")
@_format_option
@_tolerance_option
def cmd_example(name, output, seed, dims, count, fmt, tolerance):
    """Write a canned ensemble (bell4, bell3, bell2, six4x4, domino9) or a
    generated one (random-product, random-haar); canned protocols are written
    alongside where available."""
    config = {"name": name, "seed": seed, "dims": dims, "count": count,
              "tolerance": tolerance}

    def body():
        if name in CANNED_EXAMPLES:
            ens = canned_example(name)
        elif name in ("random-product", "random-haar"):
            try:
                da, db = (int(x) for x in dims.lower().split("x"))
            except ValueError as exc:
                raise ParseError("expected NxM, e.g. 2x2", "--dims") from exc
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
            proto_path = out_path.with_suffix(".protocol.json")
            write_json(proto_path, protocol_to_dict(canned_protocol(protocol_name)))
            diagnostics["protocol_path"] = str(proto_path)
        return "written", 0, diagnostics

    _run("example", config, fmt, body)


if __name__ == "__main__":  # pragma: no cover
    main()
