"""The benchmark's workloads: seeded inputs, the operations, and their checks.

Every input is generated here with numpy from the workload seed; loccdist
receives only the finished amplitude matrices (through ``make_state`` and
``make_ensemble``) or files written from them.  Each workload is a fixed list
of operations ("a round") whose instance families are spread evenly through
the list, so a slow phase of the machine hits every family alike.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import spans

YES, NO, UNKNOWN = "yes", "proved-no", "unknown"


# ---------------------------------------------------------------------------
# seeded amplitude matrices (numpy only)

def _haar(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unit(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_set(da, db, m, rng):
    """``m`` orthonormal Haar-random joint vectors."""
    u = _haar(da * db, rng)
    return [u[:, k].reshape(da, db) for k in range(m)]


def product_set(da, db, pairs, rng):
    """Members ``|a_i>|b_j>`` of a random local product basis, for (i, j) in pairs."""
    ua, ub = _haar(da, rng), _haar(db, rng)
    return [np.outer(ua[:, i], ub[:, j]) for i, j in pairs]


def one_entangled_triple(rng):
    """Two-qubit products ``|a0 b0>``, ``|a1 c>`` and a random (entangled)
    vector orthogonal to both."""
    ua, ub = _haar(2, rng), _haar(2, rng)
    p1, p2 = np.outer(ua[:, 0], ub[:, 0]), np.outer(ua[:, 1], _unit(2, rng))
    spanned = np.stack([p1.ravel(), p2.ravel()], axis=1)
    noise = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(np.concatenate([spanned, noise], axis=1))
    return [p1, p2, (q[:, 2:] @ _unit(2, rng)).reshape(2, 2)]


def two_entangled_triple(rng):
    """A random two-qubit product state and two random (entangled) vectors
    orthogonal to it and to each other."""
    p = np.outer(_unit(2, rng), _unit(2, rng))
    noise = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    q, _ = np.linalg.qr(np.concatenate([p.reshape(4, 1), noise], axis=1))
    return [p, q[:, 1].reshape(2, 2), q[:, 2].reshape(2, 2)]


def _table(dim, spec):
    mat = np.zeros((dim, dim), dtype=complex)
    for (x, y), v in spec.items():
        mat[x, y] = v
    return mat / np.linalg.norm(mat)


#: the six-state 4x4 set with a known protocol (labels match loccdist's
#: canned "six4x4" protocol)
SIX4X4 = {
    "psi1": {(0, 0): 1}, "psi2": {(1, 0): 1, (1, 1): 1},
    "psi3": {(0, 1): 1, (1, 0): 1, (1, 1): -1}, "psi4": {(2, 2): 1},
    "psi5": {(2, 3): 1, (3, 3): 1}, "psi6": {(3, 2): 1, (2, 3): 1, (3, 3): -1},
}
#: the 3x3 domino product basis (Bennett et al., PRA 59, 1070 (1999))
DOMINO9 = {
    "d1": {(1, 1): 1}, "d2": {(0, 0): 1, (0, 1): 1}, "d3": {(0, 0): 1, (0, 1): -1},
    "d4": {(2, 1): 1, (2, 2): 1}, "d5": {(2, 1): 1, (2, 2): -1},
    "d6": {(1, 0): 1, (2, 0): 1}, "d7": {(1, 0): 1, (2, 0): -1},
    "d8": {(0, 2): 1, (1, 2): 1}, "d9": {(0, 2): 1, (1, 2): -1},
}
#: the first two Bell states (labels match the canned "bell2-x" protocol)
BELL2 = {"A1": {(0, 0): 1, (1, 1): 1}, "A2": {(0, 0): 1, (1, 1): -1}}


def canned(spec, dim):
    return {label: _table(dim, entries) for label, entries in spec.items()}


def rotated(states, rng):
    """The same states under a seeded random ``U_A (x) U_B``."""
    da, db = next(iter(states.values())).shape
    ua, ub = _haar(da, rng), _haar(db, rng)
    return {label: ua @ m @ ub.T for label, m in states.items()}


def labelled(mats):
    return {f"s{k}": m / np.linalg.norm(m) for k, m in enumerate(mats)}


# ---------------------------------------------------------------------------
# instance families

@dataclass
class Case:
    """One seeded ensemble and what its verdict must satisfy.

    ``must``: the only acceptable verdict, if any.  ``never``: verdicts that
    would contradict the literature or the benchmark's own computation.
    """

    family: str
    states: dict
    must: str | None = None
    never: tuple = ()


_PAIRS_2X2 = {
    # the three shapes of a product pair: shared Alice factor, shared Bob
    # factor, and orthogonal on both sides
    2: [[(0, 0), (0, 1)], [(0, 0), (1, 0)], [(0, 0), (1, 1)]],
    3: [[(0, 0), (0, 1), (1, 0)], [(0, 0), (0, 1), (1, 1)],
        [(0, 0), (1, 0), (1, 1)], [(0, 1), (1, 0), (1, 1)]],
    4: [[(0, 0), (0, 1), (1, 0), (1, 1)]],
}


def _two_qubit_case(family, mats):
    states = labelled(mats)
    if checks.two_qubit_rule(list(states.values())):
        return Case(family, states, never=(NO,))
    return Case(family, states, must=NO, never=(YES,))


def _sweep_family(name, k, rng):
    kind, m = name[:-1], int(name[-1])
    if kind == "haar":
        return _two_qubit_case(name, haar_set(2, 2, m, rng))
    if kind == "prod":
        shapes = _PAIRS_2X2[m]
        return _two_qubit_case(name, product_set(2, 2, shapes[k % len(shapes)], rng))
    if name == "one_ent3":
        return _two_qubit_case(name, one_entangled_triple(rng))
    return _two_qubit_case(name, two_entangled_triple(rng))


#: sweep2x2 families and their instances per round.  The weights put the
#: median and the 90th percentile of latency inside a family's band (the
#: fast proved-no sets are 20% of the list, the slowest band 60%), not on
#: the edge between two bands.
SWEEP_FAMILIES = {"haar2": 60, "haar3": 20, "haar4": 20, "prod2": 30, "prod3": 30,
                  "prod4": 60, "one_ent3": 60, "two_ent3": 20}


def _grid_case(name, k, rng):
    kind, d = name[:-1], int(name[-1])
    pairs = [(i, j) for i in range(d) for j in range(d)]
    if kind == "prodfull":
        return Case(name, labelled(product_set(d, d, pairs, rng)), never=(NO,))
    if kind == "prodpart":
        return Case(name, labelled(product_set(d, d, pairs[:d * d // 2], rng)), never=(NO,))
    if kind == "haarpair":
        return Case(name, labelled(haar_set(d, d, 2, rng)), never=(NO,))
    return Case(name, labelled(haar_set(d, d, d + 1, rng)))  # ranks d each: d(d+1) > d*d


def _highdim_family(name, k, rng):
    if name.startswith("six4x4"):
        states = canned(SIX4X4, 4)
        case = Case(name, rotated(states, rng) if name.endswith("rot") else states,
                    never=(NO,))
    elif name.startswith("domino9"):
        states = canned(DOMINO9, 3)
        case = Case(name, rotated(states, rng) if name.endswith("rot") else states,
                    never=(YES,))
    else:
        case = _grid_case(name, k, rng)
    if checks.rank_sum_violated(list(case.states.values())):
        case.must = NO
    return case


#: highdim families and their instances per round (104, so the 90th
#: percentile of the per-operation times has ten above it).  The weights put
#: the median inside the band of the unrotated six4x4 (40% to 73% of the
#: sorted times) and the 90th percentile inside the band of the 4x4 full
#: product bases (87% to 98%), not on the edge between two bands.
HIGHDIM_FAMILIES = {f"{kind}{d}": 4 for kind in ("prodfull", "prodpart", "haarpair", "haarviol")
                    for d in (3, 4, 5)}
HIGHDIM_FAMILIES.update({"prodfull4": 12, "prodfull5": 2, "prodpart5": 2, "six4x4": 34,
                         "six4x4-rot": 10, "domino9": 4, "domino9-rot": 4})


def interleave(counts: dict) -> list[tuple[str, int]]:
    """(family, k) for every instance, each family spread evenly over the list."""
    items = [((k + 0.5) / n, f, k, name) for f, (name, n) in enumerate(counts.items())
             for k in range(n)]
    return [(name, k) for _, _, k, name in sorted(items)]


def cases(workload: str, seed: int) -> list[Case]:
    counts, make = {"sweep2x2": (SWEEP_FAMILIES, _sweep_family),
                    "highdim": (HIGHDIM_FAMILIES, _highdim_family)}[workload]
    ids = {name: f for f, name in enumerate(counts)}
    return [make(name, k, np.random.default_rng([seed, ids[name], k]))
            for name, k in interleave(counts)]


# ---------------------------------------------------------------------------
# judging verdicts

def judge(case: Case, verdict: str, tree) -> tuple[bool, list[str]]:
    """(decided, problems) of one verdict; ``tree`` is a neutral tree or None."""
    problems = []
    if verdict not in (YES, NO, UNKNOWN):
        problems.append(f"unexpected verdict {verdict!r}")
    if case.must is not None and verdict != case.must:
        problems.append(f"{case.family}: verdict {verdict}, expected {case.must}")
    if verdict in case.never:
        problems.append(f"{case.family}: verdict {verdict} is impossible here")
    if verdict == YES:
        if tree is None:
            problems.append(f"{case.family}: yes without a protocol")
        else:
            problems += [f"{case.family}: {p}" for p in checks.protocol_problems(tree, case.states)]
    return verdict in (YES, NO) and not problems, problems


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check(result)`` returns
    (failed, decided, problems)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, bool, list[str]]]


def _check_search(case, outcome):
    tree = checks.tree_from_object(outcome.protocol) if outcome.protocol is not None else None
    decided, problems = judge(case, outcome.verdict, tree)
    return False, decided, problems


def build_ensembles(loccdist, all_cases):
    """The loccdist ensembles of all cases (timed as set-up)."""
    return [loccdist.make_ensemble([loccdist.make_state(*m.shape, m, name=label)
                                    for label, m in case.states.items()])
            for case in all_cases]


def _decide(loccdist, ens):
    # looked up per call, so the tracer's binding is the one called
    return loccdist.search_protocol(ens)


def search_ops(loccdist, all_cases, ensembles) -> list[Op]:
    """Decide each ensemble the way ``check --mode full`` does."""
    return [Op(case.family, functools.partial(_decide, loccdist, ens),
               functools.partial(_check_search, case))
            for case, ens in zip(all_cases, ensembles)]


# ---------------------------------------------------------------------------
# the cli workload

class CliRunner:
    """Runs ``python -m loccdist.cli`` in a fresh process per call.

    With ``trace`` set, runs the call through ``cli_child.py`` instead and
    keeps each child's span snapshot in ``snapshots``.
    """

    def __init__(self, env, cwd, workdir):
        self.env, self.cwd, self.workdir = env, cwd, workdir
        self.trace = False
        self.snapshots: list[dict] = []

    def call(self, args):
        if not self.trace:
            return subprocess.run([sys.executable, "-m", "loccdist.cli", *args],
                                  env=self.env, cwd=self.cwd, capture_output=True,
                                  text=True, timeout=60)
        trace_file = self.workdir / "trace.json"
        trace_file.unlink(missing_ok=True)
        child = Path(__file__).with_name("cli_child.py")
        proc = subprocess.run([sys.executable, str(child), str(trace_file), *args],
                              env=self.env, cwd=self.cwd, capture_output=True,
                              text=True, timeout=60)
        self.snapshots.append(json.loads(trace_file.read_text()))
        return proc

    def tracing(self, on: bool):
        self.trace = on
        if on:
            self.snapshots = []
        return None if on else spans.merge(self.snapshots)


_VERDICTS = {"distinguishable": YES, "indistinguishable": NO, "unknown": UNKNOWN}
_EXITS = {YES: 0, NO: 1, UNKNOWN: 2}


def _report(proc):
    """The JSON report of a finished call, or None when the call crashed."""
    if "Traceback" in proc.stderr or proc.returncode not in (0, 1, 2, 3):
        return None
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None
    return report if report.get("exit_code") == proc.returncode else None


def _check_decision(case, proc, protocol_file=None):
    """Check a ``check`` or ``search`` report; a found protocol is read from
    the report or, for ``search``, from the file it wrote."""
    report = _report(proc)
    if report is None or proc.returncode == 3:
        return True, False, []
    verdict = _VERDICTS.get(report["verdict"], report["verdict"])
    problems = []
    if _EXITS.get(verdict) != proc.returncode:
        problems.append(f"verdict {report['verdict']} with exit {proc.returncode}")
    proto = report["diagnostics"].get("protocol")
    if protocol_file is not None and verdict == YES:
        proto = json.loads(Path(protocol_file).read_text())
    tree = checks.tree_from_json(proto) if proto is not None else None
    decided, more = judge(case, verdict, tree)
    return False, decided and not problems, problems + more


def _check_verify(case, path, proc):
    report = _report(proc)
    if report is None or proc.returncode == 3:
        return True, False, []
    tree = checks.tree_from_json(json.loads(Path(path).read_text()))
    valid = not checks.protocol_problems(tree, case.states)
    verified = report["verdict"] == "verified" and proc.returncode == 0
    problems = [] if valid == verified else [
        f"verify says {report['verdict']} but the walker finds the protocol "
        f"{'valid' if valid else 'invalid'}"]
    return False, verified and not problems, problems


def _check_rejected(proc):
    """A faulty invocation must be refused as an input error: exit 3, no traceback."""
    return not (proc.returncode == 3 and "Traceback" not in proc.stderr), False, []


#: seeded two-qubit file sets in the cli round; five sets give 100
#: successful operations per round, so the 90th percentile has ten above it
CLI_SETS = 5


def cli_cases(seed) -> dict[str, Case]:
    out = {"six4x4": Case("six4x4", canned(SIX4X4, 4), never=(NO,)),
           "bell2": Case("bell2", canned(BELL2, 2), never=(NO,))}
    for j in range(CLI_SETS):
        rng = [np.random.default_rng([seed, 100 + j, k]) for k in range(4)]
        out[f"h2-{j}"] = _two_qubit_case("haar2", haar_set(2, 2, 2, rng[0]))
        out[f"p4-{j}"] = _two_qubit_case("prod4", product_set(2, 2, _PAIRS_2X2[4][0], rng[1]))
        out[f"o3-{j}"] = _two_qubit_case("one_ent3", one_entangled_triple(rng[2]))
        out[f"t3-{j}"] = _two_qubit_case("two_ent3", two_entangled_triple(rng[3]))
    return out


def write_cli_inputs(loccdist, all_cases: dict, workdir: Path):
    """Write every ensemble file and the canned protocol files (timed as set-up)."""
    cli = loccdist.cli
    for name, ens in zip(all_cases, build_ensembles(loccdist, all_cases.values())):
        cli.write_json(workdir / f"{name}.json", cli.ensemble_to_dict(ens))
    for name, proto in (("six4x4", "six4x4"), ("bell2", "bell2-x")):
        cli.write_json(workdir / f"{name}.protocol.json",
                       cli.protocol_to_dict(loccdist.canned_protocol(proto)))


def _mode_case(case, mode):
    """What the answer of ``check --mode necessary/classify2x2`` must be."""
    mats = list(case.states.values())
    if mode == "necessary":
        verdict = NO if checks.rank_sum_violated(mats) else UNKNOWN
    else:
        verdict = YES if checks.two_qubit_rule(mats) else NO
    return Case(f"{case.family}/{mode}", case.states, must=verdict)


#: the cli operations on one file set: (command, file, extra).  Three
#: invocations hit two known faults and are kept as failing operations; each
#: must be refused with exit 3.
CLI_ROUND = (
    ("check", "h2", "full"), ("check", "t3", "necessary"), ("check", "o3", "classify2x2"),
    ("search", "h2", None), ("verify", "h2", None), ("fault", "six4x4", "--max-depth=0"),
    ("check", "p4", "full"), ("check", "o3", "necessary"), ("check", "t3", "classify2x2"),
    ("verify-canned", "six4x4", None), ("check", "h2", "classify2x2"),
    ("fault", "six4x4", "--beam=0"), ("check", "t3", "full"), ("check", "p4", "classify2x2"),
    ("search", "o3", None), ("verify", "o3", None), ("check", "p4", "necessary"),
    ("verify-canned", "bell2", None), ("check", "o3", "full"), ("search", "p4", None),
    ("verify", "p4", None), ("check", "h2", "necessary"),
    ("fault", "six4x4", "--tolerance=nan"),
)


def cli_ops(runner: CliRunner, all_cases, workdir: Path) -> list[Op]:
    ops = []
    for j in range(CLI_SETS):
        for command, base, extra in CLI_ROUND:
            name = base if base in ("six4x4", "bell2") else f"{base}-{j}"
            case, ens = all_cases[name], str(workdir / f"{name}.json")
            if command == "check":
                args = ["check", ens, "--mode", extra, "--format", "json"]
                judged = case if extra == "full" else _mode_case(case, extra)
                check = functools.partial(_check_decision, judged)
                label = f"check-{extra}"
            elif command == "search":
                out = str(workdir / f"{name}.found.json")
                args = ["search", ens, "--output", out, "--format", "json"]
                check = functools.partial(_check_decision, case, protocol_file=out)
                label = "search"
            elif command in ("verify", "verify-canned"):
                proto = str(workdir / (f"{name}.found.json" if command == "verify"
                                       else f"{name}.protocol.json"))
                args = ["verify", ens, proto, "--format", "json"]
                check = functools.partial(_check_verify, case, proto)
                label = command
            else:
                args = ["check", ens, "--mode", "full", extra, "--format", "json"]
                check = _check_rejected
                label = f"fault{extra.split('=')[0]}"
            ops.append(Op(label, functools.partial(runner.call, args), check))
    return ops
