"""Per-layer spans around calls into loccdist, installed from outside src/.

``Tracer.install`` replaces each public function named in ``TARGETS`` at
every loccdist module binding that holds it (``make_state`` is bound in
``states``, ``ensemble``, ``protocol``, ``search``, ``cli`` and the package),
and wraps ``ProjectiveMeasurement.__init__`` to count constructions.  Each
wrapped call records its inclusive time and its self time (inclusive minus
the time of wrapped calls made inside it).  ``uninstall`` restores every
binding.  A target that no longer exists is listed in ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = (
    ("search", "search_protocol"),
    ("search", "candidate_bases"),
    ("search", "cross_operators"),
    ("search", "valid_measurement"),
    ("search", "surviving_states"),
    ("protocol", "ProjectiveMeasurement"),
    ("protocol", "verify_protocol"),
    ("ensemble", "make_ensemble"),
    ("states", "make_state"),
    ("criteria", "schmidt_sum_check"),
    ("criteria", "classify_2x2"),
    ("cli", "read_json"),
    ("cli", "ensemble_from_dict"),
    ("cli", "protocol_from_dict"),
    ("cli", "protocol_to_dict"),
    ("cli", "write_json"),
)

#: counts taken from a wrapped call's result: span -> (count name, function)
RESULT_COUNTS = {
    "search.candidate_bases": ("search.candidates", len),
    "search.valid_measurement": ("search.admitted", lambda ok: int(bool(ok))),
    "search.search_protocol": ("search.nodes", lambda outcome: outcome.nodes_explored),
}

#: spans reported together as one file-format layer
CLI_GROUPS = {
    "cli.read": ("cli.read_json", "cli.ensemble_from_dict", "cli.protocol_from_dict"),
    "cli.write": ("cli.protocol_to_dict", "cli.write_json"),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._open: list[float] = []  # time of wrapped calls inside each open span
        self._undo: list[tuple] = []

    def _wrap(self, key, fn):
        counter = RESULT_COUNTS.get(key)
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                inner = open_spans.pop()
                self.self_s[key] += span - inner
                self.calls[key] += 1
                if open_spans:
                    open_spans[-1] += span
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {}
        for modname, _ in TARGETS:
            try:
                modules[modname] = importlib.import_module(f"loccdist.{modname}")
            except ImportError:
                modules[modname] = None
        bindings = [m for name, m in sys.modules.items()
                    if name == "loccdist" or name.startswith("loccdist.")]
        for modname, name in TARGETS:
            key = f"{modname}.{name}"
            original = getattr(modules[modname], name, None)
            if original is None:
                self.missing.append(key)
            elif isinstance(original, type):
                init = original.__dict__["__init__"]
                original.__init__ = self._wrap(key, init)
                self._undo.append((original, "__init__", init))
            else:
                wrapped = self._wrap(key, original)
                for module in bindings:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "missing": list(self.missing)}


def merge(snapshots) -> dict:
    """Sum several snapshots (one per CLI child) into one."""
    calls, self_s, counts, missing = Counter(), defaultdict(float), Counter(), set()
    for snap in snapshots:
        calls.update(snap["calls"])
        counts.update(snap["counts"])
        missing.update(snap["missing"])
        for key, value in snap["self_s"].items():
            self_s[key] += value
    return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(counts),
            "missing": sorted(missing)}


def layer_values(snap) -> dict:
    """Per-layer metric values (ms and counts) of one snapshot.

    A metric of a missing target is left out; ``snap["missing"]`` names it.
    """
    missing = set(snap["missing"])
    grouped = {key for keys in CLI_GROUPS.values() for key in keys}
    out = {}
    for modname, name in TARGETS:
        key = f"{modname}.{name}"
        if key in missing or key in grouped:
            continue
        count_name = "count" if name[0].isupper() else "calls"
        out[f"{key}.{count_name}"] = snap["calls"].get(key, 0)
        out[f"{key}.self_ms"] = 1000.0 * snap["self_s"].get(key, 0.0)
    for group, keys in CLI_GROUPS.items():
        if not missing.intersection(keys):
            out[f"{group}.self_ms"] = 1000.0 * sum(snap["self_s"].get(k, 0.0) for k in keys)
    for span, (count, _) in RESULT_COUNTS.items():
        if span not in missing:
            out[count] = snap["counts"].get(count, 0)
    return out
