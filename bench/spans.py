"""Span recorder for the benchmark's traced runs.

The library has no instrumentation of its own, so the traced run wraps
the functions named in LAYERS from outside.  The modules bind most of
them by ``from ... import``, so one function can sit under several names
(``entnorms.linalg.svd``, ``entnorms.sknorm.svd``, ``entnorms.svd``, ...);
``Recorder.install`` replaces every binding of the same function object
in every loaded ``entnorms`` module and ``uninstall`` puts them back.

Spans carry their parent's id and are kept in memory; ``summarize``
turns them into per-layer calls, times and counts, where a layer's self
time is its duration minus that of its direct child spans.

Run as a script, this file is the traced child of the ``cli_oneshot``
workload: ``python3 bench/spans.py SPANS_FILE ARGV...`` imports
``entnorms.cli`` (timing the import), installs the recorder, runs the
command and writes the spans to SPANS_FILE.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, attribute, span name).  _sk_bounds_full is the body of
# sk_bounds; wrapping it also counts the S(k) brackets that
# block_positivity_check computes without going through sk_bounds.
LAYERS = (
    ("entnorms.linalg", "svd", "linalg.svd"),
    ("entnorms.linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("entnorms.kyfan", "k2_dual", "kyfan.k2_dual"),
    ("entnorms.schmidt", "schmidt_decompose", "schmidt.schmidt_decompose"),
    ("entnorms.sknorm", "seesaw_lower", "sknorm.seesaw_lower"),
    ("entnorms.sknorm", "_sk_bounds_full", "sknorm.sk_bounds"),
    ("entnorms.sknorm", "block_positivity_check", "sknorm.block_positivity_check"),
    ("entnorms.sknorm", "prod_radius_bounds", "sknorm.prod_radius_bounds"),
    ("entnorms.sknorm", "prod_radius_bisect", "sknorm.prod_radius_bisect"),
    ("entnorms.dualnorms", "best_gamma_witness", "dualnorms.best_gamma_witness"),
    ("entnorms.dualnorms", "gamma_bounds", "dualnorms.gamma_bounds"),
    ("entnorms.dualnorms", "robustness_bounds", "dualnorms.robustness_bounds"),
    ("entnorms.dualnorms", "sn_certify", "dualnorms.sn_certify"),
    ("entnorms.dualnorms", "decomposition_oracle", "dualnorms.decomposition_oracle"),
    ("entnorms.dualnorms", "linprog", "dualnorms.linprog"),
    ("entnorms.criteria", "detect_schmidt_number", "criteria.detect_schmidt_number"),
    ("entnorms.criteria", "local_filter", "criteria.local_filter"),
    ("entnorms.states", "generate", "states.generate"),
)


def _seesaw_info(bound: inspect.BoundArguments, out) -> dict:
    return {
        "restarts": bound.arguments["restarts"],
        "iterations": out.iterations,
        "converged": int(out.converged),
    }


def _linprog_info(bound: inspect.BoundArguments, out) -> dict:
    rows, cols = bound.arguments["A_eq"].shape
    return {"rows": rows, "cols": cols}


def _oracle_info(bound: inspect.BoundArguments, out) -> dict:
    return {"terms": len(out[1])}


def _filter_info(bound: inspect.BoundArguments, out) -> dict:
    return {"iterations": out.iterations}


# Facts read off a call's arguments and result, stored on its span.
_INFO = {
    "sknorm.seesaw_lower": _seesaw_info,
    "dualnorms.linprog": _linprog_info,
    "dualnorms.decomposition_oracle": _oracle_info,
    "criteria.local_filter": _filter_info,
}


class Recorder:
    """Spans [id, parent id, name, start, end, info] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, info=None):
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = [sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0, None]
            self.spans.append(rec)
            self._stack.append(sid)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = info(bound, out)
            return out

        return wrapper

    def call(self, name: str, fn):
        """Run fn() as a root span, the identifier its layer spans share."""
        return self.span(name, fn)()

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "entnorms" or key.startswith("entnorms."))]
        for mod_name, attr, name in LAYERS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self.span(name, orig, _INFO.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, ms (outermost spans of that name only, so
    recursion is not counted twice), self_ms and the summed info fields,
    except the LP size, which is a mean per solve.  For the oracle also
    its assembly time (oracle time minus its linprog children) and the
    mean over calls of kept terms per pool column."""
    by_id = {s[0]: s for s in spans}
    child_ms: dict[int, float] = {}
    for sid, parent, _name, t0, t1, _info in spans:
        if parent is not None:
            child_ms[parent] = child_ms.get(parent, 0.0) + (t1 - t0) * 1e3

    def nested_in_same(span) -> bool:
        parent = span[1]
        while parent is not None:
            if by_id[parent][2] == span[2]:
                return True
            parent = by_id[parent][1]
        return False

    out: dict[str, dict] = {}
    for span in spans:
        sid, _parent, name, t0, t1, info = span
        agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        agg["calls"] += 1
        dur = (t1 - t0) * 1e3
        if not nested_in_same(span):
            agg["ms"] += dur
        agg["self_ms"] += dur - child_ms.get(sid, 0.0)
        for key, value in (info or {}).items():
            agg[key] = agg.get(key, 0) + value

    lp = out.get("dualnorms.linprog")
    if lp is not None:  # LP size: mean per solve
        lp["rows"] /= lp["calls"]
        lp["cols"] /= lp["calls"]
    oracle = out.get("dualnorms.decomposition_oracle")
    if oracle is not None:
        lp_ms = 0.0
        ratios = []
        last_cols: dict[int, int] = {}
        for sid, parent, name, t0, t1, info in spans:
            if name == "dualnorms.linprog" and parent is not None:
                owner = parent
                while owner is not None and by_id[owner][2] != "dualnorms.decomposition_oracle":
                    owner = by_id[owner][1]
                if owner is not None:
                    lp_ms += (t1 - t0) * 1e3
                    last_cols[owner] = info["cols"]
        for sid, _parent, name, _t0, _t1, info in spans:
            if name == "dualnorms.decomposition_oracle" and info and sid in last_cols:
                ratios.append(info["terms"] / last_cols[sid])
        oracle["assembly_ms"] = oracle["ms"] - lp_ms
        oracle["terms_per_column"] = sum(ratios) / len(ratios) if ratios else 0.0
    return out


def _cli_child(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import entnorms.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    rec = Recorder()
    rec.install()
    try:
        code = entnorms.cli.run(argv)
    finally:
        rec.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_cli_child(sys.argv[1], sys.argv[2:]))
