"""In-memory span tracing around the public functions of each eischow layer.

``install`` replaces every public function of the layer modules, and every
other binding of the same function object inside the package (for example
``eischow.eis.invariants`` as well as ``eischow.gamma0.invariants``), with a
wrapper that records one span per call: name, start, end, parent span and
whether the call raised.  Spans stay in flat arrays until the run ends;
``Tracer.aggregate`` turns them into calls, total time and self time (span
time minus the time covered by its child spans) per span name.

The module imports nothing from eischow at import time, so a child process
can time ``import eischow.cli`` before installing the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array

LAYERS = ("gamma0", "symbolic", "eis", "hecke", "qexp", "lseries", "disc", "cli")

# public methods traced in addition to the module-level functions in __all__
METHODS = {
    "symbolic": ("SymbolicReal", ("evaluate", "to_json_obj", "from_json_obj")),
    "disc": ("DiscGrid", ("gauss",)),
}

OP_PREFIX = "op:"


class Tracer:
    """Flat span store; span i's parent is an index < i, or -1 for a root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, starts, ends, oks = self.name, self.parent, self.start, self.end, self.ok
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            oks.append(1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                oks[idx] = 0
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function wherever the package binds it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"eischow.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__))
                    else:
                        new = self.wrap(f"{layer}.{cls_name}.{meth}", raw)
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, new)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eischow" or mod_name.startswith("eischow.")):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # -- recording helpers ---------------------------------------------------

    def op(self, kind: str, fn):
        """Run fn() as the root span of one benchmark op."""
        return self.wrap(OP_PREFIX + kind, fn)()

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path, extra: dict) -> None:
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "ok": self.ok.tolist(),
            "extra": extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def merge(self, payload: dict, root_kind: str) -> None:
        """Append a child process's spans under one new op root span."""
        base = len(self.start)
        spans = payload["start"]
        root = base
        self.name.append(self._name_id(OP_PREFIX + root_kind))
        self.parent.append(-1)
        self.start.append(min(spans, default=0.0))
        self.end.append(max(payload["end"], default=0.0))
        self.ok.append(1)
        remap = [self._name_id(n) for n in payload["names"]]
        for nid, par, s, e, ok in zip(
            payload["name"], payload["parent"], spans, payload["end"], payload["ok"]
        ):
            self.name.append(remap[nid])
            self.parent.append(root if par < 0 else base + 1 + par)
            self.start.append(s)
            self.end.append(e)
            self.ok.append(ok)

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, ok_calls, total_s and self_s.

        Only spans under an op root count, so library calls made by the
        benchmark's own output checks stay out of the layer numbers.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        under_op = [False] * n
        op_ids = {i for i, nm in enumerate(self.names) if nm.startswith(OP_PREFIX)}
        for i in range(n):
            par = self.parent[i]
            if par < 0:
                under_op[i] = self.name[i] in op_ids
            else:
                child[par] += dur[i]
                under_op[i] = under_op[par]
        stats = {}
        for i in range(n):
            if not under_op[i]:
                continue
            s = stats.setdefault(
                self.names[self.name[i]], {"calls": 0, "ok_calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            s["calls"] += 1
            s["ok_calls"] += self.ok[i]
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
        return stats
