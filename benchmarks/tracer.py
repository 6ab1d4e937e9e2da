"""Span tracer that wraps the orric package's public functions at run time.

Nothing under src/ is edited. ``Tracer.install`` rebinds each traced
function, in every orric module namespace that holds it, to a wrapper
that records one span per call: layer, start, end, parent span and the
id of the benchmark operation it belongs to. Spans are kept in memory in
flat arrays and written out once, at the end.

Run as a script, it executes one orric CLI command under the tracer and
writes that command's spans to SPANS (a .npz file):

    python benchmarks/tracer.py SPANS replay fog --T 100 --out DIR
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

# layer -> traced public names, as (module, attribute path)
TRACED = {
    "policies.weights": [("orric.policies", "compute_weights")],
    "policies.step": [("orric.policies", "orric_step"), ("orric.policies", "heuristic_step")],
    "engine.run_policy": [("orric.engine", "run_policy")],
    "engine.score": [("orric.engine", "evaluate_objective")],
    "engine.oracle": [("orric.engine", "offline_optimal")],
    "engine.io": [("orric.engine", "read_trace_csv"), ("orric.engine", "write_trace_csv"),
                  ("orric.engine", "write_run_csv")],
    "engine.witness": [("orric.engine", "nonconvexity_witness")],
    "accuracy.eval": [("orric.accuracy", "AccuracyModel.eval")],
    "accuracy.model_build": [("orric.accuracy", "make_model")],
    "profiles.io": [("orric.profiles", "read_menus"), ("orric.profiles", "load_profiles"),
                    ("orric.profiles", "save_profiles")],
    "scenario.build": [("orric.scenario", "build_replay"), ("orric.scenario", "generate_trace")],
    "analysis.bounds": [("orric.analysis", "compute_bounds"), ("orric.analysis", "bounds_report")],
    "cli.main": [("orric.cli", "main")],
}

# span recorded by hand around `import orric.cli`
IMPORT_LAYER = "cli.import"


def _sequences(result, args) -> int:
    return result.meta.get("enumerated_sequences", 0)


def _file_bytes(result, args) -> int:
    return os.path.getsize(args[0])


# counters read off a traced call: attribute -> (counter name, function of result and args)
COUNTERS = {
    "offline_optimal": ("engine.oracle_sequences", _sequences),
    "write_trace_csv": ("engine.io_bytes", _file_bytes),
    "write_run_csv": ("engine.io_bytes", _file_bytes),
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer_code: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op: array = array("i")
        self.counts: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _code(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def add_span(self, layer: str, start: float, end: float) -> None:
        """Record a span measured by the caller (a root span)."""
        self.layer_code.append(self._code(layer))
        self.parent.append(-1)
        self.op.append(self.current_op)
        self.start.append(start)
        self.end.append(end)

    def _wrap(self, layer: str, attr: str, fn):
        code = self._code(layer)
        counter = COUNTERS.get(attr)
        stack, clock = self._stack, time.perf_counter
        layer_code, parent, op, start, end = self.layer_code, self.parent, self.op, self.start, self.end
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer_code.append(code)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                name, read = counter
                counts[name] = counts.get(name, 0) + read(result, args)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced name in the loaded orric modules to its wrapper."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "orric" or name.startswith("orric.")]
        for layer, targets in TRACED.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                wrapper = self._wrap(layer, attr, fn)
                if outer:  # a method: rebind it on its class
                    self._rebind(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, name, wrapper)

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put the original functions back."""
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def dump(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            layers=np.array(self.layers, dtype=str),
            layer_code=np.frombuffer(self.layer_code, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            counter_names=np.array(list(self.counts), dtype=str),
            counter_values=np.array(list(self.counts.values()), dtype=np.int64),
        )

    def merge(self, path) -> None:
        """Append the spans and counters of a dump, attributing them to the current op."""
        import numpy as np

        with np.load(path) as data:
            codes = [self._code(str(layer)) for layer in data["layers"]]
            offset = len(self.start)
            self.layer_code.extend(codes[int(c)] for c in data["layer_code"])
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(int(p) + offset if p >= 0 else -1 for p in data["parent"])
            self.op.extend([self.current_op] * len(data["start"]))
            for name, value in zip(data["counter_names"], data["counter_values"]):
                self.counts[str(name)] = self.counts.get(str(name), 0) + int(value)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and call count per layer.

        A span's self time is its duration minus the durations of its
        direct child spans.
        """
        import numpy as np

        codes = np.frombuffer(self.layer_code, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = np.bincount(codes, weights=duration - child_time, minlength=len(self.layers))
        calls = np.bincount(codes, minlength=len(self.layers))
        return {layer: (float(self_time[k]), int(calls[k])) for k, layer in enumerate(self.layers)}


def main(argv: list[str]) -> int:
    spans_path, *cli_args = argv
    tracer = Tracer()
    started = time.perf_counter()
    import orric.cli

    tracer.add_span(IMPORT_LAYER, started, time.perf_counter())
    tracer.install()
    code = orric.cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
