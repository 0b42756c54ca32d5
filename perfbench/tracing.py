"""Spans around the public functions of pointgen's modules.

A Tracer replaces each public module-level function (and each public
method of `Model`) with a wrapper that adds its wall time, its self time
(wall time minus that of the spans it encloses) and its call count to a
per-name total. Names are `<module>.<function>`. Only `cli.main` is wrapped
in `cli`, so argument parsing, the loss log and manifest handling are all
`cli` self time; `config` is parsed inside it and is not a layer of its own.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "data", "model", "context", "autodiff", "sampler", "evaluate", "checkpoint")


class Tracer:
    """Aggregated spans; install() patches pointgen, uninstall() restores it."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [wall s, self s, calls]
        self.tape_bytes = 0  # bytes of autodiff op outputs recorded on the tape
        self.forward_rows = 0  # rows of the clouds passed to Model.forward
        self._stack: list[float] = []  # time covered by child spans, per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        totals = self.totals.setdefault(name, [0.0, 0.0, 0])
        stack = self._stack
        is_op = name.startswith("autodiff.")
        is_forward = name == "model.forward"

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                children = stack.pop()
                totals[0] += wall
                totals[1] += wall - children
                totals[2] += 1
                if stack:
                    stack[-1] += wall
            if is_op and getattr(result, "requires_grad", False):
                self.tape_bytes += result.data.nbytes
            elif is_forward:
                self.forward_rows += args[1].n
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"pointgen.{m}") for m in LAYERS}
        mods["pointgen"] = importlib.import_module("pointgen")
        for layer in LAYERS:
            module = mods[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or (layer == "cli" and attr != "main"):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                # rebind every `from .x import f` copy as well as the definition
                for holder in mods.values():
                    for held, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, held, wrapped)
        model_cls = mods["model"].Model
        for attr, obj in list(vars(model_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(model_cls, attr, self._wrap(f"model.{attr}", obj))

    def _patch(self, holder, attr, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def merge(self, other: "Tracer", scale: float) -> None:
        """Add another tracer's spans, their times multiplied by `scale`."""
        for name, (wall, own, calls) in other.totals.items():
            totals = self.totals.setdefault(name, [0.0, 0.0, 0])
            totals[0] += scale * wall
            totals[1] += scale * own
            totals[2] += calls
        self.tape_bytes += other.tape_bytes
        self.forward_rows += other.forward_rows

    def ms(self, name: str) -> float:
        return 1e3 * self.totals.get(name, (0.0, 0.0, 0))[0]

    def self_ms(self, name: str) -> float:
        return 1e3 * self.totals.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0.0, 0.0, 0))[2]


class Probe:
    """Times every call of one method and keeps its results.

    This is the only patch made in an untraced run: it costs two clock
    reads per call.
    """

    def __init__(self, holder, attr):
        self.holder, self.attr = holder, attr
        self.seconds: list[float] = []
        self.results: list = []

    def __enter__(self):
        original = self.original = getattr(self.holder, self.attr)
        seconds, results = self.seconds, self.results

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            seconds.append(time.perf_counter() - start)
            results.append(result)
            return result

        setattr(self.holder, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.holder, self.attr, self.original)
