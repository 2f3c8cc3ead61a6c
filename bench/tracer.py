"""In-process call tracer for the qndprobe benchmark.

``Tracer`` wraps every public function of the qndprobe layers in every module
namespace that binds it (a ``from .gaussian import apply_pulse`` in
``oracle`` makes ``oracle.apply_pulse`` a second binding that must be wrapped
too), plus the method ``GaussianState.check_psd``.  Spans are aggregated in
memory per traced name rather than kept one by one, because a single long
train makes tens of thousands of ``apply_pulse`` calls:

- ``calls[name]``: completed calls;
- ``inclusive_ns[name]``: wall time inside the call;
- ``self_ns[name]``: inclusive time minus the time of traced calls it made;
- ``nested[(outer, name)]``: calls of ``name`` made while ``outer`` was open;
- ``sums[name]`` / ``maxima[name]``: values returned by a per-name probe,
  which sees the call's arguments and result.

Names are ``<defining module>.<function>``, e.g. ``gaussian.apply_pulse``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

PACKAGE = "qndprobe"
LAYERS = ("cli", "experiment", "gaussian", "oracle", "operators")


class Tracer:
    """Installs wrappers on enter, restores the original bindings on exit."""

    def __init__(self, probes: dict | None = None):
        self._package = importlib.import_module(PACKAGE)
        self._modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self._probes = dict(probes or {})
        self.calls: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.nested: Counter = Counter()
        self.sums: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list = []
        self._open: dict = {}
        self._saved: list = []

    def targets(self) -> dict:
        """Map each traced name to its function object and every (owner, attribute) binding it."""
        found: dict = {}
        prefix = PACKAGE + "."
        for module in self._modules:
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(prefix):
                    continue
                name = f"{home[len(prefix):]}.{getattr(obj, '__name__', attr)}"
                found.setdefault(name, (obj, []))
        for name, (obj, bindings) in found.items():
            for owner in [self._package, *self._modules]:
                for attr, value in vars(owner).items():
                    if value is obj:
                        bindings.append((owner, attr))
        gaussian = importlib.import_module(f"{PACKAGE}.gaussian")
        found["gaussian.check_psd"] = (
            gaussian.GaussianState.check_psd, [(gaussian.GaussianState, "check_psd")]
        )
        return found

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (obj, bindings) in self.targets().items():
            wrapper = self._wrap(name, obj)
            for owner, attr in bindings:
                self._saved.append((owner, attr, obj))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        probe = self._probes.get(name)
        stack, open_names = self._stack, self._open
        calls, inclusive, self_time, nested = self.calls, self.inclusive_ns, self.self_ns, self.nested
        for totals in (calls, inclusive, self_time):
            totals.setdefault(name, 0)
        clock = time.perf_counter_ns

        # Plain dict operations only: this runs around every apply_pulse.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_names.get(name, 0)
            for outer in open_names:
                nested[(outer, name)] += 1
            open_names[name] = depth + 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if depth:
                    open_names[name] = depth
                else:
                    del open_names[name]
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if probe is not None:
                value = probe(args, kwargs, result)
                self.sums[name] += value
                self.maxima[name] = max(self.maxima.get(name, value), value)
            return result

        return traced
