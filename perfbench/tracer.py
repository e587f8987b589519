"""Outside-in per-layer host-CPU tracer.

The tracer monkeypatches the functions and methods of the simulator's
layer modules (``repro.sim``, ``repro.fs``, ``repro.cache``, ...) from the
benchmark's own code; nothing under ``src/`` knows it exists.  Every call
that crosses from one layer into another opens a span, and so does every
resumption of a generator a layer function returned -- the simulator's
processes are generators, so a layer's work mostly happens in resumptions,
not in the call that created the generator.

All spans live on one stack.  A span's *self* time is its duration minus
the durations of the spans opened while it was on top, so self times are
exact under the coroutine interleaving and add up to the traced phase.
Calls that stay inside one layer open no span: they are the layer's own
self time, and skipping them keeps the tracing cost at the boundaries.

The clock is ``time.process_time`` (host CPU of this process).

Typical use::

    tracer = LayerTracer()
    tracer.install()          # before any machine is built
    tracer.start()
    ...                       # the measured phase
    tracer.stop()
    tracer.self_seconds()     # {"sim": ..., "disk.store": ..., "other": ...}
    tracer.uninstall()
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from enum import Enum
from types import FunctionType, GeneratorType

#: module prefix -> layer label; the longest matching prefix wins.  A
#: dotted label is a sub-layer: its time also counts towards its parent.
LAYER_MODULES = {
    "repro.sim": "sim",
    "repro.fs": "fs",
    "repro.cache": "cache",
    "repro.ordering": "ordering",
    "repro.driver": "driver",
    "repro.disk": "disk",
    "repro.disk.storage": "disk.store",
    "repro.integrity": "integrity",
    "repro.integrity.fsck": "integrity.fsck",
    "repro.integrity.medialog": "integrity.synth",
    "repro.integrity.monitor": "integrity.monitor",
    "repro.workloads": "workloads",
}

#: (module, function) -> label, for a function that is its own sub-layer
FUNCTION_LAYERS = {("repro.integrity.fsck", "repair"): "integrity.repair"}

#: the label of everything outside the layers: the benchmark's own code,
#: the harness, the machine assembly
OTHER = "other"

#: dunder methods that are layer work when called from another layer; the
#: rest (comparison, hashing, repr, pickling) are left alone
_DUNDERS = frozenset({"__init__", "__call__", "__iter__", "__next__",
                      "__len__", "__getitem__", "__setitem__",
                      "__contains__", "__enter__", "__exit__"})


def top_layer(label: str) -> str:
    """The layer a (sub-)layer label counts towards."""
    return label.split(".", 1)[0]


def layer_of(module: str) -> str | None:
    """The label of a module, or None for code outside the layers."""
    best = None
    for prefix, label in LAYER_MODULES.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
                best is None or len(prefix) > len(best[0])):
            best = (prefix, label)
    return best[1] if best else None


class _Account:
    """Accumulated self time and span count of one label."""

    __slots__ = ("self_s", "calls")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0


class LayerTracer:
    """Per-layer self-time accounting over monkeypatched layer entry points."""

    def __init__(self, clock=time.process_time) -> None:
        self._clock = clock
        self._accounts: dict[str, _Account] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._start = 0.0
        self.phase_s = 0.0

    # -- accounting ------------------------------------------------------
    def _account(self, label: str) -> _Account:
        account = self._accounts.get(label)
        if account is None:
            account = self._accounts[label] = _Account()
        return account

    def start(self) -> None:
        """Open the root span: the traced phase begins."""
        if self._stack:
            raise RuntimeError("tracer already started")
        self._start = self._clock()
        self._stack.append([self._account(OTHER), self._start, 0.0])

    def stop(self) -> None:
        """Close the root span; every layer span must have closed by now."""
        if len(self._stack) != 1:
            raise RuntimeError(
                f"unbalanced span stack at stop: depth {len(self._stack)}")
        account, start, child = self._stack.pop()
        now = self._clock()
        account.self_s += (now - start) - child
        self.phase_s += now - self._start

    @property
    def active(self) -> bool:
        """True between start() and stop()."""
        return bool(self._stack)

    def self_seconds(self) -> dict[str, float]:
        return {label: acc.self_s for label, acc in self._accounts.items()}

    def calls(self) -> dict[str, int]:
        return {label: acc.calls for label, acc in self._accounts.items()}

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn, label: str):
        account = self._account(label)
        stack = self._stack
        clock = self._clock
        traced_generator = self._traced_generator

        def traced(*args, **kwargs):
            if not stack or stack[-1][0] is account:
                result = fn(*args, **kwargs)
            else:
                account.calls += 1
                frame = [account, clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    stack.pop()
                    elapsed = now - frame[1]
                    account.self_s += elapsed - frame[2]
                    stack[-1][2] += elapsed
            if type(result) is GeneratorType:
                return traced_generator(result, account)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _traced_generator(self, gen, account: _Account):
        """Drive *gen* like ``yield from``, one span per resumption."""
        wrapper = self._resumptions(gen, account)
        wrapper.__name__ = gen.__name__
        wrapper.__qualname__ = gen.__qualname__
        return wrapper

    def _resumptions(self, gen, account: _Account):
        stack = self._stack
        clock = self._clock
        value = None
        error = None
        while True:
            spanned = bool(stack) and stack[-1][0] is not account
            if spanned:
                account.calls += 1
                frame = [account, clock(), 0.0]
                stack.append(frame)
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    out, error = gen.throw(error), None
            except StopIteration as stop:
                return stop.value
            finally:
                if spanned:
                    now = clock()
                    stack.pop()
                    elapsed = now - frame[1]
                    account.self_s += elapsed - frame[2]
                    stack[-1][2] += elapsed
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded to gen
                value, error = None, exc

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Patch every layer module's functions and class methods.

        Call before any machine is built: objects created earlier may hold
        bound methods or functions captured before the patch.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _load_layer_modules()
        replaced: dict[int, object] = {}
        for module in modules:
            label = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    fn_label = FUNCTION_LAYERS.get(
                        (module.__name__, name), label)
                    wrapped = self._wrap(obj, fn_label)
                    replaced[id(obj)] = (obj, wrapped)
                    self._patch(module, name, wrapped)
                elif isinstance(obj, type) and _patchable_class(obj):
                    self._wrap_class(obj, label)
        # names imported elsewhere (``from repro.integrity.fsck import
        # fsck``) still point at the originals: repoint them too
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name.startswith("repro")
                                      or mod_name.startswith("perfbench")):
                continue
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, name, hit[1])

    def _wrap_class(self, cls: type, label: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _DUNDERS:
                continue
            if isinstance(attr, FunctionType):
                self._patch(cls, name, self._wrap(attr, label))
            elif isinstance(attr, staticmethod):
                self._patch(cls, name,
                            staticmethod(self._wrap(attr.__func__, label)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name,
                            classmethod(self._wrap(attr.__func__, label)))

    def _patch(self, owner, name: str, value) -> None:
        if any(o is owner and n == name for o, n, _ in self._patches):
            return
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def _patchable_class(cls: type) -> bool:
    return not issubclass(cls, (Enum, BaseException))


def _load_layer_modules() -> list:
    """Import every module of every layer package (sorted, de-duplicated)."""
    names = set()
    for prefix in LAYER_MODULES:
        package = importlib.import_module(prefix)
        names.add(package.__name__)
        for info in pkgutil.walk_packages(getattr(package, "__path__", []),
                                          prefix + "."):
            names.add(info.name)
    return [importlib.import_module(name) for name in sorted(names)
            if not name.endswith("__main__")]
