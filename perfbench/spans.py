"""In-memory spans and counters around batcap's layer boundaries.

``Tracer.install()`` wraps, from outside the package, every public function
of each layer module in ``src/batcap/`` and every public method of the
layer's public classes. A function is replaced at its defining module and at
every batcap module that imported it by name (``pipeline`` calls its own
binding of ``elm_hidden``, ``modelio`` its own ``embed_new_points``), so no
call path slips past. Methods are wrapped on the class, which covers every
importer at once. ``uninstall()`` puts the originals back; nothing under
``src/`` changes.

Calls are aggregated per span name into a call count, inclusive time and
self time (inclusive time minus the time of child spans). Only calls into
the ``cli`` layer are also kept as individual spans, with their parent, so
hot calls such as Rng draws stay cheap to record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "data", "features", "correlation", "attribution", "fusion", "elm",
          "woa", "pipeline", "baselines", "rng", "modelio", "jsonio")

# A call into one of these layers from the same layer is not a layer
# boundary: it is run untimed and only its counter is updated. Rng draws nest
# three deep (normal -> uniform -> next_u64) and run hundreds of thousands of
# times in synthesis, where full spans would cost more than the draws.
LEAF_LAYERS = ("rng",)

# Recursive helpers called once per JSON value; their time stays with the
# jsonio function that called them.
UNWRAPPED = ("jsonio.format_number", "jsonio.round_floats")


def _count_rows(arg) -> int:
    return int(np.atleast_2d(np.asarray(arg)).shape[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters read at a span: name -> f(args, kwargs, result) -> (counter, amount).
# Private names listed here are wrapped although they are not public.
COUNTERS = {
    "rng.Rng.__init__": lambda a, k, r: ("rng.streams", 1),
    "rng.Rng.next_u64": lambda a, k, r: ("rng.draws", 1),
    "rng.Rng.uniforms": lambda a, k, r: ("rng.draws", int(_arg(a, k, 1, "n"))),
    "elm.elm_predict": lambda a, k, r: ("elm.predict_rows", _count_rows(_arg(a, k, 1, "X"))),
    "fusion.tsne_embed": lambda a, k, r: ("fusion.tsne_iters", len(r.kl_history)),
    "fusion.embed_new_points": lambda a, k, r: (
        "fusion.oos_rows", _count_rows(_arg(a, k, 2, "X_new"))),
    "attribution._coalition_values": lambda a, k, r: ("attribution.coalitions", len(r)),
    "data.parse_samples": lambda a, k, r: ("data.rows_parsed", sum(len(c.times) for c in r)),
    "data.parse_capacity": lambda a, k, r: ("data.rows_parsed", len(r)),
    "jsonio.dump_json": lambda a, k, r: (
        "jsonio.bytes_written", os.path.getsize(_arg(a, k, 1, "path"))),
}


class Tracer:
    """Aggregated spans plus named counters for one traced stretch of work."""

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.layer_inclusive: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, layer, child time, span id]
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, layer: str, fn, counter=None):
        """Return fn wrapped in a span called ``name`` of layer ``layer``."""
        stack, stats, depth = self._stack, self.stats, self._depth
        counters, layer_inclusive = self.counters, self.layer_inclusive
        clock = time.perf_counter
        leaf = layer in LEAF_LAYERS
        keep = layer == "cli"

        def traced(*args, **kwargs):
            if leaf and stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if counter is not None:
                    key, amount = counter(args, kwargs, result)
                    counters[key] += amount
                return result
            frame = [name, layer, 0.0, len(self.spans) if keep else None]
            if keep:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                self.spans.append({"name": name, "parent": parent})
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                st = stats[name]
                st[0] += 1
                st[2] += elapsed - frame[2]
                if not depth[name]:
                    st[1] += elapsed
                if stack:
                    stack[-1][2] += elapsed
                if not stack or stack[-1][1] != layer:
                    layer_inclusive[layer] += elapsed
                if keep:
                    self.spans[frame[3]].update(start_s=start - self._t0, end_s=start - self._t0 + elapsed)
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                counters[key] += amount
            return result

        return functools.update_wrapper(traced, fn)

    def _objective(self, f):
        """Wrap a WOA objective: count evaluations and those that set a new best."""
        counters = self.counters
        best = [math.inf]

        def objective(x):
            cost = f(x)
            counters["woa.fitness_evals"] += 1
            if cost < best[0]:
                counters["woa.improvements"] += 1
                best[0] = cost
            return cost

        layer = getattr(f, "__module__", "objective").rsplit(".", 1)[-1]
        return self.wrap(f"{layer}.{getattr(f, '__name__', 'objective')}", layer, objective)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @staticmethod
    def _wanted(name: str, attr: str) -> bool:
        return name not in UNWRAPPED and (not attr.startswith("_") or name in COUNTERS)

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"batcap.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and self._wanted(name, attr):
                    fn = obj
                    if name == "woa.woa_optimize":
                        fn = functools.wraps(obj)(
                            lambda f, *a, _opt=obj, **k: _opt(self._objective(f), *a, **k))
                    replaced[obj] = self.wrap(name, layer, fn, COUNTERS.get(name))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth_name, meth in list(vars(obj).items()):
                        span = f"{name}.{meth_name}"
                        if inspect.isfunction(meth) and self._wanted(span, meth_name):
                            self._patch(obj, meth_name,
                                        self.wrap(span, layer, meth, COUNTERS.get(span)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(mod, attr, replaced[obj])
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_s(self, *names: str) -> float:
        return sum((self.stats[n][1] for n in names if n in self.stats), 0.0)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((st[2] for name, st in self.stats.items() if name.startswith(prefix)), 0.0)

    def attributed_s(self) -> float:
        """Self time summed over every span, i.e. time spent inside batcap."""
        return sum(st[2] for st in self.stats.values())

    def to_dict(self) -> dict:
        return {
            "stats": {name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                      for name, st in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
        }
