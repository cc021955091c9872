"""Per-layer spans taken from outside the program.

Wrappers are set on module attributes for the duration of a traced sweep
and restored afterwards. Each wrapper opens a span around one call; a
layer's self time is its spans' time minus the time of the spans nested
inside them. Time inside outermost spans is the covered time; the rest of
the sweep is the engine's own. Spans are aggregated per layer as they
close rather than stored.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


def _stack_size(args, kwargs, result):
    """Matrices in the stack passed as the first argument (1 for a 2-D array)."""
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    size = 1
    for n in shape[:-2]:
        size *= n
    return size


def _redraws(args, kwargs, result):
    return getattr(result, "redraws", 0)


# (module, attribute, layer, items counter). The engine's imported names
# are wrapped where the engine looks them up; sia's own name is wrapped too
# because build_sia_matrices calls the beamformer builder through it.
TARGETS = (
    ("aircomp_sia.engine", "draw_channels", "system.draw_channels", _redraws),
    ("aircomp_sia.engine", "draw_symbols", "system.draw_symbols", None),
    ("aircomp_sia.engine", "superpose", "system.superpose", None),
    ("aircomp_sia.engine", "build_reference_matrices", "sia.build_reference_matrices", None),
    ("aircomp_sia.engine", "build_aggregation_beamformers", "sia.build_aggregation_beamformers", None),
    ("aircomp_sia.sia", "build_aggregation_beamformers", "sia.build_aggregation_beamformers", None),
    ("aircomp_sia.engine", "build_sia_matrices", "sia.build_sia_matrices", None),
    ("aircomp_sia.engine", "aligned_interference_dimension", "sia.aligned_interference_dimension", None),
    ("aircomp_sia.engine", "build_no_ia_precoders", "baselines.build_no_ia_precoders", None),
    ("numpy.linalg", "svd", "linalg.svd", _stack_size),
    ("numpy.linalg", "pinv", "linalg.pinv", _stack_size),
    ("numpy.linalg", "inv", "linalg.inv", _stack_size),
    ("numpy.linalg", "qr", "linalg.qr", _stack_size),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))


@dataclass
class LayerStats:
    calls: int = 0
    failures: int = 0
    items: int = 0
    self_s: float = 0.0


class Tracer:
    """Accumulates spans from every traced sweep run under `active()`."""

    def __init__(self):
        self.layers = {layer: LayerStats() for layer in LAYERS}
        self.absent = []          # "module.attr" targets that no longer exist
        self.covered_s = 0.0      # time inside outermost spans
        self._open = []           # child time accumulated by each open span

    def _wrap(self, layer, fn, counter):
        stats = self.layers[layer]
        stack = self._open

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                stats.failures += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stats.self_s += elapsed - stack.pop()
                stats.calls += 1
                if counter is not None:
                    stats.items += counter(args, kwargs, result)
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed

        return traced

    @contextmanager
    def active(self):
        """Install every wrapper that has a target; restore all on exit."""
        installed = []
        absent = []
        try:
            for module_name, attr, layer, counter in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(layer, original, counter))
                installed.append((module, attr, original))
            self.absent = absent
            yield self
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)
