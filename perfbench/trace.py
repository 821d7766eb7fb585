"""Outside-in layer tracing: self time per layer from wrapped entry points.

The tracer never edits the program.  While installed it replaces a
layer's public entry point with a timing wrapper *at every place the name
is looked up* (a class attribute, or a module global imported by name),
and restores the originals when uninstalled.  Each thread keeps a stack of
open wrapper frames; a frame's self time is its duration minus the
duration of the wrapper frames nested inside it, so the self times of all
layers add up to the time spent inside any wrapper.

The cost models are wrapped with counters only: a timer per ``join_cost``
call would cost more than the call itself.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.baselines.dpccp import DPccp
from repro.baselines.dpconv import DPconv
from repro.context.context import OptimizationContext
from repro.context.plancache import PlanCache
from repro.core.plangen import PlanGeneratorBase
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.heuristics.goo import GreedyOperatorOrdering
from repro.resilience.optimizer import ResilientOptimizer

# The modules themselves (not same-named package attributes): their
# globals are the lookup sites of names they imported.
core_optimizer = importlib.import_module("repro.core.optimizer")
resilience_optimizer = importlib.import_module("repro.resilience.optimizer")
router = importlib.import_module("repro.service.sharded.router")

__all__ = ["COUNTED", "TIMED_LAYERS", "LayerTracer"]

#: (owner, attribute, layer): every place a timed layer's entry point is
#: looked up.  ``fingerprint`` is imported by name into two modules, and
#: validation into two more; each lookup site is patched.  Shard processes
#: fork before the wrappers are installed, so in a cluster only the
#: router's own calls are traced.
_TIMED: Tuple[Tuple[object, str, str], ...] = (
    (ResilientOptimizer, "optimize", "resilience.ladder"),
    (OptimizationContext, "for_query", "context.build"),
    (core_optimizer, "fingerprint", "context.fingerprint"),
    (router, "fingerprint", "context.fingerprint"),
    (PlanCache, "get", "context.cache_get"),
    (core_optimizer, "replay_plan", "context.replay"),
    (GreedyOperatorOrdering, "build", "heuristics.goo"),
    (PlanGeneratorBase, "run", "core.enumerate"),
    (DPconv, "run", "baselines.dpconv"),
    (DPccp, "run", "baselines.dpccp"),
    (resilience_optimizer, "validate_plan", "plans.validate"),
    (resilience_optimizer, "check_finite", "plans.validate"),
    (core_optimizer, "check_finite", "plans.validate"),
)

#: Timed layer names, in report order.
TIMED_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in _TIMED))

_COUNTED_SITES: Tuple[Tuple[object, str, str], ...] = (
    (HaasCostModel, "join_cost", "cost.join_cost_calls"),
    (HaasCostModel, "lower_bound", "cost.lower_bound_calls"),
    (CoutCostModel, "join_cost", "cost.join_cost_calls"),
    (CoutCostModel, "lower_bound", "cost.lower_bound_calls"),
)

#: Counter names, in report order.
COUNTED: Tuple[str, ...] = tuple(
    dict.fromkeys(name for _, _, name in _COUNTED_SITES)
)


class _ThreadLog:
    """One thread's open frames, self-time samples and call counts."""

    __slots__ = ("stack", "samples", "counts", "thread")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.thread = threading.current_thread()


class LayerTracer:
    """Collects per-layer self times while :meth:`installed`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: List[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _timed(self, layer: str, function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            log = self._log()
            frame = [0.0]  # time covered by nested wrapper frames
            log.stack.append(frame)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                log.stack.pop()
                if log.stack:
                    log.stack[-1][0] += elapsed
                log.samples.setdefault(layer, []).append(elapsed - frame[0])

        return wrapper

    def _counted(self, name: str, function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            counts = self._log().counts
            counts[name] = counts.get(name, 0) + 1
            return function(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every site for the duration of the ``with`` block."""
        originals = []
        sites = [(o, a, n, self._timed) for o, a, n in _TIMED]
        sites += [(o, a, n, self._counted) for o, a, n in _COUNTED_SITES]
        try:
            for owner, attribute, name, make in sites:
                original = vars(owner)[attribute]
                if isinstance(original, classmethod):
                    patched = classmethod(make(name, original.__func__))
                else:
                    patched = make(name, original)
                setattr(owner, attribute, patched)
                originals.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def samples(
        self, threads: Optional[Set[threading.Thread]] = None
    ) -> Dict[str, List[float]]:
        """Self-time samples (seconds) per layer, optionally for some threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            if threads is not None and log.thread not in threads:
                continue
            for layer, values in log.samples.items():
                merged.setdefault(layer, []).extend(values)
        return merged

    def counts(self) -> Dict[str, int]:
        """Summed call counts of the counted sites."""
        merged: Dict[str, int] = {}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for name, count in log.counts.items():
                merged[name] = merged.get(name, 0) + count
        return merged
