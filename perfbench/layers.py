"""Per-layer wall-clock spans, recorded from outside the program.

:class:`LayerTracer` wraps the named public entry points of the
``repro`` layers (methods, class methods and module-level functions) for
the duration of a ``with tracer.installed(...)`` block and restores the
originals on exit, so nothing is wrapped outside a traced pass and the
program itself carries no instrumentation.

Every wrapped call is a span.  A span's *self* time is its duration
minus the time of the spans it caused (its children on the span stack),
so the self times of all layers add up to the traced time without double
counting.  A call that returns a generator is timed over its iteration:
each resumption of the generator is a span of the same layer, nested
under whoever resumed it.  Per-block hot paths (``BlockCache.access``,
``SSTable.get``, ``BloomFilter.might_contain``) are deliberately not
wrapped: they run tens of millions of times per sweep, and their work is
already counted exactly by the program's ``WorkCounters``.
"""

import contextlib
import functools
import sys
import time
import types

from repro.core.hardware import HardwareModel
from repro.core.planner import HybridPlanner
from repro.engine.adaptive import AdaptiveRunner
from repro.engine.cooperative import CooperativeExecutor
from repro.engine.host import HostEngine
from repro.engine.ndp import NDPEngine
from repro.engine.pipeline import PipelineExecutor
from repro.engine.stacks import StackRunner
from repro.lsm.compaction import LeveledCompactor
from repro.lsm.snapshot import SnapshotView
from repro.lsm.store import LSMTree
from repro.query import optimizer, parser
from repro.relational.catalog import Catalog
from repro.relational.snapshot_table import SnapshotTable
from repro.relational.table import RelationalTable
from repro.sched.scheduler import WorkloadScheduler
from repro.workloads.generator import DatasetGenerator

#: Spans of environment set-up (``build_environment``): timed while the
#: environment is built, reported as inclusive seconds.
SETUP_SPANS = {
    "workloads.generate": [(DatasetGenerator, "generate")],
    "relational.load": [(RelationalTable, "insert_many")],
    "lsm.bulk_flush": [(Catalog, "flush_all")],
    "core.hw_profile": [(HardwareModel, "profile")],
}

#: Spans of the timed phase, keyed by layer name.  Device-side reads go
#: through the snapshot classes that mirror the live read API; both
#: count under the same layer.
LAYER_SPANS = {
    "query.parse": [(parser, "parse_query")],
    "query.build_plan": [(optimizer, "build_plan")],
    "core.decide": [(HybridPlanner, "decide")],
    "lsm.get": [(LSMTree, "get"), (SnapshotView, "get")],
    "lsm.scan": [(LSMTree, "scan"), (SnapshotView, "scan")],
    "lsm.put": [(LSMTree, "put"), (LSMTree, "delete")],
    "lsm.flush": [(LSMTree, "flush")],
    "lsm.compaction": [(LeveledCompactor, "compact_level")],
    "relational.index_lookup": [
        (RelationalTable, "index_lookup"),
        (RelationalTable, "index_lookup_raw"),
        (SnapshotTable, "index_lookup"),
        (SnapshotTable, "index_lookup_raw")],
    "relational.get_record": [(RelationalTable, "get_record"),
                              (SnapshotTable, "get_record")],
    "relational.scan_batch": [(RelationalTable, "scan_batch"),
                              (SnapshotTable, "scan_batch")],
    "relational.insert": [(RelationalTable, "insert")],
    "relational.update": [(RelationalTable, "update")],
    "relational.delete": [(RelationalTable, "delete")],
    "engine.pipeline": [(PipelineExecutor, "run")],
    "engine.stack_run": [(StackRunner, "run")],
    "engine.run_split": [(CooperativeExecutor, "run_split")],
    "engine.prepare_split": [(CooperativeExecutor, "prepare_split")],
    "engine.run_full_ndp": [(CooperativeExecutor, "run_full_ndp")],
    "engine.host_execute": [(HostEngine, "execute")],
    "engine.ndp_execute": [(NDPEngine, "execute")],
    "engine.adaptive_run": [(AdaptiveRunner, "run")],
    "sched.run": [(WorkloadScheduler, "run")],
}


class SpanStats:
    """Calls, inclusive seconds and self seconds of one layer."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Span stack plus per-layer totals for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        # One entry per open span: the seconds its children took so far.
        self._stack = []

    def reset(self):
        """Forget the totals (spans still open keep their stack slot)."""
        for stats in self.stats.values():
            stats.calls = 0
            stats.total_s = 0.0
            stats.self_s = 0.0

    def snapshot(self):
        """``{layer: (calls, total_s, self_s)}`` of every layer so far."""
        return {name: (stats.calls, stats.total_s, stats.self_s)
                for name, stats in sorted(self.stats.items())}

    def _layer(self, name):
        return self.stats.setdefault(name, SpanStats())

    def _close(self, stats, start, children):
        elapsed = self.clock() - start
        self._stack.pop()
        stats.total_s += elapsed
        stats.self_s += elapsed - children[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def wrap(self, name, function):
        """``function`` timed as a span of layer ``name``."""
        stats = self._layer(name)
        stack = self._stack
        clock = self.clock
        close = self._close
        timed_iteration = self._timed_iteration

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                close(stats, start, children)
            if isinstance(result, types.GeneratorType):
                return timed_iteration(result, stats)
            return result

        return wrapper

    def _timed_iteration(self, generator, stats):
        """Re-yield ``generator``, timing each resumption as a span."""
        stack = self._stack
        clock = self.clock
        close = self._close
        try:
            while True:
                children = [0.0]
                stack.append(children)
                start = clock()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    close(stats, start, children)
                yield item
        finally:
            generator.close()

    @contextlib.contextmanager
    def installed(self, spans):
        """Wrap every entry point of ``spans`` while the block runs."""
        patches = []
        try:
            for name, targets in spans.items():
                for owner, attribute in targets:
                    patches.extend(self._patch(name, owner, attribute))
            yield self
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)

    def _patch(self, name, owner, attribute):
        """Install one wrapper; returns the ``(owner, attr, original)``
        bindings to restore."""
        if isinstance(owner, types.ModuleType):
            # A module-level function is bound by name in every module
            # that imported it: rebind each of those names.
            original = getattr(owner, attribute)
            wrapper = self.wrap(name, original)
            patches = []
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, value))
                        setattr(module, key, wrapper)
            return patches
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        setattr(owner, attribute, wrapped)
        return [(owner, attribute, raw)]

