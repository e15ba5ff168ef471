"""The benchmark's three workloads, one pass at a time.

A *pass* builds a fresh environment (timed: that is set-up), runs one
untimed warm-up op that touches no workload query, runs the timed phase
op by op, and then checks the outputs.  Every pass of a run replays the
same inputs, so its deterministic counts and its output digest must be
identical to every other pass of the same seed.

Workloads (see ``NOTES.md`` for why each was chosen):

* ``job-inl`` -- a serial strategy sweep (BLK, every HYBRID k, NDP) of
  index-nested-loop-heavy JOB queries through ``StackRunner.run``.
* ``sqlgen-sched`` -- a seeded ``sqlgen`` corpus of unique queries,
  driven through ``WorkloadScheduler`` as a closed loop of 4 simulated
  clients on a cold plan cache.
* ``htap-mix`` -- rounds of seeded fact-table writes followed by short
  JOB queries through ``AdaptiveRunner.run``.
"""

import gc
import hashlib
import itertools
import json
import os
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.engine import AdaptiveRunner, Stack
from repro.errors import ReproError
from repro.query import build_plan
from repro.sched import ClosedLoopArrivals, WorkloadScheduler
from repro.workloads import (DatasetSpec, RandomSqlGenerator,
                             SqlGenConfig, build_environment, query)
from repro.workloads.generator import DatasetGenerator

from perfbench.layers import LAYER_SPANS, SETUP_SPANS
from perfbench.speed import Pacer, Probe

#: The dataset every workload runs on: the synthetic IMDB at the scale
#: and seed every CI job uses (14,991 rows).
DATASET = {"scale": 0.0002, "seed": 7}

#: WorkCounters fields reported as ``work.*`` per-layer counts.
WORK_FIELDS = ("index_seeks", "key_comparisons", "data_block_reads",
               "index_block_reads", "block_cache_hits", "hash_probes",
               "records_evaluated", "bytes_materialized")


def build_env(probe):
    """``(environment, seconds, raw seconds)`` of one uncached
    ``build_environment``; ``seconds`` is speed-normalised by ``probe``
    (see :mod:`perfbench.speed`)."""
    # Set-up always includes dataset generation.
    os.environ.pop("REPRO_WORKLOAD_CACHE", None)
    pacer = Pacer(probe)
    pacer.probe(3)
    start = pacer.now()
    env = build_environment(**DATASET)
    seconds = pacer.now() - start
    pacer.probe(3)
    return env, seconds * pacer.factor(), seconds


class Digest:
    """sha256 over a stream of JSON-serialisable payloads."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, payload):
        self._hash.update(json.dumps(payload, sort_keys=True,
                                     default=repr).encode("utf-8"))
        self._hash.update(b"\n")

    def hexdigest(self):
        return self._hash.hexdigest()


@dataclass
class PassResult:
    """What one pass measured and checked.

    Timings are speed-normalised seconds (:mod:`perfbench.speed`); the
    ``raw_*`` fields keep the plain wall-clock ones.
    """

    setup_s: float = 0.0
    raw_setup_s: float = 0.0
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    ops: int = 0
    op_s: list = field(default_factory=list)
    write_s: list = field(default_factory=list)
    #: Work-clock ``(start, end)`` of every op and every write.
    op_spans: list = field(default_factory=list)
    write_spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    digest: str = ""
    failures: list = field(default_factory=list)
    #: htap-mix only: per-round (index seeks, query seconds).
    rounds: list = field(default_factory=list)
    #: Untimed seconds of one-off input preparation and output checks.
    untimed_s: float = 0.0
    #: Traced passes: ``LayerTracer.snapshot()`` of set-up and of the
    #: timed phase.
    setup_layers: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def attempted(self):
        return self.ops + len(self.write_s)


def add_report(counts, report):
    """Fold one ExecutionReport's deterministic work into ``counts``."""
    for side in (report.host_counters, report.device_counters):
        for name in WORK_FIELDS:
            counts[f"work.{name}"] += getattr(side, name)
    counts["engine.batches"] += report.batches
    counts["engine.intermediate_rows"] += report.intermediate_rows
    counts["engine.replans"] += report.adaptivity.get("replans", 0)


def lsm_write_state(env):
    """Cumulative write-path counters over every LSM tree of ``env``."""
    state = Counter()
    for family in env.database.families():
        tree = family.tree
        state["lsm.flushes"] += tree.write_stats.flushes
        state["lsm.bytes_flushed"] += tree.write_stats.bytes_flushed
        state["lsm.compactions"] += tree.compactor.stats.compactions
        state["lsm.compaction_bytes_written"] += (
            tree.compactor.stats.bytes_written)
    return state


class Workload:
    """One pass = fresh environment, warm-up, timed phase, checks."""

    name = None

    def __init__(self, seed):
        self.seed = seed
        self.probe = Probe()

    def run_pass(self, tracer=None, check=True):
        """Build, warm up, time and check one pass.

        With a :class:`~layers.LayerTracer` the set-up and the timed
        phase run with the layer spans installed; ``check`` runs the
        (untimed) host-only reference comparison.
        """
        result = PassResult()
        gc.collect()
        if tracer is None:
            env, result.setup_s, result.raw_setup_s = build_env(self.probe)
        else:
            with tracer.installed(SETUP_SPANS):
                tracer.reset()
                env, result.setup_s, result.raw_setup_s = build_env(self.probe)
            result.setup_layers = tracer.snapshot()
        start = time.perf_counter()
        self.prepare(env)
        result.untimed_s = time.perf_counter() - start
        self.warm_up(env)
        before_cache = env.runner.plan_cache_stats()
        before_lsm = lsm_write_state(env)
        gc.collect()
        pacer = Pacer(self.probe)
        pacer.probe(3)
        start = pacer.now()
        if tracer is None:
            outcomes = self.timed(env, result, pacer, traced=False)
            result.raw_wall_s = pacer.now() - start
        else:
            with tracer.installed(LAYER_SPANS):
                tracer.reset()
                outcomes = self.timed(env, result, pacer, traced=True)
                result.raw_wall_s = pacer.now() - start
            result.layers = tracer.snapshot()
        pacer.probe(3)
        result.ops = len(result.op_spans)
        self.record(env, result, outcomes)
        result.wall_s = result.raw_wall_s * pacer.factor()
        result.op_s = [(end - begin) * pacer.factor(begin, end)
                       for begin, end in result.op_spans]
        result.write_s = [(end - begin) * pacer.factor(begin, end)
                          for begin, end in result.write_spans]
        after_cache = env.runner.plan_cache_stats()
        for key in ("hits", "misses", "invalidations"):
            result.counts[f"engine.plan_cache.{key}"] = (
                after_cache[key] - before_cache[key])
        result.counts.update(lsm_write_state(env) - before_lsm)
        if check:
            start = time.perf_counter()
            self.check(env, result)
            result.untimed_s += time.perf_counter() - start
        return result

    def prepare(self, env):
        """Untimed preparation of the inputs, on the first pass's fresh
        environment (every pass replays them)."""

    def warm_up(self, env):
        """One untimed op that touches no workload query."""
        raise NotImplementedError

    def timed(self, env, result, pacer, traced):
        """Run the timed ops on ``pacer``'s work clock, recording each
        op's ``(start, end)`` in ``result.op_spans`` (writes in
        ``result.write_spans``) and ticking the pacer between ops.

        Returns the ops' outcomes for :meth:`record`, so that digesting
        them stays out of the timed phase.
        """
        raise NotImplementedError

    def record(self, env, result, outcomes):
        """Untimed: fold ``outcomes`` into ``result``'s counts, digest
        and row checks."""
        raise NotImplementedError

    def check(self, env, result):
        """Untimed output checks against a host-only reference."""


# ----------------------------------------------------------------------
# job-inl
# ----------------------------------------------------------------------

class JobInl(Workload):
    """Serial strategy sweep of index-nested-loop-heavy JOB queries.

    One op is one strategy execution through ``StackRunner.run``.
    Queries 25a-c and 31a-b are left out: one execution of those takes
    9-145 s.
    """

    name = "job-inl"
    #: Two heavy BNLJI queries (22 ops) give the op-time tail, so p90
    #: falls inside it; four mid-sized ones (38 ops) hold p50.
    QUERIES = ("13b", "13c", "8c", "10c", "16b", "9d")

    def __init__(self, seed):
        super().__init__(seed)
        self._strategies = None

    def prepare(self, env):
        if self._strategies is None:
            self._strategies = []
            for name in self.QUERIES:
                sql = query(name)
                tables = build_plan(sql, env.catalog).table_count
                ops = [(Stack.BLK, None)]
                ops += [(Stack.HYBRID, k) for k in range(tables)]
                ops.append((Stack.NDP, None))
                self._strategies.append((name, sql, ops))

    def warm_up(self, env):
        env.runner.run(query("1a"), Stack.HYBRID, split_index=1)

    def timed(self, env, result, pacer, traced):
        clock = pacer.now
        outcomes = []
        for name, sql, ops in self._strategies:
            for stack, k in ops:
                label = f"{name}/{stack.value}{'' if k is None else k}"
                pacer.tick()
                t0 = clock()
                try:
                    outcome = env.runner.run(sql, stack, split_index=k)
                except ReproError as error:
                    outcome = error        # infeasible: a plan outcome
                except Exception as error:  # noqa: BLE001 - counted
                    outcome = None
                    result.failures.append(f"{label}: {error!r}")
                result.op_spans.append((t0, clock()))
                outcomes.append((label, stack, outcome))
        return outcomes

    def record(self, env, result, outcomes):
        digest = Digest()
        reference = None
        for label, stack, outcome in outcomes:
            if isinstance(outcome, ReproError):
                result.counts["engine.infeasible"] += 1
                digest.add([label, "infeasible", type(outcome).__name__,
                            str(outcome)])
            elif outcome is not None:
                add_report(result.counts, outcome)
                digest.add([label, outcome.to_dict(include_rows=True)])
                rows = outcome.result.sorted_rows()
                if stack is Stack.BLK:     # first op of every query
                    reference = rows
                elif rows != reference:
                    result.failures.append(
                        f"{label}: rows differ from host-only")
        result.digest = digest.hexdigest()


# ----------------------------------------------------------------------
# sqlgen-sched
# ----------------------------------------------------------------------

class SqlgenSched(Workload):
    """A unique sqlgen corpus as a closed loop of 4 simulated clients.

    One op is one scheduled query.  Its wall time is the wall-clock time
    between its completion and the previous completion, so the op times
    of a pass add up to the pass's timed phase.

    The corpus keeps the seed's unique queries that join at most one
    fact table of a million or more paper rows and whose host-only run
    evaluates at most :attr:`MAX_WORK` records plus index seeks.
    Without the bounds a handful of heavy queries do a third of a
    corpus's work, and its cost swings with the seed by more than any
    usable gate; the heavy join work they add is job-inl's subject.
    """

    name = "sqlgen-sched"
    QUERIES = 1000
    CLIENTS = 4
    CONFIG = SqlGenConfig(max_big_tables=1)
    MAX_WORK = 5_000

    def __init__(self, seed):
        super().__init__(seed)
        self.corpus = None
        self._reference = {}

    def prepare(self, env):
        """Pick the corpus, keeping each query's host-only rows.

        Plans are built outside the plan cache, which stays cold.
        """
        if self.corpus is not None:
            return
        generator = RandomSqlGenerator(seed=self.seed, config=self.CONFIG)
        self.corpus = {}
        seen = set()
        index = 0
        while len(self.corpus) < self.QUERIES:
            generated = generator.generate_one(index)
            index += 1
            if generated.sql in seen:
                continue
            seen.add(generated.sql)
            report = env.runner.run(build_plan(generated.sql, env.catalog),
                                    Stack.BLK)
            work = (report.host_counters.records_evaluated
                    + report.host_counters.index_seeks)
            if work <= self.MAX_WORK:
                self.corpus[generated.name] = generated.sql
                self._reference[generated.name] = (
                    report.result.sorted_rows())

    def warm_up(self, env):
        scheduler = WorkloadScheduler(env)
        scheduler.submit_closed_loop(["1a"], ClosedLoopArrivals(clients=1))
        scheduler.run()

    def timed(self, env, result, pacer, traced):
        scheduler = WorkloadScheduler(env, queries=self.corpus)
        scheduler.submit_closed_loop(
            list(self.corpus),
            ClosedLoopArrivals(clients=self.CLIENTS, stagger=1e-3,
                               seed=self.seed))
        clock = pacer.now
        if traced:
            workload = scheduler.run()
        else:
            # Step the event loop to see each completion; run() then
            # only assembles the result of the drained loop.  Jobs that
            # complete in one step share that step's interval.
            loop = scheduler.kernel.loop
            jobs = scheduler.jobs
            open_jobs = []
            seen = 0
            last = clock()
            while loop.step() is not None:
                if len(jobs) > seen:
                    open_jobs.extend(jobs[seen:])
                    seen = len(jobs)
                done = [job for job in open_jobs
                        if job.completed_at is not None
                        or job.shed_at is not None]
                if done:
                    now = clock()
                    share = (now - last) / len(done)
                    for i, job in enumerate(done):
                        open_jobs.remove(job)
                        result.op_spans.append((last + i * share,
                                                last + (i + 1) * share))
                    last = now
                    pacer.tick()
            workload = scheduler.run()
        return scheduler, workload

    def record(self, env, result, outcomes):
        scheduler, workload = outcomes
        result.ops = len(workload.jobs)
        result.counts["sim.events"] = scheduler.kernel.loop.fired
        waits = [job.queue_wait for job in workload.jobs
                 if job.queue_wait is not None]
        result.counts["sched.queue_wait_sim.p50"] = statistics.median(waits)
        digest = Digest()
        digest.add(workload.to_dict())
        self._rows = {}
        for job in workload.jobs:
            if job.completed_at is None or job.shed_at is not None \
                    or job.report is None:
                result.failures.append(
                    f"{job.label}: unfinished or shed ({job.error!r})")
                continue
            add_report(result.counts, job.report)
            digest.add([job.label, job.report.to_dict(include_rows=True)])
            self._rows[job.name] = job.report.result.sorted_rows()
        result.digest = digest.hexdigest()

    def check(self, env, result):
        for name, rows in self._rows.items():
            if rows != self._reference[name]:
                result.failures.append(
                    f"{name}: scheduled rows differ from host-only")


# ----------------------------------------------------------------------
# htap-mix
# ----------------------------------------------------------------------

class HtapMix(Workload):
    """Rounds of seeded fact-table writes, then short adaptive queries.

    Inserts are rows the dataset generator shapes (a second generator
    seeded from the workload seed) under fresh primary keys; deletes
    remove uniformly drawn live rows, as many as were inserted, so the
    tables keep their size; updates set one column of a live row to a
    value drawn from that column's existing values.  The data therefore
    keeps its distribution, and per-round work does not trend.  One op
    is one query through ``AdaptiveRunner.run``; writes are timed on
    their own.
    """

    name = "htap-mix"
    ROUNDS = 16
    #: Per round and table: (inserts, updates, deletes).  Sized so a
    #: pass flushes every written table's memtable several times and
    #: compacts the larger ones.
    WRITES = {"cast_info": (36, 72, 36), "movie_info": (24, 48, 24),
              "movie_companies": (18, 36, 18),
              "movie_keyword": (18, 36, 18),
              "movie_info_idx": (12, 24, 12)}
    QUERIES = ("1a", "2a", "3b", "4a", "5c", "6a", "10a")

    def __init__(self, seed):
        super().__init__(seed)
        self._stream = None

    def prepare(self, env):
        if self._stream is None:
            self._stream = self._make_stream(env)

    def _make_stream(self, env):
        """``[[write, ...] per round]``, a pure function of the seed.

        A write is ``(op, table, primary key, row or changes)``.
        """
        rng = random.Random(f"htap-mix:{self.seed}")
        fresh = DatasetGenerator(DatasetSpec(
            scale=DATASET["scale"], seed=DATASET["seed"] + 1000 + self.seed))
        live, values, rows, next_id = {}, {}, {}, {}
        for name in self.WRITES:
            table = env.catalog.table(name)
            pk = table.schema.primary_key
            existing = list(table.scan())
            live[name] = sorted(row[pk] for row in existing)
            values[name] = {
                column: [row[column] for row in existing]
                for column in table.schema.column_names if column != pk}
            next_id[name] = max(live[name]) + 1
            rows[name] = itertools.cycle(fresh.generate(name))
        stream = []
        for _round in range(self.ROUNDS):
            writes = []
            for name, (inserts, updates, deletes) in self.WRITES.items():
                pk = env.catalog.table(name).schema.primary_key
                kinds = (["insert"] * inserts + ["update"] * updates
                         + ["delete"] * deletes)
                rng.shuffle(kinds)
                for kind in kinds:
                    if kind == "insert":
                        row = dict(next(rows[name]))
                        row[pk] = next_id[name]
                        next_id[name] += 1
                        live[name].append(row[pk])
                        writes.append(("insert", name, row[pk], row))
                    elif kind == "delete":
                        ids = live[name]
                        index = rng.randrange(len(ids))
                        ids[index], ids[-1] = ids[-1], ids[index]
                        writes.append(("delete", name, ids.pop(), None))
                    else:
                        column = rng.choice(sorted(values[name]))
                        value = rng.choice(values[name][column])
                        writes.append(("update", name,
                                       rng.choice(live[name]),
                                       {column: value}))
            rng.shuffle(writes)
            stream.append(writes)
        self._live = {name: len(ids) for name, ids in live.items()}
        return stream

    def warm_up(self, env):
        AdaptiveRunner(env).run(query("8c"))

    def timed(self, env, result, pacer, traced):
        runner = AdaptiveRunner(env)
        tables = {name: env.catalog.table(name) for name in self.WRITES}
        sql = {name: query(name) for name in self.QUERIES}
        clock = pacer.now
        outcomes = []
        for round_index, writes in enumerate(self._stream):
            for op, name, pk, payload in writes:
                table = tables[name]
                pacer.tick()
                t0 = clock()
                try:
                    if op == "insert":
                        table.insert(payload)
                    elif op == "update":
                        table.update(pk, payload)
                    else:
                        table.delete(pk)
                except Exception as error:  # noqa: BLE001 - counted
                    result.failures.append(
                        f"round {round_index} {op} {name}#{pk}: {error!r}")
                result.write_spans.append((t0, clock()))
            for name in self.QUERIES:
                pacer.tick()
                t0 = clock()
                try:
                    report = runner.run(sql[name])
                except Exception as error:  # noqa: BLE001 - counted
                    report = None
                    result.failures.append(
                        f"round {round_index} {name}: {error!r}")
                result.op_spans.append((t0, clock()))
                outcomes.append((round_index, name, report))
        return outcomes

    def record(self, env, result, outcomes):
        digest = Digest()
        self._rows = []
        seeks = [0] * len(self._stream)
        seconds = [0.0] * len(self._stream)
        for (round_index, name, report), (begin, end) in zip(
                outcomes, result.op_spans):
            seconds[round_index] += end - begin
            if report is None:
                continue
            add_report(result.counts, report)
            seeks[round_index] += (report.host_counters.index_seeks
                                   + report.device_counters.index_seeks)
            digest.add([f"round {round_index} {name}",
                        report.to_dict(include_rows=True)])
            self._rows.append((round_index, name,
                               report.result.sorted_rows()))
        result.rounds = list(zip(seeks, seconds))
        tables = {name: env.catalog.table(name) for name in self.WRITES}
        digest.add({name: table.row_count for name, table in tables.items()})
        digest.add(self._live)
        for name in sorted(env.database.family_names()):
            tree = env.database.column_family(name).tree
            stats = tree.write_stats
            digest.add([name, stats.puts, stats.deletes, stats.flushes,
                        stats.bytes_flushed,
                        tree.compactor.stats.compactions,
                        tree.compactor.stats.bytes_written])
        result.digest = digest.hexdigest()

    def check(self, env, result):
        """Replay the writes on a fresh environment, checking every
        query's rows against a host-only run on the same state."""
        reference_env, _seconds, _raw = build_env(self.probe)
        tables = {name: reference_env.catalog.table(name)
                  for name in self.WRITES}
        rows = iter(self._rows)
        for round_index, writes in enumerate(self._stream):
            for op, name, pk, payload in writes:
                if op == "insert":
                    tables[name].insert(payload)
                elif op == "update":
                    tables[name].update(pk, payload)
                else:
                    tables[name].delete(pk)
            for name in self.QUERIES:
                plan = build_plan(query(name), reference_env.catalog)
                expected = reference_env.runner.run(plan, Stack.BLK)
                got_round, got_name, got = next(rows, (None, None, None))
                if (got_round, got_name) != (round_index, name) \
                        or expected.result.sorted_rows() != got:
                    result.failures.append(
                        f"round {round_index} {name}: rows differ from "
                        f"host-only")
                    return


WORKLOADS = {workload.name: workload
             for workload in (JobInl, SqlgenSched, HtapMix)}
