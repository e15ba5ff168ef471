"""Columnar executor ≡ row-at-a-time reference, counter for counter.

The vectorized :class:`PipelineExecutor` exchanges
:class:`~repro.columns.ColumnBatch` values but must reproduce the
retained :class:`~repro.engine.rowref.RowPipelineExecutor` exactly:
identical result rows (values *and* order) and identical
:class:`WorkCounters` — the invariant that keeps every golden trace,
differential suite and chaos audit byte-identical across the columnar
rewrite (``docs/engine.md``).

Hypothesis samples the sqlgen fuzz corpus (the same seed space the
differential harness sweeps); a JOB sample pins the hand-written
workload too.  Both run without a block cache, with one small enough to
evict (16 KiB) and with one that never fills (1 GiB): the index join
replays its block-cache accesses in batches, so the final cache state —
entries in LRU order with their sizes, bytes used, hits and misses —
must match the reference's too.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.engine.pipeline import PipelineConfig, PipelineExecutor, finalize
from repro.engine.rowref import RowPipelineExecutor, finalize_rows
from repro.query.ast import conjuncts
from repro.workloads.job_queries import query as job_query
from repro.workloads.sqlgen import RandomSqlGenerator

from tests.conftest import block_cache_state

#: Same corpus seed the differential fuzz harness pins (seed 7); indexes
#: range over the CI sweep's prefix so failures shrink to a corpus slot.
_CORPUS_SEED = 7
_INDEXES = st.integers(min_value=0, max_value=120)

#: Block-cache sizes every equivalence check runs at: none, evicting,
#: never full.
_CACHE_BYTES = (0, 16 * 1024, 1 << 30)

_PROPERTY = settings(max_examples=30, deadline=None,
                     suppress_health_check=[
                         HealthCheck.function_scoped_fixture])


def _run_columnar(catalog, plan, cache_bytes=0):
    counters = WorkCounters()
    executor = PipelineExecutor(
        catalog, PipelineConfig(block_cache_bytes=cache_bytes), counters)
    batch, _row_bytes = executor.run(
        plan.entries, plan.spec.tables,
        residual_conjuncts=conjuncts(plan.residual))
    assert isinstance(batch, ColumnBatch)
    rows, columns = finalize(batch, plan.select_items, plan.group_by,
                             counters, limit=plan.limit)
    return (rows, columns, counters.as_dict(),
            block_cache_state(executor.block_cache))


def _run_reference(catalog, plan, cache_bytes=0):
    counters = WorkCounters()
    executor = RowPipelineExecutor(
        catalog, PipelineConfig(block_cache_bytes=cache_bytes), counters)
    rows, _row_bytes = executor.run(
        plan.entries, plan.spec.tables,
        residual_conjuncts=conjuncts(plan.residual))
    assert isinstance(rows, list)
    out, columns = finalize_rows(rows, plan.select_items, plan.group_by,
                                 counters, limit=plan.limit)
    return (out, columns, counters.as_dict(),
            block_cache_state(executor.block_cache))


def _assert_equivalent(env, sql, cache_bytes=0):
    plan = env.runner.plan(sql)
    got_rows, got_cols, got_counters, got_cache = _run_columnar(
        env.catalog, plan, cache_bytes)
    ref_rows, ref_cols, ref_counters, ref_cache = _run_reference(
        env.catalog, plan, cache_bytes)
    assert got_cols == ref_cols
    assert got_rows == ref_rows          # values AND order
    assert got_counters == ref_counters  # work accounting, not just rows
    assert got_cache == ref_cache        # LRU order, sizes, hits, misses
    return got_cache


@given(index=_INDEXES)
@_PROPERTY
def test_sqlgen_corpus_equivalence(job_env, index):
    query = RandomSqlGenerator(seed=_CORPUS_SEED).generate_one(index)
    for cache_bytes in _CACHE_BYTES:
        _assert_equivalent(job_env, query.sql, cache_bytes)


_JOB_SAMPLE = ["1a", "2a", "3b", "6a", "8c", "16b"]


@pytest.mark.parametrize("name", _JOB_SAMPLE)
def test_job_sample_equivalence(job_env, name):
    _assert_equivalent(job_env, job_query(name))


@pytest.mark.parametrize("name", _JOB_SAMPLE + ["9d", "13b"])
@pytest.mark.parametrize("cache_bytes", _CACHE_BYTES[1:],
                         ids=["16KiB", "1GiB"])
def test_job_sample_equivalence_with_block_cache(job_env, cache_bytes, name):
    _assert_equivalent(job_env, job_query(name), cache_bytes)


def test_small_block_cache_evicts(job_env):
    # The 16 KiB size must exercise eviction, or the checks above would
    # only ever see the replay's no-eviction path.
    entries, _used, _hits, misses = _assert_equivalent(
        job_env, job_query("8c"), _CACHE_BYTES[1])
    assert misses > len(entries)


def test_result_values_are_plain_python(job_env):
    # rows() must hand back pure-Python scalars so sorted_rows()'s
    # type-name sort keys match the row engine's byte for byte.
    plan = job_env.runner.plan(job_query("1a"))
    rows, _columns, _counters, _cache = _run_columnar(job_env.catalog, plan)
    for row in rows:
        for value in row.values():
            assert value is None or type(value) in (int, str), type(value)
