"""Characterisation of the serial offload paths: full NDP and splits.

The fixture pins, against the session environment (scale 0.0004, seed
7), the report payloads (timelines included) of JOB queries 1a and 8c
at full NDP, H0 and H(n-1) under every fault model, the
:class:`~repro.errors.DeadlineExceededError` audit of an expired
deadline on both offload paths, and the span multiset and fault
instants of one traced full-NDP run.  Record ids, record order and
``events``-track instants are deliberately outside the contract.

The payload is compared as sorted-key text.  Regenerate only when an
intended change moves a report:

    PYTHONPATH=src python -c "
    from repro.workloads.loader import build_environment
    from tests.test_offload_reports import GOLDEN_OFFLOADS, offload_payload
    env = build_environment(scale=0.0004, seed=7)
    GOLDEN_OFFLOADS.write_text(offload_payload(env))"
"""

import json
from pathlib import Path

import pytest

from repro.context import ExecutionContext
from repro.engine.stacks import Stack
from repro.errors import DeadlineExceededError
from repro.faults import (CommandFaultModel, CoreFaultModel, DramFaultModel,
                          FaultPlan, FaultWindow, FlashFaultModel,
                          LinkFaultModel, SlowDeviceModel)
from repro.sim import Tracer
from repro.workloads.job_queries import query

GOLDEN_OFFLOADS = Path(__file__).parent / "golden" / "offload_reports.json"

FAULT_PLANS = {
    "none": None,
    "fail-first-1": FaultPlan(
        seed=3, commands=CommandFaultModel(fail_first=1)),
    "fail-first-8": FaultPlan(
        seed=3, commands=CommandFaultModel(fail_first=8)),
    "core-offline": FaultPlan(seed=3, core=CoreFaultModel(
        windows=(FaultWindow(0.0, 3e-4), FaultWindow(1e-3, 4e-3)))),
    "slow-device": FaultPlan(seed=3, slow=SlowDeviceModel(
        windows=(FaultWindow(0.0, 0.01),), slowdown=3.0)),
    "link-degraded": FaultPlan(seed=3, link=LinkFaultModel(
        windows=(FaultWindow(0.0, 0.005),), slowdown=4.0)),
    "dram-wait": FaultPlan(seed=3, dram=DramFaultModel(
        windows=(FaultWindow(0.0, 0.002),), shrink_bytes=1 << 40)),
    "flash-ecc": FaultPlan(seed=3, flash=FlashFaultModel(probability=0.05)),
}

#: Every phase of the full-NDP protocol in one run: admission wait, a
#: failed submission and its backoff, a core-offline stall, compute,
#: host wait and the result push.
TRACED_PLAN = FaultPlan(
    seed=3, commands=CommandFaultModel(fail_first=1),
    core=CoreFaultModel(windows=(FaultWindow(0.0, 0.004),)),
    dram=DramFaultModel(windows=(FaultWindow(0.0, 0.001),),
                        shrink_bytes=1 << 40))


def _strategies(env, name):
    last = env.runner.plan(query(name)).table_count - 1
    return {"full-ndp": (Stack.NDP, None), "H0": (Stack.HYBRID, 0),
            f"H{last}": (Stack.HYBRID, last)}


def _deadline_audit(env, name, stack, split_index):
    """The expired-deadline error of a run given half its needed time."""
    full = env.run(query(name), stack, split_index=split_index).total_time
    with pytest.raises(DeadlineExceededError) as caught:
        env.run(query(name), stack, split_index=split_index,
                ctx=ExecutionContext(deadline=full / 2))
    error = caught.value
    return {"message": str(error), "elapsed": error.elapsed,
            "wasted_time": error.wasted_time, "retries": error.retries,
            "partial": error.partial}


def _traced_full_ndp(env):
    """Spans and non-``events`` instants of one traced full-NDP run."""
    tracer = Tracer()
    env.run(query("1a"), Stack.NDP,
            ctx=ExecutionContext(tracer=tracer, faults=TRACED_PLAN))
    ids = ("span_id", "parent_span_id", "record_id")
    spans = sorted(json.dumps(
        [span.track, span.name, span.category, span.start, span.end,
         {key: value for key, value in span.args.items()
          if key not in ids}], sort_keys=True) for span in tracer.spans)
    instants = sorted(json.dumps(
        [instant.track, instant.name, instant.time, instant.args],
        sort_keys=True) for instant in tracer.instants
        if instant.track != "events")
    return {"spans": spans, "instants": instants}


def offload_payload(env):
    """Sorted-key JSON text of every pinned serial offload outcome."""
    reports = {}
    for name in ("1a", "8c"):
        for label, (stack, split_index) in _strategies(env, name).items():
            for fault, plan in FAULT_PLANS.items():
                report = env.run(query(name), stack, split_index=split_index,
                                 ctx=ExecutionContext(faults=plan))
                reports[f"{name}/{label}/{fault}"] = report.to_dict(
                    include_timeline=True)
    payload = {
        "reports": reports,
        "deadline": {
            "1a/full-ndp": _deadline_audit(env, "1a", Stack.NDP, None),
            "8c/H6": _deadline_audit(env, "8c", Stack.HYBRID, 6),
        },
        "traced_full_ndp": _traced_full_ndp(env),
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


class TestOffloadCharacterisation:
    def test_offload_reports_match_golden_bytes(self, job_env):
        assert offload_payload(job_env) == GOLDEN_OFFLOADS.read_text()
