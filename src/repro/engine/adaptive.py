"""Adaptive mid-query re-planning for single-query execution.

:class:`AdaptiveRunner` wraps an environment's planner + stack runner
with the feedback loop of docs/adaptivity.md: plan under the EWMA
cardinality correction learned from prior executions of the same SQL,
watch every pipeline breaker while the plan runs, and — when the
observed intermediate-result cardinality is off by more than the policy
threshold — cancel the offload cooperatively and re-plan the remaining
QEP with the observed ratio pinned.  A revision either *shifts* the
split point (restart at the revised Hk) or *sheds* the query to the
host; the cancelled attempt's elapsed time is charged to the final
report's ``total_time`` and recorded in its ``adaptivity`` audit block.

The concurrent analogue — re-planning under load, with saturation
shedding — lives in :class:`repro.sched.WorkloadScheduler`
(``correction=`` / ``replan=``) and judges breakers with the same
:class:`_BreakerMonitor`; this module is the serial runner the regret
bench (:mod:`repro.bench.adaptive`) measures.
"""

from repro.context import ExecutionContext
from repro.core import (CardinalityFeedback, CostCorrection,
                        ExecutionStrategy, PlanningContext, ReplanPolicy)
from repro.engine.stacks import Stack
from repro.errors import ReplanTriggered, RetriesExhaustedError


class _BreakerMonitor:
    """Turns pipeline-breaker observations into re-planning decisions.

    One monitor watches one execution attempt of ``decision``; the
    serial runner and the workload scheduler both use it.
    :class:`AdaptiveRunner` installs the monitor itself as the
    ``breaker_hook``; the scheduler calls :meth:`observe` from its own
    hook, passing the device-saturation reading only it can take.  ``events`` is the run's audit trail,
    shared across attempts: its length is the revisions already spent
    against ``policy.max_replans``.
    """

    def __init__(self, decision, policy, events):
        self.decision = decision
        self.policy = policy
        self.events = events
        self.estimate = None
        self.feedback = None
        self.revised = None

    def observe(self, sim, i, saturated=None):
        """Judge breaker ``i`` of ``sim``; the event of a move, or None.

        Extrapolates the intermediate-result cardinality from the
        batches observed so far (exact once the device fragment
        finished — it executes eagerly and announces the batch count
        with the first push), compares it against the estimate baked
        into the decision, and — past the policy threshold or on device
        saturation — asks the decision to ``revise(feedback)`` itself.
        A revision that still prefers the running plan is audited as
        ``"kept"`` and spends budget.  One that changes the placement is
        left in ``revised`` / ``feedback`` / ``estimate``, and its event
        is returned for the caller to record once it has acted on it.
        ``saturated`` is None for the serial runner, whose events carry
        no ``device_saturated`` key.
        """
        if len(self.events) >= self.policy.max_replans:
            return None
        batches_seen = i + 1
        if batches_seen < self.policy.min_batches:
            return None
        estimate = self.decision.estimate_for()
        if estimate.intermediate_rows is None:
            return None
        observed_so_far = sum(len(batch)
                              for batch in sim.batches[:batches_seen])
        observed_total = int(round(observed_so_far * sim.n_batches
                                   / batches_seen))
        feedback = CardinalityFeedback(
            observed_rows=observed_total,
            estimated_rows=estimate.intermediate_rows,
            batches_observed=batches_seen,
            batches_total=sim.n_batches,
            raw_rows=estimate.raw_rows,
            at=sim.clock.now,
            device_saturated=bool(saturated))
        if feedback.error < self.policy.error_threshold and not saturated:
            return None
        revised = self.decision.revise(feedback)
        event = {
            "at": sim.clock.now,
            "batches_observed": batches_seen,
            "batches_total": sim.n_batches,
            "observed_rows": observed_total,
            "estimated_rows": estimate.intermediate_rows,
            "error": round(feedback.error, 6),
        }
        if saturated is not None:
            event["device_saturated"] = saturated
        event["from"] = self.decision.strategy_name
        event["to"] = revised.strategy_name
        if revised.strategy_name == self.decision.strategy_name:
            # Re-pricing with the observed cardinality still prefers
            # the running plan: audit it, keep going.
            event["action"] = "kept"
            self.events.append(event)
            return None
        event["action"] = ("shed-to-host"
                           if revised.strategy is ExecutionStrategy.HOST_ONLY
                           or revised.split_index is None
                           else "shift-split")
        self.estimate = estimate
        self.feedback = feedback
        self.revised = revised
        return event

    def __call__(self, sim, i):
        """The serial ``breaker_hook``: a placement change cancels the
        simulation with reason ``"replan"``, which makes ``run_split``
        raise :class:`~repro.errors.ReplanTriggered`."""
        event = self.observe(sim, i)
        if event is not None:
            self.events.append(event)
            sim.cancel(sim.clock.now, reason="replan")

    @staticmethod
    def audit(events, wasted_time, correction, key):
        """A report's ``adaptivity`` block (docs/adaptivity.md)."""
        return {
            "enabled": True,
            "replans": len(events),
            "correction_factor": (correction.factor(key)
                                  if correction is not None
                                  and key is not None else 1.0),
            "wasted_time": wasted_time,
            "events": list(events),
        }


class AdaptiveRunner:
    """Run queries with mid-query re-planning and EWMA cost correction.

    Holds the mutable state the feedback loop accumulates across runs:
    one shared :class:`~repro.core.planning.CostCorrection` keyed by SQL
    text (the plan-cache key), so repeated executions of a misestimated
    statement converge toward the oracle placement.  Stateless otherwise
    — every ``run()`` plans fresh under the current correction.
    """

    def __init__(self, env, policy=None, correction=None):
        self.env = env
        self.runner = env.runner
        self.planner = env.planner
        self.policy = policy if policy is not None else ReplanPolicy()
        self.correction = (correction if correction is not None
                           else CostCorrection())

    def run(self, query, ctx=None):
        """Execute SQL text adaptively; returns an ExecutionReport.

        The report's always-present ``adaptivity`` block records the
        audit: how many revisions fired, each breaker observation, the
        wasted (cancelled-attempt) time already folded into
        ``total_time``, and the correction factor the *next* run of the
        same SQL will plan under.
        """
        ctx = ExecutionContext.coerce(ctx)
        key = query if isinstance(query, str) else None
        plan = self.runner.plan(query) if isinstance(query, str) else query
        context = PlanningContext(correction=self.correction, key=key,
                                  replan=self.policy)
        current = self.planner.decide(plan, context=context)
        events = []
        wasted = 0.0
        observed_pair = None     # (raw_rows estimate, observed rows)
        while True:
            if (current.strategy is ExecutionStrategy.HOST_ONLY
                    or current.split_index is None):
                report = self.runner.run(plan, Stack.NATIVE, ctx=ctx)
                break
            monitor = _BreakerMonitor(current, self.policy, events)
            try:
                report = self.runner.cooperative.run_split(
                    plan, current.split_index, ctx,
                    breaker_hook=monitor)
                estimate = current.estimate_for()
                if estimate.raw_rows is not None:
                    observed_pair = (estimate.raw_rows,
                                     report.intermediate_rows)
                break
            except ReplanTriggered as signal:
                wasted += signal.elapsed
                observed_pair = (monitor.estimate.raw_rows,
                                 monitor.feedback.observed_rows)
                current = monitor.revised
            except RetriesExhaustedError as failure:
                report = self.runner._host_fallback(plan, failure,
                                                    ctx.tracer)
                break
        if (key is not None and observed_pair is not None
                and observed_pair[0] is not None):
            self.correction.observe(key, *observed_pair)
        # The cancelled attempts ran before the final plan started.
        report.total_time += wasted
        report.adaptivity = _BreakerMonitor.audit(events, wasted,
                                                  self.correction, key)
        return report
