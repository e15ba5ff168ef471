"""Cooperative (overlapping) host/device execution (paper §4, Fig 7).

For a split point Hk the device runs the pipeline prefix (tables 0..k and
their k joins) and streams intermediate-result batches through a bounded
set of shared buffer slots; the host fetches each batch over PCIe and
joins it with the remaining tables while the device autonomously produces
the next batch.  The device stalls when all slots are full; the host
waits when no batch is ready — both are accounted, reproducing the
Fig 17 timeline and the Table 4 stage breakdown.

The timeline is built on the :mod:`repro.sim` kernel: the PCIe link, the
device's NDP core and the host CPU are :class:`~repro.sim.BusyResource`\\ s
driven by an :class:`~repro.sim.EventLoop`.  Everything that crosses the
link — the NDP command payload, the device's per-batch result pushes and
the host's fetch/completion commands — acquires the link resource, so
transfers serialize with queuing delays that feed the ``host_wait_*`` /
``device_stall_time`` accounting instead of silently overlapping.

A single-query run owns a private kernel (its own clock, loop and
resources, all starting at time zero).  The concurrent workload
scheduler (:mod:`repro.sched`) instead *stages* splits with
:meth:`CooperativeExecutor.prepare_split` and starts many of them on one
shared :class:`~repro.sim.SimContext`, so queries contend for the same
link/core/CPU and the same device DRAM budget.
"""

import math

from repro.context import ExecutionContext
from repro.engine.counters import WorkCounters
from repro.engine.results import ExecutionReport, QueryResult, TimelinePhase
from repro.engine.timing import ExecutionLocation
from repro.errors import (DeadlineExceededError, PlanError, ReplanTriggered,
                          ReproError, RetriesExhaustedError,
                          TransientDeviceError)
from repro.faults import FAULTS_TRACK, NULL_INJECTOR
from repro.query.ast import conjuncts
from repro.sim import (DEVICE_RESOURCE, HOST_RESOURCE, LINK_RESOURCE,
                       BusyResource, EventLoop, SimClock, as_tracer)

#: Track that carries one root span per traced execution.
EXEC_TRACK = "exec"


def _counter_deltas(counters):
    """Non-zero entries of a :class:`WorkCounters` delta, for trace args."""
    return {name: value for name, value in counters.as_dict().items()
            if value}


class _SplitSimulation:
    """Discrete-event producer/consumer simulation of one hybrid split.

    The device process produces intermediate batches on ``core`` and DMAs
    each finished batch over ``link`` into a shared buffer slot; the host
    process posts a small fetch/completion command on ``link`` per batch,
    joins the batch on ``cpu``, which frees the slot.  The device blocks
    when all ``slots`` slots hold unconsumed batches; the host blocks when
    the next batch has not arrived yet.  Real host-side join work happens
    inside the consume events, in batch order, so results are identical to
    the sequential implementation.

    With ``kernel`` (a :class:`~repro.sim.SimContext`) the simulation
    runs on *shared* clock/loop/resources: :meth:`start` schedules the
    begin event at an absolute workload time and completion is signalled
    through ``on_complete`` instead of draining a private loop.  Without
    it the simulation owns a private kernel and :meth:`run` drains it —
    the original single-query behaviour, byte for byte.
    """

    def __init__(self, executor, timing, plan, batches, per_batch_device,
                 row_bytes, slots, setup_time, session, host_counters,
                 tracer=None, strategy_label="split", injector=None,
                 start_offset=0.0, kernel=None, trace_label=None,
                 finalize=True):
        self.executor = executor
        self.timing = timing
        self.plan = plan
        self.batches = batches
        self.n_batches = len(batches)
        self.per_batch_device = per_batch_device
        self.row_bytes = row_bytes
        self.slots = max(1, slots)
        self.setup_time = setup_time
        self.session = session
        self.host_counters = host_counters
        self.tracer = as_tracer(tracer)
        self.strategy_label = strategy_label
        self.trace_label = trace_label or strategy_label
        self.root_span = None
        self.injector = injector or NULL_INJECTOR
        self.start_offset = start_offset   # admission-control wait
        #: Scatter-gather partitions defer the epilogue: the cluster
        #: merges all partitions' joined rows and finalizes *once*.
        self.finalize = finalize

        self.kernel = kernel
        self.shared = kernel is not None
        self.origin = 0.0                  # workload time this run begins
        self.on_complete = None            # shared mode: completion hook
        self.on_abandon = None             # shared mode: retries-exhausted
        if kernel is None:
            self.exec_track = EXEC_TRACK
            self.clock = SimClock()
            self.loop = EventLoop(self.clock, tracer=self.tracer)
            self.link = BusyResource(LINK_RESOURCE, tracer=self.tracer)
            self.core = BusyResource(DEVICE_RESOURCE, tracer=self.tracer)
            self.cpu = BusyResource(HOST_RESOURCE, tracer=self.tracer)
        else:
            # Per-query root spans get their own track so concurrent
            # executions don't interleave X events on one track.
            self.exec_track = f"{EXEC_TRACK}/{self.trace_label}"
            self.clock = kernel.clock
            self.loop = kernel.loop
            self.link = kernel.link
            self.core = kernel.core
            self.cpu = kernel.cpu

        self.timeline = []
        self.joined_rows = []
        self.result = None
        self.ready = [None] * self.n_batches      # batch i in its slot
        self.consumed = [None] * self.n_batches   # slot of batch i freed
        self.device_blocked = None                # (batch index, since)
        self.host_blocked = None                  # (batch index, since)

        self.host_wait_initial = 0.0
        self.host_wait_other = 0.0
        self.device_stall = 0.0
        self.transfer_total = 0.0
        self.host_processing = 0.0
        self.host_end = 0.0
        self.retries = 0          # failed NDP command submissions
        self.wasted_time = 0.0    # failed-attempt link time + backoffs
        self.slow_time = 0.0      # extra compute from SlowDeviceModel
        self.completed = False    # host epilogue ran
        self.cancelled = False    # cooperatively cancelled (see cancel())
        self.cancelled_at = None
        self.cancel_reason = None
        #: Optional pipeline-breaker callback ``hook(sim, batch_index)``,
        #: invoked as each device batch lands host-side — the point where
        #: observed cardinality can be checked against the planner's
        #: estimate (docs/adaptivity.md).  The hook may cooperatively
        #: ``cancel()`` the run to trigger mid-query re-planning.  None
        #: (the default) is zero-cost: no call, no trace delta, byte-
        #: identical to builds without the hook.
        self.breaker_hook = None

    # -- helpers -------------------------------------------------------
    def _phase(self, actor, kind, start, end, label, resource="",
               operator="", extra=None):
        self.timeline.append(
            TimelinePhase(actor, kind, start, end, label, resource=resource))
        if self.tracer.enabled:
            args = {"placement": "DEVICE" if actor == "device" else "HOST"}
            if resource:
                args["resource"] = resource
            if operator:
                args["operator"] = operator
            if extra:
                args.update(extra)
            self.tracer.span(f"{actor}/{kind}", label or kind, start, end,
                             category=kind, parent=self.root_span, args=args)

    def _host_wait(self, index, start, end, label):
        if end <= start:
            return
        if index == 0:
            self.host_wait_initial += end - start
        else:
            self.host_wait_other += end - start
        self._phase("host", "wait", start, end, label, operator="wait",
                    extra={"batch": index} if self.tracer.enabled else None)

    def _host_charge(self, work):
        """Price host-side work with this run's injector attached.

        Serial runs execute inside ``run_split``'s injector-attachment
        window, so attaching again would be redundant; shared-kernel runs
        interleave many queries with distinct injectors on one flash
        model, so each pricing call attaches its own for its duration.
        """
        if self.shared and self.injector.enabled:
            with self.injector.attached(self.executor.ndp.device):
                return work()
        return work()

    # -- simulation ----------------------------------------------------
    def run(self):
        """Run the simulation on the private kernel; returns total time."""
        if self.shared:
            raise ReproError(
                "run() drives a private kernel; shared-kernel simulations "
                "are started with start() and drained by their scheduler")
        if self.tracer.enabled:
            self.root_span = self.tracer.begin(
                self.exec_track, self.strategy_label, 0.0,
                category="execution",
                args={"strategy": self.strategy_label,
                      "batches": self.n_batches, "slots": self.slots})
        self.loop.schedule_at(0.0, self._begin, label="begin")
        self.loop.run()
        total = max(self.link.free_at, self.core.free_at, self.cpu.free_at)
        if self.root_span is not None:
            self.tracer.end(self.root_span, total)
        return total

    def start(self, at, on_complete=None, on_abandon=None):
        """Begin this run at workload time ``at`` on the shared kernel.

        ``on_complete(sim)`` fires (as an event) when the host epilogue
        finishes; ``on_abandon(sim, error)`` replaces the
        :class:`~repro.errors.RetriesExhaustedError` raise when command
        submission exhausts its retries, so one query's degradation
        doesn't unwind the whole workload's event loop.
        """
        if not self.shared:
            raise ReproError("start() requires a shared kernel; "
                             "single runs use run()")
        self.origin = at
        self.on_complete = on_complete
        self.on_abandon = on_abandon
        if self.tracer.enabled:
            self.root_span = self.tracer.begin(
                self.exec_track, self.trace_label, at, category="execution",
                args={"strategy": self.strategy_label,
                      "batches": self.n_batches, "slots": self.slots})
        self.loop.schedule_at(at, self._begin,
                              label=f"begin {self.trace_label}")

    def cancel(self, now, reason="cancelled"):
        """Cooperatively cancel this run at simulated time ``now``.

        Already-scheduled events become no-ops (every event entry point
        checks the flag), so no *new* resource time is booked after the
        cancellation; busy intervals already *served* stand — they are
        the honest wasted cost, which the caller audits as
        ``now - origin`` — but a booking still in flight at ``now`` is
        truncated (:meth:`~repro.sim.resources.BusyResource.truncate`),
        so a cancelled straggler does not hold its core into the far
        future.  Device DRAM buffers are *not* released here:
        the owning :class:`PreparedSplit` (or ``run_split``'s finally)
        calls ``release()``, keeping reservation accounting in exactly
        one place.  Returns False if the run already completed or was
        already cancelled.
        """
        if self.cancelled or self.completed:
            return False
        self.cancelled = True
        self.cancelled_at = now
        self.cancel_reason = reason
        for resource in (self.core, self.link, self.cpu):
            resource.truncate(now)
        if self.tracer.enabled:
            self.tracer.instant(
                FAULTS_TRACK, f"cancelled: {reason}", now,
                args={"strategy": self.strategy_label,
                      "label": self.trace_label})
        if self.root_span is not None:
            self.tracer.end(self.root_span, now)
            self.root_span = None
        return True

    def _begin(self):
        if self.cancelled:
            return
        offset = self.origin + self.start_offset
        if self.start_offset > 0.0:
            # Admission control waited for a DRAM-pressure window to
            # pass instead of raising DeviceOverloadError outright.
            self.host_wait_initial += self.start_offset
            self._phase("host", "wait", self.origin, offset,
                        "buffer admission wait", operator="admission-wait")
        self._submit(0, offset)

    def _submit(self, attempt, at):
        if self.cancelled:
            return
        # The host assembles the NDP command and pushes its payload over
        # the link; the device cannot start before the command arrived.
        # Submission may fail transiently (fault injection): each failed
        # attempt still crossed the link, then backs off exponentially in
        # simulated time before retrying, bounded by the retry policy.
        setup = self.setup_time
        if self.injector.enabled:
            setup = self.injector.scale_transfer(at, setup)
        begin, end = self.link.acquire(at, setup,
                                       label="NDP command payload")
        if self.injector.enabled:
            try:
                self.injector.check_submission(attempt)
            except TransientDeviceError:
                self._submission_failed(attempt, begin, end)
                return
        self._phase("host", "setup", begin, end, "NDP command",
                    resource=LINK_RESOURCE, operator="ndp-command")
        self.loop.schedule_at(end, lambda: self._device_next(0),
                              label="device start")
        self.loop.schedule_at(end, lambda: self._host_want(0),
                              label="host start")

    def _submission_failed(self, attempt, begin, end):
        self.retries += 1
        self.wasted_time += end - begin
        self._phase("host", "setup", begin, end,
                    f"NDP command (attempt {attempt + 1}: transient "
                    f"failure)", resource=LINK_RESOURCE,
                    operator="ndp-command")
        if self.tracer.enabled:
            self.tracer.instant(FAULTS_TRACK, "transient-command-failure",
                                end, args={"attempt": attempt + 1,
                                           "strategy": self.strategy_label})
        policy = self.injector.retry
        if attempt >= policy.max_retries:
            self._abandon(end)
            return
        backoff = policy.backoff(attempt)
        self.wasted_time += backoff
        self.host_wait_initial += backoff
        self._phase("host", "wait", end, end + backoff,
                    f"retry backoff {attempt + 1}", operator="retry-backoff")
        self.loop.schedule_at(end + backoff,
                              lambda: self._submit(attempt + 1, end + backoff),
                              label=f"resubmit attempt {attempt + 2}")

    def _abandon(self, now):
        """Give up on the offload: close the trace and fail the run.

        Without an ``on_abandon`` hook (single-query runs) the error
        propagates out of the private event loop for the caller's host
        fallback; with one (scheduler runs) the hook absorbs it so the
        shared loop keeps draining the other queries' events.
        """
        if self.tracer.enabled:
            self.tracer.instant(FAULTS_TRACK, "retries-exhausted", now,
                                args={"attempts": self.retries,
                                      "strategy": self.strategy_label})
        if self.root_span is not None:
            self.tracer.end(self.root_span, now)
            self.root_span = None
        # Wasted time is the *elapsed* attempt time, not the absolute sim
        # time: on a shared kernel this attempt started at origin > 0, and
        # a partition that cascades through several devices accumulates
        # each attempt's elapsed cost — absolute times would over-count.
        error = RetriesExhaustedError(
            f"{self.strategy_label}: NDP command submission failed "
            f"{self.retries} time(s), retries exhausted",
            strategy=self.strategy_label, retries=self.retries,
            wasted_time=now - self.origin,
            faults_injected=self.injector.faults_injected())
        if self.on_abandon is not None:
            self.on_abandon(self, error)
            return
        raise error

    # -- device process ------------------------------------------------
    def _device_next(self, i):
        """Try to start producing batch ``i`` at the current sim time."""
        if self.cancelled or i >= self.n_batches:
            return
        if i >= self.slots and self.consumed[i - self.slots] is None:
            # All slots hold unconsumed batches: stall until one frees.
            self.device_blocked = (i, self.clock.now)
            return
        self._device_produce(i)

    def _device_produce(self, i):
        if self.cancelled:
            return
        now = self.clock.now
        if self.injector.enabled:
            online = self.injector.core_offline_until(now)
            if online > now:
                # The NDP core is in an unavailability window: the lost
                # time is a device stall, and production resumes when
                # the core comes back.
                self.device_stall += online - now
                self._phase("device", "stall", now, online,
                            f"NDP core offline before batch {i}",
                            operator="stall")
                self.loop.schedule_at(online,
                                      lambda: self._device_produce(i),
                                      label=f"core online for batch {i}")
                return
        per_batch = self.per_batch_device
        if self.injector.enabled:
            per_batch = self.injector.scale_compute(now, per_batch)
            self.slow_time += per_batch - self.per_batch_device
        begin, end = self.core.acquire(now, per_batch,
                                       label=f"produce batch {i}")
        if self.shared and begin > now:
            # Another query's fragment occupies the NDP core: the wait
            # is this query's device stall (cross-query contention).
            self.device_stall += begin - now
            self._phase("device", "stall", now, begin,
                        f"core busy before batch {i}", operator="stall")
        self._phase("device", "compute", begin, end,
                    f"batch {i} ({len(self.batches[i])} rows)",
                    resource=DEVICE_RESOURCE, operator="pqep-prefix",
                    extra={"batch": i, "rows": len(self.batches[i])}
                    if self.tracer.enabled else None)
        self.loop.schedule_at(end, lambda: self._device_produced(i),
                              label=f"device produced {i}")

    def _device_produced(self, i):
        if self.cancelled:
            return
        now = self.clock.now
        batch = self.batches[i]
        if batch:
            push = self.timing.transfer_time(len(batch) * self.row_bytes)
            if self.injector.enabled:
                push = self.injector.scale_transfer(now, push)
            begin, end = self.link.acquire(now, push,
                                           label=f"push batch {i}")
            if begin > now:
                # The link is carrying another transfer: queuing delay.
                self.device_stall += begin - now
                self._phase("device", "stall", now, begin,
                            f"link busy before push {i}", operator="stall")
            self._phase("device", "transfer", begin, end,
                        f"push batch {i}", resource=LINK_RESOURCE,
                        operator="dma-push",
                        extra={"batch": i,
                               "bytes": len(batch) * self.row_bytes}
                        if self.tracer.enabled else None)
            self.transfer_total += end - begin
            self.loop.schedule_at(end, lambda: self._batch_ready(i),
                                  label=f"batch {i} ready")
        else:
            # Zero-row batch: nothing crosses the link.
            self.loop.schedule_at(now, lambda: self._batch_ready(i),
                                  label=f"batch {i} ready (empty)")
        # Production of the next batch pipelines with the push DMA.
        self._device_next(i + 1)

    def _batch_ready(self, i):
        if self.cancelled:
            return
        self.ready[i] = self.clock.now
        if self.breaker_hook is not None:
            # Pipeline breaker: batch ``i`` just crossed the device→host
            # exchange.  Let the adaptive controller compare observed
            # cardinality against the decision's estimate; it may cancel
            # this run to re-plan the remaining QEP.
            self.breaker_hook(self, i)
            if self.cancelled:
                return
        if self.host_blocked is not None and self.host_blocked[0] == i:
            index, since = self.host_blocked
            self.host_blocked = None
            self._host_wait(index, since, self.clock.now,
                            f"waiting for batch {index}")
            self._host_fetch(index)

    # -- host process --------------------------------------------------
    def _host_want(self, i):
        if self.cancelled:
            return
        if i >= self.n_batches:
            self._host_epilogue()
            return
        if self.ready[i] is not None:
            self._host_fetch(i)
        else:
            self.host_blocked = (i, self.clock.now)

    def _host_fetch(self, i):
        if self.cancelled:
            return
        now = self.clock.now
        if self.batches[i]:
            fetch = self.timing.fetch_command_time()
            if self.injector.enabled:
                fetch = self.injector.scale_transfer(now, fetch)
            begin, end = self.link.acquire(now, fetch,
                                           label=f"fetch batch {i}")
            # A device push may occupy the link: the host keeps waiting.
            self._host_wait(i, now, begin, f"link busy before fetch {i}")
            self._phase("host", "transfer", begin, end,
                        f"fetch batch {i}", resource=LINK_RESOURCE,
                        operator="fetch-command",
                        extra={"batch": i} if self.tracer.enabled else None)
            self.transfer_total += end - begin
            self.loop.schedule_at(end, lambda: self._host_consume(i),
                                  label=f"host consume {i}")
        else:
            self.loop.schedule_at(now, lambda: self._host_consume(i),
                                  label=f"host consume {i} (empty)")

    def _host_consume(self, i):
        if self.cancelled:
            return
        now = self.clock.now
        self.consumed[i] = now
        if (self.device_blocked is not None
                and self.device_blocked[0] - self.slots == i):
            index, since = self.device_blocked
            self.device_blocked = None
            if now > since:
                self.device_stall += now - since
                self._phase("device", "stall", since, now,
                            f"slots full before batch {index}",
                            operator="stall")
            self._device_produce(index)

        batch_time, delta = self._host_charge(
            lambda: self.executor._process_batch(
                self.session, self.batches[i], self.row_bytes,
                self.host_counters, self.joined_rows))
        begin, end = self.cpu.acquire(now, batch_time,
                                      label=f"process batch {i}")
        if self.shared and begin > now:
            # Another query holds the host CPU: queueing counts as host
            # wait, not as processing.
            self._host_wait(i, now, begin, f"cpu busy before batch {i}")
        self._phase("host", "compute", begin, end, f"process batch {i}",
                    resource=HOST_RESOURCE, operator="fragment-join",
                    extra={"batch": i, "counters": _counter_deltas(delta)}
                    if self.tracer.enabled else None)
        self.host_processing += batch_time
        self.loop.schedule_at(end, lambda: self._host_want(i + 1),
                              label=f"host want {i + 1}")

    def _host_epilogue(self):
        if self.cancelled:
            return
        now = self.clock.now
        if self.finalize:
            epilogue, delta = self._host_charge(
                lambda: self.executor._finalize_time(self))
            begin, end = self.cpu.acquire(now, epilogue, label="finalize")
            self._phase("host", "compute", begin, end, "finalize",
                        resource=HOST_RESOURCE, operator="finalize",
                        extra={"counters": _counter_deltas(delta)}
                        if self.tracer.enabled else None)
            self.host_processing += epilogue
        else:
            # Deferred epilogue: the partition's joined rows stay raw in
            # ``joined_rows``; the scatter-gather merge finalizes them.
            end = now
        self.host_end = end
        self.completed = True
        if self.shared:
            if self.root_span is not None:
                self.tracer.end(self.root_span, end)
                self.root_span = None
            if self.on_complete is not None:
                self.loop.schedule_at(
                    end, lambda: self.on_complete(self),
                    label=f"complete {self.trace_label}")

    def resource_stats(self, horizon):
        """Per-resource busy/wait/utilization over ``[0, horizon]``."""
        return {resource.name: resource.stats(horizon)
                for resource in (self.link, self.core, self.cpu)}


class PreparedSplit:
    """A hybrid split staged for execution.

    The device fragment already ran (its pipeline buffers are *reserved*
    on the device until :meth:`release`), intermediate batches are
    staged, and the host fragment session is open.  ``run_split`` drives
    one to completion on a private kernel; the workload scheduler starts
    many on a shared kernel and calls :meth:`finish` as their completion
    events fire — the held reservations are what concurrent admission
    control arbitrates.
    """

    def __init__(self, executor, plan, split_index, execution, sim,
                 device_time, device_breakdown, setup_time, n_batches,
                 row_bytes, intermediate_rows, host_counters,
                 device_aliases, admission_wait, injector, tracer):
        self.executor = executor
        self.plan = plan
        self.split_index = split_index
        self.execution = execution
        self.sim = sim
        self.device_time = device_time
        self.device_breakdown = device_breakdown
        self.setup_time = setup_time
        self.n_batches = n_batches
        self.row_bytes = row_bytes
        self.intermediate_rows = intermediate_rows
        self.host_counters = host_counters
        self.device_aliases = device_aliases
        self.admission_wait = admission_wait
        self.injector = injector
        self.tracer = tracer
        self._released = False

    @property
    def reservation_bytes(self):
        """Device DRAM bytes this split's pipeline holds while staged."""
        return self.execution.reservation.total_bytes

    def start(self, at, on_complete=None, on_abandon=None):
        """Start the staged simulation on its shared kernel at ``at``."""
        self.sim.start(at, on_complete=on_complete, on_abandon=on_abandon)

    def cancel(self, now, reason="cancelled"):
        """Cooperatively cancel the in-flight simulation and release.

        Safe at any point of the life cycle: a completed or already
        cancelled simulation is left alone, and the DRAM reservation
        release is idempotent.  Returns whether the simulation was
        actually cancelled by this call.
        """
        cancelled = self.sim.cancel(now, reason=reason)
        self.release()
        return cancelled

    def release(self):
        """Release the device pipeline buffers (idempotent)."""
        if not self._released:
            self._released = True
            self.executor.ndp.release(self.execution)

    def build_report(self, total_time, resource_stats=None):
        """The :class:`ExecutionReport` for the completed simulation."""
        sim = self.sim
        _final_time, host_breakdown = sim._host_charge(
            lambda: self.executor.timing.charge(self.host_counters,
                                                ExecutionLocation.HOST))
        report = ExecutionReport(
            strategy=f"H{self.split_index}",
            total_time=total_time,
            result=sim.result,
            split_index=self.split_index,
            host_counters=self.host_counters,
            device_counters=self.execution.counters,
            host_breakdown=host_breakdown,
            device_breakdown=self.device_breakdown,
            setup_time=self.setup_time,
            host_wait_initial=sim.host_wait_initial,
            host_wait_other=sim.host_wait_other,
            transfer_time=sim.transfer_total,
            host_processing_time=sim.host_processing,
            device_busy_time=self.device_time + sim.slow_time,
            device_stall_time=sim.device_stall,
            batches=self.n_batches,
            intermediate_rows=self.intermediate_rows,
            intermediate_bytes=self.intermediate_rows * self.row_bytes,
            timeline=sim.timeline,
            resource_stats=resource_stats if resource_stats is not None
            else {},
            trace_metrics=self.tracer.metrics(),
            notes={"pointer_cache": self.execution.pointer_cache,
                   "device_aliases": self.device_aliases,
                   "device_stage_rows": self.execution.stage_trace},
        )
        if self.injector.enabled:
            report.retries = sim.retries
            report.faults_injected = self.injector.faults_injected()
            report.wasted_device_time = sim.wasted_time
            report.admission_wait_time = self.admission_wait
        return report

    def finish(self, total_time, resource_stats=None):
        """Build the report, then release the device pipeline."""
        try:
            return self.build_report(total_time,
                                     resource_stats=resource_stats)
        finally:
            self.release()


class CooperativeExecutor:
    """Runs hybrid splits and full-NDP executions."""

    def __init__(self, host_engine, ndp_engine, timing_model):
        self.host = host_engine
        self.ndp = ndp_engine
        self.timing = timing_model

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _slot_bytes(self):
        device = self.ndp.device
        return max(1024, int(device.spec.shared_buffer_slot_bytes
                             * self.ndp.config.buffer_scale))

    def _split_residual(self, plan, device_aliases):
        device_side = []
        host_side = []
        for conjunct in conjuncts(plan.residual):
            if conjunct.aliases() <= set(device_aliases):
                device_side.append(conjunct)
            else:
                host_side.append(conjunct)
        return device_side, host_side

    def _split_fragments(self, plan, split_index):
        """(device_entries, host_entries, aliases, residual split) for Hk."""
        if not 0 <= split_index < plan.table_count:
            raise PlanError(
                f"split index {split_index} out of range for "
                f"{plan.table_count} tables")
        device_entries = plan.prefix(split_index)
        host_entries = plan.suffix(split_index)
        device_aliases = [entry.alias for entry in device_entries]
        device_residual, host_residual = self._split_residual(
            plan, device_aliases)
        return (device_entries, host_entries, device_aliases,
                device_residual, host_residual)

    def _process_batch(self, session, batch, row_bytes, host_counters,
                       joined_rows):
        """Join one device batch on the host.

        Returns ``(charged_seconds, counter_delta)`` — the delta is the
        host work this batch added, which traced runs attach to the
        batch's compute span.
        """
        before = host_counters.copy()
        if session is not None:
            fragment_rows, _fragment_bytes = session.process_batch(
                batch, row_bytes)
        else:
            fragment_rows = batch
        # Each fragment is one ColumnBatch; finalize concatenates them.
        joined_rows.append(fragment_rows)
        delta = host_counters.copy()
        for name, value in before.as_dict().items():
            setattr(delta, name, getattr(delta, name) - value)
        batch_time, _ = self.timing.charge(delta, ExecutionLocation.HOST)
        return batch_time, delta

    def _finalize_time(self, sim):
        """Run the host epilogue for ``sim``.

        Returns ``(charged_seconds, counter_delta)`` like
        :meth:`_process_batch`.
        """
        counters = sim.host_counters
        before = counters.copy()
        sim.result = self.host.finalize_fragment(sim.plan, sim.joined_rows,
                                                 counters)
        delta = counters.copy()
        for name, value in before.as_dict().items():
            setattr(delta, name, getattr(delta, name) - value)
        epilogue, _ = self.timing.charge(delta, ExecutionLocation.HOST)
        return epilogue, delta

    # ------------------------------------------------------------------
    # Hybrid split execution
    # ------------------------------------------------------------------
    def run_split(self, plan, split_index, ctx=None, breaker_hook=None):
        """Execute the plan with split point ``H{split_index}``.

        ``ctx`` (an :class:`~repro.context.ExecutionContext`) carries the
        run's tracer, fault plan and retry policy.  Tracing records the
        run as structured spans; faults degrade the run — transient
        submission failures retry with backoff in simulated time, and
        exhausting the retries raises
        :class:`~repro.errors.RetriesExhaustedError` for the caller's
        host fallback.

        ``breaker_hook(sim, batch_index)`` — when given — fires at every
        pipeline breaker (docs/adaptivity.md); a hook that cancels the
        simulation makes this method raise
        :class:`~repro.errors.ReplanTriggered` for the adaptive driver.
        """
        ctx = ExecutionContext.coerce(ctx)
        tracer = ctx.sim_tracer()
        injector = ctx.injector()
        fragments = self._split_fragments(plan, split_index)
        with injector.attached(self.ndp.device):
            prepared = self._prepare_split_attached(
                plan, split_index, tracer, injector, *fragments)
            try:
                sim = prepared.sim
                sim.breaker_hook = breaker_hook
                if ctx.deadline is not None:
                    sim.loop.schedule_at(
                        ctx.deadline,
                        lambda: sim.cancel(ctx.deadline, reason="deadline"),
                        label="deadline")
                total = sim.run()
                if sim.cancelled and sim.cancel_reason == "replan":
                    raise ReplanTriggered(
                        f"H{split_index}: cancelled at a pipeline breaker "
                        f"to re-plan the remaining QEP",
                        strategy=f"H{split_index}", at=sim.cancelled_at,
                        elapsed=sim.cancelled_at - sim.origin,
                        batches_consumed=sum(
                            1 for t in sim.consumed if t is not None),
                        batches_total=sim.n_batches)
                if sim.cancelled:
                    raise DeadlineExceededError(
                        f"H{split_index}: deadline {ctx.deadline}s expired "
                        f"before completion (cancelled in flight)",
                        deadline=ctx.deadline, elapsed=ctx.deadline,
                        retries=sim.retries, wasted_time=ctx.deadline,
                        faults_injected=injector.faults_injected(),
                        partial={
                            "strategy": f"H{split_index}",
                            "batches_total": sim.n_batches,
                            "batches_consumed": sum(
                                1 for t in sim.consumed if t is not None),
                        })
                return prepared.build_report(
                    total,
                    resource_stats=prepared.sim.resource_stats(total))
            finally:
                prepared.release()

    def prepare_split(self, plan, split_index, ctx=None, *, kernel,
                      trace_label=None, shard=None, finalize=True):
        """Stage split ``H{split_index}`` for execution on ``kernel``.

        Runs the device fragment eagerly — its pipeline buffers stay
        *reserved* on the device until ``release()``/``finish()``, which
        is what the concurrent scheduler's admission control arbitrates —
        and returns a :class:`PreparedSplit` ready to ``start(at)`` on
        the shared event loop.  Raises
        :class:`~repro.errors.DeviceOverloadError` when the pipeline does
        not fit the remaining device DRAM budget.

        ``shard`` restricts the driving-table scan to one partition
        (cluster scatter-gather); ``finalize=False`` defers the host
        epilogue so the cluster can merge partitions and finalize once.
        """
        ctx = ExecutionContext.coerce(ctx)
        tracer = ctx.sim_tracer()
        injector = ctx.injector()
        fragments = self._split_fragments(plan, split_index)
        with injector.attached(self.ndp.device):
            return self._prepare_split_attached(
                plan, split_index, tracer, injector, *fragments,
                kernel=kernel, trace_label=trace_label, shard=shard,
                finalize=finalize)

    def _prepare_split_attached(self, plan, split_index, tracer, injector,
                                device_entries, host_entries,
                                device_aliases, device_residual,
                                host_residual, kernel=None,
                                trace_label=None, shard=None,
                                finalize=True):
        # --- device fragment -----------------------------------------
        command = self.ndp.prepare_command(plan, device_entries,
                                           device_residual, shard=shard)
        admission_wait = 0.0
        if injector.enabled:
            needed = self.ndp.device.pipeline_cost_bytes(
                *command.pipeline_shape())
            admission_wait = injector.admission_delay(
                needed, self.ndp.device.available_bytes,
                query=trace_label or f"H{split_index}",
                device=self.ndp.device.spec.name)
        execution = self.ndp.execute(command)
        try:
            device_time, device_breakdown = self.timing.charge(
                execution.counters, ExecutionLocation.DEVICE)
            setup_time = self.timing.command_setup_time(command.payload_bytes)

            # --- batching over shared buffer slots --------------------
            slot_bytes = self._slot_bytes()
            row_bytes = max(1, execution.row_bytes)
            batch_rows = max(1, slot_bytes // row_bytes)
            rows = execution.rows
            n_batches = max(1, math.ceil(len(rows) / batch_rows))
            batches = [rows[i * batch_rows:(i + 1) * batch_rows]
                       for i in range(n_batches)]
            slots = self.ndp.device.spec.shared_buffer_slots
            per_batch_device = device_time / n_batches

            host_counters = WorkCounters()
            session = None
            if host_entries or host_residual:
                session = self.host.fragment_session(
                    plan, host_entries, device_aliases, host_counters,
                    residual_conjuncts=host_residual)

            sim = _SplitSimulation(
                self, self.timing, plan, batches, per_batch_device,
                row_bytes, slots, setup_time, session, host_counters,
                tracer=tracer, strategy_label=f"H{split_index}",
                injector=injector, start_offset=admission_wait,
                kernel=kernel, trace_label=trace_label, finalize=finalize)
            return PreparedSplit(
                executor=self, plan=plan, split_index=split_index,
                execution=execution, sim=sim, device_time=device_time,
                device_breakdown=device_breakdown, setup_time=setup_time,
                n_batches=n_batches, row_bytes=row_bytes,
                intermediate_rows=len(rows), host_counters=host_counters,
                device_aliases=device_aliases,
                admission_wait=admission_wait, injector=injector,
                tracer=tracer)
        except BaseException:
            self.ndp.release(execution)
            raise

    # ------------------------------------------------------------------
    # Full NDP execution
    # ------------------------------------------------------------------
    def run_full_ndp(self, plan, ctx=None):
        """Execute the whole QEP on the device (aggregation included).

        ``ctx`` carries tracer/faults like :meth:`run_split`.
        """
        ctx = ExecutionContext.coerce(ctx)
        tracer = ctx.sim_tracer()
        injector = ctx.injector()
        with injector.attached(self.ndp.device):
            return self._run_full_ndp_attached(plan, tracer, injector,
                                               deadline=ctx.deadline)

    def _run_full_ndp_attached(self, plan, tracer, injector, deadline=None):
        device_entries = plan.entries
        device_residual = conjuncts(plan.residual)
        command = self.ndp.prepare_command(
            plan, device_entries, device_residual, aggregates_on_device=True)
        admission_wait = 0.0
        if injector.enabled:
            needed = self.ndp.device.pipeline_cost_bytes(
                *command.pipeline_shape())
            admission_wait = injector.admission_delay(
                needed, self.ndp.device.available_bytes,
                query="full-ndp", device=self.ndp.device.spec.name)
        execution = self.ndp.execute(command)
        try:
            device_time, device_breakdown = self.timing.charge(
                execution.counters, ExecutionLocation.DEVICE)
            setup_time = self.timing.command_setup_time(command.payload_bytes)
            result = execution.result
            if result is None:
                result = QueryResult(execution.rows.rows(), [])
            if execution.result is not None:
                # Aggregated on device: a handful of scalar rows.
                result_bytes = max(64, len(result.rows) * 64)
            else:
                result_bytes = max(
                    64, len(result.rows) * max(1, execution.row_bytes))
            slot_bytes = self._slot_bytes()
            commands = max(1, math.ceil(result_bytes / max(1, slot_bytes)))
            transfer = self.timing.transfer_time(result_bytes,
                                                 commands=commands)

            # Serialize command payload, device compute, and the result
            # push on the sim kernel's resources.
            link = BusyResource(LINK_RESOURCE, tracer=tracer)
            core = BusyResource(DEVICE_RESOURCE, tracer=tracer)
            cpu = BusyResource(HOST_RESOURCE, tracer=tracer)
            root_span = None
            if tracer.enabled:
                root_span = tracer.begin(
                    EXEC_TRACK, "full-ndp", 0.0, category="execution",
                    args={"strategy": "full-ndp", "batches": 1})
            timeline = []
            retries = 0
            extra_wait = admission_wait   # admission + retry backoffs
            wasted_time = 0.0
            at = admission_wait
            if admission_wait > 0.0:
                timeline.append(TimelinePhase(
                    "host", "wait", 0.0, admission_wait,
                    "buffer admission wait"))
            # Submit the NDP command; submission may fail transiently
            # (fault injection) and retries back off in simulated time.
            attempt = 0
            while True:
                setup = setup_time
                if injector.enabled:
                    setup = injector.scale_transfer(at, setup)
                _s0, setup_end = link.acquire(at, setup,
                                              label="NDP command payload")
                if not injector.enabled:
                    break
                try:
                    injector.check_submission(attempt)
                    break
                except TransientDeviceError:
                    retries += 1
                    wasted_time += setup_end - _s0
                    timeline.append(TimelinePhase(
                        "host", "setup", _s0, setup_end,
                        f"NDP command (attempt {attempt + 1}: transient "
                        f"failure)", resource=LINK_RESOURCE))
                    if tracer.enabled:
                        tracer.instant(
                            FAULTS_TRACK, "transient-command-failure",
                            setup_end, args={"attempt": attempt + 1,
                                             "strategy": "full-ndp"})
                    policy = injector.retry
                    if attempt >= policy.max_retries:
                        if tracer.enabled:
                            tracer.instant(
                                FAULTS_TRACK, "retries-exhausted", setup_end,
                                args={"attempts": retries,
                                      "strategy": "full-ndp"})
                        if root_span is not None:
                            tracer.end(root_span, setup_end)
                        raise RetriesExhaustedError(
                            f"full-ndp: NDP command submission failed "
                            f"{retries} time(s), retries exhausted",
                            strategy="full-ndp", retries=retries,
                            wasted_time=setup_end,
                            faults_injected=injector.faults_injected())
                    backoff = policy.backoff(attempt)
                    wasted_time += backoff
                    extra_wait += backoff
                    timeline.append(TimelinePhase(
                        "host", "wait", setup_end, setup_end + backoff,
                        f"retry backoff {attempt + 1}"))
                    at = setup_end + backoff
                    attempt += 1
            core_stall = 0.0
            compute_start = setup_end
            if injector.enabled:
                online = injector.core_offline_until(setup_end)
                if online > setup_end:
                    core_stall = online - setup_end
                    timeline.append(TimelinePhase(
                        "device", "stall", setup_end, online,
                        "NDP core offline", resource=DEVICE_RESOURCE))
                    compute_start = online
            effective_device_time = device_time
            if injector.enabled:
                effective_device_time = injector.scale_compute(
                    compute_start, device_time)
            _c0, compute_end = core.acquire(compute_start,
                                            effective_device_time,
                                            label="full QEP")
            if injector.enabled:
                transfer = injector.scale_transfer(compute_end, transfer)
            push_begin, total = link.acquire(compute_end, transfer,
                                             label="result push")
            cpu.acquire(at, setup_time,   # host assembles the command
                        label="assemble NDP command")
            timeline.extend([
                TimelinePhase("host", "setup", _s0, setup_end, "NDP command",
                              resource=LINK_RESOURCE),
                TimelinePhase("device", "compute", _c0, compute_end,
                              "full QEP", resource=DEVICE_RESOURCE),
                TimelinePhase("host", "wait", setup_end, compute_end,
                              "full NDP wait"),
                TimelinePhase("host", "transfer", push_begin, total,
                              "result fetch", resource=LINK_RESOURCE),
            ])
            if tracer.enabled:
                _OPERATORS = {"setup": "ndp-command", "compute": "full-qep",
                              "wait": "wait", "transfer": "result-fetch",
                              "stall": "stall"}
                for phase in timeline:
                    args = {"placement": ("DEVICE" if phase.actor == "device"
                                          else "HOST"),
                            "operator": _OPERATORS[phase.kind]}
                    if phase.resource:
                        args["resource"] = phase.resource
                    if phase.kind == "compute":
                        args["counters"] = _counter_deltas(execution.counters)
                    tracer.span(f"{phase.actor}/{phase.kind}", phase.label,
                                phase.start, phase.end, category=phase.kind,
                                parent=root_span, args=args)
                tracer.end(root_span, total)
            if deadline is not None and total > deadline:
                # A full-NDP offload is one non-cancellable command: the
                # host gives up waiting at the deadline and the device's
                # result is discarded.
                if root_span is not None:
                    tracer.end(root_span, deadline)
                raise DeadlineExceededError(
                    f"full-ndp: deadline {deadline}s expired before the "
                    f"result push finished (would have taken {total:.6f}s)",
                    deadline=deadline, elapsed=deadline, retries=retries,
                    wasted_time=deadline,
                    faults_injected=injector.faults_injected(),
                    partial={"strategy": "full-ndp",
                             "would_have_taken": total})
            resource_stats = {r.name: r.stats(total)
                              for r in (link, core, cpu)}
            host_wait = effective_device_time
            if injector.enabled:
                host_wait += core_stall + extra_wait
            report = ExecutionReport(
                strategy="full-ndp",
                total_time=total,
                result=result,
                split_index=plan.table_count - 1,
                device_counters=execution.counters,
                device_breakdown=device_breakdown,
                setup_time=setup_time,
                host_wait_initial=host_wait,
                transfer_time=transfer,
                device_busy_time=effective_device_time,
                device_stall_time=core_stall,
                batches=1,
                intermediate_rows=len(execution.rows),
                intermediate_bytes=len(execution.rows) * execution.row_bytes,
                timeline=timeline,
                resource_stats=resource_stats,
                trace_metrics=tracer.metrics(),
                notes={"pointer_cache": execution.pointer_cache},
            )
            if injector.enabled:
                report.retries = retries
                report.faults_injected = injector.faults_injected()
                report.wasted_device_time = wasted_time
                report.admission_wait_time = admission_wait
            return report
        finally:
            self.ndp.release(execution)
