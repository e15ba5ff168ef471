"""Cooperative (overlapping) host/device execution (paper §4, Fig 7).

For a split point Hk the device runs the pipeline prefix (tables 0..k and
their k joins) and streams intermediate-result batches through a bounded
set of shared buffer slots; the host fetches each batch over PCIe and
joins it with the remaining tables while the device autonomously produces
the next batch.  The device stalls when all slots are full; the host
waits when no batch is ready — both are accounted, reproducing the
Fig 17 timeline and the Table 4 stage breakdown.  Full NDP runs the
whole QEP as one command and pushes the result back once.

The timeline is built on the :mod:`repro.sim` kernel: the PCIe link, the
device's NDP core and the host CPU are :class:`~repro.sim.BusyResource`\\ s
driven by an :class:`~repro.sim.EventLoop`.  Everything that crosses the
link — the NDP command payload, the device's result pushes and the
host's fetch/completion commands — acquires the link resource, so
transfers serialize with queuing delays that feed the ``host_wait_*`` /
``device_stall_time`` accounting instead of silently overlapping.

Every offload is a staged object (:class:`PreparedSplit`, or the full-NDP
offload) that plays one command protocol on a
:class:`~repro.sim.SimContext`.  A single-query run stages its offload on
a fresh kernel, starts it at time zero and drains the loop; the
concurrent workload scheduler (:mod:`repro.sched`) and the cluster stage
splits with :meth:`CooperativeExecutor.prepare_split` and start many of
them on one shared kernel, so queries contend for the same link/core/CPU
and the same device DRAM budget.
"""

import math

from repro.context import ExecutionContext
from repro.engine.counters import WorkCounters
from repro.engine.results import ExecutionReport, QueryResult, TimelinePhase
from repro.engine.timing import ExecutionLocation
from repro.errors import (DeadlineExceededError, PlanError, ReplanTriggered,
                          RetriesExhaustedError, TransientDeviceError)
from repro.faults import FAULTS_TRACK
from repro.query.ast import conjuncts
from repro.sim import (DEVICE_RESOURCE, HOST_RESOURCE, LINK_RESOURCE,
                       SimContext)

#: Track that carries one root span per traced execution.
EXEC_TRACK = "exec"


def _counter_deltas(counters):
    """Non-zero entries of a :class:`WorkCounters` delta, for trace args."""
    return {name: value for name, value in counters.as_dict().items()
            if value}


class _StagedOffload:
    """One NDP command staged on a :class:`~repro.sim.SimContext`.

    The device fragment already ran: its pipeline buffers stay *reserved*
    on the device until :meth:`release`, which is what concurrent
    admission control arbitrates.  :meth:`start` plays the command
    protocol every offload shares — the DRAM admission wait, command
    submission with retry, backoff and abandonment, the core-offline
    stall and slow-core scaling — and :meth:`cancel` stops it
    cooperatively.  Subclasses supply what happens once the command
    crossed the link (``_submitted``), their root-span arguments and
    their report.

    Without a ``trace_label`` (single-query runs on their own kernel)
    the root span goes on :data:`EXEC_TRACK`; labelled runs share a
    kernel, so each root span gets its own ``exec/<label>`` track and
    concurrent executions don't interleave X events on one track.
    """

    def __init__(self, executor, plan, command, execution, *, kernel,
                 tracer, injector, admission_wait, strategy_label,
                 trace_label=None):
        self.executor = executor
        self.timing = executor.timing
        self.plan = plan
        self.execution = execution
        self.device_time, self.device_breakdown = self.timing.charge(
            execution.counters, ExecutionLocation.DEVICE)
        self.setup_time = self.timing.command_setup_time(
            command.payload_bytes)
        self.admission_wait = admission_wait
        self.injector = injector
        self.tracer = tracer
        self.strategy_label = strategy_label
        self.trace_label = trace_label or strategy_label
        if trace_label is None:
            self.exec_track = EXEC_TRACK
            self._event_suffix = ""
        else:
            self.exec_track = f"{EXEC_TRACK}/{trace_label}"
            self._event_suffix = f" {trace_label}"

        self.kernel = kernel
        self.clock = kernel.clock
        self.loop = kernel.loop
        self.link = kernel.link
        self.core = kernel.core
        self.cpu = kernel.cpu
        self.root_span = None
        self.origin = 0.0                  # workload time this run begins
        self.on_complete = None
        self.on_abandon = None

        self.timeline = []
        self.host_wait_initial = 0.0
        self.device_stall = 0.0
        self.host_end = 0.0
        self.retries = 0          # failed NDP command submissions
        self.wasted_time = 0.0    # failed-attempt link time + backoffs
        self.slow_time = 0.0      # extra compute from SlowDeviceModel
        self.completed = False    # the offload's work is done
        self.cancelled = False    # cooperatively cancelled (see cancel())
        self.cancelled_at = None
        self.cancel_reason = None
        self._released = False

    def release(self):
        """Release the device pipeline buffers (idempotent)."""
        if not self._released:
            self._released = True
            self.executor.ndp.release(self.execution)

    def finish(self, total_time, resource_stats=None):
        """Build the report, then release the device pipeline."""
        try:
            return self.build_report(total_time,
                                     resource_stats=resource_stats)
        finally:
            self.release()

    def _slot_bytes(self):
        ndp = self.executor.ndp
        return max(1024, int(ndp.device.spec.shared_buffer_slot_bytes
                             * ndp.config.buffer_scale))

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

    def _core_online(self, now, label, resource=""):
        """When the NDP core can start work requested at ``now``.

        An unavailability window in between is lost time: it is booked
        as a device stall phase labelled ``label``.
        """
        if not self.injector.enabled:
            return now
        online = self.injector.core_offline_until(now)
        if online > now:
            self.device_stall += online - now
            self._phase("device", "stall", now, online, label,
                        resource=resource, operator="stall")
        return online

    def _compute_time(self, now, seconds):
        """``seconds`` of NDP-core work starting at ``now``, scaled by a
        slow-device window; the extra time accrues to ``slow_time``."""
        if not self.injector.enabled:
            return seconds
        scaled = self.injector.scale_compute(now, seconds)
        self.slow_time += scaled - seconds
        return scaled

    # -- protocol ------------------------------------------------------
    def start(self, at, on_complete=None, on_abandon=None):
        """Begin this run at kernel time ``at``.

        ``on_complete(offload)`` fires (as an event) when the offload's
        work is done; ``on_abandon(offload, error)`` replaces the
        :class:`~repro.errors.RetriesExhaustedError` raise when command
        submission exhausts its retries, so one query's degradation
        doesn't unwind a shared event loop.
        """
        self.origin = at
        self.on_complete = on_complete
        self.on_abandon = on_abandon
        if self.tracer.enabled:
            self.root_span = self.tracer.begin(
                self.exec_track, self.trace_label, at, category="execution",
                args=self._root_args())
        self.loop.schedule_at(at, self._begin,
                              label="begin" + self._event_suffix)

    def cancel(self, now, reason="cancelled"):
        """Cooperatively cancel this run at simulated time ``now``.

        Already-scheduled events become no-ops (every event entry point
        checks the flag), so no *new* resource time is booked after the
        cancellation; busy intervals already *served* stand — they are
        the honest wasted cost, which the caller audits as
        ``now - origin`` — but a booking still in flight at ``now`` is
        truncated (:meth:`~repro.sim.resources.BusyResource.truncate`),
        so a cancelled straggler does not hold its core into the far
        future.  The device DRAM reservation is released either way
        (idempotently).  Returns False if the run already completed or
        was already cancelled.
        """
        self.release()
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
        offset = self.origin + self.admission_wait
        if self.admission_wait > 0.0:
            # Admission control waited for a DRAM-pressure window to
            # pass instead of raising DeviceOverloadError outright.
            self.host_wait_initial += self.admission_wait
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
        self._submitted(at, begin, end)

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
        propagates out of the event loop for the caller's host fallback;
        with one (scheduler and cluster runs) the hook absorbs it so the
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

    def _finish(self, end):
        """The offload's work is done at ``end``: close and notify."""
        self.host_end = end
        self.completed = True
        if self.root_span is not None:
            self.tracer.end(self.root_span, end)
            self.root_span = None
        if self.on_complete is not None:
            self.loop.schedule_at(end, lambda: self.on_complete(self),
                                  label="complete" + self._event_suffix)


class PreparedSplit(_StagedOffload):
    """A hybrid split ``H{split_index}`` staged for execution.

    After a successful submission this is a discrete-event
    producer/consumer simulation.  The device process produces
    intermediate batches on ``core`` and DMAs each finished batch over
    ``link`` into a shared buffer slot; the host process posts a small
    fetch/completion command on ``link`` per batch, joins the batch on
    ``cpu``, which frees the slot.  The device blocks when all ``slots``
    slots hold unconsumed batches; the host blocks when the next batch
    has not arrived yet.  Real host-side join work happens inside the
    consume events, in batch order, so results are identical to the
    sequential implementation.
    """

    def __init__(self, executor, plan, command, execution, *, split_index,
                 host_entries, device_aliases, host_residual, finalize=True,
                 **staging):
        super().__init__(executor, plan, command, execution,
                         strategy_label=f"H{split_index}", **staging)
        self.split_index = split_index
        self.device_aliases = device_aliases
        #: Scatter-gather partitions defer the epilogue: the cluster
        #: merges all partitions' joined rows and finalizes *once*.
        self.finalize = finalize

        # --- batching over shared buffer slots ------------------------
        slot_bytes = self._slot_bytes()
        self.row_bytes = max(1, execution.row_bytes)
        batch_rows = max(1, slot_bytes // self.row_bytes)
        rows = execution.rows
        self.intermediate_rows = len(rows)
        self.n_batches = max(1, math.ceil(len(rows) / batch_rows))
        self.batches = [rows[i * batch_rows:(i + 1) * batch_rows]
                        for i in range(self.n_batches)]
        self.slots = max(1, executor.ndp.device.spec.shared_buffer_slots)
        self.per_batch_device = self.device_time / self.n_batches

        self.host_counters = WorkCounters()
        self.session = None
        if host_entries or host_residual:
            self.session = executor.host.fragment_session(
                plan, host_entries, device_aliases, self.host_counters,
                residual_conjuncts=host_residual)

        self.joined_rows = []
        self.result = None
        self.ready = [None] * self.n_batches      # batch i in its slot
        self.consumed = [None] * self.n_batches   # slot of batch i freed
        self.device_blocked = None                # (batch index, since)
        self.host_blocked = None                  # (batch index, since)
        self.host_wait_other = 0.0
        self.transfer_total = 0.0
        self.host_processing = 0.0
        #: Optional pipeline-breaker callback ``hook(split, batch_index)``,
        #: invoked as each device batch lands host-side — the point where
        #: observed cardinality can be checked against the planner's
        #: estimate (docs/adaptivity.md).  The hook may cooperatively
        #: ``cancel()`` the run to trigger mid-query re-planning.  None
        #: (the default) is zero-cost: no call, no trace delta, byte-
        #: identical to builds without the hook.
        self.breaker_hook = None

    def _root_args(self):
        return {"strategy": self.strategy_label,
                "batches": self.n_batches, "slots": self.slots}

    def _host_wait(self, index, start, end, label):
        if end <= start:
            return
        if index == 0:
            self.host_wait_initial += end - start
        else:
            self.host_wait_other += end - start
        self._phase("host", "wait", start, end, label, operator="wait",
                    extra={"batch": index} if self.tracer.enabled else None)

    def _host_work(self, work):
        """Run host-side ``work()`` and price the host work it added.

        Returns ``(charged_seconds, counter_delta)`` — traced runs
        attach the delta to the work's compute span.  The run's injector
        is attached for the duration: shared-kernel runs interleave many
        queries with distinct injectors on one flash model.
        """
        counters = self.host_counters
        with self.injector.attached(self.executor.ndp.device):
            before = counters.copy()
            work()
            delta = counters.copy()
            for name, value in before.as_dict().items():
                setattr(delta, name, getattr(delta, name) - value)
            seconds, _ = self.timing.charge(delta, ExecutionLocation.HOST)
        return seconds, delta

    def _join_batch(self, i):
        """Join device batch ``i`` on the host."""
        batch = self.batches[i]
        if self.session is not None:
            fragment_rows, _fragment_bytes = self.session.process_batch(
                batch, self.row_bytes)
        else:
            fragment_rows = batch
        # Each fragment is one ColumnBatch; finalize concatenates them.
        self.joined_rows.append(fragment_rows)

    def _finalize_rows(self):
        self.result = self.executor.host.finalize_fragment(
            self.plan, self.joined_rows, self.host_counters)

    def _submitted(self, at, begin, end):
        self._phase("host", "setup", begin, end, "NDP command",
                    resource=LINK_RESOURCE, operator="ndp-command")
        self.loop.schedule_at(end, lambda: self._device_next(0),
                              label="device start")
        self.loop.schedule_at(end, lambda: self._host_want(0),
                              label="host start")

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
        online = self._core_online(now, f"NDP core offline before batch {i}")
        if online > now:
            # Production resumes when the core comes back.
            self.loop.schedule_at(online, lambda: self._device_produce(i),
                                  label=f"core online for batch {i}")
            return
        per_batch = self._compute_time(now, self.per_batch_device)
        begin, end = self.core.acquire(now, per_batch,
                                       label=f"produce batch {i}")
        if begin > now:
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

        batch_time, delta = self._host_work(lambda: self._join_batch(i))
        begin, end = self.cpu.acquire(now, batch_time,
                                      label=f"process batch {i}")
        if begin > now:
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
        end = self.clock.now
        if self.finalize:
            epilogue, delta = self._host_work(self._finalize_rows)
            begin, end = self.cpu.acquire(end, epilogue, label="finalize")
            self._phase("host", "compute", begin, end, "finalize",
                        resource=HOST_RESOURCE, operator="finalize",
                        extra={"counters": _counter_deltas(delta)}
                        if self.tracer.enabled else None)
            self.host_processing += epilogue
        # Otherwise the epilogue is deferred: the partition's joined rows
        # stay raw in ``joined_rows``; the scatter-gather merge
        # finalizes them.
        self._finish(end)

    def build_report(self, total_time, resource_stats=None):
        """The :class:`ExecutionReport` for the completed simulation."""
        with self.injector.attached(self.executor.ndp.device):
            _final_time, host_breakdown = self.timing.charge(
                self.host_counters, ExecutionLocation.HOST)
        report = ExecutionReport(
            strategy=self.strategy_label,
            total_time=total_time,
            result=self.result,
            split_index=self.split_index,
            host_counters=self.host_counters,
            device_counters=self.execution.counters,
            host_breakdown=host_breakdown,
            device_breakdown=self.device_breakdown,
            setup_time=self.setup_time,
            host_wait_initial=self.host_wait_initial,
            host_wait_other=self.host_wait_other,
            transfer_time=self.transfer_total,
            host_processing_time=self.host_processing,
            device_busy_time=self.device_time + self.slow_time,
            device_stall_time=self.device_stall,
            batches=self.n_batches,
            intermediate_rows=self.intermediate_rows,
            intermediate_bytes=self.intermediate_rows * self.row_bytes,
            timeline=self.timeline,
            resource_stats=resource_stats if resource_stats is not None
            else {},
            trace_metrics=self.tracer.metrics(),
            notes={"pointer_cache": self.execution.pointer_cache,
                   "device_aliases": self.device_aliases,
                   "device_stage_rows": self.execution.stage_trace},
        )
        if self.injector.enabled:
            report.retries = self.retries
            report.faults_injected = self.injector.faults_injected()
            report.wasted_device_time = self.wasted_time
            report.admission_wait_time = self.admission_wait
        return report


class _FullNDPOffload(_StagedOffload):
    """The whole QEP as one NDP command: one compute, one result push.

    Once submitted the command is not cancellable: the core computes the
    full QEP (aggregation included) and the result crosses the link in
    one push, while the host waits.
    """

    #: Trace operator of each phase, by phase kind.
    _OPERATORS = {"setup": "ndp-command", "compute": "full-qep",
                  "wait": "wait", "transfer": "result-fetch",
                  "stall": "stall"}

    def __init__(self, executor, plan, command, execution, **staging):
        super().__init__(executor, plan, command, execution,
                         strategy_label="full-ndp", **staging)
        result = execution.result
        if result is None:
            result = QueryResult(execution.rows.rows(), [])
        if execution.result is not None:
            # Aggregated on device: a handful of scalar rows.
            result_bytes = max(64, len(result.rows) * 64)
        else:
            result_bytes = max(
                64, len(result.rows) * max(1, execution.row_bytes))
        commands = max(1, math.ceil(result_bytes
                                    / max(1, self._slot_bytes())))
        self.result = result
        self.transfer_time = self.timing.transfer_time(result_bytes,
                                                       commands=commands)
        self.busy_time = self.device_time

    def _root_args(self):
        return {"strategy": self.strategy_label, "batches": 1}

    def _phase(self, actor, kind, start, end, label, resource="",
               operator="", extra=None):
        super()._phase(actor, kind, start, end, label, resource=resource,
                       operator=self._OPERATORS[kind], extra=extra)

    def _submitted(self, at, begin, end):
        compute_start = self._core_online(end, "NDP core offline",
                                          resource=DEVICE_RESOURCE)
        self.busy_time = self._compute_time(compute_start, self.device_time)
        compute_begin, compute_end = self.core.acquire(
            compute_start, self.busy_time, label="full QEP")
        if self.injector.enabled:
            self.transfer_time = self.injector.scale_transfer(
                compute_end, self.transfer_time)
        push_begin, pushed = self.link.acquire(
            compute_end, self.transfer_time, label="result push")
        self.cpu.acquire(at, self.setup_time,   # host assembles the command
                         label="assemble NDP command")
        self._phase("host", "setup", begin, end, "NDP command",
                    resource=LINK_RESOURCE)
        self._phase("device", "compute", compute_begin, compute_end,
                    "full QEP", resource=DEVICE_RESOURCE,
                    extra={"counters": _counter_deltas(
                        self.execution.counters)}
                    if self.tracer.enabled else None)
        self._phase("host", "wait", end, compute_end, "full NDP wait")
        self._phase("host", "transfer", push_begin, pushed, "result fetch",
                    resource=LINK_RESOURCE)
        self.loop.schedule_at(pushed, self._result_pushed,
                              label="result pushed" + self._event_suffix)

    def _result_pushed(self):
        if not self.cancelled:
            self._finish(self.clock.now)

    def build_report(self, total_time, resource_stats=None):
        """The :class:`ExecutionReport` for the completed offload."""
        host_wait = self.busy_time
        if self.injector.enabled:
            host_wait += self.device_stall + self.host_wait_initial
        execution = self.execution
        report = ExecutionReport(
            strategy=self.strategy_label,
            total_time=total_time,
            result=self.result,
            split_index=self.plan.table_count - 1,
            device_counters=execution.counters,
            device_breakdown=self.device_breakdown,
            setup_time=self.setup_time,
            host_wait_initial=host_wait,
            transfer_time=self.transfer_time,
            device_busy_time=self.busy_time,
            device_stall_time=self.device_stall,
            batches=1,
            intermediate_rows=len(execution.rows),
            intermediate_bytes=len(execution.rows) * execution.row_bytes,
            timeline=self.timeline,
            resource_stats=resource_stats if resource_stats is not None
            else {},
            trace_metrics=self.tracer.metrics(),
            notes={"pointer_cache": execution.pointer_cache},
        )
        if self.injector.enabled:
            report.retries = self.retries
            report.faults_injected = self.injector.faults_injected()
            report.wasted_device_time = self.wasted_time
            report.admission_wait_time = self.admission_wait
        return report


class CooperativeExecutor:
    """Runs hybrid splits and full-NDP executions."""

    def __init__(self, host_engine, ndp_engine, timing_model):
        self.host = host_engine
        self.ndp = ndp_engine
        self.timing = timing_model

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
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

    def _stage(self, offload_class, plan, command, injector, query,
               **staging):
        """Run ``command``'s device fragment and stage an offload on it.

        Admission control may wait out a DRAM-pressure window (or raise
        :class:`~repro.errors.AdmissionTimeoutError`); executing the
        fragment reserves its pipeline buffers, which are released again
        if staging fails.
        """
        device = self.ndp.device
        admission_wait = 0.0
        if injector.enabled:
            needed = device.pipeline_cost_bytes(*command.pipeline_shape())
            admission_wait = injector.admission_delay(
                needed, device.available_bytes, query=query,
                device=device.spec.name)
        execution = self.ndp.execute(command)
        try:
            return offload_class(self, plan, command, execution,
                                 injector=injector,
                                 admission_wait=admission_wait, **staging)
        except BaseException:
            self.ndp.release(execution)
            raise

    @staticmethod
    def _run_alone(offload):
        """Start a serially staged offload at time zero on its own kernel
        and drain it; returns the offload's total time."""
        offload.start(0.0)
        offload.loop.run()
        return offload.host_end

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

        ``breaker_hook(split, batch_index)`` — when given — fires at
        every pipeline breaker (docs/adaptivity.md); a hook that cancels
        the split makes this method raise
        :class:`~repro.errors.ReplanTriggered` for the adaptive driver.
        """
        ctx = ExecutionContext.coerce(ctx)
        tracer = ctx.sim_tracer()
        injector = ctx.injector()
        with injector.attached(self.ndp.device):
            split = self._stage_split(plan, split_index,
                                      SimContext.fresh(tracer), tracer,
                                      injector)
            try:
                split.breaker_hook = breaker_hook
                if ctx.deadline is not None:
                    split.loop.schedule_at(
                        ctx.deadline,
                        lambda: split.cancel(ctx.deadline, reason="deadline"),
                        label="deadline")
                total = self._run_alone(split)
                consumed = sum(1 for t in split.consumed if t is not None)
                if split.cancelled and split.cancel_reason == "replan":
                    raise ReplanTriggered(
                        f"H{split_index}: cancelled at a pipeline breaker "
                        f"to re-plan the remaining QEP",
                        strategy=f"H{split_index}", at=split.cancelled_at,
                        elapsed=split.cancelled_at - split.origin,
                        batches_consumed=consumed,
                        batches_total=split.n_batches)
                if split.cancelled:
                    raise DeadlineExceededError(
                        f"H{split_index}: deadline {ctx.deadline}s expired "
                        f"before completion (cancelled in flight)",
                        deadline=ctx.deadline, elapsed=ctx.deadline,
                        retries=split.retries, wasted_time=ctx.deadline,
                        faults_injected=injector.faults_injected(),
                        partial={
                            "strategy": f"H{split_index}",
                            "batches_total": split.n_batches,
                            "batches_consumed": consumed,
                        })
                return split.build_report(
                    total, resource_stats=split.kernel.resource_stats(total))
            finally:
                split.release()

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

        ``trace_label`` names the run on the shared trace (default
        ``H{split_index}``).  ``shard`` restricts the driving-table scan
        to one partition (cluster scatter-gather); ``finalize=False``
        defers the host epilogue so the cluster can merge partitions and
        finalize once.
        """
        ctx = ExecutionContext.coerce(ctx)
        injector = ctx.injector()
        with injector.attached(self.ndp.device):
            return self._stage_split(
                plan, split_index, kernel, ctx.sim_tracer(), injector,
                trace_label=trace_label or f"H{split_index}", shard=shard,
                finalize=finalize)

    def _stage_split(self, plan, split_index, kernel, tracer, injector,
                     trace_label=None, shard=None, finalize=True):
        (device_entries, host_entries, device_aliases, device_residual,
         host_residual) = self._split_fragments(plan, split_index)
        command = self.ndp.prepare_command(plan, device_entries,
                                           device_residual, shard=shard)
        return self._stage(
            PreparedSplit, plan, command, injector,
            trace_label or f"H{split_index}", kernel=kernel, tracer=tracer,
            trace_label=trace_label, split_index=split_index,
            host_entries=host_entries, device_aliases=device_aliases,
            host_residual=host_residual, finalize=finalize)

    # ------------------------------------------------------------------
    # Full NDP execution
    # ------------------------------------------------------------------
    def run_full_ndp(self, plan, ctx=None):
        """Execute the whole QEP on the device (aggregation included).

        ``ctx`` carries tracer/faults like :meth:`run_split`.  The
        offload is one non-cancellable command, so a deadline is checked
        once it finished: past it the host has given up, and
        :class:`~repro.errors.DeadlineExceededError` carries
        ``partial["would_have_taken"]``.
        """
        ctx = ExecutionContext.coerce(ctx)
        tracer = ctx.sim_tracer()
        injector = ctx.injector()
        with injector.attached(self.ndp.device):
            command = self.ndp.prepare_command(
                plan, plan.entries, conjuncts(plan.residual),
                aggregates_on_device=True)
            offload = self._stage(_FullNDPOffload, plan, command, injector,
                                  "full-ndp", kernel=SimContext.fresh(tracer),
                                  tracer=tracer)
            try:
                total = self._run_alone(offload)
                deadline = ctx.deadline
                if deadline is not None and total > deadline:
                    # The host gives up waiting at the deadline and the
                    # device's result is discarded.
                    raise DeadlineExceededError(
                        f"full-ndp: deadline {deadline}s expired before the "
                        f"result push finished (would have taken "
                        f"{total:.6f}s)",
                        deadline=deadline, elapsed=deadline,
                        retries=offload.retries, wasted_time=deadline,
                        faults_injected=injector.faults_injected(),
                        partial={"strategy": "full-ndp",
                                 "would_have_taken": total})
                return offload.build_report(
                    total, resource_stats=offload.kernel.resource_stats(total))
            finally:
                offload.release()
