"""Cross-request micro-batching: one kernel pass for many concurrent ranks.

The dynamic-batching pattern every inference stack uses, applied to the
factorised scorer.  Every engine miss is :meth:`RankingEngine.prepare_rank`
→ a kernel pass → :meth:`PreparedRank.complete`; the scheduler only
decides who runs the pass.  Concurrent requests whose snapshots share a
compiled ``P(f)`` matrix (:attr:`PreparedRank.group_key`) wait up to
``max_wait_us`` for batch-mates, then one fused
:func:`~repro.engine.engine.score_prepared_batch` pass scores the whole
group — N matrix walks collapse into one, and mates with an equal
coefficient vector (:attr:`ScoringKernel.coalesce_key`, tenant-blind)
coalesce onto a single scored row.

**Leader/follower, no background thread.**  The first request to open a
group becomes its *leader*: it waits on the scheduler condition until
the group reaches ``max_batch_size``, the batching window closes, or
some member's :class:`~repro.service.resilience.Deadline` would
otherwise be overrun (a *deadline-forced* flush — the scheduler never
holds a request past its deadline).  The leader then takes the group,
runs the batched pass on its own thread, and hands each follower its
scored view — the kernel's immutable columnar
:class:`~repro.core.kernel.ScoredView`, shared by reference between
coalesced mates, never copied per follower — through a per-entry event.
Leaders and followers are the requests' own threads (behind the
gateway, its ``repro-gw`` pool threads).  No daemon thread means nothing
to leak across ``fork()`` into fleet workers, and flush throughput
scales with the request threads instead of serialising on one consumer.

**Failure containment.**  A request whose deadline expires while queued
is cancelled in place — it raises
:class:`~repro.service.resilience.DeadlineExceeded` (its 504/stale
answer) without ever entering a kernel pass.  If a batched pass blows
up on a non-deadline error, the leader re-scores each taken entry
alone — the single-kernel call bypassed entries and unbatched ranks
make — so one poisoned mate cannot fail the whole batch; a
deadline abort mid-pass (only possible when *every* mate is out of
budget — the pass runs under the longest member deadline) propagates to
all of them.
"""

from __future__ import annotations

import threading
import time
from typing import Hashable

from repro.core.kernel import ScoredView
from repro.engine.engine import PreparedRank, score_prepared_batch
from repro.errors import EngineConfigError
from repro.service.metrics import LatencyRecorder
from repro.service.resilience import Deadline, DeadlineExceeded, deadline_scope

__all__ = ["BatchScheduler"]

_PENDING, _TAKEN, _CANCELLED = 0, 1, 2

#: A deadline-forced flush fires this many seconds *before* the
#: earliest member deadline, so the kernel pass itself still has
#: budget — flushing exactly at the deadline would manufacture a
#: guaranteed 504 out of a request that queued patiently.
_FLUSH_MARGIN = 0.010


class _Entry:
    """One queued request: its snapshot, deadline and completion event."""

    __slots__ = ("prepared", "deadline", "event", "state", "result", "error", "enqueued")

    def __init__(self, prepared: PreparedRank, deadline: Deadline | None):
        self.prepared = prepared
        self.deadline = deadline
        self.event = threading.Event()
        self.state = _PENDING
        self.result: ScoredView | None = None
        self.error: BaseException | None = None
        self.enqueued = time.perf_counter()


class _Group:
    """One open batch: entries accumulating behind a waiting leader."""

    __slots__ = ("key", "entries")

    def __init__(self, key: Hashable):
        self.key = key
        self.entries: list[_Entry] = []


class BatchScheduler:
    """Coalesce concurrent prepared ranks into fused kernel passes.

    ``execute`` blocks the calling thread until its request is scored
    (alone, as a follower, or as the leader of its batch) and returns
    the scored view to feed :meth:`PreparedRank.complete`.  The queue
    needs no bound of its own: every entry is a rank in flight on its
    caller's thread, so the callers bound it (behind the gateway, the
    ``max_concurrency``-wide pool).  After ``close()`` requests are
    scored sequentially on the caller's thread, never rejected.
    """

    def __init__(self, max_batch_size: int = 8, max_wait_us: float = 1000.0):
        if max_batch_size < 2:
            raise EngineConfigError(
                f"batching needs max_batch_size >= 2, got {max_batch_size!r}"
            )
        if max_wait_us < 0:
            raise EngineConfigError(
                f"batch max_wait_us must be non-negative, got {max_wait_us!r}"
            )
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait_us / 1e6
        self._cond = threading.Condition()
        self._groups: dict[Hashable, _Group] = {}
        self._closed = False
        # -- counters (all mutated under the condition lock) -------------
        self._requests = 0
        self._batches = 0
        self._rows = 0
        self._coalesced = 0
        self._deadline_flushes = 0
        self._expired_in_queue = 0
        self._bypass_singleton = 0
        self._bypass_closed = 0
        self._size_histogram: dict[int, int] = {}
        self._queue_wait = LatencyRecorder()
        self._flush_seconds = LatencyRecorder()

    # -- the request path --------------------------------------------------
    def execute(
        self, prepared: PreparedRank, deadline: Deadline | None = None
    ) -> ScoredView:
        """Score one prepared request, batched with concurrent mates.

        A bypassed request is scored alone on the calling thread by the
        call an unbatched :meth:`PreparedRank.complete` makes
        (``score_prepared_batch([prepared])``).  Raises
        :class:`DeadlineExceeded` — before any kernel work — for a
        request that is already, or becomes, out of budget while
        queued.  Any error raised by the scoring pass itself propagates
        on the calling thread exactly as the unbatched path would.
        """
        if deadline is not None and deadline.expired():
            with self._cond:
                self._requests += 1
                self._expired_in_queue += 1
            raise DeadlineExceeded(
                f"deadline exceeded before batching: {deadline.timeout:.3f}s budget spent"
            )
        with self._cond:
            self._requests += 1
            bypass = self._closed
            if bypass:
                self._bypass_closed += 1
            else:
                group = self._groups.get(prepared.group_key)
                entry = _Entry(prepared, deadline)
                leader = group is None
                if leader:
                    group = self._groups[prepared.group_key] = _Group(prepared.group_key)
                else:
                    self._cond.notify_all()
                group.entries.append(entry)
        if bypass:
            (view,), _rows = score_prepared_batch([prepared])
            return view
        if leader:
            return self._lead(group, entry)
        return self._follow(entry)

    def _lead(self, group: _Group, entry: _Entry) -> ScoredView:
        """Wait out the batching window, flush the group, serve everyone."""
        window_end = entry.enqueued + self.max_wait
        deadline_forced = False
        with self._cond:
            while not self._closed and len(group.entries) < self.max_batch_size:
                now = time.perf_counter()
                budget = window_end - now
                horizon = (
                    min(
                        (
                            member.deadline.remaining()
                            for member in group.entries
                            if member.state == _PENDING and member.deadline is not None
                        ),
                        default=float("inf"),
                    )
                    - _FLUSH_MARGIN
                )
                timeout = min(budget, horizon)
                if timeout <= 0:
                    deadline_forced = horizon < budget
                    break
                self._cond.wait(timeout)
            if self._groups.get(group.key) is group:
                del self._groups[group.key]
            taken = [member for member in group.entries if member.state == _PENDING]
            for member in taken:
                member.state = _TAKEN
            self._batches += 1
            size = len(taken)
            self._size_histogram[size] = self._size_histogram.get(size, 0) + 1
            if size == 1:
                self._bypass_singleton += 1
            if deadline_forced:
                self._deadline_flushes += 1
            flushed_at = time.perf_counter()
            for member in taken:
                self._queue_wait.observe(flushed_at - member.enqueued)
        self._score_group(taken)
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _follow(self, entry: _Entry) -> ScoredView:
        """Wait for the leader's flush; cancel in place on deadline."""
        timeout = entry.deadline.remaining() if entry.deadline is not None else None
        if not entry.event.wait(timeout):
            with self._cond:
                if entry.state == _PENDING:
                    entry.state = _CANCELLED
                    self._expired_in_queue += 1
                    raise DeadlineExceeded(
                        f"deadline exceeded while queued for batching: "
                        f"{entry.deadline.timeout:.3f}s budget spent"
                    )
            # Taken between the timeout and the cancel: the pass already
            # includes this request — its answer is moments away (the
            # leader's finally always fires the event).
            entry.event.wait()
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _score_group(self, taken: list[_Entry]) -> None:
        """One fused pass for the flushed entries; errors contained.

        The pass runs under the *longest* member deadline, so it aborts
        only when every mate is out of budget; the leader's own
        (possibly shorter) ambient deadline never kills its mates.
        """
        if not taken:
            return
        horizon: Deadline | None = None
        for member in taken:
            if member.deadline is None:
                horizon = None
                break
            if horizon is None or member.deadline.expires_at > horizon.expires_at:
                horizon = member.deadline
        started = time.perf_counter()
        rows = 0
        try:
            try:
                with deadline_scope(horizon):
                    results, rows = score_prepared_batch(
                        [member.prepared for member in taken]
                    )
            except DeadlineExceeded as exc:
                for member in taken:
                    member.error = exc
                return
            except Exception:  # noqa: BLE001 - contain one poisoned mate
                # Re-score each entry alone — the bypass call — so a
                # fault injected into (or triggered by) one mate cannot
                # fail the whole batch.
                for member in taken:
                    try:
                        (member.result,), _rows = score_prepared_batch([member.prepared])
                        rows += 1
                    except BaseException as exc:  # noqa: BLE001
                        member.error = exc
                return
            for member, result in zip(taken, results):
                member.result = result
        finally:
            with self._cond:
                self._flush_seconds.observe(time.perf_counter() - started)
                self._rows += rows
                self._coalesced += max(0, len(taken) - rows)
            for member in taken:
                member.event.set()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Stop batching: wake every leader so open groups flush now.

        Leaders are live caller threads waiting inside :meth:`execute`,
        so marking the scheduler closed and notifying is a full drain —
        every queued entry is flushed by its own leader.  Requests
        arriving after close are scored sequentially on their thread.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- observability -----------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/metrics`` ``batching`` section."""
        with self._cond:
            requests = self._requests
            batched = sum(size * count for size, count in self._size_histogram.items())
            rows = self._rows
            snapshot = {
                "enabled": True,
                "max_batch_size": self.max_batch_size,
                "max_wait_us": self.max_wait * 1e6,
                "requests": requests,
                "batches": self._batches,
                "batched_requests": batched,
                "rows_scored": rows,
                "coalesced": self._coalesced,
                "coalesce_ratio": (batched - rows) / batched if batched else 0.0,
                "deadline_flushes": self._deadline_flushes,
                "expired_in_queue": self._expired_in_queue,
                "bypass": {
                    "singleton_flushes": self._bypass_singleton,
                    "closed": self._bypass_closed,
                },
                "batch_size_histogram": dict(sorted(self._size_histogram.items())),
            }
        snapshot["queue_wait"] = self._queue_wait.summary()
        snapshot["flush"] = self._flush_seconds.summary()
        return snapshot
