"""Task accounting: retention for resend, dedup on delivery, the root ledger.

Three small pieces of state give the plane its exactly-once *effect* on an
at-least-once wire:

* :class:`RetentionBuffer` (parent side, per edge) — every task frame
  dispatched to a child is held until its ``tack`` arrives.  A sweep
  resends entries older than the resend timeout (covers dropped task
  frames *and* dropped acks), and a ``tnak`` triggers an immediate resend
  (payload corrupted in flight).  Each resend increments the attempt
  counter, which keys the seeded fault decisions — so a deterministic
  fault plan cannot kill every attempt of a task forever;
* :class:`DeliveryLog` (child side) — first-delivery dedup.  A resend
  caused by a late ack delivers the same task twice; the second delivery
  is re-acked (the parent clearly missed the first ack) but never enters
  the buffer, so duplicate *execution* is impossible;
* :class:`TaskLedger` (root side) — generation and completion records with
  wall-clock timestamps.  Exact accounting is the drain criterion: the
  root initiates the Stop cascade only once ``completed == generated`` and
  every retention copy is released, which is also what E30 and the chaos
  sweep assert (zero lost, zero duplicated).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple


#: "whoever the copy is held for" — the sweep's resend, which answers nobody
_HOLDER = object()


class RetentionBuffer:
    """Held copies of dispatched tasks, until the child acknowledges."""

    __slots__ = ("_held", "attempts", "strays")

    def __init__(self) -> None:
        #: task_id → (frame, child, last_send_time)
        self._held: Dict[int, Tuple[object, Hashable, float]] = {}
        #: task_id → sends so far (keys the seeded per-attempt fault rolls)
        self.attempts: Dict[int, int] = {}
        #: acks and naks refused because another child than the one the
        #: copy is held for sent them
        self.strays = 0

    def __len__(self) -> int:
        return len(self._held)

    def hold(self, frame, child: Hashable, now: float) -> int:
        """Record a dispatch; returns this send's attempt number (1-based)."""
        attempt = self.attempts.get(frame.task_id, 0) + 1
        self.attempts[frame.task_id] = attempt
        self._held[frame.task_id] = (frame, child, now)
        return attempt

    def _answered(self, task_id: int, child: Hashable) -> Optional[tuple]:
        """The entry *child*'s ack or nak of *task_id* answers: ``None``
        when nothing is held (stale) or it is held for somebody else — the
        only copy is not given up, or resent, on a stranger's word."""
        entry = self._held.get(task_id)
        if entry is not None and child is not _HOLDER and entry[1] != child:
            self.strays += 1
            return None
        return entry

    def touch(self, task_id: int, now: float, child: Hashable = _HOLDER,
              ) -> Optional[Tuple[object, Hashable, int]]:
        """Bump the attempt counter for a resend of *task_id* — the sweep's,
        or the one *child* asked for; ``None`` if the entry was already
        released (a stale ``tnak``) or is held for another child."""
        entry = self._answered(task_id, child)
        if entry is None:
            return None
        frame, child, _ = entry
        attempt = self.attempts[task_id] + 1
        self.attempts[task_id] = attempt
        self._held[task_id] = (frame, child, now)
        return frame, child, attempt

    def release(self, task_id: int, child: Hashable = _HOLDER) -> bool:
        """Drop the retention copy on *child*'s ack; ``False`` if already
        released, or held for another child."""
        released = self._answered(task_id, child) is not None
        if released:
            del self._held[task_id]
            self.attempts.pop(task_id, None)
        return released

    def due(self, now: float, timeout: float) -> List[int]:
        """Task ids whose last send is older than *timeout* seconds."""
        return [task_id for task_id, (_, _, sent) in self._held.items()
                if now - sent >= timeout]

    def next_due(self, timeout: float) -> float:
        """When the first held copy becomes :meth:`due` (one is held)."""
        return min(sent for _, _, sent in self._held.values()) + timeout


class DeliveryLog:
    """Child-side first-delivery dedup."""

    __slots__ = ("_seen", "duplicates")

    def __init__(self) -> None:
        self._seen: Set[int] = set()
        self.duplicates = 0

    def first_delivery(self, task_id: int) -> bool:
        if task_id in self._seen:
            self.duplicates += 1
            return False
        self._seen.add(task_id)
        return True


class TaskLedger:
    """Root-side generation/completion records with duplicate suppression."""

    __slots__ = ("generated", "completions", "duplicates", "strays")

    def __init__(self) -> None:
        self.generated = 0
        #: task_id → wall-clock completion time (seconds since plane start)
        self.completions: Dict[int, float] = {}
        self.duplicates = 0
        #: results refused because their task id was never minted here
        self.strays = 0

    def record_generated(self) -> int:
        """Mint the next task id."""
        task_id = self.generated
        self.generated += 1
        return task_id

    def record_completed(self, task_id: int, now: float) -> bool:
        """``False`` (and counted) if this result already arrived, or is
        for a task id outside ``[0, generated)`` — it would close the books
        early and hide a lost task."""
        if not 0 <= task_id < self.generated:
            self.strays += 1
            return False
        if task_id in self.completions:
            self.duplicates += 1
            return False
        self.completions[task_id] = now
        return True

    @property
    def completed(self) -> int:
        return len(self.completions)

    @property
    def outstanding(self) -> int:
        return self.generated - self.completed

    def steady_rate(self, until: Optional[float] = None,
                    warmup: float = 0.25) -> Optional[float]:
        """Completions per wall second over the steady-state window.

        *until* is when the task supply dried up (generation stopped) —
        past it the pipeline drains at the pace of the *slowest* subtree,
        which says nothing about steady-state throughput, so the window
        ends there.  The first *warmup* fraction of the window is trimmed
        too (the start-up phase fills the buffer pipeline; the paper
        treats it separately for the same reason).  ``None`` when too few
        completions landed inside the window to measure.
        """
        times = sorted(self.completions.values())
        if not times:
            return None
        end = until if until is not None else times[-1]
        start = warmup * end
        inside = [t for t in times if start <= t <= end]
        if len(inside) < 3 or end <= start:
            return None
        return len(inside) / (end - start)
