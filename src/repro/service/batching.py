"""``BatchScheduler``: the former batch scheduler's name for the scored-view memo.

There is no batching window any more.  A warm miss runs on the event
loop, and herd mates share one immutable scored view through the
service's :class:`~repro.engine.engine.ScoredViewMemo` — the second
mate reuses the view the first one scored instead of waiting for it.
The memo's lookup-or-score entry is ``execute``, so
``BatchScheduler.execute`` names it still: the serving ledger traces
that dotted name.  Nothing on the serve path imports this module.
"""

from repro.engine.engine import ScoredViewMemo as BatchScheduler

__all__ = ["BatchScheduler"]
