"""Bounded retry with exponential backoff for transient I/O failures.

The helper is deliberately dependency-free: it recognises a retryable
failure by the ``transient`` attribute that :class:`~repro.storage.FSError`
and :class:`~repro.staging.StagingError` carry after this PR, so the
storage and staging layers can use it without import cycles.

Retried operations must be idempotent.  All injected faults fire *before*
the wrapped operation mutates simulator state (see
:meth:`~repro.faults.injector.FaultInjector.before_fs_op`), so re-running
the whole generator is safe.
"""

from __future__ import annotations

__all__ = ["retry_fs", "DEFAULT_RETRIES", "DEFAULT_BACKOFF"]

DEFAULT_RETRIES = 4
DEFAULT_BACKOFF = 0.05


def retry_fs(engine, attempt, retries: int = DEFAULT_RETRIES,
             backoff: float = DEFAULT_BACKOFF, tracer=None):
    """Run ``attempt()`` (a generator factory), retrying transient errors.

    Re-invokes ``attempt`` up to ``retries`` extra times, sleeping
    ``backoff * 2**n`` simulated seconds before retry ``n``.  An error
    without a truthy ``transient`` attribute — or one past the retry
    budget — propagates unchanged.  Returns the attempt's return value.
    Each retry is recorded as an instant event on ``tracer`` (the job's,
    when the run is traced).
    """
    tries = 0
    while True:
        try:
            return (yield from attempt())
        except RuntimeError as exc:
            if not getattr(exc, "transient", False) or tries >= retries:
                raise
            if tracer is not None:
                tracer.instant("retry", "fault", engine.now,
                               rank=getattr(exc, "rank", -1),
                               args={"error": type(exc).__name__,
                                     "detail": str(exc),
                                     "attempt": tries + 1,
                                     "backoff": backoff * (2 ** tries)})
            yield engine.timeout(backoff * (2 ** tries))
            tries += 1
