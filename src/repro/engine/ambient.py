"""One scope object for every piece of ambient execution state.

The library has three independent ``contextvars``-based ambient
registries — the artifact cache (:mod:`repro.engine.cache`), the
tracer (:mod:`repro.obs.trace`) and the metrics registry
(:mod:`repro.obs.metrics`) — plus the run journal
(:mod:`repro.engine.journal`). Each has its own installer context
manager, which is fine for a one-shot CLI process but a trap for the
service daemon: a per-job scope assembled from four nested ``with``
blocks is easy to get subtly wrong (install one, forget to reset
another on an error path), and any token that is not reset leaks the
job's state into whatever runs next on that asyncio task or pooled
worker thread.

:func:`ambient_scope` is the single front door: it sets all four
variables in one call, records every reset token, and unwinds them in
reverse order on exit — unconditionally, including on exceptions — so
no job can ever observe another job's cache, tracer, metrics or
journal. Parameters left unset inherit the enclosing scope; pass
``isolate=True`` to sever inheritance instead (unset state becomes
``None`` inside the scope), which is what the daemon uses between
jobs.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.engine import cache as _cache_mod
from repro.engine import journal as _journal_mod
from repro.engine.cache import ArtifactCache
from repro.engine.journal import RunJournal
from repro.obs import metrics as _metrics_mod
from repro.obs import trace as _trace_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["AmbientState", "ambient_scope"]

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET: Any = object()


@dataclass(frozen=True)
class AmbientState:
    """The effective ambient state inside an :func:`ambient_scope`."""

    cache: ArtifactCache | None
    tracer: Tracer | None
    metrics: MetricsRegistry | None
    journal: RunJournal | None


# (ContextVar, value coercion) per ambient slot, in install order.
# Reaching for the modules' private vars is deliberate: this is the
# one place allowed to touch all of them, so the per-module installer
# CMs and this scope always agree on the same variables.
_SLOTS = (
    ("cache", _cache_mod, "_CACHE"),
    ("tracer", _trace_mod, "_TRACER"),
    ("metrics", _metrics_mod, "_METRICS"),
    ("journal", _journal_mod, "_JOURNAL"),
)


@contextlib.contextmanager
def ambient_scope(
    cache: ArtifactCache | None = _UNSET,
    tracer: Tracer | None = _UNSET,
    metrics: MetricsRegistry | None = _UNSET,
    journal: RunJournal | None = _UNSET,
    isolate: bool = False,
) -> Iterator[AmbientState]:
    """Install ambient execution state for a block, leak-free.

    Parameters
    ----------
    cache, tracer, metrics, journal:
        The state to install. Anything not passed inherits the
        enclosing scope's value (default) or is cleared to ``None``
        when ``isolate=True``.
    isolate:
        Sever inheritance: inside the scope, unset slots read
        ``None`` instead of the caller's ambient state. The service
        daemon wraps every job in an isolated scope so two jobs
        interleaved on one worker thread or asyncio task can never
        observe each other's registries.

    Yields the effective :class:`AmbientState`. Every contextvar
    token is reset on exit, in reverse install order, even when the
    body raises — the leak the daemon exposed was exactly a token
    that survived an error path.
    """
    requested = {
        "cache": cache,
        "tracer": tracer,
        "metrics": metrics,
        "journal": journal,
    }
    tokens = []
    effective: dict[str, Any] = {}
    try:
        for name, module, var_name in _SLOTS:
            var = getattr(module, var_name)
            value = requested[name]
            if value is _UNSET:
                if not isolate:
                    effective[name] = var.get()
                    continue
                value = None
            tokens.append((var, var.set(value)))
            effective[name] = value
        if effective["tracer"] is not None:
            effective["tracer"]._enable_memory()
        yield AmbientState(**effective)
    finally:
        if effective.get("tracer") is not None:
            effective["tracer"]._disable_memory()
        for var, token in reversed(tokens):
            var.reset(token)
