"""The :class:`Stage` protocol: one node of an execution plan.

A stage declares the named values it consumes (``inputs``) and
produces (``outputs``), carries a JSON-serializable configuration, and
derives a stable :meth:`fingerprint` from it — the unit the
content-addressed artifact cache keys on. Concrete stages for the
paper's pipeline (symmetrize → prune → cluster → evaluate) live in
:mod:`repro.engine.stages`.

Stages are *pure* with respect to the executor: ``run`` receives a
:class:`StageContext` (mode, per-run scratch) plus its declared inputs
and returns its outputs as a dict. Validation strictness, warning
capture, tracing spans, timing and caching are the
:class:`~repro.engine.executor.Executor`'s job, not the stage's.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.engine.cache import canonical_json

__all__ = ["Stage", "StageContext"]


@dataclass
class StageContext:
    """Ambient execution state handed to every stage.

    Attributes
    ----------
    mode:
        ``"strict"`` or ``"lenient"`` — the robustness mode of the
        surrounding run (see ``docs/robustness.md``).
    scratch:
        Per-execution scratch space stages may use to publish
        non-artifact side results (e.g. a chosen prune threshold).
    """

    mode: str = "strict"
    scratch: dict[str, Any] = field(default_factory=dict)

    @property
    def strict(self) -> bool:
        """Whether the run is in strict mode."""
        return self.mode == "strict"


class Stage(abc.ABC):
    """One named transformation in a :class:`~repro.engine.Plan`.

    Class attributes
    ----------------
    name:
        Span / warning-channel label (``"symmetrize"``, ``"prune"``,
        ``"cluster"``, ...).
    inputs, outputs:
        The named values consumed from and produced into the plan's
        value namespace.
    cacheable:
        Whether the stage's (single) output artifact may be served
        from the content-addressed cache. Cacheable stages must be
        deterministic functions of their inputs and configuration.
    """

    name: str = "stage"
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    cacheable: bool = False

    @abc.abstractmethod
    def run(
        self, ctx: StageContext, values: dict[str, Any]
    ) -> dict[str, Any]:
        """Execute the stage; returns ``{output_name: value, ...}``."""

    def config(self) -> dict[str, Any]:
        """The stage's JSON-serializable configuration.

        The default is empty; concrete stages override this with every
        parameter that affects their output, because the artifact
        cache key is derived from it.
        """
        return {}

    def fingerprint(self) -> str:
        """sha256 over the stage kind and canonical configuration.

        Stable across processes, dict orderings and platforms: two
        stages of the same class with equal configuration always
        fingerprint identically, and any config change (threshold,
        alpha, beta, method, ...) changes the fingerprint.
        """
        payload = canonical_json(
            {
                "stage": type(self).__name__,
                "name": self.name,
                "config": self.config(),
            }
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def __repr__(self) -> str:
        cfg = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.config().items())
        )
        return f"{type(self).__name__}({cfg})"
