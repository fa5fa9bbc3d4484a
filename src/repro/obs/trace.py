"""Hierarchical tracing: span trees for pipeline runs.

A :class:`Span` is one timed region of a run — a pipeline stage, a
symmetrization, a single gram block inside the all-pairs engine. Spans
nest, forming a tree (``pipeline`` → ``symmetrize`` →
``gram_block[512]``), and each records wall-clock time, CPU time,
optional memory deltas and free-form numeric/string attributes.

Spans and the metrics of :mod:`repro.obs.metrics` are the library's
one instrumentation channel: a span's attributes carry the counts that
explain its timing. Tracing is *ambient*: library code calls
:func:`span` unconditionally, and without an installed
:class:`Tracer` the call returns a shared no-op span — one contextvar
read, zero allocations — so instrumented hot paths cost nothing when
tracing is off. Install a tracer with :func:`tracing`::

    with tracing() as tracer:
        result = pipeline.run(graph)
    print(tracer.report())
    Path("trace.json").write_text(json.dumps(tracer.to_chrome_trace()))

The Chrome ``trace_event`` export opens directly in ``chrome://tracing``
or https://ui.perfetto.dev as a flamegraph. See
``docs/observability.md``.
"""

from __future__ import annotations

import contextlib
import contextvars
import resource
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "tracing",
    "current_tracer",
    "span",
    "to_chrome_trace",
    "spans_from_chrome_trace",
]


@dataclass
class Span:
    """One timed region of a run, possibly with nested child spans.

    Attributes
    ----------
    name:
        Region identifier (e.g. ``"symmetrize:degree_discounted"``,
        ``"gram_block[512]"``). Paths are implied by nesting, not
        encoded in the name.
    start:
        Start time in seconds relative to the tracer's epoch (the
        moment the tracer was created), so sibling ordering and Chrome
        trace timestamps are meaningful.
    wall_seconds, cpu_seconds:
        Elapsed wall-clock and process CPU time of the region.
    mem_alloc_bytes:
        Net bytes allocated during the span (``tracemalloc``), only
        when the tracer was created with ``memory=True``.
    rss_peak_delta_kb:
        Growth of the process peak RSS (``ru_maxrss``) across the
        span, only when ``memory=True``. Usually 0 for small spans —
        peak RSS is monotonic — but pinpoints which stage pushed the
        high-water mark.
    attributes:
        Free-form numeric/string annotations (nnz counts, edge counts,
        backend names).
    children:
        Nested spans, in start order.
    """

    name: str
    start: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    mem_alloc_bytes: int | None = None
    rss_peak_delta_kb: int | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def set(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attributes.update(attributes)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with ``name``, depth-first."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def depth(self) -> int:
        """Number of nesting levels rooted here (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable view (recursive)."""
        out: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "attributes": dict(self.attributes),
            "children": [c.as_dict() for c in self.children],
        }
        if self.mem_alloc_bytes is not None:
            out["mem_alloc_bytes"] = self.mem_alloc_bytes
        if self.rss_peak_delta_kb is not None:
            out["rss_peak_delta_kb"] = self.rss_peak_delta_kb
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`as_dict` output."""
        return cls(
            name=payload["name"],
            start=float(payload.get("start", 0.0)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            cpu_seconds=float(payload.get("cpu_seconds", 0.0)),
            mem_alloc_bytes=payload.get("mem_alloc_bytes"),
            rss_peak_delta_kb=payload.get("rss_peak_delta_kb"),
            attributes=dict(payload.get("attributes", {})),
            children=[
                cls.from_dict(c) for c in payload.get("children", [])
            ],
        )


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled.

    A singleton: :func:`span` without an active tracer returns this
    exact object, so the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: Any) -> None:
        """No-op."""


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of :class:`Span` trees for one run.

    Parameters
    ----------
    memory:
        Also record per-span memory deltas. Starts ``tracemalloc``
        (noticeable overhead on allocation-heavy code) for net
        allocated bytes and samples ``ru_maxrss`` for peak-RSS growth,
        so it is opt-in.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = bool(memory)
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()
        self._started_tracemalloc = False

    # -- lifecycle -----------------------------------------------------

    def _enable_memory(self) -> None:
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def _disable_memory(self) -> None:
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- span recording ------------------------------------------------

    @contextlib.contextmanager
    def start_span(
        self, name: str, attributes: dict[str, Any] | None = None
    ) -> Iterator[Span]:
        """Open a span as the child of the innermost open span."""
        # One timestamp serves as both the start and the wall-clock
        # origin, so start + wall_seconds is exactly the exit time and
        # a child interval can never leak past its parent's — the
        # Chrome-trace round-trip recovers nesting from containment.
        wall0 = time.perf_counter()
        node = Span(
            name=name,
            start=wall0 - self._epoch,
            attributes=dict(attributes) if attributes else {},
        )
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(
            node
        )
        self._stack.append(node)
        mem0 = rss0 = None
        if self.memory:
            if tracemalloc.is_tracing():
                mem0 = tracemalloc.get_traced_memory()[0]
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        cpu0 = time.process_time()
        try:
            yield node
        finally:
            node.wall_seconds = time.perf_counter() - wall0
            node.cpu_seconds = time.process_time() - cpu0
            if mem0 is not None:
                node.mem_alloc_bytes = (
                    tracemalloc.get_traced_memory()[0] - mem0
                )
            if rss0 is not None:
                node.rss_peak_delta_kb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    - rss0
                )
            self._stack.pop()

    # -- inspection ----------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Span | None:
        """First span with ``name`` across all roots."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def max_depth(self) -> int:
        """Deepest nesting level across all roots (0 when empty)."""
        return max((root.depth() for root in self.roots), default=0)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the span forest."""
        return {
            "spans": [root.as_dict() for root in self.roots],
            "max_depth": self.max_depth(),
        }

    def to_chrome_trace(self) -> dict[str, Any]:
        """The span forest in Chrome ``trace_event`` format."""
        return to_chrome_trace(self.roots)

    def report(self, max_depth: int | None = None) -> str:
        """Indented plain-text rendering of the span forest."""
        lines: list[str] = []

        def visit(node: Span, indent: int) -> None:
            attrs = ", ".join(
                f"{k}={v}" for k, v in sorted(node.attributes.items())
            )
            suffix = f"  [{attrs}]" if attrs else ""
            extra = ""
            if node.mem_alloc_bytes is not None:
                extra = f"  mem={node.mem_alloc_bytes / 1e6:+.2f}MB"
            lines.append(
                f"{'  ' * indent}{node.name}  "
                f"{node.wall_seconds * 1e3:9.2f}ms"
                f"{extra}{suffix}"
            )
            if max_depth is None or indent + 1 < max_depth:
                for child in node.children:
                    visit(child, indent + 1)

        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines) if lines else "(no spans recorded)"

    def __repr__(self) -> str:
        n = sum(1 for _ in self.walk())
        return f"Tracer(spans={n}, max_depth={self.max_depth()})"


_TRACER: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_tracer", default=None
)


def current_tracer() -> Tracer | None:
    """The ambient tracer, or ``None`` when tracing is disabled."""
    return _TRACER.get()


@contextlib.contextmanager
def tracing(
    tracer: Tracer | None = None, memory: bool = False
) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh one) as the ambient tracer.

    Nested ``tracing`` blocks shadow the outer tracer; the outer one
    is restored on exit. ``memory=True`` is forwarded to the fresh
    tracer when none is supplied.
    """
    active = tracer if tracer is not None else Tracer(memory=memory)
    active._enable_memory()
    token = _TRACER.set(active)
    try:
        yield active
    finally:
        _TRACER.reset(token)
        active._disable_memory()


def span(name: str, **attributes: Any):
    """Open a span in the ambient tracer (shared no-op span otherwise).

    The hot-path contract: with no tracer installed this is one
    contextvar read returning a module-level singleton — zero
    allocations when called without keyword attributes. Prefer
    ``with span("x") as sp: sp.set(...)`` over ``span("x", k=v)`` in
    per-block loops so the disabled path stays allocation-free.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.start_span(name, attributes or None)


# ---------------------------------------------------------------------------
# Chrome trace_event interchange


def to_chrome_trace(spans: list[Span]) -> dict[str, Any]:
    """Render a span forest as a Chrome ``trace_event`` JSON object.

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond timestamps; ``chrome://tracing`` and Perfetto render
    the containment hierarchy as a flamegraph. Attributes, CPU time
    and memory deltas land in ``args``.
    """
    events: list[dict[str, Any]] = []

    def visit(node: Span) -> None:
        args: dict[str, Any] = dict(node.attributes)
        args["cpu_seconds"] = node.cpu_seconds
        if node.mem_alloc_bytes is not None:
            args["mem_alloc_bytes"] = node.mem_alloc_bytes
        if node.rss_peak_delta_kb is not None:
            args["rss_peak_delta_kb"] = node.rss_peak_delta_kb
        events.append(
            {
                "name": node.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(node.start * 1e6, 3),
                "dur": round(node.wall_seconds * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
        for child in node.children:
            visit(child)

    for root in spans:
        visit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_from_chrome_trace(payload: dict[str, Any]) -> list[Span]:
    """Rebuild a span forest from :func:`to_chrome_trace` output.

    Nesting is recovered from interval containment (an event is a
    child of the innermost earlier event whose ``[ts, ts + dur)``
    range contains it), which is exactly how the trace viewers stack
    the events — so export → import round-trips the tree shape.
    """
    events = sorted(
        payload.get("traceEvents", []),
        key=lambda e: (e["ts"], -e["dur"]),
    )
    roots: list[Span] = []
    stack: list[tuple[float, Span]] = []  # (end ts, span)
    for event in events:
        args = dict(event.get("args", {}))
        node = Span(
            name=event["name"],
            start=event["ts"] / 1e6,
            wall_seconds=event["dur"] / 1e6,
            cpu_seconds=float(args.pop("cpu_seconds", 0.0)),
            mem_alloc_bytes=args.pop("mem_alloc_bytes", None),
            rss_peak_delta_kb=args.pop("rss_peak_delta_kb", None),
            attributes=args,
        )
        end = event["ts"] + event["dur"]
        # Pop completed enclosing intervals; a tiny slack absorbs the
        # microsecond rounding of the export.
        while stack and event["ts"] >= stack[-1][0] - 1e-3:
            stack.pop()
        (stack[-1][1].children if stack else roots).append(node)
        stack.append((end, node))
    return roots
