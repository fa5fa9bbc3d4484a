"""Write-ahead run journal: crash-safe progress records for resume.

Schema ``repro-journal/v1``: one JSON object per line, appended
*atomically* — each record is serialized to a single line, written
with one ``os.write`` on an ``O_APPEND`` descriptor and fsynced, so a
crash (SIGKILL, OOM, power loss) can lose at most a partial trailing
line, which :func:`read_journal` detects and skips. Record types:

- ``run_start`` — run id, kind/name, dataset fingerprint, mode and
  the driver's config (enough for ``repro resume`` to rebuild the
  work);
- ``stage_done`` — one per completed stage execution: plan name,
  stage index/name, artifact key, seconds, attempts;
- ``stage_attempt_failed`` — one per failed attempt: the exception
  type/message, attempt number and budget state (feeds
  ``repro runs show --failures``);
- ``point_done`` — one per completed sweep grid point: a
  deterministic *point key* (dataset × lineage × parameter × mode)
  plus the full scalar result payload, so a resumed sweep replays the
  point without recomputing anything;
- ``run_end`` — terminal status (missing after a crash).

Resume reads the journal through :class:`JournalReplay`:
``repro resume <journal>`` (and ``Executor(resume_from=...)`` /
``sweep_*(..., resume=True)``) replays every recorded ``point_done``
and serves recorded ``stage_done`` artifacts from the content-addressed
cache, recomputing only the unfinished tail. Replay is keyed on the
same content addresses as the artifact cache, so any change to the
dataset, stage configs or mode silently invalidates stale records
instead of resuming into wrong results.

Journal failures never kill the run they exist to protect: an
unwritable append (ENOSPC, permissions) disables the journal for the
rest of the run and emits an
:class:`~repro.exceptions.ExecutionWarning` (code
``journal_write_failed``).

A journal is always handed over as an argument (``Executor(journal=)``,
``SymmetrizeClusterPipeline.run(journal=)``, ``sweep_*(journal=)``);
nothing journals unless it was given one.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import warnings
from pathlib import Path
from typing import Any

from repro.engine.cache import canonical_json, config_hash
from repro.engine.chaos import chaos
from repro.exceptions import ExecutionWarning, ReproError
from repro.obs.metrics import metric_inc

__all__ = [
    "JOURNAL_SCHEMA",
    "RunJournal",
    "JournalReplay",
    "JournalTailer",
    "read_journal",
    "point_key",
]

#: Schema tag written into every journal record; bump on breaking
#: changes to the record shapes.
JOURNAL_SCHEMA = "repro-journal/v1"


def point_key(
    dataset_sha: str,
    lineage: list[str] | tuple[str, ...],
    parameter: Any,
    mode: str,
) -> str:
    """Deterministic identity of one sweep grid point.

    Hashes the dataset fingerprint, the point plan's stage lineage
    (so any config change — clusterer, threshold recipe, (α, β) —
    invalidates recorded results), the swept parameter and the
    robustness mode. Stable across processes, like artifact keys.
    """
    return config_hash(
        {
            "dataset": dataset_sha,
            "lineage": list(lineage),
            "parameter": parameter,
            "mode": mode,
        }
    )[:32]


class RunJournal:
    """Crash-safe, append-only progress log for one (or more) runs.

    Parameters
    ----------
    path:
        The JSONL journal file (created on first append; parent
        directories are created as needed).
    run_id:
        Identity of the run whose records this writer emits. Derived
        deterministically from the first :meth:`start` call when
        omitted, so an interrupted process and its resumer agree on
        the id without coordination.
    """

    def __init__(
        self, path: str | Path, run_id: str | None = None
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.disabled = False
        self.started = False
        self.records_written = 0
        self._fd: int | None = None
        # The service daemon shares one journal between its event
        # loop and the worker thread executing the job; serialize fd
        # creation and the write/fsync/counter sequence.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Low-level atomic append
    # ------------------------------------------------------------------
    def _ensure_fd(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path,
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
        return self._fd

    def append(self, record: dict[str, Any]) -> bool:
        """Append one record atomically; returns False if disabled.

        The record is serialized to one canonical-JSON line and
        written with a single ``write`` + ``fsync``. Any ``OSError``
        (full disk, revoked permissions) disables the journal for the
        rest of the run with a structured warning — losing resume
        capability must never lose the run itself.
        """
        if self.disabled:
            return False
        payload = {
            "schema": JOURNAL_SCHEMA,
            "run_id": self.run_id,
            **record,
        }
        line = canonical_json(payload) + "\n"
        try:
            with self._lock:
                chaos("journal.append")
                fd = self._ensure_fd()
                os.write(fd, line.encode())
                os.fsync(fd)
                self.records_written += 1
        except OSError as exc:
            self.disabled = True
            self._close()
            warnings.warn(
                ExecutionWarning(
                    f"journal {self.path} disabled after write "
                    f"failure: {exc}",
                    code="journal_write_failed",
                ),
                stacklevel=2,
            )
            metric_inc("journal_write_failures_total")
            return False
        return True

    def _close(self) -> None:
        with self._lock:
            if self._fd is not None:
                with contextlib.suppress(OSError):
                    os.close(self._fd)
                self._fd = None

    def close(self) -> None:
        """Release the file descriptor (appends reopen lazily)."""
        self._close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Record writers
    # ------------------------------------------------------------------
    def start(
        self,
        kind: str,
        name: str,
        dataset_sha: str,
        mode: str,
        config: dict[str, Any] | None = None,
    ) -> str:
        """Write the ``run_start`` record (idempotent per writer).

        Derives and returns the run id when none was given: a hash of
        (kind, name, dataset, mode, config), so the resuming process
        recomputes the same id from the same work description.
        """
        if self.started:
            return self.run_id or ""
        if self.run_id is None:
            self.run_id = config_hash(
                {
                    "kind": kind,
                    "name": name,
                    "dataset_sha": dataset_sha,
                    "mode": mode,
                    "config": config or {},
                }
            )[:12]
        self.started = True
        self.append(
            {
                "type": "run_start",
                "kind": kind,
                "name": name,
                "dataset_sha": dataset_sha,
                "mode": mode,
                "config": config or {},
                "created_unix": time.time(),
            }
        )
        return self.run_id

    def ensure_started(
        self,
        kind: str,
        name: str,
        dataset_sha: str,
        mode: str,
        config: dict[str, Any] | None = None,
    ) -> None:
        """Write ``run_start`` unless one was already written."""
        if not self.started:
            self.start(kind, name, dataset_sha, mode, config)

    def record_stage(
        self,
        plan_name: str,
        index: int,
        stage: str,
        artifact_key: str | None,
        seconds: float,
        attempts: int,
    ) -> None:
        """Write one ``stage_done`` record."""
        self.append(
            {
                "type": "stage_done",
                "plan": plan_name,
                "index": index,
                "stage": stage,
                "artifact_key": artifact_key,
                "seconds": seconds,
                "attempts": attempts,
            }
        )

    def record_attempt_failure(
        self,
        plan_name: str,
        stage: str,
        attempt: int,
        exc: BaseException,
        budget: dict[str, Any] | None = None,
        fatal: bool = False,
    ) -> None:
        """Write one ``stage_attempt_failed`` record."""
        self.append(
            {
                "type": "stage_attempt_failed",
                "plan": plan_name,
                "stage": stage,
                "attempt": attempt,
                "error": type(exc).__name__,
                "message": str(exc),
                "budget": budget or {},
                "fatal": fatal,
            }
        )

    def record_point(
        self, key: str, parameter: Any, payload: dict[str, Any]
    ) -> None:
        """Write one ``point_done`` record for a sweep grid point."""
        self.append(
            {
                "type": "point_done",
                "point_key": key,
                "parameter": parameter,
                "payload": payload,
            }
        )

    def finish(self, status: str = "complete") -> None:
        """Write the terminal ``run_end`` record."""
        self.append({"type": "run_end", "status": status})

    def __repr__(self) -> str:
        state = "disabled" if self.disabled else "active"
        return (
            f"RunJournal({str(self.path)!r}, run_id={self.run_id!r}, "
            f"{state}, records={self.records_written})"
        )


def read_journal(path: str | Path) -> list[dict[str, Any]]:
    """Every well-formed record in the journal, in append order.

    A partial trailing line — the signature of a crash mid-append —
    is skipped with an :class:`ExecutionWarning` (code
    ``journal_truncated``); a malformed line *before* the end means
    real corruption and raises.
    """
    source = Path(path)
    if not source.exists():
        raise ReproError(f"journal not found: {source}")
    raw = source.read_text()
    lines = raw.split("\n")
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            is_last = all(
                not later.strip() for later in lines[lineno:]
            )
            if is_last:
                warnings.warn(
                    ExecutionWarning(
                        f"journal {source}: skipped partial trailing "
                        f"record at line {lineno} (crash mid-append)",
                        code="journal_truncated",
                    ),
                    stacklevel=2,
                )
                break
            raise ReproError(
                f"{source}:{lineno}: malformed journal record: {exc}"
            ) from exc
        if record.get("schema") != JOURNAL_SCHEMA:
            raise ReproError(
                f"{source}:{lineno}: unsupported journal schema "
                f"{record.get('schema')!r}; expected {JOURNAL_SCHEMA}"
            )
        records.append(record)
    return records


class JournalTailer:
    """Incremental reader of a journal another process is appending to.

    The service daemon's ``GET /jobs/<id>/events`` endpoint streams a
    running job's progress by tailing its journal. Unlike
    :func:`read_journal` — which reads a *finished* file and treats a
    partial trailing line as a crash signature — a tailer must expect
    to race the writer: a record can be half-written when we poll
    (``os.write`` is atomic on the writer side, but the reader can
    still observe a short read of the file's tail growing under it),
    and the file may not even exist yet. Both are transient, so the
    tailer retries them instead of declaring truncation:

    - bytes after the last newline are left unconsumed; the offset
      only advances past complete lines, so the next :meth:`poll`
      re-reads the (by then completed) record;
    - a missing file polls as ``[]`` until the writer's first append
      creates it.

    A complete line that fails to parse is real corruption and
    raises, exactly like :func:`read_journal`.
    """

    def __init__(
        self, path: str | Path, run_id: str | None = None
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.offset = 0
        self.records_read = 0

    def poll(self) -> list[dict[str, Any]]:
        """Every complete record appended since the last poll."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        # Only consume up to the last newline: whatever follows is a
        # record the writer has not finished appending yet. Next poll
        # starts from the same offset and sees the completed line.
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return []
        complete, self.offset = chunk[: cut + 1], (
            self.offset + cut + 1
        )
        records: list[dict[str, Any]] = []
        for raw in complete.split(b"\n"):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{self.path}: malformed journal record while "
                    f"tailing: {exc}"
                ) from exc
            if record.get("schema") != JOURNAL_SCHEMA:
                raise ReproError(
                    f"{self.path}: unsupported journal schema "
                    f"{record.get('schema')!r} while tailing; "
                    f"expected {JOURNAL_SCHEMA}"
                )
            if (
                self.run_id is not None
                and record.get("run_id") != self.run_id
            ):
                continue
            records.append(record)
            self.records_read += 1
        return records

    def __repr__(self) -> str:
        return (
            f"JournalTailer({str(self.path)!r}, "
            f"offset={self.offset}, read={self.records_read})"
        )


class JournalReplay:
    """Completed work recorded in a journal, indexed for resume.

    Attributes
    ----------
    run_id:
        The run whose records were selected.
    run_start:
        The ``run_start`` record (or ``None`` if the journal never
        got that far).
    completed_stages:
        Artifact keys of every recorded ``stage_done`` — the executor
        serves these from the artifact cache without re-running the
        stage.
    completed_points:
        ``point_key -> payload`` of every recorded ``point_done`` —
        sweeps rebuild these grid points without executing anything.
    failures:
        Every ``stage_attempt_failed`` record, for the ``--failures``
        view.
    finished:
        Whether a terminal ``run_end`` record was found.
    """

    def __init__(
        self,
        records: list[dict[str, Any]],
        run_id: str | None = None,
    ) -> None:
        if run_id is None:
            for record in records:
                if record.get("type") == "run_start":
                    run_id = record.get("run_id")
                    break
        self.run_id = run_id
        selected = [
            r
            for r in records
            if run_id is None or r.get("run_id") == run_id
        ]
        self.run_start: dict[str, Any] | None = next(
            (r for r in selected if r.get("type") == "run_start"),
            None,
        )
        self.completed_stages: set[str] = {
            r["artifact_key"]
            for r in selected
            if r.get("type") == "stage_done"
            and r.get("artifact_key")
        }
        self.completed_points: dict[str, dict[str, Any]] = {
            r["point_key"]: r
            for r in selected
            if r.get("type") == "point_done"
        }
        self.failures: list[dict[str, Any]] = [
            r
            for r in selected
            if r.get("type") == "stage_attempt_failed"
        ]
        self.finished = any(
            r.get("type") == "run_end" for r in selected
        )

    @classmethod
    def from_path(
        cls, path: str | Path, run_id: str | None = None
    ) -> "JournalReplay":
        """Load and index a journal file."""
        return cls(read_journal(path), run_id=run_id)

    def point(self, key: str) -> dict[str, Any] | None:
        """The recorded payload for ``key``, or ``None``."""
        record = self.completed_points.get(key)
        return record["payload"] if record is not None else None

    def __len__(self) -> int:
        return len(self.completed_stages) + len(
            self.completed_points
        )

    def __repr__(self) -> str:
        return (
            f"JournalReplay(run_id={self.run_id!r}, "
            f"stages={len(self.completed_stages)}, "
            f"points={len(self.completed_points)}, "
            f"finished={self.finished})"
        )
