"""The sweep coordinator: cell leases over a socket, results deduped in.

One :class:`SweepCoordinator` owns one sweep. It binds a TCP endpoint,
hands out cell leases to any worker that connects (``python -m repro
sweep-worker <host:port>``), collects streamed results into the caller's
``on_result`` hook (the checkpoint appender), and enforces the lease
table's at-most-once / work-stealing semantics. The coordinator never
executes cells itself — it is pure control plane, cheap enough to run in
a thread next to the driver that called :func:`repro.api.run_grid`.

Design notes:

- **Threaded, lock-per-table.** One accept thread plus one thread per
  connection; every lease-table mutation happens under a single lock.
  Sweep control traffic is a few messages per *cell*, so contention is
  negligible next to cell execution time.
- **Failure policy.** A cell error is retried on re-issue (a different
  worker may succeed — transient env trouble); when the cell's attempt
  budget is exhausted the sweep aborts: no more leases go out, cells
  already executing are recorded before their workers are told
  ``abort``, then waiting raises. An exception out of ``on_result``, or
  every forked worker dying with nobody else joined, fails the sweep at
  once. Completed cells are already in the checkpoint either way —
  nothing finished is re-paid.
- **Status sidecar.** With ``status_path`` set, the live lease-table
  snapshot is written atomically every tick; ``python -m repro
  sweep-status`` renders it during *and after* the run.
"""

from __future__ import annotations

import os
import json
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.comm.frames import decode_frame, frame_bytes
from repro.errors import FabricDrained, FabricError, ProtocolError
from repro.fabric.leases import DONE, FAILED, LeaseTable
from repro.fabric.protocol import (
    clamp_retry_s,
    format_endpoint,
    parse_endpoint,
    recv_msg,
    send_msg,
)

__all__ = ["SweepCoordinator", "FabricOptions", "parse_fabric",
           "run_fabric_cells"]

#: How often the accept loop ticks: lease expiry sweep + status write.
_TICK_S = 0.25
#: What workers are told to sleep before re-requesting when all cells
#: are leased out.
_RETRY_S = 0.5


class SweepCoordinator:
    """Serve one sweep's cells to fabric workers; collect results once."""

    def __init__(
        self,
        cells: Sequence[tuple[int, str, Mapping[str, Any]]],
        *,
        runner: str = "summary",
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl: float = 30.0,
        lease_size: int = 8,
        max_attempts: int = 3,
        on_result: Callable[[int, str, Any], None] | None = None,
        status_path: "str | os.PathLike | None" = None,
        resume_from: "str | os.PathLike | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        from repro.api.parallel import group_key
        from repro.api.spec import ExperimentSpec

        table_cells = []
        for index, key, spec in cells:
            spec = dict(spec)
            table_cells.append(
                (index, key, spec, group_key(ExperimentSpec.coerce(spec)))
            )
        self.runner = runner
        self.table = LeaseTable(
            table_cells,
            lease_ttl=lease_ttl,
            lease_size=lease_size,
            max_attempts=max_attempts,
        )
        self.on_result = on_result
        self.status_path = Path(status_path) if status_path else None
        #: The one time source behind lease deadlines, heartbeats and the
        #: status sidecar's ages (tests advance a fake instead of
        #: sleeping past a TTL).
        self._clock = clock
        self.results: dict[int, Any] = {}
        #: Result-plane byte accounting: every frame that arrives is
        #: counted, including the ones the lease table then drops as
        #: duplicates — that is the point (retransmits are paid bytes).
        self.comm_stats: dict[str, int] = {
            "frames": 0,
            "raw_bytes": 0,
            "wire_bytes": 0,
            "retransmits": 0,
            "retransmit_wire_bytes": 0,
        }
        self._host, self._port = host, port
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._stopping = threading.Event()
        self._error: Exception | None = None
        self._started_at: float | None = None
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._draining = False
        #: The worker processes the driver forked for this sweep, by the
        #: name each joins under (``run_fabric_cells`` fills it in).
        self._local: dict[str, Any] = {}
        #: Cells marked done from a previous incarnation's checkpoint.
        self.recovered = 0
        if resume_from is not None:
            self._recover_from(resume_from)
        if self.table.done:
            self._finished.set()

    def _recover_from(self, checkpoint: "str | os.PathLike") -> None:
        """Rebuild lease-table state from a previous incarnation.

        Seals the checkpoint JSONL (isolating any torn tail the killed
        coordinator left) and marks every recorded cell DONE so it is
        never re-leased; cumulative counters come from the status
        sidecar if one survives. ``on_result`` does *not* fire for
        recovered cells — they are already persisted.
        """
        from repro.api.parallel import SweepCheckpoint
        from repro.fabric.status import status_path_for

        ckpt = SweepCheckpoint(checkpoint)
        ckpt.seal()
        for index, key, summary in ckpt.entries():
            cell = self.table.cells.get(index)
            if cell is None or cell.key != key:
                continue  # a different sweep's line, or driver-filtered
            if self.table.mark_done(index):
                self.results[index] = summary
                self.recovered += 1
        try:
            live = json.loads(
                Path(status_path_for(checkpoint)).read_text()
            )
        except (OSError, json.JSONDecodeError):
            live = None
        if isinstance(live, dict):
            self.table.restore_counters(live)

    def drain(self) -> None:
        """Graceful SIGTERM drain: stop issuing leases, let in-flight
        results land (or their leases expire), then finish.

        Idle workers get ``drain`` on their next request and exit;
        results for already-issued leases are still accepted and flushed
        to the checkpoint. Unless the last results complete the sweep,
        :meth:`wait` raises :class:`FabricDrained` and the final status
        sidecar records the drain — relaunch with ``--resume`` to
        finish."""
        with self._lock:
            self._draining = True

    # -- lifecycle ---------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        """``host:port`` actually bound (resolves ``port=0`` ephemerals)."""
        if self._server is None:
            raise FabricError("coordinator not bound")
        return format_endpoint(self._host, self._server.getsockname()[1])

    def bind(self) -> "SweepCoordinator":
        """Bind and listen without serving yet.

        :attr:`endpoint` is valid from here on and the listen backlog
        holds early connects, so a driver can fork its local workers
        while it still has no coordinator thread, then :meth:`start`.
        """
        if self._server is not None:
            raise FabricError("coordinator already bound")
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((self._host, self._port))
        except OSError as exc:
            server.close()
            raise FabricError(
                f"cannot bind fabric coordinator on "
                f"{format_endpoint(self._host, self._port)}: {exc}"
            ) from exc
        server.listen(64)
        server.settimeout(_TICK_S)
        self._server = server
        return self

    def start(self) -> "SweepCoordinator":
        if self._accept_thread is not None:
            raise FabricError("coordinator already started")
        if self._server is None:
            self.bind()
        self._started_at = self._clock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-coordinator", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop serving; idempotent. Waiters see whatever state stands."""
        self._stopping.set()
        if self._accept_thread is not None:
            # A throwaway connect wakes accept() now; without it (or if
            # it fails) the loop notices at its next tick.
            try:
                socket.create_connection(
                    self._server.getsockname(), timeout=1.0
                ).close()
            except OSError:
                pass
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        if self._server is not None:
            self._server.close()
            self._server = None
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        for thread in self._conn_threads:
            thread.join(timeout=2.0)
        self._conn_threads.clear()
        self._write_status(final=True)

    def __enter__(self) -> "SweepCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def wait(self, timeout: float | None = None) -> dict[int, Any]:
        """Block until every cell is recorded; ``{index: summary}``.

        Raises the sweep's failure (a cell out of retry budget, whatever
        ``on_result`` raised, every forked worker gone) or
        :class:`FabricError` on timeout — partial results remain
        available on :attr:`results` and in the checkpoint either way.
        """
        if not self._finished.wait(timeout):
            raise FabricError(
                f"fabric sweep did not finish within {timeout}s "
                f"({self.describe()})"
            )
        if self._error is not None:
            raise self._error
        return dict(self.results)

    def describe(self) -> str:
        with self._lock:
            counts = self.table.status_counts()
        return (
            f"{counts['done']} done / {counts['leased']} in flight / "
            f"{counts['pending']} pending / {counts['failed']} failed"
        )

    # -- socket plumbing ---------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            self._tick()
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listening socket closed under us
            if self._stopping.is_set():
                conn.close()  # close()'s wake-up connect or a late arrival
                break
            conn.settimeout(60.0)
            with self._lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="fabric-conn", daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _tick(self) -> None:
        now = self._clock()
        with self._lock:
            self.table.expire(now)
            self._settle()
        self._write_status()

    def _settle(self) -> None:
        """Finish a sweep nothing more can arrive for (lock held): a
        draining or failed one once no lease is out, and one whose only
        workers are those the driver forked once they have all exited —
        a worker told the sweep is over leaves after it has finished, so
        these died, and nobody else was told where to join."""
        if self._finished.is_set():
            return
        abandoned = (
            bool(self._local)
            and self.table.workers.keys() <= self._local.keys()
            and not any(proc.is_alive() for proc in self._local.values())
        )
        stopping = self._draining or self._error is not None
        if not (abandoned or (stopping and not self.table.leases)):
            return
        if self._error is None and not self.table.done:
            left = sorted(
                i for i, cell in self.table.cells.items()
                if cell.status != DONE
            )
            total = len(self.table.cells)
            if self._draining:
                self._error = FabricDrained(
                    f"sweep drained on SIGTERM: {total - len(left)}/{total}"
                    " cell(s) recorded; relaunch with --resume to finish"
                )
            else:
                self._error = FabricError(
                    f"all {len(self._local)} forked worker(s) exited with "
                    f"{len(left)} cell(s) unrecorded: {left}"
                )
        self._finished.set()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    message = recv_msg(conn)
                except (ProtocolError, OSError):
                    break  # worker died mid-frame; leases expire on TTL
                if message is None or message["type"] == "bye":
                    break
                try:
                    reply = self._dispatch(message)
                except FabricError as exc:
                    reply = {"type": "error", "message": str(exc)}
                try:
                    send_msg(conn, reply)
                except OSError:
                    break
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # -- message handling --------------------------------------------------------------
    def _dispatch(self, message: dict) -> dict:
        mtype = message["type"]
        worker = str(message.get("worker", "anonymous"))
        now = self._clock()
        if mtype == "hello":
            with self._lock:
                self.table.touch(worker, now)
            return {
                "type": "welcome",
                "runner": self.runner,
                "total": len(self.table.cells),
            }
        if mtype == "heartbeat":
            with self._lock:
                self.table.touch(worker, now)
            return {"type": "ok"}
        if mtype == "request":
            return self._handle_request(worker, now)
        if mtype == "result":
            return self._handle_result(message, worker, now)
        raise FabricError(f"unknown fabric message type {mtype!r}")

    def _handle_request(self, worker: str, now: float) -> dict:
        with self._lock:
            if self._error is not None:
                return {"type": "abort", "message": str(self._error)}
            if self.table.done:
                return {"type": "done"}
            if self._draining:
                return {
                    "type": "drain",
                    "message": "coordinator draining (SIGTERM); "
                    "relaunch with --resume",
                }
            lease = self.table.acquire(worker, now)
            if lease is None:
                return {"type": "wait", "retry_s": clamp_retry_s(_RETRY_S)}
            return {
                "type": "lease",
                "lease": lease.lease_id,
                "runner": self.runner,
                "deadline_s": self.table.lease_ttl,
                "cells": [
                    {
                        "index": index,
                        "key": self.table.cells[index].key,
                        "spec": self.table.cells[index].spec,
                    }
                    for index in lease.indices
                ],
            }

    def _handle_result(self, message: dict, worker: str, now: float) -> dict:
        index = message.get("index")
        if not isinstance(index, int):
            raise FabricError("result message missing integer 'index'")
        if message.get("error") is not None:
            with self._lock:
                verdict = self.table.fail(
                    index, worker, str(message["error"]), now
                )
                if verdict == "fatal" and self._error is None:
                    cell = self.table.cells[index]
                    self._error = FabricError(
                        f"cell {index} failed {cell.attempts} time(s), "
                        f"last on worker {worker!r}: {cell.error}"
                    )
                return self._ack(worker, verdict)
        key = message.get("key")
        if not isinstance(key, str):
            raise FabricError("result message missing string 'key'")
        # A malformed frame raises ProtocolError, a FabricError: the
        # connection answers it with an error reply and stays open.
        framed = message.get("summary")
        raw_b, wire_b = frame_bytes(framed)
        summary = decode_frame(framed)
        with self._lock:
            stats = self.comm_stats
            stats["frames"] += 1
            stats["raw_bytes"] += raw_b
            stats["wire_bytes"] += wire_b
            verdict = self.table.complete(index, key, worker, now)
            if verdict != "recorded" or message.get("resend"):
                stats["retransmits"] += 1
                stats["retransmit_wire_bytes"] += wire_b
            if verdict == "recorded":
                try:
                    if self.on_result is not None:
                        self.on_result(index, key, summary)
                except Exception as exc:  # noqa: BLE001 - re-raised by wait()
                    # The hook (checkpoint append, progress callback) is
                    # where results are kept: the cell is not recorded
                    # and nothing after it would be.
                    cell = self.table.cells[index]
                    cell.status = FAILED
                    cell.error = f"on_result raised {type(exc).__name__}: {exc}"
                    if self._error is None:
                        self._error = exc
                    self._finished.set()
                    return {"type": "abort", "message": cell.error}
                self.results[index] = summary
                if self.table.done:
                    self._finished.set()
            return self._ack(worker, verdict)

    def _ack(self, worker: str, verdict: str) -> dict:
        """Reply to a result (lock held); in a failed sweep, the worker
        stops at the cell it just reported and its lease is dropped."""
        if self._error is None:
            return {"type": "ok", "status": verdict}
        self.table.release(worker)
        self._settle()
        return {"type": "abort", "message": str(self._error)}

    # -- status sidecar ----------------------------------------------------------------
    def _write_status(self, final: bool = False) -> None:
        if self.status_path is None:
            return
        now = self._clock()
        with self._lock:
            snap = self.table.snapshot(now)
            comm = dict(self.comm_stats)
        comm["ratio"] = (
            round(comm["raw_bytes"] / comm["wire_bytes"], 3)
            if comm["wire_bytes"] else 1.0
        )
        snap["comm"] = comm
        snap.update(
            fabric="sweep",
            runner=self.runner,
            draining=self._draining,
            recovered=self.recovered,
            endpoint=(
                self.endpoint if self._server is not None else None
            ),
            elapsed_s=round(
                now - self._started_at, 2
            ) if self._started_at is not None else 0.0,
            finished=self._finished.is_set(),
            error=str(self._error) if self._error is not None else None,
            updated_unix=time.time(),
        )
        if final:
            snap["finished"] = self._finished.is_set()
        tmp = self.status_path.with_name(self.status_path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(snap, indent=2) + "\n")
            os.replace(tmp, self.status_path)
        except OSError:
            pass  # a status view must never take the sweep down


class FabricOptions:
    """Parsed form of ``run_grid``'s ``fabric=`` argument."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        local_workers: int = 0,
        lease_ttl: float = 30.0,
        lease_size: int = 8,
        max_attempts: int = 3,
        graceful_sigterm: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.local_workers = int(local_workers)
        self.lease_ttl = float(lease_ttl)
        self.lease_size = int(lease_size)
        self.max_attempts = int(max_attempts)
        #: Install a SIGTERM handler that drains the sweep instead of
        #: dying mid-lease (``sweep --serve`` sets this).
        self.graceful_sigterm = bool(graceful_sigterm)


def parse_fabric(fabric) -> FabricOptions:
    """Interpret the user-facing ``fabric=`` spellings.

    - ``2859`` / ``"host:2859"`` — serve on that endpoint and wait for
      external ``sweep-worker`` processes (bare ports bind loopback;
      bind ``"0.0.0.0:port"`` to accept remote workers),
    - ``"local:N"`` — serve on an ephemeral loopback port and fork
      ``N`` local worker processes for the sweep's duration,
    - a dict — ``{"serve": port-or-endpoint, "local_workers": N,
      "lease_ttl": s, "lease_size": n, "max_attempts": n}``, any subset.
    """
    if isinstance(fabric, FabricOptions):
        return fabric
    if isinstance(fabric, int):
        host, port = parse_endpoint(fabric)
        return FabricOptions(host=host, port=port)
    if isinstance(fabric, str):
        text = fabric.strip()
        if text.startswith("local:"):
            try:
                n = int(text.split(":", 1)[1])
            except ValueError:
                raise FabricError(
                    f"invalid fabric spec {fabric!r}; expected 'local:N'"
                ) from None
            if n <= 0:
                raise FabricError("fabric 'local:N' needs N >= 1")
            return FabricOptions(local_workers=n)
        host, port = parse_endpoint(text)
        return FabricOptions(host=host, port=port)
    if isinstance(fabric, Mapping):
        known = {
            "serve", "local_workers", "lease_ttl", "lease_size",
            "max_attempts", "graceful_sigterm",
        }
        unknown = set(fabric) - known
        if unknown:
            raise FabricError(
                f"unknown fabric option(s) {sorted(unknown)}; "
                f"valid: {sorted(known)}"
            )
        host, port = "127.0.0.1", 0
        if fabric.get("serve") is not None:
            host, port = parse_endpoint(fabric["serve"])
        return FabricOptions(
            host=host,
            port=port,
            local_workers=fabric.get("local_workers", 0) or 0,
            lease_ttl=fabric.get("lease_ttl", 30.0),
            lease_size=fabric.get("lease_size", 8),
            max_attempts=fabric.get("max_attempts", 3),
            graceful_sigterm=fabric.get("graceful_sigterm", False),
        )
    raise FabricError(
        f"cannot interpret fabric spec {fabric!r}; pass a port, "
        "'host:port', 'local:N', or an options dict"
    )


def _publish_cell_datasets(
    cells: Sequence[tuple[int, str, Mapping[str, Any]]],
) -> tuple[list[Any], list[dict]]:
    """Publish each distinct dataset group in ``cells`` to shared memory.

    Returns ``(publications, manifests)``; both are empty when shared
    memory is unavailable (workers then materialize their own copies,
    the pre-shm behavior). Publication order follows first appearance.
    """
    from repro.data import shm as data_shm

    publications: list[Any] = []
    manifests: list[dict] = []
    seen: set[str] = set()
    for _index, _key, spec_dict in cells:
        dataset = spec_dict.get("dataset")
        seed = int(spec_dict.get("seed", 0))
        if dataset is None:
            continue
        shm_key = data_shm.dataset_shm_key(dataset, seed)
        if shm_key in seen:
            continue
        seen.add(shm_key)
        pub = data_shm.publish_dataset(dataset, seed)
        if pub is not None:
            publications.append(pub)
            manifests.append(pub.manifest)
    return publications, manifests


def run_fabric_cells(
    cells: Sequence[tuple[int, str, Mapping[str, Any]]],
    *,
    fabric,
    runner: str = "summary",
    on_result: Callable[[int, str, Any], None] | None = None,
    status_path: "str | os.PathLike | None" = None,
    resume_from: "str | os.PathLike | None" = None,
) -> dict[int, Any]:
    """Serve ``cells`` over the fabric until every one is recorded.

    The blocking driver half of a fabric sweep: starts a coordinator,
    optionally forks local worker processes (``fabric="local:N"``),
    and returns ``{index: summary-dict}``. ``on_result(index, key,
    summary)`` fires in completion order as results are *first* recorded
    — duplicates never reach it. ``resume_from`` replays a previous
    incarnation's checkpoint so recorded cells are never re-leased; with
    ``graceful_sigterm`` set, SIGTERM drains the sweep (raising
    :class:`FabricDrained` unless it happens to complete) instead of
    killing it mid-lease.
    """
    import signal

    from repro.fabric.worker import default_worker_name, spawn_local_workers

    options = parse_fabric(fabric)
    coordinator = SweepCoordinator(
        cells,
        runner=runner,
        host=options.host,
        port=options.port,
        lease_ttl=options.lease_ttl,
        lease_size=options.lease_size,
        max_attempts=options.max_attempts,
        on_result=on_result,
        status_path=status_path,
        resume_from=resume_from,
    )
    # Bind now, serve later: the endpoint exists for the workers, but
    # the accept loop starts only after they are forked, so the fork
    # happens in a process with no coordinator thread (the listen
    # backlog holds the workers' connects until then).
    coordinator.bind()
    workers = []
    prev_handler = None
    sigterm_installed = False
    if options.graceful_sigterm:
        try:
            prev_handler = signal.signal(
                signal.SIGTERM, lambda signum, frame: coordinator.drain()
            )
            sigterm_installed = True
        except ValueError:
            pass  # not the main thread; drain() is still callable directly
    publications: list[Any] = []
    try:
        if options.local_workers:
            # Same-host workers can map one shared-memory copy of each
            # distinct dataset group instead of materializing their own.
            # Remote workers joining the endpoint are unaffected — they
            # never see the manifests and materialize locally as always.
            publications, manifests = _publish_cell_datasets(cells)
            workers = spawn_local_workers(
                coordinator.endpoint,
                options.local_workers,
                manifests=manifests,
                listener=coordinator._server,
            )
            coordinator._local = {
                default_worker_name(proc.pid): proc for proc in workers
            }
            coordinator.table.min_workers = len(workers)
        coordinator.start()
        return coordinator.wait()
    finally:
        if sigterm_installed:
            signal.signal(signal.SIGTERM, prev_handler)
        coordinator.close()
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
        for proc in workers:
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
        for pub in publications:
            pub.unlink()
