"""The sweep worker: pull cell leases, execute, stream results back.

``python -m repro sweep-worker <host:port>`` runs one of these on any
host; :func:`spawn_local_workers` forks them from the sweep driver. A
worker is stateless from the fabric's point of view — it joins whenever it
starts, leaves whenever it dies, and the coordinator's lease deadlines
cover both cases. Cells execute through exactly the same path as the
in-process sweep loop: :func:`repro.api.parallel.resolve_runner` for the
cell body and :func:`~repro.api.parallel.prepare_shared`'s one-slot
cache for dataset/optimum reuse (leases are single-group batches, so the
cache hits on every cell after a lease's first).

Liveness: while a lease is executing, a background thread heartbeats the
coordinator over short-lived side connections (no socket sharing with
the result stream), pushing the lease deadline out. Kill the worker and
the heartbeats stop; one lease TTL later its unfinished cells are stolen.

Crash tolerance: every connection attempt uses capped exponential
backoff with jitter, and a broken session (coordinator killed, socket
severed, chaos-injected drop) is retried from a fresh connection rather
than abandoned — results already acked are safe under the coordinator's
at-most-once accounting, and a relaunched coordinator (``--resume``)
looks to the worker like a slow reconnect. Only two things end a worker:
the coordinator saying so (``done``/``abort``/``drain``) or the
reconnect budget (``max_connect_attempts``) running dry.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import socket
import sys
import threading
import time
from typing import Any, Callable, Mapping

from repro.comm.frames import encode_frame
from repro.errors import FabricError, ProtocolError
from repro.fabric.chaos import ChaosConfig, ChaosLink
from repro.fabric.protocol import (
    clamp_retry_s,
    parse_endpoint,
    recv_msg,
    send_msg,
)

__all__ = ["SweepWorker", "spawn_local_workers"]


def default_worker_name(pid: int) -> str:
    """What process ``pid`` joins as (how a driver knows its forks)."""
    return f"{socket.gethostname()}-{pid}"


class SweepWorker:
    """One fabric worker process (or thread, in tests)."""

    def __init__(
        self,
        endpoint: str,
        *,
        name: str | None = None,
        max_connect_attempts: int = 12,
        connect_backoff_s: float = 0.2,
        connect_backoff_cap_s: float = 3.0,
        chaos: "ChaosConfig | str | dict | None" = None,
        log: Callable[[str], None] | None = None,
        connect_retries: int | None = None,
        connect_retry_s: float | None = None,
    ) -> None:
        self.host, self.port = parse_endpoint(endpoint)
        self.name = name or default_worker_name(os.getpid())
        # Legacy spellings from the fixed-sleep era map onto the backoff
        # knobs: retries -> attempt budget, retry_s -> backoff base.
        if connect_retries is not None:
            max_connect_attempts = connect_retries
        if connect_retry_s is not None:
            connect_backoff_s = connect_retry_s
        if max_connect_attempts < 1:
            raise FabricError(
                f"max_connect_attempts must be >= 1, got {max_connect_attempts}"
            )
        if connect_backoff_s <= 0 or connect_backoff_cap_s <= 0:
            raise FabricError("connect backoff times must be positive")
        self.max_connect_attempts = int(max_connect_attempts)
        self.connect_backoff_s = float(connect_backoff_s)
        self.connect_backoff_cap_s = float(connect_backoff_cap_s)
        chaos_cfg = ChaosConfig.coerce(chaos)
        #: Seeded fault model on the request/reply stream, or ``None``.
        self.chaos: ChaosLink | None = (
            ChaosLink(chaos_cfg)
            if chaos_cfg is not None and not chaos_cfg.quiet
            else None
        )
        self.log = log or (lambda line: None)
        self.cells_done = 0
        self.leases_taken = 0
        self._joined = False
        #: Cells this worker has already shipped once. A torn session
        #: re-leases the unacked cell back to us; the second send is
        #: flagged so the coordinator's comm ledger counts it as a
        #: retransmit even though the lease table records it only once.
        self._sent_cells: set[tuple[int, str]] = set()
        # Deterministic per-name jitter: a fleet of workers restarting
        # together fans out instead of thundering back in lockstep.
        self._rng = random.Random(f"{self.name}:backoff")

    # -- connections -------------------------------------------------------------------
    def _backoff_sleep(self, attempt: int) -> None:
        """Capped exponential backoff with jitter before retry ``attempt``."""
        base = min(
            self.connect_backoff_s * (2.0 ** attempt),
            self.connect_backoff_cap_s,
        )
        time.sleep(base * (0.5 + self._rng.random()))

    def _connect(self) -> socket.socket:
        last: Exception | None = None
        attempts = self.max_connect_attempts
        for attempt in range(attempts):
            try:
                conn = socket.create_connection(
                    (self.host, self.port), timeout=30.0
                )
                conn.settimeout(60.0)
                return conn
            except OSError as exc:
                last = exc
                if attempt + 1 < attempts:
                    self._backoff_sleep(attempt)
        raise FabricError(
            f"cannot reach coordinator at {self.host}:{self.port} "
            f"after {attempts} attempt(s): {last}"
        )

    def _exchange(self, conn: socket.socket, message: dict) -> dict | None:
        """One request/reply, routed through the chaos link when set."""
        if self.chaos is not None:
            return self.chaos.exchange(conn, message)
        send_msg(conn, message)
        return recv_msg(conn)

    def _heartbeat_loop(self, stop: threading.Event, interval: float) -> None:
        """Prove liveness over throwaway connections until ``stop`` is set.

        A separate socket per beat keeps the main request/result stream
        strictly request-reply — no cross-thread frame interleaving.
        """
        while not stop.wait(interval):
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=5.0
                ) as conn:
                    send_msg(
                        conn, {"type": "heartbeat", "worker": self.name}
                    )
                    recv_msg(conn)
            except (OSError, ProtocolError):
                return  # coordinator gone; the main loop will notice

    # -- cell execution ----------------------------------------------------------------
    def _run_cell(self, runner: str, cell: dict) -> dict:
        """Run one cell; returns the ``result`` message to send."""
        from repro.api.parallel import resolve_runner

        base = {
            "type": "result",
            "worker": self.name,
            "index": cell["index"],
            "key": cell["key"],
        }
        try:
            summary = resolve_runner(runner)(cell["spec"])
        except Exception as exc:  # noqa: BLE001 - report, don't die
            return {**base, "error": f"{type(exc).__name__}: {exc}"}
        return {**base, "summary": encode_frame(summary)}

    def _run_lease(self, conn: socket.socket, lease: dict) -> bool:
        """Execute one lease; ``False`` when the coordinator aborted."""
        self.leases_taken += 1
        runner = lease.get("runner", "summary")
        deadline_s = float(lease.get("deadline_s", 30.0))
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(stop, max(deadline_s / 3.0, 0.2)),
            name=f"fabric-heartbeat-{self.name}",
            daemon=True,
        )
        beat.start()
        try:
            for cell in lease["cells"]:
                message = self._run_cell(runner, cell)
                sent_key = (int(cell["index"]), str(cell["key"]))
                if sent_key in self._sent_cells:
                    message["resend"] = True
                self._sent_cells.add(sent_key)
                ack = self._exchange(conn, message)
                if ack is None:
                    # Coordinator vanished mid-lease: surface as a torn
                    # session so the reconnect loop takes over (the
                    # unacked cell will be re-leased and re-run).
                    raise ProtocolError(
                        "coordinator closed the connection mid-lease"
                    )
                if ack["type"] == "abort":
                    return False
                if ack["type"] == "error":
                    raise FabricError(
                        f"coordinator rejected result: {ack.get('message')}"
                    )
                status = ack.get("status")
                if status == "recorded":
                    self.cells_done += 1
                self.log(
                    f"[{self.name}] cell {cell['index']}: "
                    f"{status or message.get('error', 'sent')}"
                )
        finally:
            stop.set()
            beat.join(timeout=2.0)
        return True

    # -- main loop ---------------------------------------------------------------------
    def _session(self, conn: socket.socket) -> None:
        """One connected session: handshake, then lease/execute until the
        coordinator ends the sweep. Raises :class:`ProtocolError` /
        ``OSError`` on a torn connection (the caller reconnects)."""
        reply = self._exchange(conn, {"type": "hello", "worker": self.name})
        if reply is None or reply["type"] != "welcome":
            raise FabricError(f"coordinator handshake failed: {reply!r}")
        verb = "rejoined" if self._joined else "joined"
        self._joined = True
        self.log(
            f"[{self.name}] {verb} {self.host}:{self.port} "
            f"({reply['total']} cells, runner={reply['runner']!r})"
        )
        while True:
            reply = self._exchange(
                conn, {"type": "request", "worker": self.name}
            )
            if reply is None:
                # Clean EOF without a terminal verdict: coordinator went
                # down (or was SIGKILLed between frames). Reconnect.
                raise ProtocolError("coordinator closed the connection")
            if reply["type"] == "lease":
                if not self._run_lease(conn, reply):
                    return  # aborted
            elif reply["type"] == "wait":
                time.sleep(clamp_retry_s(reply.get("retry_s", 0.5)))
            elif reply["type"] == "drain":
                self.log(
                    f"[{self.name}] coordinator draining: "
                    f"{reply.get('message', '')}"
                )
                return
            elif reply["type"] in ("done", "abort"):
                return
            else:
                raise FabricError(
                    f"unexpected coordinator reply {reply['type']!r}"
                )

    def run(self) -> dict[str, int]:
        """Work until the coordinator reports the sweep over (or gone).

        Returns ``{"cells": completed, "leases": taken}``. A torn
        session triggers reconnection with backoff; once the reconnect
        budget is exhausted *after* having joined, the worker exits
        cleanly with whatever it completed (an unreachable endpoint on
        the *first* join still raises — that is a config error, not a
        crash).
        """
        while True:
            try:
                conn = self._connect()
            except FabricError as exc:
                if not self._joined:
                    raise
                self.log(f"[{self.name}] giving up: {exc}")
                break
            try:
                self._session(conn)
                try:
                    send_msg(conn, {"type": "bye", "worker": self.name})
                except (OSError, ProtocolError):
                    pass
                break
            except (OSError, ProtocolError) as exc:
                self.log(f"[{self.name}] session lost ({exc}); reconnecting")
                continue
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        self.log(
            f"[{self.name}] leaving: {self.cells_done} cell(s) over "
            f"{self.leases_taken} lease(s)"
        )
        return {"cells": self.cells_done, "leases": self.leases_taken}


def _local_worker_main(
    endpoint: str,
    manifests: list[Mapping[str, Any]] | None,
    quiet: bool,
    listener: socket.socket | None,
) -> None:
    """Body of one local worker process, started by ``multiprocessing``."""
    # A forked child carries the driver's signal handlers (its graceful
    # SIGTERM handler would call ``coordinator.drain()`` in here instead
    # of dying) and a copy of the listening socket (which would keep the
    # port open after the coordinator closes). Neither is a worker's.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if listener is not None:
        listener.close()
    if quiet:
        sink = open(os.devnull, "w")
        os.dup2(sink.fileno(), 1)
        os.dup2(sink.fileno(), 2)
        sys.stdout = sys.stderr = sink
    from repro.data.shm import set_active_manifests

    set_active_manifests(manifests)
    SweepWorker(endpoint).run()


def spawn_local_workers(
    endpoint: str,
    count: int,
    *,
    quiet: bool = True,
    manifests: list[Mapping[str, Any]] | None = None,
    listener: socket.socket | None = None,
) -> list[multiprocessing.Process]:
    """Start ``count`` worker processes against ``endpoint``.

    Workers are forked from the calling process where the platform can
    fork (the platform's default start method elsewhere), so they start
    from the driver's already-imported ``repro`` — components registered
    in the driver are visible to them — and leave through ``os._exit``
    without finalizing an interpreter. Fork from a single-threaded
    driver: hand over the coordinator's bound ``listener`` (each child
    closes its copy) and start the accept loop afterwards. ``manifests``
    points the workers at the driver's published shared-memory datasets.
    """
    forking = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if forking else None)
    # Only a forked child inherits the listening descriptor.
    args = (endpoint, manifests, quiet, listener if forking else None)
    workers = [
        ctx.Process(target=_local_worker_main, args=args, daemon=True)
        for _ in range(count)
    ]
    for proc in workers:
        proc.start()
    return workers
