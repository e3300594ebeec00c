"""Seeded wire faults for fabric tests: drop, duplicate, sever.

:class:`WireChaos` wraps one :class:`~repro.fabric.SweepWorker`'s
``_exchange`` (its one request/reply seam) with a seeded fault model, so
the same settings against the same traffic misbehave identically.

The protocol is strict request-reply, so a lost frame cannot be modelled
by not sending it: both sides would wait on each other forever. A drop
is its observable equivalent instead, the connection closing
mid-exchange, and the worker's reconnect loop takes over:

- ``drop``: probability an exchange dies with its connection;
- ``duplicate``: probability a frame is sent twice (the duplicate's
  reply is drained, so the coordinator's at-most-once accounting is what
  keeps the result count right);
- ``sever_every``: hard-close the connection every Nth frame.
"""

from __future__ import annotations

import random
import socket

from repro.errors import ProtocolError


class WireChaos:
    """Seeded drop/duplicate/sever faults plus counters of each."""

    def __init__(self, *, drop=0.0, duplicate=0.0, sever_every=0, seed=0):
        self.drop = drop
        self.duplicate = duplicate
        self.sever_every = sever_every
        self.rng = random.Random(f"chaos:{seed}")
        self.frames = self.dropped = self.duplicated = self.severed = 0

    def attach(self, worker) -> "WireChaos":
        """Route ``worker``'s exchanges through this fault model."""
        worker._exchange = self.wrap(worker._exchange)
        return self

    def wrap(self, exchange):
        def chaotic(conn: socket.socket, message: dict):
            self.frames += 1
            if self.sever_every and self.frames % self.sever_every == 0:
                self.severed += 1
                _close(conn)
                raise ProtocolError(f"chaos: severed at frame {self.frames}")
            if self.drop and self.rng.random() < self.drop:
                self.dropped += 1
                _close(conn)
                raise ProtocolError(f"chaos: dropped frame {self.frames}")
            if self.duplicate and self.rng.random() < self.duplicate:
                self.duplicated += 1
                reply = exchange(conn, message)
                exchange(conn, message)
                return reply
            return exchange(conn, message)

        return chaotic


def _close(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    conn.close()
