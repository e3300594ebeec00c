"""COMM: the communication subsystem — every byte that crosses the wire.

Three pillars, all spec-addressable through the ``compressor`` field:

- :mod:`repro.comm.compressors` — the ``Compressor`` component family
  (``none`` / ``topk:f`` / ``onebit``) with
  exact-byte-count packets and a registry + string grammar,
- :mod:`repro.comm.codec` + :mod:`repro.comm.manager` — worker-side
  error-feedback encoding of collect payloads and delta broadcasting
  against each worker's mirror (the last model it reconstructed); SAGA
  keeps its own prune floor for its ``keep="all"`` model channel
  (:class:`~repro.optim.saga.SagaState`),
- :mod:`repro.comm.ledger` — the per-run raw/wire byte ledger surfaced
  in ``RunResult.extras["comm"]`` (plus :mod:`repro.comm.frames` for the
  sweep fabric's compressed result frames).
"""

from repro.comm.codec import EncodedPayload, PayloadCodec
from repro.comm.compressors import (
    Compressor,
    NoneCompressor,
    OneBitCompressor,
    Packet,
    TopKCompressor,
    parse_compressor,
)
from repro.comm.frames import decode_frame, encode_frame, frame_bytes
from repro.comm.ledger import CommLedger
from repro.comm.manager import CommManager

__all__ = [
    "Compressor",
    "NoneCompressor",
    "TopKCompressor",
    "OneBitCompressor",
    "Packet",
    "parse_compressor",
    "EncodedPayload",
    "PayloadCodec",
    "CommLedger",
    "CommManager",
    "encode_frame",
    "decode_frame",
    "frame_bytes",
]
