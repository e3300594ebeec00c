"""COMM subsystem: compressor grammar, exact-byte packets, parity pins,
error-feedback convergence, SAGA's model-channel pruning, per-run
managers, and fabric frames.

The load-bearing guarantees, in test order:

- ``compressor="none"`` is *bit-identical* to running with no COMM layer
  at all (digest equality, not tolerance), while still populating the
  per-run ledger.
- Lossy codecs under error feedback stay within 2x of the ``none`` error
  at an equal update budget — on a spec run and, hand-wired, under
  scripted arrival orders — while saving at least 5x on
  collect-direction wire bytes.
- HIST byte accounting and the comm ledger speak the same units
  (both measure with ``sizeof_bytes``).
- SAGA's prune floors let ASAGA's ``keep="all"`` model channel be
  pruned without changing the trajectory.
- Each run of one prepared spec gets its own manager: two runs of one
  ``PreparedExperiment`` agree on ``w`` and on every ledger scalar.
- Fabric result frames round-trip and duplicate/resent results are
  counted (and priced) as retransmits by the coordinator.
"""

import base64
import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import COMPRESSORS, run_experiment
from repro.api.runner import prepare_experiment
from arrival_orders import ORDERS, ScriptedOrder

from repro.comm import (
    CommManager,
    Packet,
    decode_frame,
    encode_frame,
    frame_bytes,
    parse_compressor,
)
from repro.comm.compressors import NoneCompressor, TopKCompressor
from repro.comm.frames import FRAME_KEY
from repro.data.synthetic import make_classification
from repro.engine.context import ClusterContext
from repro.errors import ApiError, ProtocolError, ReproError
from repro.optim import (
    ConstantStep,
    LogisticRegressionProblem,
    OptimizerConfig,
    build_optimizer,
)
from repro.utils.sizeof import sizeof_bytes

ALL_TOKENS = ("none", "topk:0.1", "onebit")


# ---------------------------------------------------------------------------
# Grammar and registry
# ---------------------------------------------------------------------------

def test_registry_lists_every_compressor():
    assert set(COMPRESSORS.names()) == {"none", "topk", "onebit"}


def test_parse_compressor_spellings():
    assert isinstance(parse_compressor(None), NoneCompressor)
    assert isinstance(parse_compressor("none"), NoneCompressor)
    topk = parse_compressor("topk:0.25")
    assert isinstance(topk, TopKCompressor) and topk.fraction == 0.25
    by_dict = parse_compressor({"name": "topk", "fraction": 0.5})
    assert by_dict.name == "topk" and by_dict.fraction == 0.5
    # An instance passes through; spec() round-trips the grammar.
    assert parse_compressor(topk) is topk
    assert parse_compressor(topk.spec()).fraction == topk.fraction


@pytest.mark.parametrize("bad", ["topk:0", "topk:1.5", "topk:-0.1"])
def test_bad_fractions_rejected(bad):
    with pytest.raises(ReproError, match="fraction"):
        parse_compressor(bad)


def test_unknown_compressor_rejected():
    with pytest.raises(ReproError):
        parse_compressor("gzip")


def test_overflowing_fraction_is_a_typed_error():
    """A 400-digit integer used to escape as a bare OverflowError."""
    with pytest.raises(ApiError):
        parse_compressor("topk:" + "9" * 400)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(),
    st.tuples(
        st.sampled_from(COMPRESSORS.names()),
        st.one_of(
            st.integers().map(str),
            st.floats().map(repr),
            st.text(alphabet="0123456789.e-+_naif", max_size=12),
            st.text(max_size=8),
        ),
    ).map(lambda t: f"{t[0]}:{t[1]}"),
))
def test_any_text_is_a_compressor_or_a_typed_error(text):
    try:
        comp = parse_compressor(text)
    except ReproError:
        return
    assert isinstance(comp, COMPRESSORS.get(comp.name))


# ---------------------------------------------------------------------------
# Packets: exact byte counts and round-trips
# ---------------------------------------------------------------------------

def _header_bytes(ndim: int, narrays: int) -> int:
    """A packet's fixed header: magic(2) + version(1) + scheme(1) +
    dtype(1) + ndim(1) + shape(8 each) + narrays(1) + (dtype(1) +
    length(4)) per array."""
    return 7 + 8 * ndim + 5 * narrays


#: Wire bytes of the packet of a 257-entry float64 vector, per scheme.
WIRE_257 = {
    # 257 float64 entries, whole.
    "none": _header_bytes(1, 1) + 257 * 8,
    # ceil(0.1 * 257) = 26 int32 indices and 26 float64 values.
    "topk:0.1": _header_bytes(1, 2) + 26 * 4 + 26 * 8,
    # ceil(257 / 8) = 33 bytes of packed signs and one float64 scale.
    "onebit": _header_bytes(1, 2) + 33 + 8,
}


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_packet_roundtrip_exact_bytes(token):
    rng = np.random.default_rng(0)
    grad = rng.standard_normal(257)
    comp = parse_compressor(token)
    packet = comp.compress(grad)
    assert packet.wire_bytes == WIRE_257[token]
    assert packet.scheme == comp.name
    assert packet.shape == grad.shape
    restored = comp.decompress(packet)
    assert restored.shape == grad.shape
    assert np.all(np.isfinite(restored))
    if not comp.lossy:
        assert np.array_equal(restored, grad)


def test_lossy_packets_actually_shrink():
    grad = np.random.default_rng(2).standard_normal(1024)
    raw = grad.nbytes
    for token in ("topk:0.1", "onebit"):
        comp = parse_compressor(token)
        packet = comp.compress(grad)
        assert packet.wire_bytes < raw / 2, token


# ---------------------------------------------------------------------------
# Parity: compressor="none" is bit-identical to no COMM layer at all
# ---------------------------------------------------------------------------

PARITY_SPEC = {
    "algorithm": "asgd",
    "dataset": "synth_logistic",
    "problem": "logistic",
    "num_workers": 4,
    "num_partitions": 8,
    "max_updates": 60,
    "eval_every": 10,
    "seed": 7,
}


def _digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(np.asarray(res.w)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(res.trace.snapshots)).tobytes())
    h.update(repr(tuple(res.trace.times_ms)).encode())
    h.update(repr((res.updates, res.rounds, res.elapsed_ms)).encode())
    return h.hexdigest()


def test_none_compressor_bit_identical_with_ledger():
    bare = run_experiment(PARITY_SPEC)
    wired = run_experiment({**PARITY_SPEC, "compressor": "none"})
    assert _digest(bare) == _digest(wired)
    assert "comm_raw_bytes" not in bare.extras
    assert wired.extras["comm_compressor"] == "none"
    assert wired.extras["comm_raw_bytes"] > 0
    assert wired.extras["comm_raw_bytes"] == wired.extras["comm_wire_bytes"]
    assert wired.extras["comm_ratio"] == 1.0
    comm = wired.extras["comm"]
    assert comm["delta"] is False
    assert comm["collect"]["raw_bytes"] > 0
    # A run's ledger counts its own traffic only: fabric retransmits are
    # the sweep coordinator's (``comm_stats``), never a run's zero.
    assert "comm_retransmits" not in wired.extras
    assert not {"retransmits", "retransmit_wire_bytes"} & set(comm)


def test_compressor_rejected_on_sync_optimizers():
    with pytest.raises(ApiError, match="synchronous"):
        run_experiment({
            "algorithm": "sgd", "dataset": "tiny_dense",
            "max_updates": 4, "compressor": "topk:0.1",
        })


# ---------------------------------------------------------------------------
# Error-feedback convergence at equal update budget (Sim backend)
# ---------------------------------------------------------------------------

WIDE_SPEC = {
    **PARITY_SPEC,
    "dataset": {"name": "synth_logistic", "d": 512},
    "max_updates": 80,
}


@pytest.mark.parametrize("token,min_savings", [
    ("topk:0.1", 5.0),
    ("onebit", 5.0),
])
def test_lossy_ef_converges_within_2x_at_5x_fewer_bytes(token, min_savings):
    none = run_experiment({**WIDE_SPEC, "compressor": "none"})
    lossy = run_experiment({**WIDE_SPEC, "compressor": token})
    assert lossy.updates == none.updates  # equal update budget
    from repro.api.runner import prepare_experiment

    prep = prepare_experiment({**WIDE_SPEC, "compressor": "none"})
    err_none = prep.problem.error(none.w)
    err_lossy = prep.problem.error(lossy.w)
    assert err_lossy <= 2.0 * err_none, (token, err_lossy, err_none)
    savings = (
        none.extras["comm_collect_wire_bytes"]
        / lossy.extras["comm_collect_wire_bytes"]
    )
    assert savings >= min_savings, (token, savings)
    # Raw bytes on the collect path are comparable; only wire shrinks.
    assert (
        lossy.extras["comm_collect_wire_bytes"]
        < lossy.extras["comm_collect_raw_bytes"]
    )


# ---------------------------------------------------------------------------
# Error-feedback convergence under scripted arrival orders
# ---------------------------------------------------------------------------

def _scripted_logistic_run(compressor, order):
    X, y, _ = make_classification(128, 16, seed=5)
    problem = LogisticRegressionProblem(X, y)
    with ClusterContext(2, delay_model=ScriptedOrder(order)) as ctx:
        points = ctx.matrix(X, y, 2).cache()
        opt = build_optimizer(
            "asgd", ctx, points, problem, ConstantStep(0.05),
            OptimizerConfig(batch_fraction=0.5, max_updates=16, seed=0),
        )
        if compressor is not None:
            opt.comm = CommManager.coerce(compressor)
        res = opt.run()
    return problem.error(res.w), res


@pytest.mark.parametrize("order", ORDERS)
def test_lossy_ef_converges_under_scripted_orders(order):
    err_none, res_none = _scripted_logistic_run("none", order)
    err_bare, _ = _scripted_logistic_run(None, order)
    assert err_none == err_bare  # 'none' moves no numbers in any order
    for token in ("topk:0.25", "onebit"):
        err, res = _scripted_logistic_run(token, order)
        assert err <= 2.0 * err_none, (token, err, err_none)
        assert (
            res.extras["comm_collect_wire_bytes"]
            < res_none.extras["comm_collect_wire_bytes"]
        )


# ---------------------------------------------------------------------------
# The residual shortcut and the delta mirror stay bit-identical
# ---------------------------------------------------------------------------

def _f64(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


#: Values a dense ``x - decompress(...)`` must agree with bit for bit.
#: Quiet NaNs only: arithmetic never produces a signalling NaN, and
#: ``x - 0.0`` would quiet one where the in-place path leaves it be.
_SPECIAL_FLOATS = [
    0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-310,
    np.nan, _f64(0xFFF8000000000000), _f64(0x7FF8000000000123),
    _f64(0xFFF80000DEADBEEF),
]

_vectors = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_subnormal=True),
        st.sampled_from(_SPECIAL_FLOATS),
    ),
    min_size=8, max_size=64,
).map(lambda xs: np.array(xs, dtype=np.float64))


@settings(max_examples=150, deadline=None)
@given(
    token=st.sampled_from(["topk:0.25", "onebit"]),
    x=_vectors,
    partition=st.sampled_from([None, 3]),
)
def test_stored_residual_is_x_minus_decompress_bit_for_bit(token, x, partition):
    from repro.cluster.backend import WorkerEnv
    from repro.comm.codec import PayloadCodec

    comp = parse_compressor(token)
    env = WorkerEnv(2)
    with np.errstate(all="ignore"):
        enc = PayloadCodec(comp).encode((x,), env, partition)
        packet = enc.tree[0]
        want = x - comp.decompress(packet)
    residuals = env.get(("comm_ef", -1 if partition is None else partition))
    got = residuals[0]
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # The encoded tree's wire measure is the packet plus the tuple.
    assert enc.wire_bytes == 64 + packet.wire_bytes


def test_delta_fetch_does_not_keep_a_mirrors_negative_zero():
    """``recon = mirror + decompress(packet)`` turns a mirror's -0.0 into
    +0.0 where the packet carries nothing; an in-place scatter-add into
    the mirror would keep -0.0 and drift from every pinned trajectory."""
    from repro.cluster.backend import WorkerEnv
    from repro.core.history import HistoryChannel

    comm = CommManager.coerce({"name": "topk", "fraction": 0.25, "delta": True})
    channel = HistoryChannel(0, "model")
    v0 = np.zeros(16)
    v0[::2] = -0.0
    v1 = v0.copy()
    v1[[1, 5, 9, 13]] = [4.0, -3.0, 2.0, -1.0]
    channel.append(v0)
    channel.append(v1)
    env = WorkerEnv(0)

    first, _ = comm.fetch_channel_value(channel, 0, env)
    assert np.array_equal(first.view(np.uint64), v0.view(np.uint64))
    recon, wire = comm.fetch_channel_value(channel, 1, env)

    comp = comm.compressor
    want = v0 + comp.decompress(comp.compress(v1 - v0))
    assert np.array_equal(recon.view(np.uint64), want.view(np.uint64))
    assert not np.signbit(recon[::2]).any()  # every -0.0 became +0.0
    assert wire < channel.nbytes(1)


# ---------------------------------------------------------------------------
# HIST and the ledger speak the same units
# ---------------------------------------------------------------------------

def test_ledger_rejects_an_unknown_direction():
    from repro.comm.ledger import CommLedger

    ledger = CommLedger("topk:0.1")
    with pytest.raises(ReproError, match="unknown comm direction 'upload'"):
        ledger.record("upload", 10, 5)
    ledger.record("collect", 10, 5)
    assert ledger.totals() == (10, 5)


def test_payload_nbytes_matches_hist_units():
    """A HIST channel charges each version ``sizeof_bytes`` of the value,
    the measure the COMM ledger's raw bytes use."""
    from repro.core.history import HistoryChannel

    channel = HistoryChannel(0, "units")
    samples = [
        np.zeros(17),
        (np.ones(8), 42),
        {"w": np.arange(5.0), "n": 3},
        None,
    ]
    for value in samples:
        version = channel.append(value)
        assert channel.nbytes(version) == sizeof_bytes(value)


_payload_leaves = st.one_of(
    st.integers(8, 40).map(lambda n: np.linspace(-1.0, 2.0, n)),
    st.integers(8, 40).map(lambda n: np.linspace(-1.0, 2.0, n, dtype=np.float32)),
    st.integers(0, 7).map(lambda n: np.ones(n)),  # too small to compress
    st.integers(0, 20).map(lambda n: np.arange(n)),
    st.integers(-5, 5),
    st.none(),
)
_payload_trees = st.recursive(
    _payload_leaves, lambda kids: st.lists(kids, max_size=4).map(tuple),
    max_leaves=10,
)


def _expected_wire(node) -> int:
    if isinstance(node, tuple):
        return 64 + sum(_expected_wire(child) for child in node)
    if isinstance(node, Packet):
        return _header_bytes(len(node.shape), len(node.arrays)) + sum(
            a.nbytes for a in node.arrays
        )
    return sizeof_bytes(node)


@settings(max_examples=100, deadline=None)
@given(
    token=st.sampled_from(["topk:0.25", "onebit"]),
    payload=_payload_trees,
)
def test_encode_keeps_ledger_units_on_mixed_trees(token, payload):
    """One walk sums both measures: raw is ``sizeof_bytes`` of the
    payload, wire is every packet's serialized size plus the passthrough
    leaves and tuples at their raw size."""
    from repro.cluster.backend import WorkerEnv
    from repro.comm.codec import PayloadCodec

    codec = PayloadCodec(parse_compressor(token))
    env = WorkerEnv(1)
    for _ in range(2):  # the second encode carries residuals
        enc = codec.encode(payload, env, 4)
        assert enc.raw_bytes == sizeof_bytes(payload)
        assert enc.wire_bytes == _expected_wire(enc.tree)


# ---------------------------------------------------------------------------
# Watermarks: pruning SAGA's keep="all" model channel, delta broadcast
# ---------------------------------------------------------------------------

ASAGA_SPEC = {
    "algorithm": "asaga",
    "dataset": "synth_logistic",
    "num_workers": 4,
    "num_partitions": 8,
    "batch_fraction": 1.0,
    "max_updates": 40,
    "eval_every": 10,
    "seed": 3,
}


def _total_evictions(res) -> int:
    return sum(
        ch["evicted_versions"] for ch in res.extras["history"].values()
    )


def test_watermarks_prune_saga_model_channel_bit_identically():
    bare = run_experiment(ASAGA_SPEC)
    wired = run_experiment({**ASAGA_SPEC, "compressor": "none"})
    assert np.array_equal(bare.w, wired.w)
    # batch_fraction=1.0 advances every partition's watermark each
    # round, so the keep="all" model channel actually sheds versions.
    assert _total_evictions(wired) > _total_evictions(bare)
    assert wired.extras["comm_broadcast_raw_bytes"] > 0


@pytest.mark.parametrize("compressor", [
    {"name": "topk", "fraction": 0.1, "delta": True}, "none",
], ids=["topk-delta", "none"])
def test_one_prep_run_twice_repeats_its_first_run(compressor):
    """Delta mirrors, error-feedback residuals and ledger rows belong to
    one run: a second ``run_in`` of the same prep starts from none."""
    prep = prepare_experiment({**ASAGA_SPEC, "compressor": compressor})
    runs = []
    for _ in range(2):
        with prep.make_context() as ctx:
            runs.append(prep.run_in(ctx))
    first, second = runs
    assert np.array_equal(first.w, second.w)
    ledger = {k: v for k, v in first.extras.items() if k.startswith("comm_")}
    assert ledger and ledger == {
        k: v for k, v in second.extras.items() if k.startswith("comm_")
    }


def test_delta_broadcast_ships_fewer_model_bytes():
    res = run_experiment({
        **ASAGA_SPEC,
        "dataset": {"name": "synth_logistic", "d": 256},
        "compressor": {"name": "topk", "fraction": 0.2, "delta": True},
    })
    assert res.extras["comm"]["delta"] is True
    assert (
        res.extras["comm_broadcast_wire_bytes"]
        < res.extras["comm_broadcast_raw_bytes"]
    )
    assert np.all(np.isfinite(res.w))


# ---------------------------------------------------------------------------
# Fabric result frames + retransmit accounting
# ---------------------------------------------------------------------------

def test_frame_roundtrip_and_byte_counts():
    payload = {"final_error": 0.25, "updates": 40, "spec": {"seed": [1, 2]}}
    frame = encode_frame(payload)
    assert FRAME_KEY in frame and FRAME_KEY not in payload
    assert decode_frame(frame) == payload
    assert decode_frame(payload) == payload  # plain dicts pass through
    raw, wire = frame_bytes(frame)
    assert raw == frame["raw_bytes"] and wire == frame["wire_bytes"]
    plain_raw, plain_wire = frame_bytes(payload)
    assert plain_raw == plain_wire > 0


def test_malformed_frame_raises_protocol_error():
    frame = encode_frame({"a": 1})
    frame["data"] = "!!!not-base64!!!"
    with pytest.raises(ProtocolError, match="malformed"):
        decode_frame(frame)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_armored = st.binary(max_size=48).map(lambda b: base64.b64encode(b).decode())
_deflated = st.binary(max_size=48).map(
    lambda b: base64.b64encode(zlib.compress(b)).decode()
)


@settings(max_examples=400, deadline=None)
@given(
    payload=_json,
    overrides=st.dictionaries(
        st.sampled_from([FRAME_KEY, "data", "raw_bytes", "wire_bytes"]),
        _json | _armored | _deflated, max_size=4,
    ),
    dropped=st.sets(st.sampled_from(["data", "raw_bytes", "wire_bytes"])),
)
def test_any_frame_keyed_dict_decodes_or_raises_protocol_error(
    payload, overrides, dropped
):
    """Result frames come off the network: whatever sits under the frame
    key, both readers return a value or a ProtocolError, never a bare
    TypeError/ValueError out of the coordinator's connection thread."""
    frame = {**encode_frame(payload), **overrides}
    for key in dropped:
        del frame[key]
    for read in (frame_bytes, decode_frame):
        try:
            out = read(frame)
        except ProtocolError:
            continue
        if read is frame_bytes:
            assert all(type(n) is int and n >= 0 for n in out)
        elif not {FRAME_KEY, "data"} & (overrides.keys() | dropped):
            assert out == payload


def test_frame_inflation_is_capped(monkeypatch):
    """A frame inflating past the message cap is refused, not expanded
    (spaces deflate ~1000x: 52 kB of frame was 40 MB of JSON)."""
    monkeypatch.setattr("repro.comm.frames.MAX_MESSAGE_BYTES", 1 << 16)
    bomb = encode_frame({"pad": " " * (1 << 17)})
    assert len(bomb["data"]) < 1 << 10
    with pytest.raises(ProtocolError, match="inflates past"):
        decode_frame(bomb)
    assert decode_frame(encode_frame({"pad": " " * 1000}))["pad"] == " " * 1000


def _mini_coordinator():
    from repro.api.parallel import run_key
    from repro.api.spec import ExperimentSpec
    from repro.fabric.coordinator import SweepCoordinator

    spec = ExperimentSpec(max_updates=10, seed=0)
    cells = [(0, run_key(spec), spec.to_dict())]
    return SweepCoordinator(cells), cells[0][1]


def test_coordinator_decodes_frames_and_counts_retransmits():
    coordinator, key = _mini_coordinator()
    summary = {"final_error": 0.5}
    message = {
        "type": "result", "worker": "w1", "index": 0, "key": key,
        "summary": encode_frame(summary),
    }
    ack = coordinator._handle_result(dict(message), "w1", now=1.0)
    assert ack["status"] == "recorded"
    assert coordinator.results[0] == summary  # decoded, not the frame
    stats = coordinator.comm_stats
    assert stats["frames"] == 1 and stats["retransmits"] == 0
    assert stats["wire_bytes"] > 0
    # The same result landing again (post-steal duplicate) is dropped by
    # the lease table but its bytes were still paid: count it.
    ack = coordinator._handle_result(dict(message), "w2", now=2.0)
    assert ack["status"] == "duplicate"
    assert coordinator.comm_stats["retransmits"] == 1
    assert coordinator.comm_stats["retransmit_wire_bytes"] > 0


def test_coordinator_counts_worker_flagged_resends():
    coordinator, key = _mini_coordinator()
    message = {
        "type": "result", "worker": "w1", "index": 0, "key": key,
        "summary": encode_frame({"final_error": 0.5}), "resend": True,
    }
    ack = coordinator._handle_result(message, "w1", now=1.0)
    # First recording still succeeds, but the torn-session resend is
    # visible in the comm stats.
    assert ack["status"] == "recorded"
    assert coordinator.comm_stats["retransmits"] == 1


def test_worker_ships_framed_summaries(monkeypatch):
    from repro.fabric.worker import SweepWorker

    worker = SweepWorker("127.0.0.1:1", name="t")
    monkeypatch.setattr(
        "repro.api.parallel.run_cell",
        lambda spec: {"final_error": 0.125, "spec": spec},
    )
    message = worker._run_cell({
        "index": 0, "key": "k", "spec": {"seed": 1},
    })
    assert FRAME_KEY in message["summary"]
    assert decode_frame(message["summary"])["final_error"] == 0.125


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_list_enumerates_compressors(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "compressors: " in out
    assert "compressors: none, onebit, topk" in out
    for name in ("randk", "int8"):
        assert name not in out
    assert "error feedback" in out
