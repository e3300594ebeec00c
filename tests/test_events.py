"""Event queue: ordering, tie-breaking, cancellation."""

from hypothesis import given, strategies as st

from repro.cluster.events import EventQueue


def test_pops_in_time_order():
    q = EventQueue()
    order = []
    q.push(3.0, lambda: order.append(3))
    q.push(1.0, lambda: order.append(1))
    q.push(2.0, lambda: order.append(2))
    while q:
        q.pop().callback()
    assert order == [1, 2, 3]


def test_ties_break_by_insertion_order():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(5.0, lambda i=i: order.append(i))
    while q:
        q.pop().callback()
    assert order == list(range(10))


def test_cancelled_events_are_skipped():
    q = EventQueue()
    fired = []
    ev = q.push(1.0, lambda: fired.append("a"))
    q.push(2.0, lambda: fired.append("b"))
    q.cancel(ev)
    while q:
        q.pop().callback()
    assert fired == ["b"]


def test_len_tracks_live_events():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    q.cancel(e1)
    assert len(q) == 1
    q.pop()
    assert len(q) == 0
    assert not q


def test_double_cancel_counts_once():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(ev)
    q.cancel(ev)
    assert len(q) == 1


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_callbacks_receive_their_args():
    q = EventQueue()
    fired = []
    q.push(2.0, fired.append, "b")
    q.push(1.0, lambda *args: fired.append(args), 1, "x", None)
    ev = q.pop()
    ev.callback(*ev.args)
    ev = q.pop()
    ev.callback(*ev.args)
    assert fired == [(1, "x", None), "b"]


@given(
    events=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 1.5, 2.0, 1e6]), st.booleans()),
        max_size=60,
    ),
)
def test_property_pops_in_time_then_push_order_skipping_cancelled(events):
    """Many events share a timestamp: pops follow ``(time, seq)`` — time,
    then push order — and a cancelled event is never returned."""
    q = EventQueue()
    fired = []
    for seq, (time, cancel) in enumerate(events):
        ev = q.push(time, fired.append, seq)
        if cancel:
            q.cancel(ev)
    assert len(q) == sum(not cancel for _, cancel in events)
    while q:
        ev = q.pop()
        ev.callback(*ev.args)
    expected = sorted(
        (time, seq) for seq, (time, cancel) in enumerate(events) if not cancel
    )
    assert fired == [seq for _, seq in expected]
    assert q.pop() is None


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=100))
def test_property_pops_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while q:
        popped.append(q.pop().time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)
