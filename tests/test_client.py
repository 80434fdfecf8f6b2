"""Streaming-client tests: flow control, drain, stalls, conservation."""

import copy
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from burststream import (AckEvent, DeliveryOrderError, FeedError,
                         StreamingClient)
from burststream.client import SegmentAcks
from burststream.errors import FieldError
from oracles import RecordingAcks, ack_stream

# every delivery records its parts, so that a test can read its stream
pytestmark = pytest.mark.usefixtures("recorded_acks")


def make_client(capacity=4_000_000, r_s=500e3, link=16e6, startup=2.0,
                **kw):
    return StreamingClient(capacity, r_s, link, startup_threshold_s=startup,
                           **kw)


class TestAckEvent:
    def test_fields_in_order_immutable_and_hashable(self):
        ack = AckEvent(1.5, 2920.0, 0.0)
        assert AckEvent._fields == ("time_s", "cum_ack_bytes",
                                    "advertised_window_bytes")
        assert (ack.time_s, ack.cum_ack_bytes,
                ack.advertised_window_bytes) == (1.5, 2920.0, 0.0)
        with pytest.raises(AttributeError):
            ack.time_s = 2.0
        assert ack == AckEvent(1.5, 2920.0, 0.0)
        assert len({ack, AckEvent(1.5, 2920.0, 0.0)}) == 1


class TestDeliver:
    def test_small_burst_no_zwa_acked_at_link_rate(self):
        c = make_client()
        res = c.deliver(1_000_000, 16e6, 0.0)
        assert res.zwa_episodes == 0
        assert res.end_s == pytest.approx(1_000_000 * 8 / 16e6)
        stream = ack_stream(res.acks)
        assert stream[-1].cum_ack_bytes == pytest.approx(1_000_000)
        assert all(a.advertised_window_bytes > 0 for a in stream)

    def test_overflow_trails_at_drain_rate(self):
        # free space plus 1 MB, playback held off: exactly one zero-window
        # episode, the trailing megabyte enters at the 500 kbit/s drain
        c = make_client(capacity=4_000_000, r_s=500e3, startup=1e9)
        res = c.deliver(5_000_000, 16e6, 0.0)
        assert res.zwa_episodes == 1
        assert res.bytes_at_first_zwa == pytest.approx(4_000_000)
        drain_span = res.end_s - res.first_zwa_time_s
        assert drain_span == pytest.approx(8e6 / 500e3, rel=0.01)

    def test_zwa_iff_buffer_full(self):
        c = make_client(capacity=1_000_000, r_s=500e3, startup=1e9)
        res = c.deliver(999_999, 16e6, 0.0)
        assert res.zwa_episodes == 0
        res = c.deliver(2, 16e6, res.end_s)
        assert res.zwa_episodes == 1
        assert c.advertised_window_bytes == 0.0

    def test_bytes_at_first_zwa_reflects_capacity(self):
        c = make_client(capacity=2_000_000, r_s=500e3, startup=0.0)
        res = c.deliver(8_000_000, 16e6, 0.0, abort_on_zwa=True)
        assert res.aborted
        # capacity plus what playback drained while the burst filled it
        fill_time = res.first_zwa_time_s
        expected = 2_000_000 + fill_time * 500e3 / 8
        assert res.bytes_at_first_zwa == pytest.approx(expected, rel=1e-6)
        assert res.delivered_bytes == res.bytes_at_first_zwa

    def test_fast_start_zwa_with_small_buffer(self):
        # 45 s of 2 Mbit/s content is 11.25 MB; a 7.75 MB client pins
        # during the initial fill
        c = make_client(capacity=7_750_000, r_s=2e6)
        res = c.deliver(45 * 2e6 / 8, 16e6, 0.0)
        assert res.zwa_episodes >= 1
        assert res.bytes_at_first_zwa < 45 * 2e6 / 8

    def test_past_delivery_rejected(self):
        c = make_client()
        c.advance(10.0)
        with pytest.raises(DeliveryOrderError):
            c.deliver(1000, 16e6, 5.0)

    def test_rate_capped_by_link(self):
        c = make_client(link=8e6)
        res = c.deliver(1_000_000, 16e6, 0.0)
        assert res.end_s == pytest.approx(1_000_000 * 8 / 8e6)

    def test_ack_granularity(self):
        c = make_client(segment_bytes=1460)
        res = c.deliver(14_600, 16e6, 0.0)
        # ten segment acks, cumulative sequence numbers
        assert [a.cum_ack_bytes for a in ack_stream(res.acks)] == \
            [1460.0 * k for k in range(1, 11)]


class TestAdvanceAndStalls:
    def test_half_drained_no_stall(self):
        # 10 s of content from t=0 with playback running throughout
        c = make_client(startup=0.0)
        c.deliver(10 * c.drain_bytes_per_s, 16e6, 0.0)
        c.advance(5.0)
        assert c.occupancy_bytes == pytest.approx(5 * c.drain_bytes_per_s)
        assert c.stall_log == []

    def test_stall_recorded_at_exhaustion_instant(self):
        # 5 s of content playing from t=0 runs dry at exactly t=5
        c = make_client(startup=0.0)
        c.deliver(5 * c.drain_bytes_per_s, 16e6, 0.0)
        c.advance(20.0)
        assert len(c.stall_log) == 1
        assert c.stall_log[0][0] == pytest.approx(5.0, rel=1e-9)

    def test_slow_link_causes_stall(self):
        # bandwidth below the encoding rate: playback cannot keep up
        c = make_client(r_s=1e6, startup=1.0)
        c.deliver(2_000_000, 0.5e6, 0.0)
        c.finalize()
        assert len(c.stall_log) >= 1

    def test_playback_starts_at_threshold(self):
        c = make_client(r_s=1e6, startup=2.0)
        c.deliver(100_000, 16e6, 0.0)
        assert not c.playback_started  # 100 kB < 2 s * 125 kB/s
        c.deliver(200_000, 16e6, c.now_s)
        assert c.playback_started

    def test_playback_completes_and_drain_stops(self):
        c = make_client(r_s=1e6, startup=0.0, content_duration_s=4.0)
        c.deliver(4 * 125_000, 16e6, 0.0)
        c.advance(60.0)
        assert c.playback_position_s >= c.content_duration_s - 1e-12
        assert c.stall_log == []

    @pytest.mark.xfail(raises=RuntimeError, strict=True,
                       reason="known defect: with a zero startup threshold "
                       "a stall opens and closes at once on an empty buffer "
                       "fed below the encoding rate, so delivery makes no "
                       "progress")
    def test_under_rate_supply_with_zero_startup_threshold(self):
        c = make_client(r_s=1e6, startup=0.0)
        res = c.deliver(1000, 0.5e6, 0.0)
        assert res.delivered_bytes == pytest.approx(1000)

    def test_zero_touch_at_refill_is_not_a_stall(self):
        # buffer drains to exactly zero the instant the next burst starts
        c = make_client(r_s=1e6, startup=0.0)
        res = c.deliver(125_000, 1e9, 0.0)  # 1 s of content, near-instant
        c.advance(1.0)
        assert c.occupancy_bytes == pytest.approx(0.0, abs=1e-3)
        c.deliver(125_000, 1e9, 1.0)
        c.finalize(3.0)
        assert all(s[1] - s[0] > 1e-9 for s in c.stall_log if s[1])
        assert len([s for s in c.stall_log if s[0] > 1e-9]) <= 1


class TestConservation:
    @given(st.lists(st.tuples(st.floats(1e3, 2e6), st.floats(1e6, 5e7),
                              st.floats(0.1, 30.0)), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_delivered_equals_drained_plus_occupancy(self, ops):
        c = make_client(capacity=3_000_000, r_s=750e3)
        t = 0.0
        for nbytes, rate, gap in ops:
            res = c.deliver(nbytes, rate, t)
            t = res.end_s + gap
            c.advance(t)
            assert c.total_delivered_bytes == pytest.approx(
                c.total_drained_bytes + c.occupancy_bytes, rel=1e-9,
                abs=1e-3)
            assert 0 <= c.occupancy_bytes <= c.capacity_bytes + 1e-6

    @given(st.floats(2e5, 4e6), st.floats(1e6, 3e7))
    @settings(max_examples=60, deadline=None)
    def test_window_is_capacity_minus_occupancy(self, nbytes, rate):
        c = make_client(capacity=2_000_000, r_s=500e3)
        res = c.deliver(nbytes, rate, 0.0)
        assert c.advertised_window_bytes == pytest.approx(
            c.capacity_bytes - c.occupancy_bytes)
        assert (res.zwa_episodes > 0) == \
            (c.capacity_bytes - c.occupancy_bytes <= c._eps or
             res.first_zwa_time_s is not None)


class TestPostZwaRate:
    def test_overflow_bytes_enter_at_drain_rate(self):
        c = make_client(capacity=2_000_000, r_s=500e3, startup=0.0)
        res = c.deliver(6_000_000, 16e6, 0.0)
        overflow_bytes = ack_stream(res.acks)[-1].cum_ack_bytes - \
            (res.bytes_at_first_zwa or 0.0)
        span = res.end_s - res.first_zwa_time_s
        avg_rate = overflow_bytes * 8 / span
        assert avg_rate == pytest.approx(500e3, rel=0.01)


class TestAckSummary:
    @given(st.lists(st.tuples(st.floats(0.0, 2e6), st.floats(1e6, 5e7),
                              st.floats(0.0, 30.0)), min_size=1, max_size=8),
           st.integers(100, 3000))
    @settings(max_examples=100, deadline=None)
    def test_reads_the_stream_of_every_prefix(self, ops, segment_bytes):
        # every prefix of a delivery's parts, the empty one and those
        # ending in a piece that crosses no segment boundary included: the
        # count is the length of the stream so far, the summary holds its
        # first and last ACK, and a regressed ACK is refused uncounted
        c = make_client(capacity=3_000_000, r_s=750e3,
                        segment_bytes=segment_bytes)
        t = 0.0
        for nbytes, rate, gap in ops:
            res = c.deliver(nbytes, rate, t)
            acks = RecordingAcks(segment_bytes, c.capacity_bytes)
            for part in [None, *res.acks.parts]:
                if isinstance(part, AckEvent):
                    acks.add_ack(part)
                elif part is not None:
                    acks.add_piece(part)
                stream = ack_stream(acks)
                assert len(acks) == len(stream)
                assert (acks.last_ack_bytes is None) == (len(acks) == 0)
                if len(acks):
                    summary = (acks.first_ack_s, acks.last_ack_s,
                               acks.last_ack_bytes)
                    assert summary == (stream[0].time_s, stream[-1].time_s,
                                       stream[-1].cum_ack_bytes)
                    with pytest.raises(FeedError):
                        acks.add_ack(AckEvent(acks.last_ack_s,
                                              acks.last_ack_bytes - 1.0, 1.0))
                    assert len(acks) == len(stream)
                    assert (acks.first_ack_s, acks.last_ack_s,
                            acks.last_ack_bytes) == summary
            t = res.end_s + gap

    def test_regressed_ack_rejected(self):
        acks = SegmentAcks(1460, 1e6)
        acks.add_ack(AckEvent(0.1, 3000.0, 1000.0))
        with pytest.raises(FeedError):
            acks.add_ack(AckEvent(0.2, 2000.0, 0.0))
        assert acks.last_ack_bytes == 3000.0 and len(acks) == 1


class TestClientRules:
    @pytest.mark.parametrize("field, value", [
        # a fraction of a byte divided by zero in ``deliver``, a negative
        # size gave a one-ACK stream
        ("segment_bytes", 0), ("segment_bytes", 0.5),
        ("segment_bytes", -1460), ("segment_bytes", math.nan),
        ("segment_bytes", math.inf),
        # a fractional segment size was cut to a whole one
        ("segment_bytes", 1.9),
        # NaN content played as endless, none or less than none as nothing
        ("content_duration_s", math.nan), ("content_duration_s", 0.0),
        ("content_duration_s", -5.0),
        ("startup_threshold_s", math.nan), ("startup_threshold_s", -1.0),
        ("startup_threshold_s", math.inf),
        # ``min`` dropped a NaN link rate
        ("link_rate_bps", math.nan), ("link_rate_bps", 0.0),
        ("link_rate_bps", -16e6)])
    def test_each_bad_value_names_its_field(self, field, value):
        with pytest.raises(FieldError) as err:
            StreamingClient(4_000_000, 500e3, **{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("content_s", [None, math.inf])
    def test_endless_content_and_a_whole_float_segment_pass(self, content_s):
        c = StreamingClient(4_000_000, 500e3, content_duration_s=content_s,
                            segment_bytes=1460.0)
        assert c.content_duration_s == math.inf and c.segment_bytes == 1460


class TestRateTooLowToEnd:
    @pytest.mark.parametrize("link, offered, field", [
        (1e-308, 16e6, "link_rate_bps"), (16e6, 1e-308, "at_rate_bps")])
    def test_endless_delivery_names_its_rate(self, link, offered, field):
        # the burst would take an endless time: it raised OverflowError
        # from the ACK arithmetic
        c = make_client(link=link)
        with pytest.raises(FieldError, match="finite time") as err:
            c.deliver(288_000, offered, 0.0)
        assert err.value.field == field


class TestSteadyDelivery:
    """``steady_delivery`` is ``deliver`` for a delivery that is one plain
    fluid piece, bit for bit, and declines every other delivery without
    writing anything."""

    @settings(max_examples=400, deadline=None)
    @given(capacity=st.floats(2e5, 2e7), r_s=st.floats(64e3, 4e6),
           fill=st.floats(0.05, 1.0), link=st.floats(0.5, 50.0),
           offered=st.floats(0.2, 10.0), wait=st.floats(0.0, 1.2),
           refill=st.floats(0.0, 1.5), seg=st.sampled_from((536, 1460)),
           content_s=st.sampled_from((math.inf, 60.0, 400.0)),
           sends=st.integers(1, 4))
    def test_equals_deliver_or_declines(self, capacity, r_s, fill, link,
                                        offered, wait, refill, seg,
                                        content_s, sends):
        # each send waits ``wait`` times what the buffer holds and refills
        # ``refill`` times what playback took meanwhile; the link runs at
        # ``link`` times the encoding rate
        client = make_client(capacity, r_s, link * r_s, segment_bytes=seg,
                             content_duration_s=content_s)
        client.deliver(fill * capacity, 4.0 * r_s, 0.0)
        for _ in range(sends):
            gap = wait * client.occupancy_bytes * 8.0 / r_s
            size, rate = refill * gap * r_s / 8.0, offered * r_s
            at = client.now_s + gap
            before = repr(vars(client))
            got = client.steady_delivery(size, rate, at)
            assert repr(vars(client)) == before      # nothing written
            twin = copy.deepcopy(client)
            try:
                res = twin.deliver(size, rate, at, abort_on_zwa=True)
            except RuntimeError:     # full, with the content played out
                assert got is None
                return
            event("declined" if got is None else "taken")
            if got is None:
                client = twin
                continue
            client.take_steady(got)
            assert repr(vars(client)) == repr(vars(twin))
            assert repr(got[:3]) == repr((res.end_s, res.delivered_bytes,
                                          res.acks.last_ack_bytes))
            assert res.zwa_episodes == 0 and res.acks.zwa_ack_s is None
            assert len(res.acks.parts) <= 2          # a piece and an ACK

    def test_a_pin_a_stall_and_the_content_end_decline(self):
        # a burst that pins the buffer, one into a buffer that runs dry
        # before it, and one past the end of the content
        c = make_client(1_000_000, 500e3, content_duration_s=100.0)
        c.deliver(500_000, 4e6, 0.0)
        assert c.steady_delivery(900_000, 4e6, c.now_s) is None
        assert c.steady_delivery(100_000, 4e6, c.now_s + 30.0) is None
        assert c.steady_delivery(100_000, 4e6, c.now_s + 1.0) is not None
        c.advance(98.0)
        assert c.steady_delivery(100_000, 4e6, 99.0) is None
