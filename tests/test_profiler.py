"""Profiler tests: burst timing and ZWA capture, and the delivery's
breakpoint summary held to the profiler fed every ACK."""

import random
from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from burststream import (AckEvent, BandwidthTrace, FeedError, QualityLevel,
                         SimulatedSession, StreamingClient, StreamSpec,
                         TrafficProfiler)
from burststream import session as session_module
from burststream.client import FluidPiece
from burststream.session import _observe
from oracles import RecordingAcks, ack_stream

# every delivery records its parts, so that a test can read its stream
pytestmark = pytest.mark.usefixtures("recorded_acks")


def run_burst(profiler, client, size, rate, start, burst_id=None,
              abort=False):
    profiler.begin_burst(size, client.total_delivered_bytes, start,
                         burst_id=burst_id)
    res = client.deliver(size, rate, start, abort_on_zwa=abort)
    for ack in ack_stream(res.acks):
        profiler.ingest(ack)
    return profiler.finish_burst(), res


class TestIngest:
    def test_clean_burst_completes_without_zwa(self):
        profiler = TrafficProfiler()
        client = StreamingClient(8_000_000, 500e3, 16e6)
        obs, _ = run_burst(profiler, client, 1_000_000, 16e6, 0.0)
        assert obs.complete
        assert not obs.zwa_seen
        assert obs.acked_bytes == pytest.approx(1_000_000)

    def test_burst_duration_is_first_to_last_ack_span(self):
        profiler = TrafficProfiler()
        profiler.begin_burst(2920, 0.0, 0.0)
        profiler.ingest(AckEvent(1.0, 1460, 1e6))
        obs = profiler.ingest(AckEvent(3.0, 2920, 1e6))
        assert obs is not None and obs.t_bd_s == pytest.approx(2.0)

    def test_zwa_sentbytes_captured(self):
        profiler = TrafficProfiler()
        client = StreamingClient(7_300_000, 2e6, 16e6,
                                 startup_threshold_s=1e9)
        obs, res = run_burst(profiler, client, 8_000_000, 16e6, 0.0)
        assert obs.zwa_seen
        assert obs.sent_bytes_at_first_zwa == pytest.approx(7_300_000)
        assert obs.complete  # drain finished the burst
        # end-to-end agreement with the client's own account
        assert (res.zwa_episodes > 0) == obs.zwa_seen

    def test_incomplete_when_aborted(self):
        profiler = TrafficProfiler()
        client = StreamingClient(1_000_000, 500e3, 16e6,
                                 startup_threshold_s=1e9)
        obs, _ = run_burst(profiler, client, 3_000_000, 16e6, 0.0,
                           abort=True)
        assert obs.zwa_seen and not obs.complete
        assert obs.acked_bytes < 3_000_000

    def test_regression_rejected(self):
        profiler = TrafficProfiler()
        profiler.begin_burst(5000, 0.0, 0.0)
        profiler.ingest(AckEvent(0.1, 3000, 1000))
        with pytest.raises(FeedError):
            profiler.ingest(AckEvent(0.2, 2000, 1000))

    def test_no_pipelining(self):
        profiler = TrafficProfiler()
        profiler.begin_burst(1000, 0.0, 0.0)
        with pytest.raises(FeedError):
            profiler.begin_burst(1000, 1000.0, 1.0)

    def test_cross_burst_attribution(self):
        profiler = TrafficProfiler()
        client = StreamingClient(8_000_000, 500e3, 16e6)
        obs1, res1 = run_burst(profiler, client, 1_000_000, 16e6, 0.0)
        obs2, _ = run_burst(profiler, client, 500_000, 16e6,
                            res1.end_s + 1.0)
        assert obs2.burst_id == obs1.burst_id + 1
        assert obs2.acked_bytes == pytest.approx(500_000)


# -- the breakpoint summary against the dense per-segment stream ------------

SEGMENT_SIZES = (536, 1460, 9000)


def observe(acks, size, start_byte, send_at):
    """The reference: a profiler fed ``acks`` one at a time."""
    profiler = TrafficProfiler()
    profiler.begin_burst(size, start_byte, send_at)
    for ack in acks:
        profiler.ingest(ack)
    return profiler.finish_burst()


def assert_summary_of(acks, size, start_byte, send_at):
    """Require the count of ``acks`` to be the length of the dense stream,
    its summary to hold the first and last ACK and the first zero-window
    ACK of that stream, and the observation read off it to equal the
    profiler's of that stream, field by field; then require a regressed
    ACK to be refused, neither counted nor folded in."""
    dense = ack_stream(acks)
    assert len(acks) == len(dense)
    zwa = next((a for a in dense if a.advertised_window_bytes <= 0), None)
    summary = (acks.first_ack_s, acks.last_ack_s, acks.last_ack_bytes,
               acks.zwa_ack_s, acks.zwa_ack_bytes)
    assert summary[:3] == (
        (dense[0].time_s, dense[-1].time_s, dense[-1].cum_ack_bytes)
        if dense else (None, None, None))
    assert summary[3:] == (
        (zwa.time_s, zwa.cum_ack_bytes) if zwa else (None, None))
    assert asdict(_observe(acks, 0, size, start_byte, send_at)) == \
        asdict(observe(dense, size, start_byte, send_at))
    if dense:
        with pytest.raises(FeedError):
            acks.add_ack(AckEvent(acks.last_ack_s, acks.last_ack_bytes - 1.0,
                                  0.0))
        assert len(acks) == len(dense)
        assert (acks.first_ack_s, acks.last_ack_s, acks.last_ack_bytes,
                acks.zwa_ack_s, acks.zwa_ack_bytes) == summary


def deliver_checked(client, nbytes, rate, at, abort=False):
    """Deliver one burst and hold its summary to the dense stream."""
    start_byte = client.total_delivered_bytes
    res = client.deliver(nbytes, rate, at, abort_on_zwa=abort)
    assert_summary_of(res.acks, nbytes, start_byte, at)
    return res


class TestBreakpointFeedback:
    @given(capacity=st.floats(2e4, 3e5), r_s=st.floats(1e5, 2e6),
           startup=st.sampled_from([0.0, 0.5, 2.0]),
           seg=st.sampled_from(SEGMENT_SIZES),
           ops=st.lists(st.tuples(
               # sub-segment deliveries up to a few buffers' worth
               st.one_of(st.floats(1.0, 1500.0), st.floats(1e3, 8e5)),
               # offered rate below and above the drain rate
               st.floats(5e4, 2e7),
               # a zero gap starts the next burst on a pinned buffer, a
               # long one drains it into a stall
               st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
               st.booleans()), min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_random_deliveries(self, capacity, r_s, startup, seg, ops):
        # a zero startup threshold with supply below the encoding rate is a
        # known client defect, pinned by test_client's xfail test
        assume(startup > 0 or all(rate > r_s for _, rate, _, _ in ops))
        client = StreamingClient(capacity, r_s, startup_threshold_s=startup,
                                 segment_bytes=seg)
        t = 0.0
        for nbytes, rate, gap, abort in ops:
            res = deliver_checked(client, nbytes, rate, t, abort)
            t = res.end_s + gap

    @pytest.mark.parametrize("net, place", [(5e-10, "second"),
                                            (1e-12, "middle"),
                                            (1e-12, "last but one")])
    def test_zero_window_from_a_middle_segment(self, net, place):
        # occupancy creeps to within rounding of the capacity: the window
        # reads 0 from a middle segment of the piece on, and the summary
        # finds that segment's ACK as the first zero-window one
        cap, seg = 1e6, 1460

        def piece(segments):
            acks = RecordingAcks(seg, cap)
            acks.add_piece(FluidPiece(0.0, 0.0, cap - 1e-9, float(seg), net,
                                      segments * float(seg)))
            return acks

        def onset_of(acks):
            return next(i for i, a in enumerate(acks)
                        if a.advertised_window_bytes <= 0)

        segments = 2000
        if place == "last but one":
            segments = onset_of(ack_stream(piece(segments))) + 2
        acks = piece(segments)
        dense = ack_stream(acks)
        onset = onset_of(dense)
        assert onset == {"second": 1, "last but one": len(dense) - 2}.get(
            place, onset)
        assert 0 < onset < len(dense) - 1
        assert (acks.zwa_ack_s, acks.zwa_ack_bytes) == dense[onset][:2]
        assert_summary_of(acks, segments * float(seg), 0.0, 0.0)

    @pytest.mark.parametrize("seg", SEGMENT_SIZES)
    def test_pinned_at_start(self, seg):
        client = StreamingClient(100_000, 1e6, startup_threshold_s=0.0,
                                 segment_bytes=seg)
        first = deliver_checked(client, 400_000, 2e7, 0.0, abort=True)
        res = deliver_checked(client, 50_000, 2e7, first.end_s)
        stream = ack_stream(res.acks)
        assert stream and \
            all(a.advertised_window_bytes == 0.0 for a in stream)

    @pytest.mark.parametrize("seg", SEGMENT_SIZES)
    def test_abort_on_zwa(self, seg):
        client = StreamingClient(100_000, 1e6, segment_bytes=seg)
        res = deliver_checked(client, 400_000, 2e7, 0.0, abort=True)
        assert res.aborted
        assert ack_stream(res.acks)[-1].advertised_window_bytes == 0

    @pytest.mark.parametrize("seg", SEGMENT_SIZES)
    def test_startup_threshold_crossed(self, seg):
        client = StreamingClient(1_000_000, 1e6, startup_threshold_s=2.0,
                                 segment_bytes=seg)
        deliver_checked(client, 100_000, 2e7, 0.0)
        assert not client.playback_started
        deliver_checked(client, 300_000, 2e7, client.now_s)
        assert client.playback_started

    @pytest.mark.parametrize("seg", SEGMENT_SIZES)
    def test_stall_closes_mid_burst(self, seg):
        client = StreamingClient(1_000_000, 1e6, startup_threshold_s=1.0,
                                 segment_bytes=seg)
        first = deliver_checked(client, 200_000, 2e7, 0.0)
        client.advance(first.end_s + 5.0)
        assert client.stall_log[-1][1] is None
        res = deliver_checked(client, 400_000, 2e7, client.now_s)
        assert res.start_s < client.stall_log[-1][1] < res.end_s

    @pytest.mark.parametrize("seg", SEGMENT_SIZES)
    def test_pieces_shorter_than_a_segment(self, seg):
        client = StreamingClient(1_000_000, 1e6, startup_threshold_s=1.0,
                                 segment_bytes=seg)
        deliver_checked(client, 124_990, 2e7, 0.0)
        # the startup threshold falls 10 bytes into this delivery
        res = deliver_checked(client, 3 * seg, 2e7, client.now_s)
        assert any(isinstance(p, FluidPiece) and p.moved < seg
                   for p in res.acks.parts)


def seeded_session(seed):
    rng = random.Random(seed)
    r_s = rng.choice([128e3, 500e3, 2e6])
    adaptive = rng.random() < 0.3
    ladder = tuple(QualityLevel(r_s * m)
                   for m in ((1.0, 1.5, 2.0) if adaptive else (1.0,)))
    fs = rng.uniform(8.0, 30.0)
    length = 120.0
    steps, t = [], 0.0
    while t < length:
        low = 0.3 if rng.random() < 0.3 else 1.5   # sub-rate dips
        steps.append((t, r_s * rng.uniform(low, 8.0)))
        t += rng.uniform(10.0, 40.0)
    content = 2 * length if adaptive else length
    client = StreamingClient(rng.uniform(0.3, 2.5) * fs * r_s / 8, r_s,
                             segment_bytes=rng.choice(SEGMENT_SIZES),
                             content_duration_s=content)
    return SimulatedSession(StreamSpec(ladder, content, fs), client,
                            BandwidthTrace(tuple(steps)), length,
                            adaptive=adaptive)


def test_seeded_sessions_observe_the_same_bursts_from_both_feeds(
        monkeypatch):
    # every observation a session reads off a delivery's summary is the
    # one the profiler makes of the delivery's whole ACK stream; the steady
    # step reads no observation, so it is off and every burst is observed
    monkeypatch.setattr(session_module, "_STEADY_STEP", False)
    observe_summary = session_module._observe
    bursts = []

    def checked(acks, burst_id, size, start_byte, send_at):
        obs = observe_summary(acks, burst_id, size, start_byte, send_at)
        dense = observe(ack_stream(acks), size, start_byte, send_at)
        dense.burst_id = burst_id
        bursts.append((asdict(obs), asdict(dense)))
        return obs

    monkeypatch.setattr(session_module, "_observe", checked)
    for seed in range(24):
        seeded_session(seed).run()
    assert bursts and any(obs["zwa_seen"] for obs, _ in bursts)
    assert [obs for obs, dense in bursts if obs != dense] == []
