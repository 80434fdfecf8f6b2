"""Burst observations, and the ACK-by-ACK traffic profiler.

A ``BurstObservation`` is what the shaper learns of one burst: when its
first and last ACKs arrived, how many bytes were acknowledged, and whether
a zero window came first. The simulated session reads it off each
delivery's breakpoint summary (``client.SegmentAcks``) and the proxy off
socket backpressure. The bandwidth estimate is the transport's: each
``Report`` carries it.

``TrafficProfiler`` derives the same observation from the whole ACK
stream, one ACK at a time: a burst's byte range is registered before it
is sent (bursts are never pipelined, so attribution is unambiguous), then
its ACKs are fed in time order. No transport runs it: the tests feed it
the per-segment stream that their oracle expands from a delivery's
recorded pieces and hold the summary to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .client import AckEvent, FeedError


@dataclass(slots=True)
class BurstObservation:
    """What the profiler learned about one burst."""

    burst_id: int
    size_bytes: float
    start_byte: float
    send_time_s: float
    first_ack_s: Optional[float] = None
    last_ack_s: Optional[float] = None
    acked_bytes: float = 0.0
    complete: bool = False
    zwa_seen: bool = False
    zwa_time_s: Optional[float] = None
    sent_bytes_at_first_zwa: Optional[float] = None

    @property
    def t_bd_s(self) -> float:
        """Burst duration: span from first to last ACK arrival."""
        if self.first_ack_s is None or self.last_ack_s is None:
            return 0.0
        return self.last_ack_s - self.first_ack_s


class TrafficProfiler:
    """One profiler per streaming session; single logical feed thread."""

    def __init__(self):
        self.current: Optional[BurstObservation] = None
        self._last_cum_ack = -1.0
        self._next_id = 0

    def begin_burst(self, size_bytes: float, start_byte: float,
                    send_time_s: float,
                    burst_id: Optional[int] = None) -> BurstObservation:
        if self.current is not None:
            raise FeedError("previous burst not finished; bursts do not "
                            "pipeline")
        if burst_id is None:
            burst_id = self._next_id
        self._next_id = burst_id + 1
        self.current = BurstObservation(burst_id, size_bytes, start_byte,
                                        send_time_s)
        return self.current

    def ingest(self, ack: AckEvent) -> Optional[BurstObservation]:
        """Feed one ACK; returns the observation once the burst completes."""
        time_s, cum, window = ack
        if cum < self._last_cum_ack - 1e-9:
            raise FeedError("cumulative ack regressed")
        if cum > self._last_cum_ack:      # max(last, cum)
            self._last_cum_ack = cum
        obs = self.current
        if obs is None or cum < obs.start_byte - 1e-9:
            return None  # predates the current burst
        start = obs.start_byte
        end = start + obs.size_bytes
        if obs.first_ack_s is None:
            obs.first_ack_s = time_s
        obs.last_ack_s = time_s
        obs.acked_bytes = (end if end < cum else cum) - start  # min(cum, end)
        if window <= 0 and not obs.zwa_seen:
            obs.zwa_seen = True
            obs.zwa_time_s = time_s
            obs.sent_bytes_at_first_zwa = cum - start
        if not obs.complete and cum >= end - 1e-9:
            obs.complete = True
            return obs
        return None

    def finish_burst(self) -> BurstObservation:
        """Close out the current burst and return its observation."""
        obs = self.current
        if obs is None:
            raise FeedError("no burst in progress")
        self.current = None
        return obs
