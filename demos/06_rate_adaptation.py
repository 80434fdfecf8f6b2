"""
Rate-adaptive streaming through the shaper
==========================================

A six-rung quality ladder and a bandwidth step: the session starts
conservatively at 700 kbit/s, upgrades only when the estimate covers twice
the target rate, re-searches the burst interval at the new rate, and then
holds the discovered optimum to the end.
"""

from burststream import (BandwidthTrace, QualityLevel, SimulatedSession,
                         StreamingClient, StreamSpec)

ladder = tuple(QualityLevel(r * 1000) for r in
               (700, 1200, 1500, 2000, 2500, 3000))
stream = StreamSpec(ladder, duration_s=900.0, fast_start_s=40.0)
client = StreamingClient(12_000_000, 700e3, 16e6, content_duration_s=900.0)
bandwidth = BandwidthTrace(((0.0, 2.2e6), (300.0, 16e6)))

session = SimulatedSession(stream, client, bandwidth,
                           session_length_s=860.0, adaptive=True)
res = session.run()

print("quality switches (time, new index):", res.quality_switches)
print("\ndecisions:")
for d in res.decision_log:
    print("  ", d)

print("\nburst log tail:")
for row in res.shaper.burst_log[-5:]:
    print("  ", row)

st = res.shaper.state
print(f"\nsettled: quality={ladder[st.current_quality_index].bitrate_bps:.0f} "
      f"bit/s, T={st.t_s:.1f} s, BS_OPT={st.bs_opt_bytes / 1e6:.2f} MB, "
      f"phase={st.phase.value}")
