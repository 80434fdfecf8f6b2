"""Hypothesis strategies shared by the whole-session tests, and the
example counts of the tests that fix their own.

``scenarios()`` draws a ``harness.Scenario`` of 120-600 s over every
shipped radio profile: a ladder of 1-3 rungs (adaptive or not), a
bandwidth trace of 1-4 steps between 0.3x and 8x the lowest rung, a buffer
and a Fast Start, a startup threshold > 0, an optional link rate, optional
periodic background traffic, and finite or endless content.

``examples(n)`` is a test's count of ``n`` examples under the loaded
Hypothesis profile (see ``conftest.py``).
"""

import math

from hypothesis import settings
from hypothesis import strategies as st

from burststream import BackgroundTraffic, Scenario
from burststream.profiles import get_profile, list_profiles
from burststream.session import BandwidthTrace
from burststream.shaper import QualityLevel, StreamSpec

PROFILES = list_profiles()
RUNGS = (1.0, 1.5, 2.0)


def examples(n: int) -> int:
    """``n`` scaled as the loaded profile scales ``default``'s count: ``n``
    under ``default``, 20 times ``n`` under ``deep``."""
    return n * settings().max_examples // \
        settings.get_profile("default").max_examples


@st.composite
def backgrounds(draw):
    period = draw(st.floats(10.0, 120.0))
    return BackgroundTraffic(period, draw(st.floats(0.0, 2e5)),
                             draw(st.floats(0.0, period)))


@st.composite
def scenarios(draw):
    r_s = draw(st.floats(64e3, 4e6))
    rungs = draw(st.integers(1, len(RUNGS)))
    session_s = draw(st.floats(120.0, 600.0))
    content_s = draw(st.sampled_from(
        [math.inf, session_s, session_s * 1.2, session_s * 2.0]))
    fast_start_s = draw(st.floats(5.0, 40.0))
    step_times = sorted(draw(st.lists(st.floats(0.0, session_s),
                                      max_size=3)))
    steps = tuple((t, r_s * draw(st.floats(0.3, 8.0)))
                  for t in [0.0] + step_times)
    return Scenario(
        name="drawn",
        profile=get_profile(draw(st.sampled_from(PROFILES))),
        stream=StreamSpec(tuple(QualityLevel(r_s * m)
                                for m in RUNGS[:rungs]),
                          content_s, fast_start_s),
        buffer_bytes=draw(st.floats(0.3, 3.0)) * fast_start_s * r_s / 8.0,
        bandwidth=BandwidthTrace(steps),
        session_length_s=session_s,
        link_bps=draw(st.none() | st.floats(1e6, 4e7)),
        startup_s=draw(st.floats(0.5, 5.0)),
        adaptive=draw(st.booleans()),
        background=draw(st.none() | backgrounds()),
    )
