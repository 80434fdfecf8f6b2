"""Fixtures and Hypothesis profiles shared by the test modules.

``HYPOTHESIS_PROFILE=deep`` loads the ``deep`` profile, which runs 20 times
as many examples as ``default``; a test whose ``@settings`` fixes its own
count reads it through ``strategies.examples``, which scales it alike."""

import os

import pytest
from hypothesis import settings

from burststream import client
from oracles import RecordingAcks

settings.register_profile("default", max_examples=100)
settings.register_profile("deep", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="module")
def recorded_acks():
    """Every delivery in the module builds its ``acks`` as a
    ``RecordingAcks``, whose parts ``oracles.ack_stream`` expands."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(client, "SegmentAcks", RecordingAcks)
        yield
