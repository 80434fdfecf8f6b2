"""Fixtures shared by the test modules."""

import pytest

from burststream import client
from oracles import RecordingAcks


@pytest.fixture(scope="module")
def recorded_acks():
    """Every delivery in the module builds its ``acks`` as a
    ``RecordingAcks``, whose parts ``oracles.ack_stream`` expands."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(client, "SegmentAcks", RecordingAcks)
        yield
