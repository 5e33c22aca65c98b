import os

import pytest
from hypothesis import settings

from twinet.broker import Broker

# Hypothesis profiles. "short", hypothesis's own defaults, keeps Tier-1 quick
# and is loaded unless TWINET_HYPOTHESIS_PROFILE names another. "hop" runs
# every property ten times as many examples, and the broker model test
# (test_broker_model.py) longer runs too, for a change to the MQTT codec, the
# broker, the client or the envelope.
settings.register_profile("short")
settings.register_profile("hop", max_examples=1000, stateful_step_count=100)
settings.load_profile(os.environ.get("TWINET_HYPOTHESIS_PROFILE", "short"))


@pytest.fixture()
def broker():
    with Broker(port=0) as b:
        yield b
