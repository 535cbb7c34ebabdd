import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from befaas import httpjson
from befaas.simplatform import KVService, SimPlatform, profile_from_config


@pytest.fixture(autouse=True)
def close_test_thread_connections():
    """Close the connections a test's own calls left cached on the main thread."""
    yield
    httpjson.close_thread_connections()


@pytest.fixture
def make_platform():
    """Factory for started platforms that are stopped at test end."""
    started = []

    def factory(platform_id="sim", profile=None, seed=0, **profile_fields):
        if profile is None:
            profile = profile_from_config(profile_fields or {"network_delay_ms": 0})
        elif isinstance(profile, (str, dict)):
            profile = profile_from_config(profile)
        platform = SimPlatform(platform_id, profile, seed=seed)
        platform.start()
        started.append(platform)
        return platform

    yield factory
    for platform in started:
        platform.teardown()
        platform.stop()


@pytest.fixture
def make_kv():
    started = []

    def factory(query_delay_ms=0.0):
        kv = KVService(query_delay_ms=query_delay_ms)
        kv.start()
        started.append(kv)
        return kv

    yield factory
    for kv in started:
        kv.stop()
