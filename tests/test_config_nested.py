"""Nested SrcConfig groups: round-trips, and no way around them."""

import warnings

import pytest

from repro.common.errors import ConfigError
from repro.common.units import MIB
from repro.core.config import (FaultConfig, GcScheme, QosConfig,
                               ReclaimConfig, RepairConfig, SrcConfig,
                               VictimPolicy)


# ----------------------------------------------------------------------
# round-trips
# ----------------------------------------------------------------------
def test_nested_config_round_trips_through_dict():
    config = SrcConfig(
        cache_space=128 * MIB,
        reclaim=ReclaimConfig(gc_scheme=GcScheme.S2D, u_max=0.8,
                              victim_policy=VictimPolicy.GREEDY),
        faults=FaultConfig(retry_attempts=2),
        repair=RepairConfig(hot_spares=1),
        qos=QosConfig(enforce_shares=False, default_min_share=0.1),
    )
    assert SrcConfig.from_dict(config.as_dict()) == config


def test_as_dict_is_nested_and_json_ready():
    data = SrcConfig().as_dict()
    for group in ("reclaim", "faults", "repair", "qos"):
        assert isinstance(data[group], dict)
    assert data["reclaim"]["gc_scheme"] == "sel-gc"   # enum -> value
    assert data["qos"]["enforce_shares"] is True


def test_scaled_preserves_policy_groups():
    config = SrcConfig(cache_space=1024 * MIB,
                       qos=QosConfig(enforce_shares=False))
    scaled = config.scaled(1 / 8)
    assert scaled.qos == config.qos
    assert scaled.reclaim == config.reclaim
    assert scaled.cache_space == 128 * MIB


# ----------------------------------------------------------------------
# the flat spellings are gone, loudly
# ----------------------------------------------------------------------
def test_flat_kwargs_raise_type_error():
    with pytest.raises(TypeError, match="u_max"):
        SrcConfig(u_max=0.85)
    with pytest.raises(AttributeError):
        SrcConfig().u_max


def test_from_dict_rejects_flat_legacy_documents():
    # Silently dropping the keys would load the document with u_max
    # and hot_spares reverted to their defaults.
    with pytest.raises(ConfigError, match="hot_spares, u_max"):
        SrcConfig.from_dict({"u_max": 0.7, "hot_spares": 2})


def test_from_dict_rejects_unknown_keys_inside_a_group():
    doc = SrcConfig().as_dict()
    doc["reclaim"]["u_maxx"] = 0.7
    with pytest.raises(ConfigError, match="ReclaimConfig.*u_maxx"):
        SrcConfig.from_dict(doc)
    # A removed knob is an unknown key like any other: the inline
    # reclaim mode is gone, and a stored document asking for it fails.
    with pytest.raises(ConfigError, match="background_reclaim"):
        ReclaimConfig.from_dict({"background_reclaim": False})
    for group in (FaultConfig, RepairConfig, QosConfig):
        with pytest.raises(ConfigError, match="typo"):
            group.from_dict({"typo": 1})


def test_nested_construction_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SrcConfig(cache_space=128 * MIB,
                  reclaim=ReclaimConfig(u_max=0.85),
                  qos=QosConfig())


def test_unknown_kwargs_still_rejected():
    with pytest.raises(TypeError):
        SrcConfig(no_such_knob=1)


def test_group_validation_still_fires():
    with pytest.raises(ConfigError):
        ReclaimConfig(u_max=1.5)
    with pytest.raises(ConfigError):
        QosConfig(default_min_share=0.9, default_max_share=0.5)
    with pytest.raises(ConfigError):      # geometry, on SrcConfig itself
        SrcConfig(raid_level=6)
