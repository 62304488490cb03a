"""Nested SrcConfig groups: round-trips, no way around them, and no
field that nothing sets."""

import ast
import inspect
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig
from repro.common.errors import ConfigError
from repro.common.units import MIB
from repro.core.config import (FaultConfig, GcScheme, QosConfig,
                               ReclaimConfig, RepairConfig, SrcConfig,
                               VictimPolicy)

REPO = Path(__file__).resolve().parent.parent
DOCUMENTS = (SrcConfig, ReclaimConfig, FaultConfig, RepairConfig, QosConfig,
             ClusterConfig)


# ----------------------------------------------------------------------
# round-trips
# ----------------------------------------------------------------------
def test_nested_config_round_trips_through_dict():
    config = SrcConfig(
        cache_space=128 * MIB,
        reclaim=ReclaimConfig(gc_scheme=GcScheme.S2D, u_max=0.8,
                              victim_policy=VictimPolicy.GREEDY),
        faults=FaultConfig(failslow_p99=0.02, bypass_on_failure=False),
        repair=RepairConfig(hot_spares=1, scrub_interval=2.0),
        qos=QosConfig(enforce_shares=False, work_conserving=False),
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
        RepairConfig(rebuild_rate=-1.0)
    with pytest.raises(ConfigError):      # geometry, on SrcConfig itself
        SrcConfig(raid_level=6)


# ----------------------------------------------------------------------
# removed knobs: an old document carrying one fails loudly
# ----------------------------------------------------------------------
REMOVED_KEYS = [          # (document, nested group or None, key)
    (SrcConfig, "faults", "retry_attempts"),
    (SrcConfig, "faults", "retry_backoff"),
    (SrcConfig, "faults", "retry_timeout"),
    (SrcConfig, "repair", "scrub_rate"),
    (SrcConfig, "qos", "default_min_share"),
    (SrcConfig, "qos", "default_max_share"),
    (ClusterConfig, None, "hash_seed"),
    (ClusterConfig, None, "migrate_clean"),
    (ClusterConfig, None, "max_catchup_passes"),
]


@pytest.mark.parametrize("document,group,key", REMOVED_KEYS,
                         ids=[key for _, _, key in REMOVED_KEYS])
def test_from_dict_refuses_a_removed_key(document, group, key):
    doc = document().as_dict()
    (doc[group] if group else doc)[key] = 1
    with pytest.raises(ConfigError, match=key):
        document.from_dict(doc)


# ----------------------------------------------------------------------
# every knob has a caller
# ----------------------------------------------------------------------
def _keywords_by_file() -> dict:
    """Every keyword argument name passed in a call, per source file of
    the package, the bench, the examples, the benchmarks, the scripts
    and the tests."""
    found = {}
    for root in ("src/repro", "bench", "examples", "benchmarks", "scripts",
                 "tests"):
        for path in sorted((REPO / root).rglob("*.py")):
            found[path.resolve()] = {
                k.arg for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) for k in node.keywords if k.arg}
    return found


def test_every_config_field_is_set_somewhere():
    """A field that no experiment, scenario, example or test sets by
    keyword (outside its own module and this file) is a constant, not a
    knob: it doubles the configurations a reader must rule out and
    changes no run."""
    keywords = _keywords_by_file()
    unset = []
    for document in DOCUMENTS:
        skip = {Path(inspect.getfile(document)).resolve(),
                Path(__file__).resolve()}
        names = set().union(*(kws for path, kws in keywords.items()
                              if path not in skip))
        unset += [f"{document.__name__}.{f.name}" for f in fields(document)
                  if f.name not in names]
    assert not unset, f"config fields nothing sets: {unset}"
