"""Every exported name resolves, and removed names stay removed."""

import importlib

import pytest

import beamkey

MODULES = [beamkey] + [
    importlib.import_module(f"beamkey.{name}")
    for name in ("allocation", "channel", "experiments", "keyrate", "probing")
]
REMOVED = (
    "ArrayGeometry",
    "BeamDomainChannel",
    "OUTPUT_FORMATS",
    "PILOT_MODES",
    "PilotSet",
    "ProbingObservation",
    "make_pilots",
    "observations_to_csv",
    "pathset_from_json",
    "pathset_to_json",
    "psd_sqrt",
    "steering_vector",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    assert not set(REMOVED) & set(module.__all__)
    assert not [name for name in REMOVED if hasattr(module, name)]
