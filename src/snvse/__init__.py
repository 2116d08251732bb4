"""snvse: estimate social-network video re-encoding parameters and emulate them locally.

Submodules are loaded lazily so the simulated tool shims, spawned once per
tool call, do not import the pipeline along with ``snvse.sim``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "BitrateMeasurement": "bitrate",
    "BitrateMethod": "bitrate",
    "EmulationPlan": "planner",
    "EncodeSpec": "encoder",
    "FidelityReport": "analysis",
    "MediaInfo": "probe",
    "Outcome": "runner",
    "PlatformProfile": "profile_db",
    "ProfileEntry": "profile_db",
    "RunConfig": "config",
    "SearchStrategy": "estimator",
    "SnvseError": "errors",
    "StabilityReport": "analysis",
    "StabilityRow": "analysis",
    "VideoPair": "estimator",
    "bootstrap_stability": "analysis",
    "emulate_batch": "planner",
    "encode": "encoder",
    "estimate_batch": "estimator",
    "estimate_crf": "estimator",
    "fidelity_report": "analysis",
    "load_profile": "profile_db",
    "measure_bitrate": "bitrate",
    "merge_profiles": "profile_db",
    "normalize_dimensions": "encoder",
    "plan_emulation": "planner",
    "probe_media": "probe",
    "recommend_sample_size": "analysis",
    "save_profile": "profile_db",
    "select_crf": "planner",
    "select_resolution": "planner",
}

__all__ = ["__version__"] + sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module_name}", __name__), name)


def __dir__():
    return __all__
