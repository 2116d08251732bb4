"""Persistence for platform profiles: the (rho_in, rho_out, crf) lookup table.

A profile is one JSON document per platform per capture date. The encoder
preset is stored inside the profile because CRF semantics are
preset-relative; emulation refuses to run under a different preset.
Writes are atomic (temp file + rename) and save/load round-trips are
byte-stable. ``CRF_MIN``/``CRF_MAX`` are defined here and only here.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .errors import (
    DuplicatePair,
    IoFailure,
    PreconditionViolation,
    PresetMismatch,
    SchemaViolation,
)

logger = logging.getLogger(__name__)

# The widest CRF range a profile entry accepts, and the default search range.
CRF_MIN = 21
CRF_MAX = 50


def _check_resolution(value, where: str) -> None:
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and all(type(v) is int and v > 0 for v in value)):
        raise SchemaViolation(f"{where} must be [width, height] of positive ints, got {value!r}")


@dataclass(frozen=True)
class ProfileEntry:
    """One estimated (input resolution, output resolution, CRF) triplet."""

    rho_in: tuple[int, int]
    rho_out: tuple[int, int]
    crf_hat: int
    saturated: bool
    pair_id: str
    target_bitrate: float
    # The estimate's sorted (crf, bitrate) trials; not saved, not compared.
    # A fail decided by its MP4 payload holds a lower bound on its bitrate
    # and a pass an upper bound; every other trial, and an unsaturated
    # crf_hat, is measured (the rule is in snvse.estimator's docstring).
    trial_log: list[tuple[int, float]] = field(default_factory=list, compare=False)

    def validate(self, where: str = "entry") -> None:
        for key in ("rho_in", "rho_out"):
            _check_resolution(getattr(self, key), f"{where}.{key}")
        if self.rho_out[0] % 2 or self.rho_out[1] % 2:
            raise SchemaViolation(f"{where}.rho_out must have even dimensions, got {self.rho_out}")
        if not CRF_MIN <= self.crf_hat <= CRF_MAX:
            raise SchemaViolation(
                f"{where}.crf_hat must be in [{CRF_MIN}, {CRF_MAX}], got {self.crf_hat}"
            )
        if not 0 <= self.target_bitrate < math.inf:  # zero: a stream of empty packets
            raise SchemaViolation(f"{where}.target_bitrate must be finite and non-negative, "
                                  f"got {self.target_bitrate}")


@dataclass(frozen=True)
class PlatformProfile:
    """A named, dated collection of estimated triplets for one platform."""

    platform_name: str
    captured_at: dt.date
    preset: str
    entries: list[ProfileEntry]
    tool_version: str = __version__

    def validate(self) -> None:
        for index, entry in enumerate(self.entries):
            entry.validate(where=f"entries[{index}]")
        check_unique_pair_ids(self.entries)

    def resolutions_out(self) -> list[tuple[int, int]]:
        seen: dict[tuple[int, int], None] = {}
        for entry in self.entries:
            seen.setdefault(entry.rho_out, None)
        return list(seen)


def check_unique_pair_ids(items) -> None:
    """Raise DuplicatePair if two items (entries or pairs) share a pair_id."""
    counts = Counter(item.pair_id for item in items)
    repeated = sorted(pair_id for pair_id, n in counts.items() if n > 1)
    if repeated:
        raise DuplicatePair(f"pair ids appear more than once: {repeated}")


def _profile_document(profile: PlatformProfile) -> dict:
    # Fixed key order keeps save -> load -> save byte-identical.
    return {
        "platform_name": profile.platform_name,
        "captured_at": profile.captured_at.isoformat(),
        "preset": profile.preset,
        "tool_version": profile.tool_version,
        "entries": [
            {
                "rho_in": list(entry.rho_in),
                "rho_out": list(entry.rho_out),
                "crf_hat": entry.crf_hat,
                "saturated": entry.saturated,
                "pair_id": entry.pair_id,
                "target_bitrate": entry.target_bitrate,
            }
            for entry in profile.entries
        ],
    }


def save_profile(profile: PlatformProfile, path: str | Path) -> None:
    """Write *profile* as one JSON document, atomically."""
    profile.validate()
    if not profile.entries:
        logger.warning("saving profile %r with zero entries (inspection only)",
                       profile.platform_name)
    path = Path(path)
    doc = _profile_document(profile)
    tmp_name = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp_name, path)
    except OSError as exc:
        if tmp_name is not None:
            Path(tmp_name).unlink(missing_ok=True)
        raise IoFailure(f"cannot write profile to {path}: {exc}") from exc


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SchemaViolation(f"{where}.{key} is missing")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaViolation(f"{where}.{key} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaViolation(f"{where}.{key} has wrong type: {value!r}")
    return value


def _parse_pair(doc: dict, key: str, where: str) -> tuple:
    # ProfileEntry.validate checks it is a width and a height.
    return tuple(_require(doc, key, list, where))


def load_profile(path: str | Path) -> PlatformProfile:
    """Load and re-validate a profile document."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read profile {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"profile {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation("profile root must be an object")

    captured_raw = _require(doc, "captured_at", str, "profile")
    try:
        captured_at = dt.date.fromisoformat(captured_raw)
    except ValueError as exc:
        raise SchemaViolation(f"profile.captured_at is not an ISO date: {captured_raw!r}") from exc

    entries_raw = _require(doc, "entries", list, "profile")
    entries = []
    for index, entry_doc in enumerate(entries_raw):
        where = f"profile.entries[{index}]"
        if not isinstance(entry_doc, dict):
            raise SchemaViolation(f"{where} must be an object")
        entries.append(ProfileEntry(
            rho_in=_parse_pair(entry_doc, "rho_in", where),
            rho_out=_parse_pair(entry_doc, "rho_out", where),
            crf_hat=_require(entry_doc, "crf_hat", int, where),
            saturated=_require(entry_doc, "saturated", bool, where),
            pair_id=_require(entry_doc, "pair_id", str, where),
            target_bitrate=_require(entry_doc, "target_bitrate", float, where),
        ))

    profile = PlatformProfile(
        platform_name=_require(doc, "platform_name", str, "profile"),
        captured_at=captured_at,
        preset=_require(doc, "preset", str, "profile"),
        entries=entries,
        tool_version=_require(doc, "tool_version", str, "profile"),
    )
    profile.validate()
    return profile


def merge_profiles(a: PlatformProfile, b: PlatformProfile) -> PlatformProfile:
    """Concatenate two capture campaigns for the same platform and preset."""
    if a.platform_name != b.platform_name:
        raise PreconditionViolation(f"platforms differ: {a.platform_name!r} vs {b.platform_name!r}")
    if a.preset != b.preset:
        raise PresetMismatch(f"{a.preset!r} vs {b.preset!r}")
    check_unique_pair_ids(a.entries + b.entries)
    return replace(
        a,
        captured_at=max(a.captured_at, b.captured_at),
        entries=a.entries + b.entries,
    )
