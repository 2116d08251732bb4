"""Persistence for platform profiles: the (rho_in, rho_out, crf) lookup table.

A profile is one JSON document per platform per capture date. The encoder
preset is stored inside the profile because CRF semantics are
preset-relative; emulation refuses to run under a different preset.
Writes are atomic (temp file + rename) and save/load round-trips are
byte-stable. ``PlatformProfile.validate`` and ``ProfileEntry.validate`` are
the schema's one owner: they check every field's type and value, and both
``save_profile`` (before writing) and ``load_profile`` run them.
``CRF_MIN``/``CRF_MAX`` are defined here and only here.
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


def _check_resolution(obj, key: str, where: str) -> None:
    # A tuple, as load_profile and the estimator build it: the planner hashes it.
    value = getattr(obj, key)
    if not (isinstance(value, tuple) and len(value) == 2
            and type(value[0]) is int is type(value[1]) and value[0] > 0 and value[1] > 0):
        hint = " (a list; it must be a tuple)" if isinstance(value, list) else ""
        raise SchemaViolation(f"{where}.{key} must be [width, height] of positive ints, "
                              f"got {value!r}{hint}")


def _check_type(obj, key: str, kind, where: str) -> None:
    # bool is an int subclass; a field of another type must not accept it.
    value = getattr(obj, key)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise SchemaViolation(f"{where}.{key} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class ProfileEntry:
    """One estimated (input resolution, output resolution, CRF) triplet."""

    rho_in: tuple[int, int]
    rho_out: tuple[int, int]
    crf_hat: int
    saturated: bool
    pair_id: str
    target_bitrate: float
    # The estimate's sorted (crf, bitrate) trials, each rate measured from
    # its MP4's sample table; not saved, not compared.
    trial_log: list[tuple[int, float]] = field(default_factory=list, compare=False)

    def validate(self, where: str = "entry") -> None:
        _check_resolution(self, "rho_in", where)
        _check_resolution(self, "rho_out", where)
        if self.rho_out[0] % 2 or self.rho_out[1] % 2:
            raise SchemaViolation(f"{where}.rho_out must have even dimensions, got {self.rho_out}")
        if type(self.crf_hat) is not int or not CRF_MIN <= self.crf_hat <= CRF_MAX:
            raise SchemaViolation(f"{where}.crf_hat must be an int in [{CRF_MIN}, {CRF_MAX}], "
                                  f"got {self.crf_hat!r}")
        _check_type(self, "saturated", bool, where)
        _check_type(self, "pair_id", str, where)
        rate = self.target_bitrate  # zero: a stream of empty packets
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 <= rate < math.inf:
            raise SchemaViolation(f"{where}.target_bitrate must be a finite, non-negative "
                                  f"number, got {rate!r}")


@dataclass(frozen=True)
class PlatformProfile:
    """A named, dated collection of estimated triplets for one platform."""

    platform_name: str
    captured_at: dt.date
    preset: str
    entries: list[ProfileEntry]
    tool_version: str = __version__

    def validate(self) -> None:
        for key in ("platform_name", "preset", "tool_version"):
            _check_type(self, key, str, "profile")
        if {"/", os.sep} & set(self.platform_name):  # emulate writes <stem>.<platform>.mp4
            raise SchemaViolation(f"profile.platform_name must not contain a path separator, "
                                  f"got {self.platform_name!r}")
        if type(self.captured_at) is not dt.date:  # a datetime saves its time of day
            raise SchemaViolation(f"profile.captured_at must be date, got {self.captured_at!r}")
        _check_type(self, "entries", list, "profile")
        for index, entry in enumerate(self.entries):
            entry.validate(where=f"profile.entries[{index}]")
        check_unique_pair_ids(self.entries)


def check_unique_pair_ids(items) -> None:
    """Raise DuplicatePair if two items (entries or pairs) share a pair_id."""
    counts = Counter(item.pair_id for item in items)
    repeated = sorted(pair_id for pair_id, n in counts.items() if n > 1)
    if repeated:
        raise DuplicatePair(f"pair ids appear more than once: {repeated}")


# The keys a document holds, in the order they are written; loading requires
# each. Fixed key order keeps save -> load -> save byte-identical.
_PROFILE_KEYS = ("platform_name", "captured_at", "preset", "tool_version", "entries")
_ENTRY_KEYS = ("rho_in", "rho_out", "crf_hat", "saturated", "pair_id", "target_bitrate")


def _profile_document(profile: PlatformProfile) -> dict:
    doc = {key: getattr(profile, key) for key in _PROFILE_KEYS}
    doc["captured_at"] = profile.captured_at.isoformat()
    doc["entries"] = [{key: getattr(entry, key) for key in _ENTRY_KEYS}
                      for entry in profile.entries]
    return doc


def save_profile(profile: PlatformProfile, path: str | Path) -> None:
    """Write *profile* as one JSON document, atomically, if it passes ``validate``."""
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


def _fields(doc, keys: tuple[str, ...], where: str) -> dict:
    """The *keys* of the JSON object *doc*, each of which must be present."""
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{where} must be an object")
    try:
        return {key: doc[key] for key in keys}
    except KeyError as exc:
        raise SchemaViolation(f"{where}.{exc.args[0]} is missing") from None


def _entry(doc, where: str) -> ProfileEntry:
    fields = _fields(doc, _ENTRY_KEYS, where)
    for key in ("rho_in", "rho_out"):
        if isinstance(fields[key], list):
            fields[key] = tuple(fields[key])
    return ProfileEntry(**fields)


def load_profile(path: str | Path) -> PlatformProfile:
    """Load a profile document and check it with ``validate``, as saving does."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        doc = json.loads(path.read_bytes())
    except OSError as exc:
        raise IoFailure(f"cannot read profile {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a UnicodeDecodeError names the byte offset
        raise SchemaViolation(f"profile {path} is not valid JSON: {exc}") from exc

    fields = _fields(doc, _PROFILE_KEYS, "profile")
    text = fields["captured_at"]
    if isinstance(text, str):  # exactly YYYY-MM-DD, so it re-saves byte-identically
        try:
            date = dt.date.fromisoformat(text)
        except ValueError:
            date = None
        if date is None or date.isoformat() != text:
            raise SchemaViolation(f"profile.captured_at is not a YYYY-MM-DD date: {text!r}")
        fields["captured_at"] = date
    if isinstance(fields["entries"], list):
        fields["entries"] = [_entry(entry, f"profile.entries[{index}]")
                             for index, entry in enumerate(fields["entries"])]
    profile = PlatformProfile(**fields)
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
