"""Profile persistence: round-trips, validation, merging."""

import datetime as dt
import errno
import json
import math
import os
import random
import re
from dataclasses import replace

import pytest

from snvse.errors import (
    DuplicatePair,
    IoFailure,
    PreconditionViolation,
    PresetMismatch,
    SchemaViolation,
)
from snvse.profile_db import (
    PlatformProfile,
    ProfileEntry,
    load_profile,
    merge_profiles,
    save_profile,
)


def entry(pair_id="p0", rho_in=(1280, 720), rho_out=(1280, 720), crf_hat=30,
          saturated=False, target_bitrate=1_000_000.0):
    return ProfileEntry(
        rho_in=rho_in, rho_out=rho_out, crf_hat=crf_hat,
        saturated=saturated, pair_id=pair_id, target_bitrate=target_bitrate,
    )


def profile(entries, platform="testnet", preset="medium", captured="2025-06-01"):
    return PlatformProfile(
        platform_name=platform,
        captured_at=dt.date.fromisoformat(captured),
        preset=preset,
        entries=entries,
    )


def random_profile(rng: random.Random) -> PlatformProfile:
    resolutions = [(640, 480), (1280, 720), (854, 480), (1920, 1080), (640, 360)]
    entries = [
        entry(
            pair_id=f"pair{i}",
            rho_in=rng.choice(resolutions),
            rho_out=rng.choice(resolutions),
            crf_hat=rng.randint(21, 50),
            saturated=rng.random() < 0.1,
            target_bitrate=rng.uniform(50_000, 8_000_000),
        )
        for i in range(rng.randint(1, 12))
    ]
    return profile(entries, platform=rng.choice(["facebook", "youtube", "bluesky"]))


def test_round_trip_identity(tmp_path):
    original = profile([entry("a"), entry("b", rho_in=(854, 480), crf_hat=41)])
    path = tmp_path / "p.json"
    save_profile(original, path)
    assert load_profile(path) == original


def test_round_trip_is_byte_stable(tmp_path):
    rng = random.Random(20250809)
    for index in range(10):
        prof = random_profile(rng)
        first = tmp_path / f"{index}a.json"
        second = tmp_path / f"{index}b.json"
        save_profile(prof, first)
        save_profile(load_profile(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_entry_order_preserved(tmp_path):
    prof = profile([entry(f"p{i}", crf_hat=21 + i) for i in range(8)])
    path = tmp_path / "p.json"
    save_profile(prof, path)
    assert [e.pair_id for e in load_profile(path).entries] == [f"p{i}" for i in range(8)]


def test_zero_entry_profile_saves_with_warning(tmp_path, caplog):
    import logging

    with caplog.at_level(logging.WARNING):
        save_profile(profile([]), tmp_path / "empty.json")
    assert (tmp_path / "empty.json").exists()
    assert any("zero entries" in r.message for r in caplog.records)


def test_tool_version_passthrough(tmp_path):
    prof = PlatformProfile(
        platform_name="x", captured_at=dt.date(2025, 1, 1), preset="medium",
        entries=[entry()], tool_version="0.0.9-custom",
    )
    path = tmp_path / "p.json"
    save_profile(prof, path)
    assert load_profile(path).tool_version == "0.0.9-custom"


def test_missing_preset_named_in_error(tmp_path):
    path = tmp_path / "p.json"
    save_profile(profile([entry()]), path)
    doc = json.loads(path.read_text())
    del doc["preset"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="preset"):
        load_profile(path)


def test_odd_rho_out_rejected_on_load(tmp_path):
    path = tmp_path / "p.json"
    save_profile(profile([entry()]), path)
    doc = json.loads(path.read_text())
    doc["entries"][0]["rho_out"] = [641, 480]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="rho_out"):
        load_profile(path)


@pytest.mark.parametrize("rho_in", [[True, True], [1280, True]], ids=["both", "height"])
def test_boolean_dimensions_rejected_on_load(tmp_path, rho_in):
    # JSON true is a Python bool, and bool is an int subclass; it must not
    # load as a dimension of 1 and save back as true.
    path = tmp_path / "p.json"
    save_profile(profile([entry()]), path)
    doc = json.loads(path.read_text())
    doc["entries"][0]["rho_in"] = rho_in
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="rho_in"):
        load_profile(path)


def test_crf_out_of_range_rejected_on_load(tmp_path):
    path = tmp_path / "p.json"
    save_profile(profile([entry()]), path)
    doc = json.loads(path.read_text())
    doc["entries"][0]["crf_hat"] = 19
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="crf_hat"):
        load_profile(path)


@pytest.mark.parametrize("bitrate", [math.nan, math.inf, -5.0], ids=["nan", "inf", "negative"])
def test_target_bitrate_rejected_on_load_and_save(tmp_path, bitrate):
    # json reads and writes NaN and Infinity bare, which is not JSON.
    path = tmp_path / "p.json"
    save_profile(profile([entry()]), path)
    doc = json.loads(path.read_text())
    doc["entries"][0]["target_bitrate"] = bitrate
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="target_bitrate"):
        load_profile(path)
    with pytest.raises(SchemaViolation, match="target_bitrate"):
        save_profile(profile([entry(target_bitrate=bitrate)]), tmp_path / "q.json")
    assert not (tmp_path / "q.json").exists()


@pytest.mark.parametrize("resolution", [
    {"rho_in": (0, 720)}, {"rho_out": (0, 0)}, {"rho_in": (-1280, 720)},
    {"rho_in": (True, 720)}, {"rho_out": (640.0, 360)}, {"rho_out": (640,)},
], ids=["rho_in-zero", "rho_out-zeros", "rho_in-negative", "rho_in-bool", "rho_out-float",
        "rho_out-one-int"])
def test_resolution_rejected_on_save(tmp_path, resolution):
    # load_profile rejects these, so save_profile must not write them.
    path = tmp_path / "p.json"
    with pytest.raises(SchemaViolation, match="must be \\[width, height\\] of positive ints"):
        save_profile(profile([entry(**resolution)]), path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("rho_in", "1280x720"), ("rho_out", None), ("crf_hat", 33.0), ("crf_hat", True),
    ("saturated", 1), ("saturated", "no"), ("pair_id", 5), ("target_bitrate", True),
    ("target_bitrate", "1000"), ("platform_name", 5), ("captured_at", 20250601),
    ("preset", None), ("tool_version", 1.0), ("entries", None),
])
def test_save_and_load_reject_a_wrong_typed_field_alike(tmp_path, key, value):
    # One schema: what save_profile refuses to write, load_profile refuses
    # to read, with the same message naming the field.
    on_entry = key in ("rho_in", "rho_out", "crf_hat", "saturated", "pair_id", "target_bitrate")
    if on_entry:
        bad = profile([replace(entry(), **{key: value})])
    else:
        bad = replace(profile([entry()]), **{key: value})
    where = f"profile.entries[0].{key}" if on_entry else f"profile.{key}"
    path = tmp_path / "p.json"
    with pytest.raises(SchemaViolation, match=re.escape(where)) as saved:
        save_profile(bad, path)
    assert list(tmp_path.iterdir()) == []

    save_profile(profile([entry()]), path)
    doc = json.loads(path.read_text())
    (doc["entries"][0] if on_entry else doc)[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation) as loaded:
        load_profile(path)
    assert str(loaded.value) == str(saved.value)


@pytest.mark.parametrize("captured_at", ["2025-06-01", dt.datetime(2025, 6, 1)],
                         ids=["str", "datetime"])
def test_captured_at_must_be_a_date_on_save(tmp_path, captured_at):
    # A string has no isoformat(); a datetime's holds a time that loading refuses.
    with pytest.raises(SchemaViolation, match="profile.captured_at must be date"):
        save_profile(replace(profile([entry()]), captured_at=captured_at), tmp_path / "p.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("platform", [f"a{sep}b" for sep in dict.fromkeys(["/", os.sep])])
def test_platform_name_with_a_path_separator_is_refused_on_save_and_load(tmp_path, platform):
    # emulate names its outputs <stem>.<platform>.mp4.
    path = tmp_path / "p.json"
    with pytest.raises(SchemaViolation, match="profile.platform_name must not contain a path"):
        save_profile(profile([entry()], platform=platform), path)
    assert list(tmp_path.iterdir()) == []
    save_profile(profile([entry()]), path)
    doc = json.loads(path.read_text())
    doc["platform_name"] = platform
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="profile.platform_name must not contain a path"):
        load_profile(path)


@pytest.mark.parametrize("text", ["20250601", "2025-W23-1", "2025-06-1", "2025-6-01", "2025-06-01T00:00",
                                  "2025-13-01", ""])
def test_captured_at_loads_only_as_yyyy_mm_dd(tmp_path, text):
    # Other ISO forms some Pythons parse would re-save as another string.
    path = tmp_path / "p.json"
    save_profile(profile([entry()]), path)
    doc = json.loads(path.read_text())
    doc["captured_at"] = text
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match=re.escape(f"not a YYYY-MM-DD date: {text!r}")):
        load_profile(path)


def test_missing_entry_key_named_in_error(tmp_path):
    path = tmp_path / "p.json"
    save_profile(profile([entry("a"), entry("b")]), path)
    doc = json.loads(path.read_text())
    del doc["entries"][1]["saturated"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match=re.escape("profile.entries[1].saturated is missing")):
        load_profile(path)


def test_integer_target_bitrate_round_trips_byte_identically(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_profile(profile([entry(target_bitrate=1000)]), first)
    assert '"target_bitrate": 1000\n' in first.read_text()
    loaded = load_profile(first)
    assert type(loaded.entries[0].target_bitrate) is int
    save_profile(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_zero_target_bitrate_round_trips(tmp_path):
    # A shared stream of empty packets measures 0 bit/s; its estimate is kept.
    path = tmp_path / "p.json"
    save_profile(profile([entry(target_bitrate=0.0)]), path)
    assert load_profile(path).entries[0].target_bitrate == 0.0


def test_duplicate_pair_ids_rejected_on_load(tmp_path):
    path = tmp_path / "p.json"
    save_profile(profile([entry("a"), entry("b")]), path)
    doc = json.loads(path.read_text())
    doc["entries"][1]["pair_id"] = "a"
    path.write_text(json.dumps(doc))
    with pytest.raises(DuplicatePair):
        load_profile(path)


def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "p.json"
    save_profile(profile([entry("a")]), path)
    before = path.read_bytes()

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(IoFailure, match="No space left"):
        save_profile(profile([entry("b")]), path)
    assert list(tmp_path.glob("*.tmp")) == []
    assert path.read_bytes() == before


def test_not_json_raises_schema_violation(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("not json at all")
    with pytest.raises(SchemaViolation):
        load_profile(path)


def test_merge_disjoint(tmp_path):
    a = profile([entry("a1"), entry("a2")], captured="2025-05-01")
    b = profile([entry("b1")], captured="2025-06-15")
    merged = merge_profiles(a, b)
    assert len(merged.entries) == 3
    assert merged.captured_at == dt.date(2025, 6, 15)


def test_merge_preset_mismatch():
    with pytest.raises(PresetMismatch):
        merge_profiles(profile([entry()], preset="medium"), profile([entry("z")], preset="slow"))


def test_merge_platform_mismatch():
    with pytest.raises(PreconditionViolation, match="platforms differ"):
        merge_profiles(profile([entry()], platform="facebook"),
                       profile([entry("z")], platform="youtube"))


def test_merge_duplicate_pair(tmp_path):
    with pytest.raises(DuplicatePair):
        merge_profiles(profile([entry("same")]), profile([entry("same")]))
    # Within one profile too: saving refuses, and so does loading a document
    # written by hand.
    path = tmp_path / "p.json"
    with pytest.raises(DuplicatePair):
        save_profile(profile([entry("same"), entry("same")]), path)
    assert not path.exists()
    save_profile(profile([entry("same"), entry("other")]), path)
    path.write_text(path.read_text().replace('"other"', '"same"'))
    with pytest.raises(DuplicatePair):
        load_profile(path)
