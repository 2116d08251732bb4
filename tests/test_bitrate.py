"""Bitrate measure: reported-rate passthrough, packet-sum fallback, stability."""

import dataclasses

import pytest

from snvse.bitrate import BitrateMethod, measure_bitrate
from snvse.errors import PreconditionViolation
from snvse.probe import probe_media, scan_video_stream_bytes

from conftest import make_abr_clip, make_clip


def _fake_info(tmp_path, **overrides):
    from fractions import Fraction
    from snvse.probe import MediaInfo

    defaults = dict(
        path=tmp_path / "x.mp4",
        width=640,
        height=360,
        frame_rate=Fraction(30, 1),
        codec_name="h264",
        pixel_format="yuv420p",
        duration=10.0,
        file_size=1,
        stream_bitrate=None,
    )
    defaults.update(overrides)
    return MediaInfo(**defaults)


def test_reported_stream_bitrate_passthrough(tmp_path):
    info = _fake_info(tmp_path, stream_bitrate=1_200_000.0)
    measured = measure_bitrate(info)
    assert measured.value == 1_200_000.0
    assert measured.method is BitrateMethod.REPORTED_STREAM_BITRATE


def test_packet_sum_over_duration_arithmetic(tmp_path, monkeypatch):
    # 1,500,000 bytes of video packets over 10 s -> 1,200,000 bit/s.
    import snvse.bitrate as bitrate_mod

    monkeypatch.setattr(bitrate_mod, "scan_video_stream_bytes", lambda path, cfg=None: 1_500_000)
    info = _fake_info(tmp_path, duration=10.0, stream_bitrate=None)
    measured = measure_bitrate(info)
    assert measured.value == pytest.approx(1_200_000.0)
    assert measured.method is BitrateMethod.VIDEO_BYTES_OVER_DURATION


def test_fallback_agrees_with_reported_rate(config, clips):
    info = probe_media(clips["hd"], config)
    if info.stream_bitrate is None:
        pytest.skip("backend does not report stream bitrate")
    forced = dataclasses.replace(info, stream_bitrate=None)
    fallback = measure_bitrate(forced, config)
    assert fallback.method is BitrateMethod.VIDEO_BYTES_OVER_DURATION
    # Packet payload over duration tracks the reported stream rate.
    assert fallback.value == pytest.approx(info.stream_bitrate, rel=0.10)


def test_missing_duration_raises(tmp_path):
    info = _fake_info(tmp_path, duration=0.0)
    with pytest.raises(PreconditionViolation, match="nonpositive duration"):
        measure_bitrate(info)


def test_abr_fixture_measures_near_requested_rate(config, tmp_path):
    # Oracle: a clip encoded toward 800 kbit/s must measure within +/-15%.
    clip = make_abr_clip(config, tmp_path / "abr.mp4", bitrate="800k", duration=6)
    measured = measure_bitrate(probe_media(clip, config), config)
    assert measured.value == pytest.approx(800_000.0, rel=0.15)


def test_double_duration_keeps_bitrate(config, tmp_path):
    # Same content twice as long: rate moves < 10% (container overhead only).
    short = make_clip(config, tmp_path / "short.mp4", size=(640, 360), duration=4)
    long = make_clip(config, tmp_path / "long.mp4", size=(640, 360), duration=8)
    rate_short = measure_bitrate(probe_media(short, config), config).value
    rate_long = measure_bitrate(probe_media(long, config), config).value
    assert abs(rate_long - rate_short) / rate_short < 0.10


def test_repeated_measurement_is_identical(config, clips):
    info = probe_media(clips["sd"], config)
    assert measure_bitrate(info, config) == measure_bitrate(info, config)


def test_packet_scan_positive(config, clips):
    assert scan_video_stream_bytes(clips["sd"], config) > 0
