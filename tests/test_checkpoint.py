"""The one artifact container: a byte-level layout oracle, round trips, and
typed errors for CRC-valid but malformed payloads and truncated frame files."""

import struct
import zlib

import numpy as np
import pytest

from synthvc import checkpoint as ck
from synthvc import codec as cd
from synthvc import synthworld as sw
from synthvc.errors import ArtifactFormatError


def _u32(v: int) -> bytes:
    return struct.pack("<I", v)


def _sealed(body: bytes) -> bytes:
    """Magic, the given bytes, and a CRC32 over both: passes the CRC check."""
    payload = b"SVCK" + body
    return payload + _u32(zlib.crc32(payload))


def test_tensor_record_layout_bytes(tmp_path):
    # byte-level oracle for a whole one-component container
    path = tmp_path / "one.ckpt"
    ck.save_checkpoint(path, {"c": (True, {"ab": np.array([[1.0]], dtype=np.float32)})})
    raw = path.read_bytes()
    assert raw[:4] == b"SVCK"
    assert raw[4:8] == _u32(1)                        # version
    assert raw[8:12] == _u32(1)                       # component count
    assert raw[12:16] == _u32(1) and raw[16:17] == b"c"
    assert raw[17:18] == b"\x01"                      # frozen
    assert raw[18:22] == _u32(1)                      # tensor count
    assert raw[22:26] == _u32(4) and raw[26:30] == b"c/ab"
    assert raw[30:34] == _u32(2)                      # rank
    assert raw[34:38] == _u32(1) and raw[38:42] == _u32(1)   # dims
    assert raw[42:46] == np.float32(1.0).tobytes()
    assert raw[46:] == _u32(zlib.crc32(raw[:46]))
    assert raw == _sealed(raw[4:46])


def test_tensor_record_round_trip(tmp_path):
    rng = np.random.default_rng(55)
    weights = rng.normal(size=(3, 2)).astype(np.float32)
    frames = rng.normal(size=(4, 5)).astype(np.float32)
    comps = {
        "lm": (False, {"blk0.w1": weights, "b": np.float32([1, 2, 3])}),
        "frames": (True, {"src->ref": frames, "snr": np.float32(2.5)}),
    }
    path = tmp_path / "rt.ckpt"
    ck.save_checkpoint(path, comps)
    back = ck.load_checkpoint(path)
    assert set(back) == {"lm", "frames"}
    for name, (frozen, tensors) in comps.items():
        assert back[name][0] is frozen
        assert set(back[name][1]) == set(tensors)
        for pname, arr in tensors.items():
            got = back[name][1][pname]
            assert got.dtype == np.float32 and got.shape == np.shape(arr)
            np.testing.assert_array_equal(got, arr)
    assert back["frames"][1]["snr"].shape == ()


_REC = _u32(3) + b"c/a" + _u32(0) + np.float32(1.0).tobytes()   # rank-0 record "c/a"


@pytest.mark.parametrize("body, match", [
    (_u32(1) + _u32(5), "truncated"),                       # 5 components, none there
    (_u32(1) + _u32(1) + _u32(2) + b"\xff\xfe" + b"\x00" + _u32(0), "UTF-8"),
    (_u32(1) + _u32(2) + (_u32(1) + b"c\x01" + _u32(0)) * 2, "repeated component"),
    (_u32(1) + _u32(1) + _u32(1) + b"c\x01" + _u32(2) + _REC * 2, "out of order"),
    (_u32(1) + _u32(1) + _u32(1) + b"c\x01" + _u32(1) + _REC + b"\x00", "after the last record"),
], ids=["count", "utf8", "repeated-component", "repeated-record", "trailing"])
def test_crc_valid_malformed_payload_is_a_format_error(tmp_path, body, match):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_sealed(body))
    with pytest.raises(ArtifactFormatError, match=match):
        ck.load_checkpoint(path)


def test_frames_file_cut_at_a_record_boundary_is_a_format_error(tmp_path):
    first = np.ones((3, 2), dtype=np.float32)
    path = tmp_path / "frames.bin"
    sw.write_frames(path, {"utt0": first, "utt1": np.full((4, 2), 2.0, dtype=np.float32)})
    raw = path.read_bytes()
    cut = raw[:raw.index(first.tobytes()) + first.nbytes]    # ends with record utt0
    path.write_bytes(cut)
    with pytest.raises(ArtifactFormatError):
        sw.load_frames(path)
    path.write_bytes(_sealed(cut[4:]))            # CRC-valid, one record short
    with pytest.raises(ArtifactFormatError, match="truncated"):
        sw.load_frames(path)


def test_frames_and_codec_readers_reject_each_others_files(tmp_path):
    frames = tmp_path / "frames.bin"
    sw.write_frames(frames, {"utt0": np.ones((3, 2), dtype=np.float32)})
    with pytest.raises(ArtifactFormatError, match="codec"):
        cd.load_codec(frames)
    lm = tmp_path / "lm.ckpt"
    ck.save_checkpoint(lm, {"lm": (False, {"w": np.ones(2, dtype=np.float32)})})
    with pytest.raises(ArtifactFormatError, match="frames"):
        sw.load_frames(lm)
