"""The one binary artifact format: named components of named float32 tensors,
CRC-guarded.

Every binary artifact of a run is such a container: `codec/codec.rvq` (one
frozen component `codec`), `corpus/frames.bin` and a conversion's
`<out>.frames.bin` (one frozen component `frames`), the frozen encoders and
oracles under `encoders/`, and the LM checkpoints under `checkpoints/`.

Layout, every integer a little-endian u32 unless marked otherwise:

    magic "SVCK", version, component count
    per component, sorted by name: name, frozen flag (u8), tensor count
    per component in that order, per tensor sorted by name: one tensor
        record named "component/tensor"
    CRC32 over every preceding byte

A name is its UTF-8 byte length, then those bytes. A tensor record is its
name, rank, one value per dim, then the values as little-endian float32 in C
order (a rank-0 record holds one value). `load_checkpoint` raises
`ArtifactFormatError` on a bad magic, CRC or version, a short read, a
non-UTF-8 name, a repeated component, a record outside its component or
repeated, and bytes left after the last record.
"""

from __future__ import annotations

import io
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ArtifactFormatError
from .numerics import Tensor

MAGIC = b"SVCK"
VERSION = 1


def _write_name(fh: io.BytesIO, name: str) -> None:
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)


def _write_record(fh: io.BytesIO, name: str, arr: np.ndarray) -> None:
    _write_name(fh, name)
    fh.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    """Cursor over a payload whose every read must be complete."""

    def __init__(self, data: memoryview, pos: int, path: Path):
        self.data, self.pos, self.path = data, pos, path

    def take(self, n: int) -> memoryview:
        if n > len(self.data) - self.pos:
            raise ArtifactFormatError(f"checkpoint {self.path}: truncated at byte {self.pos}")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def name(self) -> str:
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError:
            raise ArtifactFormatError(f"checkpoint {self.path}: name is not UTF-8") from None

    def record(self) -> tuple[str, np.ndarray]:
        name = self.name()
        dims = [self.u32() for _ in range(self.u32())]
        payload = self.take(4 * math.prod(dims))
        return name, np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)


def save_checkpoint(path: Path, components: dict[str, tuple[bool, dict[str, np.ndarray]]]) -> None:
    """components: name -> (frozen flag, {param name -> array})."""
    buf = io.BytesIO()
    buf.write(MAGIC + struct.pack("<II", VERSION, len(components)))
    names = sorted(components)
    for name in names:
        frozen, tensors = components[name]
        _write_name(buf, name)
        buf.write(struct.pack("<BI", 1 if frozen else 0, len(tensors)))
    for name in names:
        _, tensors = components[name]
        for pname in sorted(tensors):
            _write_record(buf, f"{name}/{pname}", np.asarray(tensors[pname]))
    buf.write(struct.pack("<I", zlib.crc32(buf.getbuffer()) & 0xFFFFFFFF))
    Path(path).write_bytes(buf.getbuffer())


def load_checkpoint(path: Path) -> dict[str, tuple[bool, dict[str, np.ndarray]]]:
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise ArtifactFormatError(f"checkpoint {path}: bad magic")
    (crc_stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != crc_stored:
        raise ArtifactFormatError(f"checkpoint {path}: CRC mismatch, refusing to load")
    fh = _Reader(raw[:-4], len(MAGIC), path)
    version = fh.u32()
    if version != VERSION:
        raise ArtifactFormatError(f"checkpoint {path}: unsupported version {version}")
    manifest = [(fh.name(), bool(fh.take(1)[0]), fh.u32()) for _ in range(fh.u32())]
    out: dict[str, tuple[bool, dict[str, np.ndarray]]] = {
        name: (frozen, {}) for name, frozen, _ in manifest}
    if len(out) != len(manifest):
        raise ArtifactFormatError(f"checkpoint {path}: repeated component name")
    for name, _, count in manifest:
        for _ in range(count):
            full, arr = fh.record()
            comp, _, pname = full.partition("/")
            if comp != name or pname in out[comp][1]:
                raise ArtifactFormatError(f"checkpoint {path}: record {full!r} out of order")
            out[comp][1][pname] = arr
    if fh.pos != len(fh.data):
        raise ArtifactFormatError(
            f"checkpoint {path}: {len(fh.data) - fh.pos} bytes after the last record")
    return out


# ---------------------------------------------------------------------------
# adapters between checkpoints and live param dicts


def params_to_components(params: dict[str, Tensor],
                         frozen: bool) -> dict[str, tuple[bool, dict[str, np.ndarray]]]:
    """Split a flat param dict on the first dotted segment."""
    comps: dict[str, dict[str, np.ndarray]] = {}
    for name, t in params.items():
        comp, _, rest = name.partition(".")
        comps.setdefault(comp, {})[rest] = t.data
    return {c: (frozen, tensors) for c, tensors in comps.items()}


def components_to_params(components: dict[str, tuple[bool, dict[str, np.ndarray]]]) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for comp in sorted(components):
        frozen, tensors = components[comp]
        for pname in sorted(tensors):
            params[f"{comp}.{pname}"] = Tensor(tensors[pname], requires_grad=not frozen)
    return params
