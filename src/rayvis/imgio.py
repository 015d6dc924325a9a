"""Image and depth-map file formats.

* PPM (binary, ``P6``): 8-bit renders and ground-truth images. The header
  is exactly ``P6\\n<w> <h>\\n255\\n`` followed by row-major RGB bytes.
* NRIF: float RGB image. Magic ``NRIF``, u32 width, u32 height, then
  ``w*h*3`` little-endian f32 row-major.
* NRDF: depth map with scene metadata. Magic ``NRDF``, u32 width, u32
  height, f32 near, f32 far, f32 scene scale, then ``w*h`` little-endian
  f32 camera-frame depths row-major.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from rayvis.errors import InputError
from rayvis.scene import DepthMap

NRIF_MAGIC = b"NRIF"
NRDF_MAGIC = b"NRDF"


def atomic_write_bytes(path, blob: bytes):
    """Write a file via a temporary sibling and rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def encode_ppm(image: np.ndarray) -> bytes:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise InputError("image must have shape (H, W, 3)")
    h, w = image.shape[:2]
    data = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    return f"P6\n{w} {h}\n255\n".encode("ascii") + data.tobytes()


def write_ppm(path, image: np.ndarray):
    atomic_write_bytes(path, encode_ppm(image))


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a float image in [0, 1]."""
    blob = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if fields[0] != b"P6":
        raise InputError(f"{path}: not a binary PPM file")
    if not all(f.isdigit() for f in fields[1:]):
        raise InputError(f"{path}: truncated or malformed PPM header")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise InputError(f"{path}: only maxval 255 is supported")
    pos += 1  # single whitespace after the header
    if len(blob) - pos < w * h * 3:
        raise InputError(f"{path}: truncated pixel data")
    data = np.frombuffer(blob, dtype=np.uint8, count=w * h * 3, offset=pos)
    return data.reshape(h, w, 3).astype(np.float64) / 255.0


def write_float_image(path, image: np.ndarray):
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise InputError("image must have shape (H, W, 3)")
    h, w = image.shape[:2]
    header = struct.pack("<4sII", NRIF_MAGIC, w, h)
    atomic_write_bytes(path, header + image.astype("<f4").tobytes())


def read_float_image(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 12:
        raise InputError(f"{path}: truncated float image")
    magic, w, h = struct.unpack("<4sII", blob[:12])
    if magic != NRIF_MAGIC:
        raise InputError(f"{path}: bad magic {magic!r}")
    if len(blob) != 12 + w * h * 3 * 4:
        raise InputError(f"{path}: wrong payload size")
    data = np.frombuffer(blob, dtype="<f4", offset=12).astype(np.float64)
    if not np.all(np.isfinite(data)):
        raise InputError(f"{path}: non-finite pixel values")
    return data.reshape(h, w, 3)


def write_depth_map(path, depth: DepthMap):
    values = np.asarray(depth.values, dtype=np.float64)
    if values.ndim != 2:
        raise InputError("depth map must be 2D")
    h, w = values.shape
    header = struct.pack(
        "<4sIIfff", NRDF_MAGIC, w, h, depth.near, depth.far, depth.scene_scale
    )
    atomic_write_bytes(path, header + values.astype("<f4").tobytes())


def read_depth_map(path) -> DepthMap:
    blob = Path(path).read_bytes()
    if len(blob) < 24:
        raise InputError(f"{path}: truncated depth map")
    magic, w, h, near, far, scale = struct.unpack("<4sIIfff", blob[:24])
    if magic != NRDF_MAGIC:
        raise InputError(f"{path}: bad magic {magic!r}")
    if len(blob) != 24 + w * h * 4:
        raise InputError(f"{path}: wrong payload size")
    values = np.frombuffer(blob, dtype="<f4", offset=24).astype(np.float64)
    if not np.all(np.isfinite(values)) or not np.all(np.isfinite((near, far, scale))):
        raise InputError(f"{path}: non-finite depth values")
    return DepthMap(values.reshape(h, w), float(near), float(far), float(scale))
