"""Image and depth-map file formats, and the file names of per-view files.

* PPM (binary, ``P6``): 8-bit renders and ground-truth images. The header
  is exactly ``P6\\n<w> <h>\\n255\\n`` followed by row-major RGB bytes.
* Records: NRIF, NRDF and the NRAY distribution maps share one layout and
  one codec, :func:`write_record` and :func:`read_record`: a 4-byte magic,
  little-endian struct header fields, then a little-endian f32 payload.
* NRIF: float RGB image. Magic ``NRIF``, u32 width, u32 height, then
  ``w*h*3`` f32 row-major.
* NRDF: depth map with scene metadata. Magic ``NRDF``, u32 width, u32
  height, f32 near, f32 far, f32 scene scale, then ``w*h`` f32
  camera-frame depths row-major.

Every writer replaces its file atomically, and every reader refuses a
malformed file with an ``InputError`` that names it.
"""

from __future__ import annotations

import os
import re
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from rayvis.errors import InputError
from rayvis.scene import DepthMap

# (magic, struct format of the header fields) of each record layout
NRIF = (b"NRIF", "II")     # width, height
NRDF = (b"NRDF", "IIfff")  # width, height, near, far, scene scale


def view_name(index: int, suffix: str) -> str:
    """File name of view ``index``: ``view_NNNN.<suffix>``."""
    return f"view_{index:04d}.{suffix}"


def scan_views(directory, suffix: str) -> dict:
    """The ``view_NNNN.<suffix>`` files of ``directory``, keyed by view index."""
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"not a directory: {directory}")
    pattern = re.compile(rf"view_(\d+)\.{re.escape(suffix)}")
    return {int(m.group(1)): path for path in sorted(directory.iterdir())
            if (m := pattern.fullmatch(path.name))}


@contextmanager
def atomic_writer(path):
    """A binary file that replaces ``path`` only when the block completes.

    It is written as a temporary sibling and renamed; on an error the
    temporary file is removed and ``path`` keeps its old contents.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_bytes(path, blob: bytes):
    """Write a file via a temporary sibling and rename."""
    with atomic_writer(path) as f:
        f.write(blob)


def write_record(path, magic: bytes, header: str, fields, values):
    """Write ``magic``, the ``fields`` packed by the struct format ``header``
    and ``values`` as little-endian f32, atomically."""
    with atomic_writer(path) as f:
        f.write(struct.pack("<4s" + header, magic, *fields))
        f.write(np.asarray(values).astype("<f4").tobytes())


def read_record(path, magic: bytes, header: str, count):
    """Read a file written by :func:`write_record`.

    ``count(*fields)`` is the number of payload values the header fields
    call for. Returns the header fields and the payload as a flat f64
    array. A truncated header, another magic, a payload of another size
    and non-finite header or payload values raise ``InputError``.
    """
    blob = Path(path).read_bytes()
    fmt = "<4s" + header
    size = struct.calcsize(fmt)
    if len(blob) < size:
        raise InputError(f"{path}: truncated header ({len(blob)} of {size} bytes)")
    found, *fields = struct.unpack_from(fmt, blob)
    if found != magic:
        raise InputError(f"{path}: bad magic {found!r}, expected {magic!r}")
    if not np.all(np.isfinite(fields)):
        raise InputError(f"{path}: non-finite header values")
    expected = size + 4 * count(*fields)
    if len(blob) != expected:
        raise InputError(f"{path}: wrong payload size: expected {expected} bytes, "
                         f"got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", offset=size).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise InputError(f"{path}: non-finite payload values")
    return fields, values


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
    if len(blob) - pos != w * h * 3:
        raise InputError(f"{path}: {len(blob) - pos} bytes of pixel data, expected {w * h * 3}")
    data = np.frombuffer(blob, dtype=np.uint8, offset=pos)
    return data.reshape(h, w, 3).astype(np.float64) / 255.0


def write_float_image(path, image: np.ndarray):
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise InputError("image must have shape (H, W, 3)")
    h, w = image.shape[:2]
    write_record(path, *NRIF, (w, h), image)


def read_float_image(path) -> np.ndarray:
    (w, h), values = read_record(path, *NRIF, lambda w, h: w * h * 3)
    return values.reshape(h, w, 3)


def write_depth_map(path, depth: DepthMap):
    values = np.asarray(depth.values, dtype=np.float64)
    if values.ndim != 2:
        raise InputError("depth map must be 2D")
    h, w = values.shape
    write_record(path, *NRDF, (w, h, depth.near, depth.far, depth.scene_scale), values)


def read_depth_map(path) -> DepthMap:
    (w, h, near, far, scale), values = read_record(path, *NRDF, lambda w, h, *_: w * h)
    return DepthMap(values.reshape(h, w), near, far, scale)
