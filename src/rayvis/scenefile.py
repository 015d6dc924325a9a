"""Scene description files.

Scenes are stored as a JSON key-value tree (see README for the schema).
Each object of the tree (camera, primitive, material) is declared once, as
a table of its keys and the shapes of their values; the parser and
:func:`dump_scene` both read these tables. The parser reads every value as
finite numbers of the declared shape, rejects unknown keys by name, and
reports syntax errors with the line and column of the JSON decoder.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from rayvis.camera import PinholeCamera
from rayvis.errors import InputError, SceneFormatError
from rayvis.scene import Box, Material, PlanePatch, Primitive, Sphere, SyntheticScene

# camera key -> the shape of its value; rotation is world-to-camera, row-major
_CAMERA_SHAPES = {"width": (), "height": (), "fx": (), "fy": (), "cx": (), "cy": (),
                  "rotation": (3, 3), "translation": (3,)}
# material key (also its Material attribute) -> the shape of its value;
# only "albedo" is required
_MATERIAL_SHAPES = {"albedo": (3,), "checker_color": (3,), "checker_cell": (),
                    "specular_strength": (), "shininess": (), "light_direction": (3,)}
# primitive "shape" -> (class, {key: (attribute, shape of its value)}); every
# key is required, and so are "shape" and "material"
_PRIMITIVES = {
    "sphere": (Sphere, {"center": ("center", (3,)), "radius": ("radius", ())}),
    "box": (Box, {"min": ("minimum", (3,)), "max": ("maximum", (3,))}),
    "plane": (PlanePatch, {"point": ("point", (3,)), "normal": ("normal", (3,)),
                           "half_extent": ("half_extent", ())}),
}
# top-level key (also its SyntheticScene attribute) -> the shape of its value
_SCENE_SHAPES = {"background": (3,), "near": (), "far": ()}


def _check_keys(obj, allowed, where: str):
    if not isinstance(obj, dict):
        raise SceneFormatError(f"{where} must be an object")
    for key in obj:
        if key not in allowed:
            raise SceneFormatError(f"unknown key '{key}' in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SceneFormatError(f"missing key '{key}' in {where}")
    return obj[key]


def json_array(obj, key: str, where: str, shape=()):
    """``obj[key]`` as finite numbers of ``shape``: a float for ``()``, else a
    float array; errors name ``where`` and the quoted key."""
    try:
        value = np.asarray(_require(obj, key, where), dtype=np.float64).reshape(shape)
        valid = np.all(np.isfinite(value))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise SceneFormatError(f"{where}: '{key}' must be {np.prod(shape, dtype=int)} "
                               "finite number(s)")
    return value if shape else float(value)


def _to_json(value):
    """A JSON value of ``value``: arrays flattened to lists, scalars as they are."""
    return np.ravel(value).tolist() if np.ndim(value) else np.asarray(value).tolist()


def _build(cls, where: str, values: dict):
    """``cls(**values)``; a value the class refuses is reported at ``where``."""
    try:
        return cls(**values)
    except InputError as exc:
        raise SceneFormatError(f"invalid {where}: {exc}") from exc


def camera_to_json(cam: PinholeCamera) -> dict:
    """The JSON object of one camera; :func:`camera_from_json` inverts it."""
    return {key: _to_json(getattr(cam, key)) for key in _CAMERA_SHAPES}


def camera_from_json(obj, where: str, extra=frozenset()) -> PinholeCamera:
    """The camera of a JSON object; messages name ``where`` and the quoted key.

    Keys in ``extra`` are allowed and left to the caller; any other unknown
    key, a missing key, a value of the wrong shape or a non-finite value is
    refused with ``SceneFormatError``.
    """
    _check_keys(obj, _CAMERA_SHAPES.keys() | extra, where)
    values = {key: json_array(obj, key, where, shape) for key, shape in _CAMERA_SHAPES.items()}
    for key in ("width", "height"):
        values[key] = int(values[key])
    return _build(PinholeCamera, where, values)


def _parse_material(obj, where: str) -> Material:
    _check_keys(obj, _MATERIAL_SHAPES.keys(), where)
    _require(obj, "albedo", where)
    values = {key: json_array(obj, key, where, shape)
              for key, shape in _MATERIAL_SHAPES.items() if key in obj}
    return _build(Material, where, values)


def _parse_primitive(obj, where: str) -> Primitive:
    if not isinstance(obj, dict):
        raise SceneFormatError(f"{where} must be an object")
    shape = _require(obj, "shape", where)
    if not isinstance(shape, str) or shape not in _PRIMITIVES:
        raise SceneFormatError(f"{where}: unknown 'shape' {shape!r}")
    cls, fields = _PRIMITIVES[shape]
    _check_keys(obj, fields.keys() | {"shape", "material"}, where)
    values = {attr: json_array(obj, key, where, value_shape)
              for key, (attr, value_shape) in fields.items()}
    values["material"] = _parse_material(_require(obj, "material", where), f"material of {where}")
    return _build(cls, where, values)


def parse_scene(text: str) -> SyntheticScene:
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    _check_keys(root, _SCENE_SHAPES.keys() | {"cameras", "primitives"}, "scene")
    cameras_obj = _require(root, "cameras", "scene")
    primitives_obj = _require(root, "primitives", "scene")
    if not isinstance(cameras_obj, list) or not isinstance(primitives_obj, list):
        raise SceneFormatError("'cameras' and 'primitives' must be arrays")
    values = {
        "cameras": [camera_from_json(c, f"cameras[{i}]") for i, c in enumerate(cameras_obj)],
        "primitives": [_parse_primitive(p, f"primitives[{i}]")
                       for i, p in enumerate(primitives_obj)],
    }
    for key, shape in _SCENE_SHAPES.items():
        values[key] = json_array(root, key, "scene", shape)
    return _build(SyntheticScene, "scene", values)


def load_scene(path) -> SyntheticScene:
    """Parse a scene file; a ``SceneFormatError`` names the file."""
    try:
        return parse_scene(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SceneFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except SceneFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _primitive_to_json(prim: Primitive) -> dict:
    for shape, (cls, fields) in _PRIMITIVES.items():
        if isinstance(prim, cls):
            obj = {"shape": shape}
            obj.update((key, _to_json(getattr(prim, attr))) for key, (attr, _) in fields.items())
            mat = prim.material
            obj["material"] = {key: _to_json(getattr(mat, key)) for key in _MATERIAL_SHAPES
                               if getattr(mat, key) is not None}
            return obj
    raise SceneFormatError(f"cannot serialize primitive type {type(prim).__name__}")


def dump_scene(scene: SyntheticScene) -> str:
    """Serialize a scene to the JSON schema; :func:`parse_scene` inverts it.

    Every material field that is not ``None`` is written.
    """
    obj = {key: _to_json(getattr(scene, key)) for key in _SCENE_SHAPES}
    obj["cameras"] = [camera_to_json(cam) for cam in scene.cameras]
    obj["primitives"] = [_primitive_to_json(prim) for prim in scene.primitives]
    return json.dumps(obj, indent=2)
