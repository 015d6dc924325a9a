"""Scene description files.

Scenes are stored as a JSON key-value tree (see README for the schema).
The parser validates every key and rejects unknown ones by name; syntax
errors carry the line and column reported by the JSON decoder.
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
_MATERIAL_KEYS = {
    "albedo",
    "checker_color",
    "checker_cell",
    "specular_strength",
    "shininess",
    "light_direction",
}
_SHAPE_KEYS = {
    "sphere": {"shape", "center", "radius", "material"},
    "box": {"shape", "min", "max", "material"},
    "plane": {"shape", "point", "normal", "half_extent", "material"},
}
_TOP_KEYS = {"background", "near", "far", "cameras", "primitives"}


def _check_keys(obj: dict, allowed: set, where: str):
    for key in obj:
        if key not in allowed:
            raise SceneFormatError(f"unknown key '{key}' in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SceneFormatError(f"missing key '{key}' in {where}")
    return obj[key]


def json_array(obj, key: str, where: str, shape=()) -> np.ndarray:
    """``obj[key]`` as a finite float array of ``shape``; errors name
    ``where`` and the quoted key."""
    try:
        value = np.asarray(_require(obj, key, where), dtype=np.float64).reshape(shape)
        valid = np.all(np.isfinite(value))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise SceneFormatError(f"{where}: '{key}' must be {np.prod(shape, dtype=int)} "
                               "finite number(s)")
    return value


def _parse_material(obj, where: str) -> Material:
    if not isinstance(obj, dict):
        raise SceneFormatError(f"material in {where} must be an object")
    _check_keys(obj, _MATERIAL_KEYS, f"material of {where}")
    kwargs = {"albedo": _require(obj, "albedo", f"material of {where}")}
    for key in _MATERIAL_KEYS - {"albedo"}:
        if key in obj:
            kwargs[key] = obj[key]
    try:
        return Material(**kwargs)
    except Exception as exc:
        raise SceneFormatError(f"invalid material in {where}: {exc}") from exc


def camera_to_json(cam: PinholeCamera) -> dict:
    """The JSON object of one camera; :func:`camera_from_json` inverts it."""
    obj = {key: getattr(cam, key) for key in _CAMERA_SHAPES}
    obj["rotation"] = cam.rotation.reshape(-1).tolist()
    obj["translation"] = cam.translation.tolist()
    return obj


def camera_from_json(obj, where: str, extra=frozenset()) -> PinholeCamera:
    """The camera of a JSON object; messages name ``where`` and the quoted key.

    Keys in ``extra`` are allowed and left to the caller; any other unknown
    key, a missing key, a value of the wrong shape or a non-finite value is
    refused with ``SceneFormatError``.
    """
    if not isinstance(obj, dict):
        raise SceneFormatError(f"{where} must be an object")
    _check_keys(obj, _CAMERA_SHAPES.keys() | extra, where)
    values = {key: json_array(obj, key, where, shape) for key, shape in _CAMERA_SHAPES.items()}
    try:
        return PinholeCamera(
            width=int(values["width"]),
            height=int(values["height"]),
            fx=float(values["fx"]),
            fy=float(values["fy"]),
            cx=float(values["cx"]),
            cy=float(values["cy"]),
            rotation=values["rotation"],
            translation=values["translation"],
        )
    except InputError as exc:
        raise SceneFormatError(f"invalid camera {where}: {exc}") from exc


def _parse_primitive(obj, index: int) -> Primitive:
    where = f"primitives[{index}]"
    if not isinstance(obj, dict):
        raise SceneFormatError(f"{where} must be an object")
    shape = _require(obj, "shape", where)
    if shape not in _SHAPE_KEYS:
        raise SceneFormatError(f"{where}: unknown shape '{shape}'")
    _check_keys(obj, _SHAPE_KEYS[shape], where)
    material = _parse_material(_require(obj, "material", where), where)
    try:
        if shape == "sphere":
            return Sphere(
                center=json_array(obj, "center", where, (3,)),
                radius=float(json_array(obj, "radius", where)),
                material=material,
            )
        if shape == "box":
            return Box(
                minimum=json_array(obj, "min", where, (3,)),
                maximum=json_array(obj, "max", where, (3,)),
                material=material,
            )
        return PlanePatch(
            point=json_array(obj, "point", where, (3,)),
            normal=json_array(obj, "normal", where, (3,)),
            half_extent=float(json_array(obj, "half_extent", where)),
            material=material,
        )
    except SceneFormatError:
        raise
    except Exception as exc:
        raise SceneFormatError(f"invalid {where}: {exc}") from exc


def parse_scene(text: str) -> SyntheticScene:
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(root, dict):
        raise SceneFormatError("scene file must contain a top-level object")
    _check_keys(root, _TOP_KEYS, "scene")
    cameras_obj = _require(root, "cameras", "scene")
    primitives_obj = _require(root, "primitives", "scene")
    if not isinstance(cameras_obj, list) or not isinstance(primitives_obj, list):
        raise SceneFormatError("'cameras' and 'primitives' must be arrays")
    cameras = [camera_from_json(c, f"cameras[{i}]") for i, c in enumerate(cameras_obj)]
    primitives = [_parse_primitive(p, i) for i, p in enumerate(primitives_obj)]
    try:
        return SyntheticScene(
            primitives=primitives,
            background=_require(root, "background", "scene"),
            cameras=cameras,
            near=float(_require(root, "near", "scene")),
            far=float(_require(root, "far", "scene")),
        )
    except SceneFormatError:
        raise
    except Exception as exc:
        raise SceneFormatError(f"invalid scene: {exc}") from exc


def load_scene(path) -> SyntheticScene:
    """Parse a scene file; a ``SceneFormatError`` names the file."""
    try:
        return parse_scene(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SceneFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except SceneFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def dump_scene(scene: SyntheticScene) -> str:
    """Serialize a scene back to the JSON schema (inverse of parse_scene)."""

    def material_obj(mat: Material):
        obj = {"albedo": mat.albedo.tolist()}
        if mat.checker_color is not None:
            obj["checker_color"] = mat.checker_color.tolist()
            obj["checker_cell"] = mat.checker_cell
        if mat.specular_strength > 0:
            obj["specular_strength"] = mat.specular_strength
            obj["shininess"] = mat.shininess
            obj["light_direction"] = mat.light_direction.tolist()
        return obj

    prims = []
    for prim in scene.primitives:
        if isinstance(prim, Sphere):
            prims.append(
                {
                    "shape": "sphere",
                    "center": prim.center.tolist(),
                    "radius": prim.radius,
                    "material": material_obj(prim.material),
                }
            )
        elif isinstance(prim, Box):
            prims.append(
                {
                    "shape": "box",
                    "min": prim.minimum.tolist(),
                    "max": prim.maximum.tolist(),
                    "material": material_obj(prim.material),
                }
            )
        elif isinstance(prim, PlanePatch):
            prims.append(
                {
                    "shape": "plane",
                    "point": prim.point.tolist(),
                    "normal": prim.normal.tolist(),
                    "half_extent": prim.half_extent,
                    "material": material_obj(prim.material),
                }
            )
        else:
            raise SceneFormatError(f"cannot serialize primitive type {type(prim).__name__}")
    cameras = [camera_to_json(cam) for cam in scene.cameras]
    return json.dumps(
        {
            "background": scene.background.tolist(),
            "near": scene.near,
            "far": scene.far,
            "cameras": cameras,
            "primitives": prims,
        },
        indent=2,
    )
