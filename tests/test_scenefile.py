import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from rayvis.errors import SceneFormatError
from rayvis.scene import Box, Material, PlanePatch, Sphere, SyntheticScene
from rayvis.scenefile import camera_from_json, camera_to_json, dump_scene, load_scene, parse_scene

RING_FILE = Path(__file__).resolve().parent.parent / "scenes" / "two_spheres.json"


def assert_same(a, b, unit_atol=0.0):
    """Every dataclass field of ``a`` and ``b`` is equal; the unit vectors
    (``light_direction``, plane ``normal``), normalized again each time they
    are built, may differ by ``unit_atol``."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            assert_same(x, y, unit_atol)
        elif f.name in ("light_direction", "normal"):
            np.testing.assert_allclose(x, y, rtol=0, atol=unit_atol, err_msg=f.name)
        else:
            assert (x is None and y is None) or np.array_equal(x, y), f.name


def assert_same_scene(a, b, unit_atol=0.0):
    assert np.array_equal(a.background, b.background)
    assert (a.near, a.far) == (b.near, b.far)
    assert len(a.cameras) == len(b.cameras) and len(a.primitives) == len(b.primitives)
    for x, y in zip(a.cameras + a.primitives, b.cameras + b.primitives):
        assert_same(x, y, unit_atol)


class TestParse:
    def test_round_trip_through_text(self, ring_scene):
        text = dump_scene(ring_scene)
        parsed = parse_scene(text)
        assert len(parsed.primitives) == len(ring_scene.primitives)
        assert len(parsed.cameras) == len(ring_scene.cameras)
        assert parsed.near == ring_scene.near and parsed.far == ring_scene.far
        np.testing.assert_allclose(parsed.background, ring_scene.background)
        for a, b in zip(parsed.cameras, ring_scene.cameras):
            np.testing.assert_allclose(a.rotation, b.rotation)
            np.testing.assert_allclose(a.translation, b.translation)
        for a, b in zip(parsed.primitives, ring_scene.primitives):
            np.testing.assert_allclose(a.center, b.center)
            assert a.radius == b.radius
            np.testing.assert_allclose(a.material.albedo, b.material.albedo)

    def test_unknown_top_key_rejected_by_name(self, ring_scene):
        import json

        obj = json.loads(dump_scene(ring_scene))
        obj["fog"] = 1.0
        with pytest.raises(SceneFormatError, match="fog"):
            parse_scene(json.dumps(obj))

    def test_unknown_primitive_key_rejected(self, ring_scene):
        import json

        obj = json.loads(dump_scene(ring_scene))
        obj["primitives"][0]["glow"] = True
        with pytest.raises(SceneFormatError, match="glow"):
            parse_scene(json.dumps(obj))

    def test_syntax_error_reports_line_and_column(self):
        with pytest.raises(SceneFormatError) as err:
            parse_scene('{\n  "near": 1.0,\n  "far": oops\n}')
        assert err.value.line == 3
        assert err.value.column is not None

    def test_missing_key(self):
        with pytest.raises(SceneFormatError, match="cameras"):
            parse_scene('{"background": [0,0,0], "near": 1, "far": 2, "primitives": []}')

    def test_unknown_shape(self, ring_scene):
        import json

        obj = json.loads(dump_scene(ring_scene))
        obj["primitives"][0]["shape"] = "torus"
        with pytest.raises(SceneFormatError, match="torus"):
            parse_scene(json.dumps(obj))

    def test_bundled_file_is_the_built_in_ring(self, ring_scene):
        # the file holds light directions normalized once; parsing normalizes them again
        assert_same_scene(load_scene(RING_FILE), ring_scene, unit_atol=1e-15)

    @pytest.mark.parametrize("material", [
        {},
        {"checker_color": (0.9, 0.8, 0.1), "checker_cell": 0.3},
        {"specular_strength": 0.4, "shininess": 9.0, "light_direction": (1.0, 2.0, -0.5)},
        {"checker_color": (0.9, 0.8, 0.1), "checker_cell": 0.3, "specular_strength": 0.4,
         "shininess": 9.0, "light_direction": (1.0, 2.0, -0.5)}],
        ids=["plain", "checker", "specular", "checker+specular"])
    @pytest.mark.parametrize("make", [
        lambda m: Sphere(center=(0.1, 0.0, -0.2), radius=0.5, material=m),
        lambda m: Box(minimum=(-0.4, -0.3, -0.2), maximum=(0.3, 0.4, 0.5), material=m),
        lambda m: PlanePatch(point=(0.0, 0.1, 0.0), normal=(0.3, 1.0, 0.2), half_extent=0.5,
                             material=m)],
        ids=["sphere", "box", "plane"])
    def test_dump_parse_round_trip(self, ring_scene, make, material):
        prim = make(Material(albedo=(0.2, 0.3, 0.4), **material))
        scene = SyntheticScene([prim], (0.1, 0.2, 0.3), ring_scene.cameras[:3], 1.2, 5.4)
        text = dump_scene(scene)
        written = json.loads(text)["primitives"][0]["material"]
        assert set(written) == {f.name for f in dataclasses.fields(Material)
                                if getattr(prim.material, f.name) is not None}
        assert_same_scene(parse_scene(text), scene, unit_atol=1e-15)

    def test_load_from_file(self, tmp_path, ring_scene):
        path = tmp_path / "scene.json"
        path.write_text(dump_scene(ring_scene), encoding="utf-8")
        scene = load_scene(path)
        assert len(scene.cameras) == 16


class TestCameraJson:
    def test_round_trip(self, ring_scene):
        cam = ring_scene.cameras[3]
        back = camera_from_json(camera_to_json(cam), "camera")
        for key in ("width", "height", "fx", "fy", "cx", "cy"):
            assert getattr(back, key) == getattr(cam, key)
        assert np.array_equal(back.rotation, cam.rotation)
        assert np.array_equal(back.translation, cam.translation)

    def test_extra_keys_only_where_allowed(self, ring_scene):
        obj = {"index": 3, **camera_to_json(ring_scene.cameras[3])}
        with pytest.raises(SceneFormatError, match="'index'"):
            camera_from_json(obj, "camera")
        camera_from_json(obj, "camera", extra={"index"})

    @pytest.mark.parametrize("key, value", [
        ("fx", float("nan")), ("cy", "x"), ("translation", [0.0, 1.0]),
        ("rotation", [[1.0, 0.0], [0.0, 1.0]])])
    def test_bad_value_names_where_and_key(self, ring_scene, key, value):
        obj = {**camera_to_json(ring_scene.cameras[0]), key: value}
        with pytest.raises(SceneFormatError, match=rf"cams\[0\]: '{key}'"):
            camera_from_json(obj, "cams[0]")
