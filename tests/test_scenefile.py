import numpy as np
import pytest

from rayvis.errors import SceneFormatError
from rayvis.scenefile import camera_from_json, camera_to_json, dump_scene, load_scene, parse_scene


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
