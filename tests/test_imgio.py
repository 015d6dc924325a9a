import numpy as np
import pytest

from rayvis.errors import InputError
from rayvis.imgio import (
    atomic_writer,
    encode_ppm,
    read_depth_map,
    read_float_image,
    read_ppm,
    scan_views,
    write_depth_map,
    write_float_image,
    write_ppm,
)
from rayvis.scene import DepthMap


class TestPpm:
    def test_one_by_one_white_exact_bytes(self):
        blob = encode_ppm(np.ones((1, 1, 3)))
        assert blob == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = np.round(rng.uniform(size=(7, 5, 3)) * 255) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        np.testing.assert_allclose(read_ppm(path), image, atol=1e-12)

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.uniform(size=(6, 9, 3))
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        first = path.read_bytes()
        write_ppm(path, read_ppm(path))
        assert path.read_bytes() == first

    def test_values_clamped(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.array([[[2.0, -1.0, 0.5]]]))
        out = read_ppm(path)
        np.testing.assert_allclose(out[0, 0], [1.0, 0.0, 0.50196078], atol=1e-8)

    def test_comment_line_in_header(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n# written by hand\n2 1\n# max value\n255\n"
                         b"\x00\x80\xff\xff\x00\x00")
        np.testing.assert_array_equal(read_ppm(path) * 255.0, [[[0, 128, 255], [255, 0, 0]]])

    def test_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\xff")
        with pytest.raises(InputError):
            read_ppm(path)

    @pytest.mark.parametrize("blob", [
        b"P6\n2 2\n255\n" + b"\x10" * 11,   # payload one byte short
        b"P6\n2 2\n255",                     # header only
        b"P6\n2 2",                           # header cut before maxval
        b"P6\n2 x\n255\n" + b"\x10" * 12,   # non-numeric size
    ], ids=["short_payload", "no_payload", "short_header", "bad_size"])
    def test_rejects_truncated(self, tmp_path, blob):
        path = tmp_path / "img.ppm"
        path.write_bytes(blob)
        with pytest.raises(InputError):
            read_ppm(path)


class TestFloatImage:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        image = rng.uniform(size=(4, 6, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "img.nrif"
        write_float_image(path, image)
        loaded = read_float_image(path)
        assert np.array_equal(loaded, image)
        blob = path.read_bytes()
        assert blob[:4] == b"NRIF"
        assert int.from_bytes(blob[4:8], "little") == 6
        assert int.from_bytes(blob[8:12], "little") == 4

    def test_rejects_wrong_size(self, tmp_path):
        path = tmp_path / "img.nrif"
        write_float_image(path, np.zeros((2, 2, 3)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(InputError):
            read_float_image(path)

    @pytest.mark.parametrize("fault", [
        lambda b: b[:10],
        lambda b: b"XXXX" + b[4:],
        lambda b: b[:-4],
        lambda b: b + b"\0" * 4,
        lambda b: b[:-4] + np.array([np.nan], dtype="<f4").tobytes(),
    ], ids=["truncated", "bad_magic", "short_payload", "long_payload", "nan"])
    def test_fault_names_the_file(self, tmp_path, fault):
        path = tmp_path / "img.nrif"
        write_float_image(path, np.zeros((2, 3, 3)))
        path.write_bytes(fault(path.read_bytes()))
        with pytest.raises(InputError, match="img.nrif"):
            read_float_image(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, tmp_path, bad):
        image = np.zeros((2, 3, 3))
        image[1, 2, 0] = bad
        path = tmp_path / "img.nrif"
        write_float_image(path, image)
        with pytest.raises(InputError, match="non-finite"):
            read_float_image(path)


class TestDepthMap:
    def test_round_trip_with_metadata(self, tmp_path):
        rng = np.random.default_rng(3)
        depth = DepthMap(
            rng.uniform(1.0, 5.0, size=(8, 3)).astype(np.float32).astype(np.float64),
            1.25, 5.5, 3.75,
        )
        path = tmp_path / "d.nrdf"
        write_depth_map(path, depth)
        loaded = read_depth_map(path)
        assert np.array_equal(loaded.values, depth.values)
        assert loaded.near == pytest.approx(1.25)
        assert loaded.far == pytest.approx(5.5)
        assert loaded.scene_scale == pytest.approx(3.75)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.nrdf"
        path.write_bytes(b"XXXX" + b"\0" * 24)
        with pytest.raises(InputError):
            read_depth_map(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, tmp_path, bad):
        values = np.full((3, 2), 2.0)
        values[2, 1] = bad
        path = tmp_path / "d.nrdf"
        write_depth_map(path, DepthMap(values, 1.0, 5.0, 4.0))
        with pytest.raises(InputError, match="non-finite"):
            read_depth_map(path)

    def test_rejects_non_finite_header(self, tmp_path):
        path = tmp_path / "d.nrdf"
        write_depth_map(path, DepthMap(np.full((3, 2), 2.0), 1.0, np.nan, 4.0))
        with pytest.raises(InputError, match="non-finite"):
            read_depth_map(path)


def test_atomic_writer_keeps_the_old_file_on_error(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_writer(path) as f:
            f.write(b"new")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [path]


def test_scan_views_refuses_two_files_for_one_view(tmp_path):
    """``view_3`` beside ``view_0003`` is one view twice; neither silently wins."""
    image = np.zeros((2, 2, 3))
    for name in ("view_0003.ppm", "view_3.ppm", "view_0004.ppm"):
        write_ppm(tmp_path / name, image)
    with pytest.raises(InputError, match="view_0003.ppm and .*view_3.ppm are both view 3"):
        scan_views(tmp_path, "ppm")
    (tmp_path / "view_3.ppm").unlink()
    assert scan_views(tmp_path, "ppm") == {3: tmp_path / "view_0003.ppm",
                                           4: tmp_path / "view_0004.ppm"}
