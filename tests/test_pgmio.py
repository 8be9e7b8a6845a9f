"""16-bit PGM persistence and the JSON sidecars."""

import json

import numpy as np
import pytest

from roadpatch.errors import ConfigError, InvalidArgumentError
from roadpatch.pgmio import (
    encode_gray16,
    load_patch,
    read_pgm,
    save_bev,
    save_patch,
    write_pgm,
)
from roadpatch.scene import BevImage, PatchPlacement, uniform_patch

from reference import load_bev

HALF_Q = 0.5 / 65535


def test_round_trip_quantizes_once(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(size=(5, 7))
    p = tmp_path / "a.pgm"
    write_pgm(p, values)
    back = read_pgm(p)
    assert np.max(np.abs(back - values)) <= HALF_Q + 1e-12
    # once on the lattice, the round trip is exact and byte-stable
    write_pgm(p, back)
    again = read_pgm(p)
    np.testing.assert_array_equal(again, back)
    blob = p.read_bytes()
    write_pgm(p, again)
    assert p.read_bytes() == blob


def test_known_code_points(tmp_path):
    p = tmp_path / "b.pgm"
    write_pgm(p, np.array([[0.0, 1.0]]))
    assert p.read_bytes() == b"P5\n2 1\n65535\n\x00\x00\xff\xff"
    np.testing.assert_array_equal(read_pgm(p), [[0.0, 1.0]])


def test_a_frame_encodes_like_one_rounding_of_the_whole(tmp_path):
    # Many quantization blocks, a ragged last one, halves rounded to even.
    rng = np.random.default_rng(4)
    values = rng.uniform(size=(481, 641))
    values.ravel()[::97] = (np.arange(values.size)[::97] % 65535 + 0.5) / 65535
    p = tmp_path / "f.pgm"
    write_pgm(p, values)
    body = p.read_bytes()[len(b"P5\n641 481\n65535\n"):]
    assert body == np.round(values * 65535).astype(">u2").tobytes()
    # a column-major raster, a single row and a row-broadcast bool mask
    # encode to the same bytes, block by block
    assert encode_gray16(np.asfortranarray(values)).tobytes() == body
    assert encode_gray16(values[:1]).tobytes() == body[:2 * 641]
    mask = np.broadcast_to(np.arange(641) % 3 == 0, (481, 641))
    assert (encode_gray16(mask).tobytes()
            == encode_gray16(mask.astype(float)).tobytes())


def test_write_rejects_bad_payloads(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_pgm(tmp_path / "x.pgm", np.array([[1.5]]))
    with pytest.raises(InvalidArgumentError):
        write_pgm(tmp_path / "x.pgm", np.array([[-0.1]]))
    with pytest.raises(InvalidArgumentError):
        write_pgm(tmp_path / "x.pgm", np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 8191, 8192, 481 * 641 - 1])
def test_non_finite_grays_are_refused(bad, where):
    # in the first, the last and a middle quantization block, and at a
    # block's last and first value
    values = np.full((481, 641), 0.5)
    values.ravel()[where] = bad
    with pytest.raises(InvalidArgumentError):
        encode_gray16(values)
    with pytest.raises(InvalidArgumentError):
        encode_gray16([[0.5, bad]])


def test_read_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P4\n2 1\n65535\n\x00\x00\xff\xff")
    with pytest.raises(InvalidArgumentError):
        read_pgm(bad)
    bad.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(InvalidArgumentError):
        read_pgm(bad)
    good = tmp_path / "trunc.pgm"
    write_pgm(good, np.full((3, 3), 0.5))
    good.write_bytes(good.read_bytes()[:-2])
    with pytest.raises(InvalidArgumentError):
        read_pgm(good)


def test_bev_sidecar_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    bev = BevImage(raster=rng.uniform(size=(4, 6)), meters_per_pixel=0.5,
                   origin=(0.25, -1.25))
    p = tmp_path / "scene.pgm"
    save_bev(p, bev, extra={"note": "test"})
    assert (tmp_path / "scene.json").exists()
    back = load_bev(p)
    assert back.meters_per_pixel == 0.5
    assert back.origin == (0.25, -1.25)
    assert np.max(np.abs(back.pixels - bev.pixels)) <= HALF_Q + 1e-12


def test_patch_sidecar_round_trip(tmp_path):
    placement = PatchPlacement(5.0, 0.1, 2.0, 10.0, margin=0.2)
    patch = uniform_patch(placement, 0.5, 0.3, v_min=0.05, v_max=0.88)
    patch.values[0, 0] = 0.88
    patch.values[0, 1] = 0.05
    p = tmp_path / "patch.pgm"
    save_patch(p, patch)
    back = load_patch(p)
    assert back.placement == placement
    assert (back.grid_mpp, back.v_min, back.v_max) == (0.5, 0.05, 0.88)
    assert back.base_value == 0.3
    # 0.88 quantizes to just past v_max and is snapped back onto it; 0.05
    # quantizes to just inside v_min and is kept as encoded
    assert back.values[0, 0] == 0.88
    assert abs(back.values[0, 1] - 0.05) <= HALF_Q


def test_load_patch_refuses_genuine_bound_violations(tmp_path):
    patch = uniform_patch(PatchPlacement(5.0, 0.0, 2.0, 10.0), 0.5, 0.3,
                          v_min=0.05, v_max=0.88)
    patch.values[0, 0] = 0.03   # far below v_min: not quantization noise
    p = tmp_path / "patch.pgm"
    save_patch(p, patch)
    with pytest.raises(InvalidArgumentError, match="v_min, v_max"):
        load_patch(p)


@pytest.mark.parametrize("key, value", [
    ("grid_mpp", "0.5"), ("v_min", "0.05"), ("v_max", True),
    ("base_value", None), ("placement.width", "3.6"),
    ("placement.margin", True), ("placement.start_x", float("nan"))])
def test_sidecar_numbers_follow_the_loader_rule(key, value, tmp_path):
    # what the scenario loader refuses as a number, a sidecar may not hold
    p = tmp_path / "patch.pgm"
    save_patch(p, uniform_patch(PatchPlacement(5.0, 0.0, 2.0, 10.0), 0.5, 0.3))
    meta = json.loads(p.with_suffix(".json").read_text())
    section, _, leaf = key.rpartition(".")
    (meta[section] if section else meta)[leaf] = value
    p.with_suffix(".json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError) as info:
        load_patch(p)
    assert info.value.field == key


def test_sidecar_kind_is_checked(tmp_path):
    patch = uniform_patch(PatchPlacement(5.0, 0.0, 2.0, 10.0), 0.5, 0.3)
    save_patch(tmp_path / "p.pgm", patch)
    with pytest.raises(InvalidArgumentError):
        load_bev(tmp_path / "p.pgm")
    bev = BevImage(raster=np.full((2, 2), 0.5), meters_per_pixel=0.1,
                   origin=(0.05, 0.05))
    save_bev(tmp_path / "s.pgm", bev)
    with pytest.raises(InvalidArgumentError):
        load_patch(tmp_path / "s.pgm")
