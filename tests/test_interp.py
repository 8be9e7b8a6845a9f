"""Bilinear gather/scatter primitives."""

import dataclasses
import inspect
import pathlib

import numpy as np
import pytest

from roadpatch import interp
from roadpatch.attack import patch_gradient, rollout_with_patch
from roadpatch.camera import patch_pixels, warp_bev_to_camera
from roadpatch.detector import support_set
from roadpatch.scene import BevImage, overlay, patch_tile

import reference


def _scatter(shape, fi, fj, values, block=7):
    """``interp.scatter`` over the points in blocks of ``block``, then
    the splat's ``interp.total`` of the tap sums."""
    sums = np.zeros((4, *shape))
    fi, fj, values = (np.ravel(a) for a in (fi, fj, values))
    for s in range(0, fi.size, block):
        interp.scatter(sums, fi[s:s + block], fj[s:s + block],
                       values[s:s + block])
    return interp.total(sums)


def test_gather_at_integer_indices_returns_exact_values():
    arr = np.arange(12, dtype=float).reshape(3, 4)
    fi, fj = np.meshgrid(np.arange(3.0), np.arange(4.0), indexing="ij")
    np.testing.assert_array_equal(interp.gather(arr, fi, fj), arr)


def test_gather_interpolates_linearly_between_cells():
    arr = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert interp.gather(arr, np.array(0.5), np.array(0.5)) == pytest.approx(1.5)
    assert interp.gather(arr, np.array(0.0), np.array(0.25)) == pytest.approx(0.25)
    assert interp.gather(arr, np.array(0.75), np.array(0.0)) == pytest.approx(1.5)


def test_degenerate_rasters_are_supported():
    # Single-cell and single-row rasters must not index out of bounds.
    assert interp.gather(np.array([[7.5]]), np.zeros(3), np.zeros(3))[1] == 7.5
    out = interp.gather(np.array([[1.0, 2.0, 4.0]]),
                        np.zeros(2), np.array([0.5, 1.5]))
    np.testing.assert_allclose(out, [1.5, 3.0])
    back = _scatter((1, 1), np.zeros(2), np.zeros(2), np.array([2.0, 3.0]))
    assert back[0, 0] == 5.0


def test_scatter_is_the_exact_adjoint_of_gather():
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((9, 7))
    fi = rng.uniform(0.0, 8.0, size=40)
    fj = rng.uniform(0.0, 6.0, size=40)
    vals = rng.standard_normal(40)
    lhs = float(np.dot(interp.gather(arr, fi, fj), vals))
    rhs = float(np.sum(_scatter(arr.shape, fi, fj, vals) * arr))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inside_requires_full_bilinear_support():
    ok = interp.inside(np.array([0.0, 3.0, 3.0001, -0.1]),
                       np.array([0.0, 2.0, 1.0, 1.0]), (4, 3))
    np.testing.assert_array_equal(ok, [True, True, False, False])


def _bits(x):
    """The exact bits of a result, so that -0.0 differs from +0.0."""
    x = np.asarray(x)
    return x.view(np.int64) if x.dtype == float else x


def _same(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))


def _kernel_cases():
    rng = np.random.default_rng(17)
    shape = (9, 7)
    yield "seeded", shape, rng.uniform(0.0, 8.0, 200), rng.uniform(0.0, 6.0, 200)
    yield "seeded-2d", shape, rng.uniform(0.0, 8.0, (5, 6)), \
        rng.uniform(0.0, 6.0, (5, 6))
    fi, fj = np.meshgrid(np.arange(9.0), np.arange(7.0), indexing="ij")
    yield "integers", shape, fi, fj
    edge = np.linspace(0.0, 6.0, 13)
    yield "last-row", shape, np.full(13, 8.0), edge
    yield "last-col", shape, edge * (8.0 / 6.0), np.full(13, 6.0)
    yield "signed-zero", shape, np.array([-0.0, 0.0, -0.0, 3.5]), \
        np.array([0.0, -0.0, -0.0, -0.0])
    yield "0-d", shape, np.array(3.25), np.array(5.5)
    yield "0-d-corner", shape, np.array(8.0), np.array(6.0)
    yield "1x1", (1, 1), np.array([0.0, -0.0]), np.array([-0.0, 0.0])
    yield "1xN", (1, 6), np.zeros(11), np.linspace(0.0, 5.0, 11)
    yield "Nx1", (6, 1), np.linspace(0.0, 5.0, 11), np.zeros(11)
    yield "0-d-1x1", (1, 1), np.array(0.0), np.array(0.0)
    yield "empty", shape, np.empty(0), np.empty(0)
    yield "empty-1x1", (1, 1), np.empty(0), np.empty(0)
    yield "1xN-repeats", (1, 4), np.zeros(9), np.array(
        [3.0, 3.0, 0.5, -0.0, 2.25, 3.0, 0.0, 1.0, 2.25])


@pytest.mark.parametrize("name, shape, fi, fj", list(_kernel_cases()),
                         ids=[c[0] for c in _kernel_cases()])
def test_kernel_is_bit_identical_to_the_reference(name, shape, fi, fj):
    rng = np.random.default_rng(len(name))
    arr = rng.standard_normal(shape)
    arr.ravel()[0] = -0.0
    values = rng.standard_normal(np.shape(fi))
    idx, w = interp.taps(fi, fj, shape)
    ref_idx, ref_w = reference.taps(fi, fj, shape)
    assert all(_same(a, b) for a, b in zip(idx + w, ref_idx + ref_w))
    assert _same(interp.gather(arr, fi, fj),
                 reference.combine(arr.ravel(), ref_idx, ref_w))
    # A zero raster and zero values make every sum a signed zero.
    zero = np.full(shape, -0.0)
    assert _same(interp.gather(zero, fi, fj),
                 reference.combine(zero.ravel(), ref_idx, ref_w))
    # Every point again with a -0.0 term before and after its value, so
    # that -0.0 terms land in empty and in nonzero sums alike.
    fi3, fj3 = (np.repeat(np.ravel(a), 3) for a in (fi, fj))
    with_zeros = np.repeat(np.ravel(values), 3)
    with_zeros[0::3] = with_zeros[2::3] = -0.0
    for pfi, pfj, vals in ((fi, fj, values), (fi, fj, -0.0 * values),
                           (fi3, fj3, with_zeros)):
        pidx, pw = interp.taps(pfi, pfj, shape)
        assert _same(interp.accumulate(arr.size, pidx, pw, vals),
                     reference.accumulate(arr.size, *reference.taps(
                         pfi, pfj, shape), vals))
        assert _same(_scatter(shape, pfi, pfj, vals),
                     reference.scatter(shape, pfi, pfj, vals))


@pytest.mark.parametrize("block", [1, 3, 64, 10_000])
def test_blockwise_scatter_equals_one_bincount_a_tap(block):
    # Repeated cells, both signed zeros and a clamped border, in blocks
    # of any size: np.add.at adds in point order, as bincount does.
    rng = np.random.default_rng(block)
    shape = (6, 5)
    fi = np.concatenate([rng.uniform(0.0, 5.0, 300), np.full(20, 5.0),
                         np.full(20, 2.0)])
    fj = np.concatenate([rng.uniform(0.0, 4.0, 300), np.linspace(0, 4, 20),
                         np.full(20, 3.0)])
    values = rng.standard_normal(fi.size)
    values[::7] = -0.0
    values[300:] *= 1e300
    want = reference.scatter(shape, fi, fj, values)
    assert _same(_scatter(shape, fi, fj, values, block), want)
    assert _same(_scatter(shape, fi, fj, -0.0 * values, block),
                 np.zeros(shape))


def test_every_bilinear_write_goes_through_one_kernel():
    # One transpose kernel: np.add.at only in interp, no bincount at all,
    # and the tile's composite reads the taps its adjoint reads.
    src = pathlib.Path(interp.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "bincount" not in text, path.name
        assert ("add.at" in text) == (path.name == "interp.py"), path.name
    tile = inspect.getsource(patch_tile)
    assert "composite_taps(" in tile and "interp.combine(" in tile
    assert "interp.taps" not in tile and "interp.gather" not in tile
    assert "_patch_fractional" not in tile


def test_one_scene_kind_and_one_footprint_read():
    # Every scene keeps its grays in its ColumnDraw, and the footprint
    # reads them through the read the support and the dense warp use.
    src = pathlib.Path(interp.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for word in ("raster:", "raster=", ".raster", "draw is None",
                     "draw is not None", "_tile_gather"):
            assert word not in text, (path.name, word)
    assert "raster" not in {f.name for f in dataclasses.fields(BevImage)}
    assert list(inspect.signature(patch_pixels).parameters) == [
        "bev", "cfg", "pose", "patch"]
    assert "_sample_ground(" in inspect.getsource(patch_pixels)


def _patched_run(scenario, scene, mask):
    """A 5-frame patched rollout's tapes, its patch gradient, and one dense
    frame, all on highway-72."""
    pipe = scenario.pipeline()
    patch = scenario.initial_patch()
    record = rollout_with_patch(scene, mask, patch, scenario.initial_state(),
                                5, pipe)
    grad = patch_gradient(record, scenario.attack, pipe, scene, patch, mask)
    with overlay(scene, patch_tile(scene, patch, mask)):
        frame = warp_bev_to_camera(scene, pipe.camera, record.states[2])
    return record, grad, frame.pixels


def test_production_kernel_matches_the_reference_end_to_end(
        scenario72, scene72, monkeypatch):
    scene, mask = scene72
    record, grad, frame = _patched_run(scenario72, scene, mask)
    for name in ("taps", "combine", "accumulate"):
        monkeypatch.setattr(interp, name, getattr(reference, name))
    support_set.cache_clear()          # rebuild the detector's taps too
    try:
        ref_record, ref_grad, ref_frame = _patched_run(scenario72, scene, mask)
    finally:
        support_set.cache_clear()
    assert len(record.tapes) == len(ref_record.tapes) == 5
    for tape, ref in zip(record.tapes, ref_record.tapes):
        assert tape.responses.tobytes() == ref.responses.tobytes()
        assert tape.pixels.tobytes() == ref.pixels.tobytes()
        assert tape.grays.tobytes() == ref.grays.tobytes()
    assert record.states == ref_record.states
    assert grad.tobytes() == ref_grad.tobytes()
    assert frame.tobytes() == ref_frame.tobytes()
    # Every frame saw the patch, so the tile reads and the splat ran.
    assert all(tape.pixels.size for tape in record.tapes)
    assert np.count_nonzero(grad) and np.count_nonzero(frame)
