"""Road rasterization, patch placement rules, and compositing."""

import numpy as np
import pytest

from roadpatch.errors import InvalidArgumentError, OutOfExtentError
from roadpatch.scene import (
    PatchPlacement,
    RoadSpec,
    _rect_index_ranges,
    composite_adjoint_local,
    composite_taps,
    composite_patch,
    identity_patch,
    render_road_bev,
    uniform_patch,
)

from reference import lane_line_mask

EXTENT = (0.0, 40.0, -6.0, 6.0)
MPP = 0.05


def _road(**kw):
    kw.setdefault("road_length", 40.0)
    return RoadSpec(**kw)


def test_rendering_is_deterministic():
    a = render_road_bev(_road(), EXTENT, MPP, 0)
    b = render_road_bev(_road(), EXTENT, MPP, 0)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    assert a.pixels.shape == (800, 240)


def test_lane_lines_paint_at_exact_intensity_where_the_mask_says():
    road = _road()
    scene = render_road_bev(road, EXTENT, MPP, 0)
    mask = lane_line_mask(road, EXTENT, MPP)
    assert mask.any()
    assert np.all(scene.pixels[mask] == road.line_intensity)
    assert scene.pixels[~mask].max() < road.line_intensity


@pytest.mark.parametrize("lane,line", [(3.6, 0.15), (4.2, 0.10), (3.5, 0.12)])
def test_line_mask_is_left_right_symmetric(lane, line):
    # A pixel center that lands exactly on a line edge must be painted on
    # both sides of the road; if float rounding drops it on one side only,
    # the two lines render with different widths and the whole closed loop
    # inherits a lateral bias.
    road = RoadSpec(lane_width=lane, lane_line_width=line, road_length=40.0)
    mask = lane_line_mask(road, EXTENT, MPP)
    assert mask.any()
    np.testing.assert_array_equal(mask, mask[:, ::-1])


def test_texture_seed_changes_asphalt_but_not_lines():
    a = render_road_bev(_road(), EXTENT, MPP, 0)
    b = render_road_bev(_road(), EXTENT, MPP, 1)
    mask = lane_line_mask(_road(), EXTENT, MPP)
    np.testing.assert_array_equal(a.pixels[mask], b.pixels[mask])
    assert not np.array_equal(a.pixels[~mask], b.pixels[~mask])


def test_noise_free_rendering_is_flat_asphalt():
    road = _road(texture_noise_amp=0.0)
    scene = render_road_bev(road, EXTENT, MPP, 0)
    mask = lane_line_mask(road, EXTENT, MPP)
    assert np.all(scene.pixels[~mask] == road.asphalt_intensity)


def test_extent_and_fractional_index_round_trip():
    bev = render_road_bev(_road(), EXTENT, MPP, 0)
    assert bev.extent == pytest.approx(EXTENT)
    assert bev.origin == pytest.approx((0.025, -5.975))
    fi, fj = bev.fractional_index(bev.origin[0] + 3 * MPP,
                                  bev.origin[1] + 5 * MPP)
    assert (fi, fj) == pytest.approx((3.0, 5.0))


def test_bad_raster_requests_are_rejected():
    with pytest.raises(InvalidArgumentError):
        render_road_bev(_road(), EXTENT, 0.0, 0)
    with pytest.raises(InvalidArgumentError):
        render_road_bev(_road(), (0.0, 0.0, -6.0, 6.0), MPP, 0)


def test_placement_rect_and_validation():
    p = PatchPlacement(5.0, 0.5, 2.0, 10.0)
    assert p.rect == (5.0, 15.0, -0.5, 1.5)


def test_uniform_patch_builds_the_requested_grid():
    p = uniform_patch(PatchPlacement(5.0, 0.0, 2.4, 10.0), 0.1, 0.45)
    assert p.values.shape == (100, 24)
    assert np.all(p.values == 0.45)
    assert p.base_value == 0.45
    # grid coarser than the patch collapses to one controllable cell
    single = uniform_patch(PatchPlacement(5.0, 0.0, 2.4, 10.0), 10.0, 0.3)
    assert single.values.shape == (1, 1)


def test_identity_patch_is_painted_asphalt():
    road = _road()
    p = identity_patch(PatchPlacement(5.0, 0.0, 2.4, 10.0), 0.1, road)
    assert np.all(p.values == road.asphalt_intensity)
    assert p.v_min <= road.asphalt_intensity <= p.v_max
    # bounds on either side of the asphalt gray widen to hold it
    for lo, hi in [(0.35, 0.6), (0.05, 0.25)]:
        p = identity_patch(PatchPlacement(5.0, 0.0, 2.4, 10.0), 0.1, road,
                           v_min=lo, v_max=hi)
        assert np.all(p.values == road.asphalt_intensity)
        assert (p.v_min, p.v_max) == (min(lo, 0.3), max(hi, 0.3))


def test_patch_state_guards():
    p = uniform_patch(PatchPlacement(5.0, 0.0, 2.4, 10.0), 0.1, 0.45)
    with pytest.raises(InvalidArgumentError):
        p.with_values(np.zeros((3, 3)))
    # a patch lies inside its gray bounds, or it cannot be built
    p.with_values(np.where(np.arange(p.values.size).reshape(p.values.shape)
                           % 2, p.v_min, p.v_max))
    for bad in (p.v_max + 1e-12, p.v_min - 1e-12, np.nan):
        values = p.values.copy()
        values[3, 5] = bad
        with pytest.raises(InvalidArgumentError):
            p.with_values(values)


def test_composite_replaces_pavement_but_never_lines():
    road = _road()
    scene = render_road_bev(road, EXTENT, MPP, 0)
    mask = lane_line_mask(road, EXTENT, MPP)
    patch = uniform_patch(PatchPlacement(5.0, 0.0, 2.4, 10.0), 0.1, 0.55)
    out = composite_patch(scene, patch, mask)
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    fp = np.zeros(scene.pixels.shape, dtype=bool)
    fp[i_lo:i_hi + 1, j_lo:j_hi + 1] = True
    np.testing.assert_array_equal(out.pixels[mask], scene.pixels[mask])
    np.testing.assert_allclose(out.pixels[fp], 0.55, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(out.pixels[~fp], scene.pixels[~fp])


def test_composite_is_idempotent():
    road = _road()
    scene = render_road_bev(road, EXTENT, MPP, 0)
    mask = lane_line_mask(road, EXTENT, MPP)
    patch = uniform_patch(PatchPlacement(5.0, 0.0, 2.4, 10.0), 0.1, 0.55)
    once = composite_patch(scene, patch, mask)
    twice = composite_patch(once, patch, mask)
    np.testing.assert_array_equal(once.pixels, twice.pixels)


def test_composite_rejects_bad_inputs():
    road = _road()
    scene = render_road_bev(road, EXTENT, MPP, 0)
    mask = lane_line_mask(road, EXTENT, MPP)
    patch = uniform_patch(PatchPlacement(5.0, 0.0, 2.4, 10.0), 0.1, 0.55)
    with pytest.raises(InvalidArgumentError):
        composite_patch(scene, patch, mask[:10, :10])
    beyond = uniform_patch(PatchPlacement(35.0, 0.0, 2.4, 10.0), 0.1, 0.55)
    with pytest.raises(OutOfExtentError):
        composite_patch(scene, beyond, mask)


def test_composite_adjoint_matches_the_forward_inner_product():
    road = _road()
    scene = render_road_bev(road, EXTENT, MPP, 0)
    mask = lane_line_mask(road, EXTENT, MPP)
    patch = uniform_patch(PatchPlacement(5.0, 0.3, 2.0, 10.0), 0.08, 0.45)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(scene.pixels.shape)
    dv = rng.uniform(-0.05, 0.05, patch.values.shape)
    f0 = composite_patch(scene, patch, mask).pixels
    f1 = composite_patch(scene, patch.with_values(patch.values + dv),
                         mask).pixels
    lhs = float(np.sum(g * (f1 - f0)))
    (row0, col0, (h, w)), taps = composite_taps(scene, patch, mask)
    rhs = float(np.sum(composite_adjoint_local(
        g[row0:row0 + h, col0:col0 + w], taps) * dv))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_a_patch_between_pixel_centres_replaces_nothing():
    # Its rect holds no scene pixel centre: the composite leaves the scene
    # as it is, and the adjoint is a float zero on the patch grid.
    road = _road()
    scene = render_road_bev(road, EXTENT, MPP, 0)
    mask = lane_line_mask(road, EXTENT, MPP)
    patch = uniform_patch(PatchPlacement(5.01, 0.01, 0.02, 0.02, margin=0.0),
                          0.01, 0.45)
    (row0, col0, (h, w)), taps = composite_taps(scene, patch, mask)
    assert taps[0].size == 0
    np.testing.assert_array_equal(composite_patch(scene, patch, mask).pixels,
                                  scene.pixels)
    out = composite_adjoint_local(
        scene.pixels[row0:row0 + h, col0:col0 + w], taps)
    assert out.dtype == np.float64 and out.shape == patch.values.shape
    assert not np.any(out)


def test_in_place_rendering_matches_the_two_step_formula():
    road = _road(asphalt_intensity=0.99, line_intensity=1.0,
                 texture_noise_amp=0.02)
    got = render_road_bev(road, EXTENT, MPP, 4)
    rng = np.random.default_rng(4)
    noise = rng.uniform(-road.texture_noise_amp, road.texture_noise_amp,
                        size=got.pixels.shape)
    want = np.clip(np.full(got.pixels.shape, road.asphalt_intensity) + noise,
                   0.0, 1.0)
    lines = lane_line_mask(road, EXTENT, MPP)
    assert np.any(want[~lines] == 1.0)    # the clip is exercised
    want[lines] = road.line_intensity
    np.testing.assert_array_equal(got.pixels, want)
