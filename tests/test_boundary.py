import warnings

import numpy as np
import pytest

from vws.boundary import (
    AXIS,
    BoundaryData,
    NORMALS,
    SIDES,
    cavity_g,
    cavity_g_eps,
    compatibility_defect,
    corner_variant,
    l2_norm_gamma,
    outward_normal_data,
    project_compatible,
    resolved_n,
    rotation_data,
    smoothstep,
    wall,
)
from vws.errors import UnderResolvedWarning
from vws.grid import build_grid


def test_smoothstep_values():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(0.5) == 0.5
    assert smoothstep(0.25) == 0.103515625   # quintic: s^3 (10 - 15 s + 6 s^2)
    assert smoothstep(-3.0) == 0.0
    assert smoothstep(4.0) == 1.0
    s = np.linspace(0.0, 1.0, 101)
    assert np.all(np.diff(smoothstep(s)) >= 0.0)


def test_cavity_g_layout():
    grid = build_grid(16)
    g = cavity_g(grid)
    assert np.all(g.samples["top"][:, 0] == 1.0)
    assert np.all(g.samples["top"][:, 1] == 0.0)
    for side in ("bottom", "left", "right"):
        assert np.all(g.samples[side] == 0.0)
    assert compatibility_defect(g) == 0.0
    assert abs(l2_norm_gamma(g) - 1.0) <= 1e-14


def test_cavity_eps_profile_shape():
    grid = build_grid(128)
    g = cavity_g_eps(grid, 0.1)
    prof = g.samples["top"][:, 0]
    # layer tails e^{-x/eps} from both corners meet at the middle
    mid = prof[len(prof) // 2]
    assert abs(mid - 1.0) <= 2.5 * np.exp(-0.5 / 0.1)
    assert prof[0] < 0.25 and prof[-1] < 0.25
    assert abs(prof[0] - prof[-1]) <= 1e-13  # symmetric corners
    assert abs(compatibility_defect(g)) <= 1e-15

    sharp = cavity_g_eps(build_grid(640), 0.0125).samples["top"][:, 0]
    assert abs(sharp[len(sharp) // 2] - 1.0) <= 1e-12


def test_underresolved_warning():
    for n in (32, 128):
        with pytest.warns(UnderResolvedWarning, match="needs n >= 160"):
            cavity_g_eps(build_grid(n), 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cavity_g_eps(build_grid(160), 0.05)  # resolved: must not warn


@pytest.mark.parametrize("eps, n", [(0.1, 80), (0.05, 160), (1 / 3, 24)])
@pytest.mark.parametrize("family", [
    cavity_g_eps,
    lambda grid, eps: corner_variant(grid, "corner_01", eps=eps),
    lambda grid, eps: corner_variant(grid, "corner_11", eps=eps),
], ids=["cavity_g_eps", "corner_01", "corner_11"])
def test_data_families_warn_by_the_harness_rule(family, eps, n):
    # the library warns exactly where the recipes refuse a grid: below
    # resolved_n(eps) = ceil(8/eps); it warned below eps = 4h, so n = 48
    # passed for eps = 0.1 where the recipes need 80
    assert resolved_n(eps) == n
    with pytest.warns(UnderResolvedWarning):
        family(build_grid(n - 1), eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnderResolvedWarning)
        family(build_grid(n), eps)


def test_corner_variants_compatible():
    grid = build_grid(64)
    for which in ("corner_01", "corner_11"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderResolvedWarning)
            g = corner_variant(grid, which, eps=0.05)
        assert abs(compatibility_defect(g)) <= 1e-14
    with pytest.raises(ValueError):
        corner_variant(grid, "corner_00")


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_corner_11_mirrors_corner_01(eps):
    # mirrored in x = 1/2: the lid profile reversed, the ramp moved from the
    # right side to the left; the projection leaves both tangential
    grid = build_grid(64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        g01, g11 = (corner_variant(grid, w, eps=eps).samples
                    for w in ("corner_01", "corner_11"))
    np.testing.assert_allclose(g11["top"][:, 0], g01["top"][::-1, 0],
                               rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(g11["left"], g01["right"], rtol=1e-15, atol=1e-15)
    if eps == 0.0:
        # the unregularised lid: 1 across the whole top side
        assert (g01["top"][:, 0] == 1.0).all() and (g11["top"][:, 0] == 1.0).all()


def test_projection():
    grid = build_grid(32)
    bad = outward_normal_data(grid)
    assert abs(compatibility_defect(bad) - 4.0) <= 1e-12
    fixed = project_compatible(bad)
    assert abs(compatibility_defect(fixed)) <= 1e-13
    twice = project_compatible(fixed)
    for side in SIDES:
        assert np.allclose(twice.samples[side], fixed.samples[side],
                           atol=1e-15)
    # tangential parts untouched
    for side in SIDES:
        assert np.allclose(fixed.tangential_part(side),
                           bad.tangential_part(side), atol=1e-15)


def test_rotation_data_properties():
    grid = build_grid(32)
    g = rotation_data(grid)
    for side in SIDES:
        assert np.allclose(g.tangential_part(side), 0.5, atol=1e-14)
    assert abs(compatibility_defect(g)) <= 1e-14


def test_boundary_arithmetic_and_zeros():
    grid = build_grid(16)
    g = cavity_g(grid)
    z = BoundaryData.zeros(grid)
    assert not any(z.samples[s].any() for s in SIDES)
    assert g.samples["top"].any()
    two = g + g
    assert np.allclose(two.samples["top"], 2.0 * g.samples["top"], atol=1e-15)
    diff = two - g * 2.0
    assert not any(diff.samples[s].any() for s in SIDES)


def test_normal_tangential_split():
    grid = build_grid(16)
    g = rotation_data(grid)
    for side in SIDES:
        nt = g.normal_part(side)
        tg = g.tangential_part(side)
        assert np.allclose(nt ** 2 + tg ** 2,
                           (g.samples[side] ** 2).sum(axis=1), atol=1e-13)


def test_rejects_non_finite_samples():
    # unchecked, a single NaN sample flows through the saddle solve into a
    # NaN velocity without an error
    grid = build_grid(16)
    samples = {side: cavity_g(grid).samples[side].copy() for side in SIDES}
    samples["top"][3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        BoundaryData(grid, samples)
    with pytest.raises(ValueError, match="non-finite"), \
            np.errstate(invalid="ignore"):
        cavity_g(grid) * np.inf


def test_data_keep_their_samples_when_a_base_they_view_is_written():
    # the samples are a frozen copy: views of one writable base do not
    # carry a later write into the data
    base = np.ones((4, 16, 2))
    g = BoundaryData(build_grid(16), dict(zip(SIDES, base)))
    base[...] = 5.0
    assert all(np.all(g.samples[s] == 1.0) for s in SIDES)


def test_data_leave_a_callers_array_writeable():
    own = np.zeros((16, 2))
    g = BoundaryData(build_grid(16), {s: own for s in SIDES})
    assert own.flags.writeable and not g.samples["top"].flags.writeable


def test_wall_lines_of_face_and_cell_arrays():
    # u1 faces (n+1, n): the left and right walls are rows 0 and n
    n = 4
    u1 = np.arange(float((n + 1) * n)).reshape(n + 1, n)
    p = np.arange(float(n * n)).reshape(n, n)
    expect = {
        "bottom": (u1[:, 1], p[:, 1]),
        "right": (u1[n - 1], p[n - 2]),
        "top": (u1[:, n - 2], p[:, n - 2]),
        "left": (u1[1], p[1]),
    }
    for side in SIDES:
        assert AXIS[side] == int(np.flatnonzero(NORMALS[side])[0])
        assert np.array_equal(wall(u1, side, 1), expect[side][0])
        assert np.array_equal(wall(p, side, 1), expect[side][1])
    # a view: writing through it writes the array
    wall(p, "top")[...] = -1.0
    assert np.all(p[:, n - 1] == -1.0)
