import warnings

import numpy as np
import pytest

from vws.biharmonic import (
    StreamFunction,
    apply_biharmonic,
    biharmonic_load,
    simply_supported_inverse,
    solve_biharmonic,
    velocity_from_stream,
)
from vws.boundary import (
    BoundaryData,
    cavity_g_eps,
    outward_normal_data,
    rotation_data,
)
from vws.errors import NonTangentialData, UnderResolvedWarning
from vws.grid import build_grid, l2_norm_omega
from vws.manufactured import biharmonic_source, biharmonic_stream
from vws.operators import divergence
from vws.stokes import SolverOptions, solve_boundary

from support import observed_orders


def _lid(grid, eps=0.1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        return cavity_g_eps(grid, eps)


def _mms_err(n):
    grid = build_grid(n)
    z = grid.nodes()
    psi_ex = biharmonic_stream()(z[:, None], z[None, :])
    src = biharmonic_source()(z[:, None], z[None, :])
    st = solve_biharmonic(grid, BoundaryData.zeros(grid), f_nodes=src)
    return grid.h * float(np.sqrt(((st.psi - psi_ex) ** 2).sum()))


def test_clamped_plate_mms_frozen():
    errs = [_mms_err(n) for n in (16, 32)]
    assert errs[0] == pytest.approx(5.992852e-5, rel=1e-3)
    assert errs[1] == pytest.approx(1.503265e-5, rel=1e-3)
    assert observed_orders(errs)[0] >= 1.5


def test_stencil_interior_truncation_frozen():
    # near-wall rows feel the mirror ghosts at O(1); the pure 13-point
    # stencil (depth >= 2 from the wall) is second order
    errs = []
    for n in (16, 32):
        grid = build_grid(n)
        z = grid.nodes()
        psi = biharmonic_stream()(z[:, None], z[None, :])
        src = biharmonic_source()(z[:, None], z[None, :])
        out = apply_biharmonic(grid, psi[1:n, 1:n])
        errs.append(np.abs(out[2:-2, 2:-2] - src[3:-3, 3:-3]).max())
    assert errs[0] == pytest.approx(3.112793e-2, rel=1e-3)
    assert errs[1] == pytest.approx(7.804871e-3, rel=1e-3)
    assert observed_orders(errs)[0] >= 1.9


def test_operator_symmetric_positive():
    grid = build_grid(12)
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = rng.standard_normal((11, 11))
        y = rng.standard_normal((11, 11))
        ax = apply_biharmonic(grid, x)
        ay = apply_biharmonic(grid, y)
        sxy = float(np.sum(ax * y))
        syx = float(np.sum(x * ay))
        assert abs(sxy - syx) <= 1e-9 * max(abs(sxy), 1.0)
        assert float(np.sum(ax * x)) > 0.0


def _dirichlet_laplacian(grid, x):
    # 5-point -Laplacian on interior nodes, boundary nodes held at zero
    p = np.pad(x, 1)
    return (4.0 * p[1:-1, 1:-1] - p[:-2, 1:-1] - p[2:, 1:-1]
            - p[1:-1, :-2] - p[1:-1, 2:]) / grid.h ** 2


def test_operator_splits_as_simply_supported_plus_wall_diagonal():
    # clamped 13-point operator = L_D^2 + diag(2/h^4 per adjacent wall)
    grid = build_grid(10)
    for (i, j), walls in [((0, 0), 2), ((8, 8), 2), ((0, 5), 1), ((3, 8), 1),
                          ((4, 4), 0), ((1, 1), 0)]:
        e = np.zeros((9, 9))
        e[i, j] = 1.0
        diff = apply_biharmonic(grid, e) - _dirichlet_laplacian(
            grid, _dirichlet_laplacian(grid, e))
        expected = np.zeros((9, 9))
        expected[i, j] = 2.0 * walls / grid.h ** 4
        assert np.abs(diff - expected).max() <= 1e-12 / grid.h ** 4


def test_simply_supported_inverse_is_exact():
    grid = build_grid(12)
    x = np.random.default_rng(5).standard_normal((11, 11))
    y = _dirichlet_laplacian(grid, _dirichlet_laplacian(grid, x))
    back = simply_supported_inverse(grid)(y.ravel()).reshape(11, 11)
    assert np.abs(back - x).max() <= 1e-11 * np.abs(x).max()


def test_lid_iterations_mesh_independent():
    # measured 17, 24 and 32; a count that grows like n^2 fails at n = 64
    for n in (32, 64, 128):
        grid = build_grid(n)
        st = solve_biharmonic(grid, _lid(grid))
        assert st.diagnostics["iterations"] <= 60


def test_cross_check_against_saddle_solver():
    grid = build_grid(32)
    g = _lid(grid)
    st = solve_biharmonic(grid, g)
    u_bi = velocity_from_stream(st)
    u_mac = solve_boundary(grid, g).velocity
    assert l2_norm_omega(u_bi - u_mac) <= 1e-8
    assert np.abs(divergence(u_bi).p).max() <= 1e-13


def test_tight_tolerance_equivalence():
    # the two discretizations agree algebraically; with tight solver
    # tolerances the gap sits at rounding level
    grid = build_grid(16)
    g = _lid(grid)
    st = solve_biharmonic(grid, g, rel_tol=1e-13)
    u_bi = velocity_from_stream(st)
    opts = SolverOptions(div_tol=1e-13)
    u_mac = solve_boundary(grid, g, opts=opts).velocity
    assert l2_norm_omega(u_bi - u_mac) <= 1e-9


def test_rejects_data_with_normal_component():
    grid = build_grid(16)
    g = rotation_data(grid) + outward_normal_data(grid)
    with pytest.raises(NonTangentialData):
        solve_biharmonic(grid, g)


def test_lid_vortex_location_frozen():
    grid = build_grid(64)
    st = solve_biharmonic(grid, _lid(grid))
    x0, y0, val = st.extremum()
    assert x0 == pytest.approx(0.5, abs=1e-12)
    assert y0 == pytest.approx(0.765625, abs=1e-12)
    assert val == pytest.approx(-0.0959898932016, rel=1e-3)


def test_zero_data_gives_zero_stream():
    grid = build_grid(16)
    st = solve_biharmonic(grid, BoundaryData.zeros(grid))
    assert np.abs(st.psi).max() == 0.0
    assert st.diagnostics["iterations"] == 0


def test_load_shape_validation():
    grid = build_grid(16)
    g = BoundaryData.zeros(grid)
    with pytest.raises(ValueError):
        biharmonic_load(grid, g, f_nodes=np.zeros((5, 5)))


def test_rejects_non_finite_source():
    grid = build_grid(16)
    src = np.zeros((17, 17))
    src[5, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_biharmonic(grid, BoundaryData.zeros(grid), f_nodes=src)


def test_stream_shape_validation():
    grid = build_grid(16)
    with pytest.raises(ValueError):
        StreamFunction(grid, np.zeros((4, 4)))
