import warnings

import numpy as np
import pytest

from vws import biharmonic, operators
from vws.biharmonic import (
    StreamFunction,
    _clamped_plate_inverse,
    apply_biharmonic,
    biharmonic_load,
    solve_biharmonic,
    velocity_from_stream,
)
from vws.boundary import (
    BoundaryData,
    cavity_g_eps,
    outward_normal_data,
    rotation_data,
)
from vws.errors import NonConvergence, NonTangentialData, UnderResolvedWarning
from vws.grid import build_grid, l2_norm_omega
from vws.manufactured import biharmonic_source, biharmonic_stream
from vws.operators import divergence
from vws.stokes import solve_boundary
from vws.experiments.report import orders

from support import check_sector_inverse, refuse


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
    assert orders(errs)[0] >= 1.5


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
    assert orders(errs)[0] >= 1.9


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


def test_lid_iterations_mesh_independent():
    # one direct step at every n, on the capacitance path; n = 129 takes
    # scipy's sine transform, the rest the basis product
    for n in (32, 64, 128, 129):
        grid = build_grid(n)
        st = solve_biharmonic(grid, _lid(grid))
        assert st.diagnostics["iterations"] == 1
        assert st.diagnostics["path"] == "capacitance"


def _pair_modes(n):
    """Orthonormal wall-line basis in the order of the plate capacitance.

    Columns run over (left/right pair, bottom/top pair) x (parity 0, 1) x
    (sine mode 1..n-1); rows are interior nodes.  Parity 0 is the sum of the
    two opposite lines, parity 1 their difference; every line is full, so
    the corner nodes lie on two lines.
    """
    j = np.arange(1, n)
    cols = []
    for pair in (0, 1):
        for a in (0, 1):
            for k in range(1, n):
                phi = np.sin(k * np.pi * j / n) / np.sqrt(n)
                x = np.zeros((n - 1, n - 1))
                if pair == 0:
                    x[0, :], x[-1, :] = phi, (-1) ** a * phi
                else:
                    x[:, 0], x[:, -1] = phi, (-1) ** a * phi
                cols.append(x.ravel())
    return np.column_stack(cols)


@pytest.mark.parametrize("n", [8, 9, 12])
def test_plate_capacitance_matches_probe(n):
    grid, h = build_grid(n), 1.0 / n
    m = n - 1
    eye = np.eye(m * m)
    A = np.column_stack([apply_biharmonic(grid, e.reshape(m, m)).ravel()
                         for e in eye])
    # the simply-supported plate L_D^2 as a dense matrix, from the 5-point
    # stencil: a reference that shares no code with the transform path
    L = np.column_stack([_dirichlet_laplacian(grid, e.reshape(m, m)).ravel()
                         for e in eye])
    M = np.linalg.inv(L @ L)
    U = _pair_modes(n)
    # orthonormal within each pair; the pairs overlap at the corners
    for half in (U[:, :2 * m], U[:, 2 * m:]):
        assert np.abs(half.T @ half - np.eye(2 * m)).max() <= 1e-13
    # clamped = simply supported + 2/h^4 on every line a node lies on
    split = np.linalg.inv(M) + (2.0 / h ** 4) * U @ U.T
    assert np.abs(A - split).max() <= 1e-10 * np.abs(A).max()
    K_probe = 0.5 * h ** 4 * np.eye(4 * m) + U.T @ M @ U

    # the closed form, through the stacked, padded inverse that every plate
    # solve applies; every mode lies in a sector
    check_sector_inverse(biharmonic._ClampedPlateInverse(n)._k_inv, K_probe,
                         first_mode=0)


@pytest.mark.parametrize("n", [32, 33, 64, 128])
def test_plate_inverse_is_exact(n):
    # measured relative residuals 1.3e-13, 1.4e-13, 1.6e-12, 7.9e-12 and
    # round trips 2.0e-14, 2.6e-14, 2.5e-13, 3.2e-12 (the condition number
    # grows like n^4); n = 33 has four equal parity sectors, the rest not
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n - 1, n - 1))
    psi = _clamped_plate_inverse(grid)(b)
    assert np.abs(apply_biharmonic(grid, psi) - b).max() <= 1e-10 * np.abs(b).max()
    x = rng.standard_normal((n - 1, n - 1))
    back = _clamped_plate_inverse(grid)(apply_biharmonic(grid, x))
    assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()


def test_plate_mms_returns_at_n256():
    # the old iterative solve raised here: its residual floored above
    # rel_tol = 1e-8 of max|b|
    assert _mms_err(256) <= 2.5e-7


def test_solve_is_direct_with_one_check(monkeypatch):
    refuse(monkeypatch, operators, "cg_solve", "plate solve called cg_solve")
    calls = []
    apply = biharmonic.apply_biharmonic
    monkeypatch.setattr(biharmonic, "apply_biharmonic",
                        lambda grid, x: calls.append(1) or apply(grid, x))
    grid = build_grid(32)
    st = solve_biharmonic(grid, _lid(grid))
    assert len(calls) == 1
    assert st.diagnostics["iterations"] == 1
    assert st.diagnostics["rel_residual"] <= 1e-15


def test_plate_inverse_is_small_cached_and_untraced(monkeypatch):
    why = "builder called a solver entry point"
    refuse(monkeypatch, biharmonic, "apply_biharmonic", why)
    refuse(monkeypatch, operators, "cg_solve", why)
    assert biharmonic._ClampedPlateInverse(256).nbytes == 1_585_144
    assert _clamped_plate_inverse(build_grid(32)) is _clamped_plate_inverse(build_grid(32))


@pytest.mark.parametrize("case", ["lid", "mms"])
def test_perturbed_solve_raises(monkeypatch, case):
    # a smooth 0.1% error moves the residual little: on the n = 64 MMS it
    # reads 1.6e-9 of the scale, so the default tolerance must sit below that
    grid = build_grid(64)
    z = grid.nodes()
    if case == "lid":
        g, src = _lid(grid), None
    else:
        g, src = BoundaryData.zeros(grid), biharmonic_source()(z[:, None], z[None, :])
    exact = _clamped_plate_inverse(grid)
    monkeypatch.setattr(biharmonic, "_clamped_plate_inverse",
                        lambda grid: lambda rhs: 1.001 * exact(rhs))
    with pytest.raises(NonConvergence, match="clamped plate") as info:
        solve_biharmonic(grid, g, f_nodes=src)
    assert info.value.best_x.shape == (63, 63)
    assert info.value.residual > 0.0


def test_cross_check_against_saddle_solver():
    grid = build_grid(32)
    g = _lid(grid)
    st = solve_biharmonic(grid, g)
    u_bi = velocity_from_stream(st)
    u_mac = solve_boundary(grid, g).velocity
    assert l2_norm_omega(u_bi - u_mac) <= 1e-10
    assert np.abs(divergence(u_bi).p).max() <= 1e-13


def test_tight_tolerance_equivalence():
    # the two discretizations agree algebraically; both solves are direct,
    # so their defects and the gap already sit at rounding level
    grid = build_grid(16)
    g = _lid(grid)
    st = solve_biharmonic(grid, g)
    assert st.diagnostics["rel_residual"] <= 1e-13
    u_bi = velocity_from_stream(st)
    sol = solve_boundary(grid, g)
    assert sol.diagnostics["div_max"] <= 1e-13
    assert l2_norm_omega(u_bi - sol.velocity) <= 1e-9


def test_rejects_data_with_normal_component():
    grid = build_grid(16)
    g = rotation_data(grid) + outward_normal_data(grid)
    with pytest.raises(NonTangentialData):
        solve_biharmonic(grid, g)


def test_normal_part_check_follows_the_data_scale():
    grid = build_grid(16)
    with pytest.raises(NonTangentialData):
        solve_biharmonic(grid, outward_normal_data(grid) * 1e-13)
    g = _lid(grid)
    big = solve_biharmonic(grid, g * 1e12)
    ref = solve_biharmonic(grid, g)
    assert np.abs(big.psi - 1e12 * ref.psi).max() <= 1e-12 * 1e12 * np.abs(ref.psi).max()


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
    assert st.diagnostics["path"] == "capacitance"


def test_load_shape_validation():
    grid = build_grid(16)
    g = BoundaryData.zeros(grid)
    # only the node-shaped (n+1, n+1) source; interior-node arrays too
    for shape in ((5, 5), (15, 15)):
        with pytest.raises(ValueError, match="node-shaped"):
            biharmonic_load(grid, g, f_nodes=np.zeros(shape))


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
