"""Two-dimensional spatial anomaly model.

Rectangular interior grid, five-point Laplacian applied by its stencil,
deterministic equilibrium profile under Dirichlet data (damped semismooth
Newton over the piecewise-affine balance residual), sampled linearisation
coefficients, discrete noise covariance, and the semi-discrete anomaly SDE
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NoConvergence,
    NotPositiveDefinite,
    ParamOutOfRange,
    SingularJacobian,
    StepTooLarge,
    UnstableDrift,
)
from .model_core import EbmParams, co_albedo, co_albedo_slope
from .sde_engine import SimConfig, _run_paths


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid; unknowns live on the interior nodes.

    Interior nodes (i, j), i = 1..Nx-1, j = 1..Ny-1, are enumerated by
    m(i, j) = (j-1)(Nx-1) + i, i.e. x-index fastest.
    """

    Lx: float
    Ly: float
    Nx: int
    Ny: int

    def __post_init__(self):
        if self.Nx < 2 or self.Ny < 2:
            raise ValueError("Nx and Ny must be >= 2")
        if self.Lx <= 0.0 or self.Ly <= 0.0:
            raise ValueError("domain lengths must be positive")

    @property
    def hx(self) -> float:
        return self.Lx / self.Nx

    @property
    def hy(self) -> float:
        return self.Ly / self.Ny

    @property
    def d(self) -> int:
        return (self.Nx - 1) * (self.Ny - 1)

    def index_of(self, i: int, j: int) -> int:
        """Zero-based position of interior pair (i, j), 1-based in each axis."""
        if not (1 <= i <= self.Nx - 1 and 1 <= j <= self.Ny - 1):
            raise ValueError(f"({i}, {j}) is not an interior pair")
        return (j - 1) * (self.Nx - 1) + (i - 1)

    def interior_coords(self) -> np.ndarray:
        """(d, 2) array of interior node coordinates in m-order."""
        xs = self.hx * np.arange(1, self.Nx)
        ys = self.hy * np.arange(1, self.Ny)
        X, Y = np.meshgrid(xs, ys)  # rows sweep j, columns sweep i
        return np.column_stack([X.ravel(), Y.ravel()])

    def interior_pairs(self):
        """(i, j) interior index pairs in m-order."""
        return [(i, j) for j in range(1, self.Ny) for i in range(1, self.Nx)]


@dataclass(frozen=True)
class BoundaryTrace:
    """Constant Dirichlet value per edge."""

    left: float
    right: float
    bottom: float
    top: float

    @classmethod
    def constant(cls, theta: float) -> "BoundaryTrace":
        return cls(theta, theta, theta, theta)


@dataclass
class SpatialField:
    """Nodal values on a grid's interior nodes, in m-order."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.d,):
            raise ValueError("field length does not match its grid")

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "SpatialField":
        return cls(grid=grid, values=np.full(grid.d, float(value)))


def dirichlet_load(g: Grid2D, theta: BoundaryTrace) -> np.ndarray:
    """Boundary contributions folded into a constant vector.

    The full discrete Laplacian of the lifted field is A_delta*T + g_bc.
    """
    g_bc = np.zeros((g.Ny - 1, g.Nx - 1))  # rows sweep j, columns sweep i
    g_bc[:, 0] += theta.left / g.hx**2
    g_bc[:, -1] += theta.right / g.hx**2
    g_bc[0] += theta.bottom / g.hy**2
    g_bc[-1] += theta.top / g.hy**2
    return g_bc.ravel()


class _FivePointLaplacian:
    """The five-point Laplacian A_delta (Dirichlet data encoded by omission),
    its diagonal `centre` when given (one entry a node, as diag(M) of the
    drift M = A_delta - diag(b)): O(d) a product by the stencil, O(Ny Nx^3)
    a shifted solve, `dense` its d x d array; abs() that of |entries|."""

    def __init__(self, g: Grid2D, centre=None):
        self.g = g
        self.ax, self.ay = 1.0 / g.hx**2, 1.0 / g.hy**2
        self.centre = np.broadcast_to(-2.0 / g.hx**2 + -2.0 / g.hy**2
                                      if centre is None else centre, g.d)

    def __abs__(self):
        return _FivePointLaplacian(self.g, -self.centre)

    def __matmul__(self, T):
        """The products with the node vectors along T's last axis.  Each
        node sums its terms in its row's column order (below, left, centre,
        right, above), as a sparse product does."""
        T = np.asarray(T, dtype=float)
        grid = (self.g.Ny - 1, self.g.Nx - 1)
        U = T.reshape(T.shape[:-1] + grid)
        xs, ys = self.ax * U, self.ay * U
        out = np.zeros_like(U)
        out[..., 1:, :] += ys[..., :-1, :]
        out[..., 1:] += xs[..., :-1]
        out += self.centre.reshape(grid) * U
        out[..., :-1] += xs[..., 1:]
        out[..., :-1, :] += ys[..., 1:, :]
        return out.reshape(T.shape)

    def dense(self) -> np.ndarray:
        """The d x d array: the centre on the diagonal, 1/hx^2 at offsets
        +-1 but across the end of a row of nodes, 1/hy^2 at +-(Nx-1)."""
        d, nx = self.g.d, self.g.Nx - 1
        A = np.diag(self.centre)
        x_link = np.full(d - 1, self.ax)
        x_link[nx - 1::nx] = 0.0  # ax * a mask would cast: 0.2 MB RSS
        for k, band in ((1, x_link), (nx, self.ay)):  # y after x: nx may be 1
            i = np.arange(d - k)
            A[i, i + k] = A[i + k, i] = band
        return A

    def solve_shifted(self, shift, rhs):
        """x with (A + diag(shift)) x = rhs, A this operator.

        The matrix is block tridiagonal, one (Nx-1)-square block a row of
        nodes, each coupled to the next by I/hy^2, and block elimination
        solves it row by row.  Without pivoting this is stable when
        -(A + diag(shift)) is positive definite, as for A = A_delta wherever
        shift <= 0; a Cholesky factorisation of every negated pivot block
        checks it.  Otherwise the matrix, filled by `dense`, is solved
        densely, with partial pivoting, raising np.linalg.LinAlgError if it
        is singular."""
        nx, ny = self.g.Nx - 1, self.g.Ny - 1
        couple = self.ax * (np.eye(nx, k=-1) + np.eye(nx, k=1))
        diag = (self.centre + shift).reshape(ny, nx)
        r = np.asarray(rhs, dtype=float).reshape(ny, nx)
        gains, parts = [], []  # x_k = parts[k] - gains[k] x_{k+1}
        S, y = couple + np.diag(diag[0]), r[0]
        try:
            for k in range(ny):
                np.linalg.cholesky(-S)
                sol = np.linalg.solve(S, np.column_stack([self.ay * np.eye(nx), y]))
                gains.append(sol[:, :nx])
                parts.append(sol[:, nx])
                if k + 1 < ny:
                    S = couple + np.diag(diag[k + 1]) - self.ay * gains[k]
                    y = r[k + 1] - self.ay * parts[k]
        except np.linalg.LinAlgError:
            shifted = _FivePointLaplacian(self.g, self.centre + shift)
            return np.linalg.solve(shifted.dense(), rhs)
        x = [parts[-1]]
        for k in range(ny - 2, -1, -1):
            x.append(parts[k] - gains[k] @ x[-1])
        return np.concatenate(x[::-1])


def equilibrium_residual(T, A, g_bc, Q_vals, lam, p: EbmParams):
    """A_delta T + g_bc + Q.beta(T) + lambda - r0 - r1 T, evaluated nodewise;
    A is a `_FivePointLaplacian`, or its `dense` array."""
    return A @ T + g_bc + Q_vals * co_albedo(T, p) + lam - p.r0 - p.r1 * T


def solve_equilibrium_profile(g: Grid2D, Q_field: SpatialField, lam,
                              theta: BoundaryTrace, p: EbmParams) -> SpatialField:
    """Deterministic equilibrium profile under Dirichlet data.

    Damped semismooth Newton: the co-albedo derivative is frozen per
    iteration on each node's current branch, with residual-norm backtracking
    (factor 0.5, minimum step 2^-20).  Since the nonlinearity is piecewise
    affine, convergence is finite once the branch pattern settles.  The
    iteration starts from the flat profile (lambda - r0)/r1 and takes at
    most 200 Newton steps.

    The residual's max norm is converged at 1e-10, or at its rounding level
    when that is larger, as on fine grids where |A| grows as h^-2: 16 eps
    times the largest nodewise sum of the magnitudes of its terms.

    The Laplacian is applied and solved by its stencil, without the d x d
    array (`_FivePointLaplacian`): the Newton step's Jacobian
    A_delta + diag(Q.beta'(T) - r1) is solved by block elimination over the
    rows of nodes, which is valid when the negated Jacobian is positive
    definite (always when Q.beta' <= r1), and densely otherwise.
    """
    A = _FivePointLaplacian(g)
    abs_A = abs(A)
    g_bc = dirichlet_load(g, theta)
    Q_vals = Q_field.values
    T = np.full(g.d, (lam - p.r0) / p.r1)

    def converged(T, norm):
        if norm <= 1e-10:
            return True
        terms = (abs_A @ np.abs(T) + np.abs(g_bc)
                 + np.abs(Q_vals * co_albedo(T, p)) + abs(lam) + abs(p.r0)
                 + p.r1 * np.abs(T))
        return norm <= 16.0 * np.finfo(float).eps * np.max(terms)

    res = equilibrium_residual(T, A, g_bc, Q_vals, lam, p)
    norm = np.linalg.norm(res, np.inf)
    for it in range(200):
        if converged(T, norm):
            return SpatialField(grid=g, values=T)
        try:
            step = A.solve_shifted(Q_vals * co_albedo_slope(T, p) - p.r1, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        alpha = 1.0
        while alpha >= 2.0**-20:
            T_new = T + alpha * step
            res_new = equilibrium_residual(T_new, A, g_bc, Q_vals, lam, p)
            norm_new = np.linalg.norm(res_new, np.inf)
            if norm_new < norm:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(it + 1, norm)
        T, res, norm = T_new, res_new, norm_new
    if converged(T, norm):
        return SpatialField(grid=g, values=T)
    raise NoConvergence(200, norm)


def sample_coefficients(T_star: SpatialField, Q_field: SpatialField,
                        p: EbmParams):
    """Linearisation coefficients sampled on the interior nodes:
    b_m = r1 - Q(z_m) beta'(T*), d_m = beta'(T*), f_m = beta(T*)."""
    if T_star.grid != Q_field.grid:
        raise ValueError("fields live on different grids")
    dvec = co_albedo_slope(T_star.values, p)
    bvec = p.r1 - Q_field.values * dvec
    fvec = co_albedo(T_star.values, p)
    return bvec, dvec, fvec


def build_noise_covariance(g: Grid2D, kernel="identity", variance=1.0,
                           length=None) -> np.ndarray:
    """Discrete noise covariance C on the interior nodes: C = v*I for the
    "identity" kernel, C_ij = v*exp(-|z_i - z_j|/l) for "exponential"."""
    if not (variance > 0.0 and math.isfinite(variance)):
        raise ValueError(f"variance must be positive and finite, got {variance!r}")
    if kernel == "identity":
        return variance * np.eye(g.d)
    if kernel != "exponential":
        raise ValueError(f"unknown kernel {kernel!r}")
    if length is None or not (length > 0.0 and math.isfinite(length)):
        raise ValueError("exponential kernel needs a positive finite length, "
                         f"got {length!r}")
    x, y = g.interior_coords().T
    dist = np.subtract.outer(x, x) ** 2
    dist += np.subtract.outer(y, y) ** 2
    return variance * np.exp(-np.sqrt(dist, out=dist) / length)


def cholesky_with_jitter(C, jitter) -> np.ndarray:
    """Lower-triangular factor of C, adding `jitter` on the diagonal, grown
    tenfold, at most 3 times before raising NotPositiveDefinite."""
    bump = 0.0
    for _ in range(4):  # unjittered, then 3 jitters
        try:
            return np.linalg.cholesky(C + bump * np.eye(C.shape[0]))
        except np.linalg.LinAlgError:
            bump = jitter if bump == 0.0 else 10.0 * bump
    raise NotPositiveDefinite(
        f"factorisation failed even with jitter {bump:.1e}"
    )


@dataclass(frozen=True)
class SpatialOperators:
    """Assembled drift and noise data of the semi-discrete anomaly SDE;
    frozen, so that its cached `drift_eigenvalues` stay valid."""

    b_vec: np.ndarray
    d_vec: np.ndarray
    f_vec: np.ndarray
    M: np.ndarray
    C: np.ndarray
    tau: float
    stencil: _FivePointLaplacian | None = None  # M as a grid's stencil, if any

    @property
    def d(self) -> int:
        return self.b_vec.size

    @cached_property
    def _drift_eig(self):
        if not np.array_equal(self.M, self.M.T):
            raise ParamOutOfRange("the drift M is not symmetric")
        w, U = np.linalg.eigh(self.M)
        w.flags.writeable = U.flags.writeable = False  # shared by every caller
        return w, U


def build_operators(g: Grid2D, T_star: SpatialField, Q_field: SpatialField,
                    p: EbmParams, C: np.ndarray) -> SpatialOperators:
    bvec, dvec, fvec = sample_coefficients(T_star, Q_field, p)
    if np.any((fvec <= 0.0) | (fvec >= 1.0)):
        raise ValueError("sampled co-albedo must lie in (0, 1)")
    drift = _FivePointLaplacian(g, _FivePointLaplacian(g).centre - bvec)
    return SpatialOperators(b_vec=bvec, d_vec=dvec, f_vec=fvec,
                            M=drift.dense(), C=C, tau=p.tau, stencil=drift)


def operators_from_arrays(M, d_vec, f_vec, C, tau) -> SpatialOperators:
    """Operators built directly from dense matrices (tests, scalar
    reductions, hand-crafted systems)."""
    M = np.array(M, dtype=float)
    d_vec = np.asarray(d_vec, dtype=float)
    f_vec = np.asarray(f_vec, dtype=float)
    return SpatialOperators(b_vec=-np.diag(M), d_vec=d_vec, f_vec=f_vec, M=M,
                            C=np.asarray(C, dtype=float), tau=float(tau))


def drift_eigenvalues(ops: SpatialOperators) -> tuple[np.ndarray, np.ndarray]:
    """M = U diag(w) U^T, w ascending, by numpy's eigh, which runs LAPACK's
    divide-and-conquer syevd (0.06 s at d = 900 on 2 cores, against 0.34 s
    for the relatively robust syevr), once per operators object, kept on it
    read-only.  Symmetry of M is a contract: M = A_delta - diag(b) is exactly
    symmetric on every grid, and a nonsymmetric M is refused with
    ParamOutOfRange."""
    return ops._drift_eig


# Per Euler step on 16000 // d paths (2 cores, OpenBLAS 0.3.31), BLAS's drift
# product takes 11-17 us at d = 16, 30-43 at 64, 115-145 at 225 and 590-700
# at 900, growing with d, and the five-point stencil's about 140-220 us at
# every d from 225 to 1600: they meet near d = 240 = 48 nodes a diagonal.
_NODES_PER_DIAGONAL = 48


def _row_products(ops: SpatialOperators):
    """y -> the rows M y of each row y: y @ M by BLAS (M is symmetric),
    unless M is a grid's, with fewer than d / _NODES_PER_DIAGONAL nonzero
    diagonals (five, three on a one-wide grid).  Then M's own stencil sums
    each row's nonzeros in column order, O(d) a row, for any batch."""
    g = getattr(ops.stencil, "g", None)
    if (g is None or _NODES_PER_DIAGONAL * (1 + 2 * (g.Nx > 2) + 2 * (g.Ny > 2))
            >= ops.d):
        return lambda y: y @ ops.M  # y M = M y, row-wise
    return ops.stencil.__matmul__


def simulate_anomaly_field(ops: SpatialOperators, cfg: SimConfig,
                           y0=None, *, sink):
    """Euler-Maruyama for dY = M Y dt + sqrt(tau) diag(D Y + f) L dW, where
    L is the Cholesky factor of ops.C (L L^T = C), taken once a run with
    diagonal jitter 1e-12 max(diag C) (`cholesky_with_jitter`): a C that
    it cannot factor raises NotPositiveDefinite.  The drift product M y is
    BLAS's, or past d = 240 on a grid the stencil's (`_row_products`).

    Every step's state goes to sink(first, states) block by block, as
    `_run_paths` describes: a run is bounded by what the sink does with
    them, not by memory, and a sink that drops states keeps fewer.
    """
    d = ops.d
    w, _ = drift_eigenvalues(ops)
    if w[-1] >= 0.0:
        raise UnstableDrift(f"spectral abscissa {w[-1]:.3g} >= 0")
    if cfg.dt > 1.8 / abs(w[0]):
        raise StepTooLarge(
            f"dt = {cfg.dt:.3g} exceeds 1.8/|lambda_min| = {1.8 / abs(w[0]):.3g}")
    drift = _row_products(ops)
    scale = np.sqrt(ops.tau * cfg.dt)
    Lt = cholesky_with_jitter(ops.C, 1e-12 * np.max(np.diag(ops.C))).T
    d_vec, f_vec = scale * ops.d_vec, scale * ops.f_vec

    def step(y, xi):  # in place, as temporaries cost more than the sums
        out = drift(y)
        out *= cfg.dt
        out += y
        amp = y * d_vec  # rows hold sqrt(tau dt) (D y + f) o (xi L^T)
        amp += f_vec
        amp *= xi @ Lt
        out += amp
        return out

    _run_paths(cfg, np.zeros(d) if y0 is None else y0, step, shape=(d,),
               sink=sink)
