"""Two-dimensional spatial anomaly model.

Rectangular interior grid, five-point Laplacian in Kronecker-sum form,
deterministic equilibrium profile under Dirichlet data (damped semismooth
Newton over the piecewise-affine balance residual), sampled linearisation
coefficients, discrete noise covariance, and the semi-discrete anomaly SDE
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    NoConvergence,
    NotPositiveDefinite,
    SingularJacobian,
    StepTooLarge,
    UnstableDrift,
)
from .model_core import EbmParams, co_albedo, co_albedo_slope
from .sde_engine import PathBundle, SimConfig, _run_paths


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
    """Interior nodal values plus the boundary trace on the four edges."""

    grid: Grid2D
    values: np.ndarray
    boundary: BoundaryTrace = field(default_factory=lambda: BoundaryTrace.constant(0.0))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.d,):
            raise ValueError("field length does not match its grid")

    @classmethod
    def constant(cls, grid: Grid2D, value: float, boundary=None) -> "SpatialField":
        bd = boundary if boundary is not None else BoundaryTrace.constant(value)
        return cls(grid=grid, values=np.full(grid.d, float(value)), boundary=bd)


def assemble_laplacian(g: Grid2D) -> sp.csr_matrix:
    """Five-point Laplacian with homogeneous Dirichlet encoded by omission,

    A = (1/hx^2)(I_{Ny-1} x Ax) + (1/hy^2)(Ay x I_{Nx-1}),
    with Ax, Ay = tridiag(1, -2, 1).
    """
    def tridiag(n):
        return sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                        offsets=[-1, 0, 1], format="csr")

    Ax = tridiag(g.Nx - 1)
    Ay = tridiag(g.Ny - 1)
    A = (sp.kron(sp.identity(g.Ny - 1), Ax, format="csr") / g.hx**2
         + sp.kron(Ay, sp.identity(g.Nx - 1), format="csr") / g.hy**2)
    return A.tocsr()


def dirichlet_load(g: Grid2D, theta: BoundaryTrace) -> np.ndarray:
    """Boundary contributions folded into a constant vector.

    The full discrete Laplacian of the lifted field is A_delta*T + g_bc.
    """
    g_bc = np.zeros(g.d)
    for m, (i, j) in enumerate(g.interior_pairs()):
        if i == 1:
            g_bc[m] += theta.left / g.hx**2
        if i == g.Nx - 1:
            g_bc[m] += theta.right / g.hx**2
        if j == 1:
            g_bc[m] += theta.bottom / g.hy**2
        if j == g.Ny - 1:
            g_bc[m] += theta.top / g.hy**2
    return g_bc


def equilibrium_residual(T, A, g_bc, Q_vals, lam, p: EbmParams):
    """A_delta T + g_bc + Q.beta(T) + lambda - r0 - r1 T, evaluated nodewise."""
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
    """
    A = assemble_laplacian(g)
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
            return SpatialField(grid=g, values=T, boundary=theta)
        J = A + sp.diags(Q_vals * co_albedo_slope(T, p) - p.r1)
        try:
            lu = spla.splu(J.tocsc())
            step = lu.solve(-res)
        except RuntimeError as exc:
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
        return SpatialField(grid=g, values=T, boundary=theta)
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


@dataclass
class NoiseCovariance:
    C: np.ndarray
    L: np.ndarray


def build_noise_covariance(g: Grid2D, kernel="identity", variance=1.0,
                           length=None) -> NoiseCovariance:
    """Discrete noise covariance on the interior nodes with a factor L.

    kernel "identity": C = v*I.  kernel "exponential": C_ij =
    v*exp(-|z_i - z_j|/l).  The Cholesky factor gets diagonal jitter
    1e-12*v, retried at most 3 times, before giving up.
    """
    if not (variance > 0.0 and math.isfinite(variance)):
        raise ValueError(f"variance must be positive and finite, got {variance!r}")
    if kernel == "identity":
        C = variance * np.eye(g.d)
        L = np.sqrt(variance) * np.eye(g.d)
        return NoiseCovariance(C=C, L=L)
    if kernel != "exponential":
        raise ValueError(f"unknown kernel {kernel!r}")
    if length is None or not (length > 0.0 and math.isfinite(length)):
        raise ValueError("exponential kernel needs a positive finite length, "
                         f"got {length!r}")
    z = g.interior_coords()
    dist = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    C = variance * np.exp(-dist / length)
    L = cholesky_with_jitter(C, jitter=1e-12 * variance)
    return NoiseCovariance(C=C, L=L)


def cholesky_with_jitter(C, jitter, tries=3) -> np.ndarray:
    """Lower-triangular factor of C, adding `jitter` on the diagonal at most
    `tries` times before raising NotPositiveDefinite."""
    bump = 0.0
    for _ in range(tries + 1):
        try:
            return np.linalg.cholesky(C + bump * np.eye(C.shape[0]))
        except np.linalg.LinAlgError:
            bump = jitter if bump == 0.0 else 10.0 * bump
    raise NotPositiveDefinite(
        f"factorisation failed even with jitter {bump:.1e}"
    )


@dataclass
class SpatialOperators:
    """Assembled drift and noise data of the semi-discrete anomaly SDE."""

    b_vec: np.ndarray
    d_vec: np.ndarray
    f_vec: np.ndarray
    M: sp.csr_matrix
    C: np.ndarray
    L: np.ndarray
    tau: float

    @property
    def d(self) -> int:
        return self.b_vec.size


def build_operators(g: Grid2D, T_star: SpatialField, Q_field: SpatialField,
                    p: EbmParams, noise: NoiseCovariance) -> SpatialOperators:
    A = assemble_laplacian(g)
    bvec, dvec, fvec = sample_coefficients(T_star, Q_field, p)
    if np.any((fvec <= 0.0) | (fvec >= 1.0)):
        raise ValueError("sampled co-albedo must lie in (0, 1)")
    M = (A - sp.diags(bvec)).tocsr()
    return SpatialOperators(b_vec=bvec, d_vec=dvec, f_vec=fvec, M=M,
                            C=noise.C, L=noise.L, tau=p.tau)


def operators_from_arrays(M, d_vec, f_vec, C, L, tau) -> SpatialOperators:
    """Operators built directly from matrices (tests, scalar reductions,
    hand-crafted systems)."""
    M = sp.csr_matrix(M)
    d_vec = np.asarray(d_vec, dtype=float)
    f_vec = np.asarray(f_vec, dtype=float)
    return SpatialOperators(b_vec=-M.diagonal(), d_vec=d_vec, f_vec=f_vec, M=M,
                            C=np.asarray(C, dtype=float),
                            L=np.asarray(L, dtype=float), tau=float(tau))


def drift_eigenvalues(ops: SpatialOperators) -> np.ndarray:
    """Eigenvalues of M: real, by the symmetric solver, when M is exactly
    symmetric (every grid), and by the general one otherwise."""
    if (ops.M != ops.M.T).nnz == 0:
        return np.linalg.eigvalsh(ops.M.toarray())
    return np.linalg.eigvals(ops.M.toarray())


def simulate_anomaly_field(ops: SpatialOperators, cfg: SimConfig,
                           y0=None, store_stride=1) -> PathBundle:
    """Euler-Maruyama for dY = M Y dt + sqrt(tau) diag(D Y + f) L dW.

    `store_stride` keeps every k-th time slice (plus the final one) to bound
    memory on long stationary runs; the dynamics always advance at cfg.dt.
    """
    d = ops.d
    eigs = drift_eigenvalues(ops)
    abscissa = float(np.max(eigs.real))
    if abscissa >= 0.0:
        raise UnstableDrift(f"spectral abscissa {abscissa:.3g} >= 0")
    lam_min = float(np.min(eigs.real))
    if cfg.dt > 1.8 / abs(lam_min):
        raise StepTooLarge(
            f"dt = {cfg.dt:.3g} exceeds 1.8/|lambda_min| = {1.8 / abs(lam_min):.3g}"
        )
    y_init = np.zeros(d) if y0 is None else np.asarray(y0, dtype=float)
    Lt = ops.L.T
    sqrt_dt = np.sqrt(cfg.dt)
    sqrt_tau = np.sqrt(ops.tau)

    kept = list(range(0, cfg.n_steps + 1, store_stride))
    if kept[-1] != cfg.n_steps:
        kept.append(cfg.n_steps)

    def step(y, xi, k):
        dW = sqrt_dt * xi
        amp = y * ops.d_vec + ops.f_vec  # rows hold D y + f
        return y + cfg.dt * (ops.M @ y.T).T + sqrt_tau * amp * (dW @ Lt)

    values = _run_paths(cfg.seed, cfg.n_paths, cfg.n_steps,
                        lambda B: np.tile(y_init, (B, 1)), step,
                        shape=(d,), keep=kept)
    times = cfg.dt * np.asarray(kept, dtype=float)
    return PathBundle(times=times, values=values, seed=cfg.seed)
