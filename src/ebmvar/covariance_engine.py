"""Covariance dynamics and stationary analysis of the anomaly field.

All of it works on d x d matrices through one covariance operator,
X -> M X + X M^T + tau C o (D X D): the matrix covariance ODE, the
stationary solve, the matrix-class certificate, forcing-monotonicity sweeps,
the spatial-variance proxy with its exceedance bound, and the 2x2
negative-correlation counterexample.  The operator's d^2 x d^2 Kronecker
matrix K (`assemble_vectorised`) is a test oracle only, and the one caller
of scipy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EbmvarError,
    NonFiniteState,
    NonPositiveThreshold,
    ParamOutOfRange,
    SolveFailed,
    UnstableK,
)
from .model_core import EbmParams
from .spatial_model import (
    BoundaryTrace,
    Grid2D,
    SpatialField,
    SpatialOperators,
    build_operators,
    drift_eigenvalues,
    operators_from_arrays,
    solve_equilibrium_profile,
)


@dataclass
class VectorisedSystem:
    """Column-stacked form of the covariance ODE: dq/dt = K q + F."""

    K: "scipy.sparse.csc_matrix"
    F: np.ndarray
    d: int


@dataclass
class CovarianceState:
    """A covariance matrix Gamma, its trace (the spatial variance) and
    whether its symmetric part is positive semidefinite to round-off."""

    gamma: np.ndarray
    spatial_variance: float

    @classmethod
    def from_gamma(cls, gamma) -> "CovarianceState":
        gamma = np.asarray(gamma, dtype=float)
        return cls(gamma=gamma, spatial_variance=float(np.trace(gamma)))

    @cached_property
    def is_psd(self) -> bool:  # a d x d eigvalsh, run when first read
        w = np.linalg.eigvalsh(0.5 * (self.gamma + self.gamma.T))  # ascending
        # The spectral norm of a symmetric matrix is its largest |eigenvalue|.
        scale = float(max(abs(w[0]), abs(w[-1]))) or 1.0
        return float(w[0]) >= -1e-8 * scale


def _gain(ops: SpatialOperators) -> np.ndarray:
    """The operator's noise gain tau C o d d^T."""
    return ops.tau * ops.C * np.outer(ops.d_vec, ops.d_vec)


def _apply(ops: SpatialOperators, X) -> np.ndarray:
    """X -> M X + X M^T + tau C o (D X D) on d x d matrices; K is its
    column-stacked matrix."""
    return ops.M @ X + (ops.M @ X.T).T + _gain(ops) * X


def covariance_rhs(gamma, ops: SpatialOperators) -> np.ndarray:
    """M G + G M^T + tau * (C o (D G D^T + f f^T)) with o the entrywise
    product; identical to the column-factor sum since sum_k l^k (l^k)^T = C."""
    gamma = np.asarray(gamma, dtype=float)
    return (_apply(ops, gamma)
            + ops.tau * ops.C * np.outer(ops.f_vec, ops.f_vec))


def integrate_covariance(ops: SpatialOperators, T_end, dt) -> CovarianceState:
    """Classical RK4 on the matrix ODE from Gamma(0) = 0, symmetrising each
    step; the exact flow preserves symmetry, floating point does not."""
    if not (0.0 < T_end < np.inf and 0.0 < dt < np.inf):
        raise ParamOutOfRange(f"need finite T_end, dt > 0: {T_end!r}, {dt!r}")
    gamma = np.zeros((ops.d, ops.d))
    n_steps = int(np.ceil(T_end / dt))
    h = T_end / n_steps
    for k in range(n_steps):
        k1 = covariance_rhs(gamma, ops)
        k2 = covariance_rhs(gamma + 0.5 * h * k1, ops)
        k3 = covariance_rhs(gamma + 0.5 * h * k2, ops)
        k4 = covariance_rhs(gamma + h * k3, ops)
        gamma = gamma + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        gamma = 0.5 * (gamma + gamma.T)
        if not np.all(np.isfinite(gamma)):
            raise NonFiniteState(k)
    return CovarianceState.from_gamma(gamma)


def assemble_vectorised(ops: SpatialOperators) -> VectorisedSystem:
    """K = I x M + M x I + tau diag(vec C)(D x D),
    F = tau diag(vec C) vec(f f^T), column-stacking convention.  K is a
    scipy.sparse matrix; scipy is imported here, so the solvers never load
    it."""
    import scipy.sparse as sp

    d = ops.d
    M = sp.csr_matrix(ops.M)
    I = sp.identity(d, format="csr")
    vec_c = np.asarray(ops.C, dtype=float).flatten(order="F")
    D = sp.diags(ops.d_vec)
    K = (sp.kron(I, M) + sp.kron(M, I)
         + ops.tau * sp.diags(vec_c) @ sp.kron(D, D))
    F = ops.tau * vec_c * np.outer(ops.f_vec, ops.f_vec).flatten(order="F")
    return VectorisedSystem(K=K.tocsc(), F=F, d=d)


# Step budget of the certificate's eigensolve; it fails past it.
_LOBPCG_MAXITER = 100


def _lobpcg_top(K, shift, X, tol):
    """Largest eigenvalue of the self-adjoint operator K on d x d matrices
    (Frobenius inner product) by single-vector LOBPCG (Knyazev, SIAM J. Sci.
    Comput. 23, 2001), started from X and preconditioned by entrywise
    division by the positive `shift`.

    Each step is a Rayleigh-Ritz on the iterate, its preconditioned residual
    and the previous step's direction, orthonormalised first (Hetmaniuk &
    Lehoucq, J. Comput. Phys. 218, 2006) so that the 3 x 3 problem stays
    well conditioned as the step shrinks: one application of K per step.  A
    direction that orthogonalisation leaves at 1e-10 of its norm is dropped.
    Converged when the residual's Frobenius norm is at most `tol`; raises
    SolveFailed after _LOBPCG_MAXITER steps, or when no direction is left.
    """
    X = X / np.linalg.norm(X)
    KX = K(X)
    P = KP = None
    for _ in range(_LOBPCG_MAXITER):
        rho = np.vdot(X, KX)
        R = KX - rho * X
        if np.linalg.norm(R) <= tol:
            return float(rho)
        basis, images = [X], [KX]
        for V, KV in ((R / shift, None), (P, KP)):
            if V is None:
                continue
            size = np.linalg.norm(V)
            for _ in range(2):  # Gram-Schmidt twice is enough
                for B, KB in zip(basis, images):
                    c = np.vdot(B, V)
                    V = V - c * B
                    if KV is not None:
                        KV = KV - c * KB
            norm = np.linalg.norm(V)
            if norm > 1e-10 * size:
                basis.append(V / norm)
                images.append(K(V / norm) if KV is None else KV / norm)
        if len(basis) == 1:
            raise SolveFailed(f"K spectral abscissa: LOBPCG stalled at "
                              f"residual {np.linalg.norm(R):.3e}")
        H = np.array([[np.vdot(B, KB) for KB in images] for B in basis])
        c = np.linalg.eigh(0.5 * (H + H.T))[1][:, -1]
        P = sum(ci * B for ci, B in zip(c[1:], basis[1:]))
        KP = sum(ci * KB for ci, KB in zip(c[1:], images[1:]))
        X, KX = c[0] * X + P, c[0] * KX + KP
    raise SolveFailed("K spectral abscissa: LOBPCG did not converge in "
                      f"{_LOBPCG_MAXITER} steps")


def k_spectral_abscissa(ops: SpatialOperators) -> tuple[float, str]:
    """Max real part of K's spectrum, with the route used: "iterative"
    (LOBPCG on the d x d operator), also for d = 1, where the first
    residual is zero.  M must be symmetric, so K is self-adjoint and its
    abscissa is its largest eigenvalue.

    The eigensolve runs in M's eigen-coordinates Y = U^T X U, where
    L_M(X) = M X + X M^T is multiplication by w_i + w_j and K is
    Y -> (w_i + w_j) Y + U^T (G o (U Y U^T)) U, G = tau C o d d^T.  The
    noise term's norm is at most g = max|G|, so sigma = 2 w_top + g bounds
    K's spectrum from above.  The preconditioner is the inverse of
    sigma I - L_M, plus eps times K's norm bound so that it is finite when
    G = 0: division by sigma - (w_i + w_j) + eps |K|, positive also when M
    or K is not Hurwitz.  The start u u^T + I/d (u M's top eigenvector,
    that is e_top e_top^T + I/d) is positive definite, so it meets the PSD
    eigenvector of K's rightmost eigenvalue, which exists for PSD C (Damm
    2004, ch. 3), also when M is reducible and u lies in one of its blocks;
    u u^T alone misses it there.  There is no random start, so reruns give
    identical digits.  The residual tolerance is 1e-10 |K|, with the bound
    |K| <= max|w_i + w_j| + g."""
    d = ops.d
    w, U = drift_eigenvalues(ops)
    gain = _gain(ops)
    denom = w[:, None] + w[None, :]

    def K(Y):
        return denom * Y + U.T @ (gain * (U @ Y @ U.T)) @ U

    g = np.max(np.abs(gain))
    knorm = np.max(np.abs(denom)) + g
    shift = 2.0 * w[-1] + g - denom + np.finfo(float).eps * knorm
    start = np.eye(d) / d
    start[-1, -1] += 1.0
    return _lobpcg_top(K, shift, start, 1e-10 * knorm), "iterative"


def _gmres(op, b):
    """Restarted GMRES (Saad & Schultz 1986) for op(x) = b on d x d
    matrices: at most 10 cycles of 20 Arnoldi steps (modified Gram-Schmidt),
    stopping once the residual norm is at most 1e-14 |b|.  Returns the last
    iterate, converged or not: the caller checks it."""
    restart = 20
    x = np.zeros_like(b)
    target = 1e-14 * np.linalg.norm(b)
    for _ in range(10):
        r = b - op(x) if x.any() else b
        beta = np.linalg.norm(r)
        if beta <= target:
            break
        V = [r / beta]
        H = np.zeros((restart + 1, restart))
        rhs = np.zeros(restart + 1)
        rhs[0] = beta
        for j in range(restart):
            v = op(V[j])
            for i in range(j + 1):
                H[i, j] = np.vdot(V[i], v)
                v = v - H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(v)
            Hj, rj = H[:j + 2, :j + 1], rhs[:j + 2]
            y = np.linalg.lstsq(Hj, rj, rcond=None)[0]
            if H[j + 1, j] == 0.0 or np.linalg.norm(Hj @ y - rj) <= target:
                break
            V.append(v / H[j + 1, j])
        x = x + sum(yi * Vi for yi, Vi in zip(y, V))
    return x


def _solve(ops: SpatialOperators, R) -> np.ndarray:
    """The solution X of the generalized Lyapunov equation
    M X + X M^T + tau C o (D X D) = R for symmetric R, in the eigenbasis
    of the symmetric drift (`drift_eigenvalues`, which refuses any other M).

    With L_M(X) = M X + X M^T, restarted GMRES (`_gmres`) solves the
    Lyapunov-preconditioned form (I + L_M^-1 tau C o (D . D)) X = L_M^-1(R)
    on d x d matrices (Damm 2008; Benner & Breiten 2013).  L_M^-1 is a
    solution by diagonalisation (Simoncini, SIAM Review 58, 2016, sec. 4):
    in M's eigen-coordinates Y = U^T X U, L_M is multiplication by
    w_i + w_j, so L_M^-1(R) = U ((U^T R U) / (w_i + w_j)) U^T.  The
    multiplicative-noise term is a small perturbation on every grid
    operator, so this converges in one or two iterations; D = 0 makes it a
    plain Lyapunov solve.  The answer stands only if it passes the symmetry
    and residual checks below, which also refuse a non-finite one.
    """
    w, U = drift_eigenvalues(ops)
    denom = w[:, None] + w[None, :]
    if np.any(denom == 0.0):
        raise SolveFailed("Lyapunov operator M X + X M^T is singular")
    gain = _gain(ops)

    def lyap(Y):  # L_M^-1
        return U @ ((U.T @ Y @ U) / denom) @ U.T

    # At most 10 restart cycles of 20 Lyapunov solves.  GMRES may stop just
    # short of 1e-14 when the contraction is close to 1; the residual check
    # below decides whether that answer stands.
    X = _gmres(lambda X: X + lyap(gain * X), lyap(R))
    defect = np.max(np.abs(X - X.T))
    xscale = np.max(np.abs(X)) or 1.0
    if not defect <= 1e-10 * xscale:
        raise SolveFailed(f"symmetry defect {defect:.3e} too large")
    X = 0.5 * (X + X.T)
    resid = np.max(np.abs(_apply(ops, X) - R))
    scale = np.max(np.abs(R)) or 1.0
    if not resid <= 1e-9 * scale:
        raise SolveFailed(f"generalized Lyapunov residual {resid:.3e} "
                          "too large")
    return X


def stationary_covariance(ops: SpatialOperators) -> CovarianceState:
    """Stationary covariance: the solution of the generalized Lyapunov
    equation M G + G M^T + tau C o (D G D) = -tau C o (f f^T) (`_solve`).

    M must be symmetric: a nonsymmetric M is refused with ParamOutOfRange.
    Gamma exists only if K is Hurwitz, which `require_hurwitz` decides.
    """
    gamma = _solve(ops, -ops.tau * ops.C * np.outer(ops.f_vec, ops.f_vec))
    return CovarianceState.from_gamma(gamma)


@dataclass
class StabilityCertificate:
    """What `certify` reads off M and K: their spectral abscissas, the
    M-matrix properties of -K, and the routes of its eigensolve and of the
    sign of its inverse."""

    m_spectral_abscissa: float
    k_spectral_abscissa: float
    minus_k_is_Z: bool
    minus_k_irreducible: bool
    inverse_nonnegative: bool
    inverse_strictly_positive: bool
    coercivity_ok: bool
    k_symmetric_part_negative_definite: bool
    eig_route: str
    inverse_route: str

    def to_dict(self) -> dict:
        return asdict(self)

    def require_hurwitz(self) -> None:
        """Raise UnstableK unless K's spectral abscissa is negative."""
        if not self.k_symmetric_part_negative_definite:
            raise UnstableK(f"K is not Hurwitz: its spectral abscissa is "
                            f"{self.k_spectral_abscissa:.3e}")


def _connected(adjacent) -> bool:
    """Whether the graph of a symmetric boolean adjacency matrix is
    connected: a breadth-first search from node 0, a frontier at a time."""
    seen = np.zeros(len(adjacent), dtype=bool)
    frontier = seen.copy()
    frontier[0] = True
    while frontier.any():
        seen |= frontier
        frontier = adjacent[frontier].any(axis=0) & ~seen
    return bool(seen.all())


def certify(ops: SpatialOperators) -> StabilityCertificate:
    """Matrix-class certificate for the stationary solve, read off M and the
    covariance operator; K is never assembled.  K = I x M + M x I + a
    diagonal, so -K is a Z-matrix iff M's off-diagonals are >= 0, and K's
    graph, the Cartesian product of M's with itself, is strongly connected
    iff M's is.  M must be symmetric (a nonsymmetric M is refused with
    ParamOutOfRange), so M's graph is undirected, strongly connected iff
    connected (a breadth-first search over M's nonzero pattern), and K is
    its own symmetric part, which is negative definite iff K's spectral
    abscissa (`k_spectral_abscissa`, by LOBPCG) is negative.  The sign of
    the inverse is asserted through the M-matrix theorem only (Berman &
    Plemmons 1994, ch. 6): -K a Z-matrix with K Hurwitz has a nonnegative
    inverse, strictly positive when -K is irreducible.
    """
    w, _ = drift_eigenvalues(ops)
    k_absc, eig_route = k_spectral_abscissa(ops)
    off_diagonal = ops.M[~np.eye(ops.d, dtype=bool)]
    minus_k_is_Z = bool(np.all(off_diagonal >= -1e-14))
    irreducible = _connected(ops.M != 0.0)
    m_matrix = k_absc < 0.0 and minus_k_is_Z  # -K a nonsingular M-matrix
    return StabilityCertificate(
        m_spectral_abscissa=float(w[-1]),
        k_spectral_abscissa=k_absc,
        minus_k_is_Z=minus_k_is_Z,
        minus_k_irreducible=irreducible,
        inverse_nonnegative=m_matrix,
        inverse_strictly_positive=m_matrix and irreducible,
        coercivity_ok=bool(np.all(ops.b_vec >= 0.0)),
        k_symmetric_part_negative_definite=k_absc < 0.0,
        eig_route=eig_route,
        inverse_route="m-matrix" if m_matrix else "not-asserted",
    )


def markov_bound(var_sp, threshold) -> float:
    """Second-moment exceedance bound min(1, Var_sp / theta^2)."""
    if threshold <= 0.0:
        raise NonPositiveThreshold(f"threshold {threshold} must be > 0")
    return float(min(1.0, var_sp / threshold**2))


def profile_sensitivity(ops: SpatialOperators) -> np.ndarray:
    """The elliptic sensitivity u = dT*/dlambda of the equilibrium profile:
    M u = -1 while no node sits on a co-albedo kink, read in M's eigenbasis
    (`drift_eigenvalues`) as u = U ((U^T (-1)) / w)."""
    w, U = drift_eigenvalues(ops)
    return U @ (-(U.T @ np.ones(ops.d)) / w)


def covariance_derivative(ops: SpatialOperators, df) -> np.ndarray:
    """dGamma/dlambda for the forcing derivative df = df/dlambda of the noise
    amplitude, M and D held fixed: the stationary equation (`_solve`) with
    right-hand side -tau C o (f df^T + df f^T) (Damm 2004, ch. 3)."""
    f_df = np.outer(ops.f_vec, df)  # f (df/dlambda)^T
    return _solve(ops, -ops.tau * ops.C * (f_df + f_df.T))


@dataclass
class SweepPoint:
    """One forcing of a monotonicity sweep as its CSV row: the trace of Gamma,
    the least entry of dGamma/dlambda, and which hypotheses fail (`note`)."""

    lam: float
    applicable: bool
    note: str = ""
    trace: float | None = None
    min_diff_entry: float | None = None
    entrywise_positive: bool | None = None
    sensitivity_positive: bool | None = None


@dataclass
class SweepReport:
    """The points of a monotonicity sweep, with its overall verdict."""

    points: list[SweepPoint]

    @property
    def verdict(self) -> str:
        applicable = [p for p in self.points if p.applicable]
        if not applicable:
            return "non-applicable"
        if all(p.entrywise_positive for p in applicable):
            return "entrywise positive"
        return "not monotone"


def _sweep_point(g: Grid2D, Q_field: SpatialField, theta: BoundaryTrace,
                 p: EbmParams, C: np.ndarray, lam: float) -> SweepPoint:
    """One forcing of `monotonicity_sweep`, reduced to its row."""
    try:
        T_star = solve_equilibrium_profile(g, Q_field, lam, theta, p)
        ops = build_operators(g, T_star, Q_field, p, C)
        cert = certify(ops)
        cert.require_hurwitz()
        trace = stationary_covariance(ops).spatial_variance
        u = profile_sensitivity(ops)
        min_entry = float(np.min(covariance_derivative(ops, ops.d_vec * u)))
    except UnstableK as exc:  # a hypothesis that fails, not the solver
        return SweepPoint(lam=lam, applicable=False, note=str(exc))
    except (EbmvarError, np.linalg.LinAlgError) as exc:
        return SweepPoint(lam=lam, applicable=False,
                          note=f"solver error: {exc}")

    why = []
    if not np.all((T_star.values > p.T_l) & (T_star.values < p.T_u)):
        why.append("profile leaves the ice-sensitive band")
    if not cert.coercivity_ok:
        why.append("coercivity violated")
    if not np.all(ops.C >= 0.0):
        why.append("noise covariance has negative entries")
    return SweepPoint(
        lam=lam, applicable=not why, note="; ".join(why), trace=trace,
        min_diff_entry=min_entry,
        entrywise_positive=None if why else bool(min_entry > 0.0),
        sensitivity_positive=bool(np.min(u) > 0.0))


def monotonicity_sweep(g: Grid2D, Q_field: SpatialField, theta: BoundaryTrace,
                       p: EbmParams, C: np.ndarray,
                       lambda_grid) -> SweepReport:
    """Entrywise forcing-monotonicity of the stationary covariance, read off
    its exact forcing derivative `covariance_derivative(ops, D u)`, u the
    elliptic sensitivity (`profile_sensitivity`).  The certificate, Gamma, u
    and dGamma/dlambda all come from the one eigendecomposition of the
    symmetric drift.  A point keeps its row only (`SweepPoint`), so the
    sweep's memory does not grow with its points.

    A grid point is applicable only when the equilibrium profile lies
    strictly inside the ice-sensitive band at every node, the noise
    covariance C is entrywise nonnegative, and the point's certificate finds
    K Hurwitz (`require_hurwitz`) and the coercivity b = r1 - Q beta'(T*) >= 0
    at every node (`coercivity_ok`); otherwise the point is flagged and no
    verdict is asserted there.
    """
    return SweepReport([_sweep_point(g, Q_field, theta, p, C, float(lam))
                        for lam in lambda_grid])


@dataclass
class CounterexampleResult:
    """The 2x2 counterexample's closed-form stationary trace and its forcing
    derivative, with the trace from the Lyapunov solver."""

    trace: float
    d_trace_d_lambda: float
    numeric_trace: float


def counterexample_operators(s, c, lam) -> SpatialOperators:
    """2x2 additive-noise system with anticorrelated noise:
    M = [[-1, s], [s, -1]], C = [[1, -c], [-c, 1]], f = (lam, 1)."""
    if not (0.0 < s < 1.0) or not (0.0 < c < 1.0):
        raise ParamOutOfRange("need 0 < s < 1 and 0 < c < 1")
    if lam < 0.0:
        raise ParamOutOfRange("lambda must be >= 0")
    M = np.array([[-1.0, s], [s, -1.0]])
    C = np.array([[1.0, -c], [-c, 1.0]])
    return operators_from_arrays(M, d_vec=[0.0, 0.0], f_vec=[lam, 1.0],
                                 C=C, tau=1.0)


def counterexample_trace(s, c, lam) -> CounterexampleResult:
    """Closed-form stationary trace (lam^2 - 2 c s lam + 1)/(2(1 - s^2)) and
    derivative (lam - c s)/(1 - s^2), alongside the Lyapunov-solver trace.
    D = 0 and M's eigenvalues -1 +- s < 0 make K = L_M Hurwitz by design."""
    ops = counterexample_operators(s, c, lam)
    trace = (lam**2 - 2.0 * c * s * lam + 1.0) / (2.0 * (1.0 - s**2))
    deriv = (lam - c * s) / (1.0 - s**2)
    cs = stationary_covariance(ops)
    return CounterexampleResult(trace=float(trace),
                                d_trace_d_lambda=float(deriv),
                                numeric_trace=cs.spatial_variance)


def counterexample_sign_change(s, c, tol=1e-8) -> float:
    """Locate the zero of the solver's exact trace derivative by bisection;
    the closed form predicts lambda = c*s.  As in the sweep, dGamma/dlambda
    is `covariance_derivative`, here with df/dlambda = (1, 0)."""
    def slope(lam):
        return np.trace(covariance_derivative(
            counterexample_operators(s, c, lam), [1.0, 0.0]))

    lo, hi = 0.0, 1.0
    if slope(lo) >= 0.0:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
