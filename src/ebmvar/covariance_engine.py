"""Covariance dynamics and stationary analysis of the anomaly field.

All of it works on d x d matrices through one covariance operator,
X -> M X + X M^T + tau C o (D X D): the matrix covariance ODE, the
stationary solve, the matrix-class certificate, forcing-monotonicity sweeps,
the spatial-variance proxy with its exceedance bound, and the 2x2
negative-correlation counterexample.  The operator's d^2 x d^2 Kronecker
matrix K (`assemble_vectorised`) is a test oracle only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack
from scipy.sparse.csgraph import connected_components

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
    NoiseCovariance,
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

    K: sp.csc_matrix
    F: np.ndarray
    d: int


@dataclass
class CovarianceState:
    gamma: np.ndarray
    spatial_variance: float
    is_psd: bool

    @classmethod
    def from_gamma(cls, gamma) -> "CovarianceState":
        gamma = np.asarray(gamma, dtype=float)
        sym = 0.5 * (gamma + gamma.T)
        w = np.linalg.eigvalsh(sym)  # ascending
        # The spectral norm of a symmetric matrix is its largest |eigenvalue|.
        scale = float(max(abs(w[0]), abs(w[-1]))) or 1.0
        return cls(gamma=gamma, spatial_variance=float(np.trace(gamma)),
                   is_psd=float(w[0]) >= -1e-8 * scale)


def _operator(ops: SpatialOperators, M=None):
    """X -> M X + X M^T + tau C o (D X D) on d x d matrices (K is its
    column-stacked matrix), and its noise gain tau C o d d^T.  Built from
    sym(M) instead of the drift it is sym(K), as K's noise term is diagonal.
    """
    M = ops.M if M is None else M
    gain = ops.tau * ops.C * np.outer(ops.d_vec, ops.d_vec)

    def apply(X):
        return M @ X + (M @ X.T).T + gain * X

    return apply, gain


def covariance_rhs(gamma, ops: SpatialOperators) -> np.ndarray:
    """M G + G M^T + tau * (C o (D G D^T + f f^T)) with o the entrywise
    product; identical to the column-factor sum since sum_k l^k (l^k)^T = C."""
    gamma = np.asarray(gamma, dtype=float)
    return (_operator(ops)[0](gamma)
            + ops.tau * ops.C * np.outer(ops.f_vec, ops.f_vec))


def integrate_covariance(ops: SpatialOperators, T_end, dt) -> CovarianceState:
    """Classical RK4 on the matrix ODE from Gamma(0) = 0, symmetrising each
    step; the exact flow preserves symmetry, floating point does not."""
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
    F = tau diag(vec C) vec(f f^T), column-stacking convention."""
    d = ops.d
    M = ops.M.tocsr()
    I = sp.identity(d, format="csr")
    vec_c = np.asarray(ops.C, dtype=float).flatten(order="F")
    D = sp.diags(ops.d_vec)
    K = (sp.kron(I, M) + sp.kron(M, I)
         + ops.tau * sp.diags(vec_c) @ sp.kron(D, D))
    F = ops.tau * vec_c * np.outer(ops.f_vec, ops.f_vec).flatten(order="F")
    return VectorisedSystem(K=K.tocsc(), F=F, d=d)


def _rightmost_eigenvalue(apply, d, arpack, which, what) -> float:
    """Rightmost eigenvalue of an operator on d x d matrices by ARPACK,
    started from 1 1^T, not a random vector, so reruns give identical digits.
    For PSD C the rightmost eigenvalue of K is real with a PSD eigenvector X
    (Damm 2004, ch. 3), which meets the start with weight 1^T X 1 >= 0."""
    op = spla.LinearOperator(
        (d * d, d * d), dtype=float,
        matvec=lambda x: apply(x.reshape(d, d)).ravel())
    try:
        vals = arpack(op, k=1, which=which, return_eigenvectors=False,
                      maxiter=5000, v0=np.ones(d * d))
    except spla.ArpackNoConvergence as exc:
        raise SolveFailed(f"{what}: {exc}") from exc
    return float(vals.real.max())


def k_spectral_abscissa(ops: SpatialOperators) -> tuple[float, str]:
    """Max real part of K's spectrum, with the route used: "iterative"
    (ARPACK on the d x d operator), or "dense" for d = 1, where ARPACK
    cannot run and K is its own eigenvalue."""
    apply, _ = _operator(ops)
    if ops.d == 1:
        return float(apply(np.ones((1, 1)))[0, 0]), "dense"
    return _rightmost_eigenvalue(apply, ops.d, spla.eigs, "LR",
                                 "K spectral abscissa"), "iterative"


def _lyapunov_solver(M: np.ndarray):
    """Solver R -> X of M X + X M^T = R: one real Schur form M = U T U^T,
    then one LAPACK trsyl on T per solve (Bartels-Stewart).

    The products use scipy's BLAS, which also runs schur and trsyl: numpy
    bundles a second OpenBLAS whose idle threads keep spinning after a call,
    and alternating between the two stalls a call by about 0.1 s once d is
    large enough for BLAS to use threads.
    """
    T, U = sla.schur(M, output="real")
    gemm = blas.dgemm

    def solve(R):
        Y, scale, info = lapack.dtrsyl(
            T, T, gemm(1.0, gemm(1.0, U, R, trans_a=True), U), tranb="T")
        if info != 0:
            raise SolveFailed("Lyapunov operator M X + X M^T is singular "
                              "to working precision")
        return gemm(1.0 / scale, gemm(1.0, U, Y), U, trans_b=True)

    return solve


def _covariance_solver(ops: SpatialOperators):
    """Solver R -> X of the generalized Lyapunov equation
    M X + X M^T + tau C o (D X D) = R for symmetric R.

    With L_M(X) = M X + X M^T, GMRES solves the Lyapunov-preconditioned
    form (I + L_M^-1 tau C o (D . D)) X = L_M^-1(R) on d x d matrices
    (Damm 2008; Benner & Breiten 2013).  The multiplicative-noise term is a
    small perturbation on every grid operator, so this converges in one or
    two iterations; D = 0 makes it a plain Lyapunov solve.  The Schur form
    of M is computed once, here, and serves every right-hand side.
    """
    d = ops.d
    lyap = _lyapunov_solver(ops.M.toarray())
    apply, noise_gain = _operator(ops)
    op = spla.LinearOperator(
        (d * d, d * d), dtype=float,
        matvec=lambda x: x + lyap(noise_gain * x.reshape(d, d)).ravel())

    def solve(R):
        # At most 10 restart cycles of 20 Lyapunov solves.  GMRES may stop
        # just short of 1e-14 when the contraction is close to 1; the
        # residual check below decides whether that answer stands.
        q, info = spla.gmres(op, lyap(R).ravel(), rtol=1e-14, atol=0.0,
                             maxiter=10)
        X = q.reshape(d, d)
        defect = np.max(np.abs(X - X.T))
        xscale = np.max(np.abs(X)) or 1.0
        if defect > 1e-10 * xscale:
            raise SolveFailed(f"symmetry defect {defect:.3e} too large")
        X = 0.5 * (X + X.T)
        resid = np.max(np.abs(apply(X) - R))
        scale = np.max(np.abs(R)) or 1.0
        if resid > 1e-9 * scale:
            raise SolveFailed(f"generalized Lyapunov residual {resid:.3e} too "
                              f"large (GMRES exit status {info})")
        return X

    return solve


def _stationary(ops: SpatialOperators, check_stability):
    """The stationary covariance state and the solver that produced it.

    The Hurwitz gate needs C to be PSD, as every noise covariance built here
    is.  Then X -> M X + X M^T + tau C o (D X D) is resolvent positive on the
    PSD cone, and it is Hurwitz iff its solution of K(X) = -I is positive
    definite (Damm 2004, ch. 3): one more solve on the same Schur form.
    """
    solve = _covariance_solver(ops)
    if check_stability:
        _, info = lapack.dpotrf(solve(-np.eye(ops.d)))
        if info != 0:
            raise UnstableK("the solution of K(X) = -I is not positive "
                            "definite, so K is not Hurwitz")
    gamma = solve(-ops.tau * ops.C * np.outer(ops.f_vec, ops.f_vec))
    return CovarianceState.from_gamma(gamma), solve


def stationary_covariance(ops: SpatialOperators,
                          check_stability=True) -> CovarianceState:
    """Stationary covariance: the solution of the generalized Lyapunov
    equation M G + G M^T + tau C o (D G D) = -tau C o (f f^T).

    Refuses a non-Hurwitz K with UnstableK; `check_stability=False` skips
    that gate, which assumes C is PSD.
    """
    return _stationary(ops, check_stability)[0]


@dataclass
class StabilityCertificate:
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


def certify(ops: SpatialOperators) -> StabilityCertificate:
    """Matrix-class certificate for the stationary solve, read off M and the
    covariance operator; K is never assembled.  K = I x M + M x I + a
    diagonal, so -K is a Z-matrix iff M's off-diagonals are >= 0, and K's
    graph, the Cartesian product of M's with itself, is strongly connected
    iff M's is.  "Negative definiteness" is reported two ways: the spectral
    abscissa (the Hurwitz reading the ODE limit uses) and the symmetric
    part.  The sign of the inverse is asserted through the M-matrix theorem
    only (Berman & Plemmons 1994, ch. 6): -K a Z-matrix with K Hurwitz has
    a nonnegative inverse, strictly positive when -K is irreducible.
    """
    M = ops.M.tocoo(copy=True)
    M.eliminate_zeros()  # zeros stored in M are no edges of K's graph
    m_absc = float(np.max(drift_eigenvalues(ops).real))
    k_absc, eig_route = k_spectral_abscissa(ops)
    minus_k_is_Z = bool(np.all(M.data[M.row != M.col] >= -1e-14))
    n_comp, _ = connected_components(M, directed=True, connection="strong")
    irreducible = n_comp == 1

    if (ops.M != ops.M.T).nnz == 0:  # then K is its own symmetric part
        sym_top = k_absc
    else:
        sym_apply, _ = _operator(ops, 0.5 * (ops.M + ops.M.T))
        sym_top = _rightmost_eigenvalue(sym_apply, ops.d, spla.eigsh, "LA",
                                        "top eigenvalue of sym(K)")

    m_matrix = k_absc < 0.0 and minus_k_is_Z  # -K a nonsingular M-matrix
    return StabilityCertificate(
        m_spectral_abscissa=m_absc,
        k_spectral_abscissa=k_absc,
        minus_k_is_Z=minus_k_is_Z,
        minus_k_irreducible=irreducible,
        inverse_nonnegative=m_matrix,
        inverse_strictly_positive=m_matrix and irreducible,
        coercivity_ok=bool(np.all(ops.b_vec >= 0.0)),
        k_symmetric_part_negative_definite=sym_top < 0.0,
        eig_route=eig_route,
        inverse_route="m-matrix" if m_matrix else "not-asserted",
    )


def markov_bound(var_sp, threshold) -> float:
    """Second-moment exceedance bound min(1, Var_sp / theta^2)."""
    if threshold <= 0.0:
        raise NonPositiveThreshold(f"threshold {threshold} must be > 0")
    return float(min(1.0, var_sp / threshold**2))


@dataclass
class SweepPoint:
    lam: float
    applicable: bool
    note: str = ""
    trace: float | None = None
    gamma: np.ndarray | None = None
    dgamma: np.ndarray | None = None
    min_diff_entry: float | None = None
    entrywise_positive: bool | None = None
    sensitivity: np.ndarray | None = None
    sensitivity_positive: bool | None = None


@dataclass
class SweepReport:
    points: list[SweepPoint]

    @property
    def verdict(self) -> str:
        applicable = [p for p in self.points if p.applicable]
        if not applicable:
            return "non-applicable"
        if all(p.entrywise_positive for p in applicable):
            return "entrywise positive"
        return "not monotone"


def monotonicity_sweep(g: Grid2D, Q_field: SpatialField, theta: BoundaryTrace,
                       p: EbmParams, noise: NoiseCovariance,
                       lambda_grid) -> SweepReport:
    """Entrywise forcing-monotonicity of the stationary covariance, read off
    its exact forcing derivative.

    While no node of the equilibrium profile sits on a co-albedo kink, M and
    D do not depend on lambda.  Differentiating the equilibrium equation
    then gives the elliptic sensitivity u = dT*/dlambda from M u = -1, so
    df/dlambda = D u, and dGamma/dlambda solves the stationary equation with
    right-hand side -tau C o (f' f^T + f f'^T) (Damm 2004).  Gamma and its
    derivative share one Schur form of M.

    A grid point is applicable only when the equilibrium profile lies
    strictly inside the ice-sensitive band at every node, the coercivity
    r1 - Q s >= 0 holds, the noise covariance is entrywise nonnegative, and
    the vectorised operator is Hurwitz; otherwise the point is flagged and
    no verdict is asserted there.
    """
    points = []
    coercive = bool(np.all(p.r1 - Q_field.values * p.slope >= 0.0))
    for lam in lambda_grid:
        lam = float(lam)
        try:
            T_star = solve_equilibrium_profile(g, Q_field, lam, theta, p)
            ops = build_operators(g, T_star, Q_field, p, noise)
            cs, solve = _stationary(ops, check_stability=True)
            u = spla.splu(ops.M.tocsc()).solve(-np.ones(g.d))
            f_df = np.outer(ops.f_vec, ops.d_vec * u)  # f (df/dlambda)^T
            dgamma = solve(-ops.tau * ops.C * (f_df + f_df.T))
        except (EbmvarError, np.linalg.LinAlgError) as exc:
            points.append(SweepPoint(lam=lam, applicable=False,
                                     note=f"solver error: {exc}"))
            continue

        inside = np.all((T_star.values > p.T_l) & (T_star.values < p.T_u))
        c_nonneg = np.all(ops.C >= 0.0)
        applicable = bool(inside and coercive and c_nonneg)
        why = []
        if not inside:
            why.append("profile leaves the ice-sensitive band")
        if not coercive:
            why.append("coercivity violated")
        if not c_nonneg:
            why.append("noise covariance has negative entries")
        min_entry = float(np.min(dgamma))
        points.append(SweepPoint(
            lam=lam, applicable=applicable, note="; ".join(why),
            trace=cs.spatial_variance, gamma=cs.gamma,
            dgamma=dgamma, min_diff_entry=min_entry,
            entrywise_positive=bool(min_entry > 0.0) if applicable else None,
            sensitivity=u, sensitivity_positive=bool(np.min(u) > 0.0),
        ))
    return SweepReport(points=points)


@dataclass
class CounterexampleResult:
    trace: float
    d_trace_d_lambda: float
    numeric_trace: float


def counterexample_operators(s, c, lam) -> SpatialOperators:
    """2x2 additive-noise system with anticorrelated noise:
    M = [[-1, s], [s, -1]], C = [[1, -c], [-c, 1]], f = (lam, 1)."""
    M = np.array([[-1.0, s], [s, -1.0]])
    C = np.array([[1.0, -c], [-c, 1.0]])
    L = np.linalg.cholesky(C)
    return operators_from_arrays(M, d_vec=[0.0, 0.0], f_vec=[lam, 1.0],
                                 C=C, L=L, tau=1.0)


def counterexample_trace(s, c, lam) -> CounterexampleResult:
    """Closed-form stationary trace (lam^2 - 2 c s lam + 1)/(2(1 - s^2)) and
    derivative (lam - c s)/(1 - s^2), alongside the Lyapunov-solver trace."""
    if not (0.0 < s < 1.0) or not (0.0 < c < 1.0):
        raise ParamOutOfRange("need 0 < s < 1 and 0 < c < 1")
    if lam < 0.0:
        raise ParamOutOfRange("lambda must be >= 0")
    trace = (lam**2 - 2.0 * c * s * lam + 1.0) / (2.0 * (1.0 - s**2))
    deriv = (lam - c * s) / (1.0 - s**2)
    ops = counterexample_operators(s, c, lam)
    cs = stationary_covariance(ops)
    return CounterexampleResult(trace=float(trace),
                                d_trace_d_lambda=float(deriv),
                                numeric_trace=cs.spatial_variance)


def counterexample_sign_change(s, c, tol=1e-8) -> float:
    """Locate the zero of the numeric finite-difference trace derivative by
    bisection; the closed form predicts lambda = c*s."""
    h = 1e-6

    def fd(lam):
        lo = counterexample_trace(s, c, max(lam - h, 0.0))
        hi = counterexample_trace(s, c, lam + h)
        return (hi.numeric_trace - lo.numeric_trace) / (h + min(h, lam))

    lo, hi = 0.0, 1.0
    flo = fd(lo)
    if flo >= 0.0:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fd(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
