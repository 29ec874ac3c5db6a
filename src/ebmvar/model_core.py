"""Zero-dimensional energy balance model with ice-albedo feedback.

Coefficient functions (co-albedo, emitted radiation), equilibrium analysis of
the radiative balance, linearised coefficients around each equilibrium, and
the closed-form stationary variance of the temperature anomaly together with
its dependence on the radiative forcing parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranch, InadmissibleVariance

BRANCH_COLD = "cold-plateau"
BRANCH_ICE = "ice-sensitive"
BRANCH_WARM = "warm-plateau"

ROOT_TOL = 1e-10
INTERVAL_TOL = 1e-9  # branch-membership tolerance in K


@dataclass(frozen=True)
class EbmParams:
    """Scalar physical constants of the 0-D model.

    All fluxes are carried in rescaled units with unit effective heat
    capacity, so rates are per unit slow time.
    """

    beta_min: float
    beta_max: float
    T_l: float
    T_u: float
    r0: float
    r1: float
    Q: float
    lam: float
    tau: float

    def __post_init__(self):
        if not (0.0 < self.beta_min < 1.0 and 0.0 < self.beta_max < 1.0):
            raise ValueError("co-albedo plateaus must lie in (0, 1)")
        if self.beta_min >= self.beta_max:
            raise ValueError("beta_min must be < beta_max")
        if self.T_l >= self.T_u:
            raise ValueError("T_l must be < T_u")
        if self.r1 <= 0.0:
            raise ValueError("r1 must be positive")
        if self.Q < 0.0:
            raise ValueError("Q must be nonnegative")
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")

    @property
    def slope(self) -> float:
        """Co-albedo slope s on the ice-sensitive interval."""
        return (self.beta_max - self.beta_min) / (self.T_u - self.T_l)


# Classic Sellers plateaus 0.38 / 0.70 over (263 K, 300 K).
def default_params(r0=0.0, r1=2.0, Q=100.0, lam=510.0, tau=1.0 / 365.0) -> EbmParams:
    return EbmParams(
        beta_min=0.38, beta_max=0.70, T_l=263.0, T_u=300.0,
        r0=r0, r1=r1, Q=Q, lam=lam, tau=tau,
    )


def co_albedo(T, p: EbmParams):
    """Continuous piecewise-linear co-albedo.  Accepts scalars or arrays."""
    T = np.asarray(T, dtype=float)
    out = p.beta_min + p.slope * np.clip(T - p.T_l, 0.0, p.T_u - p.T_l)
    return out if out.ndim else float(out)


def co_albedo_slope(T, p: EbmParams):
    """Derivative of the co-albedo; 0 on the plateaus and at the kinks.

    The kink convention assigns the plateau-side value 0 at T_l and T_u,
    which keeps the linear damping at its largest (most stable) value there.
    """
    T = np.asarray(T, dtype=float)
    out = np.where((T > p.T_l) & (T < p.T_u), p.slope, 0.0)
    return out if out.ndim else float(out)


def emitted_radiation(T, p: EbmParams):
    """Budyko emission law r0 + r1*T."""
    T = np.asarray(T, dtype=float)
    out = p.r0 + p.r1 * T
    return out if out.ndim else float(out)


def balance_residual(T, p: EbmParams, lam=None):
    """Radiative balance residual Q*beta(T) + lambda - r0 - r1*T."""
    if lam is None:
        lam = p.lam
    T = np.asarray(T, dtype=float)
    out = p.Q * co_albedo(T, p) + lam - p.r0 - p.r1 * T
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class EquilibriumRoot:
    T_star: float
    branch: str
    b: float
    sigma0: float
    sigma1: float
    stable: bool
    variance_admissible: bool


@dataclass(frozen=True)
class EquilibriumReport:
    roots: tuple[EquilibriumRoot, ...]
    lam: float

    def admissible_roots(self):
        return [r for r in self.roots if r.stable and r.variance_admissible]


def _root_record(T_star, branch, p: EbmParams) -> EquilibriumRoot:
    # A root classified on a plateau uses the plateau-side slope (0) even if
    # it sits exactly on a kink.
    sigma1 = p.slope if branch == BRANCH_ICE else 0.0
    b = p.r1 - p.Q * sigma1
    sigma0 = co_albedo(T_star, p)
    return EquilibriumRoot(
        T_star=float(T_star),
        branch=branch,
        b=float(b),
        sigma0=float(sigma0),
        sigma1=float(sigma1),
        stable=b > 0.0,
        variance_admissible=(2.0 * b - p.tau * sigma1**2) > 0.0,
    )


def equilibrium_roots(p: EbmParams, lam=None) -> EquilibriumReport:
    """Enumerate all equilibria of Q*beta(T) + lambda - r0 - r1*T = 0.

    The equation is affine on each of the three co-albedo branches; each
    branch is solved exactly and the root kept iff it lies in the branch's
    closed interval (membership tolerance INTERVAL_TOL).  Roots within
    INTERVAL_TOL of a kink are classified on the plateau side.

    Raises DegenerateBranch if the ice-sensitive branch has zero effective
    slope (r1 == Q*s within tolerance), which would give a continuum or no
    isolated root there.
    """
    if lam is None:
        lam = p.lam
    s = p.slope
    found: list[EquilibriumRoot] = []

    # Cold plateau: beta = beta_min, slope of residual is -r1 (never zero).
    T_cold = (p.Q * p.beta_min + lam - p.r0) / p.r1
    if T_cold <= p.T_l + INTERVAL_TOL:
        found.append(_root_record(T_cold, BRANCH_COLD, p))

    # Ice-sensitive branch: beta = beta_min + s*(T - T_l).
    eff_slope = p.Q * s - p.r1
    if abs(eff_slope) <= ROOT_TOL * max(1.0, p.r1):
        raise DegenerateBranch(BRANCH_ICE, eff_slope)
    T_ice = -(p.Q * (p.beta_min - s * p.T_l) + lam - p.r0) / eff_slope
    if p.T_l - INTERVAL_TOL <= T_ice <= p.T_u + INTERVAL_TOL:
        if T_ice <= p.T_l + INTERVAL_TOL or T_ice >= p.T_u - INTERVAL_TOL:
            # Coincides with a plateau root at the kink; plateau side wins.
            pass
        else:
            found.append(_root_record(T_ice, BRANCH_ICE, p))

    # Warm plateau: beta = beta_max.
    T_warm = (p.Q * p.beta_max + lam - p.r0) / p.r1
    if T_warm >= p.T_u - INTERVAL_TOL:
        found.append(_root_record(T_warm, BRANCH_WARM, p))

    found.sort(key=lambda r: r.T_star)
    return EquilibriumReport(roots=tuple(found), lam=float(lam))


def stationary_variance(b, sigma0, sigma1, tau):
    """Closed-form stationary variance tau*sigma0^2 / (2b - tau*sigma1^2)."""
    denom = 2.0 * b - tau * sigma1**2
    if b <= 0.0 or denom <= 0.0:
        raise InadmissibleVariance(
            f"2b - tau*sigma1^2 = {denom:.3e} <= 0 or b = {b:.3e} <= 0"
        )
    return tau * sigma0**2 / denom


def select_root(report: EquilibriumReport, reference=None) -> EquilibriumRoot:
    """Pick the stable, variance-admissible root closest to `reference`.

    Falls back to the coldest stable admissible root when no reference is
    given.  Raises InadmissibleVariance when no such root exists.
    """
    candidates = report.admissible_roots()
    if not candidates:
        raise InadmissibleVariance(
            f"no stable admissible equilibrium at lambda = {report.lam}"
        )
    if reference is None:
        return candidates[0]
    return min(candidates, key=lambda r: abs(r.T_star - reference))


@dataclass(frozen=True)
class CurvePoint:
    lam: float
    T_star: float
    branch: str
    b: float
    sigma0: float
    sigma1: float
    var_inf: float


def variance_curve(p: EbmParams, lambda_grid, reference=None) -> list[CurvePoint]:
    """Equilibrium and stationary variance along a forcing grid.

    Root selection tracks the previous grid point's root (continuation);
    the starting reference may be supplied by the caller.
    """
    points = []
    ref = reference
    for lam in lambda_grid:
        report = equilibrium_roots(p, lam=lam)
        root = select_root(report, reference=ref)
        ref = root.T_star
        var = stationary_variance(root.b, root.sigma0, root.sigma1, p.tau)
        points.append(CurvePoint(
            lam=float(lam), T_star=root.T_star, branch=root.branch,
            b=root.b, sigma0=root.sigma0, sigma1=root.sigma1, var_inf=var,
        ))
    return points


