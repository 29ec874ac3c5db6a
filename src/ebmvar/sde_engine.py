"""Path simulation and Monte Carlo machinery.

Simulators for the fast-slow insolation/temperature system, the reduced
multiplicative-noise temperature SDE, and the linear anomaly SDE, plus the
coupled experiment quantifying the white-noise replacement error of the
integrated fast fluctuations.

Randomness comes from a counter-based Philox generator with one derived
substream per path, so ensembles are reproducible and path-parallel safe:
the trajectory of path k depends only on (seed, k).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, StepTooLarge
from .model_core import (
    EbmParams,
    balance_residual,
    co_albedo,
    co_albedo_slope,
)

SCHEMES = ("euler-maruyama", "milstein")
DRIFT_FORMS = ("ito", "stratonovich-corrected")

_MAGIC = b"EBMVPB01"


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n_steps: int
    n_paths: int
    seed: int = 0
    scheme: str = "euler-maruyama"
    drift_form: str = "ito"

    def __post_init__(self):
        if not self.dt > 0.0 or not math.isfinite(self.dt):
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.drift_form not in DRIFT_FORMS:
            raise ValueError(f"drift_form must be one of {DRIFT_FORMS}")


@dataclass
class PathBundle:
    """Ensemble of trajectories on a common time grid.

    `values` has shape (n_paths, n_steps+1) for scalar states and
    (n_paths, n_steps+1, d) for vector-valued states.
    """

    times: np.ndarray
    values: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.values.shape[1] != self.times.size:
            raise ValueError("values and times are inconsistent")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def binary_parts(self) -> list:
        """The little-endian float64 dump with a shape/seed header, as its
        three buffers in file order (header, times, values), uncopied."""
        if self.values.ndim == 2:
            n_paths, n_times = self.values.shape
            d = 0
        else:
            n_paths, n_times, d = self.values.shape
        head = _MAGIC + struct.pack("<qqqq", n_paths, n_times, d, self.seed)
        return [head, np.ascontiguousarray(self.times, dtype="<f8"),
                np.ascontiguousarray(self.values, dtype="<f8")]

    def to_binary(self) -> bytes:
        """The dump of `binary_parts` as one bytes object."""
        return b"".join(self.binary_parts())

    @classmethod
    def from_binary(cls, blob: bytes) -> "PathBundle":
        """The bundle of a `to_binary` dump.  Its arrays are views of `blob`,
        not copies: read-only when `blob` is bytes."""
        if blob[:8] != _MAGIC:
            raise ValueError("bad magic in binary path dump")
        n_paths, n_times, d, seed = struct.unpack("<qqqq", blob[8:40])
        times = np.frombuffer(blob, dtype="<f8", count=n_times, offset=40)
        off = 40 + 8 * n_times
        count = n_paths * n_times * (d if d else 1)
        vals = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        shape = (n_paths, n_times, d) if d else (n_paths, n_times)
        return cls(times=times, values=vals.reshape(shape), seed=seed)


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Philox substream for one path, keyed by (seed, path_index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_increments(streams, n, columns=1, out=None):
    """The next `n` draws of `columns` standard normals from each stream, in
    stream order: shape (len(streams), n, columns).  With `out`, a buffer of
    at least that many steps, they fill out[:, :n], which is returned."""
    if out is None:
        out = np.empty((len(streams), n, columns))
    out = out[:, :n]
    for stream, row in zip(streams, out):
        stream.standard_normal(out=row)
    return out


# Paths per batch: this many // (n_steps * normals per step), and at least
# one.  A batch is the row count of every step and of every Wong-Zakai block
# product, on which the rounding of a dense-L field product and of the
# ladder depends, so it must not depend on anything else.
_BATCH_NORMALS = 20_000_000

# Normals per draw: a batch draws this many // (batch * normals per step)
# steps at a time, and at least one, into one reused buffer.  Philox draws
# taken in pieces are the draws taken at once, so this sets memory, and the
# rounding of the Wong-Zakai ladder's block products, only.
_DRAW_NORMALS = 1 << 20


def _draws(seed, n_paths, n_steps, width=1):
    """Each path's normals, `width` a step, in batches of paths and blocks
    of steps: yields (rows, start, xi), `xi` of shape (B, m, width) holding
    steps start..start+m-1 of the B paths `rows`, in one reused buffer."""
    batch = max(1, _BATCH_NORMALS // (n_steps * width))
    for lo in range(0, n_paths, batch):
        B = min(batch, n_paths - lo)
        streams = [path_generator(seed, k) for k in range(lo, lo + B)]
        block = min(n_steps, max(1, _DRAW_NORMALS // (B * width)))
        buf = np.empty((B, block, width))
        for start in range(0, n_steps, block):
            yield (slice(lo, lo + B), start,
                   gaussian_increments(streams, min(block, n_steps - start),
                                       columns=width, out=buf))


def _run_paths(seed, n_paths, n_steps, init, step, shape=(), keep=None):
    """Advance `n_paths` paths by `n_steps` steps on the draws of `_draws`.

    `init(B)` returns the start state of B paths, one row per path, and
    `step(state, xi, k)` the state after step k (0-based), where `xi` holds
    the step's raw standard normals, shape (B,) + `shape`, from each path's
    stream.  Returns the states at the steps in `keep` (default: all of
    them), shape (n_paths, len(keep)) + state.shape[1:].  A step that acts
    row by row gives the same paths whatever the batch size.
    """
    pos = {k: j for j, k in enumerate(range(n_steps + 1) if keep is None else keep)}
    values = None
    for rows, start, xi in _draws(seed, n_paths, n_steps, math.prod(shape)):
        if start == 0:
            state = init(len(xi))
            if values is None:
                values = np.empty((n_paths, len(pos)) + state.shape[1:])
            if 0 in pos:
                values[rows, pos[0]] = state
        xi = xi.reshape((len(xi), -1) + shape)
        for j in range(xi.shape[1]):
            k = start + j
            state = step(state, xi[:, j], k)
            if k + 1 in pos:
                values[rows, pos[k + 1]] = state
    return values


def _times(cfg: SimConfig) -> np.ndarray:
    return cfg.dt * np.arange(cfg.n_steps + 1)


def _check_step(p: EbmParams, dt):
    guard = dt * (p.r1 + abs(p.Q) * p.slope)
    if guard > 1.0:
        raise StepTooLarge(f"dt*(r1 + |Q|*s) = {guard:.3g} > 1; reduce dt")


def _ou_step(tau, Q, dt, noise_scale):
    """The `_run_paths` step of `simulate_ou`'s exact transition over dt."""
    decay = np.exp(-dt / tau)
    sd = noise_scale * np.sqrt(0.5 * (1.0 - np.exp(-2.0 * dt / tau)))
    return lambda x, xi, k: Q + (x - Q) * decay + sd * xi


def simulate_ou(tau, Q, x0, cfg: SimConfig, noise_scale=1.0) -> PathBundle:
    """Fast insolation process, distributionally exact at the grid times.

    One step uses the exact transition with mean-reversion rate 1/tau and
    stationary variance 1/2:
        X_{k+1} = Q + (X_k - Q) e^{-dt/tau} + xi_k,
        xi_k ~ N(0, (1/2)(1 - e^{-2 dt/tau})).
    """
    values = _run_paths(cfg.seed, cfg.n_paths, cfg.n_steps,
                        lambda B: np.full(B, float(x0)),
                        _ou_step(tau, Q, cfg.dt, noise_scale))
    return PathBundle(times=_times(cfg), values=values, seed=cfg.seed)


def simulate_fast_slow(p: EbmParams, x0, theta0, cfg: SimConfig,
                       noise_scale=1.0):
    """Coupled fast insolation / slow temperature system.

    The insolation is `simulate_ou` with the model's tau and Q; the
    temperature follows it by explicit Euler of
    dT/dt = X beta(T) + lambda - (r0 + r1 T) on the same grid.  One path's
    state is the row (X, T).
    """
    _check_step(p, cfg.dt)
    ou = _ou_step(p.tau, p.Q, cfg.dt, noise_scale)

    def step(s, xi, k):
        x, T = s[:, 0], s[:, 1]
        drift = x * co_albedo(T, p) + p.lam - (p.r0 + p.r1 * T)
        return np.column_stack([ou(x, xi, k), T + cfg.dt * drift])

    values = _run_paths(cfg.seed, cfg.n_paths, cfg.n_steps,
                        lambda B: np.tile([float(x0), float(theta0)], (B, 1)),
                        step)
    times = _times(cfg)
    xs, ts = np.moveaxis(values, 2, 0)
    return (PathBundle(times=times, values=xs, seed=cfg.seed),
            PathBundle(times=times, values=ts, seed=cfg.seed))


@dataclass(frozen=True)
class WongZakaiResult:
    mc_estimate: float
    exact: float
    se: float
    tau: float
    t: float


def wong_zakai_exact(tau, t, x0, Q) -> float:
    """Closed-form mean-square gap between the integrated fast fluctuations
    and the Brownian driver at time t,
        tau (1 - e^{-t/tau})^2 (x0 - Q)^2 + (tau/2)(1 - e^{-2t/tau}),
    through expm1, so that a small t/tau keeps its digits."""
    return (tau * np.expm1(-t / tau) ** 2 * (x0 - Q) ** 2
            - 0.5 * tau * np.expm1(-2.0 * t / tau))


def wong_zakai_error(tau, t, x0, Q, n_paths, seed=0) -> WongZakaiResult:
    """Monte Carlo estimate of E|W^tau_t - W_t|^2 against the closed form.

    The fast process and the Brownian motion are driven by the SAME
    increments on a fine grid (Euler step for the fast process, h << tau);
    the integrated fluctuations use trapezoid quadrature, which matches the
    C^1 regularity of the smoothed driver.
    """
    return wong_zakai_ladder([tau], t, x0, Q, n_paths, seed)[0]


def _wz_functional(taus, t, x0, Q):
    """The rungs' gaps Z = tau^-1/2 I_n - W_n as c0 + sum_k V[k] xi_k.

    The rung at tau takes n = max(1000, ceil(200 t / tau)) steps of h = t/n.
    With e_k = x_k - Q and a = 1 - h/tau, the Euler step e_{k+1} = a e_k +
    sqrt(h/tau) xi_k, the trapezoid integral I_n and W_n = sqrt(h) sum xi_k
    combine into one column of V, shape (max n, rungs), and one entry of c0:
        V[k] = -sqrt(h) (1 - h/(2 tau)) a^(n-1-k)  for k < n, else 0,
        c0 = tau^-1/2 h e_0 [(1 - a^(n+1))/(1 - a) - (1 + a^n)/2].
    Powers of a go through log1p/expm1, so small h/tau loses no digits.
    """
    tau = np.asarray(taus, dtype=float)
    steps = np.ceil(200 * t / tau)
    if not np.all(steps < np.iinfo(np.intp).max):
        raise ValueError(f"t = {t!r} needs more fine steps than an array holds")
    n = np.maximum(1000, steps.astype(np.intp))
    h = t / n
    r = h / tau
    log_a = np.log1p(-r)
    m = n - 1 - np.arange(n.max())[:, None]  # the power of a at step k
    V = np.where(m >= 0, np.exp(np.maximum(m, 0) * log_a), 0.0)
    V *= -np.sqrt(h) * (1.0 - 0.5 * r)
    c0 = h * (x0 - Q) / np.sqrt(tau) * (
        -np.expm1((n + 1) * log_a) / r - 0.5 * (1.0 + np.exp(n * log_a)))
    return V, c0


def wong_zakai_ladder(taus, t, x0, Q, n_paths, seed=0) -> list[WongZakaiResult]:
    """`wong_zakai_error` at each tau of `taus`, in that order, by one pass.

    Every rung reads a prefix of one shared draw, the first n normals of
    each path's stream.  Its estimator is linear in them (`_wz_functional`),
    so each draw block adds one matrix product to the rungs' gaps; the
    product's rounding depends on the draw layout and on the other rungs.
    """
    if not (all(map(math.isfinite, (t, x0, Q, *taus))) and min(t, *taus) > 0.0):
        raise ValueError("t, tau, x0 and Q must be finite, t and tau positive")
    V, c0 = _wz_functional(taus, t, x0, Q)
    Z = np.tile(c0, (n_paths, 1))
    for rows, start, xi in _draws(seed, n_paths, V.shape[0]):
        Z[rows] += xi[:, :, 0] @ V[start:start + xi.shape[1]]
    sq = np.ascontiguousarray((Z**2).T)
    return [WongZakaiResult(
        mc_estimate=float(np.mean(sq[j])),
        exact=float(wong_zakai_exact(tau, t, x0, Q)),
        se=float(np.std(sq[j], ddof=1) / np.sqrt(n_paths)), tau=tau, t=t)
        for j, tau in enumerate(taus)]


def simulate_reduced_sde(p: EbmParams, T0, cfg: SimConfig,
                         noise_scale=1.0) -> PathBundle:
    """Reduced multiplicative-noise temperature SDE.

    dT = (Q beta(T) + lambda - r0 - r1 T [+ (tau/2) beta beta']) dt
         + sqrt(tau) beta(T) dW,
    with the optional Stratonovich-correction drift toggled by
    cfg.drift_form and the Milstein term by cfg.scheme.
    """
    _check_step(p, cfg.dt)
    sqrt_dt = np.sqrt(cfg.dt)
    sqrt_tau = np.sqrt(p.tau)
    corrected = cfg.drift_form == "stratonovich-corrected"
    milstein = cfg.scheme == "milstein"

    def step(T, xi, k):
        beta = co_albedo(T, p)
        dbeta = co_albedo_slope(T, p)
        drift = balance_residual(T, p)
        if corrected:
            drift = drift + 0.5 * p.tau * beta * dbeta
        dW = noise_scale * sqrt_dt * xi
        T = T + cfg.dt * drift + sqrt_tau * beta * dW
        if milstein:
            T = T + 0.5 * p.tau * beta * dbeta * (dW**2 - noise_scale**2 * cfg.dt)
        return T

    values = _run_paths(cfg.seed, cfg.n_paths, cfg.n_steps,
                        lambda B: np.full(B, float(T0)), step)
    return PathBundle(times=_times(cfg), values=values, seed=cfg.seed)


def simulate_linear_anomaly(b, sigma0, sigma1, tau, y0,
                            cfg: SimConfig, noise_scale=1.0) -> PathBundle:
    """Linearised anomaly SDE dY = -b Y dt + sqrt(tau)(sigma0 + sigma1 Y) dW."""
    if cfg.dt * b > 1.0:
        raise StepTooLarge(f"dt*b = {cfg.dt * b:.3g} > 1; reduce dt")
    sqrt_dt = np.sqrt(cfg.dt)
    sqrt_tau = np.sqrt(tau)
    milstein = cfg.scheme == "milstein"

    def step(y, xi, k):
        dW = noise_scale * sqrt_dt * xi
        sig = sigma0 + sigma1 * y
        y_new = y - cfg.dt * b * y + sqrt_tau * sig * dW
        if milstein:
            y_new = y_new + 0.5 * tau * sigma1 * sig * (dW**2 - noise_scale**2 * cfg.dt)
        return y_new

    values = _run_paths(cfg.seed, cfg.n_paths, cfg.n_steps,
                        lambda B: np.full(B, float(y0)), step)
    return PathBundle(times=_times(cfg), values=values, seed=cfg.seed)


@dataclass(frozen=True)
class MomentReport:
    mean: np.ndarray | float
    variance: np.ndarray | float
    se_mean: np.ndarray | float
    se_variance: np.ndarray | float
    pooled: bool


def mc_moments(bundle: PathBundle, burn_in_fraction=0.0,
               pooled=False) -> MomentReport:
    """Unbiased sample statistics with standard errors.

    The first `burn_in_fraction` of the time grid is discarded.
    Per-time mode returns arrays over the retained grid.  Pooled mode
    averages over retained times; its standard errors come from the spread
    of per-path statistics, so temporal correlation within a path does not
    bias them downwards.
    """
    vals = bundle.values
    if vals.ndim != 2:
        raise ValueError("mc_moments operates on scalar bundles")
    if vals.size == 0:
        raise EmptySample("empty bundle")
    if not burn_in_fraction >= 0.0:
        raise ValueError(f"burn_in_fraction must be >= 0, got {burn_in_fraction!r}")
    n_times = vals.shape[1]
    start = int(np.floor(burn_in_fraction * n_times))
    retained = vals[:, start:]
    if retained.size == 0:
        raise EmptySample("burn-in removed every sample")
    n = retained.shape[0]

    if pooled:
        grand_mean = float(np.mean(retained))
        per_path_mean = retained.mean(axis=1)
        per_path_sq = ((retained - grand_mean) ** 2).mean(axis=1)
        variance = float(np.mean(per_path_sq))
        if n > 1:
            se_mean = float(np.std(per_path_mean, ddof=1) / np.sqrt(n))
            se_var = float(np.std(per_path_sq, ddof=1) / np.sqrt(n))
        else:
            se_mean = se_var = float("nan")
        return MomentReport(mean=grand_mean, variance=variance,
                            se_mean=se_mean, se_variance=se_var, pooled=True)

    mean = retained.mean(axis=0)
    if n > 1:
        variance = retained.var(axis=0, ddof=1)
        se_mean = np.sqrt(variance / n)
        se_var = variance * np.sqrt(2.0 / (n - 1))
    else:
        variance = np.zeros(retained.shape[1])
        se_mean = np.full(retained.shape[1], np.nan)
        se_var = np.full(retained.shape[1], np.nan)
    return MomentReport(mean=mean, variance=variance,
                        se_mean=se_mean, se_variance=se_var, pooled=False)
