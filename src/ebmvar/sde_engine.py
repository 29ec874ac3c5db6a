"""Path simulation and Monte Carlo machinery.

Simulators for the fast-slow insolation/temperature system, the reduced
multiplicative-noise temperature SDE, and the linear anomaly SDE, plus the
coupled experiment quantifying the white-noise replacement error of the
integrated fast fluctuations.

Randomness comes from a counter-based Philox generator with one derived
substream per path, so ensembles are reproducible and path-parallel safe:
the normals of path k depend only on (seed, k), and so does its trajectory
wherever a step acts on each path alone.  A field path's last digits also
depend on n_paths, the row count of its BLAS products.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from threading import Event, Lock, Thread

import numpy as np

from .errors import ConfigError, StepTooLarge
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
    """A Monte Carlo run: n_paths paths of n_steps steps of dt from `seed`,
    with the stepping scheme and the drift form; validated on creation."""

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
        if not -2**63 <= self.seed < 2**63:  # the dump header's int64
            raise ValueError(f"seed must be in [-2**63, 2**63), got {self.seed}")
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

    @classmethod
    def from_binary(cls, blob: bytes) -> "PathBundle":
        """The bundle of a path dump: the 40-byte `binary_header`, then the
        times, then each path's states, path after path, all little-endian
        float64.  Its arrays are views of `blob`, not copies: read-only when
        `blob` is bytes.  A blob that is not a whole dump, by its header, is
        a ValueError."""
        if len(blob) < 40:
            raise ValueError(f"a binary path dump has a 40-byte header, got "
                             f"{len(blob)} bytes")
        if blob[:8] != _MAGIC:
            raise ValueError("bad magic in binary path dump")
        n_paths, n_times, d, seed = struct.unpack("<qqqq", blob[8:40])
        if min(n_paths, n_times, d) < 0:
            raise ValueError(f"binary path dump of shape n_paths = {n_paths}, "
                             f"n_times = {n_times}, d = {d}")
        count = n_paths * n_times * max(d, 1)
        size = 40 + 8 * (n_times + count)
        if len(blob) != size:
            raise ValueError(f"a binary path dump of {n_paths} x {n_times} x "
                             f"{d} is {size} bytes, got {len(blob)}")
        times = np.frombuffer(blob, dtype="<f8", count=n_times, offset=40)
        vals = np.frombuffer(blob, dtype="<f8", count=count,
                             offset=40 + 8 * n_times)
        shape = (n_paths, n_times, d) if d else (n_paths, n_times)
        return cls(times=times, values=vals.reshape(shape), seed=seed)


def binary_header(n_paths, n_times, d, seed) -> bytes:
    """The 40-byte header of a path dump (`PathBundle.from_binary`): magic,
    shape (d = 0 for scalar states) and seed."""
    return _MAGIC + struct.pack("<qqqq", n_paths, n_times, d, seed)


def _key(seed, path_index):
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, path_index], dtype=np.uint64)


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Philox substream for one path, keyed by (seed, path_index)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, path_index)))


def path_streams(seed, n_paths):
    """`path_generator(seed, k)` for k = 0 .. n_paths - 1, in turn, as one
    Generator whose Philox is set for each path to the fresh state under
    its key: each is valid until the next is taken.  Building a Philox
    gathers OS entropy, unused beside a key, which costs more than a few
    normals."""
    bits = np.random.Philox(key=_key(seed, 0))
    stream, fresh = np.random.Generator(bits), bits.state  # a copy
    for k in range(n_paths):
        fresh["state"]["key"] = _key(seed, k)
        bits.state = fresh
        yield stream


def gaussian_increments(streams, n, columns=1, out=None):
    """The next `n` draws of `columns` standard normals from each stream, in
    stream order: shape (len(streams), n, columns).  With `out`, a buffer of
    at least that many steps, they fill out[:, :n], which is returned, and
    `streams` may be any iterable, such as `path_streams`."""
    if out is None:
        out = np.empty((len(streams), n, columns))
    out = out[:, :n]
    for stream, row in zip(streams, out):
        stream.standard_normal(out=row)
    return out


# Normals of the two draw buffers together: each holds this many // 2 //
# (n_paths * normals per step) steps, and at least one.  Philox draws taken
# in pieces are the draws taken at once, so this sets memory and the length
# of each stream's draw call (about 2100 normals at 1000 paths of d = 16),
# never a value.
_DRAW_NORMALS = 1 << 22

# Streams one draw call fills at most: the unit of a block's draw that its
# two threads share.  A run of fewer than 2 * _DRAW_STREAMS paths draws in
# chunks of half its streams, rounded up, so both threads draw every block.
_DRAW_STREAMS = 64


class _Cursor:
    """The rows of a block's chunks of streams, as slices, an iterator that
    threads share: each chunk goes to the one thread that asks first."""

    def __init__(self, n_paths):
        chunk = min(_DRAW_STREAMS, -(-n_paths // 2))
        self.chunks = (slice(lo, lo + chunk) for lo in range(0, n_paths, chunk))
        self.lock = Lock()

    def __iter__(self):
        return self

    def __next__(self):
        with self.lock:
            return next(self.chunks)


def draw_chunks(streams, out, cursor, started=None):
    """Fill the rows of `out`, shape (len(streams), steps, width), with
    their streams' next normals, one `gaussian_increments` call for each
    chunk of rows that `cursor` hands this thread.  The Event `started`,
    when given, is set first, and the starter of a helper thread waits for
    it: the helper's draws then all run inside one call that began while
    its starter was still in its own caller, where a tracer that files a
    new thread's calls under its starter's current call nests them."""
    if started is not None:
        started.set()
    steps, width = out.shape[1:]
    for rows in cursor:
        gaussian_increments(streams[rows], steps, width, out[rows])


class _BlockDraw:
    """The draw of one block of steps into `out`, shape (n_paths, steps,
    width), shared through one `_Cursor` by a helper thread, started here,
    and the thread that calls `finish`."""

    def __init__(self, streams, out):
        self.streams, self.out, self.error = streams, out, None
        self.cursor = _Cursor(len(streams))
        started = Event()
        self.helper = Thread(target=self.help, args=(started,))
        self.helper.start()
        started.wait()

    def help(self, started):
        try:
            draw_chunks(self.streams, self.out, self.cursor, started)
        except BaseException as exc:  # re-raised by finish()
            self.error = exc
        started.set()

    def finish(self):
        """The drawn block, once this thread has drawn the chunks left and
        the helper has ended; a failed draw raises its exception here."""
        try:
            draw_chunks(self.streams, self.out, self.cursor)
        finally:
            self.helper.join()
        if self.error is not None:
            raise self.error
        return self.out


def kept_times(cfg: SimConfig):
    """The times of the states `_run_paths` hands its sink: every step's."""
    return cfg.dt * np.arange(cfg.n_steps + 1)


def _run_paths(cfg: SimConfig, x0, step, shape=(), *, sink):
    """`cfg.n_paths` paths from the state `x0`, run as one batch through
    `cfg.n_steps` calls of `step(state, xi)`, where `xi`, shape (n_paths,) +
    `shape`, holds each path's next standard normals from its own stream.

    Steps are drawn in blocks, into two buffers in turn.  A helper thread
    starts drawing the next block while this thread steps the current one;
    this thread then draws the chunks of streams the helper has not taken
    (`_BlockDraw`) and waits for it.  Each stream is drawn by one thread at
    a time, in block order, and no draw outlives the call.

    The states go to `sink(first, states)` as they are made: the initial
    state, then each block's, shape (n_paths, m) + x0.shape, where `first`
    is the step of states[:, 0].  `states` is a buffer reused for the next
    block, passed while the helper draws it; a caller that wants fewer
    states passes a sink that drops the rest.  Kernel buffers that cannot
    be allocated are a ConfigError, raised before any generator is built."""
    seed, n_paths, n_steps = cfg.seed, cfg.n_paths, cfg.n_steps
    x0 = np.asarray(x0, dtype=float)
    width = math.prod(shape)
    block = min(n_steps, max(1, _DRAW_NORMALS // 2 // (n_paths * width)))
    try:
        state = np.broadcast_to(x0, (n_paths,) + x0.shape).copy()
        bufs = [np.empty((n_paths, block, width)) for _ in range(2)]
        kept = np.empty((n_paths, block) + x0.shape)
    except (MemoryError, ValueError, OverflowError) as exc:
        need = 8 * n_paths * ((1 + block) * x0.size + 2 * block * width)
        raise ConfigError(
            f"[sim] n_paths = {n_paths} paths of d = {x0.size} values in "
            f"{block}-step blocks need {need} bytes, more than can be "
            "allocated") from exc
    streams = [path_generator(seed, k) for k in range(n_paths)]

    def draw(start):  # starts drawing the block from step `start`
        return _BlockDraw(streams, bufs[start // block % 2][:, :n_steps - start])

    pending = draw(0)
    try:
        sink(0, state[:, None])
        for start in range(0, n_steps, block):
            xi = pending.finish()
            if start + block < n_steps:
                pending = draw(start + block)
            xi = xi.reshape((n_paths, -1) + shape)
            steps = xi.shape[1]
            for j in range(steps):
                state = step(state, xi[:, j])
                kept[:, j] = state
            sink(start + 1, kept[:, :steps])
    finally:
        pending.helper.join()


def _check_step(p: EbmParams, dt):
    guard = dt * (p.r1 + abs(p.Q) * p.slope)
    if guard > 1.0:
        raise StepTooLarge(f"dt*(r1 + |Q|*s) = {guard:.3g} > 1; reduce dt")


def _ou_step(tau, Q, dt):
    """The `_run_paths` step of the fast insolation process, distributionally
    exact at the grid times: the exact transition with mean-reversion rate
    1/tau and stationary variance 1/2,
        X_{k+1} = Q + (X_k - Q) e^{-dt/tau} + xi_k,
        xi_k ~ N(0, (1/2)(1 - e^{-2 dt/tau}))."""
    decay = np.exp(-dt / tau)
    sd = np.sqrt(0.5 * (1.0 - np.exp(-2.0 * dt / tau)))
    return lambda x, xi: Q + (x - Q) * decay + sd * xi


def simulate_fast_slow(p: EbmParams, x0, theta0, cfg: SimConfig, *, sink):
    """Coupled fast insolation / slow temperature system.

    The insolation takes the exact OU step (`_ou_step`) with the model's tau
    and Q; the temperature follows it by explicit Euler of
    dT/dt = X beta(T) + lambda - (r0 + r1 T) on the same grid.  One path's
    state is the row (X, T), and its blocks go to `sink` (`_run_paths`).
    """
    _check_step(p, cfg.dt)
    ou = _ou_step(p.tau, p.Q, cfg.dt)

    def step(s, xi):
        x, T = s[:, 0], s[:, 1]
        drift = x * co_albedo(T, p) + p.lam - (p.r0 + p.r1 * T)
        return np.column_stack([ou(x, xi), T + cfg.dt * drift])

    _run_paths(cfg, [x0, theta0], step, sink=sink)


@dataclass(frozen=True)
class WongZakaiResult:
    """One Wong-Zakai rung: the Monte Carlo mean-square gap at time t for
    correlation time tau, with its standard error and the closed form."""

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

    A fine-grid scheme (h << tau) drives the fast process (Euler) and the
    Brownian motion by the SAME increments, with trapezoid quadrature for the
    integral; its gap is sampled exactly, as the one-rung `wong_zakai_ladder`.
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
    """`wong_zakai_error` at each tau of `taus`, in that order.

    A path's gaps are c0 + xi V in its fine-grid normals xi (`_wz_functional`),
    so N(c0, V^T V).  They are sampled as c0 + eta R, eta the first R.shape[0]
    normals of each path's stream and R V's triangular Householder QR factor
    (R^T R = V^T V, full rank not needed; Glasserman 2004, sec. 2.3).  Rung 0
    reads eta's first normal alone: it is `wong_zakai_error` bit for bit.
    """
    if not (all(map(math.isfinite, (t, x0, Q, *taus))) and min(t, *taus) > 0.0):
        raise ValueError("t, tau, x0 and Q must be finite, t and tau positive")
    if n_paths < 2:
        raise ValueError(f"a standard error needs n_paths >= 2, got {n_paths!r}")
    V, c0 = _wz_functional(taus, t, x0, Q)
    R = np.linalg.qr(V, mode="r")
    eta = gaussian_increments(path_streams(seed, n_paths), R.shape[0], 1,
                              np.empty((n_paths, R.shape[0], 1)))
    Z = c0 + eta[:, :, 0] @ R
    sq = np.ascontiguousarray((Z**2).T)
    means = [float(np.mean(row)) for row in sq]
    # The spread of sq / mean, as tiny gaps' squared deviations underflow.
    return [WongZakaiResult(
        mc_estimate=m, exact=float(wong_zakai_exact(tau, t, x0, Q)),
        se=float(m * np.std(row / m, ddof=1) / np.sqrt(n_paths)) if m else 0.0,
        tau=tau, t=t) for row, m, tau in zip(sq, means, taus)]


def simulate_reduced_sde(p: EbmParams, T0, cfg: SimConfig, *, sink):
    """Reduced multiplicative-noise temperature SDE.

    dT = (Q beta(T) + lambda - r0 - r1 T [+ (tau/2) beta beta']) dt
         + sqrt(tau) beta(T) dW,
    with the optional Stratonovich-correction drift toggled by cfg.drift_form
    and the Milstein term by cfg.scheme; `sink` takes the states (`_run_paths`).
    """
    _check_step(p, cfg.dt)
    sqrt_dt = np.sqrt(cfg.dt)
    sqrt_tau = np.sqrt(p.tau)
    corrected = cfg.drift_form == "stratonovich-corrected"
    milstein = cfg.scheme == "milstein"

    def step(T, xi):
        beta = co_albedo(T, p)
        dbeta = co_albedo_slope(T, p)
        drift = balance_residual(T, p)
        if corrected:
            drift = drift + 0.5 * p.tau * beta * dbeta
        dW = sqrt_dt * xi
        T = T + cfg.dt * drift + sqrt_tau * beta * dW
        if milstein:
            T = T + 0.5 * p.tau * beta * dbeta * (dW**2 - cfg.dt)
        return T

    _run_paths(cfg, T0, step, sink=sink)


def simulate_linear_anomaly(b, sigma0, sigma1, tau, y0, cfg: SimConfig, *, sink):
    """Linearised anomaly SDE dY = -b Y dt + sqrt(tau)(sigma0 + sigma1 Y) dW;
    `sink` takes the states (`_run_paths`)."""
    if cfg.dt * b > 1.0:
        raise StepTooLarge(f"dt*b = {cfg.dt * b:.3g} > 1; reduce dt")
    sqrt_dt = np.sqrt(cfg.dt)
    sqrt_tau = np.sqrt(tau)
    milstein = cfg.scheme == "milstein"

    def step(y, xi):
        dW = sqrt_dt * xi
        sig = sigma0 + sigma1 * y
        y_new = y - cfg.dt * b * y + sqrt_tau * sig * dW
        if milstein:
            y_new = y_new + 0.5 * tau * sigma1 * sig * (dW**2 - cfg.dt)
        return y_new

    _run_paths(cfg, y0, step, sink=sink)


def sum_paths(block, term):
    """The sum over the paths of `block` of `term(rows)`, a new (k, m) array
    of each 64 paths `rows`, added path after path: numpy's order for axis
    0 of two or more columns (it adds one column pairwise)."""
    for lo in range(0, len(block), 64):
        terms = term(block[lo:lo + 64])
        if lo:
            terms[0] += total
        total = terms.sum(0) if terms.shape[1] > 1 else np.add.accumulate(terms)[-1]
    return total


def path_moments(block):
    """The mean, variance (ddof 1), se_mean and se_variance over the paths of
    `block`, (n_paths, m), at each time: bit for bit numpy's mean and var
    over axis 0 of any array of two or more times that has these columns."""
    n, m = block.shape
    mean = sum_paths(block, np.array) / n
    if n == 1:
        return mean, np.zeros(m), np.full(m, np.nan), np.full(m, np.nan)
    variance = sum_paths(block, lambda rows: (rows - mean) ** 2) / (n - 1)
    return mean, variance, np.sqrt(variance / n), variance * np.sqrt(2.0 / (n - 1))
