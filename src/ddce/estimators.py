"""Channel estimators: pilot LS, 2-D linear interpolation, genie-aided MMSE,
and the delay-Doppler estimators built on one period of the pilot-sampled
spreading image.

The pilot lattice (spacings d_t, d_f) subsamples the TF response.  Its 2-D
DFT is one period of the true delay-Doppler image, scaled by sqrt(d_t*d_f):

    p[k, l] = sum_i h_i * G(l_i, l) * D(k_i, k)

with the lattice kernels of `kernels`.  Paths whose delay and Doppler fit
inside a single period can be read off this image directly, on-grid paths
exactly, fractional-Doppler paths through the two-bin amplitude ratio rule
implemented in `recover_paths_offgrid`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises as well

from .blas import rescan, single_blas_thread
from .channel import Path, PathSet, _check_noise_var, path_steering
from .errors import ContractViolationError
from .grids import DDGrid, PeriodCSF, TFGrid, _adopt, _freeze_grid, isfft, sfft
from .kernels import csf_closed_form, delay_kernel, doppler_kernel
from .txrx import FrameLayout

if TYPE_CHECKING:  # pragma: no cover
    from .config import SystemConfig

CSF_MODES = ("ongrid", "offgrid")


@dataclass(frozen=True)
class PilotObservations:
    """LS channel estimates on the pilot lattice.

    values[i, j] is the estimate at subcarrier i*d_f, symbol j*d_t, so the
    array shape is (M/d_f, N/d_t) and covers the complete lattice.
    """

    values: np.ndarray
    d_t: int
    d_f: int

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze_grid(self.values, "PilotObservations"))


def ls_pilot(y: TFGrid, x: TFGrid, layout: FrameLayout) -> PilotObservations:
    """Least-squares estimates y/x at every pilot position."""
    if y.data.shape != x.data.shape:
        raise ContractViolationError(
            f"grid shapes differ: y {y.data.shape} vs x {x.data.shape}"
        )
    xp = x.data[layout.pilot_m, layout.pilot_n]
    if np.any(np.abs(xp) < 1e-300):
        raise ContractViolationError("zero-valued pilot symbol, LS division impossible")
    yp = y.data[layout.pilot_m, layout.pilot_n]
    vals = yp / xp
    # positions are symbol-major with subcarrier fastest, so the lattice
    # restores as (n', m') and transposes to (m', n')
    n_freq = int(np.count_nonzero(layout.pilot_n == layout.pilot_n[0]))
    n_time = layout.n_pilot // n_freq
    grid = vals.reshape(n_time, n_freq).T
    return PilotObservations(grid, d_t=y.n_symbols // n_time, d_f=y.n_subcarriers // n_freq)


def interp_linear(obs: PilotObservations, cfg: "SystemConfig") -> TFGrid:
    """Bilinear pilot interpolation, time axis first, then frequency.

    Between pilots the usual two-point formula applies; past the last pilot
    the final segment's slope is carried on (linear extrapolation).
    """
    _check_lattice(obs, cfg)
    half = _interp_axis(obs.values, cfg.d_t, cfg.N, axis=1)
    full = _interp_axis(half, cfg.d_f, cfg.M, axis=0)
    return _adopt(TFGrid, full)


def _interp_axis(arr: np.ndarray, step: int, out_len: int, axis: int) -> np.ndarray:
    arr = np.moveaxis(arr, axis, 0)
    knots = arr.shape[0]
    t = np.arange(out_len)
    if knots == 1:
        out = np.broadcast_to(arr[0], (out_len,) + arr.shape[1:]).copy()
        return np.moveaxis(out, 0, axis)
    j = np.minimum(t // step, knots - 2)
    frac = (t - j * step) / step
    shape = (out_len,) + (1,) * (arr.ndim - 1)
    out = arr[j] + (arr[j + 1] - arr[j]) * frac.reshape(shape)
    return np.moveaxis(out, 0, axis)


@cache
def scipy_linalg():
    """`scipy.linalg`, imported on the first call.

    Only the genie MMSE solves dense systems, and the import costs about a
    third of a second and 20 MB, so no other run pays for it.  It maps
    scipy's own OpenBLAS, which the rescan adds to the BLAS pin.
    """
    import scipy.linalg

    rescan()
    return scipy.linalg


def cho_factor(a, **kw):
    """`scipy.linalg.cho_factor`, looked up on each call."""
    return scipy_linalg().cho_factor(a, **kw)


def cho_solve(c_and_lower, b, **kw):
    """`scipy.linalg.cho_solve`, looked up on each call."""
    return scipy_linalg().cho_solve(c_and_lower, b, **kw)


class CorrelationPair:
    """Exact second-order CTF statistics for a known path support.

    R1 is the (M*N) x n_pilot cross-correlation between the full vectorized
    response and its pilot samples, R2 the n_pilot x n_pilot pilot
    auto-correlation (channel part only, no noise).  Both follow from
    R[(m,n),(m',n')] = sum_i p_i e^{j2pi k_i (n-n')/N} e^{-j2pi l_i (m-m')/M},
    so R1 = A_all P A_pilot^H and R2 = B B^H, B = A_pilot sqrt(P).  Only the
    factors are kept; R2 is formed only inside the noisy `_system`.
    """

    def __init__(self, steering_all: np.ndarray, steering_pilot: np.ndarray, powers: np.ndarray):
        self._a_all = steering_all
        self._a_pilot = steering_pilot
        self._p = np.asarray(powers, dtype=np.float64)
        if self._a_all.shape[1] != self._p.size or self._a_pilot.shape[1] != self._p.size:
            raise ContractViolationError("steering matrices and powers disagree on path count")
        # `not >=` so that nan fails too.  With P >= 0, A P A^H is Hermitian
        # to rounding for any finite A, and the symmetrisation makes it exact.
        if not np.all(self._p >= 0):
            raise ContractViolationError(f"path powers must be >= 0, got {self._p.tolist()}")

    @property
    def n_pilot(self) -> int:
        return self._a_pilot.shape[0]

    def _system(self, noise_var: float, ws: "_Workspace") -> np.ndarray:
        """R2 + noise_var*I, built in ws's buffers."""
        np.matmul(self._a_pilot * self._p, self._a_pilot.conj().T, out=ws.r2)
        return ws.system(noise_var)

    def apply_r1(self, vec: np.ndarray) -> np.ndarray:
        """R1 @ vec through the steering factors, without forming R1."""
        return self._a_all @ (self._p * (self._a_pilot.conj().T @ vec))

    def least_norm(self, vec: np.ndarray) -> np.ndarray:
        """R1 z for the least-norm z of R2 z = vec: A_all sqrt(P) B^+ vec, as
        B^H (B B^H)^+ = B^+.  lstsq cuts B's singular values below
        eps*n*sigma_max(B), where lstsq on the dense R2 cuts them below
        sqrt(eps*n)*sigma_max(B), so ratios of about 1e-13 to 3e-7 (a
        near-alias, or a path at 1e-26 to 1e-13 of the strongest power) are
        kept, the more exact result.  Exact aliases, delays l and l + M/d_f
        at one Doppler, fall below both cutoffs.
        """
        sqrt_p = np.sqrt(self._p)
        g, *_ = np.linalg.lstsq(self._a_pilot * sqrt_p, vec, rcond=None)
        return self._a_all @ (sqrt_p * g)


class _Workspace:
    """Buffers of one n x n pilot system: the product R = A P A^H and the
    system, held transposed."""

    def __init__(self, n: int):
        self.n = n
        self.r2 = np.empty((n, n), dtype=np.complex128)
        self.at = np.empty((n, n), dtype=np.complex128)

    def diagonal(self) -> np.ndarray:
        """Writable view of the system's diagonal."""
        return self.at.reshape(-1)[:: self.n + 1]

    def system(self, noise_var: float) -> np.ndarray:
        """(r2 + r2^H)/2 + noise_var*I for the product in r2, which is kept.

        The result lives in `at`, which holds its transpose, so the returned
        matrix is Fortran-ordered and LAPACK can factor it in place.  Every
        step is elementwise on the operands of the textbook
        `(r2 + r2.conj().T) / 2.0 + noise_var * np.eye(n)`, so the bits
        match it exactly.
        """
        r2, at = self.r2, self.at
        # transposed, r2 + r2^H is r2.T + conj(r2)
        np.conjugate(r2, out=at)
        np.add(r2.T, at, out=at)
        # Halving the float parts differs from the complex halving only in
        # the sign of zeros; adding +0.0 clears that, as the zeros of
        # noise_var * eye do.
        parts = at.view(np.float64)
        parts *= 0.5
        parts += 0.0
        self.diagonal().real += noise_var
        return at.T


# One workspace per thread, reused while the pilot count stays the same:
# fresh 4 MiB temporaries cost a page fault per 4 KiB on every solve.  A
# thread's workspace goes away with the thread.
_local = threading.local()


def _workspace(n: int) -> _Workspace:
    ws = getattr(_local, "ws", None)
    if ws is None or ws.n != n:
        _local.ws = None  # drop the old buffers before allocating new ones
        ws = _local.ws = _Workspace(n)
    return ws


def genie_correlations(ps: PathSet, cfg: "SystemConfig", layout: FrameLayout) -> CorrelationPair:
    """Correlations a genie would hand the MMSE estimator: exact path support
    (delays and Dopplers) with ensemble gain variances."""
    freq, time = path_steering(ps, cfg.M, cfg.N)
    time = time.T  # (N, P)
    # steering grid per path, flattened symbol-major (subcarrier fastest)
    a_all = (freq[:, None, :] * time[None, :, :]).reshape(cfg.M * cfg.N, len(ps), order="F")
    a_pilot = freq[layout.pilot_m] * time[layout.pilot_n]
    return CorrelationPair(a_all, a_pilot, ps.powers)


@dataclass(frozen=True)
class MmseEstimate:
    """MMSE solution plus a flag for the rank-deficient noiseless fallback."""

    grid: TFGrid
    used_least_norm: bool = False


def mmse_estimate(
    obs: PilotObservations, corr: CorrelationPair, noise_var: float, cfg: "SystemConfig"
) -> MmseEstimate:
    """Linear MMSE interpolation of the pilot estimates to the full grid.

    Solves (R2 + noise_var*I) z = obs and returns R1 z.  The system matrix is
    Hermitian positive definite for noise_var > 0 and is attacked with a
    Cholesky factorization; if that fails a diagonal jitter of
    1e-12 * trace/n is added once.  The system is built and factored in
    place, in buffers each thread keeps for its pilot count.  For
    noise_var = 0 the least-norm solution, `CorrelationPair.least_norm`,
    needs no n_pilot x n_pilot matrix.  The first noisy call imports
    `scipy.linalg`, before the pin is taken; the dense algebra then runs on
    one BLAS thread, so the result does not depend on the BLAS thread count.
    """
    _check_noise_var(noise_var)
    _check_lattice(obs, cfg)
    obs_vec = obs.values.flatten(order="F")  # symbol-major, subcarrier fastest
    if obs_vec.size != corr.n_pilot:
        raise ContractViolationError(
            f"correlations built for {corr.n_pilot} pilots, observations have {obs_vec.size}"
        )
    if noise_var > 0:
        # Only the Cholesky route needs scipy.  Loaded outside the pin: a set-up
        # importing it inside a held pin measured slower (0.647 s against
        # 0.615 s, medians of 20 `paper` runs on a 2-vCPU VM).
        scipy_linalg()
    with single_blas_thread():
        if noise_var == 0:
            h_vec = corr.least_norm(obs_vec)
        else:
            ws = _workspace(corr.n_pilot)
            try:
                a = corr._system(noise_var, ws)
                factor = cho_factor(a, lower=True, overwrite_a=True)
            except LinAlgError:
                # the failed factorization overwrote the system, not the
                # product it is built from: build it again
                a = ws.system(noise_var)
                ws.diagonal().real += 1e-12 * np.trace(a).real / a.shape[0]
                factor = cho_factor(a, lower=True, overwrite_a=True)
            # cho_factor checked the system for non-finite entries, and the
            # observations are finite by construction: no second scan
            z = cho_solve(factor, obs_vec, check_finite=False)
            h_vec = corr.apply_r1(z)
    grid = _adopt(TFGrid, h_vec.reshape(cfg.M, cfg.N, order="F"))
    return MmseEstimate(grid, used_least_norm=noise_var == 0)


def _check_lattice(obs: PilotObservations, cfg: "SystemConfig"):
    want = (cfg.M // cfg.d_f, cfg.N // cfg.d_t)
    if obs.values.shape != want or (obs.d_t, obs.d_f) != (cfg.d_t, cfg.d_f):
        raise ContractViolationError(
            f"pilot lattice {obs.values.shape} with spacings "
            f"(d_t={obs.d_t}, d_f={obs.d_f}) does not match config lattice "
            f"{want} with (d_t={cfg.d_t}, d_f={cfg.d_f})"
        )


def periodic_csf(obs: PilotObservations, cfg: "SystemConfig") -> PeriodCSF:
    """One period of the delay-Doppler image, from the pilot lattice.

    Computed as the `sfft` of the (M/d_f) x (N/d_t) pilot grid scaled by
    sqrt(d_t*d_f), which matches the closed-form lattice kernels exactly.
    Doppler rows come out centered.
    """
    _check_lattice(obs, cfg)
    period = np.sqrt(cfg.d_t * cfg.d_f) * sfft(_adopt(TFGrid, obs.values)).data  # k standard order
    return _adopt(PeriodCSF, np.fft.fftshift(period, axes=0), d_t=cfg.d_t, d_f=cfg.d_f)


def csf_ongrid(p: PeriodCSF, cfg: "SystemConfig") -> DDGrid:
    """Embed the period at its place in the full N x M delay-Doppler grid.

    Doppler rows k in [-N/(2*d_t), N/(2*d_t)) map to rows k mod N, delay
    columns to l in [0, M/d_f); everything else is zero.  For on-grid paths
    inside that support this reproduces the exact image (no aliasing).
    """
    if (p.full_n, p.full_m) != (cfg.N, cfg.M):
        raise ContractViolationError(
            f"period covers a {p.full_n}x{p.full_m} grid, config wants {cfg.N}x{cfg.M}"
        )
    full = np.zeros((cfg.N, cfg.M), dtype=np.complex128)
    rows = p.doppler_axis % cfg.N
    full[rows[:, None], np.arange(p.n_delay)[None, :]] = p.data
    return _adopt(DDGrid, full)


def _machine_floor(p: PeriodCSF) -> float:
    """Magnitude below which period entries count as numerically zero."""
    return p.data.size * np.finfo(np.float64).eps * float(p.magnitude.max())


def _occupied_columns(p: PeriodCSF, noise_var: float, cfg: "SystemConfig") -> np.ndarray:
    """Boolean mask of delay columns whose Doppler-axis peak clears the
    detection threshold.

    Pilot LS noise of variance noise_var lands in the period as i.i.d.
    entries of variance noise_var * d_t * d_f, so the threshold is
    gamma * sqrt(noise_var * d_t * d_f).  In the noiseless case a
    machine-precision floor stands in so that exact zeros never count.
    """
    _check_noise_var(noise_var)
    peaks = p.magnitude.max(axis=0)
    if noise_var > 0:
        thr = cfg.gamma_threshold * np.sqrt(noise_var * cfg.d_t * cfg.d_f)
    else:
        thr = _machine_floor(p)
    return peaks > thr


def estimate_num_paths(p: PeriodCSF, noise_var: float, cfg: "SystemConfig") -> int:
    """Count delay bins that hold signal, by the `_occupied_columns` rule."""
    return int(_occupied_columns(p, noise_var, cfg).sum())


def recover_paths_offgrid(p: PeriodCSF, n_paths: int):
    """Path readout with fractional-Doppler refinement, one path per delay
    column: the first n_paths columns above the numerical floor, in
    descending order of their peak (ties go to the smallest delay).

    The peak of column l0 is its first row k0 at the maximum; the larger of
    its two Doppler neighbors k0' places the Doppler estimate at

        k_hat = k0 + |p[k0']| * (k0' - k0) / (|p[k0]| + |p[k0']|)

    (the two-bin amplitude ratio rule, clamped to half a bin), and the gain
    is read by dividing out both lattice kernels at the estimated offset.

    Returns (PathSet or None, truncated): None when nothing rose above the
    numerical floor, truncated=True when fewer than n_paths columns held
    signal.
    """
    if n_paths < 1:
        raise ContractViolationError(f"n_paths must be >= 1, got {n_paths}")
    mags = p.magnitude
    rows = mags.argmax(axis=0)
    peaks = mags[rows, np.arange(p.n_delay)]
    order = np.argsort(-peaks, kind="stable")  # ties keep delay order
    l0s = order[peaks[order] > _machine_floor(p)][:n_paths]
    if l0s.size == 0:
        return None, True
    row0s, a0 = rows[l0s], peaks[l0s]
    a_minus, a_plus = mags[(row0s + np.array([[-1], [1]])) % p.n_doppler, l0s]
    a1 = np.maximum(a_plus, a_minus)
    k0s = row0s + p.k_min
    k_hats = k0s + np.clip(np.where(a_plus >= a_minus, a1, -a1) / (a0 + a1), -0.5, 0.5)
    denom = delay_kernel(l0s, l0s, p.full_m, p.d_f) * doppler_kernel(k_hats, k0s, p.full_n, p.d_t)
    gains = p.data[row0s, l0s] / denom
    paths = [Path(complex(g), int(l), float(k)) for g, l, k in zip(gains, l0s, k_hats)]
    return PathSet(paths), l0s.size < n_paths


@dataclass(frozen=True)
class CsfEstimate:
    """Everything the delay-Doppler estimators produce on the way to a CTF."""

    paths_hat: PathSet | None
    full_dd: DDGrid
    truncated: bool = False


def estimate_csf(
    y: TFGrid,
    x: TFGrid,
    layout: FrameLayout,
    cfg: "SystemConfig",
    mode: str,
    noise_var: float,
) -> CsfEstimate:
    """Pilot LS -> period -> full delay-Doppler estimate (`csf_from_period`)."""
    return csf_from_period(periodic_csf(ls_pilot(y, x, layout), cfg), cfg, mode, noise_var)


def csf_from_period(p: PeriodCSF, cfg: "SystemConfig", mode: str, noise_var: float) -> CsfEstimate:
    """Full delay-Doppler estimate from one period of the pilot image.

    mode "ongrid" embeds the period with noise-only delay columns zeroed
    first (the same per-column detection rule the off-grid mode uses);
    without that gate every empty column would leak its pilot noise into
    the CTF.  mode "offgrid" detects the number of occupied delay bins,
    recovers each path with fractional Doppler and rebuilds the image from
    the recovered paths.  An offgrid run that detects nothing returns an
    all-zero image with paths_hat = None.
    """
    if mode not in CSF_MODES:
        raise ContractViolationError(f"unknown mode '{mode}', valid: {CSF_MODES}")
    if mode == "ongrid":
        keep = _occupied_columns(p, noise_var, cfg)
        gated = _adopt(PeriodCSF, np.where(keep[None, :], p.data, 0.0), d_t=p.d_t, d_f=p.d_f)
        return CsfEstimate(None, csf_ongrid(gated, cfg))
    n_paths = estimate_num_paths(p, noise_var, cfg)
    ps_hat, truncated = recover_paths_offgrid(p, n_paths) if n_paths else (None, True)
    if ps_hat is None:
        zero = _adopt(DDGrid, np.zeros((cfg.N, cfg.M), dtype=np.complex128))
        return CsfEstimate(None, zero, truncated=True)
    # `channel.csf_from_paths` on the recovered paths, spelled out so that
    # csf_closed_form is looked up here, where sweepbench/replay.py times it
    dd = csf_closed_form(ps_hat.gains, ps_hat.delays, ps_hat.dopplers, cfg.M, cfg.N)
    return CsfEstimate(ps_hat, _adopt(DDGrid, dd), truncated=truncated)


def _csf(t, mode: str):
    est = csf_from_period(t.period, t.cfg, mode, t.noise_var)
    return isfft(est.full_dd, t.cfg), mode == "offgrid" and est.paths_hat is None


# The one place that names the estimators (config.ESTIMATOR_NAMES is its
# keys, in order).  Each takes the shared paired trial of the harness
# (`harness._Trial`) and returns (h_hat grid, failed flag).
ESTIMATORS = {
    "ls-interp": lambda t: (interp_linear(t.obs, t.cfg), False),
    "mmse-genie": lambda t: (
        mmse_estimate(t.obs, genie_correlations(t.ps, t.cfg, t.layout), t.noise_var, t.cfg).grid,
        False,
    ),
    "csf-ongrid": lambda t: _csf(t, "ongrid"),
    "csf-offgrid": lambda t: _csf(t, "offgrid"),
    "ideal": lambda t: (t.h_true, False),
}
