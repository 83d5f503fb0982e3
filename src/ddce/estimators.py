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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import LinAlgError

from .blas import lapack_cholesky, single_blas_thread
from .channel import PathSet, path_steering
from .errors import ContractViolationError, finite_complexes, non_negative_float, non_negative_reals, number
from .errors import one_length, positive_int
from .grids import DDGrid, PeriodCSF, TFGrid, _adopt, _freeze_grid, isfft, sfft
from .grids import _keep_grids_on_the_heap, _set_spacings
from .kernels import csf_closed_form, delay_kernel, doppler_kernel
from .txrx import FrameLayout, PilotPattern, make_layout

if TYPE_CHECKING:  # pragma: no cover
    from .config import SystemConfig

CSF_MODES = ("ongrid", "offgrid")

# R2 + noise_var*I, and the r2 + r2^H its symmetrisation sums, stay inside the
# float64 range while noise_var and R2's trace, which bounds each entry of R2
# (|R2_ij| <= sqrt(R2_ii R2_jj)), are each at most this.
_LIMIT = np.finfo(np.float64).max / 8
_noise_var_in_range = number(lambda x: 0 <= x <= _LIMIT, f"non-negative and at most {_LIMIT:.3g}")


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
        _set_spacings(self)


def ls_pilot(y: TFGrid, x: TFGrid, layout: FrameLayout) -> PilotObservations:
    """Least-squares estimates y/x at every pilot position."""
    xp = layout.flat(x).take(layout.pilot_flat)
    if np.any(np.abs(xp) < 1e-300):
        raise ContractViolationError("zero-valued pilot symbol, LS division impossible")
    vals = layout.flat(y).take(layout.pilot_flat)
    vals /= xp
    # positions are symbol-major with subcarrier fastest, so the lattice
    # restores as (n', m') and transposes to (m', n')
    grid = vals.reshape(layout.shape[1] // layout.d_t, layout.shape[0] // layout.d_f).T
    return PilotObservations(grid, d_t=layout.d_t, d_f=layout.d_f)


def interp_linear(obs: PilotObservations, cfg: "SystemConfig") -> TFGrid:
    """Bilinear pilot interpolation, time axis first, then frequency.

    Between pilots the usual two-point formula applies; past the last pilot
    the final segment's slope is carried on (linear extrapolation).
    """
    _check_lattice(obs, cfg)
    half = _lerp_axis(obs.values, cfg.d_t, cfg.N, axis=1)
    full = _lerp_axis(half, cfg.d_f, cfg.M, axis=0)
    return _adopt(TFGrid, full)


def _lerp_axis(arr: np.ndarray, step: int, out_len: int, axis: int) -> np.ndarray:
    arr = np.moveaxis(arr, axis, 0)
    knots = arr.shape[0]
    t = np.arange(out_len)
    if knots == 1:
        out = np.broadcast_to(arr[0], (out_len,) + arr.shape[1:]).copy()
        return np.moveaxis(out, 0, axis)
    j = np.minimum(t // step, knots - 2)
    frac = (t - j * step) / step
    shape = (out_len,) + (1,) * (arr.ndim - 1)
    # arr[j] + (arr[j + 1] - arr[j]) * frac, with each knot's slope taken
    # once and gathered, and the multiply-add done in the gathered buffer
    out = (arr[1:] - arr[:-1])[j]
    out *= frac.reshape(shape)
    np.add(arr[j], out, out=out)
    return np.moveaxis(out, 0, axis)


class CorrelationPair:
    """Exact second-order CTF statistics for a known path support.

    R1 is the (M*N) x n_pilot cross-correlation between the full vectorized
    response and its pilot samples, R2 the n_pilot x n_pilot pilot
    auto-correlation (channel part only, no noise).  Both follow from
    R[(m,n),(m',n')] = sum_i p_i e^{j2pi k_i (n-n')/N} e^{-j2pi l_i (m-m')/M},
    so R1 = A_all P A_pilot^H and R2 = B B^H, B = A_pilot sqrt(P).  Only the
    factors are kept: A_all's separable halves, the (M, P) delay steering
    and the (P, N) Doppler steering, and A_pilot.  R2 is formed afresh by
    each call of the noisy `_system`, and the (M*N, P) A_all only inside
    `apply_r1` and `least_norm`, after any system is gone.

    Each input is checked here, once, so every system built from the pair
    is finite: the three steering factors 2-D, complex128 and finite, the
    powers 1-D, finite and >= 0, one per path, and R2's trace at most
    `_LIMIT`, an eighth of the float64 range.  Anything else is one
    ContractViolationError naming the argument: a trace past the limit
    names steering_pilot if it is past the limit at unit powers, and powers
    if not.
    """

    def __init__(self, steering_freq, steering_time, steering_pilot, powers):
        factors = [np.asarray(a) for a in (steering_freq, steering_time, steering_pilot)]
        for name, a in zip(("steering_freq", "steering_time", "steering_pilot"), factors):
            # finite, and what the noisy solve's LAPACK takes
            if finite_complexes(name, a).dtype != np.complex128 or a.ndim != 2:
                raise ContractViolationError(f"{name} must be 2-D complex128: {a.dtype} {a.shape}")
        self._freq, self._time, self._a_pilot = factors
        # With P >= 0, A P A^H is Hermitian to rounding for any finite A, and
        # the symmetrisation makes it exact.
        (self._p,) = one_length(powers=non_negative_reals("powers", powers).astype(np.float64))
        if {self._freq.shape[1], self._time.shape[0], self._a_pilot.shape[1]} != {self._p.size}:
            raise ContractViolationError("steering matrices and powers disagree on path count")
        # an overflow reads as inf, and 0 * inf as nan: both fail the rule
        with np.errstate(over="ignore", invalid="ignore"):
            energy = np.sum(np.abs(self._a_pilot) ** 2, axis=0)  # each path's pilot energy
            if not (trace := self._p @ energy) <= _LIMIT:  # R2's trace
                name = "powers" if energy.sum() <= _LIMIT else "steering_pilot"
                raise ContractViolationError(f"{name} must keep R2's trace <= {_LIMIT:.3g}, got {trace:.3g}")

    @property
    def n_pilot(self) -> int:
        return self._a_pilot.shape[0]

    def _steering_all(self) -> np.ndarray:
        """A_all, the (M*N, P) steering grid: per path as (P, N, M), whose
        transposed (P, M*N) view is the F-ordered grid, flattened
        symbol-major (subcarrier fastest)."""
        freq, time = self._freq, self._time
        return np.multiply(freq.T[:, None, :], time[:, :, None]).reshape(len(self._p), -1).T

    def _system(self, noise_var: float) -> np.ndarray:
        """The lower triangle of R2 + noise_var*I, built over a fresh product
        A P A^H, its one n_pilot x n_pilot buffer (`_hermitian_system`)."""
        return _hermitian_system((self._a_pilot * self._p) @ self._a_pilot.conj().T, noise_var)

    def apply_r1(self, vec: np.ndarray) -> np.ndarray:
        """R1 @ vec through the steering factors, without forming R1."""
        return self._steering_all() @ (self._p * (self._a_pilot.conj().T @ vec))

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
        return self._steering_all() @ (sqrt_p * g)


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of a contiguous square matrix's diagonal."""
    return a.ravel(order="K")[:: a.shape[0] + 1]


# Rows of the product per pass of `_hermitian_system`.  On a 2-vCPU VM,
# bands of 32 to 128 rows built a 512-pilot system in 1.7-2.0 ms, against
# 2.2 ms in a second buffer; 16-row bands took 2.3 ms.
_BAND = 32


def _hermitian_system(r2: np.ndarray, noise_var: float) -> np.ndarray:
    """The lower triangle of (r2 + r2^H)/2 + noise_var*I, written over the
    C-ordered square product r2 and returned as the F-ordered r2.T, which
    LAPACK factors in place.  Each entry it holds is built elementwise from
    the operands of the textbook `(r2 + r2.conj().T) / 2.0 + noise_var *
    np.eye(n)`, so the bits match it, without a second n x n buffer.  Entry
    (i, j), i >= j, of the result is r2's entry (j, i), which only the pair
    (j, i) / (i, j) of the product feeds.  The strictly upper triangle, which
    neither `'L'` routine reads, keeps the product's finite values outside
    the diagonal blocks."""
    n = r2.shape[0]
    for b0 in range(0, n, _BAND):
        b1 = min(b0 + _BAND, n)
        # right of the diagonal block: conj(r2) plus the transposed block
        # below it, rows past b1, which lie past it in memory
        right = r2[b0:b1, b1:]
        np.conjugate(right, out=right)
        np.add(r2[b1:, b0:b1].T, right, out=right)
        _halve(right)
        # the diagonal block reads its own transpose: built from a copy
        block = r2[b0:b1, b0:b1]
        sym = np.conjugate(block)
        np.add(block.T, sym, out=sym)
        _halve(sym)
        _diagonal(sym).real += noise_var
        block[...] = sym
    return r2.T


def _halve(a: np.ndarray) -> None:
    # Halving the float parts differs from the complex halving only in the sign
    # of zeros; adding +0.0 clears that, as the zeros of noise_var * eye do.
    parts = a.view(np.float64)
    parts *= 0.5
    parts += 0.0


def genie_correlations(ps: PathSet, cfg: "SystemConfig", layout: FrameLayout) -> CorrelationPair:
    """Correlations a genie would hand the MMSE estimator: exact path support
    (delays and Dopplers) with ensemble gain variances, on cfg's own layout."""
    want = make_layout(PilotPattern(cfg.d_t, cfg.d_f), cfg)
    # anything but a layout as its type's name: an array's != is elementwise,
    # and the repr of an int past 4300 digits raises
    got = layout if isinstance(layout, FrameLayout) else type(layout).__name__
    if got != want:
        raise ContractViolationError(f"layout must be {want}, got {got}")
    freq, time = path_steering(ps, cfg.M, cfg.N)  # (M, P) and (P, N)
    return CorrelationPair(freq, time, freq[layout.pilot_m] * time.T[layout.pilot_n], ps.powers)


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
    1e-12 * trace/n is added once.  The system's lower triangle is built in
    one fresh buffer, the product's own (glibc's heap hands it back once the
    first noisy call has set its thresholds), factored in place, and dropped
    before `apply_r1` forms the (M*N) x P steering grid.  For
    noise_var = 0 the least-norm solution, `CorrelationPair.least_norm`,
    needs no n_pilot x n_pilot matrix.  The Cholesky pair is the one
    `blas.lapack_cholesky` chose, taken before the pin, since the first
    noisy call may import `scipy.linalg` for it.  noise_var is at most
    `_LIMIT` and the pair is checked, so the system is finite; observations
    near the float64 range can still overflow the estimate, which is then
    refused as a ContractViolationError.  The dense algebra runs on one BLAS
    thread, so the result does not depend on the BLAS thread count.
    """
    noise_var = _noise_var_in_range("noise_var", noise_var)
    _check_lattice(obs, cfg)
    obs_vec = obs.values.flatten(order="F")  # symbol-major, subcarrier fastest
    if obs_vec.size != corr.n_pilot:
        raise ContractViolationError(f"correlations built for {corr.n_pilot} pilots, "
                                     f"observations have {obs_vec.size}")
    chol = lapack_cholesky() if noise_var > 0 else None  # outside the pin: it may import scipy
    # observations near the float64 range can overflow the solve: the finite
    # check after it refuses the result, where a numpy warning would only print
    with single_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        if noise_var == 0:
            h_vec = corr.least_norm(obs_vec)
        else:
            _keep_grids_on_the_heap()  # so the system's buffers are reused, not faulted in
            a = corr._system(noise_var)
            if chol.factor(a) > 0:
                # the failed factorization overwrote the system: build it again,
                # after dropping it, so that one system is alive at a time
                del a
                a = corr._system(noise_var)
                _diagonal(a).real += 1e-12 * np.trace(a).real / a.shape[0]
                info = chol.factor(a)
                if info > 0:
                    raise LinAlgError(f"{info}-th leading minor is not positive definite")
            z = chol.solve(a, obs_vec)
            del a  # so the system is gone before apply_r1 builds A_all
            h_vec = corr.apply_r1(z)
    if not np.isfinite(h_vec).all():
        raise ContractViolationError(f"noise_var must keep the estimate of obs finite, got {noise_var}")
    return MmseEstimate(_adopt(TFGrid, h_vec.reshape(cfg.M, cfg.N, order="F")), noise_var == 0)


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
    half = period.shape[0] // 2  # fftshift along k: the negative rows first
    centered = np.concatenate((period[half:], period[:half]))
    return _adopt(PeriodCSF, centered, d_t=cfg.d_t, d_f=cfg.d_f)


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
    half = p.n_doppler // 2  # rows k = -half .. -1 go last, k = 0 .. half - 1 first
    full[:half, : p.n_delay] = p.data[half:]
    full[cfg.N - half :, : p.n_delay] = p.data[:half]
    return _adopt(DDGrid, full)


def _machine_floor(p: PeriodCSF) -> float:
    """Magnitude below which period entries count as numerically zero."""
    return p.data.size * np.finfo(np.float64).eps * float(p.column_peaks[1].max())


def _occupied_columns(p: PeriodCSF, noise_var: float, cfg: "SystemConfig") -> np.ndarray:
    """Boolean mask of delay columns whose Doppler-axis peak clears the
    detection threshold.

    Pilot LS noise of variance noise_var lands in the period as i.i.d.
    entries of variance noise_var * d_t * d_f, so the threshold is
    gamma * sqrt(noise_var * d_t * d_f).  In the noiseless case a
    machine-precision floor stands in so that exact zeros never count.
    """
    noise_var = non_negative_float("noise_var", noise_var)
    peaks = p.column_peaks[1]
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
    n_paths = positive_int("n_paths", n_paths)
    mags = p.magnitude
    rows, peaks = p.column_peaks
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
    return PathSet(gains, l0s, k_hats), l0s.size < n_paths


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
