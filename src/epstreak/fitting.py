"""IRF-reconvolution lifetime fitting with a Poisson-aware objective.

The model is a sum of causal exponentials convolved with a measured (or
synthetic) IRF histogram plus a flat background. Fitting minimizes the
Poisson negative log-likelihood by variable projection: a bounded
quasi-Newton search (L-BFGS-B) runs over the log lifetimes (and the IRF
shift) from multistart candidates, and at each of its points the
nonnegative amplitudes and background are solved exactly. The search uses
the analytic gradient of the single-pole recursion; the covariance is the
inverse Fisher information.

scipy supplies the recursion filter, NNLS and L-BFGS-B. Each function that
calls one imports it, so scipy is loaded by the first lifetime fit (or
model evaluation), not by ``import epstreak``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .checks import Checked, rule
from .errors import ConfigurationError, DomainError, FitError
from .tcspc import Histogram
from .units import PS_PER_NS


@dataclass
class DecayModel:
    components: list  # of (amplitude >= 0, lifetime_ns > 0)
    background: float = 0.0
    t_shift_ps: float = 0.0

    def __post_init__(self):
        if len(self.components) == 0:
            raise DomainError("need at least one decay component")
        for a, tau in self.components:
            if a < 0 or tau <= 0:
                raise DomainError("amplitudes must be >= 0 and lifetimes > 0")
        if self.background < 0:
            raise DomainError("background must be >= 0")

    def lifetimes_ns(self):
        return np.array([tau for _, tau in self.components])

    def amplitudes(self):
        return np.array([a for a, _ in self.components])


@dataclass
class FitResult:
    model: DecayModel
    # inverse Fisher information over (a_1..K, tau_1..K [ns], background,
    # shift [ps]); the shift's row and column are zero when it is not fitted
    covariance: np.ndarray
    reduced_chi2: float
    n_bins_used: int
    fit_range_bins: tuple
    nll: float
    n_model_evals: int  # convolve_model calls, merged attempts included
    converged: bool  # the optimizer's own test, at the best start
    multistart_spread: float  # NLL of the worst start minus the best
    fisher_condition: float  # of the Fisher matrix scaled to unit diagonal
    merged_from: int | None = None  # components asked for when a merge fired

    def lifetime_errors_ns(self):
        k = len(self.model.components)
        return np.sqrt(np.clip(np.diag(self.covariance)[k:2 * k], 0, None))

    def amplitude_fractions(self):
        a = self.model.amplitudes()
        return a / a.sum() if a.sum() > 0 else a

    def diagnostics(self):
        """Deterministic fit diagnostics, JSON-ready."""
        cond = self.fisher_condition
        return {"model_evaluations": self.n_model_evals,
                "converged": self.converged,
                "multistart_nll_spread": self.multistart_spread,
                "fisher_condition": cond if np.isfinite(cond) else None,
                "merged_from_components": self.merged_from}


def _exp_response(irf_weights, bin_width_ps, tau_ps, shift_ps, n_out,
                  derivatives=False):
    """Bin-averaged (irf * causal exponential) on the irf's bin grid.

    The IRF is treated as piecewise constant over its bins, so the integral
    of the exponential kernel over each source bin is exact. Full bins share
    a geometric factor, which turns the sum into a single-pole recursion
    y[m] = r*y[m-1] + x[m] evaluated in O(n); the partially covered boundary
    bin gets its own exact weight. With ``derivatives`` the result is
    (y, dy/dtau_ps, dy/dshift_ps).
    """
    from math import ceil

    from scipy.signal import lfilter
    delta = float(bin_width_ps)
    r = np.exp(-delta / tau_ps)
    # m0 indexes the boundary bin; rho in [-delta/2, delta/2) is the kernel
    # start measured from that bin's center
    m0 = ceil(shift_ps / delta - 0.5)
    rho = m0 * delta - shift_ps
    x = np.zeros(n_out)
    lo = max(0, m0)
    hi = min(n_out, m0 + len(irf_weights))
    if hi > lo:
        x[lo:hi] = irf_weights[lo - m0:hi - m0]
    a_full = tau_ps * (np.exp(delta / (2 * tau_ps)) - np.exp(-delta / (2 * tau_ps)))
    partial = tau_ps * (1.0 - np.exp(-(rho + delta / 2) / tau_ps))
    scale = a_full * np.exp(-rho / tau_ps)
    h = lfilter([1.0], [1.0, -r], x)
    y = scale * h + (partial - scale) * x
    if not derivatives:
        return y / delta
    # dh/dr obeys the same recursion driven by h one bin later
    dh_dr = lfilter([0.0, 1.0], [1.0, -r], h)
    u = delta / (2 * tau_ps)
    d_full = np.exp(u) - np.exp(-u) - u * (np.exp(u) + np.exp(-u))
    d_scale = d_full * np.exp(-rho / tau_ps) + scale * rho / tau_ps ** 2
    c = rho + delta / 2
    e_c = np.exp(-c / tau_ps)
    d_partial = 1.0 - e_c - c / tau_ps * e_c
    dy_dtau = (d_scale * h + scale * r * delta / tau_ps ** 2 * dh_dr
               + (d_partial - d_scale) * x)
    # within one boundary bin x is fixed and rho = m0*delta - shift
    dy_dshift = scale / tau_ps * h - (e_c + scale / tau_ps) * x
    return y / delta, dy_dtau / delta, dy_dshift / delta


def _target_grid(irf: Histogram, n_bins, t0_ps):
    """Normalized IRF weights, the target grid's bin offset and length."""
    if n_bins is None:
        n_bins = len(irf.counts)
    if t0_ps is None:
        t0_ps = irf.t0_ps
    offset, rem = divmod(int(t0_ps - irf.t0_ps), irf.bin_width_ps)
    if rem:
        raise ConfigurationError("target grid origin must align with the IRF bin grid")
    total = irf.counts.sum()
    if total <= 0:
        raise ConfigurationError("IRF histogram is empty")
    return irf.counts.astype(float) / total, offset, n_bins


def convolve_model(model: DecayModel, irf: Histogram, n_bins=None, t0_ps=None):
    """Expected counts per bin on a grid sharing the IRF's bin width.

    The target grid starts at ``t0_ps`` (default: the IRF's own origin) and
    must be offset from the IRF grid by a whole number of bins. The IRF is
    normalized internally; the result is linear in amplitudes and background.
    """
    irfw, offset, n_bins = _target_grid(irf, n_bins, t0_ps)
    n_resp = n_bins + max(offset, 0)
    lo = max(0, -offset)  # target bins before the response starts stay flat
    expected = np.full(n_bins, float(model.background))
    for a, tau_ns in model.components:
        resp = _exp_response(irfw, irf.bin_width_ps, tau_ns * PS_PER_NS,
                             model.t_shift_ps, n_resp)
        expected[lo:] += a * resp[lo + offset:offset + n_bins]
    return expected


def response_derivatives(tau_ns, irf: Histogram, shift_ps=0.0, n_bins=None, t0_ps=None):
    """d/dtau [per ns] and d/dshift [per ps] of the unit-amplitude response.

    The response is ``convolve_model(DecayModel([(1.0, tau_ns)], 0.0,
    shift_ps), irf, n_bins, t0_ps)``, on the same grid.
    """
    irfw, offset, n_bins = _target_grid(irf, n_bins, t0_ps)
    _, d_tau, d_shift = _exp_response(irfw, irf.bin_width_ps, tau_ns * PS_PER_NS,
                                      shift_ps, n_bins + max(offset, 0),
                                      derivatives=True)
    lo = max(0, -offset)
    out_tau, out_shift = np.zeros(n_bins), np.zeros(n_bins)
    out_tau[lo:] = d_tau[lo + offset:offset + n_bins] * PS_PER_NS
    out_shift[lo:] = d_shift[lo + offset:offset + n_bins]
    return out_tau, out_shift


@dataclass(frozen=True)
class FitOptions(Checked):
    n_components: int = rule(1, lo=1)
    seed: int = rule(0, lo=0)
    fit_shift: bool = False


N_MULTISTART = 12  # lifetime candidates scored before the three best are refined


def _default_fit_range(hist: Histogram, irf: Histogram):
    """2x IRF FWHM before the peak through the last bin with >= 1 count."""
    counts = np.asarray(hist.counts, dtype=float)
    smooth = np.convolve(counts, np.ones(5) / 5.0, mode="same")
    peak = int(np.argmax(smooth))
    irf_fwhm = max(irf.fwhm_ps(), hist.bin_width_ps)
    first = max(0, peak - int(np.ceil(2 * irf_fwhm / hist.bin_width_ps)))
    populated = np.where(counts >= 1)[0]
    last = int(populated[-1]) + 1 if len(populated) else len(counts)
    if last - first < 4:
        first, last = 0, len(counts)
    return first, last


_MU_FLOOR = 1e-12


def _nll(y, mu):
    mu = np.clip(mu, _MU_FLOOR, None)
    return float(np.sum(mu - y * np.log(mu)))


def _solve_linear(responses, y):
    """Nonnegative amplitudes and background by variance-weighted NNLS."""
    from scipy.optimize import nnls
    a_mat = np.stack(list(responses) + [np.ones_like(y)], axis=1)
    w = 1.0 / np.sqrt(np.clip(y, 1.0, None))
    sol, _ = nnls(a_mat * w[:, None], y * w)
    return sol[:-1], sol[-1]


def _poisson_linear(responses, y):
    """Nonnegative amplitudes and background at the Poisson NLL minimum.

    Starts from the weighted NNLS solution and takes damped Newton steps on
    the convex NLL of mu = c @ G. Variables at zero whose gradient points out
    of the feasible set stay there; a step stops short of zero for the
    others (those already at zero are clipped) and is halved until the NLL
    falls. The NLL change is summed bin by bin, so it resolves steps far
    below the NLL's roundoff. A full step with a Newton decrement below
    1e-5 ends the loop: the next decrement would be of its square's order.
    Returns (amplitudes, background, mu).
    """
    amps, bg = _solve_linear(responses, y)
    c = np.append(amps, bg)
    g_mat = np.array(list(responses) + [np.ones_like(y)])
    mu = np.maximum(c @ g_mat, _MU_FLOOR)
    for _ in range(50):
        w = y / mu
        grad = g_mat @ (1.0 - w)
        free = (c > 0) | (grad < 0)
        g_free = g_mat if free.all() else g_mat[free]
        try:
            step = np.linalg.solve((g_free * (w / mu)) @ g_free.T, -grad[free])
        except np.linalg.LinAlgError:
            break
        decrement = -grad[free] @ step
        if not decrement > 1e-12:
            break
        c_free = c[free]
        shrink = (step < 0) & (c_free > 0)
        t = min(1.0, 0.99 * float(np.min(-c_free[shrink] / step[shrink]))) if shrink.any() else 1.0
        while t > 1e-10:
            trial = c.copy()
            trial[free] = np.maximum(c_free + t * step, 0.0)
            mu_t = np.maximum(trial @ g_mat, _MU_FLOOR)
            d_mu = mu_t - mu
            if np.sum(d_mu - y * np.log1p(d_mu / mu)) < 0:
                break
            t *= 0.5
        else:
            break
        c, mu = trial, mu_t
        if t == 1.0 and decrement < 1e-5:
            break
    return c[:-1], c[-1], mu


def _deviance(y, mu, y_safe):
    """NLL minus its value at mu = y (y_safe is y with zeros set to one).

    Every bin's term mu - y - y log(mu/y) is >= 0 and formed before the sum,
    so the total keeps full precision, unlike a difference of two NLLs.
    """
    d = mu - y
    return float(np.sum(d - y * np.log1p(d / y_safe)))


def fit_decay(hist: Histogram, irf: Histogram, options: FitOptions | None = None) -> FitResult:
    """Poisson maximum-likelihood reconvolution fit by variable projection.

    L-BFGS-B minimizes the NLL profiled over amplitudes and background (see
    ``_poisson_linear``) in log lifetime, plus the IRF shift with
    ``fit_shift``, from the three best of N_MULTISTART candidates. The
    gradient follows from the envelope theorem and ``response_derivatives``.
    The fit runs over ``_default_fit_range``. Deterministic for a given
    options.seed. When lifetimes end closer than 10% of each other, or a
    component ends with amplitude 0, the fit repeats with one component
    fewer. Covariance is the inverse Fisher information of the fitted
    parameters; reduced chi^2 uses Pearson weights.
    """
    from scipy.optimize import minimize

    options = options or FitOptions()
    if hist.bin_width_ps != irf.bin_width_ps:
        raise ConfigurationError("histogram and IRF must share their bin width")
    y_full = np.asarray(hist.counts, dtype=float)
    if y_full.sum() <= 0:
        raise FitError("degenerate data: histogram is all zeros")
    first, last = _default_fit_range(hist, irf)
    y = y_full[first:last]
    t0_fit = hist.t0_ps + first * hist.bin_width_ps
    n_bins_fit = last - first
    k = options.n_components
    min_bins = 10 * k * 3
    if np.count_nonzero(y) < min_bins:
        raise FitError(
            f"too few populated bins for {k} components "
            f"({np.count_nonzero(y)} < {min_bins})")
    bw = hist.bin_width_ps
    y_safe = np.where(y > 0, y, 1.0)
    n_evals = 0

    def responses(taus_ns, shift):
        nonlocal n_evals
        n_evals += len(taus_ns)
        return [convolve_model(DecayModel([(1.0, tau)], 0.0, shift), irf,
                               n_bins=n_bins_fit, t0_ps=t0_fit) for tau in taus_ns]

    # multistart over log-spaced lifetime candidates
    rng = np.random.default_rng(options.seed)
    span_ps = n_bins_fit * bw
    lo = max(2.0 * bw, 1.0) / PS_PER_NS
    hi = 0.8 * span_ps / PS_PER_NS
    base = np.geomspace(lo * 2, hi / 2, N_MULTISTART)
    candidates = []
    if k == 1:
        candidates = [(t,) for t in base]
    else:
        for _ in range(N_MULTISTART):
            pick = np.sort(np.exp(rng.uniform(np.log(lo * 2), np.log(hi / 2), k)))
            candidates.append(tuple(pick))
        candidates += [tuple(np.sort(base[[i, -1 - i]])) for i in range(4) if k == 2]

    scored = []
    for taus in candidates:
        resp = responses(np.asarray(taus), 0.0)
        amps, bg = _solve_linear(resp, y)
        mu = sum(a * r for a, r in zip(amps, resp)) + bg
        scored.append((_nll(y, mu), np.asarray(taus)))
    scored.sort(key=lambda s: s[0])

    # outer variables: log tau [ns] per component, then shift in bins
    def at(v):
        taus = np.exp(v[:k])
        shift = float(v[k]) * bw if options.fit_shift else 0.0
        resp = responses(taus, shift)
        amps, bg, mu = _poisson_linear(resp, y)
        derivs = [response_derivatives(tau, irf, shift, n_bins_fit, t0_fit) for tau in taus]
        return taus, shift, resp, derivs, amps, bg, mu

    def profile(v):
        taus, _, _, derivs, amps, _, mu = at(v)
        resid = 1.0 - y / mu
        grad = [a * tau * (resid @ d_tau) for a, tau, (d_tau, _) in zip(amps, taus, derivs)]
        if options.fit_shift:
            grad.append(bw * sum(a * (resid @ d_shift) for a, (_, d_shift) in zip(amps, derivs)))
        return _deviance(y, mu, y_safe), np.asarray(grad)

    bounds = [(np.log(lo / 100), np.log(100 * hi))] * k
    if options.fit_shift:
        bounds.append((None, None))
    runs = []
    for _, taus in scored[:3]:
        v0 = np.log(taus) if not options.fit_shift else np.append(np.log(taus), 0.0)
        runs.append(minimize(profile, v0, jac=True, method="L-BFGS-B", bounds=bounds,
                             options={"ftol": 1e-12, "gtol": 1e-3, "maxfun": 150}))
    best = min(runs, key=lambda res: res.fun)
    if not np.isfinite(best.fun):
        raise FitError("fit did not converge", diagnostics={"best": best})

    taus, shift, resp, derivs, amps, bg, mu = at(best.x)
    order = np.argsort(taus)
    taus, amps = taus[order], amps[order]
    resp = [resp[i] for i in order]
    derivs = [derivs[i] for i in order]

    # merge nearly equal lifetimes, or drop a component the fit switched off
    # (amplitude exactly 0, its lifetime arbitrary), and refit with fewer
    if k > 1 and (np.any(np.diff(taus) / taus[1:] < 0.10) or np.any(amps == 0)):
        merged = fit_decay(hist, irf, replace(options, n_components=k - 1))
        return replace(merged, n_model_evals=merged.n_model_evals + n_evals, merged_from=k)

    model = DecayModel(list(zip(amps, taus)), background=bg, t_shift_ps=shift)
    cov, cond = _fisher_covariance(resp, derivs, amps, mu, options.fit_shift)
    n_params = 2 * k + 1 + int(options.fit_shift)
    dof = max(n_bins_fit - n_params, 1)
    chi2 = float(np.sum((y - mu) ** 2 / mu))
    return FitResult(model=model, covariance=cov, reduced_chi2=chi2 / dof,
                     n_bins_used=n_bins_fit, fit_range_bins=(first, last),
                     nll=_nll(y, mu), n_model_evals=n_evals,
                     converged=bool(best.success),
                     multistart_spread=float(max(r.fun for r in runs) - best.fun),
                     fisher_condition=cond)


def _fisher_covariance(resp, derivs, amps, mu, fit_shift):
    """Inverse Fisher information J^T diag(1/mu) J over the fitted parameters.

    J is the analytic Jacobian of mu in the (a_1..K, tau_1..K [ns],
    background, shift [ps]) layout; the shift's row and column stay zero
    when it is not fitted. Also returns the condition number of the Fisher
    matrix scaled to unit diagonal (inf if a parameter carries no information).
    """
    k = len(amps)
    cols = list(resp) + [a * d_tau for a, (d_tau, _) in zip(amps, derivs)]
    cols.append(np.ones_like(mu))
    cols.append(sum(a * d_shift for a, (_, d_shift) in zip(amps, derivs)))
    fitted = np.array([True] * (2 * k + 1) + [fit_shift])
    jac = np.stack(cols, axis=1)[:, fitted]
    fisher = jac.T @ (jac / mu[:, None])
    cov = np.zeros((2 * k + 2, 2 * k + 2))
    cov[np.ix_(fitted, fitted)] = np.linalg.pinv(fisher, hermitian=True)
    cov = 0.5 * (cov + cov.T)
    scale = np.sqrt(np.diag(fisher))
    cond = float(np.linalg.cond(fisher / np.outer(scale, scale))) if np.all(scale > 0) else np.inf
    return cov, cond


def format_fit_report(result: FitResult, irf_source="simulated"):
    lines = ["# lifetime fit report"]
    errs = result.lifetime_errors_ns()
    fracs = result.amplitude_fractions()
    for i, ((a, tau), err, frac) in enumerate(
            zip(result.model.components, errs, fracs), start=1):
        lines.append(f"component_{i}: tau_ns = {tau:.4f} +- {err:.4f}  "
                     f"amplitude = {a:.4g}  fraction = {frac:.3f}")
    lines.append(f"background_per_bin = {result.model.background:.4g}")
    lines.append(f"t_shift_ps = {result.model.t_shift_ps:.2f}")
    lines.append(f"reduced_chi2 = {result.reduced_chi2:.4f}")
    lines.append(f"fit_range_bins = {result.fit_range_bins[0]}..{result.fit_range_bins[1]}")
    lines.append(f"n_bins_used = {result.n_bins_used}")
    lines.append(f"irf_source = {irf_source}")
    return "\n".join(lines) + "\n"
