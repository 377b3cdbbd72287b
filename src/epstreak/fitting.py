"""IRF-reconvolution lifetime fitting with a Poisson-aware objective.

The model is a sum of causal exponentials convolved with a measured (or
synthetic) IRF histogram plus a flat background. Fitting minimizes the
Poisson negative log-likelihood by variable projection: a box-bounded
Fisher-scoring search (Gauss-Newton with Levenberg-Marquardt damping) runs
over the log lifetimes (and the IRF shift) from fixed multistart candidates,
and at each of its points the nonnegative amplitudes and background are solved
exactly. The search uses the analytic derivatives of the single-pole
recursion and the Fisher matrix of the profiled problem in Kaufman's
approximation; the covariance is the inverse Fisher information.

Everything is numpy: the recursion is a doubling scan, and one bounded
Newton solve (``_poisson_newton``, from the weighted least-squares start of
``_poisson_start``) gives the amplitudes and background wherever the fit
needs them. The multistart ranking stops a candidate's solve once a dual
lower bound (``_nll_floor``) shows that it cannot be among the best.

``fit_decay`` builds one ``_Problem`` per histogram: the data over the fit
range, the lifetime box and the IRF, and the profiling, Fisher matrix and
scoring at any point of the search. Every fit of that histogram, a merged
refit with fewer components included, runs on it and counts its model
evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, count
from math import ceil, comb

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
        for a, tau in self.components:  # each comparison is False on nan
            if not (0 <= a < np.inf and 0 < tau < np.inf):
                raise DomainError("amplitudes must be finite and >= 0, lifetimes finite and > 0")
        if not (0 <= self.background < np.inf and np.isfinite(self.t_shift_ps)):
            raise DomainError("background must be finite and >= 0, t_shift_ps finite")

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
    # the best search met DEVIANCE_TOL, its lifetimes off their bounds and
    # every searched variable informed (positive Fisher diagonal)
    converged: bool
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


def _recursion(x, r):
    """y[m] = r*y[m-1] + x[m] with y[-1] = 0, by a doubling scan.

    After the pass at stride s each y[m] holds the terms r^j x[m-j] for
    j < 2s. The passes stop once r^s underflows to 0, which leaves out only
    terms below the smallest double, or once s reaches len(x).
    """
    y = np.array(x, dtype=float)
    s, p = 1, r
    while s < len(y) and p > 0.0:
        y[s:] += p * y[:-s]
        s, p = 2 * s, p * p
    return y


def _exp_response(irf_weights, bin_width_ps, tau_ps, shift_ps, n_out,
                  derivatives=False):
    """Bin-averaged (irf * causal exponential) on the irf's bin grid.

    The IRF is treated as piecewise constant over its bins, so the integral
    of the exponential kernel over each source bin is exact. Full bins share
    a geometric factor, which turns the sum into a single-pole recursion
    y[m] = r*y[m-1] + x[m] (``_recursion``); the partially covered boundary
    bin gets its own exact weight. With ``derivatives`` the result is
    (y, dy/dtau_ps, dy/dshift_ps).
    """
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
    h = _recursion(x, r)
    y = scale * h + (partial - scale) * x
    if not derivatives:
        return y / delta
    # dh/dr obeys the same recursion driven by h one bin later
    dh_dr = _recursion(np.concatenate(([0.0], h))[:-1], r)
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
    offset, rem = divmod(t0_ps - irf.t0_ps, irf.bin_width_ps)
    if rem:
        raise ConfigurationError("target grid origin must align with the IRF bin grid")
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        total = irf.counts.sum()
    if total <= 0:
        raise ConfigurationError("IRF histogram is empty")
    if not np.isfinite(total):  # counts set after construction, or a sum that overflows
        raise ConfigurationError(f"IRF histogram's total count is not finite ({total})")
    return irf.counts.astype(float) / total, int(offset), n_bins


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
    fit_shift: bool = False


N_MULTISTART = 12  # least number of lifetime candidates ranked for the searches' starts
N_SEARCHES = 3  # scoring searches per fit, from the best-ranked candidates
MERGE_REL = 0.10  # lifetimes closer than this, relative, are one component
DEVIANCE_TOL = 1e-10  # a search stops once a full scoring step would gain less
MAX_LOG_STEP = 1.0  # trust radius of one scoring step in each log lifetime
MAX_ITERATIONS = 100  # scoring steps per start; a guard, not the stopping rule


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


def _poisson_linear(responses, y):
    """Nonnegative amplitudes and background at the Poisson NLL minimum.

    Newton steps (``_poisson_newton``) from the weighted least-squares
    start (``_poisson_start``). ``fit_decay`` calls the two parts itself,
    with y's weights computed once per fit. Returns (amplitudes, background,
    mu).
    """
    return _poisson_newton(*_poisson_start(responses, y, _start_weights(y)), y)


def _start_weights(y):
    """What ``_poisson_start`` needs of y alone: its inverse variances, background floor and total.

    Each bin's variance is the counts' 5-bin running mean, at least 1.
    """
    v = 1.0 / np.clip(np.convolve(y, np.ones(5) / 5.0, mode="same"), 1.0, None)
    return v, y.mean() / len(y), y.sum()


def _poisson_start(responses, y, weights):
    """The design matrix, the solver's start c and its mu = c @ G (at least _MU_FLOOR).

    The start is the variance-weighted least-squares solution (``weights``
    from ``_start_weights(y)``), projected onto c >= 0 with the background
    kept above its floor so that mu > 0, and scaled so that the model holds
    the observed counts.
    """
    v, bg_floor, total = weights
    g_mat = np.array(list(responses) + [np.ones_like(y)])
    c = np.maximum(np.linalg.lstsq((g_mat * v) @ g_mat.T, g_mat @ (v * y), rcond=None)[0], 0.0)
    c[-1] = max(c[-1], bg_floor)
    c *= total / (c @ g_mat.sum(axis=1))
    return g_mat, c, np.maximum(c @ g_mat, _MU_FLOOR)


def _poisson_newton(g_mat, c, mu, y, nll_above=np.inf):
    """Newton steps on the convex NLL of mu = c @ G over c >= 0, from c.

    Each step goes to where ``_bounded_newton`` leads on the quadratic model,
    halved until the NLL falls, so the NLL never rises. The NLL change is
    summed bin by bin, so it resolves steps far below the NLL's roundoff.
    A full step with a Newton decrement below 1e-5 ends the loop: the next
    decrement would be of its square's order.
    Returns (amplitudes, background, mu), or None once ``_nll_floor`` at an
    iterate shows that the NLL's minimum lies above ``nll_above``.
    """
    g_sum = g_mat.sum(axis=1)
    for _ in range(50):
        w = y / mu
        q = g_mat @ w
        if nll_above < np.inf and _nll_floor(y, mu, q, g_sum) > nll_above:
            return None
        grad = g_sum - q
        hess = (g_mat * (w / mu)) @ g_mat.T
        target = _bounded_newton(hess, grad, c)
        decrement = grad @ (c - target)
        if not decrement > 1e-12:
            break
        t = 1.0
        while t > 1e-10:
            trial = target if t == 1.0 else c + t * (target - c)
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


def _nll_floor(y, mu, q, g_sum):
    """A lower bound on the NLL's minimum over c >= 0, from any mu > 0 and q = G @ (y / mu).

    By weak duality: w = 1 - s y / mu with s = min(g_sum / q) over q > 0
    is dual feasible (G @ w >= 0), which bounds the NLL from below by
    y.sum() (1 + log s) - y @ log(mu). At the minimum s = 1 and the bound
    is the NLL itself, so it tightens as Newton converges.
    """
    s = np.min(np.divide(g_sum, q, out=np.full_like(q, np.inf), where=q > 0))
    return float(y.sum() * (1.0 + np.log(s)) - y @ np.log(mu))


def _bounded_newton(hess, grad, c):
    """c + d at the minimum of the quadratic model grad @ d + d @ hess @ d / 2 over c + d >= 0.

    Lawson and Hanson's active-set method (*Solving Least Squares Problems*,
    1974, ch. 23) on the model, from c. The free variables take their
    Newton step; a step that would take some below zero stops where the
    first reaches zero, which is put exactly on 0 and fixed. Once a step
    ends inside, the fixed variable whose model gradient is most negative
    joins, until none has a negative gradient, or until the one that joins
    would leave at once (within roundoff, on a near-singular model). The
    model is taken in units that give hess a unit diagonal (a variable
    without curvature keeps its own) with a ridge of 1e-12 added, so that
    along a direction without curvature, which near-collinear columns or
    bins without counts leave, the step runs on to the nearest bound.
    """
    diag = np.diag(hess)
    scale = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    h = hess * scale * scale[:, None] + 1e-12 * np.eye(len(c))
    g, x0 = grad * scale, c / scale
    x, g_x = x0.copy(), g
    free = x > 0
    for _ in range(3 * len(x)):
        if free.any():
            step = np.linalg.solve(h[free][:, free], -g_x[free])
            x_free = x[free]
            ratio = np.divide(-x_free, step, out=np.full(len(step), np.inf), where=step < 0)
            t = min(1.0, ratio.min())
            if t == 0.0:
                break
            x[free] = np.where(ratio <= t, 0.0, x_free + t * step)
            g_x = g + h @ (x - x0)
            if t < 1.0:
                free[free] = ratio > t
                continue
        fixed = ~free & (g_x < 0)
        if not fixed.any():
            break
        free[np.argmin(np.where(fixed, g_x, np.inf))] = True
    return x * scale


def _deviance(y, mu, y_safe):
    """NLL minus its value at mu = y (y_safe is y with zeros set to one).

    Every bin's term mu - y - y log(mu/y) is >= 0 and formed before the sum,
    so the total keeps full precision, unlike a difference of two NLLs.
    """
    d = mu - y
    return float(np.sum(d - y * np.log1p(d / y_safe)))


def fit_decay(hist: Histogram, irf: Histogram, options: FitOptions | None = None) -> FitResult:
    """Poisson maximum-likelihood reconvolution fit by variable projection.

    Fisher scoring minimizes the deviance profiled over amplitudes and
    background (see ``_poisson_linear``) in log lifetime, plus the IRF
    shift with ``fit_shift``. The lifetime candidates (``_candidates``) are
    ranked on that same profiled deviance, ties by candidate order, and the
    N_SEARCHES best start the searches (see ``_scoring_search``). They are
    profiled in the order of the deviance at the solver's start, an upper
    bound on the profiled one since Newton only descends, so the best come
    early. Once N_SEARCHES are profiled, a candidate's solve stops as soon
    as ``_nll_floor`` puts it above the N_SEARCHES-th best so far. So the
    starts are those that profiling every candidate in full gives, and each
    candidate's responses are computed once. The gradient follows from the
    envelope theorem and ``response_derivatives``. The fit runs over
    ``_default_fit_range`` and draws no random numbers. All of this works on
    one ``_Problem``, built once per call. When lifetimes end closer than
    MERGE_REL of each other, or a component ends with amplitude 0, the same
    problem is fitted again with one component fewer. Covariance is the
    inverse Fisher information of the fitted parameters; reduced chi^2 uses
    Pearson weights.
    """
    options = options or FitOptions()
    return _Problem(hist, irf, options.fit_shift).fit(options.n_components)


@dataclass
class _Point:
    """The fit at outer variables v: amplitudes and background profiled, or at their start."""
    v: np.ndarray
    taus: np.ndarray
    shift: float
    g_mat: np.ndarray  # the unit responses, then a row of ones for the background
    amps: np.ndarray
    bg: float
    mu: np.ndarray
    deviance: float = np.inf  # of the profiled fit; inf at the solver's start


class _Problem:
    """What the fit knows of one histogram: its data over the fit range, the lifetime box, the IRF.

    The outer variables v are the log lifetimes [ns], then the shift in
    bins with ``fit_shift``. ``start(v)`` computes the responses and the
    amplitude solver's start, ``refine`` profiles from there, ``fisher``
    gives the Jacobian and Fisher matrix of a point and ``scoring`` the
    deviance gradient and Fisher matrix over v. The lifetimes lie in
    [lo, 100 hi] and the candidates in [2 lo, hi / 2]. ``n_evals`` counts the
    ``convolve_model`` calls of every fit of this problem.
    """

    def __init__(self, hist: Histogram, irf: Histogram, fit_shift: bool):
        if hist.bin_width_ps != irf.bin_width_ps:
            raise ConfigurationError("histogram and IRF must share their bin width")
        y_full = np.asarray(hist.counts, dtype=float)
        if y_full.sum() <= 0:
            raise FitError("degenerate data: histogram is all zeros")
        self.first, self.last = _default_fit_range(hist, irf)
        self.y = y = y_full[self.first:self.last]
        self.y_safe = np.where(y > 0, y, 1.0)
        self.weights = _start_weights(y)
        self.bw = bw = hist.bin_width_ps
        self.t0 = hist.t0_ps + self.first * bw
        self.n_bins = self.last - self.first
        # no lifetime below two bins: the data cannot tell it from the response itself
        self.lo = max(2.0 * bw, 1.0) / PS_PER_NS
        self.hi = 0.8 * (self.n_bins * bw) / PS_PER_NS
        self.irf, self.fit_shift = irf, fit_shift
        self.n_evals = 0

    def start(self, v):
        """The point at v, its amplitudes and background at the solver's start."""
        k = len(v) - int(self.fit_shift)
        taus = np.exp(v[:k])
        shift = float(v[k]) * self.bw if self.fit_shift else 0.0
        self.n_evals += k
        resp = [convolve_model(DecayModel([(1.0, tau)], 0.0, shift), self.irf,
                               n_bins=self.n_bins, t0_ps=self.t0) for tau in taus]
        g_mat, c, mu = _poisson_start(resp, self.y, self.weights)
        return _Point(v, taus, shift, g_mat, c[:-1], c[-1], mu)

    def refine(self, p, nll_above=np.inf):
        """p profiled, or None once ``_poisson_newton`` shows its NLL above ``nll_above``."""
        solved = _poisson_newton(p.g_mat, np.append(p.amps, p.bg), p.mu, self.y, nll_above)
        if solved is None:
            return None
        amps, bg, mu = solved
        return replace(p, amps=amps, bg=bg, mu=mu, deviance=_deviance(self.y, mu, self.y_safe))

    def fisher(self, p):
        """``_fisher``'s Jacobian and Fisher matrix at p."""
        derivs = [response_derivatives(tau, self.irf, p.shift, self.n_bins, self.t0)
                  for tau in p.taus]
        return _fisher(p.g_mat[:-1], derivs, p.amps, p.mu, self.fit_shift)

    def scoring(self, p):
        """The deviance gradient and the Fisher matrix over p's outer variables."""
        k = len(p.taus)
        jac, fisher = self.fisher(p)
        grad = jac.T @ (1.0 - self.y / p.mu)
        # lifetimes and shift in fisher's layout, and the linear variables off their bound
        outer = np.r_[k:2 * k, 2 * k + 1:len(grad)]
        linear = np.r_[0:k, 2 * k][np.append(p.amps, p.bg) > 0]
        scale = np.append(p.taus, self.bw)[:len(outer)]  # d(tau, shift)/dv
        f_oo = fisher[np.ix_(outer, outer)]
        if len(linear):
            f_lo = fisher[np.ix_(linear, outer)]
            f_oo = f_oo - f_lo.T @ np.linalg.lstsq(fisher[np.ix_(linear, linear)], f_lo,
                                                   rcond=None)[0]
        return scale * grad[outer], f_oo * np.outer(scale, scale)

    def fit(self, k):
        """The fit with k components, or with fewer once a merge fires."""
        min_bins = 10 * k * 3
        if np.count_nonzero(self.y) < min_bins:
            raise FitError(
                f"too few populated bins for {k} components "
                f"({np.count_nonzero(self.y)} < {min_bins})")
        y, n_v = self.y, k + int(self.fit_shift)
        cands = [self.start(np.append(np.log(taus), 0.0)[:n_v])
                 for taus in _candidates(self.lo, self.hi, k)]
        # NLL minus deviance, plus a margin of 1e-8 of the counts, far above the sums' roundoff
        nll_offset = y.sum() * (1.0 + 1e-8) - y @ np.log(self.y_safe)
        refined = {}  # profiled in the order of the start's deviance
        for i in sorted(range(len(cands)), key=lambda i: _deviance(y, cands[i].mu, self.y_safe)):
            best = sorted(p.deviance for p in refined.values())
            above = best[N_SEARCHES - 1] + nll_offset if len(best) >= N_SEARCHES else np.inf
            p = self.refine(cands[i], nll_above=above)
            if p is not None:
                refined[i] = p
        # in candidate order, so the stable sort breaks deviance ties by index
        starts = sorted((refined[i] for i in sorted(refined)), key=lambda p: p.deviance)
        runs = [_scoring_search(p, self) for p in starts[:N_SEARCHES]]
        best, converged = min(runs, key=lambda run: run[0].deviance)
        if not np.isfinite(best.deviance):
            raise FitError("fit did not converge",
                           diagnostics={"model_evaluations": self.n_evals,
                                        "best_deviance": str(best.deviance)})

        # merge nearly equal lifetimes, or drop a component the fit switched off
        # (amplitude exactly 0, its lifetime arbitrary), and fit with fewer
        if k > 1 and (_collapsed(best.taus) or np.any(best.amps == 0)):
            return replace(self.fit(k - 1), merged_from=k)

        order = np.argsort(best.taus)
        best = replace(best, v=np.append(best.v[order], best.v[k:]), taus=best.taus[order],
                       g_mat=best.g_mat[np.append(order, k)], amps=best.amps[order])
        model = DecayModel(list(zip(best.amps, best.taus)), background=best.bg,
                           t_shift_ps=best.shift)
        cov, cond = _fisher_covariance(self.fisher(best)[1], self.fit_shift)
        n_params = 2 * k + 1 + int(self.fit_shift)
        dof = max(self.n_bins - n_params, 1)
        chi2 = float(np.sum((y - best.mu) ** 2 / best.mu))
        return FitResult(model=model, covariance=cov, reduced_chi2=chi2 / dof,
                         n_bins_used=self.n_bins, fit_range_bins=(self.first, self.last),
                         nll=_nll(y, best.mu), n_model_evals=self.n_evals, converged=converged,
                         multistart_spread=max(run[0].deviance for run in runs) - best.deviance,
                         fisher_condition=cond)


def _candidates(lo, hi, k):
    """Every k-subset of the coarsest geometric grid on [2 lo, hi / 2] with N_MULTISTART or more."""
    n = next(n for n in count(k) if comb(n, k) >= N_MULTISTART)
    return list(combinations(np.geomspace(2 * lo, hi / 2, n), k))


def _collapsed(taus):
    """Whether two of the lifetimes are within MERGE_REL of each other."""
    taus = np.sort(taus)
    return bool(np.any(np.diff(taus) / taus[1:] < MERGE_REL))


def _scoring_search(p, problem):
    """Box-bounded Fisher scoring with Levenberg-Marquardt damping, from point p of ``problem``.

    ``problem.refine(problem.start(v))`` profiles the fit at v;
    ``problem.scoring(p)`` gives the deviance gradient and the Fisher matrix
    over v, Kaufman's approximation of the variable-projection Hessian
    (Golub and Pereyra, Inverse Problems 19, R1 (2003)). The first
    ``len(p.taus)`` variables are log lifetimes, in [log lo, log 100 hi] of
    the problem; the shift is unbounded. A variable
    stays where it is while it sits on a bound the gradient pushes against,
    or carries no information (a lifetime whose amplitude is 0). Damping is
    Marquardt's, scaled by the Fisher diagonal (More, LNM 630 (1978)), and
    follows Nielsen's update (Madsen, Nielsen and Tingleff, *Methods for
    non-linear least squares problems*, 2004, sec. 3.2). It also grows until
    no log lifetime moves by more than MAX_LOG_STEP: far from the current
    point, the quadratic model of a weak component says nothing.

    The search stops when the full Gauss-Newton step predicts a deviance
    decrement below DEVIANCE_TOL: converged, unless a variable there
    carries no information, so that the data do not fix it, or that step
    would end a log lifetime on or past its bound, where the box, not the
    data, stops it. It stops unconverged when no damped step lowers the
    deviance, or when two lifetimes collapse, since the fit then refits
    with one component fewer. Returns (point, converged).
    """
    n_tau = len(p.taus)
    lower = np.append(np.full(n_tau, np.log(problem.lo)), -np.inf)[:len(p.v)]
    upper = np.append(np.full(n_tau, np.log(100 * problem.hi)), np.inf)[:len(p.v)]
    damping, growth = 1e-3, 2.0
    for _ in range(MAX_ITERATIONS):
        grad, fisher = problem.scoring(p)
        diag = np.diag(fisher)
        free = (diag > 0) & ~((p.v <= lower) & (grad > 0)) & ~((p.v >= upper) & (grad < 0))
        g, f = grad[free], fisher[np.ix_(free, free)]
        newton = np.linalg.lstsq(f, -g, rcond=None)[0]
        if -0.5 * (g @ newton) < DEVIANCE_TOL:
            end = p.v.copy()
            end[free] += newton  # the shift's bounds are infinite
            return p, bool(np.all(diag > 0) and np.all((lower < end) & (end < upper)))
        n_free_tau = np.count_nonzero(free[:n_tau])
        while True:
            step = np.linalg.solve(f + damping * np.diag(diag[free]), -g)
            if np.max(np.abs(step[:n_free_tau]), initial=0.0) > MAX_LOG_STEP:
                damping *= 2.0  # more damping gives a shorter step
                continue
            v = p.v.copy()
            v[free] += step
            trial = problem.refine(problem.start(np.clip(v, lower, upper)))
            gain = p.deviance - trial.deviance
            if gain > 0:
                # Nielsen's update: damping follows the model's predicted gain
                rho = gain / -(g @ step + 0.5 * step @ f @ step)
                damping *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
                growth = 2.0
                break
            damping *= growth
            growth *= 2.0
            if damping > 1e10:
                return p, False
        p = trial
        if _collapsed(p.taus):
            return p, False
    return p, False


def _fisher(resp, derivs, amps, mu, fit_shift):
    """Jacobian J of mu and Fisher information J^T diag(1/mu) J.

    Over the fitted parameters in the (a_1..K, tau_1..K [ns], background,
    shift [ps]) layout; the shift's column is left out when it is not fitted.
    """
    cols = list(resp) + [a * d_tau for a, (d_tau, _) in zip(amps, derivs)]
    cols.append(np.ones_like(mu))
    if fit_shift:
        cols.append(sum(a * d_shift for a, (_, d_shift) in zip(amps, derivs)))
    jac = np.stack(cols, axis=1)
    return jac, jac.T @ (jac / mu[:, None])


def _fisher_covariance(fisher, fit_shift):
    """Inverse of ``_fisher``'s matrix, in the layout with the shift's row and column.

    The shift's row and column stay zero when it is not fitted. A fitted
    parameter that carries no information (Fisher diagonal 0) gets an
    infinite variance. Also returns the condition number of the Fisher
    matrix scaled to unit diagonal (inf if a parameter carries no
    information).
    """
    n = len(fisher) + int(not fit_shift)
    fitted = np.arange(n) < len(fisher)
    cov = np.zeros((n, n))
    cov[np.ix_(fitted, fitted)] = np.linalg.pinv(fisher, hermitian=True)
    cov = 0.5 * (cov + cov.T)
    scale = np.sqrt(np.diag(fisher))
    blind = np.flatnonzero(scale == 0)  # fitted parameters come first in the layout
    cov[blind, blind] = np.inf
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
