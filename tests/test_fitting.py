import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.special import erfc

from epstreak import experiment, fitting
from epstreak.config import load_config, override
from epstreak.errors import ConfigurationError, DomainError, FitError
from epstreak.fitting import (DecayModel, FitOptions, _recursion, convolve_model,
                              fit_decay, format_fit_report, response_derivatives)
from epstreak.tcspc import Histogram, read_histogram_csv, rebin
from epstreak.twins import TimeFrequencyMap
from epstreak.units import FWHM_PER_SIGMA

from reference import multistart_ranking, slice_map

BW_PS = 4


def _gaussian_irf(fwhm_ps=260.0, bin_width_ps=BW_PS, t0_ps=-1000, n_bins=3500,
                  total=1e6):
    sigma = fwhm_ps / FWHM_PER_SIGMA
    t = t0_ps + (np.arange(n_bins) + 0.5) * bin_width_ps
    w = np.exp(-0.5 * (t / sigma) ** 2)
    counts = total * w / w.sum()
    return Histogram(bin_width_ps, t0_ps, counts)


def _delta_irf(n_bins=400, total=100_000, index=0):
    counts = np.zeros(n_bins)
    counts[index] = total
    return Histogram(BW_PS, 0, counts)


def _noiseless_hist(model, irf, total=2e6):
    mu = convolve_model(model, irf)
    counts = total * mu / mu.sum()
    return Histogram(irf.bin_width_ps, irf.t0_ps, counts), counts


def test_delta_irf_gives_bin_averaged_exponential():
    # delta excitation at the first bin center: each bin holds the exact
    # integral of exp(-t/tau) over its extent, divided by the bin width
    irf = _delta_irf()
    tau_ps = 1000.0
    d = float(BW_PS)
    mu = convolve_model(DecayModel([(1.0, tau_ps / 1000.0)]), irf)
    m = np.arange(1, len(mu))
    full = tau_ps / d * (np.exp(d / (2 * tau_ps)) - np.exp(-d / (2 * tau_ps)))
    assert mu[0] == pytest.approx(tau_ps / d * (1 - np.exp(-d / (2 * tau_ps))),
                                  rel=1e-12)
    assert np.allclose(mu[1:], full * np.exp(-m * d / tau_ps), rtol=1e-12)


@given(st.sampled_from([800, 3500]), st.floats(1e-20, 0.9999), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_recursion_matches_lfilter(n, r, seed):
    # an IRF-like drive: a block of weights in [0, 1) between stretches of zeros
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    start = int(rng.integers(0, n))
    x[start:start + 300] = rng.random(len(x[start:start + 300]))
    h_ref = lfilter([1.0], [1.0, -r], x)
    h = _recursion(x, r)
    # dh/dr is the same recursion driven by h one bin later
    dh_dr = _recursion(np.concatenate(([0.0], h))[:-1], r)
    # below 1e-300 lfilter itself works in subnormals, with few significant bits
    for got, want in ((h, h_ref), (dh_dr, lfilter([0.0, 1.0], [1.0, -r], h_ref))):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-300)


@st.composite
def _near_equal_lifetimes(draw):
    """One to three lifetimes, each 1e-5 to 1e-2 (relative) above the one before."""
    gaps = draw(st.lists(st.floats(1e-5, 1e-2), max_size=2))
    return tuple(draw(st.floats(0.2, 2.0)) * np.cumprod([1.0] + [1.0 + g for g in gaps]))


# two columns 1e-4 apart, whose optimum puts one amplitude exactly on zero
@example(taus=(1.1293, 1.12941), amps=[1000.0, 0.0, 0.0], background=0.01, seed=0)
@given(taus=_near_equal_lifetimes(),
       amps=st.lists(st.one_of(st.just(0.0), st.floats(10.0, 5000.0)), min_size=3, max_size=3),
       background=st.floats(0.01, 10.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_poisson_linear_matches_scipy(taus, amps, background, seed):
    irf = _gaussian_irf(n_bins=800)
    cols = [convolve_model(DecayModel([(1.0, tau)]), irf) for tau in taus]
    g = np.stack(cols + [np.ones(len(cols[0]))])
    truth = np.append(amps[:len(taus)], background)
    y = np.random.default_rng(seed).poisson(truth @ g).astype(float)
    assume(y.any())
    got_amps, got_bg, mu = fitting._poisson_linear(cols, y)
    assert np.all(got_amps >= 0) and got_bg >= 0
    y_safe = np.where(y > 0, y, 1.0)
    deviance = fitting._deviance(y, mu, y_safe)
    # L-BFGS-B over c >= 0, in units that give every variable a comparable scale
    scale = np.append([y.sum() / col.sum() for col in cols], 1.0)

    def objective(x):
        m = (x * scale) @ g
        d = m - y
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sum(d - y * np.log1p(d / y_safe)), scale * (g @ (1.0 - y / m))

    for start in (np.append(got_amps, got_bg), truth):
        opt = minimize(objective, start / scale, jac=True, method="L-BFGS-B",
                       bounds=[(0.0, None)] * len(start),
                       options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 10_000})
        assert deviance <= opt.fun + 1e-6 * abs(opt.fun)


def test_background_only_constant():
    irf = _delta_irf()
    mu = convolve_model(DecayModel([(0.0, 1.0)], background=7.5), irf)
    assert np.allclose(mu, 7.5)


def test_amplitude_linearity():
    irf = _gaussian_irf()
    one = convolve_model(DecayModel([(1.0, 1.13)]), irf)
    three = convolve_model(DecayModel([(3.0, 1.13)]), irf)
    assert np.allclose(three, 3.0 * one, rtol=1e-12)
    pair = convolve_model(DecayModel([(1.0, 1.13), (2.0, 0.4)]), irf)
    second = convolve_model(DecayModel([(2.0, 0.4)]), irf)
    assert np.allclose(pair, one + second, rtol=1e-12)


def test_gaussian_irf_matches_closed_form():
    # Gaussian (sigma) convolved with a normalized causal exponential (tau):
    # h(t) = 1/(2 tau) exp(sigma^2/(2 tau^2) - t/tau) erfc((sigma/tau - t/sigma)/sqrt 2)
    fwhm, tau_ps = 260.0, 1130.0
    sigma = fwhm / FWHM_PER_SIGMA
    irf = _gaussian_irf(fwhm)
    mu = convolve_model(DecayModel([(1.0, tau_ps / 1000.0)]), irf)
    t = irf.t0_ps + (np.arange(len(mu)) + 0.5) * BW_PS
    h = (1.0 / (2 * tau_ps) * np.exp(sigma ** 2 / (2 * tau_ps ** 2) - t / tau_ps)
         * erfc((sigma / tau_ps - t / sigma) / np.sqrt(2)))
    a = mu / mu.sum()
    b = h / h.sum()
    assert np.max(np.abs(a - b)) / a.max() < 1e-3


def test_noiseless_single_fit_recovers_exactly():
    irf = _gaussian_irf()
    hist, _ = _noiseless_hist(DecayModel([(50.0, 1.13)]), irf)
    res = fit_decay(hist, irf, FitOptions(n_components=1))
    assert res.model.components[0][1] == pytest.approx(1.13, rel=1e-6)
    assert res.reduced_chi2 < 1e-6


def test_count_scaling_leaves_lifetime_invariant():
    irf = _gaussian_irf()
    hist, counts = _noiseless_hist(DecayModel([(50.0, 1.13)]), irf)
    scaled = Histogram(irf.bin_width_ps, irf.t0_ps, counts * 3.0)
    a = fit_decay(hist, irf, FitOptions(n_components=1))
    b = fit_decay(scaled, irf, FitOptions(n_components=1))
    assert (b.model.components[0][1]
            == pytest.approx(a.model.components[0][1], rel=1e-6))


def test_noiseless_two_component_fit():
    irf = _gaussian_irf()
    hist, _ = _noiseless_hist(DecayModel([(30.0, 0.79), (20.0, 1.51)]), irf,
                              total=5e6)
    res = fit_decay(hist, irf, FitOptions(n_components=2))
    taus = [tau for _, tau in res.model.components]
    assert taus[0] == pytest.approx(0.79, rel=0.05)
    assert taus[1] == pytest.approx(1.51, rel=0.05)


def test_grid_offset_matches_shifted_window():
    irf = _gaussian_irf(n_bins=1000)
    model = DecayModel([(1.0, 0.8)])
    full = convolve_model(model, irf, n_bins=1000)
    offset = convolve_model(model, irf, n_bins=900,
                            t0_ps=irf.t0_ps + 100 * BW_PS)
    assert np.allclose(offset, full[100:], rtol=1e-12)
    for misaligned_ps in (3, 0.5, 4.5):
        with pytest.raises(ConfigurationError):
            convolve_model(model, irf, n_bins=50, t0_ps=irf.t0_ps + misaligned_ps)


def _overflowing_irf():
    counts = np.zeros(200)
    counts[2:4] = 1e308  # each finite, so the Histogram is built; their sum is inf
    return Histogram(BW_PS, 0, counts)


def _nan_irf():
    irf = _gaussian_irf(n_bins=200)
    irf.counts = irf.counts.astype(float)
    irf.counts[5] = np.nan  # after construction, past the Histogram's own check
    return irf


@pytest.mark.parametrize("make_irf", [_overflowing_irf, _nan_irf],
                         ids=["sum-overflows", "nan-count"])
def test_irf_without_a_finite_total_is_refused(make_irf):
    irf = make_irf()
    with pytest.raises(ConfigurationError, match="not finite"):
        convolve_model(DecayModel([(1.0, 0.8)]), irf, n_bins=3)
    with pytest.raises(ConfigurationError, match="not finite"):
        response_derivatives(0.8, irf, n_bins=3)


@pytest.mark.parametrize("components,background,t_shift_ps", [
    ([(1.0, np.nan)], 0.0, 0.0),
    ([(np.nan, 1.0)], 0.0, 0.0),
    ([(np.inf, 1.0)], 0.0, 0.0),
    ([(1.0, np.inf)], 0.0, 0.0),
    ([(1.0, 1.0)], np.nan, 0.0),
    ([(1.0, 1.0)], np.inf, 0.0),
    ([(1.0, 1.0)], 0.0, np.nan),
    ([(1.0, 1.0)], 0.0, -np.inf),
])
def test_decay_model_rejects_non_finite(components, background, t_shift_ps):
    with pytest.raises(DomainError):
        DecayModel(components, background=background, t_shift_ps=t_shift_ps)


def test_multistart_candidates():
    lo, hi = 0.008, 11.2
    assert np.array_equal(np.ravel(fitting._candidates(lo, hi, 1)),
                          np.geomspace(2 * lo, hi / 2, fitting.N_MULTISTART))
    for k in (2, 3, 4):
        candidates = fitting._candidates(lo, hi, k)
        assert len(set(candidates)) == len(candidates) >= fitting.N_MULTISTART
        grid = np.unique(candidates)
        assert np.array_equal(grid, np.geomspace(2 * lo, hi / 2, len(grid)))
        assert all(len(c) == k and np.all(np.diff(c) > 0) for c in candidates)


def _search_starts(monkeypatch, hist, irf, k):
    """The points that start the fit's scoring searches, in order."""
    seen = []
    search = fitting._scoring_search

    def recording(p, *args):
        seen.append(p)
        return search(p, *args)

    with monkeypatch.context() as m:
        m.setattr(fitting, "_scoring_search", recording)
        fit_decay(hist, irf, FitOptions(n_components=k))
    return seen[:fitting.N_SEARCHES]  # a merge refits and searches again


def _assert_starts_are_the_best_profiled(monkeypatch, hist, irf, k):
    got = _search_starts(monkeypatch, hist, irf, k)
    want = multistart_ranking(hist, irf, k)[:fitting.N_SEARCHES]
    assert [(p.deviance, p.v.tolist()) for p in got] == [(d, v.tolist()) for d, _, v in want]


def _bench_lifetime_inputs():
    path = Path(__file__).resolve().parents[1] / "bench" / "lifetime_inputs.py"
    spec = importlib.util.spec_from_file_location("lifetime_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# At input seed 2011 the 15,000-count 0.101 ns decay's third best candidate
# is only the fourth best start: ranking on the starts alone would miss it.
@pytest.mark.parametrize("seed", [521, 2011])
def test_single_component_starts_are_the_best_profiled(monkeypatch, tmp_path, seed):
    """The ranking that prunes Newton solves picks the starts that profiling every candidate picks."""
    inputs = _bench_lifetime_inputs()
    inputs.write_inputs(tmp_path, seed)
    irf = read_histogram_csv(tmp_path / "irf.csv")
    for name, _, _ in inputs.decays():
        _assert_starts_are_the_best_profiled(
            monkeypatch, read_histogram_csv(tmp_path / f"{name}.csv"), irf, 1)


# On five of these six mixtures the starts' own best three are not the profiled best three.
@pytest.mark.parametrize("components", [[(10.0, 0.5), (40.0, 2.0)],
                                        [(10.0, 0.1), (40.0, 2.0)],
                                        [(10.0, 0.1), (40.0, 0.5), (20.0, 2.0)]])
@pytest.mark.parametrize("seed", [1, 2])
def test_mixture_starts_are_the_best_profiled(monkeypatch, components, seed):
    irf = _gaussian_irf()
    hist = _poisson_hist(DecayModel(components, background=1e-3), irf, 2.4e5, seed)
    _assert_starts_are_the_best_profiled(monkeypatch, hist, irf, len(components))


def test_convolution_commutes_with_rebin():
    # bins far below tau/50 so midpoint discretization error stays small
    irf_fine = _gaussian_irf(bin_width_ps=4, n_bins=3000)
    irf_coarse = rebin(irf_fine, 4)
    model = DecayModel([(1.0, 1.13)])
    fine = convolve_model(model, irf_fine)
    coarse = convolve_model(model, irf_coarse)
    grouped = fine.reshape(-1, 4).sum(axis=1) / 4.0
    assert np.max(np.abs(grouped - coarse)) / coarse.max() < 0.005
    # per-bin agreement everywhere the curve carries appreciable signal
    mask = coarse > coarse.max() * 0.1
    rel = np.abs(grouped[mask] - coarse[mask]) / coarse[mask]
    assert rel.max() < 0.005


def test_poisson_bias_and_coverage():
    irf = _gaussian_irf(n_bins=2000)
    model = DecayModel([(1.0, 1.0)])
    mu = convolve_model(model, irf)
    mu = 2e5 * mu / mu.sum()
    rng = np.random.default_rng(2024)
    taus, hits = [], 0
    n_rep = 30
    for _ in range(n_rep):
        y = rng.poisson(mu)
        hist = Histogram(BW_PS, irf.t0_ps, y.astype(np.int64))
        res = fit_decay(hist, irf, FitOptions(n_components=1))
        tau_hat = res.model.components[0][1]
        err = res.lifetime_errors_ns()[0]
        taus.append(tau_hat)
        if abs(tau_hat - 1.0) <= err:
            hits += 1
    taus = np.asarray(taus)
    assert abs(taus.mean() - 1.0) < 0.01
    assert 0.5 <= hits / n_rep <= 0.95


@pytest.mark.parametrize("grid", [None, (300, 20), (300, -20)])
@pytest.mark.parametrize("irf_kind", ["delta", "gaussian"])
@pytest.mark.parametrize("tau_ns", [0.1, 1.13])
@pytest.mark.parametrize("shift_ps", [-2.4, -1.6, 1.6, 2.4, 37.0])
def test_response_derivatives_match_central_differences(shift_ps, tau_ns, irf_kind, grid):
    # with 4 ps bins the boundary bin changes at shifts of +-2 ps: the shifts
    # sit on both sides of those boundaries and no difference step crosses one
    irf = _delta_irf(index=10) if irf_kind == "delta" else _gaussian_irf(n_bins=1000)
    n_bins, t0_ps = None, None
    if grid is not None:
        n_bins, t0_ps = grid[0], irf.t0_ps + grid[1] * BW_PS

    def resp(tau, shift):
        return convolve_model(DecayModel([(1.0, tau)], 0.0, shift), irf, n_bins, t0_ps)

    d_tau, d_shift = response_derivatives(tau_ns, irf, shift_ps, n_bins, t0_ps)
    h_tau, h_shift = 1e-5 * tau_ns, 0.01
    fd_tau = (resp(tau_ns + h_tau, shift_ps) - resp(tau_ns - h_tau, shift_ps)) / (2 * h_tau)
    fd_shift = (resp(tau_ns, shift_ps + h_shift) - resp(tau_ns, shift_ps - h_shift)) / (2 * h_shift)
    assert np.max(np.abs(fd_tau)) > 0 and np.max(np.abs(fd_shift)) > 0
    assert np.max(np.abs(d_tau - fd_tau)) <= 1e-6 * np.max(np.abs(fd_tau))
    assert np.max(np.abs(d_shift - fd_shift)) <= 1e-6 * np.max(np.abs(fd_shift))


def test_noiseless_fit_recovers_shift():
    irf = _gaussian_irf()
    hist, _ = _noiseless_hist(DecayModel([(50.0, 1.13)], t_shift_ps=37.0), irf)
    res = fit_decay(hist, irf, FitOptions(n_components=1, fit_shift=True))
    assert res.model.t_shift_ps == pytest.approx(37.0, abs=0.1)
    assert res.model.components[0][1] == pytest.approx(1.13, rel=1e-5)


def _poisson_hist(model, irf, total, seed):
    mu = convolve_model(model, irf)
    y = np.random.default_rng(seed).poisson(total * mu / mu.sum())
    return Histogram(irf.bin_width_ps, irf.t0_ps, y)


@pytest.mark.parametrize("fit_shift", [False, True])
def test_lifetime_errors_match_finite_difference_fisher(fit_shift):
    irf = _gaussian_irf(n_bins=2000)
    shift = 11.0 if fit_shift else 0.0
    hist = _poisson_hist(DecayModel([(1.0, 1.51)], background=2e-4, t_shift_ps=shift),
                         irf, 1.2e6, seed=7)
    res = fit_decay(hist, irf, FitOptions(n_components=1, fit_shift=fit_shift))
    first, last = res.fit_range_bins
    ((a, tau),) = res.model.components
    theta = np.array([a, tau, res.model.background, res.model.t_shift_ps])
    steps = np.array([1e-4 * a, 1e-4 * tau, 1e-3 * theta[2], 0.05])

    def mu_at(th):
        return convolve_model(DecayModel([(th[0], th[1])], th[2], th[3]), irf,
                              n_bins=last - first, t0_ps=irf.t0_ps + first * BW_PS)

    fitted = [0, 1, 2, 3] if fit_shift else [0, 1, 2]
    cols = []
    for i in fitted:
        e = np.zeros(4)
        e[i] = steps[i]
        cols.append((mu_at(theta + e) - mu_at(theta - e)) / (2 * steps[i]))
    jac = np.stack(cols, axis=1)
    fisher = jac.T @ (jac / mu_at(theta)[:, None])
    tau_err = np.sqrt(np.linalg.inv(fisher)[1, 1])
    assert res.lifetime_errors_ns()[0] == pytest.approx(tau_err, rel=0.02)
    if not fit_shift:
        assert not res.covariance[3].any() and not res.covariance[:, 3].any()


def test_two_component_poisson_fit_reaches_generator_profile():
    irf = _gaussian_irf()
    taus = (0.79, 1.51)
    hist = _poisson_hist(DecayModel([(30.0, taus[0]), (20.0, taus[1])], background=1e-3),
                         irf, 1e6, seed=11)
    res = fit_decay(hist, irf, FitOptions(n_components=2))
    first, last = res.fit_range_bins
    y = np.asarray(hist.counts[first:last], dtype=float)
    cols = [convolve_model(DecayModel([(1.0, tau)]), irf, n_bins=last - first,
                           t0_ps=irf.t0_ps + first * BW_PS) for tau in taus]
    g = np.stack(cols + [np.ones_like(y)])
    scale = np.array([y.sum() / col.sum() for col in cols] + [1.0])

    # NLL at the generating lifetimes, minimized over amplitudes and background
    def nll(x):
        mu = (x * scale) @ g
        return np.sum(mu - y * np.log(mu)), scale * (g @ (1.0 - y / mu))

    prof = minimize(nll, np.array([0.5, 0.5, 1.0]), jac=True, method="L-BFGS-B",
                    bounds=[(1e-9, None)] * 3, options={"ftol": 1e-15, "gtol": 1e-9})
    assert len(res.model.components) == 2
    assert res.nll <= prof.fun + 1e-6 * abs(prof.fun)


def test_fit_records_diagnostics():
    irf = _gaussian_irf()
    hist, _ = _noiseless_hist(DecayModel([(50.0, 1.13)]), irf)
    res = fit_decay(hist, irf, FitOptions(n_components=1))
    assert res.converged and res.merged_from is None
    assert 0 < res.n_model_evals <= 140
    assert 1.0 <= res.fisher_condition < 1e3
    assert res.multistart_spread >= 0.0
    assert res.diagnostics()["model_evaluations"] == res.n_model_evals
    # near-equal lifetimes merge into one component, and the fit says so
    hist, _ = _noiseless_hist(DecayModel([(30.0, 1.0), (20.0, 1.05)]), irf)
    merged = fit_decay(hist, irf, FitOptions(n_components=2))
    assert len(merged.model.components) == 1
    assert merged.merged_from == 2
    assert merged.n_model_evals > res.n_model_evals
    assert merged.n_model_evals <= 367  # a collapsing pair ends its search early


def test_lifetime_driven_to_its_bound_is_not_converged():
    # a short irf run's histogram fitted against itself wants a lifetime of
    # 0: the search ends on the lower bound of its box, lo = two 4 ps bins
    # = 8 ps, and the box, not the data, stops it
    hist = experiment.irf(override(load_config(), {"run.duration_s": 0.01}))
    res = fit_decay(hist, hist)
    assert res.model.lifetimes_ns()[0] == pytest.approx(8e-3, rel=0.01)
    assert not res.converged and res.diagnostics()["converged"] is False


@pytest.mark.parametrize("fwhm_ps", [120.0, 260.0])
@pytest.mark.parametrize("total", [1e4, 1e5, 1e6])
def test_response_fitted_against_itself_is_not_converged(fwhm_ps, total):
    # below two bins the profiled deviance is flat within the amplitude
    # solver's tolerance, so a search there saw a stationary point inside
    # its box and read converged: the lifetime floor is two bins
    expected = _gaussian_irf(fwhm_ps, total=total).counts
    for seed in range(3):
        counts = np.random.default_rng(seed).poisson(expected)
        hist = Histogram(BW_PS, -1000, counts)
        res = fit_decay(hist, hist)
        assert not res.converged, seed
        assert res.model.lifetimes_ns()[0] == pytest.approx(2 * BW_PS / 1000, rel=1e-9)


def test_search_stops_when_lifetimes_collapse(monkeypatch):
    # on noiseless 1.0/1.05 ns data each two-component start closes in on the
    # merge threshold; its search ends there, unconverged, and the fit merges
    irf = _gaussian_irf()
    hist, _ = _noiseless_hist(DecayModel([(30.0, 1.0), (20.0, 1.05)]), irf)
    ends, search = [], fitting._scoring_search

    def recorded(p, *args):
        ends.append(search(p, *args))
        return ends[-1]

    monkeypatch.setattr(fitting, "_scoring_search", recorded)
    merged = fit_decay(hist, irf, FitOptions(n_components=2))
    pairs = [(end, converged) for end, converged in ends if len(end.taus) == 2]
    assert merged.merged_from == 2 and len(pairs) == 3
    assert all(fitting._collapsed(end.taus) and not converged for end, converged in pairs)


_TRACED_FIT = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from epstreak import fitting
from epstreak.tcspc import Histogram
data = np.load(sys.argv[2])
irf = Histogram(int(data["bw"]), int(data["t0"]), data["irf"])
hist = Histogram(int(data["bw"]), int(data["t0"]), data["hist"])
res = fitting.fit_decay(hist, irf, fitting.FitOptions(n_components=2))
print(json.dumps([tracer.absent, tracer.metrics(), res.n_model_evals, res.merged_from]))
"""


def test_merging_fit_is_one_traced_fit(tmp_path):
    """The benchmark's tracer sees a fit that merges as one fit_decay span, whose
    convolve_model calls are the fit's n_model_evals. It runs in a subprocess
    because the tracer cannot be uninstalled."""
    import epstreak
    irf = _gaussian_irf()
    _, counts = _noiseless_hist(DecayModel([(30.0, 1.0), (20.0, 1.05)]), irf)
    np.savez(tmp_path / "data.npz", bw=irf.bin_width_ps, t0=irf.t0_ps, irf=irf.counts, hist=counts)
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    src = str(Path(epstreak.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _TRACED_FIT, str(tracing),
                           str(tmp_path / "data.npz")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    absent, metrics, n_evals, merged_from = json.loads(proc.stdout.splitlines()[-1])
    assert "fitting.fit_decay" not in absent and "fitting.convolve_model" not in absent
    assert merged_from == 2
    assert metrics["fitting.fit_decay.calls"] == 1
    assert metrics["fitting.fit_decay.evals_max"] == n_evals
    assert metrics["fitting.convolve_model.calls"] == n_evals


@pytest.mark.parametrize("case", ["late_irf", "flat"])
def test_unidentified_lifetime_is_not_converged(case):
    # an IRF that starts 4 ns after the decay leaves no response in the fit
    # range, and a flat histogram is all background: either way the fit
    # switches the component off, and its lifetime carries no information
    irf = _gaussian_irf()
    if case == "late_irf":
        hist, _ = _noiseless_hist(DecayModel([(1.0, 1.0)]), irf, total=2e5)
        irf = Histogram(BW_PS, irf.t0_ps + 4000, irf.counts)
    else:
        hist = Histogram(BW_PS, irf.t0_ps, np.full(1000, 50))
    res = fit_decay(hist, irf)
    assert res.model.amplitudes()[0] == 0
    assert not res.converged and res.diagnostics()["converged"] is False
    assert res.diagnostics()["fisher_condition"] is None
    assert res.lifetime_errors_ns()[0] == np.inf
    assert "+- inf" in format_fit_report(res)
    # the shift is not fitted: its row and column stay zero
    assert not np.any(res.covariance[-1]) and not np.any(res.covariance[:, -1])


def test_zero_amplitude_component_dropped():
    # 1e6 counts of a single 1.13 ns decay over a 1% flat background, asked
    # for two components: the second fit component ends at amplitude 0 with
    # an arbitrary lifetime, so the fit repeats with one component
    rng = np.random.default_rng(0)
    sigma = 260.0 / FWHM_PER_SIGMA
    t0_ps, n_bins, n = -2000, 3500, 1_000_000

    def histogram(t):
        idx = np.floor((t - t0_ps) / BW_PS).astype(np.int64)
        counts = np.bincount(idx[(idx >= 0) & (idx < n_bins)], minlength=n_bins)
        return Histogram(BW_PS, t0_ps, counts)

    irf = histogram(rng.normal(0.0, sigma, 240_000))
    n_bg = rng.binomial(n, 0.01)
    t = rng.normal(0.0, sigma, n - n_bg) + rng.exponential(1130.0, n - n_bg)
    hist = histogram(np.concatenate([t, t0_ps + rng.random(n_bg) * BW_PS * n_bins]))
    res = fit_decay(hist, irf, FitOptions(n_components=2))
    assert len(res.model.components) == 1
    assert res.merged_from == 2
    assert np.isfinite(res.fisher_condition)
    assert res.diagnostics()["fisher_condition"] is not None
    assert res.model.lifetimes_ns()[0] == pytest.approx(1.13, rel=0.01)
    single = fit_decay(hist, irf, FitOptions(n_components=1))
    assert res.model == single.model
    assert res.n_model_evals > single.n_model_evals


def test_fit_rejects_degenerate_input():
    irf = _gaussian_irf(n_bins=200)
    empty = Histogram(BW_PS, irf.t0_ps, np.zeros(200, dtype=np.int64))
    with pytest.raises(FitError):
        fit_decay(empty, irf, FitOptions(n_components=1))
    sparse = np.zeros(200, dtype=np.int64)
    sparse[:5] = 100
    with pytest.raises(FitError):
        fit_decay(Histogram(BW_PS, irf.t0_ps, sparse), irf, FitOptions(n_components=1))
    other = Histogram(8, irf.t0_ps, np.ones(200, dtype=np.int64))
    with pytest.raises(ConfigurationError):
        fit_decay(other, irf, FitOptions(n_components=1))


def _toy_map():
    lam = np.linspace(800.0, 900.0, 11)
    t = np.linspace(0.0, 1000.0, 5)
    intensity = np.outer(np.arange(1.0, 12.0), np.arange(1.0, 6.0))
    return TimeFrequencyMap(lam, t, intensity)


def test_slice_map_marginalization():
    tf = _toy_map()
    axis, decay = slice_map(tf, "wavelength", 850.0, width=1e9)
    assert np.allclose(axis, tf.time_axis_ps)
    assert np.allclose(decay, tf.intensity.sum(axis=0))
    axis, spectrum = slice_map(tf, "time", 500.0, width=1e9)
    assert np.allclose(spectrum, tf.intensity.sum(axis=1))
    _, single = slice_map(tf, "wavelength", 850.0, width=1.0)
    assert np.allclose(single, tf.intensity[5])


def test_slice_map_domain_errors():
    tf = _toy_map()
    with pytest.raises(DomainError):
        slice_map(tf, "wavelength", 700.0, width=10.0)
    with pytest.raises(DomainError):
        slice_map(tf, "wavelength", 855.0, width=1.0)  # between samples
    with pytest.raises(ConfigurationError):
        slice_map(tf, "frequency", 850.0, width=10.0)


def test_fit_report_contents():
    irf = _gaussian_irf()
    hist, _ = _noiseless_hist(DecayModel([(50.0, 1.13)], background=2.0), irf)
    res = fit_decay(hist, irf, FitOptions(n_components=1))
    report = format_fit_report(res, irf_source="measured")
    assert "tau_ns = 1.13" in report
    assert "reduced_chi2" in report
    assert "irf_source = measured" in report
