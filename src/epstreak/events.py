"""Monte Carlo generation of timestamped photon-detection streams.

Three experiment topologies are supported: ``irf`` (signal and idler sent
straight to two detectors), ``hbt`` (heralded Hanbury-Brown-Twiss with the
signal split 50/50 over two arms) and ``fluorescence`` (signal excites a
sample, the emitted photon is detected, optionally through the TWINS
interferometer).

Timestamps are integer picoseconds since run start, so reruns with the same
seed are bit-identical and long runs accumulate no float drift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .checks import Checked, relation, rule
from .errors import ConfigurationError
from .spdc import SourceModel
from .units import FWHM_PER_SIGMA, PS_PER_NS, PS_PER_S

CH_HERALD = 0
CH_SIGNAL = 1
CH_HBT_T = 1
CH_HBT_R = 2

TOPOLOGIES = ("irf", "hbt", "fluorescence")

# simulation is generated in independently seeded time chunks; the per-channel
# detector pass afterwards runs over the merged stream so dead time is exact
# across chunk boundaries
CHUNK_S = 5.0


@dataclass(frozen=True)
class DetectorModel(Checked):
    efficiency: float = rule(1.0, lo=0.0, hi=1.0)
    jitter_fwhm_ps: float = rule(0.0, lo=0.0)
    dead_time_ns: float = rule(0.0, lo=0.0)
    dark_rate_hz: float = rule(0.0, lo=0.0)


# combined start-stop response of a preset pair reproduces the measured IRFs:
# mpd/mpd -> sqrt(2)*184 ~ 260 ps, mpd/excelitas -> sqrt(184^2+571^2) ~ 600 ps
DETECTOR_PRESETS = {
    "mpd": DetectorModel(efficiency=0.35, jitter_fwhm_ps=184.0,
                         dead_time_ns=77.0, dark_rate_hz=50.0),
    "excelitas": DetectorModel(efficiency=0.60, jitter_fwhm_ps=571.0,
                               dead_time_ns=22.0, dark_rate_hz=500.0),
    "ideal": DetectorModel(),
}


@dataclass(frozen=True)
class EmitterSpecies(Checked):
    weight: float = rule(1.0, lo=0.0)
    lifetime_ns: float = rule(1.0, lo=1e-9)
    emission_center_nm: float = rule(850.0, lo=1.0)
    emission_fwhm_nm: float = rule(40.0, lo=1e-9)
    quantum_yield: float = rule(1.0, lo=0.0, hi=1.0)


@dataclass(frozen=True)
class SampleModel(Checked):
    species: tuple
    absorption_prob: float = rule(1.0, lo=0.0, hi=1.0)

    @relation("species")
    def _species_weighted(species):
        if len(species) == 0:
            return "needs at least one species"
        if sum(s.weight for s in species) <= 0:
            return "weights must not all be zero"
        return None

    def min_emission_nm(self):
        return min(s.emission_center_nm - s.emission_fwhm_nm for s in self.species)


@dataclass(frozen=True)
class RunConfig(Checked):
    duration_s: float = rule(1.0, lo=1e-12)
    seed: int = rule(1, lo=0)
    topology: str = rule("irf", choices=TOPOLOGIES)
    twins_position_um: float | None = None


def topology_violations(topology, has_sample, has_twins):
    """The sample and TWINS sections that ``topology`` requires or forbids, as 'section: reason'."""
    if topology == "fluorescence":
        return [] if has_sample else ["sample: required for fluorescence topology"]
    return [f"{name}: not allowed for {topology} topology"
            for name, present in (("sample", has_sample), ("twins", has_twins)) if present]


@dataclass
class EventStream:
    channel: np.ndarray          # uint8, parallel to t_ps
    t_ps: np.ndarray             # int64, globally nondecreasing
    duration_s: float
    n_channels: int
    warnings: list = field(default_factory=list)

    def times(self, ch):
        return self.t_ps[self.channel == ch]

    def __len__(self):
        return len(self.t_ps)


def _rng(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence((seed,) + tags))


def _next_outside(times, i, dead_ps):
    """Per index in ``i``: the first j > i with times[j] - times[i] >= dead_ps, else len(times).

    A galloping search, then a bisection, on that float subtraction itself,
    which is monotone in j because times is sorted.
    """
    n = len(times)
    lo, hi = i.copy(), np.minimum(i + 1, n)  # times[lo] is too close
    active = np.arange(len(i))
    while len(active):
        h = hi[active]
        short = h < n
        short[short] = times[h[short]] - times[i[active[short]]] < dead_ps
        active = active[short]
        lo[active] = hi[active]
        hi[active] = np.minimum(2 * hi[active] - i[active], n)
    active = np.flatnonzero(hi - lo > 1)
    while len(active):
        mid = (lo[active] + hi[active]) // 2
        far = times[mid] - times[i[active]] >= dead_ps
        hi[active[far]] = mid[far]
        lo[active[~far]] = mid[~far]
        active = active[hi[active] - lo[active] > 1]
    return hi


def _dead_time_prune(times, dead_ps):
    """Nonparalyzable dead time over sorted times: keep t when t - last_kept >= dead_ps.

    An event at least dead_ps after its predecessor (a head) is always kept,
    because the last kept event is no later than that predecessor and float
    subtraction is monotone; the event right after a head is dropped when
    closer than dead_ps. So only bursts of three or more events need their
    kept events followed from the head: all such bursts at once, one numpy
    search per kept event of the longest. A stream with almost no gap of
    dead_ps or more (count rates many times 1/dead_ps) is one long burst and
    costs one such round per kept event.
    """
    if dead_ps <= 0 or len(times) == 0:
        return times
    n = len(times)
    close = np.diff(times) < dead_ps
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = ~close
    # heads of bursts of three or more events, then the last kept event of each
    chain = np.flatnonzero(keep[:-2] & close[:-1] & close[1:])
    while len(chain):
        chain = _next_outside(times, chain, dead_ps)
        chain = chain[chain < n]
        chain = chain[~keep[chain]]  # reaching the next head ends the burst
        keep[chain] = True
    return times[keep]


def apply_detector(arrivals, det: DetectorModel, rng, duration_ps):
    """Run the detector chain over time-sorted candidate arrivals.

    ``arrivals`` is a pair (t_ps float array, accept_prob). ``accept_prob`` is
    a scalar when every arrival is equally likely to reach the detector (pass
    1.0 when there is nothing to weight), or an array parallel to t_ps. Each
    arrival survives with probability accept_prob * efficiency, is jittered by
    a Gaussian of the configured FWHM, then merged with dark counts and pruned
    by the nonparalyzable dead time: an event is kept when it comes at least
    the dead time after the last kept event. Returns sorted int64 timestamps
    (events jittered below t=0 are dropped).
    """
    t, accept = arrivals
    t = np.asarray(t, dtype=float)
    keep = rng.random(len(t)) < np.asarray(accept, dtype=float) * det.efficiency
    t = t[keep]
    if det.jitter_fwhm_ps > 0 and len(t):
        t = t + rng.normal(0.0, det.jitter_fwhm_ps / FWHM_PER_SIGMA, len(t))
    n_dark = rng.poisson(det.dark_rate_hz * duration_ps / PS_PER_S)
    if n_dark:
        t = np.concatenate([t, rng.random(n_dark) * duration_ps])
    t.sort(kind="stable")  # near linear here: jitter barely unsorts the arrivals
    t = _dead_time_prune(t, det.dead_time_ns * PS_PER_NS)
    t = np.rint(t).astype(np.int64)
    return t[t >= 0]


def _fluorescence_batch(sample: SampleModel, n, rng):
    """Vectorized emission draw: (emitted mask, delay_ps, emission_nm)."""
    absorbed = rng.random(n) < sample.absorption_prob
    weights = np.array([s.weight for s in sample.species], dtype=float)
    weights /= weights.sum()
    idx = rng.choice(len(sample.species), size=n, p=weights)
    tau_ps = np.array([s.lifetime_ns for s in sample.species]) * PS_PER_NS
    delay_ps = rng.exponential(1.0, n) * tau_ps[idx]
    center = np.array([s.emission_center_nm for s in sample.species])
    sigma = np.array([s.emission_fwhm_nm for s in sample.species]) / FWHM_PER_SIGMA
    lam_nm = rng.normal(center[idx], sigma[idx])
    qy = np.array([s.quantum_yield for s in sample.species])
    emitted = absorbed & (rng.random(n) < qy[idx])
    return emitted, delay_ps, lam_nm


@functools.lru_cache(maxsize=16)
def _check_overlap(source: SourceModel):
    """Raise EmptySupportError when the herald filter misses the joint spectrum.

    Cached per (frozen, hashable) source so a cube of many runs checks once;
    an exception is not cached, so a bad filter raises on every call.
    """
    source.conditioned_jsd()


def _concat(parts):
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0)


def _concat_sorted(parts):
    """Concatenation of sorted chunks, sorted again only if two chunks overlap."""
    parts = [p for p in parts if len(p)]
    t = _concat(parts)
    if any(a[-1] > b[0] for a, b in zip(parts, parts[1:])):
        t.sort(kind="stable")  # a fresh array: more than one part was concatenated
    return t


def simulate_channels(source: SourceModel, sample, herald_det: DetectorModel,
                      signal_det: DetectorModel, twins, run: RunConfig):
    """Detections per channel: a list of sorted int64 timestamp arrays, indexed by channel.

    Pair birth times follow a homogeneous Poisson process at the source pair
    rate, which is taken as the rate of pairs that pass the herald filter. No
    signal wavelength is drawn per pair: the herald filter's overlap with the
    joint spectral density is only checked up front, once per source. The
    only wavelength that acts on events is the emission wavelength drawn per
    fluorescence photon, through the TWINS transmission. Externally this is a
    pure function of (configuration, seed).
    """
    found = topology_violations(run.topology, sample is not None, twins is not None)
    if found:
        raise ConfigurationError("; ".join(found))
    if twins is not None and run.twins_position_um is None:
        raise ConfigurationError("twins_position_um required when TWINS is present")

    from .twins import transmission as twins_transmission  # local: avoids import cycle

    rate = source.pump.pair_rate_hz
    duration_ps = run.duration_s * PS_PER_S
    if rate > 0:
        _check_overlap(source)

    n_channels = 3 if run.topology == "hbt" else 2
    parts = [[] for _ in range(n_channels)]  # arrival chunks per channel
    signal_p = []  # TWINS transmission per emitted photon; other arms accept 1.0

    n_chunks = max(1, int(np.ceil(run.duration_s / CHUNK_S)))
    chunk_ps = duration_ps / n_chunks

    def draw_chunk(k):  # a function, so that the chunk's temporaries die with it
        rng = _rng(run.seed, 0, k)
        n = rng.poisson(rate * run.duration_s / n_chunks)
        if n == 0:
            return
        birth_ps = np.sort(k * chunk_ps + rng.random(n) * chunk_ps)
        parts[CH_HERALD].append(birth_ps)

        if run.topology == "irf":
            parts[CH_SIGNAL].append(birth_ps)
        elif run.topology == "hbt":
            to_t = rng.random(n) < 0.5
            parts[CH_HBT_T].append(birth_ps[to_t])
            parts[CH_HBT_R].append(birth_ps[~to_t])
        else:  # fluorescence
            emitted, delay_ps, lam_nm = _fluorescence_batch(sample, n, rng)
            parts[CH_SIGNAL].append(birth_ps[emitted] + delay_ps[emitted])
            if twins is not None:
                signal_p.append(twins_transmission(lam_nm[emitted],
                                                   run.twins_position_um, twins))

    for k in range(n_chunks):
        draw_chunk(k)

    # each channel's arrivals are built right before its detector pass, and
    # its chunk list is dropped once concatenated, so at most one channel's
    # arrivals (plus chunks another channel still shares) are alive at a time
    detections = []
    for ch in range(n_channels):
        chunks, parts[ch] = parts[ch], None
        if ch == CH_HERALD:
            arrivals = (_concat(chunks), 1.0)
        elif run.topology == "fluorescence":
            t = _concat(chunks)
            order = np.argsort(t, kind="stable")
            accept = _concat(signal_p)[order] if twins is not None else 1.0
            signal_p = None
            arrivals = (t[order], accept)
            del t, order
        else:  # birth times: each chunk sorted, chunk k within [k, k + 1] chunk lengths
            arrivals = (_concat_sorted(chunks), 1.0)
        del chunks
        det = herald_det if ch == CH_HERALD else signal_det
        detections.append(apply_detector(arrivals, det, _rng(run.seed, 1, ch), duration_ps))
        del arrivals
    return detections


def simulate_stream(source: SourceModel, sample, herald_det: DetectorModel,
                    signal_det: DetectorModel, twins, run: RunConfig) -> EventStream:
    """simulate_channels merged into one time-ordered EventStream.

    Ties in time are ordered by channel. A run with zero pair rate and zero
    dark rates gets an ``empty-stream`` warning.
    """
    detections = simulate_channels(source, sample, herald_det, signal_det, twins, run)
    n_channels = len(detections)
    channel = np.concatenate([np.full(len(t), ch, dtype=np.uint8)
                              for ch, t in enumerate(detections)])
    t_ps = np.concatenate(detections)
    order = np.lexsort((channel, t_ps))
    stream = EventStream(channel[order], t_ps[order], run.duration_s, n_channels)
    dark_total = herald_det.dark_rate_hz + (n_channels - 1) * signal_det.dark_rate_hz
    if source.pump.pair_rate_hz == 0 and dark_total == 0:
        stream.warnings.append("empty-stream: zero pair rate and zero dark rates")
    return stream
