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
from dataclasses import dataclass

import numpy as np

from .checks import Checked, refuse, relation, rule
from .errors import ConfigurationError, StreamOrderError
from .spdc import SourceModel
from .twins import transmission, transmission_bound
from .units import FWHM_PER_SIGMA, PS_PER_NS, PS_PER_S

CH_HERALD = 0
CH_SIGNAL = 1
CH_HBT_T = 1
CH_HBT_R = 2

TOPOLOGIES = ("irf", "hbt", "fluorescence")

# A run is simulated in time chunks of at most CHUNK_S seconds and about
# CHUNK_PAIRS expected pairs, so its memory does not grow with its duration.
# Each chunk's source draws are seeded by the chunk's index; each channel's
# detector rng is consumed chunk after chunk, so a run of one chunk draws
# exactly what one pass over the whole run draws.
CHUNK_S = 5.0
CHUNK_PAIRS = 1 << 20


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
    species: tuple[EmitterSpecies, ...]
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


def _rng(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence((seed,) + tags))


def _dead_time_prune(times, dead_ps, last=None):
    """Nonparalyzable dead time over sorted times: keep t when t - last_kept >= dead_ps.

    ``last`` is the kept event right before ``times``, if there is one.
    An event at least dead_ps after its predecessor (a head) is always kept,
    because the last kept event is no later than that predecessor and float
    subtraction is monotone; the event right after a head is dropped when
    closer than dead_ps. So only bursts of three or more events are left,
    and each is walked from its head with that same float test, a few scalar
    steps per burst event. A stream with almost no gap of dead_ps is one
    long burst, walked once.
    """
    if dead_ps <= 0 or len(times) == 0:
        return times
    if last is not None:  # the events still dead after ``last`` lead the sorted times
        times = times[np.count_nonzero(times - last < dead_ps):]
        if len(times) == 0:
            return times
    n = len(times)
    close = np.diff(times) < dead_ps
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = ~close
    # each head of a burst of three or more events; the event after it is dropped
    for h in np.flatnonzero(keep[:-2] & close[:-1] & close[1:]).tolist():
        kept = times[h]
        j = h + 2
        while j < n and close[j - 1]:
            if times[j] - kept >= dead_ps:
                keep[j] = True
                kept = times[j]
            j += 1
    return times[keep]


class _Transmission:
    """The TWINS acceptance of time-sorted arrivals, evaluated only for the arrivals asked.

    No arrival's transmission exceeds ``bound``, the exact ``transmission_bound``.
    """

    def __init__(self, lam_nm, position_um, spec):
        self.lam_nm, self.position_um, self.spec = lam_nm, position_um, spec
        self.bound = transmission_bound(spec)

    def at(self, idx):
        return transmission(self.lam_nm.take(idx), self.position_um, self.spec)


def _reached(n, accept, efficiency, rng):
    """Which of n arrivals reach the detector: a mask, or None when every one does.

    Each arrival survives when its uniform is below accept * efficiency. A
    probability of scalar 1 keeps every arrival (each uniform is < 1), so the
    uniforms are not drawn: the generator is advanced past them, which leaves
    it in the state that drawing them would. A ``_Transmission`` is evaluated
    only for the arrivals whose uniform is below its bound times the
    efficiency, the only ones it can keep; it still checks the wedge position
    when there are none. The uniforms die here, before the caller gathers the
    survivors.
    """
    exact = accept if isinstance(accept, _Transmission) else None
    p = np.asarray(accept if exact is None else exact.bound, dtype=float) * efficiency
    if exact is None and p.ndim == 0 and not p < 1.0:
        # a uniform double is one 64-bit step; these generators buffer no 32-bit half
        rng.bit_generator.advance(n)
        return None
    u = rng.random(n)
    keep = u < p
    if exact is not None:
        below = np.flatnonzero(keep)
        p = exact.at(below)
        p *= efficiency
        keep[below] = u.take(below) < p
    return keep


def _detector_draws(arrivals, det: DetectorModel, rng, start_ps, span_ps):
    """Efficiency, jitter and the darks of [start_ps, start_ps + span_ps): sorted float times.

    ``arrivals`` is a pair (time-sorted t_ps float array, accept_prob).
    ``accept_prob`` is a scalar when every arrival is equally likely to reach
    the detector (pass 1.0 when there is nothing to weight), an array
    parallel to t_ps, or a ``_Transmission`` over the arrivals. Each arrival
    survives with probability accept_prob * efficiency (``_reached``) and is
    jittered by a Gaussian of the configured FWHM; the dark counts of the
    span are added.

    The draws from ``rng`` are a contract: one uniform per arrival, then a
    normal per survivor when there is jitter, then the Poisson dark count and
    a uniform per dark. The survivors are gathered with ``np.compress``,
    which keeps the elements ``t[keep]`` keeps, in the same order, several
    times faster at a partial mask; when every arrival survives nothing is
    gathered. Without jitter and darks the survivors are still sorted, and
    may be ``t`` itself, which is never written to.
    """
    t, accept = arrivals
    t = np.asarray(t, dtype=float)
    keep = _reached(len(t), accept, det.efficiency, rng)
    if keep is not None:
        t = np.compress(keep, t)
    del keep  # before the jitter draws allocate
    jitter = det.jitter_fwhm_ps > 0 and len(t) > 0
    if jitter:  # noise + t is t + noise, bit for bit
        noise = rng.normal(0.0, det.jitter_fwhm_ps / FWHM_PER_SIGMA, len(t))
        noise += t
        t = noise
    n_dark = rng.poisson(det.dark_rate_hz * span_ps / PS_PER_S)
    if n_dark:
        t = np.concatenate([t, start_ps + rng.random(n_dark) * span_ps])
    if jitter or n_dark:
        t.sort(kind="stable")  # near linear here: jitter barely unsorts the arrivals
    return t


def _tags(times):
    """Sorted float times as int64 picosecond tags; times that round below 0 are dropped."""
    times = times[np.searchsorted(times, -0.5, side="left"):]  # rint(-0.5) is 0
    return np.rint(times, out=np.empty(len(times), dtype=np.int64), casting="unsafe")


def _fluorescence_batch(sample: SampleModel, n, rng):
    """Vectorized emission draw: (emitted mask, delay_ps, emission_nm).

    The draw order is a contract, all from ``rng``: absorbed (uniform),
    species (uniform), delay (standard exponential), wavelength (standard
    normal), quantum yield (uniform). The golden hashes depend on it. The
    species index is the cdf threshold count that ``rng.choice(k, size=n,
    p=w)`` computes, the delay is what ``rng.exponential(1.0, n) * tau`` gives
    and the wavelength what ``rng.normal(center, sigma)`` gives, bit for bit.
    A uniform whose outcome is certain is not drawn: at absorption_prob 1
    and when every quantum_yield is 1, the generator is advanced past those n
    uniforms, as ``_reached`` does at acceptance 1. The mask is None when
    every pair emits, and nothing need be gathered.
    """
    species = sample.species
    u = np.empty(n)
    emitted = None
    if sample.absorption_prob < 1.0:
        emitted = rng.random(out=u) < sample.absorption_prob
    else:  # each uniform is < 1
        rng.bit_generator.advance(n)
    weights = np.array([s.weight for s in species], dtype=float)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    rng.random(out=u)
    idx = np.zeros(n, dtype=np.intp)
    for c in cdf[:-1]:  # cdf.searchsorted(u, side="right"); u < 1 = cdf[-1]
        idx += u >= c
    delay_ps = rng.standard_exponential(out=u)  # the species draws are used up
    tau_ps = np.array([s.lifetime_ns for s in species]) * PS_PER_NS
    # g holds each per-pair parameter in turn; idx < k, and mode="clip" lets take
    # write to out= unbuffered
    g = tau_ps.take(idx, mode="clip")
    delay_ps *= g
    center = np.array([s.emission_center_nm for s in species])
    sigma = np.array([s.emission_fwhm_nm for s in species]) / FWHM_PER_SIGMA
    lam_nm = rng.standard_normal(n)  # normal(loc, scale) is loc + scale * z
    lam_nm *= sigma.take(idx, out=g, mode="clip")
    lam_nm += center.take(idx, out=g, mode="clip")
    qy = np.array([s.quantum_yield for s in species])
    if np.all(qy == 1.0):  # every yield is certain
        rng.bit_generator.advance(n)
        return emitted, delay_ps, lam_nm
    qy.take(idx, out=g, mode="clip")
    del idx  # before the last draw, which can take its memory
    yielded = rng.random(n) < g
    if emitted is not None:
        yielded &= emitted
    return yielded, delay_ps, lam_nm


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
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _chunk_count(rate_hz, duration_s):
    return max(1, int(np.ceil(duration_s / CHUNK_S)),
               int(np.ceil(rate_hz * duration_s / CHUNK_PAIRS)))


def _source_chunk(k, n_chunks, sample, twins, run, rate_hz):
    """Arrivals of chunk k per channel, each a (time-sorted t_ps, accept_prob) pair."""
    chunk_ps = run.duration_s * PS_PER_S / n_chunks
    rng = _rng(run.seed, 0, k)
    n = rng.poisson(rate_hz * run.duration_s / n_chunks)
    birth_ps = rng.random(n)
    birth_ps *= chunk_ps
    birth_ps += k * chunk_ps
    birth_ps.sort()
    if run.topology == "irf":
        return [(birth_ps, 1.0), (birth_ps, 1.0)]
    if run.topology == "hbt":
        to_t = rng.random(n) < 0.5
        return [(birth_ps, 1.0), (birth_ps[to_t], 1.0), (birth_ps[~to_t], 1.0)]
    # each per-pair array is dropped once used, so the next one reuses its memory
    emitted, delay_ps, lam_nm = _fluorescence_batch(sample, n, rng)
    delay_ps += birth_ps
    t = delay_ps if emitted is None else delay_ps[emitted]
    del delay_ps
    order = np.argsort(t, kind="stable")
    accept = 1.0
    if twins is not None:
        if emitted is not None:
            lam_nm = lam_nm[emitted]
        accept = _Transmission(lam_nm.take(order), run.twins_position_um, twins)
    del lam_nm
    return [(birth_ps, 1.0), (t.take(order), accept)]


def _merge_sorted(a, b):
    """The sorted union of two sorted arrays; either one itself when the other is empty."""
    if len(a) == 0 or len(b) == 0:
        return b if len(a) == 0 else a
    t = np.concatenate((a, b))
    if a[-1] > b[0]:
        t.sort(kind="stable")  # two sorted runs: one merge
    return t


class _DetectorChannel:
    """One channel's detector across chunks: its rng, held-back times and last kept time."""

    def __init__(self, det: DetectorModel, rng):
        self.det, self.rng = det, rng
        self.dead_ps = det.dead_time_ns * PS_PER_NS
        self.held = np.empty(0)
        self.last_kept = None

    def pass_on(self, fresh, below):
        """Tags of the held times below ``below``; the other held times wait with ``fresh``."""
        cut = np.searchsorted(self.held, below, side="left")
        final = _dead_time_prune(self.held[:cut], self.dead_ps, self.last_kept)
        if len(final):
            self.last_kept = final[-1]
        tags = _tags(final)
        del final  # before the merge allocates
        self.held = _merge_sorted(self.held[cut:], fresh)
        return tags


def simulate_chunks(source: SourceModel, sample, herald_det: DetectorModel,
                    signal_det: DetectorModel, twins, run: RunConfig):
    """Detections per channel, a time chunk at a time: yields (tags, horizon).

    ``tags`` holds a sorted int64 timestamp array per channel, indexed by
    channel; concatenated over the yields, each is the channel's detections.
    Every tag yielded later is >= ``horizon``, which is None on the last yield.

    Pair birth times follow a homogeneous Poisson process at the source pair
    rate, which is taken as the rate of pairs that pass the herald filter. No
    signal wavelength is drawn per pair: the herald filter's overlap with the
    joint spectral density is only checked up front, once per source. The
    only wavelength that acts on events is the emission wavelength drawn per
    fluorescence photon, through the TWINS transmission. Externally this is a
    pure function of (configuration, seed).

    Each chunk's arrivals go through each channel's detector draws
    (efficiency, jitter, the chunk's darks). Jitter and fluorescence delays
    carry times past the chunk's end, so a channel holds back every time at
    or above the lowest time of the next chunk (or that chunk's start, if
    lower), and prunes dead time over the times it passes on, from its last
    kept time. The result equals sorting every chunk's draws together and
    pruning the whole run at once. A draw below a horizon already yielded
    (jitter beyond a whole chunk) raises StreamOrderError.
    """
    refuse(topology_violations(run.topology, sample is not None, twins is not None))
    if twins is not None and run.twins_position_um is None:
        raise ConfigurationError("twins_position_um required when TWINS is present")

    rate = source.pump.pair_rate_hz
    if rate > 0:
        _check_overlap(source)
    channels = [_DetectorChannel(herald_det if ch == CH_HERALD else signal_det,
                                 _rng(run.seed, 1, ch))
                for ch in range(channel_count(run.topology))]
    n_chunks = _chunk_count(rate, run.duration_s)
    chunk_ps = run.duration_s * PS_PER_S / n_chunks
    floor = -np.inf  # no time drawn from here on may fall below it
    for k in range(n_chunks):
        start_ps = k * chunk_ps
        arrivals = _source_chunk(k, n_chunks, sample, twins, run, rate)
        fresh = []
        for c in channels:  # each channel's arrivals are dropped once drawn
            fresh.append(_detector_draws(arrivals.pop(0), c.det, c.rng, start_ps, chunk_ps))
        lowest = min([start_ps] + [t[0] for t in fresh if len(t)])
        if lowest < floor:
            raise StreamOrderError(
                f"a detection at {lowest:.0f} ps falls below {floor:.0f} ps, under which "
                f"tags were already passed on: jitter spans more than a "
                f"{chunk_ps:.0f} ps chunk")
        tags = [c.pass_on(t, lowest) for c, t in zip(channels, fresh)]
        del fresh
        if k:  # chunk 0 passes nothing on
            floor = lowest
            yield tags, int(np.rint(lowest))
        del tags  # before the next chunk's draws
    yield [c.pass_on(np.empty(0), np.inf) for c in channels], None


def simulate_channels(source: SourceModel, sample, herald_det: DetectorModel,
                      signal_det: DetectorModel, twins, run: RunConfig):
    """Detections per channel: simulate_chunks' tags concatenated, one sorted int64 array each."""
    parts = None
    for tags, _ in simulate_chunks(source, sample, herald_det, signal_det, twins, run):
        parts = parts or [[] for _ in tags]
        for part, t in zip(parts, tags):
            if len(t):
                part.append(t)
    detections = []
    for ch in range(len(parts)):  # each chunk list is dropped once concatenated
        chunks, parts[ch] = parts[ch], None
        detections.append(_concat(chunks))
    return detections


def channel_count(topology):
    """Detector channels of a topology: herald and signal, or herald and two HBT arms."""
    return 3 if topology == "hbt" else 2


def stream_warnings(source: SourceModel, herald_det: DetectorModel,
                    signal_det: DetectorModel, run: RunConfig):
    """Warnings known before any draw: ``empty-stream`` for zero pair rate and no darks."""
    dark_total = (herald_det.dark_rate_hz
                  + (channel_count(run.topology) - 1) * signal_det.dark_rate_hz)
    if source.pump.pair_rate_hz == 0 and dark_total == 0:
        return ["empty-stream: zero pair rate and zero dark rates"]
    return []

