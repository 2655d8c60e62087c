"""Deterministic synthetic sessions with controllable drowsiness effects.

The generator is a statistical test instrument, not a physiological
simulator: per band it emits a comb of fixed-frequency, random-phase
sinusoids whose total power is known analytically (amplitude^2 / 2), so
extracted band powers can be checked against the configuration. Drowsy
intervals scale selected band amplitudes and shift selected telemetry
means. Everything is a pure function of (spec, seed).

Only the phases are random, so the tones are not evaluated sample by
sample. With t = j + s/256 (whole second j of the epoch, sample s of
that second), angle addition gives

    sin(omega*t + phi) = sin(omega*j + phi) * cos(omega*s/256)
                       + cos(omega*j + phi) * sin(omega*s/256),

and the second factors are per-band tables of one second (66 tones,
about 270 KB in all), built once per process. A session's combs are then
two matrix products per band. This differs from evaluating ``sin`` on
the full 7680-sample grid only by rounding: at most 1e-10 uV, about
1e-11 measured, which ``tests`` check against that direct evaluation.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .errors import InvalidSpec
from .preprocess import EPOCH_SAMPLES
from .session import (
    EEG_CHANNELS,
    EEG_SAMPLE_RATE_HZ,
    ORD_INTERVAL_SECONDS,
    VEHICLE_SERIES,
    EegRecording,
    OrdInterval,
    OrdLabelTrack,
    Session,
    VehicleTelemetry,
)
from .spectral import BANDS

BAND_NAMES = tuple(b.name for b in BANDS)

# An epoch is EPOCH_SECONDS whole seconds of SECOND_SAMPLES samples each.
SECOND_SAMPLES = int(EEG_SAMPLE_RATE_HZ)
EPOCH_SECONDS = EPOCH_SAMPLES // SECOND_SAMPLES

DEFAULT_BAND_AMPLITUDES_UV = {
    "delta": 20.0,
    "theta": 10.0,
    "alpha": 10.0,
    "beta": 5.0,
    "gamma": 3.0,
}

# Comb frequencies stay inside the flat region of the 0.1/40 Hz filters
# (away from the high-pass ramp, the low-pass roll-off, and band edges),
# so realized band powers track the analytic target.
COMB_PLACEMENT_HZ = {
    "delta": (0.8, 3.6),
    "theta": (4.4, 7.6),
    "alpha": (8.4, 12.6),
    "beta": (13.4, 29.6),
    "gamma": (30.4, 37.5),
}

ALERT_RATING = 1
DROWSY_RATING = 4

# Injected artifact blocks: an alternating-sign oscillation far above the
# rejection threshold survives band-limiting at nearly full amplitude.
OUTLIER_BLOCK_AMPLITUDE_UV = 700.0
OUTLIER_BLOCK_HZ = 8.0


def _check_finite(name: str, value: object) -> None:
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise InvalidSpec(f"{name} must be a finite number, got {value!r}")


def _uniform_amplitudes() -> dict[str, dict[str, float]]:
    return {ch: dict(DEFAULT_BAND_AMPLITUDES_UV) for ch in EEG_CHANNELS}


def _unit_multipliers() -> dict[str, float]:
    return {b: 1.0 for b in BAND_NAMES}


def _zero_series() -> dict[str, float]:
    return {s: 0.0 for s in VEHICLE_SERIES}


@dataclass(frozen=True)
class SynthSpec:
    """Configuration of one synthetic session."""

    n_intervals: int = 20
    drowsy_fraction: float = 0.5
    band_amplitudes_uv: Mapping[str, Mapping[str, float]] = field(
        default_factory=_uniform_amplitudes)
    drowsy_band_multipliers: Mapping[str, float] = field(default_factory=_unit_multipliers)
    noise_floor_uv: float = 2.0
    outlier_rate: float = 0.0
    include_telemetry: bool = True
    telemetry_rate_hz: float = 50.0
    telemetry_baseline: Mapping[str, float] = field(default_factory=_zero_series)
    telemetry_noise: float = 1.0
    drowsy_telemetry_shift: Mapping[str, float] = field(default_factory=_zero_series)

    def validate(self) -> None:
        """Raise InvalidSpec on any out-of-range or non-finite field, on an
        ``n_intervals`` that is not an integer, and on a telemetry rate that
        gives fewer than 2 samples per interval."""
        if isinstance(self.n_intervals, bool) or not isinstance(self.n_intervals, numbers.Integral):
            raise InvalidSpec(f"n_intervals must be an integer, got {self.n_intervals!r}")
        if self.n_intervals <= 0:
            raise InvalidSpec(f"n_intervals must be positive, got {self.n_intervals}")
        for name in ("drowsy_fraction", "noise_floor_uv", "outlier_rate",
                     "telemetry_rate_hz", "telemetry_noise"):
            _check_finite(name, getattr(self, name))
        if not 0.0 <= self.drowsy_fraction <= 1.0:
            raise InvalidSpec(f"drowsy_fraction {self.drowsy_fraction} outside [0, 1]")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise InvalidSpec(f"outlier_rate {self.outlier_rate} outside [0, 1]")
        if self.noise_floor_uv < 0:
            raise InvalidSpec("noise_floor_uv must be non-negative")
        if self.include_telemetry and round(self.telemetry_rate_hz * ORD_INTERVAL_SECONDS) < 2:
            # the telemetry loader infers the rate from at least 2 samples
            raise InvalidSpec(f"telemetry_rate_hz {self.telemetry_rate_hz} gives fewer than 2 "
                              f"samples per {ORD_INTERVAL_SECONDS:g} s interval")
        if self.telemetry_noise < 0:
            raise InvalidSpec("telemetry_noise must be non-negative")
        for ch in EEG_CHANNELS:
            bands = self.band_amplitudes_uv.get(ch)
            if bands is None:
                raise InvalidSpec(f"band_amplitudes_uv missing channel {ch}")
            for b in BAND_NAMES:
                amp = bands.get(b)
                _check_finite(f"amplitude for {ch}/{b}", amp)
                if amp < 0:
                    raise InvalidSpec(f"bad amplitude for {ch}/{b}: {amp!r}")
        for b in BAND_NAMES:
            mult = self.drowsy_band_multipliers.get(b)
            _check_finite(f"drowsy multiplier for {b}", mult)
            if mult <= 0:
                raise InvalidSpec(f"drowsy multiplier for {b} must be positive, got {mult!r}")
        for s in VEHICLE_SERIES:
            if s not in self.telemetry_baseline or s not in self.drowsy_telemetry_shift:
                raise InvalidSpec(f"telemetry configuration missing series {s}")
            _check_finite(f"telemetry baseline for {s}", self.telemetry_baseline[s])
            _check_finite(f"drowsy telemetry shift for {s}", self.drowsy_telemetry_shift[s])

    def to_json_dict(self) -> dict:
        return {
            "n_intervals": self.n_intervals,
            "drowsy_fraction": self.drowsy_fraction,
            "band_amplitudes_uv": {ch: dict(b) for ch, b in self.band_amplitudes_uv.items()},
            "drowsy_band_multipliers": dict(self.drowsy_band_multipliers),
            "noise_floor_uv": self.noise_floor_uv,
            "outlier_rate": self.outlier_rate,
            "include_telemetry": self.include_telemetry,
            "telemetry_rate_hz": self.telemetry_rate_hz,
            "telemetry_baseline": dict(self.telemetry_baseline),
            "telemetry_noise": self.telemetry_noise,
            "drowsy_telemetry_shift": dict(self.drowsy_telemetry_shift),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SynthSpec":
        """Build a spec from parsed JSON, filling defaults for absent keys.

        ``band_amplitudes_uv`` accepts either a flat band->amplitude
        mapping (applied to all channels) or a full per-channel mapping;
        partial mappings overlay the defaults.

        Raises:
            InvalidSpec: An unknown key, channel, band or series name, a
                section that is not a JSON object, or a non-numeric value
                in one.
        """
        kwargs = dict(_json_object("spec", data, [f.name for f in fields(cls)]))
        if "band_amplitudes_uv" in data:
            raw = data["band_amplitudes_uv"]
            amps = _uniform_amplitudes()
            if isinstance(raw, Mapping) and all(k in BAND_NAMES for k in raw):
                for bands in amps.values():
                    _overlay("band_amplitudes_uv", bands, raw)
            else:
                for ch, bands in _json_object("band_amplitudes_uv", raw, EEG_CHANNELS).items():
                    _overlay(f"band_amplitudes_uv.{ch}", amps[ch], bands)
            kwargs["band_amplitudes_uv"] = amps
        for key, default in (("drowsy_band_multipliers", _unit_multipliers),
                             ("telemetry_baseline", _zero_series),
                             ("drowsy_telemetry_shift", _zero_series)):
            if key in data:
                kwargs[key] = _overlay(key, default(), data[key])
        return cls(**kwargs)


def _json_object(section: str, raw: object, names) -> Mapping:
    """``raw`` if it is a JSON object whose keys are all among ``names``."""
    if not isinstance(raw, Mapping):
        raise InvalidSpec(f"{section} must be a JSON object, got {type(raw).__name__}")
    unknown = [k for k in raw if k not in names]
    if unknown:
        raise InvalidSpec(f"{section}: unknown name(s) {', '.join(map(repr, unknown))}")
    return raw


def _overlay(section: str, base: dict[str, float], raw: object) -> dict[str, float]:
    """``base`` updated from ``raw``, a JSON object of numbers keyed by names of ``base``."""
    for k, v in _json_object(section, raw, base).items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise InvalidSpec(f"{section}.{k} must be a number, got {v!r}")
        base[k] = float(v)
    return base


def load_synth_spec(source: IO[str] | str | Path) -> SynthSpec:
    """Load a spec from a JSON file or stream."""
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        data = json.load(source)
    return SynthSpec.from_json_dict(data)


def target_band_power_uv2(amplitude_uv: float) -> float:
    """Analytic band power of a comb with the given total amplitude."""
    return amplitude_uv * amplitude_uv / 2.0


@functools.cache
def _comb_tables(lo_hz: float, hi_hz: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular frequencies (rad/s) of a comb's tones, with their sine and
    cosine over the 256 sample offsets of one second.

    A tone at offset ``s`` of whole second ``j`` has the phase
    ``omega * j + phi`` plus ``omega * s / 256``, so by angle addition its
    value is ``sin(omega*j + phi) * cos_tab[s] + cos(omega*j + phi) * sin_tab[s]``.
    The tables depend only on the band placement; all five take 66 tones,
    about 270 KB, and are read-only.
    """
    m = max(3, int(round((hi_hz - lo_hz) * 2.0)))
    omega = 2.0 * np.pi * np.linspace(lo_hz, hi_hz, m)
    angle = omega[:, None] * (np.arange(SECOND_SAMPLES) / EEG_SAMPLE_RATE_HZ)
    tables = (omega, np.sin(angle), np.cos(angle))
    for a in tables:
        a.flags.writeable = False
    return tables


def _add_combs(x: np.ndarray, phases: Mapping[str, np.ndarray],
               amplitudes: Mapping[str, np.ndarray]) -> None:
    """Add every band's random-phase comb to ``x`` of shape
    ``(channel, interval, EPOCH_SAMPLES)``, in ``BANDS`` order.

    A comb of m tones with total amplitude A is
    ``A / sqrt(m) * sum_i sin(omega_i * t + phi_i)``, so its power is
    A^2 / 2. Per band it is computed as two ``(second, tone) @ (tone,
    sample)`` products over the whole session (see ``_comb_tables``).
    Its values differ from ``sin`` evaluated on the full time grid only
    by rounding, at most 1e-10 uV (about 1e-11 measured).
    """
    seconds = x.reshape(-1, SECOND_SAMPLES)  # rows: (channel, interval, second)
    j = np.arange(EPOCH_SECONDS)[:, None]
    product = np.empty_like(seconds)
    for band in BANDS:
        omega, sin_tab, cos_tab = _comb_tables(*COMB_PLACEMENT_HZ[band.name])
        angle = omega * j + phases[band.name][:, :, None, :]
        scale = amplitudes[band.name][:, :, None, None] / math.sqrt(len(omega))
        np.matmul((scale * np.sin(angle)).reshape(-1, len(omega)), cos_tab, out=product)
        seconds += product
        np.matmul((scale * np.cos(angle)).reshape(-1, len(omega)), sin_tab, out=product)
        seconds += product


def _outlier_block(rate: float) -> np.ndarray:
    n_out = int(round(rate * EPOCH_SAMPLES))
    t = np.arange(n_out) / EEG_SAMPLE_RATE_HZ
    return OUTLIER_BLOCK_AMPLITUDE_UV * np.sign(
        np.sin(2.0 * np.pi * OUTLIER_BLOCK_HZ * t + 0.25 * np.pi))


def generate_session(spec: SynthSpec, seed: int) -> Session:
    """Generate a complete session deterministically from (spec, seed).

    Interval states are an exact-count random assignment of
    ``round(n_intervals * drowsy_fraction)`` drowsy intervals; drowsy
    intervals scale each band's amplitude by its multiplier and shift the
    telemetry means. Labels carry three identical ratings (1 when alert,
    4 when drowsy).

    Random numbers are drawn per interval and channel, in this order: the
    noise, each band's tone phases, then the outlier block's start. The
    combs and outlier blocks are added after all draws.

    Raises:
        InvalidSpec: The spec fails validation.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    n = spec.n_intervals

    n_drowsy = int(round(n * spec.drowsy_fraction))
    drowsy = np.zeros(n, dtype=bool)
    drowsy[rng.permutation(n)[:n_drowsy]] = True

    n_ch = len(EEG_CHANNELS)
    x = np.empty((n_ch, n, EPOCH_SAMPLES))
    phases = {b.name: np.empty((n_ch, n, len(_comb_tables(*COMB_PLACEMENT_HZ[b.name])[0])))
              for b in BANDS}
    block = _outlier_block(spec.outlier_rate) if spec.outlier_rate > 0.0 else None
    starts = np.zeros((n_ch, n), dtype=np.intp)
    for k in range(n):
        for ci in range(n_ch):
            x[ci, k] = rng.normal(0.0, spec.noise_floor_uv, EPOCH_SAMPLES)
            for p in phases.values():  # in BANDS order
                p[ci, k] = rng.uniform(0.0, 2.0 * np.pi, p.shape[-1])
            if block is not None and len(block) < EPOCH_SAMPLES:
                starts[ci, k] = rng.integers(0, EPOCH_SAMPLES - len(block) + 1)

    amplitudes = {}
    for b in BANDS:
        amp = np.array([[spec.band_amplitudes_uv[ch][b.name]] for ch in EEG_CHANNELS])
        amplitudes[b.name] = np.where(drowsy, amp * spec.drowsy_band_multipliers[b.name], amp)
    _add_combs(x, phases, amplitudes)
    if block is not None:
        for ci in range(n_ch):
            for k in range(n):
                x[ci, k, starts[ci, k]:starts[ci, k] + len(block)] += block
    channels = [x[ci].reshape(-1) for ci in range(n_ch)]

    eeg = EegRecording(channels=tuple(channels))

    intervals = tuple(
        OrdInterval(index=k, ratings=(DROWSY_RATING,) * 3 if drowsy[k] else (ALERT_RATING,) * 3)
        for k in range(n)
    )
    labels = OrdLabelTrack(intervals=intervals)

    telemetry = None
    if spec.include_telemetry:
        per_interval = int(round(spec.telemetry_rate_hz * ORD_INTERVAL_SECONDS))
        n_samples = per_interval * n
        drowsy_mask = np.repeat(drowsy, per_interval)
        series = []
        for name in VEHICLE_SERIES:
            values = spec.telemetry_baseline[name] + rng.normal(
                0.0, spec.telemetry_noise, n_samples)
            values[drowsy_mask] += spec.drowsy_telemetry_shift[name]
            series.append(values)
        telemetry = VehicleTelemetry(series=tuple(series),
                                     sample_rate_hz=spec.telemetry_rate_hz)

    return Session(id=f"synth-{seed}", eeg=eeg, labels=labels, telemetry=telemetry)
