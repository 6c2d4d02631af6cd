"""Measurement-noise models for simulated charge-sensor data.

Real charge-stability diagrams are corrupted by several noise mechanisms with
very different signatures, and the paper's two "Fail" benchmarks exist
precisely because of such noise.  This module provides seeded, composable
models of the dominant mechanisms:

* :class:`WhiteNoise` — Gaussian amplifier/shot noise, independent per pixel.
* :class:`PinkNoise` — 1/f charge noise, generated in the frequency domain
  over the pixel grid so that it is spatially correlated the way a slow
  raster scan renders temporal 1/f noise.
* :class:`TelegraphNoise` — random telegraph signal from a two-level
  fluctuator: the signal jumps between two offsets with exponentially
  distributed dwell lengths along the (row-major) measurement order.
* :class:`DriftNoise` — slow linear/periodic drift of the sensor operating
  point across the scan.
* :class:`CompositeNoise` — sum of any of the above.

All models expose two sampling surfaces:

* :meth:`NoiseModel.sample_grid` returns a *static* additive field for a
  ``(rows, cols)`` grid — measurement time is implicitly mapped onto pixel
  position, the way a raster scan renders temporal noise;
* :meth:`NoiseModel.at_times` builds a :class:`TimeDependentNoise` sampler
  that evaluates the same mechanism at explicit simulated timestamps (the
  per-probe clock readings of
  :class:`~repro.instrument.timing.VirtualClock`), so non-raster probe
  patterns — and anything that revisits a voltage point later in the run —
  see the device *evolve* between probes.

Both surfaces are deterministic given their seed, and every time-dependent
sampler is a pure function of the timestamp once constructed: splitting a
batch of probes into smaller batches (or down to single scalar probes) cannot
change a single bit of the sampled noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from .events import ExponentialEventStream, require_finite as _require_finite


def _require_scale_factor(factor: float) -> None:
    """Validate a noise scale factor (finite, non-negative)."""
    if not np.isfinite(factor) or factor < 0:
        raise ConfigurationError("noise scale factor must be finite and non-negative")


class TimeDependentNoise:
    """Protocol for noise evaluated at simulated probe timestamps.

    Instances are built by :meth:`NoiseModel.at_times` and hold whatever
    random structure the mechanism needs (hash keys, component phases,
    telegraph switching times), drawn once from the seeded generator at
    construction.  After that, :meth:`sample_at` is a deterministic function
    of the timestamps — the same probe time always yields the same noise, no
    matter how requests are batched or interleaved.
    """

    def sample_at(self, times_s: np.ndarray) -> np.ndarray:
        """Additive noise (nA) at each simulated timestamp (seconds)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human readable description used in metadata."""
        return type(self).__name__


#: Amplitude parameters (all in nA) recognised by the default
#: :meth:`NoiseModel.scaled` implementation.  Structural parameters —
#: spectral exponents, dwell times, timescales — are deliberately absent:
#: scaling a model changes how *loud* the mechanism is, never its shape,
#: which is what keeps the scaled model's time-dependent samples exactly
#: ``factor`` times the unscaled ones at every timestamp.
AMPLITUDE_FIELDS: tuple[str, ...] = (
    "sigma_na",
    "amplitude_na",
    "ramp_na",
    "sine_amplitude_na",
)


class NoiseModel:
    """Base class for additive noise fields over a pixel grid."""

    def sample_grid(self, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        """Return an additive noise field of the requested shape (in nA)."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "NoiseModel":
        """This mechanism with every amplitude multiplied by ``factor``.

        The contract — relied on by :meth:`repro.scenarios.catalog.LabScenario.scaled`
        and the campaign noise axis — is that for the same seed the scaled
        model samples exactly ``factor`` times the unscaled model's values,
        in both the static-grid and time-dependent surfaces: only amplitude
        parameters change, so every structural random draw (hash keys,
        phases, switching times) is consumed identically.

        The default implementation scales the :data:`AMPLITUDE_FIELDS` a
        dataclass subclass declares; models with other parameterisations
        (or non-dataclass models) override this method.
        """
        _require_scale_factor(factor)
        updates = {
            name: getattr(self, name) * factor
            for name in AMPLITUDE_FIELDS
            if hasattr(self, name)
        }
        if not updates:
            raise ConfigurationError(
                f"cannot scale noise model {type(self).__name__}: it exposes "
                f"no known amplitude field ({', '.join(AMPLITUDE_FIELDS)}); "
                "override NoiseModel.scaled to make it scalable"
            )
        return replace(self, **updates)

    def at_times(
        self, rng: np.random.Generator, probe_interval_s: float = 0.05
    ) -> TimeDependentNoise:
        """Build a time-dependent sampler of this mechanism.

        Parameters
        ----------
        rng:
            Seeded generator the sampler draws its random structure from,
            once, at construction.
        probe_interval_s:
            Nominal simulated cost of one probe.  It converts the grid
            models' per-pixel units into seconds (a telegraph dwell of 200
            pixels becomes ``200 * probe_interval_s``), exactly the mapping a
            slow raster scan applies implicitly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement time-dependent sampling"
        )

    def describe(self) -> str:
        """One-line human readable description used in dataset metadata."""
        return type(self).__name__


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    """The trivial noise model: a zero field."""

    def sample_grid(self, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        return np.zeros(shape, dtype=float)

    def at_times(
        self, rng: np.random.Generator, probe_interval_s: float = 0.05
    ) -> TimeDependentNoise:
        return _ZeroTemporal()

    def scaled(self, factor: float) -> "NoiseModel":
        _require_scale_factor(factor)
        return self

    def describe(self) -> str:
        return "none"


@dataclass(frozen=True)
class WhiteNoise(NoiseModel):
    """Independent Gaussian noise per pixel.

    Attributes
    ----------
    sigma_na:
        Standard deviation of the noise in nanoamperes.
    """

    sigma_na: float = 0.01

    def __post_init__(self) -> None:
        _require_finite("sigma_na", self.sigma_na)
        if self.sigma_na < 0:
            raise ConfigurationError("sigma_na must be non-negative")

    def sample_grid(self, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self.sigma_na, size=shape)

    def at_times(
        self, rng: np.random.Generator, probe_interval_s: float = 0.05
    ) -> TimeDependentNoise:
        return _WhiteTemporal(self.sigma_na, key=int(rng.integers(0, 2**63)))

    def describe(self) -> str:
        return f"white(sigma={self.sigma_na:g} nA)"


@dataclass(frozen=True)
class PinkNoise(NoiseModel):
    """Spatially correlated 1/f^exponent noise over the pixel grid.

    The field is generated by shaping white noise in the 2-D Fourier domain
    with an isotropic ``1/|k|^(exponent/2)`` filter and normalising to the
    requested r.m.s. amplitude.  Because slow scans map measurement time onto
    pixel position, temporal 1/f charge noise appears as exactly this kind of
    long-range-correlated field.

    Attributes
    ----------
    sigma_na:
        Target r.m.s. amplitude in nanoamperes.
    exponent:
        Spectral exponent; 1.0 gives classic 1/f, 2.0 gives Brownian-like
        drift.
    """

    sigma_na: float = 0.02
    exponent: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("sigma_na", self.sigma_na)
        _require_finite("exponent", self.exponent)
        if self.sigma_na < 0:
            raise ConfigurationError("sigma_na must be non-negative")
        if self.exponent <= 0:
            raise ConfigurationError("exponent must be positive")

    def sample_grid(self, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        rows, cols = shape
        if self.sigma_na == 0 or rows * cols <= 1:
            # Degenerate grids — empty, or a single pixel whose spectrum has
            # no non-DC component to shape — carry no 1/f structure.
            return np.zeros(shape, dtype=float)
        white = rng.normal(0.0, 1.0, size=shape)
        fy = np.fft.fftfreq(rows)[:, None]
        fx = np.fft.fftfreq(cols)[None, :]
        radius = np.sqrt(fy * fy + fx * fx)
        radius[0, 0] = np.partition(radius.ravel(), 1)[1]  # avoid divide by zero
        spectrum = np.fft.fft2(white) / np.power(radius, self.exponent / 2.0)
        spectrum[0, 0] = 0.0
        field = np.real(np.fft.ifft2(spectrum))
        rms = float(np.sqrt(np.mean(field**2)))
        if rms == 0:
            return np.zeros(shape, dtype=float)
        return field * (self.sigma_na / rms)

    def at_times(
        self, rng: np.random.Generator, probe_interval_s: float = 0.05
    ) -> TimeDependentNoise:
        return _PinkTemporal(self.sigma_na, self.exponent, rng, probe_interval_s)

    def describe(self) -> str:
        return f"pink(sigma={self.sigma_na:g} nA, exp={self.exponent:g})"


@dataclass(frozen=True)
class TelegraphNoise(NoiseModel):
    """Random telegraph noise from a single two-level fluctuator.

    The fluctuator toggles the sensor current by ``amplitude_na`` with dwell
    lengths (measured in pixels along the row-major scan order) drawn from an
    exponential distribution with mean ``mean_dwell_pixels``.

    Attributes
    ----------
    amplitude_na:
        Size of the current jump when the fluctuator switches state.
    mean_dwell_pixels:
        Average number of consecutively scanned pixels between switches.
    """

    amplitude_na: float = 0.05
    mean_dwell_pixels: float = 200.0

    def __post_init__(self) -> None:
        _require_finite("amplitude_na", self.amplitude_na)
        _require_finite("mean_dwell_pixels", self.mean_dwell_pixels)
        if self.amplitude_na < 0:
            raise ConfigurationError("amplitude_na must be non-negative")
        if self.mean_dwell_pixels <= 0:
            raise ConfigurationError("mean_dwell_pixels must be positive")

    def sample_grid(self, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        total = int(shape[0] * shape[1])
        if total == 0 or self.amplitude_na == 0:
            return np.zeros(shape, dtype=float)
        trace = np.zeros(total, dtype=float)
        state = bool(rng.integers(0, 2))
        position = 0
        while position < total:
            dwell = max(1, int(rng.exponential(self.mean_dwell_pixels)))
            end = min(total, position + dwell)
            trace[position:end] = self.amplitude_na if state else 0.0
            state = not state
            position = end
        trace -= float(np.mean(trace))
        return trace.reshape(shape)

    def at_times(
        self, rng: np.random.Generator, probe_interval_s: float = 0.05
    ) -> TimeDependentNoise:
        return _TelegraphTemporal(
            self.amplitude_na, self.mean_dwell_pixels * probe_interval_s, rng
        )

    def describe(self) -> str:
        return (
            f"telegraph(amp={self.amplitude_na:g} nA, "
            f"dwell={self.mean_dwell_pixels:g} px)"
        )


@dataclass(frozen=True)
class DriftNoise(NoiseModel):
    """Slow drift of the sensor operating point across the scan.

    Combines a linear ramp along the slow (row) axis with an optional
    sinusoidal modulation, both expressed in nanoamperes peak-to-peak.  In
    time-dependent sampling the ramp and modulation unfold over
    ``timescale_s`` of simulated time instead of over the rows of one scan
    (and the ramp keeps growing past it — real drift does not stop when a
    scan ends).
    """

    ramp_na: float = 0.03
    sine_amplitude_na: float = 0.0
    sine_periods: float = 1.5
    timescale_s: float = 300.0

    def __post_init__(self) -> None:
        _require_finite("ramp_na", self.ramp_na)
        _require_finite("sine_amplitude_na", self.sine_amplitude_na)
        _require_finite("sine_periods", self.sine_periods)
        _require_finite("timescale_s", self.timescale_s)
        if self.ramp_na < 0:
            raise ConfigurationError("ramp_na must be non-negative")
        if self.sine_amplitude_na < 0:
            raise ConfigurationError("sine_amplitude_na must be non-negative")
        if self.sine_periods <= 0:
            raise ConfigurationError("sine_periods must be positive")
        if self.timescale_s <= 0:
            raise ConfigurationError("timescale_s must be positive")

    def sample_grid(self, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        rows, cols = shape
        row_phase = np.linspace(0.0, 1.0, rows, endpoint=True)[:, None]
        field = self.ramp_na * (row_phase - 0.5) * np.ones((1, cols))
        if self.sine_amplitude_na:
            field = field + self.sine_amplitude_na * np.sin(
                2.0 * np.pi * self.sine_periods * row_phase
            )
        return np.broadcast_to(field, shape).copy()

    def at_times(
        self, rng: np.random.Generator, probe_interval_s: float = 0.05
    ) -> TimeDependentNoise:
        return _DriftTemporal(self)

    def describe(self) -> str:
        return f"drift(ramp={self.ramp_na:g} nA, sine={self.sine_amplitude_na:g} nA)"


class CompositeNoise(NoiseModel):
    """Sum of several independent noise models."""

    def __init__(self, components: Sequence[NoiseModel]) -> None:
        self._components = tuple(components)
        if not self._components:
            raise ConfigurationError("CompositeNoise requires at least one component")

    @property
    def components(self) -> tuple[NoiseModel, ...]:
        """The constituent noise models."""
        return self._components

    def __repr__(self) -> str:
        # Content-based (the default object repr embeds a memory address,
        # which would poison anything fingerprinting scenario definitions
        # by repr across processes — e.g. campaign checkpoint resume).
        return f"CompositeNoise(components={self._components!r})"

    def sample_grid(self, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        field = np.zeros(shape, dtype=float)
        for component in self._components:
            field = field + component.sample_grid(shape, rng)
        return field

    def scaled(self, factor: float) -> "NoiseModel":
        # Every component is scaled in place (never dropped): the component
        # count determines how at_times spawns child streams, so removing a
        # silenced component would reshuffle its siblings' randomness.
        _require_scale_factor(factor)
        return CompositeNoise(
            [component.scaled(factor) for component in self._components]
        )

    def at_times(
        self, rng: np.random.Generator, probe_interval_s: float = 0.05
    ) -> TimeDependentNoise:
        # Independent spawned streams per component, so adding or removing a
        # component does not reshuffle the randomness of the others.
        children = rng.spawn(len(self._components))
        return _CompositeTemporal(
            tuple(
                component.at_times(child, probe_interval_s)
                for component, child in zip(self._components, children)
            )
        )

    def describe(self) -> str:
        return " + ".join(component.describe() for component in self._components)


# ---------------------------------------------------------------------------
# Time-dependent samplers
# ---------------------------------------------------------------------------

class _ZeroTemporal(TimeDependentNoise):
    """Time-dependent view of :class:`NoNoise`."""

    def sample_at(self, times_s: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(times_s, dtype=float).shape, dtype=float)

    def describe(self) -> str:
        return "none"


_MIX_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL_2 = np.uint64(0x94D049BB133111EB)


def _mix_bits(bits: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser over a uint64 array (wrapping arithmetic)."""
    z = bits.copy()
    z ^= z >> np.uint64(30)
    z *= _MIX_MUL_1
    z ^= z >> np.uint64(27)
    z *= _MIX_MUL_2
    z ^= z >> np.uint64(31)
    return z


class _WhiteTemporal(TimeDependentNoise):
    """Gaussian noise as a deterministic function of the probe timestamp.

    The float bits of each timestamp are hashed (SplitMix64, keyed by one
    draw from the seeded generator) into a uniform variate and mapped through
    the normal inverse CDF.  Distinct probe times get independent-looking
    draws; the same time always gets the same draw, which is what makes the
    scalar and batched probe paths bit-identical by construction.
    """

    def __init__(self, sigma_na: float, key: int) -> None:
        # Imported here, where the sampler is built, so that importing the
        # library does not load SciPy.
        from scipy.special import ndtri

        self._sigma_na = float(sigma_na)
        self._key = np.uint64(key)
        self._ndtri = ndtri

    def sample_at(self, times_s: np.ndarray) -> np.ndarray:
        times = np.ascontiguousarray(np.asarray(times_s, dtype=float))
        if times.size == 0 or self._sigma_na == 0:
            return np.zeros(times.shape, dtype=float)
        bits = times.view(np.uint64) ^ self._key
        # Map the hash to a uniform in (0, 1); the half-bit offset keeps the
        # inverse CDF away from its infinities at 0 and 1.
        uniform = (np.right_shift(_mix_bits(bits), np.uint64(11)) + 0.5) * 2.0**-53
        return self._sigma_na * self._ndtri(uniform)

    def describe(self) -> str:
        return f"white(sigma={self._sigma_na:g} nA)"


class _PinkTemporal(TimeDependentNoise):
    """1/f^exponent noise as a finite sum of random-phase sinusoids.

    Component frequencies are log-spaced from roughly one cycle per few
    thousand probes up to the per-probe Nyquist rate, with amplitudes shaped
    like the grid model's spectrum and normalised to the requested r.m.s.
    """

    _N_COMPONENTS = 48
    _LOW_FREQUENCY_PROBES = 4096.0

    def __init__(
        self,
        sigma_na: float,
        exponent: float,
        rng: np.random.Generator,
        probe_interval_s: float,
    ) -> None:
        if probe_interval_s <= 0 or not np.isfinite(probe_interval_s):
            raise ConfigurationError(
                "probe_interval_s must be positive for time-dependent 1/f noise"
            )
        self._sigma_na = float(sigma_na)
        self._exponent = float(exponent)
        low = 1.0 / (self._LOW_FREQUENCY_PROBES * probe_interval_s)
        high = 1.0 / (2.0 * probe_interval_s)
        self._frequencies = np.geomspace(low, high, self._N_COMPONENTS)
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=self._N_COMPONENTS)
        amplitudes = np.power(self._frequencies, -self._exponent / 2.0)
        rms = np.sqrt(0.5 * np.sum(amplitudes**2))
        self._amplitudes = amplitudes * (self._sigma_na / rms if rms > 0 else 0.0)

    def sample_at(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        if times.size == 0 or self._sigma_na == 0:
            return np.zeros(times.shape, dtype=float)
        angles = (
            2.0 * np.pi * times[..., None] * self._frequencies + self._phases
        )
        return np.einsum("...k,k->...", np.sin(angles), self._amplitudes)

    def describe(self) -> str:
        return f"pink(sigma={self._sigma_na:g} nA, exp={self._exponent:g})"


class _TelegraphTemporal(TimeDependentNoise):
    """Random telegraph signal with dwell times measured in seconds.

    The switching times form one fixed random sequence (an
    :class:`~repro.physics.events.ExponentialEventStream`), so the state at
    time ``t`` — the parity of the number of switches before ``t`` — is
    independent of how queries are batched or ordered.  The two levels are
    ``±amplitude/2``: analytically mean-centred, where the grid model can
    only centre empirically over the pixels it rendered.
    """

    def __init__(
        self, amplitude_na: float, mean_dwell_s: float, rng: np.random.Generator
    ) -> None:
        if mean_dwell_s <= 0 or not np.isfinite(mean_dwell_s):
            raise ConfigurationError(
                "telegraph dwell must be positive in seconds; "
                "probe_interval_s must be positive for time-dependent sampling"
            )
        self._amplitude_na = float(amplitude_na)
        self._mean_dwell_s = float(mean_dwell_s)
        self._initial_high = bool(rng.integers(0, 2))
        self._switches = ExponentialEventStream(rng, mean_dwell_s)

    def sample_at(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        if times.size == 0 or self._amplitude_na == 0:
            return np.zeros(times.shape, dtype=float)
        switches_before = self._switches.count_before(times)
        high = (switches_before % 2 == 0) == self._initial_high
        half = 0.5 * self._amplitude_na
        return np.where(high, half, -half)

    def describe(self) -> str:
        return (
            f"telegraph(amp={self._amplitude_na:g} nA, "
            f"dwell={self._mean_dwell_s:g} s)"
        )


class _DriftTemporal(TimeDependentNoise):
    """Deterministic sensor drift: a ramp plus sinusoid over ``timescale_s``."""

    def __init__(self, model: DriftNoise) -> None:
        self._model = model

    def sample_at(self, times_s: np.ndarray) -> np.ndarray:
        model = self._model
        phase = np.asarray(times_s, dtype=float) / model.timescale_s
        values = model.ramp_na * (phase - 0.5)
        if model.sine_amplitude_na:
            values = values + model.sine_amplitude_na * np.sin(
                2.0 * np.pi * model.sine_periods * phase
            )
        return values

    def describe(self) -> str:
        return self._model.describe()


class _CompositeTemporal(TimeDependentNoise):
    """Sum of several independent time-dependent samplers."""

    def __init__(self, components: tuple[TimeDependentNoise, ...]) -> None:
        self._components = components

    def sample_at(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        values = np.zeros(times.shape, dtype=float)
        for component in self._components:
            values = values + component.sample_at(times)
        return values

    def describe(self) -> str:
        return " + ".join(component.describe() for component in self._components)


def standard_lab_noise(
    white_sigma_na: float = 0.012,
    pink_sigma_na: float = 0.015,
    telegraph_amplitude_na: float = 0.0,
    drift_na: float = 0.02,
) -> NoiseModel:
    """A realistic default mix: white + 1/f + slow drift (+ optional RTS)."""
    components: list[NoiseModel] = [
        WhiteNoise(sigma_na=white_sigma_na),
        PinkNoise(sigma_na=pink_sigma_na),
        DriftNoise(ramp_na=drift_na),
    ]
    if telegraph_amplitude_na > 0:
        components.append(TelegraphNoise(amplitude_na=telegraph_amplitude_na))
    return CompositeNoise(components)
