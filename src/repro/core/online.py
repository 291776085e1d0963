"""Online windowed prediction with phase detection (extends Fig. 8).

The paper demonstrates that CAMP's models hold per sampling window, not
just in aggregate (section 4.4.5).  This module turns that into a
runtime component: an :class:`OnlinePredictor` consumes counter windows
as a perf sampling loop emits them, maintains an exponentially-weighted
signature, forecasts slow-tier slowdown continuously, and flags *phase
changes* - the moments a tiering runtime would want to reconsider
placement.

Phase detection is deliberately simple and counter-native: a window
whose predicted slowdown departs from the running estimate by more than
``phase_threshold`` (absolute) starts a new phase.  The EWMA restarts
on a phase boundary so the estimate re-converges quickly.

Degraded windows (samples that lost counters to perf multiplexing or a
fault injector, see ``docs/FAULTS.md``) still produce a prediction for
every window - flagged via :attr:`WindowUpdate.degraded` - but they
never open a new phase and their EWMA weight is scaled by the sample's
confidence, so transient counter loss cannot masquerade as a workload
phase change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .calibration import Calibration
from .counters import CounterSample, ProfiledRun
from .signature import signature_from_sample
from .slowdown import SlowdownPrediction, SlowdownPredictor


@dataclass(frozen=True)
class WindowUpdate:
    """The predictor's state after consuming one window."""

    window: int
    #: Prediction from this window alone.
    instant: SlowdownPrediction
    #: Smoothed estimate (EWMA over the current phase).
    smoothed_total: float
    #: True when this window started a new phase.
    phase_change: bool
    #: Index of the current phase (0-based).
    phase: int

    @property
    def degraded(self) -> bool:
        """True when this window's sample was missing counters."""
        return self.instant.degraded

    @property
    def confidence(self) -> float:
        return self.instant.confidence


class OnlinePredictor:
    """Streaming slowdown forecasts from per-window counter samples.

    Parameters
    ----------
    calibration:
        Platform+device constants.
    platform_family, frequency_ghz:
        Context a perf wrapper knows about the machine being sampled.
    alpha:
        EWMA weight of the newest window (0 < alpha <= 1).
    phase_threshold:
        Absolute slowdown jump that opens a new phase.
    """

    def __init__(self, calibration: Calibration, platform_family: str,
                 frequency_ghz: float, alpha: float = 0.4,
                 phase_threshold: float = 0.10):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if phase_threshold <= 0:
            raise ValueError("phase threshold must be positive")
        self._predictor = SlowdownPredictor(calibration)
        self.platform_family = platform_family
        self.frequency_ghz = frequency_ghz
        self.alpha = alpha
        self.phase_threshold = phase_threshold
        self._window = 0
        self._phase = 0
        self._smoothed: Optional[float] = None
        self.history: List[WindowUpdate] = []

    def observe(self, sample: CounterSample) -> WindowUpdate:
        """Consume one counter window and return the updated state."""
        sig = signature_from_sample(
            sample, self.platform_family, self.frequency_ghz,
            label=f"window-{self._window}")
        instant = self._predictor.predict_signature(sig)

        phase_change = False
        if self._smoothed is None:
            self._smoothed = instant.total
        elif instant.degraded:
            # A window with missing counters still produces a (flagged)
            # prediction, but its apparent slowdown jump may be an
            # artifact of the fallback quantities: never open a new
            # phase from it, and let its EWMA weight shrink with the
            # sample's confidence so one multiplexing gap cannot yank
            # the estimate.
            self._smoothed += self.alpha * instant.confidence * (
                instant.total - self._smoothed)
        elif abs(instant.total - self._smoothed) > self.phase_threshold:
            phase_change = True
            self._phase += 1
            self._smoothed = instant.total  # restart on the new phase
        else:
            self._smoothed += self.alpha * (instant.total -
                                            self._smoothed)

        update = WindowUpdate(
            window=self._window,
            instant=instant,
            smoothed_total=self._smoothed,
            phase_change=phase_change,
            phase=self._phase,
        )
        self.history.append(update)
        self._window += 1
        return update

    def observe_profile(self, profile: ProfiledRun
                        ) -> List[WindowUpdate]:
        """Feed every window of a windowed profile through the stream."""
        return [self.observe(window) for window in profile.windows]

    @property
    def current_estimate(self) -> Optional[float]:
        """The smoothed slowdown estimate, or None before any window."""
        return self._smoothed

    @property
    def phase_count(self) -> int:
        """Number of phases seen so far (>= 1 once windows arrive)."""
        return self._phase + (1 if self.history else 0)

    @property
    def degraded_fraction(self) -> float:
        """Share of observed windows whose sample missed counters."""
        if not self.history:
            return 0.0
        degraded = sum(1 for update in self.history if update.degraded)
        return degraded / len(self.history)

    def phase_boundaries(self) -> Tuple[int, ...]:
        """Window indices that started a new phase."""
        return tuple(update.window for update in self.history
                     if update.phase_change)
