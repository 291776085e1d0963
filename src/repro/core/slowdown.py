"""The combined CXL slowdown predictor: ``S = S_DRd + S_Cache + S_Store``.

This is CAMP's headline capability (paper section 4): given *only* a
DRAM profiling run, forecast the workload's slowdown on a slow tier the
workload has never executed on.  The per-component models are composed
with the one-time :class:`~repro.core.calibration.Calibration` for the
target (platform, device) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .calibration import Calibration
from .counters import ProfiledRun
from .signature import Signature, signature, signature_from_sample


@dataclass(frozen=True)
class SlowdownPrediction:
    """A per-component slowdown forecast for one workload on one tier.

    ``degraded``/``confidence`` carry the input-quality verdict from
    the underlying :class:`~repro.core.signature.Signature`: a
    prediction built from a sample with missing counters is still
    emitted (with the documented fallbacks applied) but flagged, so a
    consumer can widen error bars or trigger re-profiling instead of
    crashing (``docs/FAULTS.md``).
    """

    label: str
    device: str
    drd: float
    cache: float
    store: float
    #: True when the source signature was missing expected counters.
    degraded: bool = False
    #: Fraction of expected counters that were present, in [0, 1].
    confidence: float = 1.0

    @property
    def total(self) -> float:
        """Predicted overall slowdown (Eq. 1)."""
        return self.drd + self.cache + self.store

    def as_dict(self) -> Dict[str, float]:
        return {"drd": self.drd, "cache": self.cache,
                "store": self.store, "total": self.total}


class SlowdownPredictor:
    """Predicts CXL/NUMA slowdown from DRAM-only counter samples.

    Parameters
    ----------
    calibration:
        The platform+device constants from one-time calibration.
    """

    def __init__(self, calibration: Calibration):
        self.calibration = calibration

    @property
    def device(self) -> str:
        return self.calibration.device

    def predict_signature(self, dram: Signature) -> SlowdownPrediction:
        """Predict from an already-extracted DRAM signature.

        A degraded signature (missing counters) still yields a
        prediction - the component models see the fallback quantities -
        but the result is flagged ``degraded`` with the signature's
        ``confidence``.
        """
        cal = self.calibration
        return SlowdownPrediction(
            label=dram.label,
            device=cal.device,
            drd=cal.drd.predict(dram),
            cache=cal.cache.predict(dram),
            store=cal.store.predict(dram),
            degraded=dram.degraded,
            confidence=dram.confidence,
        )

    def predict(self, profile: ProfiledRun) -> SlowdownPrediction:
        """Predict from a DRAM profiling run.

        Raises :class:`ValueError` when handed a slow-tier profile -
        the whole point is predicting *without* slow-tier execution,
        and silently accepting one would corrupt evaluations.
        """
        if profile.tier != "dram":
            raise ValueError(
                f"slowdown prediction expects a DRAM profile, got "
                f"tier={profile.tier!r}")
        if profile.platform_family != self.calibration.platform_family:
            raise ValueError(
                f"profile from {profile.platform_family!r} cannot use a "
                f"{self.calibration.platform_family!r} calibration")
        return self.predict_signature(signature(profile))

    def predict_windows(self, profile: ProfiledRun
                        ) -> List[SlowdownPrediction]:
        """Per-window predictions for time-series tracking (Fig. 8).

        Each window of the profile is treated as an independent sample
        (exactly how a per-second perf sampling loop would feed CAMP).
        """
        predictions: List[SlowdownPrediction] = []
        for index, window in enumerate(profile.windows):
            window_sig = signature_from_sample(
                window, profile.platform_family, profile.frequency_ghz,
                tier=profile.tier, label=f"{profile.label}@{index}")
            predictions.append(self.predict_signature(window_sig))
        return predictions
