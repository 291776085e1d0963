"""Demand-read slowdown model (paper section 4.1, Eq. 2-5).

The chain of reasoning, reproduced from the paper:

1. Demand-read slowdown is the growth of memory-active cycles
   normalized by execution cycles: ``S_DRd ~= (C_CXL - C_DRAM) / c``
   (Eq. 2).
2. Little's law gives ``C = N * L / MLP`` (Eq. 3); with request counts
   stable across tiers (``R_N ~= 1``), the growth collapses to
   ``S_DRd ~= (R_Lat / R_MLP - 1) * C_DRAM / c`` (Eq. 4).
3. The latency-tolerance factor ``R_Lat / R_MLP`` cannot be measured
   from a DRAM-only run, but it is predictable: it follows a hyperbolic
   function of the baseline AOL (``L_DRAM / MLP_DRAM``), fit once per
   (platform, device) from microbenchmarks (Eq. 5, Fig. 4f).

The exported pieces:

- :func:`hyperbolic_tolerance` - the fitted ``f(AOL) = 1/(p + q/AOL)``;
- :class:`DrdModel` - the calibrated Eq. 5 predictor, using the L3-miss
  stall counter ``s_LLC`` (P3) as the intensity proxy for ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signature import Signature

#: AOL floor (cycles) guarding the hyperbola's 1/AOL term.
_MIN_AOL = 1e-6


def hyperbolic_tolerance(aol_cycles: float, p: float, q: float) -> float:
    """``f(AOL) = 1 / (p + q / AOL)``: the latency-tolerance scaling.

    Approximates the unobservable ``R_Lat / R_MLP - 1`` from the
    DRAM-visible AOL.  Asymptotics (paper 4.1.2): at high AOL
    (serialized workloads) the factor saturates at ``1/p`` - slowdown
    is dominated by the raw latency ratio; at low AOL (abundant MLP)
    the ``q/AOL`` term dominates and tolerance improves.
    """
    aol = max(aol_cycles, _MIN_AOL)
    denominator = p + q / aol
    if denominator <= 0:
        # A degenerate fit; the scaling saturates rather than exploding.
        return 1.0 / max(p, _MIN_AOL)
    return 1.0 / denominator


@dataclass(frozen=True)
class DrdModel:
    """Calibrated Eq. 5: ``S_DRd = k * f(AOL) * s_LLC / c``.

    ``p`` and ``q`` come from the hyperbolic fit of microbenchmark
    latency-tolerance data; ``k`` converts the stall proxy ``s_LLC``
    into memory-active cycles (both are platform+device specific).
    """

    p: float
    q: float
    k: float

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")

    def tolerance(self, aol_cycles: float) -> float:
        """The fitted latency-tolerance factor for a baseline AOL."""
        return hyperbolic_tolerance(aol_cycles, self.p, self.q)

    def predict(self, dram: Signature) -> float:
        """Predicted demand-read slowdown from a DRAM-only signature."""
        if dram.s_llc <= 0 or dram.cycles <= 0:
            return 0.0
        return self.k * self.tolerance(dram.aol) * dram.llc_stall_fraction

    def predictor_value(self, dram: Signature) -> float:
        """The un-scaled predictor ``f(AOL) * s_LLC / c``.

        Used by the metric-correlation study (Table 1 / Fig. 1f): the
        CAMP predictor axis is this quantity plus the cache and store
        terms, before the per-device ``k`` scaling.
        """
        return self.tolerance(dram.aol) * dram.llc_stall_fraction


def measured_tolerance(dram: Signature, slow: Signature) -> float:
    """Ground-truth ``R_Lat / R_MLP - 1`` from a DRAM *and* a slow run.

    This is what calibration fits the hyperbola against - it requires
    both runs, which is acceptable for one-time microbenchmark
    calibration but exactly what CAMP avoids per-workload.
    """
    if dram.latency_cycles <= 0 or slow.latency_cycles <= 0:
        return 0.0
    r_lat = slow.latency_cycles / dram.latency_cycles
    r_mlp = max(slow.mlp, 1.0) / max(dram.mlp, 1.0)
    return max(0.0, r_lat / r_mlp - 1.0)


def measured_drd_slowdown(dram: Signature, slow: Signature) -> float:
    """Ground-truth ``S_DRd`` via the L3-miss stall delta (Melody-style)."""
    if dram.cycles <= 0:
        return 0.0
    return (slow.s_llc - dram.s_llc) / dram.cycles
