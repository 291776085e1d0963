"""Memory-tier latency/bandwidth model.

Each memory backend (local DRAM, NUMA hop, CXL expander) is modeled as a
service center whose read latency inflates convexly with utilization:
queues in the memory controller and interconnect build slowly at low
load, then sharply as offered traffic approaches the device's peak
bandwidth.

The functional form here is deliberately *not* the quadratic the paper's
interleaving model assumes (Eq. 8).  The paper is explicit that the
quadratic is "a compact and sufficiently accurate approximation", not
ground truth; using a different convex law in the substrate keeps CAMP's
interleaving predictor an honest approximation with realistic residual
error, exactly as on real hardware.

Latency components:

``loaded_latency_ns(u)``
    idle latency plus a queueing term that grows like ``u^3 / (1+eps-u)``
    - near-linear at low load, super-linear past the knee, finite at the
    operating points a closed-loop core can actually reach.

``tail loading``
    CXL-A/B exhibit heavy tails (paper 4.4.4): workloads flagged as
    irregular (``tail_sensitivity > 0``) see the mean latency inflated by
    ``tail_alpha * tail_sensitivity``.  This term exists only on the
    device side, so DRAM-only profiling cannot see it - reproducing the
    paper's "tail latency noise" underestimation class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import CACHELINE_BYTES, MemoryDeviceConfig

#: Optional latency fault hook (``docs/FAULTS.md``): when set, every
#: computed loaded latency passes through it, letting a fault injector
#: model tail-latency spikes and transient device stalls without the
#: substrate knowing about fault plans.  ``None`` (the default) is the
#: fault-free fast path.  Install via :func:`set_latency_fault_hook`;
#: the hook lives in this process only - pool workers never see it.
_LATENCY_FAULT_HOOK: Optional[
    Callable[[MemoryDeviceConfig, float], float]] = None


def set_latency_fault_hook(
        hook: Optional[Callable[[MemoryDeviceConfig, float], float]]
) -> Optional[Callable[[MemoryDeviceConfig, float], float]]:
    """Install (or clear, with ``None``) the latency fault hook.

    Returns the previously-installed hook so injectors can restore it,
    making nested or exception-interrupted injection contexts safe.
    """
    global _LATENCY_FAULT_HOOK
    previous = _LATENCY_FAULT_HOOK
    _LATENCY_FAULT_HOOK = hook
    return previous

#: Utilization ceiling: offered load beyond this is throttled by the
#: closed-loop latency inflation, mirroring how finite MLP prevents a
#: real core from over-driving a memory controller.
MAX_UTILIZATION = 0.97

#: Headroom keeping the queueing denominator finite at the ceiling; the
#: resulting full-load latency lands at ~2.2-2.6x idle, matching MLC
#: loaded-latency curves and the paper's observed contention latencies
#: (e.g. 654.roms: 168 ns on 90 ns-idle DRAM under Colloid).
_QUEUE_EPSILON = 0.25


def loaded_latency_ns(device: MemoryDeviceConfig, utilization: float,
                      tail_sensitivity: float = 0.0) -> float:
    """Mean read latency of ``device`` at the given utilization.

    ``utilization`` is offered bandwidth divided by the device's peak;
    values are clamped to [0, MAX_UTILIZATION].  ``tail_sensitivity``
    (0..1) is a property of the *workload*: how much of its traffic is
    irregular enough to hit the device's latency tail.
    """
    u = min(max(utilization, 0.0), MAX_UTILIZATION)
    base = device.idle_latency_ns
    # Gentle linear term: bank conflicts and scheduling overhead start
    # immediately; the quartic term is the queue build-up toward
    # saturation; the knee term sharpens growth past the device's knee.
    linear = 0.20 * u
    over_knee = max(0.0, u - device.queue_knee)
    # `u^4`/`over_knee^2` are spelled as explicit products: IEEE-754
    # `x ** n` and `x * x` round differently, and the batched kernels
    # (`loaded_latency_ns_batch`) must agree bit-for-bit with this
    # scalar path so `Machine.run_batch` can replay `Machine.run`.
    u_sq = u * u
    queue = (device.queue_gain * 0.20 * (u_sq * u_sq) / (
        1.0 + _QUEUE_EPSILON - u)
        + device.queue_gain * 0.12 * (over_knee * over_knee))
    tail = device.tail_alpha * min(max(tail_sensitivity, 0.0), 1.0)
    latency_ns = base * (1.0 + linear + queue) * (1.0 + tail)
    if _LATENCY_FAULT_HOOK is not None:
        latency_ns = _LATENCY_FAULT_HOOK(device, latency_ns)
    return latency_ns


#: Upper bound on the saturation multiplier (guards pathological specs).
MAX_ESCALATION = 60.0

#: Integral-control gain for the saturation feedback loop.
_ESCALATION_GAIN = 0.3


def updated_escalation(escalation: float, device: MemoryDeviceConfig,
                       offered_gbps: float) -> float:
    """One integral-control step of the saturation latency multiplier.

    A memory device cannot serve more than its peak bandwidth.  When a
    closed-loop core complex offers more, queues grow until the inflated
    latency throttles the issue rate down to the service rate.  This
    update implements that feedback: each solver iteration multiplies
    the current escalation by ``(offered / capacity)^gain``, so the
    fixed point lands exactly where achieved bandwidth equals
    ``MAX_UTILIZATION * peak`` (or escalation returns to 1 when the
    device is not saturated).
    """
    if offered_gbps <= 0:
        return 1.0
    capacity = device.peak_bandwidth_gbps * MAX_UTILIZATION
    ratio = offered_gbps / capacity
    # np.power, not ``**``: libm and numpy `pow` differ in the last ulp
    # and the batched solver must replay this path bit-for-bit.
    new = escalation * float(np.power(ratio, _ESCALATION_GAIN))
    return min(MAX_ESCALATION, max(1.0, new))


def rfo_latency_ns(device: MemoryDeviceConfig, utilization: float,
                   tail_sensitivity: float = 0.0) -> float:
    """Read-for-Ownership latency: the full read path plus device RFO cost.

    On CXL the coherence round trip is costlier than a plain read; the
    device's ``rfo_latency_factor`` scales the loaded read latency, which
    reproduces the paper's observation that RFO latency grows 2-3x when
    moving stores from DRAM to CXL.
    """
    return loaded_latency_ns(device, utilization,
                             tail_sensitivity) * device.rfo_latency_factor


def utilization_for_bandwidth(device: MemoryDeviceConfig,
                              bandwidth_gbps: float) -> float:
    """Offered-load utilization for a traffic level, clamped to the ceiling."""
    if bandwidth_gbps <= 0:
        return 0.0
    return min(bandwidth_gbps / device.peak_bandwidth_gbps, MAX_UTILIZATION)


# --------------------------------------------------------------------------
# Batched kernels (docs/SOLVER.md)
#
# Struct-of-arrays mirrors of the scalar functions above.  Each kernel
# performs the *same arithmetic in the same order* as its scalar twin,
# so evaluating N problems as arrays yields bit-identical doubles to N
# scalar calls - the foundation of `Machine.run_batch`'s replay
# contract.  Device parameters arrive as per-element arrays
# (`DeviceLanes`) because one batch may mix slow tiers.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceLanes:
    """Per-element device parameters for the batched latency kernels."""

    idle_latency_ns: np.ndarray
    peak_bandwidth_gbps: np.ndarray
    tail_alpha: np.ndarray
    rfo_latency_factor: np.ndarray
    queue_gain: np.ndarray
    queue_knee: np.ndarray

    @classmethod
    def from_devices(cls, devices: Sequence[MemoryDeviceConfig]
                     ) -> "DeviceLanes":
        as_array = np.asarray
        return cls(
            idle_latency_ns=as_array(
                [d.idle_latency_ns for d in devices], dtype=np.float64),
            peak_bandwidth_gbps=as_array(
                [d.peak_bandwidth_gbps for d in devices], dtype=np.float64),
            tail_alpha=as_array(
                [d.tail_alpha for d in devices], dtype=np.float64),
            rfo_latency_factor=as_array(
                [d.rfo_latency_factor for d in devices], dtype=np.float64),
            queue_gain=as_array(
                [d.queue_gain for d in devices], dtype=np.float64),
            queue_knee=as_array(
                [d.queue_knee for d in devices], dtype=np.float64),
        )


def loaded_latency_ns_batch(lanes: DeviceLanes, utilization: np.ndarray,
                            tail_sensitivity: np.ndarray) -> np.ndarray:
    """Vectorized :func:`loaded_latency_ns`, without the fault hook:
    the batched solver applies an installed hook per lane itself."""
    u = np.minimum(np.maximum(utilization, 0.0), MAX_UTILIZATION)
    base = lanes.idle_latency_ns
    linear = 0.20 * u
    over_knee = np.maximum(0.0, u - lanes.queue_knee)
    u_sq = u * u
    queue = (lanes.queue_gain * 0.20 * (u_sq * u_sq) / (
        1.0 + _QUEUE_EPSILON - u)
        + lanes.queue_gain * 0.12 * (over_knee * over_knee))
    tail = lanes.tail_alpha * np.minimum(
        np.maximum(tail_sensitivity, 0.0), 1.0)
    return base * (1.0 + linear + queue) * (1.0 + tail)


def utilization_for_bandwidth_batch(lanes: DeviceLanes,
                                    bandwidth_gbps: np.ndarray) -> np.ndarray:
    """Vectorized :func:`utilization_for_bandwidth`."""
    utilization = np.minimum(
        bandwidth_gbps / lanes.peak_bandwidth_gbps, MAX_UTILIZATION)
    return np.where(bandwidth_gbps <= 0, 0.0, utilization)


def updated_escalation_batch(escalation: np.ndarray, lanes: DeviceLanes,
                             offered_gbps: np.ndarray) -> np.ndarray:
    """Vectorized :func:`updated_escalation`."""
    capacity = lanes.peak_bandwidth_gbps * MAX_UTILIZATION
    # Guard the masked-out lanes (offered <= 0) against 0^fractional.
    safe_offered = np.where(offered_gbps > 0, offered_gbps, capacity)
    ratio = safe_offered / capacity
    new = escalation * np.power(ratio, _ESCALATION_GAIN)
    clamped = np.minimum(MAX_ESCALATION, np.maximum(1.0, new))
    return np.where(offered_gbps <= 0, 1.0, clamped)


def measure_idle_latency_ns(device: MemoryDeviceConfig) -> float:
    """What an Intel-MLC-style idle-latency probe reports for ``device``.

    The paper's interleaving model takes ``L_idle`` per tier from MLC;
    our probe returns the loaded latency at (near-)zero utilization,
    which equals the configured idle latency.
    """
    return loaded_latency_ns(device, 0.0)


@dataclass
class TierLoad:
    """Mutable per-tier traffic ledger used by the closed-loop solver.

    ``own_gbps`` is the traffic of the workload being solved;
    ``external_gbps`` is traffic from colocated workloads sharing the
    device (interference).  Latency is computed from the sum.
    """

    device: MemoryDeviceConfig
    own_gbps: float = 0.0
    external_gbps: float = 0.0

    @property
    def total_gbps(self) -> float:
        return self.own_gbps + self.external_gbps

    @property
    def utilization(self) -> float:
        return utilization_for_bandwidth(self.device, self.total_gbps)

    def latency_ns(self, tail_sensitivity: float = 0.0) -> float:
        return loaded_latency_ns(self.device, self.utilization,
                                 tail_sensitivity)

    def rfo_ns(self, tail_sensitivity: float = 0.0) -> float:
        return rfo_latency_ns(self.device, self.utilization,
                              tail_sensitivity)


@dataclass(frozen=True)
class BlendedMemory:
    """Latency/bandwidth view of an interleaved DRAM+slow-tier placement.

    ``dram_fraction`` is the paper's ``x``: the fraction of the footprint
    (and, under weighted interleaving, of the requests) served by DRAM.
    The remaining ``1 - x`` goes to ``slow``.  A pure-DRAM placement has
    ``x = 1``; a pure-CXL one has ``x = 0``.
    """

    dram: TierLoad
    slow: Optional[TierLoad]
    dram_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.dram_fraction <= 1.0:
            raise ValueError("dram_fraction must be within [0, 1]")
        if self.slow is None and self.dram_fraction < 1.0:
            raise ValueError("a slow tier is required when x < 1")

    def read_latency_ns(self, tail_sensitivity: float = 0.0) -> float:
        """Request-weighted mean read latency across the two tiers."""
        x = self.dram_fraction
        lat = x * self.dram.latency_ns(0.0)
        if self.slow is not None and x < 1.0:
            lat += (1.0 - x) * self.slow.latency_ns(tail_sensitivity)
        return lat

    def rfo_latency_ns(self, tail_sensitivity: float = 0.0) -> float:
        """Request-weighted mean RFO latency across the two tiers."""
        x = self.dram_fraction
        lat = x * self.dram.rfo_ns(0.0)
        if self.slow is not None and x < 1.0:
            lat += (1.0 - x) * self.slow.rfo_ns(tail_sensitivity)
        return lat

    def distribute(self, total_gbps: float) -> None:
        """Assign this workload's traffic to the tiers by footprint share.

        Under weighted interleaving the per-tier request share tracks the
        footprint share within ~2% (paper 5.2); we apply the split
        exactly and let the caller add any deviation it wants to model.
        """
        x = self.dram_fraction
        self.dram.own_gbps = total_gbps * x
        if self.slow is not None:
            self.slow.own_gbps = total_gbps * (1.0 - x)

    @property
    def aggregate_peak_gbps(self) -> float:
        """Combined peak bandwidth reachable at this interleave ratio.

        The effective ceiling is limited by the ratio: traffic is pinned
        to tiers by page placement, so a 90:10 split cannot exploit the
        slow tier's full bandwidth.
        """
        x = self.dram_fraction
        dram_peak = self.dram.device.peak_bandwidth_gbps
        if self.slow is None or x >= 1.0:
            return dram_peak
        if x <= 0.0:
            return self.slow.device.peak_bandwidth_gbps
        slow_peak = self.slow.device.peak_bandwidth_gbps
        # The binding constraint is whichever tier saturates first given
        # the fixed x : (1-x) split.
        return min(dram_peak / x, slow_peak / (1.0 - x))


def lines_per_second(bandwidth_gbps: float) -> float:
    """Convert GB/s of cacheline traffic to lines/second."""
    return bandwidth_gbps * 1e9 / CACHELINE_BYTES


def gbps_from_lines(lines: float, seconds: float) -> float:
    """Convert a cacheline count over a duration to GB/s."""
    if seconds <= 0:
        return 0.0
    return lines * CACHELINE_BYTES / seconds / 1e9
