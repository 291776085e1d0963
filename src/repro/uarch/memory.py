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
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .config import MemoryDeviceConfig

#: Optional latency fault hook (``docs/FAULTS.md``).  The solver asks
#: it once per (run, tier) when a solve starts, passing the tier name
#: (``"dram"`` or the slow device's name, as :class:`~repro.uarch.
#: interleave.Placement` names them); it returns ``(scale, add_ns)``,
#: and every evaluation of that solve uses ``loaded * scale + add_ns``
#: as the tier's loaded latency.  A fault so drawn inflates the tier
#: for the whole run, the way the paper's tail-latency effect does.
#: The kernels below never read it, so probes and analytic predictors
#: see nominal latency.  ``None`` (the default) is the fault-free
#: path.  Install via :func:`set_latency_fault_hook`; the hook lives in
#: this process only - pool workers never see it.
LatencyFaultHook = Callable[[str], Tuple[float, float]]
_LATENCY_FAULT_HOOK: Optional[LatencyFaultHook] = None


def set_latency_fault_hook(hook: Optional[LatencyFaultHook]
                           ) -> Optional[LatencyFaultHook]:
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
    return base * (1.0 + linear + queue) * (1.0 + tail)


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
    """Vectorized :func:`loaded_latency_ns`."""
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
