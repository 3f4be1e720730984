"""Simulated GPU substrate: virtual-time engine, device specs, devices."""

from .._lazy import lazy_package

# Each name loads its module on first access: the real-process engines
# take only the wall-clock recorder and never load the simulator.
lazy_package(__name__, {
    ".engine": ("Engine", "Event", "Process", "Semaphore", "Timeout"),
    ".gpu": ("GpuCounters", "SimulatedGPU"),
    ".smmodel": ("SMModel", "calibrated"),
    ".trace": ("Interval", "Tracer", "WallClockRecorder", "merge_wall_records",
               "render_gantt"),
    ".spec": ("ENV1_HETEROGENEOUS", "ENV2_HOMOGENEOUS", "GTX_560_TI",
              "GTX_580", "GTX_680", "TESLA_K20", "TESLA_M2090", "DeviceSpec",
              "homogeneous"),
})

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Semaphore",
    "Timeout",
    "Interval",
    "Tracer",
    "WallClockRecorder",
    "merge_wall_records",
    "render_gantt",
    "SMModel",
    "calibrated",
    "GpuCounters",
    "SimulatedGPU",
    "DeviceSpec",
    "homogeneous",
    "ENV1_HETEROGENEOUS",
    "ENV2_HOMOGENEOUS",
    "GTX_560_TI",
    "GTX_580",
    "GTX_680",
    "TESLA_K20",
    "TESLA_M2090",
]
