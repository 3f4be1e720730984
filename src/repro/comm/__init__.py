"""Communication substrate: circular buffers and border channels.

The real-process engine's shared state — border rings, the pruning
scoreboard, the heartbeat board (and the recovery checkpoint area in
:mod:`repro.multigpu.checkpoint`) — are :class:`ShmSegment` subclasses
sharing one create/attach/close/unlink lifecycle (:mod:`.shm`).
"""

from .._lazy import lazy_package

# Each name loads its module on first access: the real-process engines
# use the shared-memory modules and never load the simulated channels.
lazy_package(__name__, {
    ".channel": ("BorderChannel", "BorderSegment"),
    ".network": ("InterNodeChannel", "NetworkLink"),
    ".progress": ("PHASES", "ProgressBoard", "ProgressSample"),
    ".ringbuf": ("RingBuffer", "RingStats", "SimRingBuffer"),
    ".scoreboard": ("LocalScoreboard", "SharedScoreboard"),
    ".shm": ("ShmSegment", "list_segments"),
    ".shmring": ("ShmRing",),
})

__all__ = [
    "BorderChannel",
    "BorderSegment",
    "InterNodeChannel",
    "LocalScoreboard",
    "NetworkLink",
    "PHASES",
    "ProgressBoard",
    "ProgressSample",
    "RingBuffer",
    "RingStats",
    "SharedScoreboard",
    "ShmRing",
    "ShmSegment",
    "SimRingBuffer",
    "list_segments",
]
