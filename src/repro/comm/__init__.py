"""Communication substrate: circular buffers and border channels.

The real-process engine's shared state — border rings, the pruning
scoreboard, the heartbeat board (and the recovery checkpoint area in
:mod:`repro.multigpu.checkpoint`) — are :class:`ShmSegment` subclasses
sharing one create/attach/close/unlink lifecycle (:mod:`.shm`).
"""

from .channel import BorderChannel, BorderSegment
from .network import InterNodeChannel, NetworkLink
from .progress import PHASES, ProgressBoard, ProgressSample
from .ringbuf import RingBuffer, RingStats, SimRingBuffer
from .scoreboard import LocalScoreboard, SharedScoreboard
from .shm import ShmSegment, list_segments
from .shmring import ShmRing

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
