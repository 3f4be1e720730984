"""Compiled kernel backend: the Gotoh row sweep in C, through ctypes.

The NumPy row engines pay a dozen ufunc launches per DP row, so a
narrow row (a pruned window of a few thousand cells) is bound by
per-row overhead, not by its cells.  This backend sweeps a whole block
in one native call: ``rowsweep.c``, shipped beside this module, is the
row engine of :func:`~repro.sw.kernel.sweep_protocol` for
``kernel="compiled"``, in int16 and int32, with or without a
:class:`~repro.sw.kernel.LiveWindow`.  Each row is three passes (F, the
diagonal term and the E-scan input; the serial offset-form prefix max;
final H, E and the row maximum), so the first and last vectorise
(INTERNALS.md section 12).

Build and load.  The library is built on first use with ``$CC`` (else
``cc``) into a per-user cache, ``$XDG_CACHE_HOME/mgsw`` or
``~/.cache/mgsw``, else a private directory under
:func:`tempfile.gettempdir`.  Its file name is keyed by the source, the
compiler (:func:`compiler_identity`: the resolved path of the
executable with its size and modification time, so no process runs to
name it), the flags and (for ``-march=native``) the host CPU, so a
cached library is reused only where it was built for, and ends in a
digest of the file's own bytes.  Only a build runs a child process (and
imports :mod:`subprocess`).  A build writes a unique
temporary file and :func:`os.replace` s it into place, so concurrent
builders never load half a file.  A load first checks the digest (a
truncated library can crash the process that maps it), then runs a
small block through the library and the NumPy engine and keeps the
library only if they agree; a damaged file is rebuilt once.
:func:`engine` does all this once per process: the CLI and
:meth:`~repro.sw.config.AlignConfig.concrete` reach it through
``resolve_kernel("auto")`` before any worker starts, so workers only
load the cached file, inside their ``warmup`` span.

Fallback.  With no compiler, or a build or load that fails,
:func:`engine` is ``None``: ``auto`` resolves to ``scalar``, the CLI
refuses ``--kernel compiled``, and the library's ``kernel="compiled"``
is :func:`~repro.sw.kernel.sweep_block` itself.

Exactness contract: ``sweep_block_compiled`` is bit-identical to
:func:`repro.sw.kernel.sweep_block` for every (dtype, mode, window,
escalation) combination.  Both run one narrow-DP protocol and differ
only in the row engine they hand it; the C engine keeps every value in
the sweep dtype, with the NumPy engine's wrap-around, and the same
row-major best-cell tie-break.  The differential suites pin this.

``MGSW_WARMUP_DELAY=<seconds>`` makes :func:`warmup` sleep, so the
telemetry tests can prove that warmup never lands in a compute span.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

from ..seq.scoring import DNA_DEFAULT, Scoring
from .constants import NEG_INF, DpPolicy
from .kernel import (TRIM_ROWS, BestCell, BlockResult, LiveWindow, _row_loop,
                     build_profile, local_boundaries, sweep_block,
                     sweep_protocol)

#: The engine's source, shipped as package data.
SOURCE = Path(__file__).with_name("rowsweep.c")

#: Compiler flags.  ``-fwrapv`` gives signed overflow NumPy's wrap-around.
FLAGS = ("-O3", "-march=native", "-fwrapv", "-fPIC", "-shared")

#: Sentinel cap for wide sweeps: no row maximum can reach it.
_NO_CAP = 1 << 62

_ARRAY = ctypes.c_void_p
_I64 = ctypes.c_int64
_ARGTYPES = (_ARRAY, _I64, _ARRAY, _I64, _I64, _I64, _ARRAY, _ARRAY,
             _ARRAY, _ARRAY, _I64, _I64, _I64, _I64, ctypes.c_int,
             ctypes.c_int, _I64, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _I64)


class Engine:
    """The loaded library: one sweep function per DP dtype."""

    def __init__(self, path: Path) -> None:
        self.path = path
        lib = ctypes.CDLL(str(path))
        self.sweeps = {np.int16: lib.mgsw_sweep_rows_i16,
                       np.int32: lib.mgsw_sweep_rows_i32}
        for fn in self.sweeps.values():
            fn.argtypes = _ARGTYPES
            fn.restype = ctypes.c_int
        self._lib = lib  # keeps the library mapped


def _cpu_identity() -> str:
    """What ``-march=native`` reads of the host CPU."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return os.uname().machine
    keys = ("vendor_id", "model name", "flags", "CPU implementer",
            "CPU part", "Features")
    return "\n".join(dict.fromkeys(
        line for line in text.splitlines() if line.startswith(keys)))


def compiler_identity(cc: list[str]) -> bytes | None:
    """What names the compiler *cc* without running it: its resolved
    path with the file's size and modification time, and the rest of
    the command line; ``None`` when ``cc[0]`` is not an executable on
    ``PATH`` (no compiler).  An upgrade rewrites the file, and so
    changes the key."""
    exe = shutil.which(cc[0]) if cc else None
    if exe is None:
        return None
    real = os.path.realpath(exe)
    try:
        st = os.stat(real)
    except OSError:
        return None
    return "\0".join([real, str(st.st_size), str(st.st_mtime_ns),
                       *cc[1:]]).encode()


def library_stem(cc: list[str]) -> str | None:
    """The cache key of a library built by *cc*, or ``None`` when there
    is no such compiler.  Reading it starts no process."""
    identity = compiler_identity(cc)
    if identity is None:
        return None
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), identity, " ".join(FLAGS).encode(),
                 _cpu_identity().encode()):
        key.update(part)
        key.update(b"\0")
    return f"rowsweep-{key.hexdigest()[:24]}"


def cache_dirs() -> list[Path]:
    """Where the library may be cached, in order of preference: the
    per-user cache, then a private directory under the temp dir."""
    dirs = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    try:
        dirs.append((Path(xdg) if xdg else Path.home() / ".cache") / "mgsw")
    except RuntimeError:  # no home directory
        pass
    dirs.append(Path(tempfile.gettempdir()) / f"mgsw-{os.getuid()}")
    return dirs


def _private(directory: Path) -> bool:
    """Create *directory* if need be; whether it is ours alone to load
    code from (owned by this user, writable by no one else)."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = directory.stat()
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def build(cc: list[str], directory: Path, stem: str) -> Path:
    """Compile the engine into *directory* as ``<stem>-<digest>.so``,
    *digest* naming the file's own bytes, and return its path.  The
    compiler writes a unique temporary file, which then replaces the
    target, so a reader never sees half a library."""
    import subprocess  # only a build runs a child process

    fd, tmp = tempfile.mkstemp(prefix=stem + ".", suffix=".tmp",
                               dir=directory)
    os.close(fd)
    try:
        subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE.resolve())],
                       capture_output=True, timeout=300, check=True)
        target = directory / f"{stem}-{_digest(Path(tmp).read_bytes())}.so"
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load(path: Path) -> Engine | None:
    """Load *path* if its bytes still match the digest in its name (a
    damaged library can crash the process that maps it) and it sweeps
    as the NumPy engine does; else ``None``."""
    try:
        if _digest(path.read_bytes()) != path.stem.rsplit("-", 1)[-1]:
            return None
        eng = Engine(path)
    except (OSError, AttributeError):
        return None
    return eng if _self_check(eng) else None


def load_or_build() -> Engine | None:
    """A checked engine from the first cache dir that holds one, else
    from the first that a fresh build succeeds in; ``None`` when there
    is no compiler or every attempt fails."""
    try:
        cc = shlex.split(os.environ.get("CC") or "cc")
    except ValueError:  # unbalanced quotes in $CC
        return None
    stem = library_stem(cc)
    if stem is None:
        return None
    dirs = [d for d in cache_dirs() if _private(d)]
    for d in dirs:
        for path in sorted(d.glob(stem + "-*.so")):
            eng = _load(path)
            if eng is not None:
                return eng
    import subprocess  # only a build runs a child process

    for d in dirs:
        try:
            eng = _load(build(cc, d, stem))
        except (OSError, subprocess.SubprocessError):
            continue
        if eng is not None:
            return eng
    return None


@functools.cache
def engine() -> Engine | None:
    """This process's engine, loaded (or built) once; ``None`` without
    one.  ``engine.cache_clear()`` forgets it."""
    return load_or_build()


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def _run_c(eng: Engine, a_codes, profile, h_top, f_top, h_left, e_left,
           h_diag, scoring: Scoring, cap: int | None, *, local: bool,
           track_best: bool,
           window: LiveWindow | None = None) -> BlockResult | None:
    """The C row engine of :func:`~repro.sw.kernel.sweep_protocol`: one
    native sweep in the borders' dtype; ``None`` on overflow.

    An address lookup costs more than a small block's cells, so all the
    call reads and writes except the profile is copied into one arena
    (its int64 words, then the sweep-dtype columns, then the left-open
    flags) and every pointer is an offset into it: two lookups a call.
    The bottom row and right column come back as views of the arena,
    which stays alive as long as they do."""
    kind = h_top.dtype.type
    R, W = int(a_codes.size), int(h_top.size)
    if {profile.dtype, f_top.dtype, h_left.dtype, e_left.dtype} != {h_top.dtype}:
        raise TypeError("a row engine sweeps in its borders' one dtype")
    if profile.strides[1] != profile.itemsize or profile.strides[0] < 0:
        profile = np.ascontiguousarray(profile)
    item = profile.itemsize
    # int64 words: the codes, the best cell (3) and the window (8).
    cols_at = 8 * (R + 11)
    # Sweep-dtype columns: h_left, e_left, h_right, e_right (R each),
    # then h_top, f_top (W each), swept into the bottom row in place.
    flags_at = cols_at + item * (4 * R + 2 * W)
    arena = np.empty(flags_at + R, dtype=np.uint8)
    base = _address(arena)
    words = arena[:cols_at].view(np.int64)
    words[:R] = a_codes
    cols = arena[cols_at:flags_at].view(kind)
    cols[:R], cols[R:2 * R] = h_left, e_left
    cols[4 * R:4 * R + W], cols[4 * R + W:] = h_top, f_top
    start = 0 if local else NEG_INF
    if window is None:
        words[R:] = (start, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0)
        arena[flags_at:] = 0
        dead = 0  # unused: every row starts at the left border
    else:
        words[R:] = (start, -1, -1, 1, window.best, window.match,
                     window.rows_left, window.cols_left, window.lo, window.hi,
                     0)
        arena[flags_at:] = window.left_open(h_left, e_left, h_diag)
        dead = window.dead
    col = base + cols_at
    rc = eng.sweeps[kind](
        base, R, _address(profile), profile.strides[0] // item,
        profile.shape[0], W, col + 4 * R * item, col + (4 * R + W) * item,
        col, col + R * item, int(h_diag), int(scoring.gap_open),
        int(scoring.gap_extend), int(dead), int(local), int(track_best),
        _NO_CAP if cap is None else int(cap), col + 2 * R * item,
        col + 3 * R * item, base + 8 * R, base + 8 * (R + 3),
        base + flags_at, TRIM_ROWS)
    if rc == -2:
        raise IndexError("a residue code has no profile row")
    if rc < 0:
        raise MemoryError("row engine scratch allocation failed")
    if rc:
        return None
    score, row, best_col = words[R:R + 3].tolist()
    best = BestCell(score, row, best_col) if row >= 0 else BestCell.none()
    cells = live = None
    if window is not None:
        lo, hi, cells = words[R + 8:].tolist()
        live = (lo, hi)
    h_bottom = cols[4 * R:4 * R + W]
    return BlockResult(h_bottom=h_bottom, f_bottom=cols[4 * R + W:],
                       h_right=cols[2 * R:3 * R], e_right=cols[3 * R:4 * R],
                       corner=int(h_bottom[-1]), best=best, cells=cells,
                       live=live)


def _self_check(eng: Engine) -> bool:
    """Whether *eng* sweeps a small block as the NumPy engine does, in
    both dtypes, with and without a live window."""
    a = (np.arange(12) * 7 % 11 % 4).astype(np.uint8)
    b = np.concatenate([a, a[::-1], a[:8]])
    profile = build_profile(b, DNA_DEFAULT)
    for kind in (np.int32, np.int16):
        for window in (None, LiveWindow(10, 1, 11, 31, 0, 0, dead=-8192)):
            outs = []
            for rows in (partial(_run_c, eng), _row_loop):
                h_top, f_top, h_left, e_left, _ = local_boundaries(12, 32)
                f_top[:], e_left[:] = -8192, -8192
                res = rows(a, profile.astype(kind), h_top.astype(kind),
                           f_top.astype(kind), h_left.astype(kind),
                           e_left.astype(kind), 0, DNA_DEFAULT, None,
                           local=True, track_best=True, window=window)
                outs.append((res.h_bottom.tolist(), res.f_bottom.tolist(),
                             res.h_right.tolist(), res.e_right.tolist(),
                             res.best, res.cells, res.live))
            if outs[0] != outs[1]:
                return False
    return True


def sweep_block_compiled(
    a_codes: np.ndarray,
    profile: np.ndarray,
    h_top: np.ndarray,
    f_top: np.ndarray,
    h_left: np.ndarray,
    e_left: np.ndarray,
    h_diag: int,
    scoring: Scoring,
    *,
    local: bool = True,
    track_best: bool = True,
    dp: DpPolicy | None = None,
    window: LiveWindow | None = None,
) -> BlockResult:
    """:func:`repro.sw.kernel.sweep_block` semantics on the C engine.

    Same contract minus the row sink (the traceback stages that need
    special rows call the NumPy kernels directly).  Without an engine
    this is ``sweep_block`` itself.
    """
    eng = engine()
    if eng is None:
        return sweep_block(
            a_codes, profile, h_top, f_top, h_left, e_left, h_diag,
            scoring, local=local, track_best=track_best, dp=dp,
            window=window)
    return sweep_protocol(
        partial(_run_c, eng), a_codes, profile, h_top, f_top, h_left,
        e_left, h_diag, scoring, local=local, track_best=track_best, dp=dp,
        window=window)


def block_sweeper(kernel: str):
    """The one-block sweep behind *kernel*: the C engine's for
    ``compiled``, else the NumPy row engine's (a single block has
    nothing for ``batched`` to stack)."""
    return sweep_block_compiled if kernel == "compiled" else sweep_block


def warmup() -> float:
    """Load the engine once per process; returns seconds.

    Engines call this before their first timed block, inside a
    ``warmup`` tracer span, so loading (or, without a cached library,
    building) never lands in ``block_sweep_seconds`` or the
    ProgressBoard rates.  ``MGSW_WARMUP_DELAY`` adds a sleep of that
    many seconds, so tests can give warmup a cost on any machine.
    """
    t0 = time.perf_counter()
    delay = float(os.environ.get("MGSW_WARMUP_DELAY", "0") or 0.0)
    if delay > 0:
        time.sleep(delay)
    engine()
    return time.perf_counter() - t0


#: :func:`warmup` under the name :mod:`repro.sw` re-exports.
compiled_warmup = warmup
