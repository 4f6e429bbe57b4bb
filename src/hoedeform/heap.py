"""Fixed malloc thresholds for processes on glibc.

glibc starts with a 128 KiB mmap threshold and raises it to the size of
every larger mapped block that is freed, up to 32 MiB, with the threshold
for trimming the heap at twice that. After one whole-file read of a 2 MB
output the heap may then keep up to 4 MB of freed memory resident, and
whether it does depends on where small long-lived blocks happen to land: the
same chain of verbs on the same files peaks about 3 MB higher or lower with
nothing changed but the length of the working directory's path.

Fixing both thresholds ends that adjustment. At 1 MiB a reader's block
with all it holds while it reads it (the readers' ``READ_BLOCK_BYTES`` are
sized for that: ~0.95 MB at most), a writer's block with its kernel, its
text and the rows it writes (``numtext.BLOCK_VALUES`` is sized for that:
~0.98 MB at most, a field file at 16 001 samples) and the per-sample arrays of
fields up to ~40 000 samples stay on the heap, buffers of 1 MiB and more
get their own mapping and are returned when freed, and the heap is trimmed
whenever 1 MiB at its top is free. A block that outgrew the thresholds
would give its pages back and fault them in again on every call.
"""

from __future__ import annotations

import ctypes
import os

MALLOC_THRESHOLD_BYTES = 1 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>


def fix_malloc_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds to ``MALLOC_THRESHOLD_BYTES``,
    which also stops glibc from moving them. Under any other C library
    nothing changes and the result is False."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc = None
    if not libc or not libc.startswith("glibc"):
        return False
    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    done = [mallopt(param, MALLOC_THRESHOLD_BYTES) for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD)]
    return all(ok == 1 for ok in done)
