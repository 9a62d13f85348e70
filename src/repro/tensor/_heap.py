"""Keep the engine's temporaries on a retained heap (glibc only).

A search step allocates and frees numpy temporaries of 0.1–4 MB:
activations, gradients, gathers and the arrays their backwards scatter
into.  glibc serves blocks above its mmap threshold (128 KiB at start,
raised only as far as the largest mapped block freed so far) by a fresh
``mmap``, and trims the top of the heap once more than twice that
threshold is free there, so each step hands those pages back to the
kernel and faults them in again.
Two ``mallopt`` settings keep them:

* ``M_MMAP_THRESHOLD`` 4 MiB — every temporary of a small-scale search
  comes from the heap; larger blocks (the dataset, medium-scale
  activations) are still mapped and unmapped on their own.
* ``M_TRIM_THRESHOLD`` 32 MiB — the heap keeps up to 32 MiB of free
  memory at its top, several steps' worth of temporaries, before it is
  trimmed.

Both are upper bounds on memory kept, not allocations made; setting
them also stops glibc's dynamic threshold from moving.  Where the C
library exports no ``mallopt`` (macOS, Windows) nothing happens.
"""

from __future__ import annotations

import ctypes

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD_BYTES = 4 << 20
TRIM_THRESHOLD_BYTES = 32 << 20


def retain_heap() -> bool:
    """Apply both settings; ``False`` when ``mallopt`` is unavailable."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))


__all__ = ["retain_heap"]
