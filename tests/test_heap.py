import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hoedeform import heap

SRC = Path(__file__).resolve().parent.parent / "src"


def _glibc_with_mallinfo2() -> bool:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    return bool(libc) and libc.startswith("glibc") and hasattr(ctypes.CDLL("libc.so.6"), "mallinfo2")


# Whether glibc maps a block of each size, after the free of a mapped 8 MiB
# block, which left to itself would raise glibc's mmap threshold to 8 MiB.
PROBE = """
import ctypes
import hoedeform

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL("libc.so.6")
libc.mallinfo2.argtypes = ()
libc.mallinfo2.restype = Mallinfo2
libc.malloc.argtypes = (ctypes.c_size_t,)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = (ctypes.c_void_p,)
libc.free.restype = None

def mapped(size):
    before = libc.mallinfo2().hblks
    block = libc.malloc(size)
    assert block
    out = libc.mallinfo2().hblks > before
    libc.free(block)
    return out

print(*(mapped(size) for size in (8 << 20, 4 << 20, 2 << 20, 512 << 10)))
"""


@pytest.mark.skipif(not _glibc_with_mallinfo2(), reason="needs glibc 2.33 or later")
def test_import_fixes_the_malloc_thresholds_at_1_mib():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "True", "True", "False"]


def _unsupported(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [_unsupported, lambda name: None, lambda name: "musl 1.2"],
                         ids=["no_such_name", "no_value", "other_libc"])
def test_other_c_libraries_are_left_alone(monkeypatch, confstr):
    monkeypatch.setattr(heap.os, "confstr", confstr)
    assert heap.fix_malloc_thresholds() is False
