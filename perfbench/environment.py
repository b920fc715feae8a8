"""Thread pinning and the environment block printed with every result.

``pin_threads()`` must run before numpy is imported: OpenBLAS reads
``OPENBLAS_NUM_THREADS`` and ``OPENBLAS_THREAD_TIMEOUT`` once, when the
library loads. cylwave reads ``CYLWAVE_THREADS`` on every sweep, to size
its thread pool.
"""

import ctypes
import glob
import os
import platform
import sys

# Two threads is what a user of the reference machine (2 cores) gets by
# default from both OpenBLAS and the sweep pool. Hosts with more cores run
# the same two, so results stay comparable between machines. One thread
# would be cheaper in CPU time, but it moves the roundoff of the ellipse
# solves: over the same 320 inputs the worst field error was 8.1e-5 at one
# thread against 6.0e-6 at two, too close to the 1e-4 check.
DEFAULT_THREADS = 2
# An idle OpenBLAS thread spins for 2**28 cycles before it sleeps, by
# default. That spinning counts as the process's CPU time without doing
# work, and how much of it runs depends on whether the host lets the other
# core run. At 4 (2**4 cycles, the least OpenBLAS takes) it sleeps at once.
# On ellipse-dense this took the op's CPU time from 1.08-1.15 s to
# 0.82-0.99 s, about 5% over its wall time, and left the wall time as it was.
THREAD_TIMEOUT = 4


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads():
    """Set both thread counts to min(2, usable CPUs); return that count."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    threads = max(1, min(DEFAULT_THREADS, usable_cpus()))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    os.environ["CYLWAVE_THREADS"] = str(threads)
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = str(THREAD_TIMEOUT)
    return threads


def _openblas_libraries():
    """(label, path) of the OpenBLAS copies bundled with numpy and scipy."""
    import numpy
    import scipy

    found = []
    for label, module in (("numpy", numpy), ("scipy", scipy)):
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), module.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            found.append((label, path))
    return found


def _openblas_readback(path):
    """Config string and live thread count of one loaded OpenBLAS copy."""
    lib = ctypes.CDLL(path)
    out = {"library": os.path.basename(path)}
    for suffix in ("64_", ""):
        try:
            get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
        except AttributeError:
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        out["threads_read_back"] = int(get_threads())
        out["config"] = get_config().decode("ascii", "replace").strip()
        return out
    out["threads_read_back"] = None
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes():
    """Size of the last-level cache of CPU 0, or None when unknown."""
    best_level, best_size = -1, None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(index, "size")) as handle:
                text = handle.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        size = int(text.rstrip("KM")) * scale
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def describe(threads):
    """The environment block: versions, thread counts, CPU and cache."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {
            label: _openblas_readback(path) for label, path in _openblas_libraries()
        },
        "blas_threads_set": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CYLWAVE_THREADS": os.environ.get("CYLWAVE_THREADS"),
        "OPENBLAS_THREAD_TIMEOUT": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
    }
