"""Fixed kernels, timed between ops, that measure how fast the host runs.

On a shared host the cores' speed drifts: over a few minutes the same op
took anywhere from 0.87 to 1.25 s of CPU time. Each kernel below does the
kind of work one class of workload does and calls no cylwave code, so its
CPU time moves with the host and not with the code under test:

- ``vector``: Hankel functions over a 20,000-point array, a 160 x 160
  complex LU and an interpreted loop, like the N = 512 solver ops;
- ``scalar``: size-1 special-function and numpy calls in a Python loop,
  like the series and CLI ops, which speed up and slow down with the host
  more than vectorised code does.

The kernel runs before and after every op and every set-up; the op's CPU
time, scaled by the kernel's reference time over the mean of the two
kernel times around it, is its CPU time at the reference machine's usual
speed.
"""

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.special

_X = np.linspace(0.5, 40.0, 20000)
_A = np.random.default_rng(0).standard_normal((160, 160)) + 0j
_SCALARS = (1.0 + 1e-3 * np.arange(6000)).tolist()


def vector_kernel():
    for order in (0, 1):
        scipy.special.hankel2(order, _X)
    scipy.linalg.lu_factor(_A)
    total = 0
    for i in range(30000):
        total += i * i
    return total


def scalar_kernel():
    total = 0.0
    for x in _SCALARS:
        total += abs(scipy.special.hankel2(0, x)) + float(np.sqrt(x))
    return total


# name -> (kernel, its median CPU time on the reference machine at two BLAS
# threads when this benchmark was added). Never change either for a kind
# in use: every normalised time depends on them.
KERNELS = {"vector": (vector_kernel, 0.026), "scalar": (scalar_kernel, 0.0236)}


def seconds(kind):
    """CPU seconds of one run of the kernel ``kind``."""
    kernel = KERNELS[kind][0]
    start = time.process_time()
    kernel()
    return time.process_time() - start


def normalised(cpu_seconds, before, after, kind):
    """cpu_seconds at reference speed, from the kernel times around it."""
    return cpu_seconds * KERNELS[kind][1] / (0.5 * (before + after))


def speed_factor(samples, kind):
    """Reference time over the median of a run's kernel times."""
    return KERNELS[kind][1] / statistics.median(samples)
