"""A fixed piece of work, apart from the program, that times the host.

The benchmark runs on a share of a host whose other tenants change its
speed by 10 to 20 % over minutes, for every kind of work at once. Two runs
of the same code a few minutes apart then differ by that much, however long
each run is. The benchmark times this kernel between its rounds and
reports every timing at the reference speed of the host: the measured
seconds times REFERENCE_SECONDS over the median time of the kernel in the
same run. A change to the program leaves the kernel's time alone, so it
moves the reported figures as much as the measured ones.

The kernel mixes what the program spends its time on: a sparse LU
factorization, a sparse normal-matrix product, vectorised numpy arithmetic
and interpreted Python. Its inputs are fixed, not drawn from the run's seed.
"""

import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu  # bound before the tracer wraps splu

# Median time of one kernel run on the reference machine (a 2-vCPU Intel
# Xeon virtual machine at 2.0 GHz, Python 3.11, numpy 2.4, SciPy 1.17).
REFERENCE_SECONDS = 0.035
SHARE = 0.1  # of the time of the operations


class Calibration:
    def __init__(self):
        side = 40
        step = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        eye = sparse.identity(side)
        self.laplacian = (sparse.kron(step, eye) + sparse.kron(eye, step)).tocsc()
        self.design = sparse.random(8_000, 600, density=0.02, random_state=0, format="csr")
        self.samples = np.random.default_rng(0).uniform(size=100_000)
        self.times = []

    def work(self):
        splu(self.laplacian)
        gram = self.design.T @ self.design
        total = float(np.sin(self.samples).sum()) + gram.nnz
        for i in range(30_000):
            total += i * i
        return total

    def run(self, seconds):
        """Time the kernel, once or more, for a share of an operation's
        seconds: the host is then sampled in proportion to the time the
        operations take."""
        spent = 0.0
        while not spent or spent < SHARE * seconds:
            start = time.perf_counter()
            self.work()
            self.times.append(time.perf_counter() - start)
            spent += self.times[-1]


def factor(times):
    """Reported seconds per measured second, from the kernel's times."""
    return REFERENCE_SECONDS / float(np.median(times))
