"""Host-speed probe that runs beside a measurement.

Every quarter second it times one fixed, memory-bound NumPy kernel (4 MiB
streamed once, 64 Ki random reads) in CPU time, so being descheduled does
not count, and prints the milliseconds.  ``run.py`` points its stdout at a
file (a pipe would fill after seven minutes and stop the sampling), reads the
file when the run ends, and divides the run's timings by ``median /
REFERENCE_MS``: on the shared two-core host this benchmark was sized on,
stretches of one to ten minutes run 20-30 % slow, the kernel slows with them,
and dividing takes the run-to-run spread of a slow hour from 24 % to under
10 %.  ``README.md``, *How steady it is*, has the measurements, among them
that the kernel reads the same beside all four workloads.
"""

from __future__ import annotations

import os
import time

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

PERIOD_S = 0.25


def main() -> None:
    big = np.linspace(0.0, 1.0, 1 << 19)
    index = np.random.default_rng(0).integers(0, big.size, size=1 << 16)
    while True:  # until run.py terminates it
        cpu0 = time.process_time()
        (big * 1.5).sum()
        big.take(index).sum()
        print((time.process_time() - cpu0) * 1e3, flush=True)
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
