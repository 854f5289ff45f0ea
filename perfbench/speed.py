"""Host-speed probe: rescales measured times to a fixed machine speed.

On a shared host the speed a process gets drifts by up to 2x within a
minute, in CPU time as much as in wall time, because neighbours share its
cores and caches.  The benchmark therefore times a fixed probe right before
every task.  A time divided by the median probe time around it, times
``REFERENCE_S``, is that time on a machine where the probe takes
``REFERENCE_S``: a change to the program shows in full, while a slow phase
of the host slows the probe as well and mostly cancels.

The probe does what the program's hot paths do, with none of its code:
products of guarded ratios of numpy complex scalars, like the sine-ratio and
rational products of ``gauge`` and ``chain``, or, for the dense oracle,
complex matrix products.  Each tracked its own kind of work best: on the
dense workload the scalar probe slowed by 2x where the matrices slowed by
1.2x.  The probe must not call ``bethegauge``, or a faster program would
also speed up its own yardstick.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: the probe time that the rescaled times assume
REFERENCE_S = 1e-3
#: probe samples on either side of a task in its speed estimate; a narrow
#: window follows the host's phase changes, a wide one averages more
HALF_WINDOW = 3

_POINTS = np.asarray([0.3, 0.7, 1.1, 1.6, 2.0], dtype=complex)
_MATRIX = (np.random.default_rng(0).standard_normal((128, 128))
           + 1j * np.random.default_rng(1).standard_normal((128, 128)))


def _guarded(x):
    if abs(x) < 1e-12:
        raise ZeroDivisionError
    return complex(x)


def _scalar_work() -> complex:
    out = 1.0 + 0j
    for rep in range(6):
        sig = np.asarray(_POINTS + 0.01 * rep, dtype=complex)
        for j in range(len(sig)):
            for k in range(len(sig)):
                if k == j:
                    continue
                for sgn in (1.0, -1.0):
                    out *= (_guarded(sig[j] + sgn * sig[k] - 0.37)
                            / _guarded(sig[j] + sgn * sig[k] + 0.37))
    return out


def _dense_work():
    return _MATRIX @ _MATRIX @ _MATRIX


class Speedometer:
    """Probe timings in the order they were taken."""

    def __init__(self, dense: bool = False) -> None:
        self._work = _dense_work if dense else _scalar_work
        self.samples: List[float] = []
        for _ in range(20):  # warm-up: allocator, numpy dispatch
            self._work()

    def sample(self) -> int:
        """Time the probe once; returns the sample's index."""
        t0 = perf_counter()
        self._work()
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor that rescales a time measured next to sample ``index``."""
        lo = max(0, index - HALF_WINDOW)
        window = self.samples[lo:index + HALF_WINDOW + 1]
        return REFERENCE_S / statistics.median(window)

    def probe(self, n: int = 5) -> float:
        """Median time of ``n`` fresh samples."""
        return statistics.median(self.samples[self.sample()] for _ in range(n))


def time_import(src: Path) -> Tuple[float, float]:
    """Time ``import bethegauge.cli`` from ``src`` in a fresh interpreter.

    Returns the import time and the median scalar probe time taken in that
    interpreter around the import, so the import can be rescaled with the
    speed its own process got.  numpy is imported before the clock starts:
    its start-up is the same for every version of the program.
    """
    done = subprocess.run([sys.executable, __file__, str(src)], check=True, timeout=120,
                          capture_output=True, text=True)
    import_s, probe_s = json.loads(done.stdout)
    return import_s, probe_s


if __name__ == "__main__":
    speedo = Speedometer()
    speedo.probe()
    sys.path.insert(0, sys.argv[1])
    t0 = perf_counter()
    import bethegauge.cli  # noqa: E402,F401
    elapsed = perf_counter() - t0
    print(json.dumps([elapsed, speedo.probe(10)]))
