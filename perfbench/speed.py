"""Correction for the host's drifting speed.

The benchmark host is a 2-vCPU virtual machine whose cores are shared with
other tenants.  Its speed drifts: the same pure-Python loop has measured
anywhere from 13 ms to 73 ms within one hour, with slow spells lasting from
a fraction of a second to minutes.  That drift moves the program and any
other CPU-bound code alike, and it is several times larger than the changes
the benchmark must resolve.

So every measured interval is bracketed by a fixed reference probe, and the
interval is scaled by ``REF_NOMINAL_S / probe``: a reported time reads as it
would on a host where the probe takes ``REF_NOMINAL_S``.  The probe mixes
bytecode and small-array NumPy work, like the program's hot paths, and never
calls the program, so no change to ``src/`` can move it.  In 5-minute traces
cut into 30-second windows, the spread of the window medians (quartile
distance over median) was 0.13 raw and 0.04 corrected on ``falsify``, and
0.23 raw and 0.07 corrected on ``sweep``.  Raw times and probe times are
kept in each result's detail line.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time that defines "nominal" speed; any fixed value works, because
#: only ratios between runs are compared.
REF_NOMINAL_S = 0.02


def probe_s() -> float:
    """Wall time of the fixed reference work (about 20 ms here)."""
    start = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k
    a = np.eye(4)
    for _ in range(2000):
        a = a * 1.0 + 0.0
    return time.perf_counter() - start


def timed(fn):
    """Run ``fn()`` between two probes; returns (result, mean probe seconds)."""
    before = probe_s()
    result = fn()
    return result, (before + probe_s()) / 2.0


def nominal(seconds: float, probe: float) -> float:
    """``seconds`` measured at probe time ``probe``, scaled to nominal speed."""
    return seconds * REF_NOMINAL_S / probe
