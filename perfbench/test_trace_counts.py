"""Self-checks of the layer wrappers in tracer.py.

The traced gamma on the ROADMAP's n=8 generic pair must reproduce the
baseline counts measured there, which shows that rebinding reaches the
call sites inside persimod and not only the benchmark's own calls.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import persimod  # noqa: E402
import persimod.interleaving as il  # noqa: E402

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402


def _roadmap_pair():
    rng = random.Random(2)
    F = gen.rand_barcode(rng, 8, den=997)
    G = gen.rand_barcode(rng, 8, den=997)
    return F, G


def test_traced_gamma_reproduces_roadmap_baseline():
    F, G = _roadmap_pair()
    tracer = Tracer()
    tracer.install()
    try:
        il.gamma(F, G)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["interleaving.gamma.calls"][0] == 1
    assert m["interleaving.check_interleaving.calls"][0] == 431
    assert m["interleaving.InterleavingCertificate.calls"][0] == 12
    assert m["interleaving.grid_points"][0] == 487
    assert m["matching.matching_covering.calls"][0] == 431


def test_uninstall_restores_every_binding():
    before = (il.gamma, il.check_interleaving, persimod.gamma, il.InterleavingCertificate.__init__)
    tracer = Tracer()
    tracer.install()
    assert il.check_interleaving is not before[1]
    assert persimod.gamma is il.gamma is not before[0]
    tracer.uninstall()
    after = (il.gamma, il.check_interleaving, persimod.gamma, il.InterleavingCertificate.__init__)
    assert after == before


def test_paused_tracer_records_nothing():
    F, G = _roadmap_pair()
    tracer = Tracer()
    tracer.install()
    tracer.paused = True
    try:
        il.check_interleaving(F, G, 1, 1)
    finally:
        tracer.uninstall()
    assert tracer.spans == [] and tracer.calls("intervals.hom") == 0
