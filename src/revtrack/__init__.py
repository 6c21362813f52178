"""Transaction-graph forensics toolkit.

Classifies subgraphs of a directed transaction graph from their boundary
(sender and receiver sets) and discovers new suspicious sender-receiver
links by iterative bisection filtering, with a synthetic generator for
desk-scale experiments.
"""

__version__ = "0.1.0"


def _pin_blas_threads():
    """Run numpy's bundled OpenBLAS on one thread.

    A product split over more threads can round differently, so checkpoint
    bytes would follow the core count (or ``OPENBLAS_NUM_THREADS``); the
    products here are small, and a second thread bought no time end to end.
    Does nothing when numpy ships no such library or it lacks the setter.
    """
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


_pin_blas_threads()

from .graph_core import BackgroundGraph, BoundarySets, Subgraph  # noqa: E402,F401
from .synth_gen import SynthConfig, SynthDataset  # noqa: E402,F401
