"""Seeded test inputs and the benchmark's reference algebra.

``ref`` is ``bench/reference.py``, plain numpy written apart from quadproto,
loaded once without writing bytecode next to it.  Test modules draw Haar
states with ``PureState(ref.haar(n, rng))`` and relabel qubits with
``ref.to_qubit_order``.
"""

import importlib.util
import os
import sys

import numpy as np


def _load_reference():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "reference.py")
    spec = importlib.util.spec_from_file_location("_bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


ref = _load_reference()


def haar_unitary(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    dim = 1 << num_qubits
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
