"""The numpy reference kernels, and which measurement uses which.

Kinds of work slow down by different amounts under the same load, so
each measurement is normalized by a kernel that slows down as it does
(see ``speed.py`` for the normalization).  On the development VM,
operations were timed while candidate kernels were sampled during them,
and the log-log slope of an operation's wall time against a kernel's
mean time was fitted (1 means the normalized time does not move with the
load):

- 69 n = 14 osgood solves (eigvalsh-bound), wall time over a 2.0x range:
  1.06 against :func:`mixed_kernel`, 0.95 against :func:`small_kernel`,
  1.12 against a dim-128 eigvalsh alone, 1.35 against the Python loop
  alone.
- 108 runs of the inequality suites (small numpy calls), wall time over
  a 2.1x range, one kernel per sample in turn: 0.93 against
  :func:`small_kernel` (spread of the normalized time 2.5%), 1.27 against
  :func:`mixed_kernel` (4.8%).
- 217 fresh-interpreter imports of cliffsde, wall time over a 2.1x range:
  with ``speed.python_kernel`` sampled during each import, the spread of
  the median of 10 normalized imports was 2.6%; with
  :func:`small_kernel` timed after each import, 4.8%.

So the solves use :func:`mixed_kernel`, the suites :func:`small_kernel`
and the imports ``speed.python_kernel``.
"""

from __future__ import annotations

import numpy as np

from speed import python_loop

_rng = np.random.default_rng(0x5EED)
_a = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_GRAM = _a.conj().T @ _a
_SMALL = _rng.standard_normal((4, 4)) + 0j
_EYE = np.eye(4, dtype=complex)


def _kron_calls(count: int) -> float:
    acc = 0.0
    for _ in range(count):
        acc += float(np.kron(_SMALL, _EYE)[0, 0].real)
    return acc


def mixed_kernel() -> float:
    """A dense Hermitian eigensolve at dim 128, small numpy calls and
    interpreter-bound Python.  Each kernel returns a value so that none
    of its work can be skipped."""
    return (float(np.linalg.eigvalsh(_GRAM)[-1]) + _kron_calls(40)
            + python_loop())


def small_kernel() -> float:
    """Small numpy calls and interpreter-bound Python, no LAPACK."""
    return _kron_calls(120) + python_loop()
