"""Independent gradient producers: double-precision reference and central FD.

The reference pipeline reruns a tape entirely in float64 with the exact
(unsafeguarded) backward; when a degenerate spectrum makes even that blow up,
the result is flagged rather than substituted. The finite-difference engine
perturbs every entry (real and imaginary parts separately for complex input)
and assembles the gradient under the dL = Re tr(Abar^H dA) convention, so the
two oracles are directly comparable.
"""

from __future__ import annotations

import numpy as np

from .backward import GradMode
from .tape import GradientSet, Tape

__all__ = ["finite_difference", "reference_gradient"]

_TO_DOUBLE = {
    np.dtype(np.float32): np.dtype(np.float64),
    np.dtype(np.float64): np.dtype(np.float64),
    np.dtype(np.complex64): np.dtype(np.complex128),
    np.dtype(np.complex128): np.dtype(np.complex128),
}


def reference_gradient(tape: Tape, bindings: dict, loss: int) -> tuple[GradientSet, bool]:
    """Forward+backward in float64 with the exact mode.

    Returns (gradients, ok). ok is False when any cotangent is non-finite,
    which marks the trial invalid for benchmark purposes; the gradients are
    returned as computed either way, never silently substituted.
    """
    promoted = {}
    for name, val in bindings.items():
        if isinstance(val, (int, float)):
            promoted[name] = float(val)
        else:
            arr = np.asarray(val)
            promoted[name] = arr.astype(_TO_DOUBLE[arr.dtype], copy=False)
    values = tape.forward(promoted)
    grads = tape.backward(values, loss, GradMode.exact())
    return grads, grads.all_finite()


def finite_difference(loss_fn, at, *, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function at a matrix/vector.

    The step h must be positive; 1e-6 suits double precision. For complex
    input both the real and imaginary parts of every entry are perturbed;
    the assembled gradient satisfies dL ~= Re tr(grad^H dA). Non-finite loss
    values at perturbed points raise, naming the entry.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    at = np.asarray(at)
    grad = np.zeros(at.shape, dtype=at.dtype)
    is_complex = np.issubdtype(at.dtype, np.complexfloating)
    it = np.nditer(at, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        deltas = [1.0] if not is_complex else [1.0, 1.0j]
        parts = []
        for d in deltas:
            plus = at.copy()
            plus[ix] += d * h
            minus = at.copy()
            minus[ix] -= d * h
            fp, fm = loss_fn(plus), loss_fn(minus)
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise FloatingPointError(f"non-finite loss when perturbing entry {ix}")
            parts.append((fp - fm) / (2 * h))
        grad[ix] = parts[0] if not is_complex else parts[0] + 1.0j * parts[1]
        it.iternext()
    return grad
