"""Independent gradient producers: double-precision reference and central FD.

The reference pipeline reruns a tape entirely in float64 with the exact
(unsafeguarded) backward; when a degenerate spectrum makes even that blow up,
the result is flagged rather than substituted. The finite-difference engine
perturbs every entry (real and imaginary parts separately for complex input),
evaluates all the perturbed copies as one stack in a single loss call, and
assembles the gradient under the dL = Re tr(Abar^H dA) convention, so the two
oracles are directly comparable.
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


def reference_gradient(tape: Tape, bindings: dict, loss: int) -> tuple[GradientSet, bool | np.ndarray]:
    """Forward+backward in float64 with the exact mode.

    Returns (gradients, ok). ok is False when any cotangent is non-finite,
    which marks the trial invalid for benchmark purposes; the gradients are
    returned as computed either way, never silently substituted.

    Bound to stacks, the tape gives every matrix its own gradient, and ok is
    a bool array shaped like the stack: matrix i is ok when every cotangent
    of its own is finite, together with every cotangent the stack shares (a
    float parameter's, or a 2-D input's bound once for all matrices).
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
    stack = np.shape(values[loss])
    ok = np.ones(stack, dtype=bool)
    for idx, g in grads.cotangents.items():
        finite = np.isfinite(np.asarray(g))
        own = finite.ndim == len(stack) + (0 if tape.is_scalar(idx) else 2)
        ok &= finite.reshape(*stack, -1).all(axis=-1) if own else finite.all()
    return grads, bool(ok) if ok.ndim == 0 else ok


def finite_difference(loss_fn, at, *, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a real function at a matrix/vector.

    `loss_fn` takes a stack shaped (N, *at.shape) and returns its N losses,
    one per copy; it is called once. Each copy differs from `at` in one entry
    ix, which holds at[ix] + d*h or at[ix] - d*h, with d = 1 and, for complex
    input, d = 1j: N = 2*at.size, or 4*at.size. The step h must be positive;
    1e-6 suits double precision. The assembled gradient satisfies
    dL ~= Re tr(grad^H dA). A non-finite loss raises, naming the first such
    entry in C order.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    at = np.asarray(at)
    deltas = (1.0, 1.0j) if np.issubdtype(at.dtype, np.complexfloating) else (1.0,)
    flat = at.reshape(-1)
    # axes: delta, sign (+h then -h), perturbed entry; then the flat copy
    stack = np.empty((len(deltas), 2, at.size, at.size), dtype=at.dtype)
    stack[...] = flat
    diag = np.arange(at.size)
    for i, d in enumerate(deltas):
        # the step as a scalar of at's dtype, so each perturbed entry rounds
        # once, in that dtype, under NumPy 1.x promotion as under 2.x
        step = at.dtype.type(d * h)
        stack[i, 0, diag, diag] = flat + step
        stack[i, 1, diag, diag] = flat - step
    n = 2 * len(deltas) * at.size
    f = np.asarray(loss_fn(stack.reshape(n, *at.shape)), dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"loss_fn must return {n} losses, one per perturbed copy, "
                         f"got shape {f.shape}")
    f = f.reshape(len(deltas), 2, at.size)
    bad = np.flatnonzero(~np.isfinite(f).all(axis=(0, 1)))
    if bad.size:
        ix = tuple(int(i) for i in np.unravel_index(bad[0], at.shape))
        raise FloatingPointError(f"non-finite loss when perturbing entry {ix}")
    parts = (f[:, 0] - f[:, 1]) / (2 * h)
    grad = parts[0] if len(deltas) == 1 else parts[0] + 1.0j * parts[1]
    return grad.reshape(at.shape).astype(at.dtype)
