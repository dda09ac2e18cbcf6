"""Minimal reverse-mode tape over dense matrix operations.

A Tape is built once (construction order is the topological order), then
`forward` binds inputs/parameters and caches every node value, and `backward`
accumulates cotangents in reverse order. The SVD backward mode is pluggable
per `backward` call, so one cached forward can be differentiated under
several modes — the paired design the gradient benchmarks rely on.

One `backward` call can also take several modes and walk the tape once; a
lone mode is a walk under one mode. Only the SVD-backed nodes (svt and
sum_singular_values) depend on the mode, so until the walk passes one of
them every cotangent is every mode's, and each VJP runs once. An SVD-backed
node whose cotangent all the modes share is pulled back under every mode at
once (`backward._svd_vjps` shares the node's work among them). From there
on each mode keeps its own cotangent and runs each VJP on it; where such a
cotangent meets a shared one the sum is formed mode by mode. Each mode's
GradientSet is bit-identical to that mode's own call. A cotangent no mode
changes is one object in every set, so the sets are to be read, not written.

Complex convention throughout: dL = Re tr(cot^H dX) for a real scalar loss.
A parameter is a real scalar, or one real value per matrix of a stack.

Every node's value is an array or a real scalar; the SVD an svt or
sum_singular_values node took in the forward travels beside the values (in
`values.saved`) for the backward to reuse, never recomputed. A later forward
may reuse it too: given an earlier forward's values, a node whose matrix
input repeats byte for byte takes that SVD instead of decomposing again.

Forward and backward also run on stacks: inputs bound to (..., m, n) arrays
flow through every op matrix by matrix, and a loss gives one value per
matrix, shaped (...,), each bit-identical to that matrix's own forward. A 2-D
forward's loss is a float. The backward of a stacked loss seeds it with ones,
so it differentiates the sum of the per-matrix losses: every per-matrix
cotangent is that matrix's own gradient, bit for bit. A cotangent is summed
down to its parent's shape: a parameter bound to a float, or an input bound
to one 2-D matrix shared by the stack, gets the sum over the stack, while a
parameter bound to an array shaped like the stack gets one value per matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .backward import GradMode, _as_modes, _svd_vjps
from .linalg import SvdFactors, _ct, ensure_matrix, real_dtype_of, svd as _svd
from .svt import SvtCache, ThresholdSpec, svt as _svt, svt_vjp, threshold as _threshold

__all__ = ["GradientSet", "Node", "Tape"]


@dataclass(frozen=True)
class Node:
    idx: int
    op: str
    parents: tuple[int, ...]
    name: str | None = None
    spec: ThresholdSpec | None = None  # an svt node's fixed rule


@dataclass
class GradientSet:
    """Cotangents keyed by node id, with name lookup for inputs/parameters;
    their finiteness is computed when asked, not by the backward pass."""

    cotangents: dict[int, object]
    names: dict[str, int]

    def by_name(self, name: str):
        return self.cotangents.get(self.names[name])

    @property
    def nonfinite_nodes(self) -> list[int]:
        """Ids of the nodes with a non-finite cotangent entry, last node first."""
        return sorted((idx for idx, g in self.cotangents.items() if not _all_finite(g)), reverse=True)

    def all_finite(self) -> bool:
        return not self.nonfinite_nodes


class Tape:
    """Append-only computation graph; freeze implicitly by not adding nodes."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.names: dict[str, int] = {}

    # -- construction -----------------------------------------------------

    def _append(self, op, parents=(), name=None, spec=None) -> int:
        for p in parents:
            if not 0 <= p < len(self.nodes):
                raise ValueError(f"parent id {p} out of range for op {op!r}")
        idx = len(self.nodes)
        if name is not None:
            if name in self.names:
                raise ValueError(f"duplicate node name {name!r}")
            self.names[name] = idx
        self.nodes.append(Node(idx=idx, op=op, parents=tuple(parents), name=name, spec=spec))
        return idx

    def input(self, name: str) -> int:
        return self._append("input", name=name)

    def parameter_scalar(self, name: str) -> int:
        return self._append("parameter_scalar", name=name)

    def matmul(self, a: int, b: int) -> int:
        return self._append("matmul", (a, b))

    def add(self, a: int, b: int) -> int:
        return self._append("add", (a, b))

    def sub(self, a: int, b: int) -> int:
        return self._append("sub", (a, b))

    def scale_by_param(self, x: int, p: int) -> int:
        if self.nodes[p].op != "parameter_scalar":
            raise ValueError("scale_by_param expects a parameter_scalar node")
        return self._append("scale_by_param", (x, p))

    def conj_transpose(self, a: int) -> int:
        return self._append("conj_transpose", (a,))

    def hadamard(self, a: int, b: int) -> int:
        return self._append("hadamard", (a, b))

    def svt(self, a: int, spec: ThresholdSpec | None = None, tau_param: int | None = None) -> int:
        """Singular value thresholding node; tau either fixed or a parameter."""
        if (spec is None) == (tau_param is None):
            raise ValueError("svt needs exactly one of spec or tau_param")
        if tau_param is not None:
            if self.nodes[tau_param].op != "parameter_scalar":
                raise ValueError("tau_param must be a parameter_scalar node")
            return self._append("svt", (a, tau_param))
        return self._append("svt", (a,), spec=spec)

    def l1_loss(self, a: int) -> int:
        return self._append("l1_loss", (a,))

    def mse_loss(self, a: int, b: int) -> int:
        return self._append("mse_loss", (a, b))

    def sum_singular_values(self, a: int) -> int:
        """Nuclear norm of a matrix node (one per matrix of a stack)."""
        return self._append("sum_singular_values", (a,))

    def is_scalar(self, idx: int) -> bool:
        """Whether node idx gives one real value per matrix (a float for a
        2-D forward): a parameter, a loss, or a sum or difference of those."""
        node = self.nodes[idx]
        if node.op in ("add", "sub"):
            return all(self.is_scalar(p) for p in node.parents)
        return node.op in _SCALAR_OPS

    # -- evaluation -------------------------------------------------------

    def forward(self, bindings: dict[str, object], reuse: _Values | None = None) -> _Values:
        """Evaluate every node; returns the value list, indexed by node id.

        `reuse` may hold the values of an earlier forward of this tape. An
        svt or sum_singular_values node whose matrix input has the shape,
        dtype and raw bytes of its input there takes the SVD it took then
        instead of decomposing again; an svt node thresholds it with its
        current spec or tau. Every value and saved state is then what a fresh
        forward gives, bit for bit. Raw bytes tell -0.0 from 0.0, which need
        not decompose to the same bits. The rule is the one `backward`
        relies on: no array bound to the earlier forward has been modified
        since it ran.
        """
        if reuse is not None and len(reuse) != len(self.nodes):
            raise ValueError(f"reuse holds {len(reuse)} values for a tape of {len(self.nodes)} nodes")
        values = _Values([None] * len(self.nodes))
        for node in self.nodes:
            if node.parents:
                args = [values[p] for p in node.parents]
            elif node.name in bindings:
                args = [bindings[node.name]]
            else:
                raise ValueError(f"unbound {node.op} node {node.name!r}")
            values[node.idx] = _OPS[node.op][0](args, node, values.saved, reuse)
        return values

    def backward(self, values: _Values, loss: int, mode: GradMode | Sequence[GradMode]):
        """Reverse accumulation from `loss` (a real scalar node) down to leaves.

        A stacked loss is seeded with ones, and each cotangent is summed down
        to its parent's shape (see the module docstring).

        Given one GradMode, returns one GradientSet. Given a non-empty
        sequence of them, walks the tape once and returns one GradientSet
        per mode, in order, each bit-identical to that mode's own call (see
        the module docstring); anything else raises TypeError, an empty
        sequence ValueError."""
        if not self.is_scalar(loss):
            raise ValueError("loss node must evaluate to a real scalar")
        modes = _as_modes(mode)
        stacked = np.ndim(values[loss]) > 0
        cot: dict[int, object] = {loss: np.ones(np.shape(values[loss])) if stacked else 1.0}
        for node in reversed(self.nodes):
            g = cot.get(node.idx)
            if g is None or not node.parents:
                continue
            args = [values[p] for p in node.parents]
            vjp, state = _OPS[node.op][1], values.saved.get(node.idx)
            if type(g) is not _PerMode:
                parent_cots = vjp(g, args, node, state, modes)
            else:
                # each mode pulls its own cotangent back, in its own mode
                outs = [vjp(gm, args, node, state, (m,)) for gm, m in zip(g, modes)]
                parent_cots = [None if gs[0] is None else _PerMode(gs) for gs in zip(*outs)]
            for p, gp in zip(node.parents, parent_cots):
                if gp is not None:
                    if stacked:
                        gp = _sum_to(gp, values[p])
                    cot[p] = cot[p] + gp if p in cot else gp
        if len(modes) == 1:
            # no cotangent differs by mode, so the set takes the dict itself
            sets = [GradientSet(cot, dict(self.names))]
        else:
            sets = [
                GradientSet({idx: g[j] if type(g) is _PerMode else g for idx, g in cot.items()}, dict(self.names))
                for j in range(len(modes))
            ]
        return sets[0] if isinstance(mode, GradMode) else sets


class _Values(list):
    """Node values by id, plus `saved`: node id -> the SVD state its VJP reuses."""

    def __init__(self, values: list):
        super().__init__(values)
        self.saved: dict[int, object] = {}


# -- op table ---------------------------------------------------------------
#
# op -> (forward, vjp). forward(args, node, saved, reuse) computes a node's
# value, an array or a float, from its parents' values (a leaf's one argument
# is its binding); an SVD-backed op also stores its SVD state in
# saved[node.idx], and may take it from `reuse`, an earlier forward's values.
# vjp(g, args, node, state, modes) gets that state back and returns one
# cotangent per parent, None for no contribution. modes is the tuple of modes
# g is pulled back in: an SVD-backed VJP returns a _PerMode cotangent when it
# holds two or more, and the others ignore it.


_SCALAR_OPS = ("parameter_scalar", "l1_loss", "mse_loss", "sum_singular_values")


def _all_finite(g) -> bool:
    return bool(np.isfinite(np.asarray(g)).all())


class _PerMode(tuple):
    """A cotangent that differs by mode in a backward under several modes:
    one entry per mode, in order. Any other cotangent is every mode's, and
    a sum with one is formed mode by mode."""

    __array_ufunc__ = None  # so that array + _PerMode defers to __radd__

    def __add__(self, other):
        other = other if type(other) is _PerMode else (other,) * len(self)
        return _PerMode(x + y for x, y in zip(self, other))

    def __radd__(self, other):
        return _PerMode(other + y for y in self)


def _by_mode(cots: list):
    """The cotangents an SVD-backed VJP formed, one per mode: the lone one
    under one mode, else a _PerMode."""
    return cots[0] if len(cots) == 1 else _PerMode(cots)


def _sum_to(g, like):
    """g summed over the axes it broadcast along against `like`, a parent's
    value: the leading stack axes `like` lacks, and its axes of length 1. A
    float parent gets a float; a cotangent that differs by mode is summed
    mode by mode."""
    if type(g) is _PerMode:
        return _PerMode(_sum_to(x, like) for x in g)
    shape = np.shape(like)
    if np.shape(g) == shape:
        return g
    lead = np.ndim(g) - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    g = np.sum(g, axis=axes).reshape(shape)
    return float(g) if isinstance(like, float) else g


def _real_scalar(x):
    """A real value per matrix as a float (one matrix) or a float64 array;
    also a parameter's value from its binding."""
    if isinstance(x, np.ndarray) and x.ndim:
        return x.astype(np.float64, copy=False)
    return float(x)


def _per_matrix_factor(c, x: np.ndarray) -> np.ndarray:
    """A scalar or one value per matrix, in x's real dtype, shaped to
    broadcast against the (..., m, n) matrices."""
    return np.asarray(c, dtype=real_dtype_of(x.dtype))[..., None, None]


def _scale_by_param_forward(args, *_):
    return _per_matrix_factor(args[1], args[0]) * args[0]


def _scale_by_param_vjp(g, args, *_):
    x = args[0]
    # per matrix, Re <x, g> as a 1 x mn by mn x 1 product, which rounds as
    # np.vdot does on one matrix
    dot = x.reshape(x.shape[:-2] + (1, -1)).conj() @ g.reshape(g.shape[:-2] + (-1, 1))
    return _per_matrix_factor(args[1], x) * g, _real_scalar(dot.real[..., 0, 0])


def _reused_svd(A, node, reuse) -> SvdFactors | None:
    """The SVD an SVD-backed node took in the `reuse` forward, if its matrix
    input there has A's shape, dtype and raw bytes; else None."""
    if reuse is None:
        return None
    prior = reuse[node.parents[0]]
    if prior.shape != A.shape or prior.dtype != A.dtype or prior.tobytes() != A.tobytes():
        return None
    state = reuse.saved[node.idx]
    return state.factors if isinstance(state, SvtCache) else state


def _svt_forward(args, node, saved, reuse):
    spec = node.spec or ThresholdSpec.soft(args[1])
    factors = _reused_svd(args[0], node, reuse)
    if factors is None:
        B, factors, s_hat = _svt(args[0], spec)
    else:
        B, s_hat = _threshold(factors, spec)
    saved[node.idx] = SvtCache(factors, s_hat, spec)
    return B


def _svt_vjp(g, args, node, cache, modes):
    pairs = svt_vjp(g, cache, modes)
    # taubar does not depend on the mode: every pair holds the same one
    return (_by_mode([a for a, _ in pairs]), pairs[0][1])[: len(node.parents)]


def _per_matrix(loss):
    """A loss reduced over each matrix: a float for a 2-D forward, else (...,)."""
    return float(loss) if loss.ndim == 0 else loss


def _l1_loss_vjp(g, args, *_):
    x = args[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        sgn = np.where(x == 0, np.asarray(0, dtype=x.dtype), x / np.abs(x))
    return (_per_matrix_factor(g, x) * sgn,)


def _mse_loss_forward(args, *_):
    a, b = args
    if a.shape != b.shape and not (min(a.ndim, b.ndim) == 2 and a.shape[-2:] == b.shape[-2:]):
        raise ValueError(f"mse_loss shape mismatch {a.shape} vs {b.shape}")
    return _per_matrix(np.mean(np.abs(a - b) ** 2, axis=(-2, -1)))


def _mse_loss_vjp(g, args, *_):
    d = args[0] - args[1]
    scale = _per_matrix_factor(2.0 * g / (d.shape[-2] * d.shape[-1]), d)
    return scale * d, -scale * d


def _sum_singular_values_forward(args, node, saved, reuse):
    factors = saved[node.idx] = _reused_svd(args[0], node, reuse) or _svd(args[0])
    return _per_matrix(factors.s.sum(axis=-1))


def _sum_singular_values_vjp(g, args, node, factors, modes):
    s = factors.s
    sbar = np.broadcast_to(np.asarray(g, dtype=s.dtype)[..., None], s.shape)
    return (_by_mode(_svd_vjps(factors, None, sbar, None, modes)),)


_OPS = {
    "input": (lambda args, node, *_: ensure_matrix(args[0], node.name), None),
    "parameter_scalar": (lambda args, *_: _real_scalar(args[0]), None),
    "matmul": (
        lambda args, *_: args[0] @ args[1],
        lambda g, args, *_: (g @ _ct(args[1]), _ct(args[0]) @ g),
    ),
    "add": (lambda args, *_: args[0] + args[1], lambda g, *_: (g, g)),
    "sub": (lambda args, *_: args[0] - args[1], lambda g, *_: (g, -g)),
    "scale_by_param": (_scale_by_param_forward, _scale_by_param_vjp),
    "conj_transpose": (lambda args, *_: _ct(args[0]), lambda g, *_: (_ct(g),)),
    "hadamard": (
        lambda args, *_: args[0] * args[1],
        lambda g, args, *_: (g * args[1].conj(), g * args[0].conj()),
    ),
    "svt": (_svt_forward, _svt_vjp),
    "l1_loss": (lambda args, *_: _per_matrix(np.abs(args[0]).sum(axis=(-2, -1))), _l1_loss_vjp),
    "mse_loss": (_mse_loss_forward, _mse_loss_vjp),
    "sum_singular_values": (_sum_singular_values_forward, _sum_singular_values_vjp),
}
