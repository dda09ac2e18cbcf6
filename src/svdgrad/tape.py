"""Minimal reverse-mode tape over dense matrix operations.

A Tape is built once (construction order is the topological order), then
`forward` binds inputs/parameters and caches every node value, and `backward`
accumulates cotangents in reverse order. The SVD backward mode is pluggable
per `backward` call, so one cached forward can be differentiated under
several modes — the paired design the gradient benchmarks rely on.

Complex convention throughout: dL = Re tr(cot^H dX) for a real scalar loss.
Parameters are real scalars only.

Every node's value is an array or a real scalar; the SVD an svt or
sum_singular_values node took in the forward travels beside the values (in
`values.saved`) for the backward to reuse, never recomputed.

The forward also runs on stacks: inputs bound to (..., m, n) arrays flow
through every op matrix by matrix, and a loss sums or averages over the whole
stack. The backward is for 2-D forwards; through an svt or sum_singular_values
node it raises ValueError on a stacked one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backward import GradMode, svd_vjp
from .linalg import ensure_matrix, real_dtype_of, svd as _svd
from .svt import SvtCache, ThresholdSpec, svt as _svt, svt_vjp

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
    """Cotangents keyed by node id, with name lookup for inputs/parameters."""

    cotangents: dict[int, object]
    names: dict[str, int]
    nonfinite_nodes: list[int] = field(default_factory=list)

    def by_name(self, name: str):
        return self.cotangents.get(self.names[name])

    def all_finite(self) -> bool:
        return all(_all_finite(g) for g in self.cotangents.values())


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
        """Nuclear norm of a matrix node (summed over a stack)."""
        return self._append("sum_singular_values", (a,))

    # -- evaluation -------------------------------------------------------

    def forward(self, bindings: dict[str, object]) -> _Values:
        """Evaluate every node; returns the value list, indexed by node id."""
        values = _Values([None] * len(self.nodes))
        for node in self.nodes:
            if node.parents:
                args = [values[p] for p in node.parents]
            elif node.name in bindings:
                args = [bindings[node.name]]
            else:
                raise ValueError(f"unbound {node.op} node {node.name!r}")
            values[node.idx] = _OPS[node.op][0](args, node, values.saved)
        return values

    def backward(self, values: _Values, loss: int, mode: GradMode) -> GradientSet:
        """Reverse accumulation from `loss` (a real scalar node) down to leaves."""
        if not isinstance(values[loss], float):
            raise ValueError("loss node must evaluate to a real scalar")
        cot: dict[int, object] = {loss: 1.0}
        nonfinite: list[int] = []
        for node in reversed(self.nodes):
            g = cot.get(node.idx)
            if g is None:
                continue
            if not _all_finite(g):
                nonfinite.append(node.idx)
            if not node.parents:
                continue
            args = [values[p] for p in node.parents]
            parent_cots = _OPS[node.op][1](g, args, node, values.saved.get(node.idx), mode)
            for p, gp in zip(node.parents, parent_cots):
                if gp is not None:
                    cot[p] = gp if p not in cot else cot[p] + gp
        return GradientSet(cotangents=cot, names=dict(self.names), nonfinite_nodes=nonfinite)


class _Values(list):
    """Node values by id, plus `saved`: node id -> the SVD state its VJP reuses."""

    def __init__(self, values: list):
        super().__init__(values)
        self.saved: dict[int, object] = {}


# -- op table ---------------------------------------------------------------
#
# op -> (forward, vjp). forward(args, node, saved) computes a node's value, an
# array or a float, from its parents' values (a leaf's one argument is its
# binding); an SVD-backed op also stores its SVD state in saved[node.idx].
# vjp(g, args, node, state, mode) gets that state back and returns one
# cotangent per parent, None for no contribution.


def _all_finite(g) -> bool:
    return bool(np.isfinite(np.asarray(g)).all())


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


def _scale_by_param_forward(args, *_):
    return np.asarray(args[1], dtype=real_dtype_of(args[0].dtype)) * args[0]


def _scale_by_param_vjp(g, args, *_):
    c = np.asarray(args[1], dtype=real_dtype_of(args[0].dtype))
    return c * g, float(np.real(np.vdot(args[0], g)))


def _svt_forward(args, node, saved):
    spec = node.spec or ThresholdSpec.soft(args[1])
    B, factors, s_hat = _svt(args[0], spec)
    saved[node.idx] = SvtCache(args[0], factors, s_hat, spec)
    return B


def _svt_vjp(g, args, node, cache, mode):
    Abar, taubar = svt_vjp(g, cache, mode)
    return (Abar, taubar)[: len(node.parents)]


def _l1_loss_vjp(g, args, *_):
    x = args[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        sgn = np.where(x == 0, np.asarray(0, dtype=x.dtype), x / np.abs(x))
    return (np.asarray(g, dtype=real_dtype_of(x.dtype)) * sgn,)


def _mse_loss_forward(args, *_):
    if args[0].shape != args[1].shape:
        raise ValueError(f"mse_loss shape mismatch {args[0].shape} vs {args[1].shape}")
    d = args[0] - args[1]
    return float(np.mean(np.abs(d) ** 2))


def _mse_loss_vjp(g, args, *_):
    d = args[0] - args[1]
    scale = np.asarray(2.0 * g / d.size, dtype=real_dtype_of(d.dtype))
    return scale * d, -scale * d


def _sum_singular_values_forward(args, node, saved):
    factors = saved[node.idx] = _svd(args[0])
    return float(factors.s.sum())


def _sum_singular_values_vjp(g, args, node, factors, mode):
    s = factors.s
    return (svd_vjp(args[0], factors, None, np.full(s.shape, g, dtype=s.dtype), None, mode),)


_OPS = {
    "input": (lambda args, node, _: ensure_matrix(args[0], node.name, stack=True), None),
    "parameter_scalar": (lambda args, *_: float(args[0]), None),
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
    "l1_loss": (lambda args, *_: float(np.abs(args[0]).sum()), _l1_loss_vjp),
    "mse_loss": (_mse_loss_forward, _mse_loss_vjp),
    "sum_singular_values": (_sum_singular_values_forward, _sum_singular_values_vjp),
}
