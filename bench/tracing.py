"""Outside-in layer spans for svdgrad, installed by wrapping module attributes.

Every svdgrad module imports the names it calls (`from .linalg import svd as
_svd`), so wrapping only the defining module would miss most calls. A span
therefore wraps its target at the defining site and at every other binding
of the same function object found in a loaded `svdgrad.*` module. Modules are
reached through `sys.modules`, because the package's `__init__` shadows the
submodule `svdgrad.svt` with the function `svt`.

A span's self time is its duration minus the durations of the traced spans
it called. Work the tracer itself does to take counts (classifying pairs,
checking finiteness) is charged to no span and reported separately, so that
span self times plus the untraced remainder add up to the traced wall time
with the counting removed.

A target that no longer exists is reported as absent; the span is left out,
never reported as zero.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

# span name -> targets, each "module:qualified.name"
SPANS = {
    "numpy.linalg.svd": ("numpy.linalg:svd",),
    "linalg.svd": ("svdgrad.linalg:svd",),
    "backward.build_aux": ("svdgrad.backward:build_aux",),
    "backward.svd_vjp": ("svdgrad.backward:svd_vjp",),
    "svt.svt": ("svdgrad.svt:svt",),
    "svt.svt_vjp": ("svdgrad.svt:svt_vjp",),
    "tape.forward": ("svdgrad.tape:Tape.forward",),
    "tape.backward": ("svdgrad.tape:Tape.backward",),
    "oracle.reference_gradient": ("svdgrad.oracle:reference_gradient",),
    "oracle.finite_difference": ("svdgrad.oracle:finite_difference",),
    "experiments.generate": (
        "svdgrad.experiments:_scenario_parts",
        "svdgrad.experiments:make_completion_dataset",
    ),
    "experiments.build_tape": (
        "svdgrad.experiments:_workflow_tape",
        "svdgrad.experiments:build_admm_tape",
    ),
    "cli.main": ("svdgrad.cli:main",),
}

def _resolve(target: str):
    """(owner, attribute name, original object) or None when absent."""
    modname, qualname = target.split(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if original is None:
        return None
    return owner, attr, original


def _binding_sites(owner, attr, original):
    """The defining site plus every svdgrad module attribute bound to it."""
    sites = [(owner, attr)]
    if inspect.isclass(owner):
        return sites
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "svdgrad" or name.startswith("svdgrad.")):
            continue
        for key, value in vars(module).items():
            if value is original and (module, key) != (owner, attr):
                sites.append((module, key))
    return sites


def _site_name(owner, attr) -> str:
    if inspect.isclass(owner):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


class Tracer:
    """Per-span call counts and self times, plus the pair and finiteness counts.

    `install()` swaps wrappers in at every binding site and `uninstall()`
    restores the originals, so untraced calls run the unmodified program.
    """

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.sites = {}
        self.absent_targets = []
        self.absent_counts = []
        # per open span, the summed durations of its children; the bottom
        # entry sums everything opened at top level
        self._stack = [0]
        self.hook_ns = 0        # time spent taking counts
        self.equal_pairs = 0
        self.pairs = 0
        self.vjp_nonfinite = 0
        self.vjp_safeguarded = 0
        self._swaps = []        # (owner, attr, original, wrapper)

        backward = sys.modules.get("svdgrad.backward")
        self._classify = getattr(backward, "classify_pairs", None)
        self._unequal = getattr(backward, "UNEQUAL", None)
        hooks = {"backward.build_aux": self._count_pairs, "backward.svd_vjp": self._count_nonfinite}
        if self._classify is None or self._unequal is None:
            self.absent_counts.append("backward.equal_pair_frac")

        for span, targets in SPANS.items():
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    self.absent_targets.append(target)
                    continue
                owner, attr, original = resolved
                wrapper = self._wrap(span, original, hooks.get(span))
                for site_owner, site_attr in _binding_sites(owner, attr, original):
                    self._swaps.append((site_owner, site_attr, original, wrapper))
                    self.sites.setdefault(span, []).append(_site_name(site_owner, site_attr))
            if span in self.sites:
                self.calls[span] = 0
                self.self_ns[span] = 0
        for span, counter in (("backward.build_aux", "backward.equal_pair_frac"),
                              ("backward.svd_vjp", "backward.nonfinite_frac")):
            if span not in self.sites and counter not in self.absent_counts:
                self.absent_counts.append(counter)

    @property
    def top_ns(self) -> int:
        """Time inside spans opened at top level, counting included."""
        return self._stack[0]

    @property
    def absent_spans(self) -> list[str]:
        return [span for span in SPANS if span not in self.sites]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    def _wrap(self, span, fn, hook):
        stack = self._stack
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                children = stack.pop()
                self.calls[span] += 1
                self.self_ns[span] += total - children
                stack[-1] += total
            if hook is not None:
                # charged to no span: the parent sees it as a child's time
                hook_start = clock()
                hook(signature, args, kwargs, result)
                spent = clock() - hook_start
                self.hook_ns += spent
                stack[-1] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_pairs(self, signature, args, kwargs, result) -> None:
        if "backward.equal_pair_frac" in self.absent_counts:
            return
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            s, mode, dtype = bound.arguments["s"], bound.arguments["mode"], bound.arguments.get("dtype")
            s = np.asarray(s)
            rdt = np.dtype(dtype) if dtype is not None else s.dtype
            t, _ = mode.stability.resolve(rdt)
        except (TypeError, KeyError, AttributeError, ValueError):
            self.absent_counts.append("backward.equal_pair_frac")
            return
        labels = self._classify(s.astype(rdt, copy=False), t)
        k = labels.shape[0]
        off = ~np.eye(k, dtype=bool)
        self.equal_pairs += int(np.count_nonzero(labels[off] != self._unequal))
        self.pairs += k * (k - 1)

    def _count_nonfinite(self, signature, args, kwargs, result) -> None:
        if "backward.nonfinite_frac" in self.absent_counts:
            return
        try:
            bound = signature.bind(*args, **kwargs)
            variant = bound.arguments["mode"].variant
        except (TypeError, KeyError, AttributeError):
            self.absent_counts.append("backward.nonfinite_frac")
            return
        if variant == "exact":
            return
        self.vjp_safeguarded += 1
        if not np.isfinite(result).all():
            self.vjp_nonfinite += 1
