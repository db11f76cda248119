"""Per-layer tracing of ``qfocklab`` from outside the library.

``Tracer.install`` replaces each traced public function by a wrapper at
every place a ``qfocklab`` module binds it by name.  ``wick``,
``gradient``, ``ao`` and ``cli`` import functions by name, so patching
only the defining module would miss their calls.  Each call records a
span (function, start, end, parent span) in flat in-memory arrays; the
per-function statistics are computed from the spans once, at exit.

Statistics per function:

- ``calls``: number of calls;
- ``total_s``: summed duration of calls not nested in another call of
  the same function, so recursion is not counted twice;
- ``self_s``: summed duration minus the time covered by traced child
  spans (``self_s <= total_s``);
- ``new_bytes``: ``nbytes`` of results for argument keys not seen
  before in the process (keyed functions only);
- ``distinct_keys``: number of distinct argument keys (keyed functions
  only); the runner turns it into ``reuse_ratio``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array

PACKAGE = "qfocklab"

# "<module>.<function>" -> the statistics the benchmark reports for it.
LAYERS: dict[str, tuple[str, ...]] = {
    "qfock.symmetrizer": ("calls", "self_s", "new_bytes", "reuse_ratio"),
    "qfock.splitter_matrix": ("calls", "self_s", "new_bytes", "reuse_ratio"),
    "qfock.split_tensor": ("calls", "self_s"),
    "qfock.symmetrizer_apply": ("calls", "self_s"),
    "qfock.pairing_form": ("calls", "self_s"),
    "wick.graded_mul": ("calls", "self_s"),
    "wick.triple_contraction_sum": ("calls", "self_s"),
    "wick.partition_weighted_sum": ("calls", "self_s"),
    "wick.wick": ("calls", "self_s"),
    "gradient.gradient_map": ("calls", "self_s", "total_s"),
    "gradient.level_norm": ("calls", "self_s"),
    "gradient.schatten_diagnostic": ("calls", "self_s"),
    "gradient.psi_element": ("calls", "self_s"),
    "gradient.gamma": ("calls", "self_s", "total_s"),
    "gradient.nabla_pairing_value": ("calls", "self_s", "total_s"),
    "gradient.nabla_gram": ("calls", "self_s", "total_s"),
    "ao.build_ou_model": ("calls", "total_s"),
    "ao.t_block_norm": ("calls", "total_s"),
    "ao.s_isometry_report": ("calls", "total_s"),
    "cohomology.verify_leibniz": ("total_s",),
    "cohomology.verify_bar_square": ("total_s",),
    "cohomology.verify_prefix_anticommutes": ("total_s",),
    "numerics.hermitian_eig": ("calls", "self_s"),
    "numerics.psd_inv_sqrt": ("calls", "self_s"),
    "partitions.crossing_number": ("calls", "self_s"),
    "torus.poisson_s_gram": ("total_s",),
}


def _level_key(params, m, *args, **kwargs):
    # qfock caches Grams per (q, dim), then per level.
    return (float(params.q), params.dim, m)


def _parts_key(params, parts, *args, **kwargs):
    return (float(params.q), params.dim, tuple(parts))


# Functions whose results qfock caches: the key mirrors the cache key,
# so new_bytes is what a cold cache has to hold.
KEYS = {"qfock.symmetrizer": _level_key, "qfock.splitter_matrix": _parts_key}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.func = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []
        self._keys: list[set] = []
        self._new_bytes: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        pkg = importlib.import_module(PACKAGE)
        # import_module reaches submodules even where a package
        # attribute of the same name shadows one (``qfocklab.wick``).
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        for fid, name in enumerate(LAYERS):
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            self.names.append(name)
            self._active.append(0)
            self._keys.append(set())
            self._new_bytes.append(0)
            wrapper = self._wrap(fid, original, KEYS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fid: int, original, keyfn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.func)
            self.func.append(fid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.outer.append(self._active[fid] == 0)
            self.end.append(0.0)
            self._active[fid] += 1
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
                self._active[fid] -= 1
            if keyfn is not None:
                key = keyfn(*args, **kwargs)
                if key not in self._keys[fid]:
                    self._keys[fid].add(key)
                    self._new_bytes[fid] += int(getattr(result, "nbytes", 0))
            return result

        return functools.wraps(original)(traced)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-function statistics from the recorded spans."""
        import numpy as np

        nfun = len(self.names)
        func = np.asarray(self.func, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        outer = np.asarray(self.outer, dtype=bool)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(func, minlength=nfun)
        self_s = np.bincount(func, weights=dur - child, minlength=nfun)
        total_s = np.bincount(func, weights=dur * outer, minlength=nfun)
        return {
            name: {
                "calls": int(calls[fid]),
                "self_s": float(self_s[fid]),
                "total_s": float(total_s[fid]),
                "new_bytes": self._new_bytes[fid],
                "distinct_keys": len(self._keys[fid]),
            }
            for fid, name in enumerate(self.names)
        }
