"""Outside-in layer tracer.

The library has no tracing of its own, so layer boundaries are recorded
from outside ``src/``: each traced function is replaced by a wrapper in
every loaded ``hardydirac`` module that holds it under its name (and
``_HermiteFem.band`` on its class), and the originals are put back on
exit.  A wrapper records one span per call and, for the quadrature and
supremum layers, counts calls of the integrand it is handed.

A span's self time is its duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
Spans stay in memory and are written out once the run has ended.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

from hardydirac import channels, extension, numerics, potentials, verify

# (span name, object defining the attribute, attribute, counter).  A counter
# is kept under "<span name>.<counter>".
TARGETS = (
    ("numerics.integrate_radial", numerics, "integrate_radial", "integrand_evals"),
    ("numerics.sup_over_r", numerics, "sup_over_r", "g_evals"),
    ("numerics.ldl_inertia", numerics, "ldl_inertia", "dofs"),
    ("numerics.scaled_copy", numerics, "_scaled_copy", None),
    ("potentials.constants", potentials, "a_plus", None),
    ("potentials.constants", potentials, "a_minus", None),
    ("potentials.constants", potentials, "a_k", None),
    ("potentials.constants", potentials, "tilde_constants", None),
    ("channels.weighted_norms", channels, "field_norm_weighted", None),
    ("channels.weighted_norms", channels, "sigma_grad_norm_weighted", None),
    ("verify.checks", verify, "verify_theorem", None),
    ("verify.checks", verify, "verify_corollary", None),
    ("extension.band", getattr(extension, "_HermiteFem", None), "band", None),
    ("extension.solveh_banded", extension, "solveh_banded", None),
    ("extension.weak_solve", extension, "weak_solve", None),
    ("extension.pairing_defect", extension, "pairing_defect", None),
    ("extension.spectrum_in_gap", extension, "spectrum_in_gap", "eigenvalues"),
)

# counters of calls of a callable argument: the argument's name and position
_CALLABLE_ARG = {"integrand_evals": ("f", 0), "g_evals": ("g", 0)}


class Tracer:
    def __init__(self):
        self.spans = []           # (name, start, duration, parent index, op index)
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.counts = collections.Counter()
        self.patched = []         # (holder, attribute, original)
        self._stack = []
        self._op = -1
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self.spans.append(None)
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def end(self) -> None:
        name, start, child_s, index = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        self.spans[index] = (name, start - self._t0, duration, parent, self._op)

    def begin_op(self) -> None:
        self._op += 1
        self.begin("bench.op")

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hardydirac" or name.startswith("hardydirac.")]
        for span, owner, attr, counter in TARGETS:
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # layer absent from this version of the library
            wrapper = self._wrap(span, original, counter)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self.patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self.patched:
            holder, attr, original = self.patched.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, span: str, fn, counter):
        counts = self.counts
        key = f"{span}.{counter}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter in _CALLABLE_ARG:
                name, pos = _CALLABLE_ARG[counter]
                inner = kwargs[name] if name in kwargs else args[pos]

                def counted(*a):
                    counts[key] += 1
                    return inner(*a)

                if name in kwargs:
                    kwargs[name] = counted
                else:
                    args = args[:pos] + (counted,) + args[pos + 1:]
            elif counter == "dofs":
                counts[key] += (kwargs["ab"] if "ab" in kwargs else args[0]).shape[1]
            self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter == "eigenvalues":
                counts[key] += len(result)
            return result

        return wrapper
