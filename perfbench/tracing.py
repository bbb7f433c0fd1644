"""Span tracer that wraps fermigraph's public functions from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
public module-level function, the public methods and arithmetic operators of
every class, and ``numpy.linalg.eigh`` with a timing wrapper, including the
copies that other modules bound with ``from .x import f`` (so CLI jobs and
``entangle.commutator`` are traced too).  ``Tracer.uninstall`` restores the
originals.  Spans stay in memory as ``(name, start, end, parent, job)``
tuples until ``write`` stores them.

``ExactMatrix.__matmul__`` additionally records its form (diagonal,
dense-rational or dense-sqrt) and the numerator bit-lengths of its operands
and result, outside the span's own interval.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from time import perf_counter

import numpy as np

MODULES = ("qroot", "exactmat", "eig", "hadamard", "graphs", "scheme",
           "terwilliger", "entangle", "cli")
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__matmul__", "__neg__", "__truediv__",
             "__rtruediv__", "__pow__", "__eq__", "__getitem__")
EIGH_SPAN = "numpy.linalg.eigh"
MATMUL_SPAN = "exactmat.ExactMatrix.__matmul__"
# a dense product is exact in float64 BLAS when every partial sum stays
# below 2^53: bits(a) + bits(b) + ceil(log2 N) <= 52
FLOAT64_EXACT_BITS = 52


def _max_bits(m) -> int:
    """Largest numerator bit-length of an ExactMatrix (rational and sqrt parts)."""
    bits = 0
    for arr in (m.ra, m.rb):
        if arr is not None and arr.size:
            bits = max(bits, int(arr.max()).bit_length(),
                       int(arr.min()).bit_length())
    return bits


class Tracer:
    """In-memory span recorder; ``job`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.matmuls: list[tuple] = []   # (job, form, bits_a, bits_b, bits_out, dim)
        self.eig_dims: list[tuple] = []  # (job, dim) per symmetric_eig call
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        """Time ``fn`` as span ``name``; ``observe(args, result)`` runs after
        the span has closed, so its cost stays out of the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe_matmul(self, is_diagonal):
        def observe(args, out):
            a, b = args
            if is_diagonal(a) or is_diagonal(b):
                form = "diag"
            elif a.rb is not None or b.rb is not None:
                form = "dense_sqrt"
            else:
                form = "dense_rational"
            self.matmuls.append((self.job, form, _max_bits(a), _max_bits(b),
                                 _max_bits(out), a.dim))
        return observe

    def _observe_eig(self, args, _result) -> None:
        self.eig_dims.append((self.job, int(np.shape(args[0])[0])))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the fermigraph modules (already imported) and numpy.linalg.eigh."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"fermigraph.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    observe = self._observe_eig if attr == "symmetric_eig" else None
                    wrapper = self._wrap(f"{short}.{attr}", obj, observe)
                    replaced[id(obj)] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        self._set(np.linalg, "eigh", self._wrap(EIGH_SPAN, np.linalg.eigh))
        # rebind the copies made by ``from .x import f`` in sibling modules
        for modname, mod in list(sys.modules.items()):
            if modname != "fermigraph" and not modname.startswith("fermigraph."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(mod, attr) is not wrapper:
                    self._set(mod, attr, wrapper)

    def _install_class(self, short: str, cls: type) -> None:
        originals = dict(vars(cls))
        for attr, raw in originals.items():
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                observe = (self._observe_matmul(originals["is_diagonal"])
                           if name == MATMUL_SPAN else None)
                self._set(cls, attr, self._wrap(name, raw, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def finished_spans(self) -> list[tuple]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def write(self, path, jobs: list[dict]) -> None:
        """Store spans with their self times, plus the job list, as JSON."""
        spans = self.finished_spans()
        own = self_times(spans)
        rows = [{"name": name, "start": t0, "end": t1, "parent": parent,
                 "job": job, "self": own[i]}
                for i, (name, t0, t1, parent, job) in enumerate(spans)]
        matmuls = [dict(zip(("job", "form", "bits_a", "bits_b", "bits_out", "dim"), m))
                   for m in self.matmuls]
        with open(path, "w") as fh:
            json.dump({"jobs": jobs, "spans": rows, "matmuls": matmuls}, fh)


# -- per-layer metrics --------------------------------------------------------

_SAME_NAME = (
    "exactmat.commutator", "terwilliger.terwilliger_basis",
    "terwilliger.verify_dual_products", "terwilliger.triple_vanishing_check",
    "terwilliger.cubic_relation_residual", "scheme.build_scheme",
    "scheme.intersection_numbers", "scheme.lagrange_idempotents",
    "scheme.eigenmatrices", "scheme.krein_parameters", "eig.symmetric_eig",
    "eig.cluster_spectrum", "entangle.correlation_report",
    "entangle.projector_pair", "entangle.heun_operator",
    "entangle.spectrum_numeric", "entangle.float_energy_projectors",
    "entangle.hadamard_entropy_numeric", "graphs.build_hadamard_graph",
    "cli.main")
# metric prefix -> span names; ``<prefix>.s`` sums their outermost calls
TIMED: dict[str, frozenset[str]] = {
    "exactmat.matmul": frozenset({MATMUL_SPAN}),
    "exactmat.add": frozenset({"exactmat.ExactMatrix.__add__"}),
    "exactmat.eq": frozenset({"exactmat.ExactMatrix.__eq__"}),
    "eig.eigh_lapack": frozenset({EIGH_SPAN}),
    "hadamard.construct": frozenset({"hadamard.sylvester", "hadamard.paley"}),
    "qroot.ops": frozenset(f"qroot.QRootN.{op}" for op in OPERATORS + ("inverse",)),
    **{name: frozenset({name}) for name in _SAME_NAME},
}
# prefixes that also report ``<prefix>.calls`` (every call, nested ones too)
COUNTED = ("exactmat.matmul", "eig.symmetric_eig", "qroot.ops")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def _has_ancestor_in(spans: list[tuple], parent: int, names: frozenset[str]) -> bool:
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, scale: dict[str, float],
                  job_time_s: float) -> dict[str, float]:
    """Per-layer numbers for the spans and products of one pass.

    ``scale`` maps each job of the pass to the factor that turns its wall
    seconds into reference seconds; times are reported in reference seconds.
    ``job_time_s`` is the wall time the pass spent inside its jobs.
    """
    spans = tracer.finished_spans()
    own = self_times(spans)
    jobs = scale.keys()
    out: dict[str, float] = {f"{prefix}.s": 0.0 for prefix in TIMED}
    out.update({f"{prefix}.calls": 0 for prefix in COUNTED})
    out["eig.postprocess.s"] = 0.0
    top = 0.0
    for i, (name, t0, t1, parent, job) in enumerate(spans):
        if job not in jobs:
            continue
        k = scale[job]
        if parent < 0:
            top += t1 - t0
        if name == "eig.symmetric_eig":
            # LAPACK is symmetric_eig's only traced child: the rest is
            # symmetrisation, Gram-Schmidt and the residual checks
            out["eig.postprocess.s"] += own[i] * k
        for prefix, names in TIMED.items():
            if name not in names:
                continue
            if prefix in COUNTED:
                out[f"{prefix}.calls"] += 1
            if not _has_ancestor_in(spans, parent, names):
                out[f"{prefix}.s"] += (t1 - t0) * k
    out["eig.symmetric_eig.max_dim"] = max(
        (dim for job, dim in tracer.eig_dims if job in jobs), default=0)

    forms = {"diag": 0, "dense_rational": 0, "dense_sqrt": 0}
    max_bits = dense = eligible = 0
    for job, form, bits_a, bits_b, bits_out, dim in tracer.matmuls:
        if job not in jobs:
            continue
        forms[form] += 1
        max_bits = max(max_bits, bits_a, bits_b, bits_out)
        if form != "diag":
            dense += 1
            eligible += (bits_a + bits_b + math.ceil(math.log2(dim))
                         <= FLOAT64_EXACT_BITS)
    for form, count in forms.items():
        out[f"exactmat.matmul_{form}.calls"] = count
    out["exactmat.matmul.max_bits"] = max_bits
    out["exactmat.matmul.fast_eligible_frac"] = eligible / dense if dense else 0.0
    out["trace.top_coverage_frac"] = top / job_time_s
    return out
