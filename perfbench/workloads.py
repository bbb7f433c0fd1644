"""Workload job lists and their output checks.

Every job returns a JSON-able output that ``compare`` checks against the
output recorded in ``reference.json`` from the code at the commit that added
the benchmark.  Exact values (report bytes, traces, multiplicities, flags)
must match exactly; float values are compared by tolerance, so that a later
eigenvalue-only path is not rejected over last-bit differences.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# jobs call through the package and module attributes, never through names
# bound here, so that the tracer's patched functions are the ones called
import fermigraph as fg
from fermigraph import cli
from fermigraph.eig import DEFAULT_CLUSTER_TOL

REFERENCE = Path(__file__).with_name("reference.json")
FLOAT_TOL = DEFAULT_CLUSTER_TOL        # absolute, for spectrum values and entropies
ENTROPY_RTOL = 1e-8                    # relative, for entropy CSV rows
SPECTRUM_EXPONENT = 5                  # Sylvester order 32, N = 64, diameter 4
ENTROPY_PAIRS = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3))


class CheckFailure(AssertionError):
    """A job's output differs from the recorded reference."""


@dataclass(frozen=True)
class Job:
    name: str                     # key into reference.json, unique per workload
    run: Callable[[dict], object]  # state -> JSON-able output
    compare: Callable[[object, object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    first: tuple[Job, ...]        # run in this order at the start of every pass
    shuffled: tuple[Job, ...]     # order set by the seed, after ``first``
    warmup: tuple[Job, ...]       # set-up only, never timed or checked as jobs
    nominal_pass_s: float         # wall time per pass, reference machine


# -- job kinds ------------------------------------------------------------------

def _cli_job(argv: list[str], compare) -> Job:
    def run(state: dict):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        state["output_bytes"] = state.get("output_bytes", 0) + len(text.encode())
        return {"exit": code, "stdout": text}
    return Job(" ".join(argv), run, compare)


def _build_job(exponent: int) -> Job:
    def run(state: dict):
        graph = fg.build_hadamard_graph(fg.sylvester(exponent))
        tables = fg.build_scheme(graph)
        state["tables"] = tables
        state["basis"] = fg.terwilliger_basis(tables, base_vertex=0)
        b, c = fg.intersection_array(tables.p_numbers)
        return {"order": graph.order, "intersection_array": [list(b), list(c)],
                "multiplicities": list(tables.multiplicities)}
    return Job(f"build n={2 ** exponent}", run, _compare_exact)


def _report_job(K: int, ell: int) -> Job:
    def run(state: dict):
        report = fg.correlation_report(state["tables"], state["basis"], K, ell)
        return json.loads(json.dumps(report.to_payload()))
    return Job(f"report K={K} ell={ell}", run, _compare_report)


# -- output checks -----------------------------------------------------------------

def _fail(what: str, got, want) -> None:
    raise CheckFailure(f"{what}: got {got!r}, want {want!r}")


def _compare_exact(got, want) -> None:
    if got != want:
        _fail("output", got, want)


def _close(what: str, got: float, want: float) -> None:
    if not abs(got - want) <= FLOAT_TOL:
        _fail(what, got, want)


def _compare_report(got: dict, want: dict) -> None:
    for key in ("n", "K", "ell", "trace_exact", "commutator_exact_zero"):
        if got[key] != want[key]:
            _fail(key, got[key], want[key])
    if [e["mult"] for e in got["spectrum"]] != [e["mult"] for e in want["spectrum"]]:
        _fail("multiplicities", got["spectrum"], want["spectrum"])
    for g, w in zip(got["spectrum"], want["spectrum"]):
        _close("spectrum value", g["value"], w["value"])
    _close("entropy", got["entropy"], want["entropy"])
    if len(got["closed_form_flags"]) != len(want["closed_form_flags"]):
        _fail("closed_form_flags", got["closed_form_flags"], want["closed_form_flags"])
    for g, w in zip(got["closed_form_flags"], want["closed_form_flags"]):
        for key in ("flag", "claimed_mult", "observed_mult"):
            if g[key] != w[key]:
                _fail(f"closed form {key}", g[key], w[key])
        for key in ("claimed_value", "observed_value", "abs_delta"):
            _close(f"closed form {key}", g[key], w[key])


def _compare_entropy_csv(got: dict, want: dict) -> None:
    if got["exit"] != want["exit"]:
        _fail("exit code", got["exit"], want["exit"])
    got_lines = got["stdout"].splitlines()
    want_lines = want["stdout"].splitlines()
    if len(got_lines) != len(want_lines) or got_lines[:1] != want_lines[:1]:
        _fail("csv shape", got["stdout"], want["stdout"])
    header = want_lines[0].split(",")
    s_col = header.index("S")
    exact_cols = [header.index(c) for c in ("n", "K", "ell", "limit")]
    for g, w in zip(got_lines[1:], want_lines[1:]):
        gf, wf = g.split(","), w.split(",")
        if [gf[i] for i in exact_cols] != [wf[i] for i in exact_cols]:
            _fail("csv row", g, w)
        if not math.isclose(float(gf[s_col]), float(wf[s_col]),
                            rel_tol=ENTROPY_RTOL, abs_tol=0.0):
            _fail("entropy S", g, w)


# -- workloads -----------------------------------------------------------------------

def _verify(argv: list[str]) -> Job:
    return _cli_job(argv, _compare_exact)        # exit code and report bytes


def _entropy(order: int, K: int, ell: int) -> Job:
    return _cli_job(["entropy", "--orders", str(order), "--pairs", f"{K},{ell}"],
                    _compare_entropy_csv)


WORKLOADS = {w.name: w for w in (
    # exact kernel, scheme and terwilliger; no eigensolver; nothing shared
    Workload(
        name="verify-exact",
        first=(),
        shuffled=(_verify(["verify", "--n", "16"]),
                  _verify(["verify", "--q", "11"]),
                  _verify(["verify", "--n", "32"])),
        warmup=(_verify(["verify", "--n", "8"]),),
        nominal_pass_s=17.0),
    # one exact build shared by 25 reports: exact commutators and eigensolver
    Workload(
        name="spectrum-sweep",
        first=(_build_job(SPECTRUM_EXPONENT),),
        shuffled=tuple(_report_job(K, ell) for K in range(5) for ell in range(5)),
        warmup=(_build_job(3), _report_job(2, 2)),
        nominal_pass_s=9.0),
    # float path only: Lagrange projectors, eigh and Gram-Schmidt
    Workload(
        name="entropy-float",
        first=(),
        shuffled=tuple(_entropy(order, K, ell)
                       for order in (64, 256) for K, ell in ENTROPY_PAIRS),
        warmup=(_entropy(16, 1, 1),),
        nominal_pass_s=17.0),
)}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
