"""Command-line front end.

Subcommands
    gen       construct a Hadamard matrix (Sylvester or Paley) and write JSON
    verify    run every exact scheme/duality check for a graph and report
    spectrum  chopped-correlation report for one (K, ell) pair
    entropy   entropy sweep over orders and (K, ell) pairs
    heun      print the commuting operator's blocks and commutation status

gen, verify, spectrum and heun take their matrix from exactly one of --n
(Sylvester order), --q (Paley prime) and --in (matrix JSON file); --k is the
energy cutoff K of spectrum and heun.  verify, spectrum and heun work on
exact N x N matrices, N = 4n, and refuse graphs above EXACT_MAX_VERTICES
before building any of them.  No subcommand runs an eigensolver: the
spectra of spectrum and entropy come from the Terwilliger modules of the
intersection array (see ``entangle.HadamardSpectra``), and entropy builds no
graph at all.  Sylvester orders, from --n or entropy --orders, are powers of
two up to 2^SYLVESTER_MAX_EXPONENT.  Exit codes: 0 success, 2 input
validation, 3 exact-identity failure, 4 numerical failure (a spectrum that
fails its trace or [0, 1] check).  Output is deterministic: fixed key order,
fixed float formatting, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .eig import InvalidSpectrumError
from .entangle import (correlation_report, entropy_sweep, heun_operator,
                       projector_pair)
from .exactmat import commutator
from .graphs import build_hadamard_graph
from .hadamard import (SYLVESTER_MAX_EXPONENT, HadamardMatrix, NotHadamardError,
                       paley, sylvester, verify)
from .qroot import RadicandMismatchError
from .scheme import SchemeError, build_scheme, intersection_array, polynomial_checks
from .terwilliger import (cubic_relation_residual, terwilliger_basis,
                          triple_vanishing_check, verify_dual_products)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EXACT = 3
EXIT_NUMERIC = 4

# Size budget of the exact path: the largest vertex count N = 4n for which
# verify, spectrum and heun build dense N x N matrices over Q(sqrt(n)).
# verify takes about 0.6 s and 103 MB at order 128 (N = 512) and 0.3 s and
# 46 MB at order 64 on two x86-64 cores; its checks at order 256 take 1.4 s
# and 259 MB through the library.  The scheme build reads the graph with
# d+1 = 5 products, each O(N^3).
EXACT_MAX_VERTICES = 512


class CliInputError(ValueError):
    pass


class ExactCheckFailure(RuntimeError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _check_budget(order: int, max_vertices: int | None, scope: str) -> None:
    """Refuse an order whose 4n vertices exceed ``max_vertices`` (None: no
    budget); callers run this before the graph of that order is built."""
    if max_vertices is not None and 4 * order > max_vertices:
        raise CliInputError(
            f"order {order} gives {4 * order} vertices, above the budget of "
            f"{max_vertices} (order {max_vertices // 4}) {scope}")


def _check_sylvester_order(order: int) -> int:
    """Hold a Sylvester order to the rule that it is a power of two no larger
    than 2^SYLVESTER_MAX_EXPONENT, and return its exponent k."""
    k = order.bit_length() - 1
    if order <= 0 or 2**k != order:
        raise CliInputError(f"order {order} is not a power of two")
    if k > SYLVESTER_MAX_EXPONENT:
        raise CliInputError(
            f"order {order} is above the Sylvester cap {2**SYLVESTER_MAX_EXPONENT}")
    return k


def _load_matrix(args, exact: bool = True) -> HadamardMatrix:
    """The matrix named by exactly one of --n, --q and --in.

    With ``exact`` the order is held to the exact-path budget before any
    matrix is built (for --in, once the file is loaded).
    """
    given = [flag for flag, value in (("--n", args.n), ("--q", args.q),
                                      ("--in", args.infile)) if value is not None]
    if len(given) != 1:
        raise CliInputError("need exactly one of --n, --q and --in, got "
                            + (", ".join(given) or "none"))
    budget = EXACT_MAX_VERTICES if exact else None
    scope = "of the exact path; use 'fermigraph entropy' for larger orders"
    if args.infile is not None:
        try:
            h = HadamardMatrix.load(args.infile)
        except NotHadamardError:
            raise
        except OSError as exc:
            raise CliInputError(str(exc)) from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"bad matrix file: {exc}") from exc
        _check_budget(h.order, budget, scope)
        return h
    if args.n is not None:
        k = _check_sylvester_order(args.n)
        _check_budget(args.n, budget, scope)
        return sylvester(k)
    _check_budget(args.q + 1, budget, scope)
    try:
        return paley(args.q)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def cmd_gen(args) -> int:
    h = _load_matrix(args, exact=False)
    _emit(h.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    h = _load_matrix(args)
    lines = []
    ok, dev = verify(h)
    lines.append(f"hadamard_product_identity: {'pass' if ok else 'FAIL'} "
                 f"(max deviation {dev})")
    if not ok:
        _emit("\n".join(lines) + "\n", args.out)
        raise ExactCheckFailure("H H^T != n I")
    graph = build_hadamard_graph(h)
    tables = build_scheme(graph)       # raises SchemeError on any exact failure
    lines.append("scheme_axioms: pass (bases, structure constants, reconstructions)")
    b, c = intersection_array(tables.p_numbers)
    lines.append("intersection_array: {" + ", ".join(map(str, b)) + "; "
                 + ", ".join(map(str, c)) + "}")
    flags = polynomial_checks(tables.p_numbers, tables.krein,
                              tables.eigenmatrix_p, tables.eigenmatrix_q)
    for name, val in flags.items():
        lines.append(f"{name}: {'pass' if val else 'FAIL'}")
    basis = terwilliger_basis(tables, base_vertex=0)
    verify_dual_products(basis)
    lines.append("dual_product_identity: pass")
    rep = triple_vanishing_check(basis)
    lines.append(f"triple_vanishing: {'pass' if rep.ok else 'FAIL'} "
                 f"({rep.checked} triples, {len(rep.violations)} violations)")
    r1, r2 = cubic_relation_residual(tables.adjacency, basis.dual_adjacency,
                                     graph.eigenvalues[1], graph.eigenvalues[0])
    cubic_ok = r1.is_zero() and r2.is_zero()
    lines.append(f"cubic_relations: {'pass' if cubic_ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    if not (all(flags.values()) and rep.ok and cubic_ok):
        raise ExactCheckFailure("an exact identity failed")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    h = _load_matrix(args)
    graph = build_hadamard_graph(h)
    tables = build_scheme(graph)
    basis = terwilliger_basis(tables, base_vertex=0)
    report = correlation_report(tables, basis, args.k, args.ell)
    payload = report.to_payload()
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        lines = ["value,mult"]
        lines += [f"{_fmt(v)},{m}" for v, m in report.spectrum.entries]
        lines.append(f"# trace_exact={payload['trace_exact']}")
        lines.append(f"# entropy={_fmt(report.entropy_value)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"Pi(K={payload['K']}, ell={payload['ell']}) for order {payload['n']}",
            f"trace (exact): {payload['trace_exact']}",
            f"spectrum: {report.spectrum}",
            f"entropy: {_fmt(report.entropy_value)}",
            f"commutes with its Heun partner (exact): {report.commutator_exact_zero}",
        ]
        for cf in payload["closed_form_flags"]:
            mark = "MISMATCH" if cf["flag"] else "ok"
            lines.append(
                f"  claimed {_fmt(cf['claimed_value'])}^({cf['claimed_mult']}) "
                f"observed {_fmt(cf['observed_value'])}^({cf['observed_mult']}) "
                f"[{mark}]")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_entropy(args) -> int:
    orders = [int(x) for x in args.orders.split(",")] if args.orders else [4, 16, 64]
    if args.pairs:
        pairs = []
        for chunk in args.pairs.split(";"):
            k, ell = chunk.split(",")
            pairs.append((int(k), int(ell)))
    else:
        pairs = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
    for n in orders:
        _check_sylvester_order(n)
    rows = entropy_sweep(orders, pairs)
    lines = ["n,K,ell,S,S_per_n,S_4n_over_ln_n,limit,delta"]
    for r in rows:
        delta = "" if r.limit_delta is None else _fmt(r.limit_delta)
        lines.append(
            f"{r.order},{r.energy_cut},{r.neighbourhood_cut},{_fmt(r.entropy)},"
            f"{_fmt(r.entropy_per_order)},{_fmt(r.entropy_log_scaled)},"
            f"{r.limit_label},{delta}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_heun(args) -> int:
    h = _load_matrix(args)
    graph = build_hadamard_graph(h)
    tables = build_scheme(graph)
    basis = terwilliger_basis(tables, base_vertex=0)
    t = heun_operator(tables, basis, args.k, args.ell)
    pair = projector_pair(tables, basis, args.k, args.ell)
    pi = pair.pi2.masked_support(pair.support)
    lines = [
        f"T(K={args.k}, ell={args.ell}) for order {graph.order}",
        f"mu = {t.mu}", f"nu = {t.nu}",
    ]
    estars = basis.dual_idempotents
    for i in range(tables.diameter + 1):
        block = estars[i] @ t.matrix @ estars[i]
        vals = sorted({str(v) for v in block.diagonal_values()})
        lines.append(f"shell {i} diagonal values: {', '.join(vals)}")
    a = tables.adjacency
    for i in range(1, tables.diameter + 1):
        cross_a = estars[i - 1] @ a @ estars[i]
        cross_t = estars[i - 1] @ t.matrix @ estars[i]
        if cross_a.is_zero():
            lines.append(f"shells {i-1}<->{i}: no coupling")
            continue
        coeff = tables.eigenmatrix_q[i - 1][1] + tables.eigenmatrix_q[i][1] + t.nu
        match = cross_t == cross_a.scale(coeff)
        lines.append(f"shells {i-1}<->{i} coupling coefficient: {coeff} "
                     f"({'consistent' if match else 'INCONSISTENT'})")
    comms = [
        ("pi1", commutator(t.matrix, pair.pi1).is_zero()),
        ("pi2", commutator(t.matrix, pair.pi2).is_zero()),
        ("Pi", commutator(t.matrix, pi).is_zero()),
    ]
    for name, ok in comms:
        lines.append(f"[T, {name}] == 0 exactly: {ok}")
    _emit("\n".join(lines) + "\n", args.out)
    if not all(ok for _, ok in comms):
        raise ExactCheckFailure("Heun operator failed to commute")
    return EXIT_OK


def _add_matrix_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, default=None,
                   help="Paley prime, q = 3 mod 4 (order q+1)")
    p.add_argument("--n", type=int, default=None,
                   help="Hadamard order (power of two, Sylvester)")
    p.add_argument("--in", dest="infile", default=None,
                   help="matrix JSON file")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermigraph",
        description="free-fermion entanglement data on Hadamard graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="construct a Hadamard matrix")
    _add_matrix_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="exact scheme verification report")
    _add_matrix_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="chopped-correlation report")
    _add_matrix_source(p)
    _add_common(p)
    p.add_argument("--k", type=int, required=True, help="energy cutoff K")
    p.add_argument("--ell", type=int, required=True, help="distance cutoff")
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("entropy", help="entropy sweep table (CSV)")
    _add_common(p)
    p.add_argument("--orders", default=None, help="comma list, e.g. 4,16,64")
    p.add_argument("--pairs", default=None, help="semicolon list, e.g. 1,1;2,2")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("heun", help="commuting-operator blocks and status")
    _add_matrix_source(p)
    _add_common(p)
    p.add_argument("--k", type=int, required=True, help="energy cutoff K")
    p.add_argument("--ell", type=int, required=True, help="distance cutoff")
    p.set_defaults(func=cmd_heun)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ExactCheckFailure, SchemeError, NotHadamardError,
            RadicandMismatchError) as exc:
        print(f"exact check failed: {exc}", file=sys.stderr)
        return EXIT_EXACT
    except InvalidSpectrumError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
