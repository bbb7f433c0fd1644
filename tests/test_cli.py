import json
import time
from pathlib import Path

import numpy as np
import pytest

from fermigraph import cli, correlation_report
from fermigraph.cli import (EXACT_MAX_VERTICES, CliInputError, _load_matrix,
                            build_parser, main)
from fermigraph.hadamard import (SYLVESTER_MAX_EXPONENT, HadamardMatrix,
                                 sylvester, verify)
from tests.conftest import hadamard_context


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_sylvester(capsys):
    code, out, _ = run(["gen", "--n", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    h = HadamardMatrix(order=4, entries=np.array(data["rows"]))
    assert verify(h)[0]


def test_gen_paley_verifies(capsys, tmp_path):
    out_path = tmp_path / "h8.json"
    code, _, _ = run(["gen", "--q", "7", "--out", str(out_path)], capsys)
    assert code == 0
    h = HadamardMatrix.load(out_path)
    assert h.order == 8 and verify(h)[0]


def test_gen_paley_bad_prime(capsys):
    code, _, err = run(["gen", "--q", "5"], capsys)
    assert code == 2
    assert "mod 4" in err


def test_gen_needs_parameters(capsys):
    code, _, _ = run(["gen"], capsys)
    assert code == 2


def test_verify_order_four(capsys):
    code, out, _ = run(["verify", "--n", "4"], capsys)
    assert code == 0
    assert "intersection_array: {4, 3, 2, 1; 1, 2, 3, 4}" in out
    assert "formally_self_dual: pass" in out
    assert "triple_vanishing: pass" in out


def test_verify_order_two(capsys):
    code, out, _ = run(["verify", "--n", "2"], capsys)
    assert code == 0
    assert "intersection_array: {2, 1, 1, 1; 1, 1, 1, 2}" in out


VERIFY_REPORT = """\
hadamard_product_identity: pass (max deviation 0)
scheme_axioms: pass (bases, structure constants, reconstructions)
intersection_array: {{{n}, {n_1}, {half}, 1; 1, {half}, {n_1}, {n}}}
metric: pass
cometric: pass
formally_self_dual: pass
dual_product_identity: pass
triple_vanishing: pass (250 triples, 0 violations)
cubic_relations: pass
"""


@pytest.mark.parametrize("source, order", [
    *((["--n", str(n)], n) for n in (2, 4, 8, 16, 32)),
    (["--q", "11"], 12),
])
def test_verify_report_bytes(source, order, capsys):
    code, out, err = run(["verify", *source], capsys)
    assert code == 0 and err == ""
    assert out == VERIFY_REPORT.format(n=order, n_1=order - 1, half=order // 2)


# full `heun` and `spectrum` reports, keyed by their argv; the `heun` ones
# were recorded before the exact kernel moved to int64 storage, the
# `spectrum` ones when its spectra moved to the Terwilliger modules
# (checked against 50-digit eigenvalues in test_modules.py)
REPORTS = json.loads((Path(__file__).parent / "cli_reports.json").read_text())


@pytest.mark.parametrize("argv", sorted(REPORTS))
def test_heun_and_spectrum_report_bytes(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert code == 0 and err == ""
    assert out == REPORTS[argv]


def test_verify_corrupted_file_exits_three(capsys, tmp_path):
    h = sylvester(2)
    rows = h.entries.tolist()
    rows[2][1] *= -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 4, "rows": rows}))
    code, _, err = run(["verify", "--in", str(bad)], capsys)
    assert code == 3


@pytest.mark.parametrize("entry", [1.9, -1.9, 1.0, True, "1", None, 10**30],
                         ids=["float-1.9", "float--1.9", "float-1.0", "bool",
                              "string", "null", "int-1e30"])
def test_verify_file_with_bad_entry_exits_two(entry, capsys, tmp_path):
    rows = sylvester(2).entries.tolist()
    rows[2][1] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 4, "rows": rows}))
    code, out, err = run(["verify", "--in", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_malformed_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, _ = run(["verify", "--in", str(bad)], capsys)
    assert code == 2


def test_spectrum_pi33(capsys):
    code, out, _ = run(["spectrum", "--k", "3", "--ell", "3", "--n", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["K"] == 3 and data["ell"] == 3
    assert data["trace_exact"] == "225/16"
    mults = {round(e["value"], 6): e["mult"] for e in data["spectrum"]}
    assert mults == {0.0: 1, 0.0625: 1, 1.0: 14}
    assert data["commutator_exact_zero"] is True


def test_spectrum_full_projection_identity(capsys):
    code, out, _ = run(["spectrum", "--k", "4", "--ell", "4", "--n", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["spectrum"] == [{"value": 1.0, "mult": 16}]
    assert data["commutator_exact_zero"] is None


def test_spectrum_pi22_multiplicities(capsys):
    code, out, _ = run(["spectrum", "--k", "2", "--ell", "2", "--n", "16"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    mults = [e["mult"] for e in data["spectrum"]]
    assert mults == [17, 1, 15, 1, 30]


def test_spectrum_formats(capsys):
    code, out, _ = run(["spectrum", "--k", "2", "--ell", "2", "--n", "4",
                        "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("value,mult")
    assert "# trace_exact=121/16" in out
    code, out, _ = run(["spectrum", "--k", "2", "--ell", "2", "--n", "4",
                        "--format", "pretty"], capsys)
    assert code == 0
    assert "trace (exact): 121/16" in out
    assert "MISMATCH" in out  # published simple-eigenvalue claims disagree


@pytest.mark.parametrize("k", [1, 2, 3])
def test_spectrum_of_a_projector_is_exact_zeros_and_ones(k, capsys):
    # with every shell kept, Pi(K, 4) = pi2(K): a projector, whose module
    # spectrum is exact 0s and 1s with no rounding left in the entropy
    code, out, err = run(["spectrum", "--n", "8", "--k", str(k), "--ell", "4",
                          "--format", "csv"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    filled = [9, 23, 31][k - 1]
    assert lines == ["value,mult", f"0,{32 - filled}", f"1,{filled}",
                     f"# trace_exact={filled}/1", "# entropy=0"]


def test_spectrum_from_matrix_file_matches_sylvester_order(capsys, tmp_path):
    path = tmp_path / "h8.json"
    assert main(["gen", "--n", "8", "--out", str(path)]) == 0
    code, from_file, _ = run(["spectrum", "--in", str(path), "--k", "2",
                              "--ell", "2"], capsys)
    assert code == 0
    code, from_order, _ = run(["spectrum", "--n", "8", "--k", "2", "--ell", "2"],
                              capsys)
    assert code == 0 and from_file == from_order


def test_spectrum_runs_no_dense_eigensolver(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    code, out, err = run(["spectrum", "--n", "8", "--k", "2", "--ell", "2"],
                         capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["trace_exact"] == "529/32"
    _, tables, basis = hadamard_context(4)
    for K in range(5):
        for ell in range(5):
            assert correlation_report(tables, basis, K, ell).spectrum.total() == 16


def test_spectrum_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["spectrum", "--k", "2", "--ell", "2", "--n", "16",
                 "--format", "json", "--out", str(a)]) == 0
    assert main(["spectrum", "--k", "2", "--ell", "2", "--n", "16",
                 "--format", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_entropy_sweep_csv(capsys):
    code, out, _ = run(["entropy", "--orders", "4,8", "--pairs", "1,3;3,3"],
                       capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,K,ell,S,S_per_n,S_4n_over_ln_n,limit,delta"
    assert len(lines) == 5
    assert lines[1].startswith("4,1,3,")


def test_entropy_rejects_bad_order(capsys):
    code, _, _ = run(["entropy", "--orders", "6"], capsys)
    assert code == 2


@pytest.mark.parametrize("pairs", ["7,7", "5,1", "-1,2", "2,-1"])
def test_entropy_rejects_out_of_range_cutoffs(pairs, capsys):
    code, out, err = run(["entropy", "--orders", "4", f"--pairs={pairs}"],
                         capsys)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_entropy_runs_at_the_sylvester_cap(capsys):
    start = time.perf_counter()
    code, out, err = run(["entropy", "--orders", "4096"], capsys)
    assert time.perf_counter() - start < 1.0  # no graph is built
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("4096,") for line in lines[1:])


def test_entropy_refuses_orders_above_budget(capsys):
    # the order budget of entropy is the Sylvester cap 4096
    assert 2**SYLVESTER_MAX_EXPONENT == 4096
    start = time.perf_counter()
    code, out, err = run(["entropy", "--orders", "64,8192"], capsys)
    assert time.perf_counter() - start < 5.0  # refused before order 64 is run
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Sylvester cap 4096" in err


@pytest.mark.parametrize("order, within_old_budget",
                         [(512, True), (1024, False)])
def test_entropy_budget_boundary_is_order_512(order, within_old_budget,
                                              capsys, monkeypatch):
    # entropy once built the graph and held orders to 512 (2048 vertices);
    # it builds no graph now, so orders on both sides of 512 run
    monkeypatch.setattr(cli, "build_hadamard_graph", None)
    assert (order <= 512) == within_old_budget
    code, out, err = run(["entropy", "--orders", f"4,{order}"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 13
    assert all(line.startswith(f"{order},") for line in lines[7:])


def test_entropy_has_no_tol_option():
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--orders", "4", "--tol", "1"])
    assert exc.value.code == 2


def test_heun_blocks(capsys):
    code, out, _ = run(["heun", "--k", "2", "--ell", "2", "--n", "4"], capsys)
    assert code == 0
    assert "mu = 2/1" in out and "nu = 2/1" in out
    assert "[T, Pi] == 0 exactly: True" in out
    assert "INCONSISTENT" not in out


def test_spectrum_from_paley_order(capsys):
    code, out, _ = run(["spectrum", "--k", "3", "--ell", "3", "--q", "11"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 12 and data["trace_exact"] == "2209/48"
    mults = [e["mult"] for e in data["spectrum"]]
    assert mults == [1, 1, 46]


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
def test_spectrum_refuses_non_finite_cluster_tolerance(tol, capsys):
    # spectrum multiplicities are module counts, with no cluster tolerance:
    # --tol is not an option of spectrum, so any value of it is refused
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "8", "--k", "2", "--ell", "2",
              "--format", "csv", f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and f"--tol={tol}" in captured.err


def test_spectrum_requires_order(capsys):
    code, _, _ = run(["spectrum", "--k", "1", "--ell", "1"], capsys)
    assert code == 2


def test_main_runs_twice_with_different_subcommands(capsys):
    csv_argv = ["spectrum", "--k", "2", "--ell", "2", "--n", "4",
                "--format", "csv"]
    code, first, _ = run(csv_argv, capsys)
    assert code == 0 and first.startswith("value,mult")
    code, out, _ = run(["verify", "--n", "2"], capsys)
    assert code == 0
    assert out == VERIFY_REPORT.format(n=2, n_1=1, half=1)
    # no option of an earlier call carries over: json is the default format
    code, out, _ = run(["spectrum", "--k", "2", "--ell", "2", "--n", "4"],
                       capsys)
    assert code == 0 and json.loads(out)["trace_exact"] == "121/16"
    code, again, _ = run(csv_argv, capsys)
    assert code == 0 and again == first


def test_verify_order_sixty_four_passes(capsys):
    code, out, _ = run(["verify", "--n", "64"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    for line in lines:
        if line.startswith("intersection_array:"):
            assert line == "intersection_array: {64, 63, 32, 1; 1, 32, 63, 64}"
        else:
            assert ": pass" in line, line


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "256"],
    ["verify", "--n", "4096"],
    ["spectrum", "--k", "1", "--ell", "1", "--n", "4096"],
    ["spectrum", "--k", "1", "--ell", "1", "--q", "131"],
    ["heun", "--k", "1", "--ell", "1", "--n", "256"],
])
def test_exact_commands_refuse_orders_above_budget(argv, capsys):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 5.0  # refused before any build
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "fermigraph entropy" in err


def test_exact_budget_applies_to_matrix_files(capsys, tmp_path):
    path = tmp_path / "h256.json"
    assert main(["gen", "--n", "256", "--out", str(path)]) == 0
    code, out, err = run(["verify", "--in", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget" in err


def test_exact_budget_boundary_is_order_128():
    parser = build_parser()
    args = parser.parse_args(["verify", "--n", "128"])
    assert 4 * _load_matrix(args).order == EXACT_MAX_VERTICES
    args = parser.parse_args(["verify", "--n", "256"])
    with pytest.raises(CliInputError):
        _load_matrix(args)


@pytest.mark.parametrize("argv, named", [
    (["gen", "--q", "3", "--n", "8"], "--n, --q"),
    (["verify", "--n", "4", "--q", "3"], "--n, --q"),
    (["verify", "--n", "64", "--in", "ORDER4"], "--n, --in"),
    (["gen"], "none"),
    (["verify"], "none"),
    (["spectrum", "--k", "1", "--ell", "1"], "none"),
    (["heun", "--k", "1", "--ell", "1"], "none"),
])
def test_matrix_source_must_be_exactly_one(argv, named, capsys, tmp_path,
                                           monkeypatch):
    path = tmp_path / "h4.json"
    path.write_text(sylvester(2).to_json())
    argv = [str(path) if a == "ORDER4" else a for a in argv]
    monkeypatch.setattr(cli, "sylvester", None)   # refused before any build
    monkeypatch.setattr(cli, "paley", None)
    monkeypatch.setattr(cli.HadamardMatrix, "load", None)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.rstrip().endswith(f"got {named}")


@pytest.mark.parametrize("argv", [
    ["gen", "--construction", "sylvester", "--n", "4"],
    ["verify", "--k", "2"],
])
def test_removed_source_options_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_unreadable_file_exits_two(capsys, tmp_path):
    code, out, err = run(["verify", "--in", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("order", ["6", "0", "8192"])
def test_sylvester_order_rule_is_shared(order, capsys):
    code, _, err_n = run(["gen", "--n", order], capsys)
    assert code == 2
    code, _, err_orders = run(["entropy", "--orders", order], capsys)
    assert code == 2
    assert err_n == err_orders and err_n.startswith(f"error: order {order} ")
