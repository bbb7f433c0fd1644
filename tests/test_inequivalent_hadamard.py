"""Two inequivalent Hadamard matrices of one order give one scheme.

Paley q = 23 and H_2 (x) Paley q = 11 (the Kronecker product with the
Sylvester matrix of order 2) both have order 24.  Their 4-profiles differ,
so no row and column permutations and sign changes take one to the other;
their Hadamard graphs still share every scheme table, because the tables of
a distance-regular graph depend on its intersection array alone.
"""

import collections
import dataclasses
import itertools

import numpy as np
import pytest

from fermigraph import (HadamardMatrix, build_hadamard_graph, build_scheme,
                        paley, sylvester)
from fermigraph.cli import main
from tests import dense_scheme_reference as dense


def _kronecker_paley_11() -> HadamardMatrix:
    return HadamardMatrix(order=24, entries=np.kron(sylvester(1).entries,
                                                    paley(11).entries))


def four_profile(h: HadamardMatrix) -> dict[int, int]:
    """Counts of |sum_j h_aj h_bj h_cj h_dj| over the row quadruples
    a < b < c < d.  Negating a row or a column, or permuting either, keeps
    it, so matrices with different profiles are inequivalent."""
    quads = np.array(list(itertools.combinations(range(h.order), 4)))
    rows = h.entries[quads]
    sums = np.abs(rows.prod(axis=1).sum(axis=1))
    return dict(sorted(collections.Counter(sums.tolist()).items()))


@pytest.fixture(scope="module")
def pair():
    return {name: build_hadamard_graph(h) for name, h in
            (("paley-23", paley(23)), ("kronecker", _kronecker_paley_11()))}


def test_four_profiles_differ():
    assert four_profile(paley(23)) == {0: 6072, 8: 4554}
    assert four_profile(_kronecker_paley_11()) == {0: 6600, 8: 3960, 24: 66}


def test_same_tables_equal_to_the_dense_reference(pair):
    tables = {name: build_scheme(g) for name, g in pair.items()}
    assert tables["paley-23"].to_json() == tables["kronecker"].to_json()
    for name, graph in pair.items():
        reference = dense.build_scheme(graph)
        for field in dataclasses.fields(reference):
            assert (getattr(tables[name], field.name)
                    == getattr(reference, field.name)), (name, field.name)


def test_verify_prints_identical_bytes(capsys, tmp_path):
    outputs = []
    for h in (paley(23), _kronecker_paley_11()):
        path = tmp_path / "h.json"
        h.save(path)
        assert main(["verify", "--in", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
