import json

import numpy as np
import pytest

from fermigraph.hadamard import (HadamardMatrix, NotHadamardError, core_blocks,
                                 normalize, paley, sylvester, verify)


def test_sylvester_base_cases():
    assert sylvester(0).entries.tolist() == [[1]]
    assert sylvester(1).entries.tolist() == [[1, 1], [1, -1]]


def test_sylvester_orders_and_normalization():
    for k in range(6):
        h = sylvester(k)
        assert h.order == 2**k
        assert h.is_normalized()
        ok, dev = verify(h)
        assert ok and dev == 0


def test_sylvester_cap():
    with pytest.raises(ValueError):
        sylvester(13)


def test_verify_rejects_all_ones():
    ok, _ = verify(np.ones((2, 2), dtype=int))
    assert not ok


def test_verify_h4():
    h4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])
    ok, dev = verify(h4)
    assert ok and dev == 0


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23])
def test_paley_product_identity(q):
    h = paley(q)
    assert h.order == q + 1
    assert h.is_normalized()
    # independent oracle: direct integer multiplication
    gram = h.entries @ h.entries.T
    assert (gram == (q + 1) * np.eye(q + 1, dtype=int)).all()


def test_paley_rejects_wrong_residue_and_composite():
    with pytest.raises(ValueError):
        paley(5)   # 5 = 1 (mod 4)
    with pytest.raises(ValueError):
        paley(15)  # composite
    with pytest.raises(ValueError):
        paley(4099)  # above the order cap


def test_normalize_fixed_point_and_involution():
    h = sylvester(2)
    assert normalize(h).entries.tolist() == h.entries.tolist()
    flipped = HadamardMatrix(order=4, entries=h.entries * np.where(
        np.arange(4) == 0, -1, 1)[:, None])
    assert normalize(flipped).entries.tolist() == h.entries.tolist()


def test_normalize_keeps_hadamard():
    h = paley(3)
    renorm = normalize(h)
    ok, _ = verify(renorm)
    assert ok and renorm.is_normalized()


def test_core_blocks_order_two():
    cb = core_blocks(sylvester(1))
    assert cb.hbar.tolist() == [[1], [-1]]
    assert cb.m1.tolist() == [[1, 0], [0, 1]]
    assert cb.m2.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_core_block_identities(k):
    h = sylvester(k)
    n = h.order
    cb = core_blocks(h)
    m1, m2 = cb.m1, cb.m2
    j = np.ones((n, n), dtype=object)
    eye = np.eye(n, dtype=int).astype(object)
    assert (m1 + m2 == np.ones((n, 2 * n - 2), dtype=object)).all()
    assert (2 * (m1 @ m1.T) == n * eye + (n - 2) * j).all()
    assert (2 * (m2 @ m2.T) == n * eye + (n - 2) * j).all()
    assert (2 * (m1 @ m2.T) == n * (j - eye)).all()
    assert (m1 - m2 == np.concatenate([cb.hbar, -cb.hbar], axis=1)).all()
    # 0/1 entries with constant row sums n-1
    assert set(int(v) for v in m1.flat) <= {0, 1}
    assert all(int(s) == n - 1 for s in m1.sum(axis=1))
    assert all(int(s) == n - 1 for s in m2.sum(axis=1))


def test_core_blocks_requires_normalized():
    h = sylvester(2)
    flipped = HadamardMatrix(order=4, entries=-h.entries)
    with pytest.raises(ValueError):
        core_blocks(flipped)


def test_json_roundtrip(tmp_path):
    h = paley(7)
    path = tmp_path / "h8.json"
    h.save(path)
    data = json.loads(path.read_text())
    assert data["order"] == 8
    again = HadamardMatrix.load(path)
    assert (again.entries == h.entries).all()


def test_corrupted_matrix_rejected(tmp_path):
    h = sylvester(2)
    rows = h.entries.tolist()
    rows[1][2] *= -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 4, "rows": rows}))
    with pytest.raises(NotHadamardError):
        HadamardMatrix.load(path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_deviation_matches_object_gram(seed):
    rng = np.random.default_rng(seed)
    h = sylvester(8).entries.copy()
    flips = rng.integers(0, 256, (seed + 1, 2))
    h[flips[:, 0], flips[:, 1]] *= -1
    h_obj = h.astype(object)
    gram = np.dot(h_obj, h_obj.T) - 256 * np.eye(256, dtype=int)
    ok, dev = verify(h)
    assert not ok
    assert dev == max(abs(int(v)) for v in gram.flat)
