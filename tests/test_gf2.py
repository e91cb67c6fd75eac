import numpy as np
import pytest

from qcliff.gf2 import Gf2Matrix, bilinear_parity, bit_table, gram_parity, row_masks, xor_rows

from helpers import gf2_from_rows


def random_gf2(rng, rows, cols):
    return gf2_from_rows(rng.integers(0, 2, size=(rows, cols)).tolist())


def test_round_trip_rows():
    rows = [[1, 0, 1], [0, 1, 1]]
    mat = gf2_from_rows(rows)
    assert mat.bits == (0b101, 0b110)
    assert mat.to_rows() == rows


def test_bounds_checked():
    mat = gf2_from_rows([[1, 0], [0, 1]])
    assert mat.row_mask(1) == 0b10
    with pytest.raises(ValueError):
        mat.row_mask(2)
    with pytest.raises(ValueError):
        mat.row_mask(-1)


def test_rank_against_numpy_mod2_elimination():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        mat = random_gf2(rng, rows, cols)
        arr = np.array(mat.to_rows(), dtype=np.int64)
        # independent elimination oracle
        a = arr.copy() % 2
        rank = 0
        for col in range(cols):
            pivots = [r for r in range(rank, rows) if a[r, col]]
            if not pivots:
                continue
            a[[rank, pivots[0]]] = a[[pivots[0], rank]]
            for r in range(rows):
                if r != rank and a[r, col]:
                    a[r] = (a[r] + a[rank]) % 2
            rank += 1
        assert mat.rank() == rank


def test_inverse_round_trip():
    rng = np.random.default_rng(5)
    found = 0
    while found < 50:
        n = int(rng.integers(1, 9))
        mat = random_gf2(rng, n, n)
        if mat.rank() != n:
            continue
        found += 1
        inv = mat.inverse()
        prod = [[0] * n for _ in range(n)]
        rows, invrows = mat.to_rows(), inv.to_rows()
        for i in range(n):
            for j in range(n):
                prod[i][j] = sum(rows[i][k] * invrows[k][j] for k in range(n)) % 2
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_singular_inverse_rejected():
    mat = gf2_from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        mat.inverse()


def test_bilinear_parity_against_dense_product():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        R = rng.integers(0, 2, size=(n, n))
        u, v = rng.integers(0, 2, size=n), rng.integers(0, 2, size=n)
        rows = gf2_from_rows(R.tolist()).bits
        um = sum(int(b) << i for i, b in enumerate(u))
        vm = sum(int(b) << i for i, b in enumerate(v))
        assert bilinear_parity(rows, um, vm) == int(u @ R @ v) % 2


def test_xor_rows_against_dense_product():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        R = rng.integers(0, 2, size=(n, cols))
        u = rng.integers(0, 2, size=n)
        rows = gf2_from_rows(R.tolist()).bits
        um = sum(int(b) << i for i, b in enumerate(u))
        want = sum((int(b) % 2) << j for j, b in enumerate(u @ R))
        assert xor_rows(rows, um) == want


def test_row_mask_width_enforced():
    with pytest.raises(ValueError):
        Gf2Matrix(1, 2, (0b100,))


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 63, 64, 65, 144])
def test_bit_table_round_trips(cols):
    rng = np.random.default_rng(cols)
    full = (1 << cols) - 1
    masks = (0, full, 1, 1 << (cols - 1),
             *(int.from_bytes(rng.bytes(cols // 8 + 1), "little") & full for _ in range(20)))
    table = bit_table(masks, cols)
    assert table.dtype == np.uint8 and table.shape == (len(masks), cols)
    assert table.tolist() == [[(mask >> j) & 1 for j in range(cols)] for mask in masks]
    assert row_masks(table) == masks


@pytest.mark.parametrize("rows, cols", [(0, 5), (3, 0), (1, 1), (4, 7), (9, 13), (8, 64),
                                        (5, 65), (40, 130)])
def test_to_rows_matches_the_bit_walk(rows, cols):
    rng = np.random.default_rng([rows, cols])
    bits = tuple(int.from_bytes(rng.bytes(cols // 8 + 1), "little") & ((1 << cols) - 1)
                 for _ in range(rows))
    got = Gf2Matrix(rows, cols, bits).to_rows()
    assert got == [[(r >> j) & 1 for j in range(cols)] for r in bits]
    assert {type(v) for row in got for v in row} <= {int}


@pytest.mark.parametrize("cols", [1, 8, 63, 64, 65, 130])
def test_gram_parity_equals_the_int64_product_mod_2(cols):
    rng = np.random.default_rng(100 + cols)
    for rows_x, rows_y in ((1, 1), (5, 9), (70, 33)):
        x = rng.integers(0, 2, size=(rows_x, cols))
        y = rng.integers(0, 2, size=(rows_y, cols))
        got = gram_parity(row_masks(x), row_masks(y), cols)
        assert got.shape == (rows_x, rows_y)
        assert np.array_equal(got, (x @ y.T) % 2)
    # all-ones rows, whose popcounts fill every word
    ones = ((1 << cols) - 1,) * 3
    assert np.array_equal(gram_parity(ones, ones, cols), np.full((3, 3), cols % 2))
