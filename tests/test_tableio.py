"""Table writer: the chunked formatter and the block-appending writer against
a per-value reference."""

import numpy as np
import pytest

from stochmech import tableio


def reference_table(columns: dict) -> bytes:
    """The table as a per-value loop writes it: ``str(int(v))`` for integer
    columns, ``"%.17g" % float(v)`` for all others."""
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    lines = ["\t".join(names)]
    for i in range(len(arrays[0])):
        lines.append("\t".join(
            str(int(arr[i])) if np.issubdtype(arr.dtype, np.integer)
            else "%.17g" % float(arr[i]) for arr in arrays))
    return ("\n".join(lines) + "\n").encode()


def written(tmp_path, columns: dict) -> bytes:
    path = tmp_path / "table.tsv"
    tableio.write_table(path, columns)
    return path.read_bytes()


def test_special_floats_match_reference(tmp_path):
    columns = {"v": np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                              2.2250738585072014e-308, 1.0 / 3.0, -1e300, 123.0])}
    assert written(tmp_path, columns) == reference_table(columns)
    assert written(tmp_path, columns).split(b"\n")[1:5] == [b"nan", b"inf", b"-inf", b"-0"]


def test_mixed_dtypes_match_reference(tmp_path):
    rng = np.random.default_rng(1)
    n = 37
    columns = {
        "i64": rng.integers(-2**62, 2**62, n, dtype=np.int64),
        "u8": rng.integers(0, 256, n, dtype=np.uint8),
        "flag": rng.random(n) < 0.5,
        "f32": rng.standard_normal(n).astype(np.float32),
        "f64": rng.standard_normal(n),
    }
    assert written(tmp_path, columns) == reference_table(columns)


def test_empty_table_is_header_only(tmp_path):
    columns = {"a": np.array([], dtype=float), "b": np.array([], dtype=np.int64)}
    assert written(tmp_path, columns) == b"a\tb\n" == reference_table(columns)


def test_multi_chunk_table_matches_reference(tmp_path):
    n = 2 * tableio.WRITE_CHUNK_ROWS + 452
    rng = np.random.default_rng(2)
    x = rng.standard_normal((n, 2))
    columns = {"k": np.arange(n), "x": x[:, 0], "y": x[:, 1]}   # strided columns
    data = written(tmp_path, columns)
    assert data == reference_table(columns)
    back = tableio.read_table(tmp_path / "table.tsv")
    assert np.array_equal(back["x"], columns["x"])               # exact round trip


def test_format_rows_concatenates_to_table_body():
    p = np.linspace(-3.0, 3.0, 3000)
    rho = np.exp(-p * p)
    body = "".join(tableio.format_rows([p, rho]))
    assert ("p\trho\n" + body).encode() == reference_table({"p": p, "rho": rho})


def test_unequal_columns_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="'b' has length 2"):
        tableio.write_table(tmp_path / "t.tsv", {"a": np.zeros(3), "b": np.zeros(2)})


def test_appended_blocks_equal_one_table(tmp_path):
    rng = np.random.default_rng(3)
    columns = {"k": np.arange(50), "x": rng.standard_normal(50)}
    path = tmp_path / "blocks.tsv"
    for rows, write in ((slice(0, 7), tableio.write_table), (slice(7, 7), tableio.append_rows),
                        (slice(7, 50), tableio.append_rows)):
        write(path, {name: col[rows] for name, col in columns.items()})
    assert path.read_bytes() == reference_table(columns)
