import numpy as np
import pytest

from pstchain.tableio import read_table, render_table


def test_exact_bytes_of_int_float_and_bool_columns():
    text = render_table(
        {"b": 1, "a": "x"},
        {
            "index": np.arange(1, 7),
            "value": np.array([0.1, -0.0, 1e-05, np.nan, np.inf, -np.inf]),
            "flag": [True, False, np.bool_(True), False, True, np.bool_(False)],
        },
    )
    assert text == (
        '# {\n'
        '#   "a": "x",\n'
        '#   "b": 1\n'
        '# }\n'
        'index,value,flag\n'
        '1,0.1,True\n'
        '2,-0.0,False\n'
        '3,1e-05,True\n'
        '4,nan,False\n'
        '5,inf,True\n'
        '6,-inf,False\n'
    )


def test_numpy_header_values_are_written_as_json():
    meta = {
        "count": np.int64(3),
        "ok": np.bool_(False),
        "scale": np.float64(0.25),
        "levels": np.array([1, 3, 5]),
        "grid": np.array([[0.5, 1.0]]),
    }
    text = render_table(meta, {"x": [1.0]})
    assert text.startswith(
        '# {\n'
        '#   "count": 3,\n'
        '#   "grid": [\n'
        '#     [\n'
        '#       0.5,\n'
        '#       1.0\n'
        '#     ]\n'
        '#   ],\n'
        '#   "levels": [\n'
        '#     1,\n'
        '#     3,\n'
        '#     5\n'
        '#   ],\n'
        '#   "ok": false,\n'
        '#   "scale": 0.25\n'
        '# }\n'
    )


def test_round_trip_through_read_table(tmp_path):
    meta = {"params": {"n": np.int64(5), "eps": 0.01}, "results": {"t_pst": np.pi}}
    times = np.linspace(0.0, np.pi, 5)
    columns = {"index": np.arange(5), "time": times, "fidelity": np.cos(times) ** 2}
    path = tmp_path / "table.csv"
    path.write_text(render_table(meta, columns))
    read_meta, names, data = read_table(path)
    assert read_meta == {"params": {"n": 5, "eps": 0.01}, "results": {"t_pst": np.pi}}
    assert names == ["index", "time", "fidelity"]
    assert data.tobytes() == np.column_stack(list(columns.values())).astype(float).tobytes()


@pytest.mark.parametrize("columns", [
    {"a": [1.0, 2.0], "b": [1.0]},
    {"a": np.zeros(3), "b": np.zeros(4)},
    {"a": np.zeros((2, 2)), "b": np.zeros((2, 2))},
], ids=["short-list", "long-array", "two-dimensional"])
def test_misaligned_columns_raise(columns):
    with pytest.raises(ValueError, match="1-D and of equal length"):
        render_table({}, columns)


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, np.float32(0.5)], ids=["object", "set", "complex", "float32"])
def test_header_value_json_cannot_encode_raises(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_table({"bad": value}, {"x": [1.0]})
