"""tools/product_diff.py run as a script on small directories of tables."""

import pathlib
import subprocess
import sys

import pytest

from pstchain.tableio import render_table

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "product_diff.py"


def _write(directory, name, values, t_pst=2.0, params=None):
    directory.mkdir(exist_ok=True)
    metadata = {"params": params or {}, "results": {"t_pst": t_pst}}
    text = render_table(metadata, {"time": [0.0, 1.0], "value": values})
    (directory / name).write_text(text)


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True, timeout=60
    )


@pytest.fixture
def dirs(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for directory in (old, new):
        _write(directory, "a.csv", [0.5, 0.25])
    return old, new


def test_identical_directories_match(dirs):
    done = _run(*dirs)
    assert done.returncode == 0
    assert done.stdout == "a.csv  bytes match\n"


def test_changed_value_prints_its_relative_difference(dirs):
    old, new = dirs
    _write(new, "a.csv", [0.5, 0.375], t_pst=2.5)
    done = _run(old, new)
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[0] == "a.csv  bytes differ"
    fields = {line.split()[0]: line.split()[-1] for line in lines[1:]}
    # |0.375 - 0.25| / 0.5 and |2.5 - 2.0| / 2.5
    assert fields == {"time": "0.0e+00", "value": "2.5e-01", "results.t_pst": "2.0e-01"}


def test_changed_params_print_old_and_new(dirs):
    old, new = dirs
    _write(old, "a.csv", [0.5, 0.25], params={"eps": 0.01, "nav": 5, "sweep": [0.1]})
    _write(new, "a.csv", [0.5, 0.25], params={"nav": 6, "seed": 3, "sweep": [0.1]})
    done = _run(old, new)
    # a header change alone leaves the exit status to the columns and results
    assert done.returncode == 0
    lines = [" ".join(line.split()) for line in done.stdout.splitlines()]
    assert lines[:4] == [
        "a.csv bytes differ",
        "params.eps 0.01 -> (absent)",
        "params.nav 5 -> 6",
        "params.seed (absent) -> 3",
    ]
    assert all(line.endswith("0.0e+00") for line in lines[4:]) and len(lines) == 7


def test_file_on_one_side_only_exits_1(dirs):
    old, new = dirs
    _write(old, "b.csv", [1.0, 1.0])
    done = _run(old, new)
    assert done.returncode == 1
    assert "b.csv  only in OLD" in done.stdout.splitlines()


def test_wrong_argument_count_exits_2(dirs):
    done = _run(dirs[0])
    assert done.returncode == 2
    assert done.stderr.startswith("usage:")
