"""CSV output with a JSON metadata preamble.

Every table starts with a block of '# '-prefixed lines holding one JSON
object (sorted keys, fixed indentation), followed by a regular CSV header and
rows.  Floats are written with shortest-roundtrip repr, so writing the same
data twice produces byte-identical files and any file can be regenerated from
the parameters recorded in its own header.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render_table(metadata: dict, columns: list[str], rows) -> str:
    buf = io.StringIO()
    header = json.dumps(_jsonable(metadata), indent=2, sort_keys=True)
    for line in header.splitlines():
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def read_table(path) -> tuple[dict, list[str], np.ndarray]:
    """Parse a metadata-CSV file back into (metadata, columns, float matrix)."""
    header_lines = []
    data_lines = []
    with open(path, "r", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                header_lines.append(line[1:].strip())
            else:
                data_lines.append(line)
    metadata = json.loads("\n".join(header_lines)) if header_lines else {}
    reader = csv.reader(data_lines)
    table = list(reader)
    if not table:
        return metadata, [], np.empty((0, 0))
    columns = table[0]
    data = np.array([[float(v) for v in row] for row in table[1:]], dtype=float)
    return metadata, columns, data


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
