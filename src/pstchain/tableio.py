"""CSV output with a JSON metadata preamble.

Every table starts with a block of '# '-prefixed lines holding one JSON
object (sorted keys, fixed indentation), followed by a regular CSV header and
rows.  A table is a mapping of named columns; each value is written with the
`repr` of its Python int, float or bool (shortest round trip for floats), so
writing the same data twice produces byte-identical files and any file can be
regenerated from the parameters recorded in its own header.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def render_table(metadata: dict, columns: dict) -> str:
    """Render a header and equally long 1-D columns, keyed by column name, as text."""
    arrays = [np.asarray(col) for col in columns.values()]
    shapes = [a.shape for a in arrays]
    if len(set(shapes)) != 1 or len(shapes[0]) != 1:
        raise ValueError(f"table columns must be 1-D and of equal length, got shapes {shapes}")
    header = json.dumps(metadata, indent=2, sort_keys=True, default=_json_default)
    lines = [f"# {line}" for line in header.splitlines()]
    lines.append(",".join(columns))
    lines.extend(",".join(map(repr, row)) for row in zip(*(a.tolist() for a in arrays)))
    return "\n".join(lines) + "\n"


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


def _json_default(obj):
    """Encode the numpy values json cannot: arrays, integers and booleans."""
    if isinstance(obj, (np.ndarray, np.integer, np.bool_)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
