"""Tabular report rendering for the command-line tools.

Every command emits a :class:`ReportRecord`: free-form metadata, column
names, and numeric rows.  Two renderings exist:

* CSV with metadata as leading ``# key=value`` comment lines,
* JSON with the literal ``{"meta", "columns", "rows"}`` structure.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, and no timestamps or environment details are recorded,
so re-running a command byte-identically reproduces its output.
Non-finite floats render as ``nan``/``inf`` in CSV and ``null`` in JSON
(JSON has no literal for them).
"""

from __future__ import annotations

import math
import sys

from ._record import frozen_record

__all__ = ["ReportRecord", "to_csv", "to_json", "render"]

FLOAT_FORMAT = "%.17g"


@frozen_record
class ReportRecord:
    """One command's output: metadata, column names, numeric rows."""

    meta: dict | None = None
    columns: tuple = ()
    rows: tuple = ()

    def __post_init__(self):
        if self.meta is None:
            object.__setattr__(self, "meta", {})
        cols = tuple(str(c) for c in self.columns)
        rows = tuple(tuple(r) for r in self.rows)
        for r in rows:
            if len(r) != len(cols):
                raise ValueError(
                    f"row width {len(r)} does not match {len(cols)} columns")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rows", rows)


def _plain(value):
    """A numpy bool, integer or floating scalar as the Python bool, int
    or float it holds; anything else unchanged.

    numpy is never imported here: a numpy scalar can only exist once
    its module is loaded.
    """
    np = sys.modules.get("numpy")
    if np is None or not isinstance(value, np.generic):
        return value
    for kind, plain in ((np.bool_, bool), (np.integer, int),
                        (np.floating, float)):
        if isinstance(value, kind):
            return plain(value)
    return value


def _format_cell(value) -> str:
    if type(value) is float:
        return FLOAT_FORMAT % value
    value = _plain(value)
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    return FLOAT_FORMAT % float(value)


def to_csv(record: ReportRecord) -> str:
    """Render as CSV with ``# key=value`` metadata comment lines."""
    lines = [f"# {key}={_format_cell(value)}"
             for key, value in record.meta.items()]
    lines.append(",".join(record.columns))
    lines.extend(",".join(_format_cell(v) for v in row)
                 for row in record.rows)
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if type(value) is float:
        return value if math.isfinite(value) else None
    value = _plain(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def to_json(record: ReportRecord) -> str:
    """Render as a JSON object with meta, columns and rows members."""
    import json  # only JSON output needs it, so CSV paths skip the import

    payload = {
        "meta": {k: _json_safe(v) for k, v in record.meta.items()},
        "columns": list(record.columns),
        "rows": [[_json_safe(v) for v in row] for row in record.rows],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render(record: ReportRecord, fmt: str) -> str:
    """Render in the named format ("csv" or "json")."""
    if fmt == "csv":
        return to_csv(record)
    if fmt == "json":
        return to_json(record)
    raise ValueError(f"unknown output format {fmt!r}")

