"""Deterministic CSV/JSON report emission.

Numbers are rendered with 15 significant digits and a '.' separator
regardless of locale; rows are written in a caller-fixed order with
plain line feeds, so identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

SCHEMA_VERSION = "1"


def format_number(x) -> str:
    if isinstance(x, (bool,)):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, complex):
        return f"{format_number(x.real)}+{format_number(x.imag)}j"
    return format(float(x), ".15g")


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else format_number(c) for c in row])
    return buf.getvalue()


def render_json(payload: dict) -> str:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    return json.dumps(body, sort_keys=True, indent=2, default=_json_default) + "\n"


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(render_json(payload))


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")
