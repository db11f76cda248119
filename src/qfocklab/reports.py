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
import os
from numbers import Integral, Rational

from .errors import OutputWriteError

SCHEMA_VERSION = "1"


def _is_fraction(x) -> bool:
    # a fractions.Fraction (the torus coefficients), named by its ABCs so
    # that reports need not import the fractions module
    return isinstance(x, Rational) and not isinstance(x, Integral)


def format_number(x) -> str:
    if _is_fraction(x) or isinstance(x, int):
        return str(x)
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
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def write_json(path: str, payload: dict) -> None:
    write_text(path, render_json(payload))


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``.

    A regular file (or a new one) is written to a temporary file in its
    directory and moved into place, so a failed write leaves the old
    file, or none, and no truncated one.  Anything else that exists
    there (a link such as /dev/stdout, a device, a pipe) is written
    through.  An OS error becomes ``OutputWriteError``.
    """
    try:
        if os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path)):
            with open(path, "w", newline="") as fh:
                fh.write(text)
            return
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.lexists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
