"""Exception types shared across the toolkit, the readers that turn a file
that is not UTF-8 or not valid JSON into them, the one writer of each output
format (indented JSON, compact JSON lines, CSV), the one reader of config
files, and the JSON type predicates that the file loaders use to raise them.
``write_jsonl`` copies a ``bytes`` value, the base64 of a model's tables, to
the file as a JSON string, unscanned by ``json.dumps`` and not re-encoded."""
from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Iterator


class SalienceError(Exception):
    """Base class for toolkit errors."""


class DataError(SalienceError):
    """Malformed input data or a violated document/model invariant."""


class ModelFormatError(DataError):
    """Model file is missing, has the wrong version, or the wrong type."""


class NumericError(SalienceError):
    """A NaN or Inf showed up where finite numbers are required."""


def read_json(path: str | Path, what: str, error: type = DataError):
    """Parse the whole UTF-8 JSON file at ``path``; raise ``error`` naming it if it is neither."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{path}: malformed {what}: not valid JSON ({exc})") from exc


def read_lines(path: str | Path, what: str) -> Iterator[str]:
    """Stream the lines of the UTF-8 text file at ``path``; raise ``DataError`` naming it if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:  # the position counts from the decoded chunk, not the file
            raise DataError(f"{path}: malformed {what}: not UTF-8 text ({exc.reason})") from exc


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` as indented UTF-8 JSON with a trailing newline; ``str`` stands in for other types.
    The text is encoded before the file is opened, so text that UTF-8 cannot hold leaves no file."""
    data = (json.dumps(obj, ensure_ascii=False, indent=2, default=str) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)


_dumps = functools.partial(json.dumps, ensure_ascii=False, separators=(",", ":"))


def _holds_bytes(value) -> bool:
    if isinstance(value, bytes):
        return True
    return isinstance(value, dict) and any(map(_holds_bytes, value.values()))


def _json_pieces(value, out: list) -> list:
    """Append the UTF-8 compact JSON of ``value`` to ``out`` in pieces and return ``out``.

    Only a dict with a ``bytes`` value somewhere below it is split, item by
    item; every value without ``bytes`` below it is one ``_dumps`` call.  A
    ``bytes`` value goes between quotes unchanged, so it must be text that
    JSON never escapes, such as base64.
    """
    if isinstance(value, bytes):
        out += (b'"', value, b'"')
    elif not _holds_bytes(value):
        out.append(_dumps(value).encode())
    else:
        sep = b"{"
        for key, val in value.items():  # a dict of one item, less its braces, converts a key as json does
            if _holds_bytes(val):
                out += (sep, _dumps({key: 0})[1:-2].encode())  # '"key":'
                _json_pieces(val, out)
            else:
                out += (sep, _dumps({key: val})[1:-1].encode())
            sep = b","
        out.append(b"}")
    return out


def write_jsonl(rows, path: str | Path) -> None:
    """Write each of ``rows`` as the ``_dumps`` line it gives, in UTF-8, but with each ``bytes`` value
    as the JSON string of its ASCII text (``_json_pieces``); a first row that fails leaves no file."""
    # map frees a row that ``rows`` builds once it is encoded
    lines = map(lambda row: _json_pieces(row, []), rows)
    first = list(itertools.islice(lines, 1))  # encoded before the file is opened
    with open(path, "wb") as fh:
        for pieces in itertools.chain(first, lines):
            fh.writelines(pieces)
            fh.write(b"\n")


def _csv_cell(val):
    if val is None:
        return ""
    return repr(float(val)) if isinstance(val, float) else val  # float(): np.float64's own repr names its type


def write_csv(header: list[str], rows, path: str | Path) -> None:
    """Write ``header`` and then each of ``rows`` as UTF-8 CSV with the ``csv`` module's default dialect;
    a ``None`` cell is written blank and a float (numpy's too) as the ``repr`` of the Python float."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_csv_cell, row) for row in rows)


def is_int(val) -> bool:
    # bool is an int subclass; reject it where an int is required
    return isinstance(val, int) and not isinstance(val, bool)


def is_number(val) -> bool:
    """A JSON number that converts to float64 without overflow (NaN and Inf included)."""
    if is_int(val):  # JSON integers are unbounded
        return abs(val) <= sys.float_info.max
    return isinstance(val, float)


def is_finite_number(val) -> bool:
    return is_number(val) and math.isfinite(val)


def check_fields(obj: dict, rules: dict, prefix: str = "", error: type = DataError) -> None:
    """Raise ``error`` naming the first field of ``obj`` that is missing or breaks its rule.

    A rule is either a nested dict of rules or a ``(predicate, description)`` pair.
    """
    for key, rule in rules.items():
        name = prefix + key
        if key not in obj:
            raise error(f"missing field {name}")
        if isinstance(rule, dict):
            if not isinstance(obj[key], dict):
                raise error(f"field {name} must be an object")
            check_fields(obj[key], rule, name + ".", error)
        elif not rule[0](obj[key]):
            raise error(f"field {name} must be {rule[1]}")


def config_from_json(cfg, obj, rules: dict, what: str):
    """A copy of the dataclass ``cfg``, frozen or not, with each field of ``obj`` replaced once every
    field is listed in ``rules`` and passes its ``(predicate, description)`` rule."""
    if not isinstance(obj, dict):
        raise DataError(f"{what} must be a JSON object")
    for key, val in obj.items():
        if key not in rules:
            raise DataError(f"unknown {what} field {key!r}")
        valid, expected = rules[key]
        if not valid(val):
            raise DataError(f"{what} field {key!r} must be {expected}, got {val!r}")
    return dataclasses.replace(cfg, **obj)
