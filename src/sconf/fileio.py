"""Atomic file writes, the package's only CSV writer (write_csv), the
key=value text format of setup files, training configs and their --set items
('#' starts a comment, blank lines are skipped), and the number lists of CLI
flags and config values."""

import contextlib
import csv
import io
import os
import re

import numpy as np

from .errors import ConfigError


def write_atomic(path, data):
    """Write str (as UTF-8) or bytes to path through a temp file and a rename;
    if the write or the rename fails, the temp file is removed."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write header and rows as CSV through write_atomic; a float is written
    as repr(float(v)), so it reads back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    write_atomic(path, buf.getvalue())


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def parse_key_values(text, keys, source):
    """{key: (line number, value)} for the key=value lines of text.

    A line without '=', a key outside keys, or a repeated key raises
    ConfigError naming source:line.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = (lineno, val.strip())
    return values


def parse_list(text, cast, name):
    """The values of a list separated by commas or whitespace, each cast; an
    empty item or a value that cast rejects raises ConfigError naming name."""
    try:
        return [cast(v) for v in re.split(r"\s*,\s*|\s+", text.strip())]
    except ValueError:
        raise ConfigError(f"{name} expects a list of numbers separated by commas or spaces, "
                          f"got {text!r}") from None
