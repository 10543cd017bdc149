"""Atomic file writes, and the key=value text format of setup files and
training configs ('#' starts a comment, blank lines are skipped)."""

import os

from .errors import ConfigError


def write_atomic(path, data):
    """Write str (as UTF-8) or bytes to path through a temp file and a rename."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


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
