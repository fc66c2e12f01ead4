"""Deterministic text formats shared across the package.

All floating point output goes through ``fmt_float`` (9 significant digits,
locale independent), so reports, CSV tables and OBJ files are byte identical
across repeated runs with the same inputs.  The key/value config grammar is:

    # comment or blank line
    key = value

with one pair per line.  Values are scalars, comma separated lists, or comma
separated coordinate pairs in parentheses, e.g. ``probes = (0.5, 0.5), (1, 1.5)``.
Parsers reject unknown keys and report the offending line number.
"""

from __future__ import annotations

import re


class ConfigError(Exception):
    """Malformed config text; carries file name and line number."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = str(path)
            if line is not None:
                loc += f":{line}"
            loc += ": "
        super().__init__(loc + message)
        self.path = path
        self.line = line


def fmt_float(x):
    """Format a float with 9 significant digits, no locale surprises."""
    return "%.9g" % float(x)


def parse_kv_text(text, path=None):
    """Parse ``key = value`` lines into a list of (key, raw_value, line_no)."""
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", path, lineno)
        items.append((key, value, lineno))
    return items


def parse_kv_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_text(fh.read(), path=str(path))


def parse_float_list(value, path=None, line=None):
    parts = [p for p in re.split(r"[,\s]+", value.strip()) if p]
    out = []
    for p in parts:
        try:
            out.append(float(p))
        except ValueError:
            raise ConfigError(f"not a number: {p!r}", path, line) from None
    return out


def parse_point_list(value, path=None, line=None):
    """Parse ``(x, y), (x, y), ...`` into a list of coordinate pairs."""
    pairs = re.findall(r"\(([^)]*)\)", value)
    if not pairs and value.strip():
        raise ConfigError("expected points like (x, y)", path, line)
    out = []
    for body in pairs:
        nums = parse_float_list(body, path, line)
        if len(nums) != 2:
            raise ConfigError(f"point needs two coordinates, got {len(nums)}", path, line)
        out.append((nums[0], nums[1]))
    return out


def emit_json(obj, indent=0):
    """Serialize nested dict/list/scalar data with fixed float formatting.

    Dict keys keep insertion order (callers build reports deterministically),
    floats render via fmt_float, so output bytes are stable.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            rows.append(f'{pad}  "{k}": {emit_json(v, indent + 1)}')
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat and len(seq) <= 8:
            return "[" + ", ".join(emit_json(v) for v in seq) + "]"
        rows = [f"{pad}  {emit_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_json(obj) + "\n")


def write_csv(path, header, rows):
    """Write rows of scalars; floats formatted via fmt_float."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, float):
                    cells.append(fmt_float(cell))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells) + "\n")


def write_obj(path, vertices, faces):
    """Write a triangle mesh as Wavefront OBJ (1-based face indices).

    Vertex order follows the array order, which the mesh builders document
    as deterministic; floats use the fixed 9 significant digit format.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for v in vertices:
            fh.write("v " + " ".join(fmt_float(c) for c in v) + "\n")
        for f in faces:
            fh.write("f %d %d %d\n" % (f[0] + 1, f[1] + 1, f[2] + 1))
