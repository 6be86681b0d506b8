"""Table files: JSON (to_json_obj, from_json_obj, to_json, from_json)
and the k-line text form of binary tables (to_text, from_text).

Tables of order <= 10 are written in pieces (_json_bytes), and compact
JSON of single digits is read from bytes by offsets (_compact), in a
reader's own buffer in place (_table), so json loads only on their
fallbacks.  Out of core so that the commands that read or write no
table, every census among them, compile none of it; core still answers
to from_json, to_json and to_json_obj, loading this module on first
use, for the benchmark harness that reads them there.
"""

import re

from .core import _FROM_DIGITS, _SLICE, QTable, StructuralError, from_rows


def to_json_obj(t):
    return {"arity": t.arity, "order": t.order, "values": t.values.tolist()}


def from_json_obj(obj):
    """Table from its JSON object.

    arity, order and every value must be JSON integers, not floats or
    booleans; anything else, and whatever the QTable constructor refuses,
    raises StructuralError.
    """
    if not isinstance(obj, dict):
        raise StructuralError("table JSON must be an object")
    try:
        arity, order, values = obj["arity"], obj["order"], obj["values"]
    except KeyError as e:
        raise StructuralError("table JSON misses field %s" % e)
    if type(arity) is not int or type(order) is not int:
        raise StructuralError("arity and order must be integers")
    if not isinstance(values, list):
        raise StructuralError("values must be a list")
    if not set(map(type, values)) <= {int}:
        raise StructuralError("values must be integers")
    return QTable(arity, order, values)


# symbol d as its digit; core._FROM_DIGITS maps back
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# the compact form's head, up to the first value
_COMPACT_HEAD = (rb'[ \t\n\r]*\{"arity":(0|[1-9][0-9]*),'
                 rb'"order":(0|[1-9][0-9]*),"values":\[')
_PIECE = 1 << 16  # cells per piece of _json_bytes


def _json_bytes(t, separators=(",", ":"), end=b"\n"):
    """json.dumps(to_json_obj(t), separators=separators), encoded, + end,
    in pieces: below order 11 the head, then per _PIECE cells a digit (by
    one translate and extended slice) and the item separator per cell,
    "]}" + end over the last one; past order 10 one piece of json.dumps."""
    item, key = separators
    if t.order > 10:
        import json

        yield json.dumps(to_json_obj(t), separators=separators).encode() + end
        return
    yield ('{"arity"%s%d%s"order"%s%d%s"values"%s[' % (
        key, t.arity, item, key, t.order, item, key)).encode()
    unit = b"0" + item.encode()
    for lo in range(0, len(t.values), _PIECE):
        digits = t.values.obj[lo:lo + _PIECE].translate(_TO_DIGITS)
        out = bytearray(unit) * len(digits)
        out[::len(unit)] = digits
        if lo + _PIECE >= len(t.values):
            out[len(out) + 1 - len(unit):] = b"]}" + end
        yield out


def to_json(t, separators=(", ", ": ")):
    """json.dumps(to_json_obj(t), separators=separators) (_json_bytes)."""
    return b"".join(_json_bytes(t, separators, b"")).decode()


def _compact(data):
    """(arity, order, lo, count) of the compact form {"arity":N,"order":K,
    "values":[d,d,...]}, single digits and whitespace only around it, in
    data, bytes or a bytearray, read by offsets; else None.  The list's
    body is count digits data[lo:lo + 2 * count:2], a comma between each
    two, and "]}"; they are read _SLICE digits at a time, so nothing
    table-sized is made."""
    head = isinstance(data, (bytes, bytearray)) and re.match(
        _COMPACT_HEAD, data)
    if head:
        lo, hi = head.end(), len(data)
        # trailing whitespace, found from the end; the head ends in "["
        while data[hi - 1] in b" \t\n\r":
            hi -= 1
        if not (data.endswith(b"]}", lo, hi) and (hi - lo) % 2):
            return None
        commas = b"," * _SLICE
        for j in range(lo, hi - 2, 2 * _SLICE):
            sep = data[j + 1:min(j + 2 * _SLICE, hi - 3):2]
            if not (data[j:min(j + 2 * _SLICE, hi - 2):2].isdigit()
                    and sep == commas[:len(sep)]):
                return None
        return int(head[1]), int(head[2]), lo, (hi - lo - 1) // 2
    return None


def _table(buf, arity, order, lo, count):
    """The table of the digits _compact found in buf, a reader's own
    bytearray, which this consumes: buf is compacted in place, _SLICE
    symbols at a time (each written below the digits still to be read),
    and cut to them, so the read holds no second copy of the digits."""
    for i in range(0, count, _SLICE):
        cells = buf[lo + 2 * i:lo + 2 * min(i + _SLICE, count):2]
        buf[i:i + len(cells)] = cells.translate(_FROM_DIGITS)
    del buf[count:]
    return QTable(arity, order, buf)


def from_json(s):
    """Table from its JSON text, a str or bytes: the compact form by
    _compact (an ASCII str encoded first), any other text by json.loads
    and from_json_obj, with the same outcome."""
    data = s.encode() if isinstance(s, str) and s.isascii() else s
    found = _compact(data)
    if found:
        arity, order, lo, count = found
        digits = data[lo:lo + 2 * count:2]
        del data  # an encoded str is not held while the digits translate
        return QTable(arity, order, digits.translate(_FROM_DIGITS))
    import json

    try:
        return from_json_obj(json.loads(s))
    except (json.JSONDecodeError, RecursionError) as e:
        raise StructuralError("bad table JSON: %s" % e)


def to_text(t):
    """k lines of k space-separated integers; binary tables only."""
    if t.arity != 2:
        raise StructuralError("text format covers binary tables only")
    return "\n".join(" ".join(map(str, row)) for row in t.rows()) + "\n"


def from_text(s):
    lines = [ln for ln in s.splitlines() if ln.strip()]
    k = len(lines)
    if not k:
        raise StructuralError("empty text table")
    rows = []
    for ln in lines:
        try:
            row = list(map(int, ln.split()))
        except ValueError:
            raise StructuralError("non-integer entry in text table")
        if len(row) != k:
            raise StructuralError(
                "text table is not square: %d lines, row of %d" % (k, len(row)))
        rows.append(row)
    return from_rows(rows)
