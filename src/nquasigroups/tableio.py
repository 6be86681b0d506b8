"""Table files: JSON (to_json_obj, from_json_obj, to_json, from_json)
and the k-line text form of binary tables (to_text, from_text).

Tables of order <= 10 are written in one byte pass (_json_bytes), and
compact JSON of single digits is read by offsets (from_json), so json
loads only on their fallbacks.  Out of core so that the commands that
read or write no table, every census among them, compile none of it;
core still answers to from_json, to_json and to_json_obj, loading this
module on first use, for the benchmark harness that reads them there.
"""

import re

from .core import _FROM_DIGITS, QTable, StructuralError, from_rows


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
_COMPACT_HEAD = (r'[ \t\n\r]*\{"arity":(0|[1-9][0-9]*),'
                 r'"order":(0|[1-9][0-9]*),"values":\[')


def _json_bytes(t, separators=(",", ":"), end=b"\n"):
    """json.dumps(to_json_obj(t), separators=separators), encoded, + end.

    Below order 11 it is built in one bytearray, allocated once: a digit
    and the item separator once per value, with room for the head in
    front and "]}" + end behind.  The surplus front is dropped in O(1),
    and the head, the digits (the symbols translated, by one extended
    slice) and "]}" + end, over the last separator, are written in.
    """
    item, key = separators
    if t.order > 10:
        import json

        return json.dumps(to_json_obj(t),
                          separators=separators).encode() + end
    head = ('{"arity"%s%d%s"order"%s%d%s"values"%s[' % (
        key, t.arity, item, key, t.order, item, key)).encode()
    tail = b"]}" + end
    unit = b"0" + item.encode()
    room = len(head) + len(tail)
    out = bytearray(unit) * (len(t.values) + 2 * room)
    del out[:room * len(unit) - len(head)]
    out[:len(head)] = head
    stop = len(head) + len(t.values) * len(unit)
    out[len(head):stop:len(unit)] = t.values.obj.translate(_TO_DIGITS)
    out[stop + 1 - len(unit):] = tail
    return out


def to_json(t, separators=(", ", ": ")):
    """json.dumps(to_json_obj(t), separators=separators) (_json_bytes)."""
    return _json_bytes(t, separators, b"").decode()


def from_json(s):
    """Table from its JSON text.

    The compact form {"arity":N,"order":K,"values":[d,d,...]} of single
    digits, with whitespace only around it, is read by offsets into s,
    without copying it: the values are the even positions of the list's
    body, up to its closing "]}".  Once every one of them is a digit, the
    commas can stand only at the odd positions, one fewer than the
    digits, so a comma count of len(digits) - 1 puts one at each.  Other
    texts take json.loads and from_json_obj, with the same outcome.
    """
    head = isinstance(s, str) and s.isascii() and re.match(_COMPACT_HEAD, s)
    if head:
        lo, hi = head.end(), len(s)
        # trailing whitespace, found from the end; the head ends in "["
        while s[hi - 1] in " \t\n\r":
            hi -= 1
        digits = s[lo:hi - 2:2].encode()
        if (s.endswith("]}", lo, hi) and (hi - lo) % 2 and digits.isdigit()
                and s.count(",", lo, hi) == len(digits) - 1):
            return QTable(int(head[1]), int(head[2]),
                          digits.translate(_FROM_DIGITS))
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
