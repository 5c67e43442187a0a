"""Strict canonical bencoding.

Encode accepts ints, bytes, str (encoded utf-8), lists and dicts whose
keys are str/bytes; dict keys are emitted in ascending byte order.
Decode is strict: it rejects trailing bytes, leading-zero integers and
lengths, and reports the byte offset of any malformed input, including
lists and dicts nested deeper than MAX_DEPTH.  Dict keys must be in
strictly ascending byte order (BEP 3), so an unsorted or duplicate key is
an error too, and every accepted input re-encodes to the same bytes.
"""

from __future__ import annotations

MAX_DEPTH = 256


class BencodeError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def _key_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    raise TypeError(f"dict keys must be str or bytes, got {type(key).__name__}")


def bencode(value) -> bytes:
    out = []
    _encode(value, out)
    return b"".join(out)


def _encode(value, out: list) -> None:
    if isinstance(value, bool):
        raise TypeError("bool is not bencodable")
    if isinstance(value, int):
        out.append(b"i%de" % value)
    elif isinstance(value, bytes):
        out.append(b"%d:" % len(value))
        out.append(value)
    elif isinstance(value, str):
        _encode(value.encode("utf-8"), out)
    elif isinstance(value, list):
        out.append(b"l")
        for item in value:
            _encode(item, out)
        out.append(b"e")
    elif isinstance(value, dict):
        out.append(b"d")
        for key in sorted(value, key=_key_bytes):
            _encode(_key_bytes(key), out)
            _encode(value[key], out)
        out.append(b"e")
    else:
        raise TypeError(f"cannot bencode {type(value).__name__}")


def bdecode(data: bytes):
    """Decode a complete bencoded value; trailing bytes are an error."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("bdecode expects bytes")
    value, end = _decode(bytes(data), 0, 0)
    if end != len(data):
        raise BencodeError("trailing bytes after value", end)
    return value


def _decode(data: bytes, i: int, depth: int):
    if i >= len(data):
        raise BencodeError("unexpected end of input", i)
    ch = data[i:i + 1]
    if ch == b"i":
        return _decode_int(data, i)
    if ch in b"ld" and depth == MAX_DEPTH:
        raise BencodeError(f"nested deeper than {MAX_DEPTH}", i)
    if ch == b"l":
        i += 1
        items = []
        while data[i:i + 1] != b"e":
            if i >= len(data):
                raise BencodeError("unterminated list", i)
            item, i = _decode(data, i, depth + 1)
            items.append(item)
        return items, i + 1
    if ch == b"d":
        i += 1
        result: dict = {}
        prev_key = None
        while data[i:i + 1] != b"e":
            if i >= len(data):
                raise BencodeError("unterminated dict", i)
            key_off = i
            key, i = _decode(data, i, depth + 1)
            if not isinstance(key, bytes):
                raise BencodeError("dict key is not a byte string", key_off)
            if prev_key is not None and key <= prev_key:
                raise BencodeError("dict keys not in ascending order",
                                   key_off)
            prev_key = key
            value, i = _decode(data, i, depth + 1)
            result[key] = value
        return result, i + 1
    if ch.isdigit():
        return _decode_bytes(data, i)
    raise BencodeError(f"unexpected byte {ch!r}", i)


def _decode_int(data: bytes, i: int):
    end = data.find(b"e", i + 1)
    if end < 0:
        raise BencodeError("unterminated integer", len(data))
    body = data[i + 1:end]
    if not body or body == b"-":
        raise BencodeError("empty integer", i)
    digits = body[1:] if body[:1] == b"-" else body
    if not digits.isdigit():
        raise BencodeError(f"bad integer {body!r}", i)
    if digits != b"0" and digits[:1] == b"0":
        raise BencodeError("leading zero in integer", i)
    if body == b"-0":
        raise BencodeError("negative zero", i)
    return _int(body, i), end + 1


def _int(text: bytes, i: int) -> int:
    """int(text), or a BencodeError at offset i past int()'s digit limit."""
    try:
        return int(text)
    except ValueError:
        raise BencodeError("number too long", i) from None


def _decode_bytes(data: bytes, i: int):
    colon = data.find(b":", i)
    if colon < 0:
        raise BencodeError("unterminated string length", len(data))
    length_digits = data[i:colon]
    if not length_digits.isdigit():
        raise BencodeError(f"bad string length {length_digits!r}", i)
    if length_digits != b"0" and length_digits[:1] == b"0":
        raise BencodeError("leading zero in string length", i)
    length = _int(length_digits, i)
    start = colon + 1
    end = start + length
    if end > len(data):
        raise BencodeError("truncated string", len(data))
    return data[start:end], end
