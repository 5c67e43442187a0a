import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2ptrack.btswarm.bencode import (MAX_DEPTH, BencodeError, bdecode,
                                      bencode)


def test_dict_encodes_with_sorted_keys():
    assert bencode({"cow": "moo", "spam": "eggs"}) == \
        b"d3:cow3:moo4:spam4:eggse"
    assert bencode({"spam": "eggs", "cow": "moo"}) == \
        b"d3:cow3:moo4:spam4:eggse"


def test_int_roundtrip():
    assert bencode(42) == b"i42e"
    assert bdecode(b"i42e") == 42
    assert bdecode(bencode(-7)) == -7
    assert bdecode(bencode(0)) == 0


def test_truncated_dict_reports_offset():
    with pytest.raises(BencodeError) as err:
        bdecode(b"d3:cow")
    assert err.value.offset == 6


def test_nesting_depth_is_limited():
    deepest = b"l" * MAX_DEPTH + b"e" * MAX_DEPTH
    assert bencode(bdecode(deepest)) == deepest
    # the error names the first container past the limit
    for too_deep, offset in (
            (b"l" * (MAX_DEPTH + 1) + b"e" * (MAX_DEPTH + 1), MAX_DEPTH),
            (b"d1:a" * (MAX_DEPTH + 1), 4 * MAX_DEPTH),
            (b"l" * 5000, MAX_DEPTH)):
        with pytest.raises(BencodeError, match="nested") as err:
            bdecode(too_deep)
        assert err.value.offset == offset


def test_trailing_bytes_rejected():
    with pytest.raises(BencodeError) as err:
        bdecode(b"i42eXYZ")
    assert err.value.offset == 4


def test_leading_zero_int_rejected():
    for bad in (b"i03e", b"i-0e", b"i00e", b"ie", b"i-e", b"i1x2e"):
        with pytest.raises(BencodeError):
            bdecode(bad)
    assert bdecode(b"i0e") == 0


def test_leading_zero_length_rejected():
    with pytest.raises(BencodeError):
        bdecode(b"04:spam")
    assert bdecode(b"0:") == b""


def test_a_number_too_long_to_convert_is_a_bencode_error():
    # int() refuses more than sys.get_int_max_str_digits() digits; an
    # integer or a string length that long is the decoder's own error, at
    # the number's offset
    digits = b"1" * (sys.get_int_max_str_digits() + 1)
    for data, offset in ((b"i" + digits + b"e", 0),
                         (b"l" + digits + b":xe", 1)):
        with pytest.raises(BencodeError) as err:
            bdecode(data)
        assert err.value.offset == offset


def test_truncated_string():
    with pytest.raises(BencodeError):
        bdecode(b"10:short")


def test_unsorted_dict_keys_rejected():
    # the error names the offset of the first key out of order
    with pytest.raises(BencodeError, match="ascending") as err:
        bdecode(b"d4:spam4:eggs3:cow3:mooe")
    assert err.value.offset == 13
    with pytest.raises(BencodeError) as err:
        bdecode(b"ld1:bi1e1:ai2eee")
    assert err.value.offset == 8
    assert bdecode(b"d3:cow3:moo4:spam4:eggse") == {b"cow": b"moo",
                                                  b"spam": b"eggs"}


def test_duplicate_key_counts_as_unsorted():
    with pytest.raises(BencodeError, match="ascending") as err:
        bdecode(b"d3:cow3:moo3:cow3:buze")
    assert err.value.offset == 11


def test_non_bytes_dict_key_rejected():
    with pytest.raises(BencodeError):
        bdecode(b"di1e3:mooe")


def test_unencodable_types():
    with pytest.raises(TypeError):
        bencode(1.5)
    with pytest.raises(TypeError):
        bencode(True)
    with pytest.raises(TypeError):
        bencode({1: "x"})


def test_str_encodes_as_utf8_bytes():
    assert bencode("héllo") == bencode("héllo".encode("utf-8"))


bvalues = st.recursive(
    st.integers(min_value=-2**63, max_value=2**63) | st.binary(max_size=24),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.binary(max_size=8), children, max_size=5),
    max_leaves=25)


@st.composite
def bencoded(draw, depth=0):
    """Bencoded bytes whose dicts list their keys in any order, duplicates
    included: the wire as a peer might send it."""
    kind = draw(st.integers(0, 3 if depth < 3 else 1))
    if kind == 0:
        return bencode(draw(st.integers(-2**63, 2**63)))
    if kind == 1:
        return bencode(draw(st.binary(max_size=8)))
    if kind == 2:
        items = draw(st.lists(bencoded(depth + 1), max_size=4))
        return b"l" + b"".join(items) + b"e"
    pairs = draw(st.lists(st.tuples(st.binary(max_size=3),
                                    bencoded(depth + 1)), max_size=4))
    return b"d" + b"".join(bencode(k) + v for k, v in pairs) + b"e"


@settings(max_examples=200, deadline=None)
@given(bvalues)
def test_roundtrip_value_identity(value):
    assert bdecode(bencode(value)) == value


@settings(max_examples=200, deadline=None)
@given(bvalues)
def test_roundtrip_canonical_bytes_identity(value):
    encoded = bencode(value)
    assert bencode(bdecode(encoded)) == encoded


@settings(max_examples=300, deadline=None)
@given(bencoded())
def test_accepted_input_reencodes_to_itself(data):
    # strict decoding: whatever is accepted is canonical, so nothing a
    # peer sends is silently reordered or deduplicated
    try:
        value = bdecode(data)
    except BencodeError:
        return
    assert bencode(value) == data


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40))
def test_decode_junk_raises_bencode_error_only(data):
    try:
        bdecode(data)
    except BencodeError as err:
        assert 0 <= err.offset <= len(data)
