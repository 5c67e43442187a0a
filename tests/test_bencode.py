import warnings

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


def test_truncated_string():
    with pytest.raises(BencodeError):
        bdecode(b"10:short")


def test_unsorted_dict_keys_warn_by_default():
    raw = b"d4:spam4:eggs3:cow3:mooe"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = bdecode(raw)
    assert value == {b"spam": b"eggs", b"cow": b"moo"}
    assert any("out of order" in str(w.message) for w in caught)
    with pytest.raises(BencodeError):
        bdecode(raw, on_unsorted="error")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bdecode(raw, on_unsorted="ignore")
    assert not caught


def test_duplicate_key_counts_as_unsorted():
    with pytest.raises(BencodeError):
        bdecode(b"d3:cow3:moo3:cow3:buze", on_unsorted="error")


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
@given(st.binary(max_size=40))
def test_decode_junk_raises_bencode_error_only(data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            bdecode(data)
        except BencodeError as err:
            assert 0 <= err.offset <= len(data)
