"""The one-pass wire codec against the recursive codec it replaced.

``wire_reference`` keeps the former ``encode``/``decode`` verbatim.  Over
generated messages of all five value types, :func:`repro.wire.encode` must
produce the reference's bytes and :func:`repro.wire.decode` must give the
message back, ``bool`` kept apart from ``int``.  Every truncation, trailing
byte and type-code flip of an encoding must meet the same fate in both
decoders: the same ``WireError`` text, or equal messages.
"""

import enum
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire

from . import wire_reference as reference

U64_MAX = 2**64 - 1
NESTING_ERROR = f"WireError: lists nested deeper than {wire.MAX_NESTING}"

scalars = st.one_of(
    st.binary(max_size=24),
    st.integers(min_value=-U64_MAX, max_value=U64_MAX),
    st.text(max_size=12),
    st.booleans(),
)


class Code(enum.IntEnum):
    ZERO = 0
    NEGATIVE = -7
    LARGE = 2**40


class Label(str):
    pass


subclassed = st.one_of(
    st.binary(max_size=24).map(bytearray),
    st.sampled_from(Code),
    st.text(max_size=12).map(Label),
)


def messages(leaves):
    """Messages of up to 5 fields; ``max_leaves=10`` nests lists at most 4
    deep, within the format's bound."""
    values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=10)
    return st.dictionaries(st.text(max_size=6), values, max_size=5)


def typed(value):
    """``value`` with every scalar paired with its type, so that ``True`` and
    ``1``, equal in Python, compare unequal."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    return (type(value), value)


def nesting(value) -> int:
    if isinstance(value, dict):
        return max(map(nesting, value.values()), default=0)
    if isinstance(value, list):
        return 1 + max(map(nesting, value), default=0)
    return 0


def outcome(decode, data: bytes):
    try:
        return typed(decode(data))
    except wire.WireError as exc:
        return f"WireError: {exc}"


def type_code_offsets(data: bytes) -> list[int]:
    """Where each value's type code sits in ``data``, as the reference
    decoder finds them."""
    offsets = []
    decode_value = reference._decode_value

    def recording(data, offset):
        offsets.append(offset)
        return decode_value(data, offset)

    with mock.patch.object(reference, "_decode_value", recording):
        reference.decode(data)
    return offsets


def mutations(data: bytes, trailing: int):
    yield from (data[:cut] for cut in range(len(data)))
    yield data + bytes([trailing])
    for offset in type_code_offsets(data):
        for code in (0, 1, 2, 3, 4, 5, 255):
            if code != data[offset]:
                yield data[:offset] + bytes([code]) + data[offset + 1 :]


class TestAgainstReference:
    @given(message=messages(scalars))
    @settings(max_examples=200, deadline=None)
    def test_encode_is_byte_identical(self, message):
        assert wire.encode(message) == reference.encode(message)

    @given(message=messages(scalars))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_keeps_every_type(self, message):
        assert typed(wire.decode(wire.encode(message))) == typed(message)

    @given(message=messages(st.one_of(scalars, subclassed)))
    @settings(max_examples=100, deadline=None)
    def test_bytearray_intenum_and_str_subclass_encode_as_before(self, message):
        assert wire.encode(message) == reference.encode(message)

    @given(message=messages(scalars), trailing=st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_mutated_encodings_meet_the_same_fate(self, message, trailing):
        for data in mutations(reference.encode(message), trailing):
            new, old = outcome(wire.decode, data), outcome(reference.decode, data)
            if new == NESTING_ERROR:
                # The one new refusal: the reference fails too, or returns
                # lists nested deeper than the bound.
                assert isinstance(old, str) or nesting(old) > wire.MAX_NESTING
            else:
                assert new == old
