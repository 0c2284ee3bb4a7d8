"""The TLV wire format: round-trips, determinism, malformed inputs."""

import pytest

from repro import wire


def nested(depth: int) -> list:
    """``depth`` lists, each the only item of the one around it."""
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def nested_message(depth: int) -> bytes:
    """The encoding of ``{"k": nested(depth)}``, built by hand so that it can
    nest deeper than :func:`wire.encode` accepts."""
    lists = (b"\x04" + (1).to_bytes(4, "big")) * (depth - 1) + b"\x04" + bytes(4)
    return b"RPR1" + (1).to_bytes(2, "big") + (1).to_bytes(2, "big") + b"k" + lists


class TestRoundTrips:
    @pytest.mark.parametrize(
        "message",
        [
            {},
            {"a": b"bytes"},
            {"n": 42},
            {"n": -42},
            {"n": 0},
            {"big": 2**63 - 1},
            {"max": 2**64 - 1, "min": -(2**64 - 1)},
            {"s": "unicode ✓"},
            {"flag": True},
            {"flag": False},
            {"list": [1, 2, 3]},
            {"nested": [[b"x"], ["y", True], []]},
            {"mixed": [b"b", 1, "s", False, [2]]},
            {"a": b"", "b": "", "c": 0, "d": []},
        ],
    )
    def test_roundtrip(self, message):
        assert wire.decode(wire.encode(message)) == message

    def test_bool_not_confused_with_int(self):
        decoded = wire.decode(wire.encode({"t": True, "one": 1}))
        assert decoded["t"] is True
        assert decoded["one"] == 1 and decoded["one"] is not True

    def test_deterministic_key_order(self):
        assert wire.encode({"a": 1, "b": 2}) == wire.encode({"b": 2, "a": 1})

    def test_large_bytes(self):
        blob = bytes(range(256)) * 400
        assert wire.decode(wire.encode({"blob": blob}))["blob"] == blob


class TestMalformed:
    def test_bad_magic(self):
        with pytest.raises(wire.WireError):
            wire.decode(b"XXXX\x00\x00")

    def test_empty(self):
        with pytest.raises(wire.WireError):
            wire.decode(b"")

    def test_truncated(self):
        encoded = wire.encode({"key": b"value"})
        with pytest.raises(wire.WireError):
            wire.decode(encoded[:-3])

    def test_trailing_bytes(self):
        encoded = wire.encode({"key": b"value"})
        with pytest.raises(wire.WireError):
            wire.decode(encoded + b"extra")

    def test_unknown_tag(self):
        encoded = bytearray(wire.encode({"k": True}))
        # flip the type tag byte of the value
        encoded[-2] = 99
        with pytest.raises(wire.WireError):
            wire.decode(bytes(encoded))

    def test_unsupported_type(self):
        with pytest.raises(wire.WireError):
            wire.encode({"f": 1.5})

    def test_unsupported_nested_type(self):
        with pytest.raises(wire.WireError):
            wire.encode({"l": [1, {"nested": "dict"}]})

    @pytest.mark.parametrize("value", [2**64, -(2**64), 2**80])
    def test_int_beyond_u64_magnitude(self, value):
        with pytest.raises(wire.WireError, match="int magnitude"):
            wire.encode({"n": value})

    def test_key_longer_than_u16(self):
        """The bound is on the key's UTF-8 bytes, not its characters."""
        for key in ("k" * 65_536, "é" * 32_768):
            with pytest.raises(wire.WireError, match="key of 65536 bytes"):
                wire.encode({key: 1})
        longest = "k" * 65_535
        assert wire.decode(wire.encode({longest: 1})) == {longest: 1}

    def test_more_fields_than_u16(self):
        with pytest.raises(wire.WireError, match="too many fields"):
            wire.encode({str(i): i for i in range(65_536)})
        most = {str(i): i for i in range(65_535)}
        assert wire.decode(wire.encode(most)) == most

    def test_encode_refuses_nesting_beyond_the_bound(self):
        deepest = {"k": nested(wire.MAX_NESTING)}
        assert wire.encode(deepest) == nested_message(wire.MAX_NESTING)
        assert wire.decode(wire.encode(deepest)) == deepest
        with pytest.raises(wire.WireError, match="nested deeper"):
            wire.encode({"k": nested(wire.MAX_NESTING + 1)})

    def test_decode_refuses_nesting_beyond_the_bound(self):
        """Also far past the bound, where a decoder recursing per value would
        exhaust the interpreter's recursion limit."""
        for depth in (wire.MAX_NESTING + 1, 5_000):
            with pytest.raises(wire.WireError, match="nested deeper"):
                wire.decode(nested_message(depth))
