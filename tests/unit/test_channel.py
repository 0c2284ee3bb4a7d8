"""Secure channel records: ordering, replay, tampering, directionality."""

import pytest

from repro.attestation.channel import SecureChannel, channel_pair
from repro.errors import ChannelError


@pytest.fixture
def pair():
    return channel_pair(session_key=bytes(range(16)))


class TestBasics:
    def test_roundtrip(self, pair):
        initiator, responder = pair
        record = initiator.send(b"hello", b"hdr")
        assert responder.recv(record) == (b"hello", b"hdr")

    def test_both_directions(self, pair):
        initiator, responder = pair
        assert responder.recv(initiator.send(b"ping"))[0] == b"ping"
        assert initiator.recv(responder.send(b"pong"))[0] == b"pong"

    def test_many_messages_in_order(self, pair):
        initiator, responder = pair
        for index in range(20):
            payload = f"msg-{index}".encode()
            assert responder.recv(initiator.send(payload))[0] == payload

    def test_empty_payload(self, pair):
        initiator, responder = pair
        assert responder.recv(initiator.send(b""))[0] == b""

    def test_short_session_key_rejected(self):
        with pytest.raises(ChannelError):
            SecureChannel(session_key=b"short", initiator=True)


class TestAttacks:
    def test_replay_rejected(self, pair):
        initiator, responder = pair
        record = initiator.send(b"once")
        responder.recv(record)
        with pytest.raises(ChannelError):
            responder.recv(record)

    def test_reorder_rejected(self, pair):
        initiator, responder = pair
        first = initiator.send(b"first")
        second = initiator.send(b"second")
        with pytest.raises(ChannelError):
            responder.recv(second)
        # the in-order record still works after the failed attempt
        assert responder.recv(first)[0] == b"first"

    def test_tampered_ciphertext_rejected(self, pair):
        from repro import wire

        initiator, responder = pair
        record = wire.decode(initiator.send(b"payload"))
        record["ct"] = bytes([record["ct"][0] ^ 1]) + record["ct"][1:]
        with pytest.raises(ChannelError):
            responder.recv(wire.encode(record))

    def test_tampered_aad_rejected(self, pair):
        from repro import wire

        initiator, responder = pair
        record = wire.decode(initiator.send(b"payload", b"aad"))
        record["aad"] = b"bad"
        with pytest.raises(ChannelError):
            responder.recv(wire.encode(record))

    def test_reflection_rejected(self, pair):
        """A record cannot be reflected back to its own sender."""
        initiator, _ = pair
        record = initiator.send(b"to-responder")
        with pytest.raises(ChannelError):
            initiator.recv(record)

    def test_cross_session_rejected(self, pair):
        initiator, _ = pair
        _, other_responder = channel_pair(session_key=bytes(16))
        with pytest.raises(ChannelError):
            other_responder.recv(initiator.send(b"wrong session"))

    @pytest.mark.parametrize("aad", ["x", [b"aad"], 7], ids=["str", "list", "int"])
    def test_mistyped_aad_rejected_without_moving_the_sequence(self, pair, aad):
        from repro import wire

        initiator, responder = pair
        genuine = initiator.send(b"payload", b"aad")
        record = wire.decode(genuine)
        record["aad"] = aad
        with pytest.raises(ChannelError, match="malformed"):
            responder.recv(wire.encode(record))
        # the receive sequence is still 0: the genuine record is accepted
        assert responder.recv(genuine) == (b"payload", b"aad")

    def test_garbage_record_rejected(self, pair):
        _, responder = pair
        with pytest.raises(ChannelError):
            responder.recv(b"not a record")

    def test_closed_channel(self, pair):
        initiator, responder = pair
        initiator.close()
        with pytest.raises(ChannelError):
            initiator.send(b"after close")
