"""Diffie-Hellman, Schnorr signatures, and the simulated EPID scheme."""

from dataclasses import replace

import pytest

from repro.crypto import schnorr
from repro.crypto.dh import (
    MODP_2048_P,
    DiffieHellman,
    decode_public,
    encode_public,
)
from repro.crypto.epid import EpidGroup
from repro.errors import CryptoError
from repro.sim.rng import DeterministicRng


class TestDiffieHellman:
    def test_agreement(self, rng):
        dh = DiffieHellman()
        alice = dh.generate_keypair(rng.child("alice"))
        bob = dh.generate_keypair(rng.child("bob"))
        assert dh.shared_secret(alice.private, bob.public) == dh.shared_secret(
            bob.private, alice.public
        )

    def test_deterministic_under_seed(self):
        dh = DiffieHellman()
        a1 = dh.generate_keypair(DeterministicRng(7, "x"))
        a2 = dh.generate_keypair(DeterministicRng(7, "x"))
        assert a1.public == a2.public

    @pytest.mark.parametrize("bad", [0, 1, MODP_2048_P - 1, MODP_2048_P, MODP_2048_P + 5])
    def test_rejects_degenerate_publics(self, bad, rng):
        dh = DiffieHellman()
        keypair = dh.generate_keypair(rng.child("k"))
        with pytest.raises(CryptoError):
            dh.shared_secret(keypair.private, bad)

    def test_session_key_binds_transcript(self, rng):
        dh = DiffieHellman()
        alice = dh.generate_keypair(rng.child("a"))
        bob = dh.generate_keypair(rng.child("b"))
        key1 = dh.derive_session_key(alice.private, bob.public, b"transcript-1")
        key2 = dh.derive_session_key(alice.private, bob.public, b"transcript-2")
        assert key1 != key2
        assert len(key1) == 16

    def test_public_encoding_roundtrip(self, rng):
        keypair = DiffieHellman().generate_keypair(rng.child("e"))
        assert decode_public(encode_public(keypair.public)) == keypair.public

    def test_decode_rejects_bad_length(self):
        with pytest.raises(CryptoError):
            decode_public(b"\x00" * 100)


class TestSchnorr:
    def test_sign_verify(self, rng):
        keypair = schnorr.generate_keypair(rng.child("s"))
        signature = schnorr.sign(keypair.private, b"message")
        assert schnorr.verify(keypair.public, b"message", signature)

    def test_wrong_message_rejected(self, rng):
        keypair = schnorr.generate_keypair(rng.child("s"))
        signature = schnorr.sign(keypair.private, b"message")
        # The genuine check memoizes its product; the rejection must not
        # ride on it.
        assert schnorr.verify(keypair.public, b"message", signature)
        assert not schnorr.verify(keypair.public, b"other", signature)

    def test_wrong_key_rejected(self, rng):
        keypair = schnorr.generate_keypair(rng.child("s"))
        other = schnorr.generate_keypair(rng.child("t"))
        signature = schnorr.sign(keypair.private, b"message")
        assert schnorr.verify(keypair.public, b"message", signature)
        assert not schnorr.verify(other.public, b"message", signature)

    def test_deterministic_signatures(self, rng):
        keypair = schnorr.generate_keypair(rng.child("s"))
        assert schnorr.sign(keypair.private, b"m") == schnorr.sign(keypair.private, b"m")

    def test_serialization_roundtrip(self, rng):
        keypair = schnorr.generate_keypair(rng.child("s"))
        signature = schnorr.sign(keypair.private, b"m")
        restored = schnorr.SchnorrSignature.from_bytes(signature.to_bytes())
        assert restored == signature
        assert schnorr.verify(keypair.public, b"m", restored)

    def test_serialization_rejects_bad_length(self):
        with pytest.raises(CryptoError):
            schnorr.SchnorrSignature.from_bytes(b"\x00" * 10)

    def test_tampered_signature_rejected(self, rng):
        # Verification raises g to the shorter of s and q - s.  A 320-bit key
        # puts x*e above the 320-bit nonce, so s = k - x*e wraps mod q and
        # q - s is the short side; a 24-bit key leaves s itself short.
        for private, wrapped in (
            (schnorr.generate_keypair(rng.child("s")).private, True),
            (0xC0FFEE, False),
        ):
            public = schnorr.public_key_of(private)
            signature = schnorr.sign(private, b"m")
            assert (schnorr._Q - signature.response < signature.response) == wrapped
            assert schnorr.verify(public, b"m", signature)
            for tampered in (
                replace(signature, challenge=signature.challenge ^ 1),
                replace(signature, response=signature.response ^ 1),
            ):
                assert not schnorr.verify(public, b"m", tampered)

    def test_degenerate_public_rejected(self, rng):
        keypair = schnorr.generate_keypair(rng.child("s"))
        signature = schnorr.sign(keypair.private, b"m")
        assert not schnorr.verify(1, b"m", signature)


class TestEpid:
    def test_member_signature_verifies(self, rng):
        group = EpidGroup(rng.child("g"))
        member = group.join()
        signature = member.sign(b"quote-payload", b"basename")
        assert group.verify(b"quote-payload", signature)

    def test_wrong_message_rejected(self, rng):
        group = EpidGroup(rng.child("g"))
        member = group.join()
        signature = member.sign(b"quote-payload", b"basename")
        assert not group.verify(b"other-payload", signature)

    def test_anonymity_same_basename_distinct_members(self, rng):
        group = EpidGroup(rng.child("g"))
        m1, m2 = group.join(), group.join()
        s1, s2 = m1.sign(b"m", b"bn"), m2.sign(b"m", b"bn")
        # Different members are unlinkable: distinct pseudonyms, but both
        # verify as "a genuine group member".
        assert s1.pseudonym != s2.pseudonym
        assert group.verify(b"m", s1) and group.verify(b"m", s2)

    def test_linkability_same_member_same_basename(self, rng):
        group = EpidGroup(rng.child("g"))
        member = group.join()
        assert member.sign(b"a", b"bn").pseudonym == member.sign(b"b", b"bn").pseudonym

    def test_unlinkability_across_basenames(self, rng):
        group = EpidGroup(rng.child("g"))
        member = group.join()
        assert member.sign(b"a", b"bn1").pseudonym != member.sign(b"a", b"bn2").pseudonym

    def test_revocation(self, rng):
        group = EpidGroup(rng.child("g"))
        m1, m2 = group.join(), group.join()
        group.revoke(m1)
        assert not group.verify(b"m", m1.sign(b"m", b"bn"))
        assert group.verify(b"m", m2.sign(b"m", b"bn"))

    def test_revocation_idempotent(self, rng):
        group = EpidGroup(rng.child("g"))
        member = group.join()
        group.revoke(member)
        group.revoke(member)
        assert not group.verify(b"m", member.sign(b"m", b"bn"))

    def test_foreign_group_rejected(self, rng):
        group_a = EpidGroup(rng.child("ga"))
        group_b = EpidGroup(rng.child("gb"))
        member = group_a.join()
        assert not group_b.verify(b"m", member.sign(b"m", b"bn"))
