"""Predecessor schemes: fixed key and Master/Session."""

import dataclasses
import os
import random

import pytest

from dukptlab.baseline import (
    FixedKeyTerminal,
    MasterSessionContext,
    fixed_decrypt,
    fixed_encrypt,
    ms_unwrap_session,
    ms_wrap,
    ms_wrap_session,
)
from dukptlab.errors import DecryptFailed, EmptyPlaintext, LengthError
from dukptlab.key_hierarchy import KeyRole, TdeaKey, parse_ksn

KEY = TdeaKey.from_hex("0123456789ABCDEFFEDCBA9876543210", KeyRole.BASE_DERIVATION)
KEK = TdeaKey.from_hex("FEDCBA98765432100123456789ABCDEF", KeyRole.BASE_DERIVATION)
DEVICE = parse_ksn("00AA0000000000000000")


@pytest.fixture
def fixed_terminal():
    return FixedKeyTerminal(KEY, DEVICE)


def test_fixed_round_trip(fixed_terminal):
    for payload in (b"x", b"exactly8", b"a payload spanning several blocks!"):
        assert fixed_decrypt(KEY, fixed_encrypt(fixed_terminal, payload)) == payload


def test_fixed_key_reuse_is_observable(fixed_terminal):
    # the defining weakness: the same plaintext encrypts identically forever
    a = fixed_encrypt(fixed_terminal, b"AMT=4200")
    b = fixed_encrypt(fixed_terminal, b"AMT=4200")
    assert a == b


def test_per_transaction_keys_remove_the_reuse(terminal):
    a = terminal.build_message(data=b"AMT=4200").encrypted_data
    b = terminal.build_message(data=b"AMT=4200").encrypted_data
    assert a != b


def test_fixed_rejects_empty_payload(fixed_terminal):
    with pytest.raises(EmptyPlaintext):
        fixed_encrypt(fixed_terminal, b"")


def test_fixed_decrypt_flags_tampering(fixed_terminal):
    ct = bytearray(fixed_encrypt(fixed_terminal, b"AMT=4200"))
    ct[-1] ^= 0xFF  # breaks the padding marker in the final block
    with pytest.raises(DecryptFailed):
        fixed_decrypt(KEY, bytes(ct))


def test_ms_wrap_unwrap_identity():
    ctx = MasterSessionContext(KEK)
    assert ctx.random_source is os.urandom  # the default, the OS CSPRNG
    wrapped, session = ms_wrap_session(ctx)
    assert ms_unwrap_session(KEK, wrapped) == session
    wrapped, material = ms_wrap(ctx)
    assert len(wrapped) == len(material) == 16
    assert ms_unwrap_session(KEK, wrapped).material == material


def test_ms_wrapped_form_differs_from_clear():
    ctx = MasterSessionContext(KEK)
    wrapped, session = ms_wrap_session(ctx)
    assert wrapped != session.material


def test_ms_thousand_wraps_all_distinct():
    rng = random.Random(99)
    ctx = MasterSessionContext(KEK, random_source=rng.randbytes)
    sessions = set()
    wrappeds = set()
    for _ in range(1_000):
        wrapped, session = ms_wrap_session(ctx)
        sessions.add(session.material)
        wrappeds.add(wrapped)
    assert len(sessions) == 1_000
    assert len(wrappeds) == 1_000


def test_ms_wrong_kek_yields_wrong_session():
    rng = random.Random(7)
    ctx = MasterSessionContext(KEK, random_source=rng.randbytes)
    wrapped, session = ms_wrap_session(ctx)
    assert ms_unwrap_session(KEY, wrapped) != session


def test_ms_kek_never_in_outputs():
    rng = random.Random(5)
    ctx = MasterSessionContext(KEK, random_source=rng.randbytes)
    for _ in range(200):
        wrapped, session = ms_wrap_session(ctx)
        assert KEK.material not in wrapped
        assert KEK.material != session.material


def test_ms_wrap_session_is_ms_wrap_as_a_key_object():
    wrapped, material = ms_wrap(MasterSessionContext(KEK, random_source=random.Random(3).randbytes))
    assert (wrapped, TdeaKey(material, KeyRole.TRANSACTION)) == ms_wrap_session(
        MasterSessionContext(KEK, random_source=random.Random(3).randbytes))
    assert type(material) is bytes and ms_unwrap_session(KEK, wrapped).material == material


@pytest.mark.parametrize("wrap", [ms_wrap, ms_wrap_session])
@pytest.mark.parametrize("size", [15, 8, 24])  # the ECB wrap itself refuses only the first
def test_ms_wrap_refuses_a_random_source_of_the_wrong_length(wrap, size):
    ctx = MasterSessionContext(KEK, random_source=lambda n: bytes(size))
    with pytest.raises(LengthError):
        wrap(ctx)


def test_ms_unwrap_validates_length():
    with pytest.raises(LengthError):
        ms_unwrap_session(KEK, b"\x00" * 15)


def test_holders_load_their_key_out_of_sight(fixed_terminal):
    ctx = MasterSessionContext(KEK)
    for holder, name, key in ((fixed_terminal, "key", KEY), (ctx, "kek", KEK)):
        for text in (repr(holder), repr(holder.cipher)):
            assert key.hex not in text.upper() and repr(key.material)[2:-1] not in text
        # a reassigned key would leave the loaded one behind
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(holder, name, KEY if key is KEK else KEK)
