"""Raw TDEA primitives: known answers, key forms, modes, padding and errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dukptlab import tdes
from dukptlab.errors import DecryptFailed, EmptyPlaintext, LengthError

KEY16 = bytes.fromhex("0123456789ABCDEFFEDCBA9876543210")


def test_single_des_known_answer():
    # FIPS 81 appendix B: an 8-byte key runs single DES
    key = bytes.fromhex("0123456789ABCDEF")
    assert tdes.encrypt_block(key, b"Now is t").hex().upper() == "3FA40E8A984D4815"


def test_double_length_key_is_k1_k2_k1():
    block = b"\x11" * 8
    assert tdes.encrypt_block(KEY16, block) == tdes.encrypt_block(KEY16 + KEY16[:8], block)


def test_cbc_first_block_is_ecb_of_padded_block():
    plaintext = b"0123456789"
    assert tdes.cbc_encrypt(KEY16, plaintext)[:8] == tdes.ecb_encrypt(
        KEY16, tdes.pad(plaintext)[:8]
    )


def test_ecb_round_trip():
    data = bytes(range(24))
    assert tdes.ecb_decrypt(KEY16, tdes.ecb_encrypt(KEY16, data)) == data


@pytest.mark.parametrize("size", [1, 7, 8, 9, 31])
def test_cbc_round_trip(size):
    plaintext = bytes(range(size))
    ciphertext = tdes.cbc_encrypt(KEY16, plaintext)
    assert len(ciphertext) % 8 == 0 and len(ciphertext) > size
    assert tdes.cbc_decrypt(KEY16, ciphertext) == plaintext


def test_length_errors():
    with pytest.raises(LengthError):
        tdes.encrypt_block(KEY16, bytes(7))
    with pytest.raises(LengthError):
        tdes.encrypt_block(bytes(15), bytes(8))
    with pytest.raises(LengthError):
        tdes.ecb_encrypt(KEY16, bytes(12))
    with pytest.raises(LengthError):
        tdes.xor_bytes(bytes(8), bytes(7))


def test_empty_plaintext_refused():
    with pytest.raises(EmptyPlaintext):
        tdes.cbc_encrypt(KEY16, b"")


def test_decrypt_failures():
    # a whole block of zeros decrypts to garbage without the 0x80 marker
    bad_padding = tdes.ecb_encrypt(KEY16, bytes(8))
    with pytest.raises(DecryptFailed):
        tdes.cbc_decrypt(KEY16, bad_padding)
    with pytest.raises(DecryptFailed):
        tdes.cbc_decrypt(KEY16, bytes(12))


# --- loaded keys --------------------------------------------------------------

_whole_blocks = st.integers(1, 4).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n))
_messages = st.lists(st.one_of(
    st.tuples(st.sampled_from(["ecb_encrypt", "ecb_decrypt"]), _whole_blocks),
    st.tuples(st.sampled_from(["cbc_encrypt", "cbc_decrypt"]), st.binary(min_size=1, max_size=40)),
), max_size=8)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from([8, 16, 24]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
       before=_messages, after=_messages)
def test_loaded_key_matches_one_shot_calls(key, before, after):
    # kept CBC contexts chain across messages; each message must still start
    # from the zero IV, also after a ciphertext the loaded key refused
    loaded = tdes.TdeaCipher(key)

    def check(messages):
        for name, data in messages:
            if name == "cbc_decrypt":
                data = tdes.cbc_encrypt(key, data)
            assert getattr(loaded, name)(data) == getattr(tdes, name)(key, data)

    check(before)
    for refused in (bytes(12), tdes.ecb_encrypt(key, bytes(8))):  # wrong length, bad padding
        with pytest.raises(DecryptFailed):
            loaded.cbc_decrypt(refused)
    check(after + [("cbc_decrypt", b"last"), ("cbc_encrypt", b"last")])

