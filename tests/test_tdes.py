"""Raw TDEA primitives: known answers, key forms, modes, padding and errors."""

import importlib.util

import cryptography
import pytest
from cryptography.hazmat.bindings._rust import openssl as _openssl
from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
from cryptography.hazmat.primitives.ciphers import Cipher, modes
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

_keys = st.sampled_from([8, 16, 24]).flatmap(lambda n: st.binary(min_size=n, max_size=n))
_whole_blocks = st.integers(1, 4).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n))
_messages = st.lists(st.one_of(
    st.tuples(st.sampled_from(["ecb_encrypt", "ecb_decrypt"]), _whole_blocks),
    st.tuples(st.sampled_from(["cbc_encrypt", "cbc_decrypt"]), st.binary(min_size=1, max_size=40)),
), max_size=8)


@settings(max_examples=60, deadline=None)
@given(key=_keys, before=_messages, after=_messages)
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


# --- the backend factory ------------------------------------------------------

@pytest.mark.filterwarnings("ignore::cryptography.utils.CryptographyDeprecationWarning")  # 8/16-byte keys
@settings(max_examples=100, deadline=None)
@given(key=_keys, data=_whole_blocks, cbc=st.booleans())
def test_factory_matches_public_cipher(key, data, cbc):
    # the public Cipher path is the oracle for the private factory _cipher calls
    mode = modes.CBC(bytes(8)) if cbc else modes.ECB()
    public = Cipher(TripleDES(key), mode)
    assert tdes._cipher(key, mode, True).update(data) == public.encryptor().update(data)
    assert tdes._cipher(key, mode, False).update(data) == public.decryptor().update(data)


# --- one-block one-shots -------------------------------------------------------

_many_blocks = st.integers(2, 21).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n))


@pytest.mark.filterwarnings("ignore::cryptography.utils.CryptographyDeprecationWarning")  # 8/16-byte keys
@settings(max_examples=100, deadline=None)
@given(key=_keys, block=st.binary(min_size=8, max_size=8), data=_many_blocks)
def test_one_shots_match_public_ecb(key, block, data):
    # one block runs as zero-IV CBC and more as ECB: both must be ECB to the public Cipher
    public = Cipher(TripleDES(key), modes.ECB())
    assert tdes.encrypt_block(key, block) == public.encryptor().update(block)
    for payload in (block, data):
        assert tdes.ecb_encrypt(key, payload) == public.encryptor().update(payload)
        assert tdes.ecb_decrypt(key, payload) == public.decryptor().update(payload)


def test_one_block_one_shots_build_zero_iv_cbc(monkeypatch):
    # the route itself, so a silent revert to ECB on one block shows: a one-shot
    # over one block builds zero-IV CBC, a longer one ECB, and a loaded key
    # ECB on any length, since it keeps the context for later messages
    built = []
    real_cipher = tdes._cipher

    def recording_cipher(key, mode, encrypt):
        built.append((mode.name, getattr(mode, "initialization_vector", None), encrypt))
        return real_cipher(key, mode, encrypt)

    monkeypatch.setattr(tdes, "_cipher", recording_cipher)
    tdes.encrypt_block(KEY16, bytes(8))
    tdes.ecb_encrypt(KEY16, bytes(8))
    tdes.ecb_decrypt(KEY16, bytes(8))
    tdes.ecb_encrypt(KEY16, bytes(16))
    tdes.ecb_decrypt(KEY16, bytes(168))
    loaded = tdes.TdeaCipher(KEY16)
    loaded.ecb_encrypt(bytes(8))
    loaded.ecb_decrypt(bytes(8))
    cbc, ecb = ("CBC", bytes(8)), ("ECB", None)
    assert built == [(*cbc, True), (*cbc, True), (*cbc, False), (*ecb, True), (*ecb, False),
                     (*ecb, True), (*ecb, False)]


def test_missing_factory_fails_at_import(monkeypatch):
    monkeypatch.delattr(_openssl, "ciphers")
    spec = importlib.util.spec_from_file_location("dukptlab._tdes_without_factory", tdes.__file__)
    with pytest.raises(ImportError, match=f"create_encryption_ctx.*{cryptography.__version__}"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
