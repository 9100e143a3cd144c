"""Raw TDEA primitives: known answers, key forms, modes, padding and errors."""

import importlib.util

import cryptography
import pytest
from cryptography.exceptions import UnsupportedAlgorithm
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


def _cbc_without_padding(plaintext):
    """Zero-IV CBC of whole blocks through the public Cipher, so any plaintext shape can
    be handed to the decrypt routes."""
    return Cipher(TripleDES(KEY16 + KEY16[:8]), modes.CBC(bytes(8))).encryptor().update(plaintext)


_BODIES = [lambda n: bytes(range(n)), lambda n: bytes(n), lambda n: b"\x80" * n]


@pytest.mark.parametrize("size", range(1, 25))
def test_cbc_decrypt_accepts_every_shape_pad_makes(size):
    # the marker and 0 to 7 zeros, after bodies that themselves end in zeros or markers
    for body in _BODIES:
        plaintext = body(size)
        ciphertext = _cbc_without_padding(tdes.pad(plaintext))
        assert tdes.cbc_decrypt(KEY16, ciphertext) == plaintext
        assert tdes.TdeaCipher(KEY16).cbc_decrypt(ciphertext) == plaintext


@pytest.mark.parametrize("size", range(0, 25))
def test_cbc_decrypt_refuses_a_marker_followed_by_a_whole_block_of_zeros(size):
    # pad puts 0 to 7 zeros after the marker; one more block of zeros makes 8 of them
    # (after a body of 7, 15 or 23 bytes) to 15, which neither decrypt route may take
    for body in _BODIES:
        ciphertext = _cbc_without_padding(body(size) + b"\x80" + bytes(-(size + 1) % 8 + 8))
        with pytest.raises(DecryptFailed):
            tdes.cbc_decrypt(KEY16, ciphertext)
        with pytest.raises(DecryptFailed):
            tdes.TdeaCipher(KEY16).cbc_decrypt(ciphertext)


# --- loaded keys --------------------------------------------------------------

_keys = st.sampled_from([8, 16, 24]).flatmap(lambda n: st.binary(min_size=n, max_size=n))
_whole_blocks = st.integers(1, 4).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n))
_messages = st.lists(st.one_of(
    st.tuples(st.sampled_from(["ecb_encrypt", "ecb_decrypt"]), _whole_blocks),
    st.tuples(st.sampled_from(["cbc_encrypt", "cbc_decrypt"]), st.binary(min_size=1, max_size=40)),
), max_size=8)


@settings(deadline=None)  # the example count is the profile's: CI's deep step runs 2,000
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


# --- the last two blocks decide the padding --------------------------------------

def _opened(decrypt, ciphertext):
    try:
        return decrypt(ciphertext)
    except DecryptFailed:
        return None


@settings(deadline=None)  # the example count is the profile's: CI's deep step runs 2,000
@given(key=_keys, payload=st.binary(min_size=1, max_size=80), at=st.integers(0, 10),
       block=st.binary(min_size=8, max_size=8),
       noise=st.integers(1, 12).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n)))
def test_the_last_two_blocks_decide_a_cbc_decrypt(key, payload, at, block, noise):
    # under the zero IV the last clear block is D_K(C_n) xor C_n-1, so a receiver that only
    # decides may decrypt C_n-1 || C_n: it must refuse exactly what the whole decrypt
    # refuses and, when both open, end in the same clear bytes of the last block
    sealed = tdes.cbc_encrypt(key, payload)
    at %= len(sealed) // 8
    tampered = sealed[: 8 * at] + block + sealed[8 * at + 8 :]
    for decrypt in (lambda ct: tdes.cbc_decrypt(key, ct), tdes.TdeaCipher(key).cbc_decrypt):
        for ciphertext in (sealed, tampered, noise):
            tail_ct = ciphertext[tdes.PADDING_BLOCKS]
            whole, tail = _opened(decrypt, ciphertext), _opened(decrypt, tail_ct)
            assert (whole is None) is (tail is None)
            if whole is not None:
                # the clear bytes of the last block: what is left past the blocks before it
                assert whole[len(ciphertext) - 8 :] == tail[len(tail_ct) - 8 :]
        assert decrypt(sealed) == payload


# --- the backend factory ------------------------------------------------------

@pytest.mark.filterwarnings("ignore::cryptography.utils.CryptographyDeprecationWarning")  # 8/16-byte keys
@settings(deadline=None)  # the example count is the profile's: CI's deep step runs 2,000
@given(key=_keys, data=_whole_blocks, cbc=st.booleans())
def test_factory_matches_public_cipher(key, data, cbc):
    # the public Cipher path is the oracle for the private factory _cipher calls
    mode = modes.CBC(bytes(8)) if cbc else modes.ECB()
    public = Cipher(TripleDES(key), mode)
    assert tdes._cipher(key, mode, True).update(data) == public.encryptor().update(data)
    assert tdes._cipher(key, mode, False).update(data) == public.decryptor().update(data)


@pytest.mark.filterwarnings("ignore::cryptography.utils.CryptographyDeprecationWarning")  # 8/16-byte keys
@settings(deadline=None)
@given(key=_keys, encrypt=st.booleans())
def test_cipher_algorithm_has_the_public_constructors_state(key, encrypt):
    # _cipher makes TripleDES without its constructor: what it hands the factory
    # must carry exactly the state TripleDES(key) leaves
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        for factory in ("_create_encryption_ctx", "_create_decryption_ctx"):
            patch.setattr(tdes, factory, lambda algorithm, mode: handed.append(algorithm))
        tdes._cipher(key, modes.ECB(), encrypt)
    algorithm, = handed
    assert type(algorithm) is TripleDES and vars(algorithm) == vars(TripleDES(key))


@pytest.mark.parametrize("key, error", [(bytes(8), UnsupportedAlgorithm),
                                        (bytes(16), UnsupportedAlgorithm),
                                        (bytes(20), UnsupportedAlgorithm),
                                        (bytes(32), UnsupportedAlgorithm),
                                        ("0" * 24, TypeError)])
def test_factory_refuses_any_key_but_a_24_byte_buffer(key, error):
    # the constructor's key checks no longer run on the build path: the factory
    # itself refuses any key but a 24-byte buffer, on both calls and in both modes
    algorithm = TripleDES.__new__(TripleDES)
    algorithm.key = key
    for factory in (_openssl.ciphers.create_encryption_ctx, _openssl.ciphers.create_decryption_ctx):
        for mode in (modes.ECB(), modes.CBC(bytes(8))):
            with pytest.raises(error):
                factory(algorithm, mode)


# --- one-block one-shots -------------------------------------------------------

_many_blocks = st.integers(2, 21).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n))


@pytest.mark.filterwarnings("ignore::cryptography.utils.CryptographyDeprecationWarning")  # 8/16-byte keys
@settings(deadline=None)  # the example count is the profile's, as above
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


def test_constructor_with_more_state_fails_at_import(monkeypatch):
    # _cipher sets only .key: a constructor that leaves more must stop the import
    real_init = TripleDES.__init__

    def init_with_more_state(self, key):
        real_init(self, key)
        self.mode_hint = None

    monkeypatch.setattr(TripleDES, "__init__", init_with_more_state)
    spec = importlib.util.spec_from_file_location("dukptlab._tdes_with_more_state", tdes.__file__)
    with pytest.raises(ImportError, match=f"TripleDES.*{cryptography.__version__}"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
