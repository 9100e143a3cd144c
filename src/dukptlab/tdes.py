"""Raw TDEA (triple DES) block operations and message padding.

Everything here works on plain ``bytes``; key objects and role policy live
one layer up in :mod:`dukptlab.key_hierarchy`. Keys are double-length
(16 bytes) unless noted. An 8-byte key runs single DES through the EDE
construction with three equal subkeys, which is the identical permutation.
Every cipher context is built by :func:`_cipher`; CBC always uses the zero IV.
It calls the backend factory (``create_encryption_ctx`` or
``create_decryption_ctx`` of ``cryptography.hazmat.bindings._rust.openssl.ciphers``)
that ``Cipher(...).encryptor()`` and ``.decryptor()`` end in, skipping their two
lookups through cryptography's deprecation-wrapped ``modes`` module: about two
thirds of a build, which every per-transaction key pays per use. The factory is
private API, verified on cryptography 48.0.0 (the declared floor); without it,
importing this module raises ``ImportError`` naming the installed version.

A one-shot over one block builds zero-IV CBC, which on one block is ECB both ways
(NIST SP 800-38A) and costs the factory three ABC ``isinstance`` checks to ECB's six;
multi-block ECB stays ECB, as undoing CBC's chaining would cost an ``update`` a block.

A :class:`TdeaCipher` is a loaded key: it builds each cipher context it
needs once and keeps it for every later message. Only long-lived keys are
loaded: the fixed-key scheme's permanent key and the Master/Session KEK, each
by its holder in :mod:`dukptlab.baseline` and once more by a simulation run's
host side. The one-shots build a context on the same key bundle and drop it,
so a per-transaction key's contexts end with the call. The kept CBC encryption
context chains on from the last ciphertext block it produced; that block is
XORed into the next message's first plaintext block, so every message still starts
from the zero IV and encrypts exactly as a one-shot call would. A context is only
ever fed whole blocks. CBC decryption under a loaded key keeps no chaining state: it
runs the kept ECB decryption context and XORs each block with the ciphertext block
before it. A loaded key still has a single owner: two threads encrypting CBC under
one key would interleave its chaining state.

Padding is the 0x80-marker scheme: append one 0x80 byte, then 0x00 bytes up
to the next 8-byte boundary. It is mandatory, so every ciphertext decrypts
to a checkable shape.
"""

import cryptography
from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
from cryptography.hazmat.primitives.ciphers import CipherContext, modes

from .errors import DecryptFailed, EmptyPlaintext, LengthError

try:
    from cryptography.hazmat.bindings._rust import openssl as _openssl

    _create_encryption_ctx = _openssl.ciphers.create_encryption_ctx
    _create_decryption_ctx = _openssl.ciphers.create_decryption_ctx
except (ImportError, AttributeError) as exc:
    raise ImportError(
        "dukptlab.tdes needs cryptography.hazmat.bindings._rust.openssl.ciphers"
        ".create_encryption_ctx and .create_decryption_ctx (verified on cryptography"
        f" 48.0.0); the installed cryptography {cryptography.__version__} lacks them"
    ) from exc

BLOCK_SIZE = 8
_ECB = modes.ECB()
_CBC = modes.CBC(bytes(BLOCK_SIZE))  # the zero IV


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise LengthError(f"xor operands differ in length: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _bundle(key: bytes) -> bytes:
    """The 24-byte bundle the backend is always handed: K1K2 -> K1K2K1, K -> KKK."""
    if len(key) not in (8, 16, 24):
        raise LengthError(f"TDEA key must be 8, 16 or 24 bytes, got {len(key)}")
    return (key * 3)[:24]


def _cipher(key: bytes, mode: modes.Mode, encrypt: bool) -> CipherContext:
    if encrypt:
        return _create_encryption_ctx(TripleDES(key), mode)
    return _create_decryption_ctx(TripleDES(key), mode)


class TdeaCipher:
    """One TDEA key, loaded: each context is built on first use, then kept.

    The repr is the default object repr, so it shows no key material.
    """

    # _enc_prev: the last ciphertext the CBC context produced, set on first use
    __slots__ = ("_key", "_ecb_enc", "_ecb_dec", "_cbc_enc", "_enc_prev")

    def __init__(self, key: bytes):
        self._key = _bundle(key)
        self._ecb_enc = self._ecb_dec = self._cbc_enc = None

    def ecb_encrypt(self, data: bytes) -> bytes:
        """TDEA-ECB over a whole-block payload (used for key wrapping)."""
        _whole_blocks(data, LengthError, "ECB payload")
        enc = self._ecb_enc
        if enc is None:
            enc = self._ecb_enc = _cipher(self._key, _ECB, True)
        return enc.update(data)

    def ecb_decrypt(self, data: bytes) -> bytes:
        _whole_blocks(data, LengthError, "ECB payload")
        dec = self._ecb_dec
        if dec is None:
            dec = self._ecb_dec = _cipher(self._key, _ECB, False)
        return dec.update(data)

    def cbc_encrypt(self, plaintext: bytes) -> bytes:
        """TDEA-CBC with mandatory marker padding applied first."""
        data = pad(plaintext)
        enc = self._cbc_enc
        if enc is None:
            enc = self._cbc_enc = _cipher(self._key, _CBC, True)
        else:
            # the context chains from its last output block: cancel it
            data = xor_bytes(data[:BLOCK_SIZE], self._enc_prev[-BLOCK_SIZE:]) + data[BLOCK_SIZE:]
        self._enc_prev = out = enc.update(data)
        return out

    def cbc_decrypt(self, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`cbc_encrypt`; padding violations raise DecryptFailed."""
        _whole_blocks(ciphertext, DecryptFailed, "ciphertext")
        # CBC on the kept ECB context: each block XORs the one before it, the first the zero IV
        data = self.ecb_decrypt(ciphertext)
        return _unpadded(xor_bytes(data, bytes(BLOCK_SIZE) + ciphertext[:-BLOCK_SIZE]))


def _whole_blocks(data: bytes, error: type[Exception], what: str) -> None:
    if not data or len(data) % BLOCK_SIZE:
        raise error(f"{what} must be a positive multiple of 8 bytes")


def _unpadded(data: bytes) -> bytes:
    # strip the marker padding: trailing zeros, then 0x80, all within the last block
    body = data.rstrip(b"\x00")
    if not body or body[-1] != 0x80 or len(data) - len(body) >= BLOCK_SIZE:
        raise DecryptFailed("padding marker missing or malformed")
    return body[:-1]


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """TDEA-ECB of a single 8-byte block (run as zero-IV CBC); an 8-byte key means single DES."""
    if len(block) != BLOCK_SIZE:
        raise LengthError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return _cipher(_bundle(key), _CBC, True).update(block)


def ecb_encrypt(key: bytes, data: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.ecb_encrypt`; one block runs as zero-IV CBC."""
    _whole_blocks(data, LengthError, "ECB payload")
    return _cipher(_bundle(key), _CBC if len(data) == BLOCK_SIZE else _ECB, True).update(data)


def ecb_decrypt(key: bytes, data: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.ecb_decrypt`; one block runs as zero-IV CBC."""
    _whole_blocks(data, LengthError, "ECB payload")
    return _cipher(_bundle(key), _CBC if len(data) == BLOCK_SIZE else _ECB, False).update(data)


def pad(data: bytes) -> bytes:
    """Append the 0x80 marker and zero-fill to a block boundary; refuse an empty payload."""
    if not data:
        raise EmptyPlaintext("refusing to encrypt an empty payload")
    padded = data + b"\x80"
    short = len(padded) % BLOCK_SIZE
    if short:
        padded += bytes(BLOCK_SIZE - short)
    return padded


def cbc_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.cbc_encrypt`."""
    data = pad(plaintext)
    return _cipher(_bundle(key), _CBC, True).update(data)


def cbc_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.cbc_decrypt`."""
    _whole_blocks(ciphertext, DecryptFailed, "ciphertext")
    return _unpadded(_cipher(_bundle(key), _CBC, False).update(ciphertext))
