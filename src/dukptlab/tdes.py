"""Raw TDEA (triple DES) block operations and message padding.

Everything here works on plain ``bytes``; key objects and role policy live
one layer up in :mod:`dukptlab.key_hierarchy`. Keys are double-length
(16 bytes) unless noted. An 8-byte key runs single DES through the EDE
construction with three equal subkeys, which is the identical permutation.
Every cipher is built by :func:`_cipher`; CBC always uses the zero IV.

Padding is the 0x80-marker scheme: append one 0x80 byte, then 0x00 bytes up
to the next 8-byte boundary. It is mandatory, so every ciphertext decrypts
to a checkable shape.
"""

from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
from cryptography.hazmat.primitives.ciphers import Cipher, modes

from .errors import DecryptFailed, EmptyPlaintext, LengthError

BLOCK_SIZE = 8
_ECB = modes.ECB()
_CBC = modes.CBC(bytes(BLOCK_SIZE))  # the zero IV


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise LengthError(f"xor operands differ in length: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


def _cipher(key: bytes, mode: modes.Mode) -> Cipher:
    # always hand a full 24-byte bundle to the backend
    if len(key) == 16:
        key = key + key[:8]
    elif len(key) == 8:
        key = key * 3
    elif len(key) != 24:
        raise LengthError(f"TDEA key must be 8, 16 or 24 bytes, got {len(key)}")
    return Cipher(TripleDES(key), mode)


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """TDEA-ECB of a single 8-byte block; an 8-byte key means single DES."""
    if len(block) != BLOCK_SIZE:
        raise LengthError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return ecb_encrypt(key, block)


def ecb_encrypt(key: bytes, data: bytes) -> bytes:
    """TDEA-ECB over a whole-block payload (used for key wrapping)."""
    if not data or len(data) % BLOCK_SIZE:
        raise LengthError("ECB payload must be a positive multiple of 8 bytes")
    enc = _cipher(key, _ECB).encryptor()
    return enc.update(data) + enc.finalize()


def ecb_decrypt(key: bytes, data: bytes) -> bytes:
    if not data or len(data) % BLOCK_SIZE:
        raise LengthError("ECB payload must be a positive multiple of 8 bytes")
    dec = _cipher(key, _ECB).decryptor()
    return dec.update(data) + dec.finalize()


def pad(data: bytes) -> bytes:
    """Append the 0x80 marker and zero-fill to a block boundary."""
    padded = data + b"\x80"
    short = len(padded) % BLOCK_SIZE
    if short:
        padded += bytes(BLOCK_SIZE - short)
    return padded


def unpad(data: bytes) -> bytes:
    """Strip marker padding; raise :class:`DecryptFailed` if it is absent."""
    if not data or len(data) % BLOCK_SIZE:
        raise DecryptFailed("padded data must be a positive multiple of 8 bytes")
    i = len(data)
    while i > 0 and data[i - 1] == 0x00:
        i -= 1
    if i == 0 or data[i - 1] != 0x80 or len(data) - i >= BLOCK_SIZE:
        raise DecryptFailed("padding marker missing or malformed")
    return data[: i - 1]


def cbc_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """TDEA-CBC with mandatory marker padding applied first."""
    if not plaintext:
        raise EmptyPlaintext("refusing to encrypt an empty payload")
    enc = _cipher(key, _CBC).encryptor()
    return enc.update(pad(plaintext)) + enc.finalize()


def cbc_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`cbc_encrypt`; padding violations raise DecryptFailed."""
    if not ciphertext or len(ciphertext) % BLOCK_SIZE:
        raise DecryptFailed("ciphertext must be a positive multiple of 8 bytes")
    dec = _cipher(key, _CBC).decryptor()
    return unpad(dec.update(ciphertext) + dec.finalize())
