"""Raw TDEA (triple DES) block operations and message padding.

Everything here works on plain ``bytes``; key objects and role policy live
one layer up in :mod:`dukptlab.key_hierarchy`. Keys are double-length
(16 bytes) unless noted. An 8-byte key runs single DES through the EDE
construction with three equal subkeys, which is the identical permutation.
Every cipher is built by :func:`_cipher`; CBC always uses the zero IV.

A :class:`TdeaCipher` is a loaded key: it builds each cipher context it
needs once and keeps it for every later message. Only long-lived keys are
loaded: the fixed-key scheme's permanent key and the Master/Session KEK,
each by its holder in :mod:`dukptlab.baseline` and once more by the host
side of a simulation run. The module-level functions are one-shot uses of
a fresh ``TdeaCipher``, so a per-transaction key's contexts end with the
call. A kept CBC context chains on from the last ciphertext block it
handled; that block is XORed into the next message's first plaintext block
(encrypt) or first output block (decrypt), so every message still starts
from the zero IV and encrypts exactly as a one-shot call would. A context
is only ever fed whole blocks. A loaded key has a single owner and is not
thread-safe: two threads sharing one would interleave its chaining state.

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
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _cipher(key: bytes, mode: modes.Mode) -> Cipher:
    return Cipher(TripleDES(key), mode)


class TdeaCipher:
    """One TDEA key, loaded: each context is built on first use, then kept.

    The repr is the default object repr, so it shows no key material.
    """

    # slots keep a one-shot use cheap; _enc_prev and _dec_prev hold the last
    # ciphertext a CBC context handled, set from its first message on
    __slots__ = ("_key", "_ecb_enc", "_ecb_dec", "_cbc_enc", "_cbc_dec", "_enc_prev", "_dec_prev")

    def __init__(self, key: bytes):
        # always hand a full 24-byte bundle to the backend
        if len(key) == 16:
            key = key + key[:8]
        elif len(key) == 8:
            key = key * 3
        elif len(key) != 24:
            raise LengthError(f"TDEA key must be 8, 16 or 24 bytes, got {len(key)}")
        self._key = key
        self._ecb_enc = self._ecb_dec = self._cbc_enc = self._cbc_dec = None

    def ecb_encrypt(self, data: bytes) -> bytes:
        """TDEA-ECB over a whole-block payload (used for key wrapping)."""
        if not data or len(data) % BLOCK_SIZE:
            raise LengthError("ECB payload must be a positive multiple of 8 bytes")
        enc = self._ecb_enc
        if enc is None:
            enc = self._ecb_enc = _cipher(self._key, _ECB).encryptor()
        return enc.update(data)

    def ecb_decrypt(self, data: bytes) -> bytes:
        if not data or len(data) % BLOCK_SIZE:
            raise LengthError("ECB payload must be a positive multiple of 8 bytes")
        dec = self._ecb_dec
        if dec is None:
            dec = self._ecb_dec = _cipher(self._key, _ECB).decryptor()
        return dec.update(data)

    def cbc_encrypt(self, plaintext: bytes) -> bytes:
        """TDEA-CBC with mandatory marker padding applied first."""
        if not plaintext:
            raise EmptyPlaintext("refusing to encrypt an empty payload")
        data = pad(plaintext)
        enc = self._cbc_enc
        if enc is None:
            enc = self._cbc_enc = _cipher(self._key, _CBC).encryptor()
        else:
            # the context chains from its last output block: cancel it
            data = xor_bytes(data[:BLOCK_SIZE], self._enc_prev[-BLOCK_SIZE:]) + data[BLOCK_SIZE:]
        self._enc_prev = out = enc.update(data)
        return out

    def cbc_decrypt(self, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`cbc_encrypt`; padding violations raise DecryptFailed."""
        if not ciphertext or len(ciphertext) % BLOCK_SIZE:
            raise DecryptFailed("ciphertext must be a positive multiple of 8 bytes")
        dec = self._cbc_dec
        if dec is None:
            dec = self._cbc_dec = _cipher(self._key, _CBC).decryptor()
            data = dec.update(ciphertext)
        else:
            # the context chains from the last block it was fed: cancel it
            data = dec.update(ciphertext)
            data = xor_bytes(data[:BLOCK_SIZE], self._dec_prev[-BLOCK_SIZE:]) + data[BLOCK_SIZE:]
        # the context has taken this ciphertext whether or not its padding holds
        self._dec_prev = ciphertext
        # strip the marker padding: trailing zeros, then 0x80, all within the last block
        body = data.rstrip(b"\x00")
        if not body or body[-1] != 0x80 or len(data) - len(body) >= BLOCK_SIZE:
            raise DecryptFailed("padding marker missing or malformed")
        return body[:-1]


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """TDEA-ECB of a single 8-byte block; an 8-byte key means single DES."""
    if len(block) != BLOCK_SIZE:
        raise LengthError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return TdeaCipher(key).ecb_encrypt(block)


def ecb_encrypt(key: bytes, data: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.ecb_encrypt`."""
    return TdeaCipher(key).ecb_encrypt(data)


def ecb_decrypt(key: bytes, data: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.ecb_decrypt`."""
    return TdeaCipher(key).ecb_decrypt(data)


def pad(data: bytes) -> bytes:
    """Append the 0x80 marker and zero-fill to a block boundary."""
    padded = data + b"\x80"
    short = len(padded) % BLOCK_SIZE
    if short:
        padded += bytes(BLOCK_SIZE - short)
    return padded


def cbc_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.cbc_encrypt`."""
    return TdeaCipher(key).cbc_encrypt(plaintext)


def cbc_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.cbc_decrypt`."""
    return TdeaCipher(key).cbc_decrypt(ciphertext)
