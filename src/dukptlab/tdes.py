"""Raw TDEA (triple DES) block operations and message padding.

Everything here works on plain ``bytes``; key objects and role policy live
one layer up in :mod:`dukptlab.key_hierarchy`. Keys are double-length
(16 bytes) unless noted. An 8-byte key runs single DES through the EDE
construction with three equal subkeys, which is the identical permutation.
Every cipher context is built by :func:`_cipher`; CBC always uses the zero IV.
It bundles the key and calls the backend factory (``create_encryption_ctx`` or
``create_decryption_ctx`` of ``cryptography.hazmat.bindings._rust.openssl.ciphers``)
that ``Cipher(...).encryptor()`` and ``.decryptor()`` end in, skipping their two
lookups through cryptography's deprecation-wrapped ``modes`` module: about two
thirds of a build, which every per-transaction key pays per use. The ``TripleDES``
it hands the factory is made without its constructor, whose checks repeat
``_bundle``'s and the factory's (which refuses any key but a 24-byte buffer): only
``key``, the one attribute the constructor leaves, is set. The factory and that
constructor state are private detail, verified on cryptography 48.0.0 (the declared
floor); importing this module checks both and raises ``ImportError`` naming the
installed version if either differs.

A one-shot over one block builds zero-IV CBC, which on one block is ECB both ways
(NIST SP 800-38A) and costs the factory three ABC ``isinstance`` checks to ECB's six;
multi-block ECB stays ECB, as undoing CBC's chaining would cost an ``update`` a block.

A :class:`TdeaCipher` is a loaded key: it builds each cipher context it
needs once and keeps it for every later message. Only long-lived keys are
loaded: the fixed-key scheme's permanent key and the Master/Session KEK, each
by its holder in :mod:`dukptlab.baseline` and once more by a simulation run's
host side, and a BDK, in its two IPEK keys, by the host for each key set it
serves (:func:`~dukptlab.key_hierarchy.load_bdk`, which ``derive_ipek`` shares).
The one-shots build a context on the same key bundle and drop it,
so a per-transaction key's contexts end with the call. The kept CBC encryption
context chains on from the last ciphertext block it produced; one int XOR puts that
block into the next message's first plaintext block, so every message still starts
from the zero IV and encrypts exactly as a one-shot call would. A context is only
ever fed whole blocks. CBC decryption under a loaded key keeps no chaining state: it
runs the kept ECB decryption context and XORs the result, as one int, with the
ciphertext shifted right by one block. A loaded key still has a single owner: two
threads encrypting CBC under one key would interleave its chaining state.

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
if vars(TripleDES(bytes(24))) != {"key": bytes(24)}:  # all the state _cipher sets
    raise ImportError("dukptlab.tdes needs a TripleDES constructor that sets only .key (verified"
                      f" on cryptography 48.0.0); cryptography {cryptography.__version__} sets more")

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
    algorithm = TripleDES.__new__(TripleDES)  # no constructor: see the module docstring
    algorithm.key = _bundle(key)
    if encrypt:
        return _create_encryption_ctx(algorithm, mode)
    return _create_decryption_ctx(algorithm, mode)


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
        return (self._ecb_dec or self._load_ecb_dec()).update(data)

    def _load_ecb_dec(self) -> CipherContext:
        self._ecb_dec = _cipher(self._key, _ECB, False)
        return self._ecb_dec

    def cbc_encrypt(self, plaintext: bytes) -> bytes:
        """TDEA-CBC with mandatory marker padding applied first."""
        data = pad(plaintext)
        enc = self._cbc_enc
        if enc is None:
            enc = self._cbc_enc = _cipher(self._key, _CBC, True)
        else:
            # the context chains from its last output block: XOR it into the first block
            prev = int.from_bytes(self._enc_prev[-BLOCK_SIZE:], "big") << 8 * len(data) - 64
            data = (int.from_bytes(data, "big") ^ prev).to_bytes(len(data), "big")
        self._enc_prev = out = enc.update(data)
        return out

    def cbc_decrypt(self, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`cbc_encrypt`; padding violations raise DecryptFailed."""
        _whole_blocks(ciphertext, DecryptFailed, "ciphertext")
        # CBC on the kept ECB context: XOR the ciphertext one block right (the zero IV first)
        data = (self._ecb_dec or self._load_ecb_dec()).update(ciphertext)
        chained = int.from_bytes(data, "big") ^ int.from_bytes(ciphertext, "big") >> 64
        return _unpadded(chained.to_bytes(len(ciphertext), "big"))


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
    return _cipher(key, _CBC, True).update(block)


def ecb_encrypt(key: bytes, data: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.ecb_encrypt`; one block runs as zero-IV CBC."""
    _whole_blocks(data, LengthError, "ECB payload")
    return _cipher(key, _CBC if len(data) == BLOCK_SIZE else _ECB, True).update(data)


def ecb_decrypt(key: bytes, data: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.ecb_decrypt`; one block runs as zero-IV CBC."""
    _whole_blocks(data, LengthError, "ECB payload")
    return _cipher(key, _CBC if len(data) == BLOCK_SIZE else _ECB, False).update(data)


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
    return _cipher(key, _CBC, True).update(data)


def cbc_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """One-shot :meth:`TdeaCipher.cbc_decrypt`."""
    _whole_blocks(ciphertext, DecryptFailed, "ciphertext")
    return _unpadded(_cipher(key, _CBC, False).update(ciphertext))
