"""The two predecessor key-management schemes, for side-by-side comparison.

Fixed key: one permanent shared key per terminal. Simple, and visibly weak:
the cipher is deterministic, so equal payloads produce equal ciphertexts
across transactions — the exact property per-transaction derivation removes.

Master/Session: a pre-shared key-encrypting key (the "master") wraps a
randomly generated session key which travels in-band with each message.
Fresh keys per transaction, but at the cost of transporting wrapped key
material and of the KEK being a long-lived secret on both sides.

Both long-lived keys are loaded once, as a real terminal holds them: each frozen
holder's ``cipher``, a :class:`~dukptlab.tdes.TdeaCipher` of its key, is a cached
property (not a field, so out of repr and equality), and a transaction pays no key
setup for it. The host-side calls take a plain ``TdeaKey`` and are one-shot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import tdes
from .errors import LengthError
from .key_hierarchy import KeyRole, Ksn, TdeaKey


@dataclass(frozen=True)
class FixedKeyTerminal:
    """A terminal welded to one key for its whole service life."""

    key: TdeaKey
    terminal_id: Ksn

    @cached_property
    def cipher(self) -> tdes.TdeaCipher:
        return tdes.TdeaCipher(self.key.material)


def fixed_encrypt(terminal: FixedKeyTerminal, payload: bytes) -> bytes:
    """CBC under the permanent key; deterministic by construction."""
    return terminal.cipher.cbc_encrypt(payload)


def fixed_decrypt(key: TdeaKey, ciphertext: bytes) -> bytes:
    """Host-side inverse; padding violations raise DecryptFailed."""
    return tdes.cbc_decrypt(key.material, ciphertext)


@dataclass(frozen=True)
class MasterSessionContext:
    """Holder of the pre-shared KEK on the terminal side.

    ``random_source`` defaults to the OS CSPRNG, ``os.urandom`` (what
    ``secrets.token_bytes`` calls); simulations inject a
    seeded source so their reports are reproducible.
    """

    kek: TdeaKey
    random_source: Callable[[int], bytes] = os.urandom

    @cached_property
    def cipher(self) -> tdes.TdeaCipher:
        return tdes.TdeaCipher(self.kek.material)


def ms_wrap(ctx: MasterSessionContext) -> tuple[bytes, bytes]:
    """A fresh session key as (wrapped form, its 16 clear bytes); only the wrapped
    form, the key TDEA-ECB'd under the KEK, goes on the wire."""
    material = ctx.random_source(16)
    if len(material) != 16:
        raise LengthError("random source must supply 16 bytes")
    return ctx.cipher.ecb_encrypt(material), material


def ms_wrap_session(ctx: MasterSessionContext) -> tuple[bytes, TdeaKey]:
    """:func:`ms_wrap` with the clear session key as a key object."""
    wrapped, material = ms_wrap(ctx)
    return wrapped, TdeaKey(material, KeyRole.TRANSACTION)


def ms_unwrap_session(kek: TdeaKey, wrapped: bytes) -> TdeaKey:
    """Host-side inverse of :func:`ms_wrap_session`."""
    if len(wrapped) != 16:
        raise LengthError(f"wrapped session key must be 16 bytes, got {len(wrapped)}")
    return TdeaKey(tdes.ecb_decrypt(kek.material, wrapped), KeyRole.TRANSACTION)
