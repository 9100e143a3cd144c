"""Shared fixtures and frozen interoperability vectors.

The hex constants below were pinned from an independent reference
implementation of the derivation before this package was written (see
tests/data/interop_vectors.txt for the full frozen records). Tests compare
against these strings; they are never recomputed by the code under test.
"""

import pytest
from hypothesis import settings

from dukptlab import tdes
from dukptlab.host import HostRegistry
from dukptlab.key_hierarchy import MAX_COUNTER_WEIGHT, KeyRole, TdeaKey, derive_ipek, parse_ksn
from dukptlab.terminal import init_terminal

INTEROP_BDK_HEX = "0123456789ABCDEFFEDCBA9876543210"
INTEROP_KSN_HEX = "FFFF9876543210E00000"
INTEROP_IPEK_HEX = "6AC292FAA1315B4D858AB3A3D7D5933A"

# transaction keys frozen per counter value
FROZEN_KEYS = {
    0x000001: "042666B49184CFA368DE9628D0397BC9",
    0x000002: "C46551CEF9FD24B0AA9AD834130D3BC7",
    0x000003: "0DF3D9422ACA56E547676D07AD6BADFA",
    0x000004: "279C0F6AEED0BE652B2C733E1383AE91",
    0x000005: "5F8DC6D2C845C125508DDC048093B83F",
    0x0003FF: "0167CF12F59A20C012F59A8B713A09C8",
    0x000400: "03674910286A78FF1E736AAA82B8260D",
    0x0FF800: "F9CDFEBF4F5B1D9EB3EC12454527E176",
    0x100000: "AA4D58DB653EC74A48C75F2F047DD2B5",
    0x1FF800: "4124BC9650E70B10DED3378C9F4E2E42",
}

FROZEN_PIN_VARIANT_1 = "042666B49184CF5C68DE9628D0397B36"
FROZEN_DATA_VARIANT_1 = "042666B4917BCFA368DE9628D0C67BC9"

INTEROP_PIN = "1234"
INTEROP_PAN = "4012345678909"
ISO0_CLEAR_BLOCK_HEX = "041274EDCBA9876F"

# first-transaction ciphertexts under the interop keys
FROZEN_PIN_CT_1 = "1B9C1845EB993A7A"
INTEROP_DATA = b"Sale: 42.00 USD"
FROZEN_DATA_CT_1 = "01F83A2CE838A2B41E68241D8C72BFF1"

# published vector: PIN block at counter 0x100000 (single high bit)
PUBLISHED_PIN_CT_100000 = "73EC88AD0AC5830E"

# second key for wrong-BDK scenarios
OTHER_BDK_HEX = "FEDCBA98765432100123456789ABCDEF"

# the benchmark traffic's malformed wire lines (perfbench/traffic.py), as templates
MALFORMED_TEMPLATES = ["", "DUKPT1", "DUKPT2|{ksn}|{pin}|-|DUKPT", "DUKPT1|{ksn}|{pin}|-",
                       "DUKPT1|{ksn}|{pin}|-|DUKPT|extra", "DUKPT1|{ksn_short}|{pin}|-|DUKPT",
                       "DUKPT1|{ksn}|{pin_short}|-|DUKPT", "DUKPT1|{ksn}|-|-|DUKPT",
                       "DUKPT1|{ksn}|{pin}|ABC|DUKPT", "DUKPT1|{ksn}|{pin}|-|NOPE",
                       "DUKPT1|{ksn_bad}|{pin}|-|DUKPT"]
# what a near-miss edits a wire line with: hex digits in either case, the separator, the
# dash, scheme tags, whitespace, NUL, a non-ASCII digit, and the 0x, _ and sign that
# int(s, 16) would take
EDIT_TOKENS = [*"0123456789ABCDEFabcdef", "|", "-", "DUKPT1", "DUKPT", "FIXED", "MS", " ", "\t",
               "\x00", "\u0663", "0x", "_", "+"]


def malformed_line(template, ksn_hex, pin_hex):
    return template.format(ksn=ksn_hex, ksn_short=ksn_hex[:-2], ksn_bad=ksn_hex[:-1] + "G",
                           pin=pin_hex, pin_short=pin_hex[:-2])


def edited(line, edits):
    """``line`` after each ``(kind, position, token)`` edit in turn; a kind is
    ``substitute``, ``insert`` or ``delete``, and a position wraps around the line as
    it stands, so a later edit may land inside an inserted token."""
    for kind, at, token in edits:
        at %= len(line) + 1
        if kind == "insert":
            line = line[:at] + token + line[at:]
        else:
            line = line[:at] + (token if kind == "substitute" else "") + line[at + 1:]
    return line


def leaked(text, secrets):
    """The ``secrets`` (bytes) that ``text`` shows, as hex in either case or escaped."""
    # repr(s)[2:-1] is the escaped body, which also shows inside a longer buffer's repr
    return [s for s in secrets
            if repr(s)[2:-1] in text or s.hex() in text or s.hex().upper() in text]


def table_slot(table, q):
    """The 16 bytes of slot ``q`` of a future-key table."""
    return bytes(table[16 * q : 16 * q + 16])


def table_counters(counter):
    """Slot -> counter of each key in a device's future-key table after it issues
    ``counter`` (0: the fresh device), the table the host keeps for the last counter
    it accepted. Slot ``q`` holds the key of ``(counter >> q+1 << q+1) | 1 << q``,
    the next counter to consume it, where bit ``q`` of ``counter`` is clear and that
    counter is usable; every other slot is zero."""
    slots = {}
    for q in range(21):
        later = counter >> q + 1 << q + 1 | 1 << q
        if not counter >> q & 1 and later.bit_count() <= MAX_COUNTER_WEIGHT:
            slots[q] = later
    return slots


# a deeper run of the property tests, chosen with --hypothesis-profile=deep;
# tier-1 keeps hypothesis's default profile
settings.register_profile("deep", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def bdk():
    return TdeaKey.from_hex(INTEROP_BDK_HEX, KeyRole.BASE_DERIVATION)


@pytest.fixture(scope="session")
def initial_ksn():
    return parse_ksn(INTEROP_KSN_HEX)


@pytest.fixture(scope="session")
def ipek(bdk, initial_ksn):
    return derive_ipek(bdk, initial_ksn)


@pytest.fixture
def terminal(ipek, initial_ksn):
    return init_terminal(ipek, initial_ksn)


@pytest.fixture
def cipher_builds(monkeypatch):
    """A list that grows by one for each cipher build (``tdes._cipher`` call) from here on;
    clear it to start a count."""
    builds = []
    real_cipher = tdes._cipher

    def counting_cipher(*args):
        builds.append(None)
        return real_cipher(*args)

    monkeypatch.setattr(tdes, "_cipher", counting_cipher)
    return builds


@pytest.fixture
def registry(bdk, initial_ksn):
    reg = HostRegistry()
    reg.register_bdk(initial_ksn.key_set_id, bdk)
    return reg
