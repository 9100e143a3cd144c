"""Derivation math: KSN structure, counter walk, IPEK, one-way chain, variants."""

import copy
import dataclasses
import math
import pickle
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from dukptlab import key_hierarchy, tdes
from dukptlab.errors import (
    CounterExhausted,
    CounterOverweight,
    HexInputError,
    KeyRoleError,
    LengthError,
)
from dukptlab.key_hierarchy import (
    COUNTER_MASK,
    COUNTER_SPACE,
    MAX_COUNTER_WEIGHT,
    TABLE_BYTES,
    KeyRole,
    Ksn,
    TdeaKey,
    advance,
    derive_children,
    derive_ipek,
    derive_key_chain,
    fold_chain,
    next_counter,
    nrkgp,
    parse_ksn,
    read_hex,
    remaining_counters,
    variant_data_key,
    variant_pin_key,
)

from dukptlab.host import HostRegistry
from dukptlab.terminal import TerminalState, decrypt_data, decrypt_pin, encrypt_data, encrypt_pin

from conftest import (
    FROZEN_DATA_VARIANT_1,
    FROZEN_KEYS,
    FROZEN_PIN_VARIANT_1,
    INTEROP_IPEK_HEX,
    INTEROP_KSN_HEX,
    table_counters,
)


# --- TdeaKey ---------------------------------------------------------------

def test_key_equality_is_content_only():
    a = TdeaKey.from_hex("00" * 8 + "FF" * 8, KeyRole.TRANSACTION)
    b = TdeaKey.from_hex("00" * 8 + "FF" * 8, KeyRole.PIN_VARIANT)
    c = TdeaKey.from_hex("11" * 16, KeyRole.TRANSACTION)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a.__eq__("x") is NotImplemented and a != "x"


def test_key_rejects_wrong_lengths():
    with pytest.raises(LengthError):
        TdeaKey.from_bytes(bytes(15))
    with pytest.raises(LengthError):
        TdeaKey.from_hex("AB" * 17)
    with pytest.raises(HexInputError):
        TdeaKey.from_hex("G" * 32)
    # 32 characters, but bytes.fromhex skips blanks and would read 15 bytes
    with pytest.raises(HexInputError, match="^key is not valid hex: "):
        TdeaKey.from_hex("0123456789ABCDEF FEDCBA98765432 ")


def test_key_repr_hides_material():
    key = TdeaKey.from_hex("0123456789ABCDEFFEDCBA9876543210")
    assert "0123" not in repr(key)


def test_key_and_ksn_own_their_bytes():
    key_buf = bytearray(range(16))
    ksn_buf = bytearray(bytes.fromhex(INTEROP_KSN_HEX))
    key = TdeaKey(key_buf, KeyRole.TRANSACTION)
    ksn = Ksn(ksn_buf)
    key_buf[:] = bytes(16)
    ksn_buf[:] = bytes(10)
    assert key.material == bytes(range(16))
    assert ksn.hex == INTEROP_KSN_HEX
    assert hash(key) == hash(TdeaKey(bytes(range(16)), KeyRole.TRANSACTION))
    assert hash(ksn) == hash(parse_ksn(INTEROP_KSN_HEX))
    # a memoryview is copied too
    assert TdeaKey(memoryview(bytes(range(16))), KeyRole.TRANSACTION) == key
    assert Ksn(memoryview(bytes.fromhex(INTEROP_KSN_HEX))) == ksn


@pytest.mark.parametrize("make", [
    lambda material: TdeaKey(material, KeyRole.BASE_DERIVATION),
    Ksn,
], ids=["TdeaKey", "Ksn"])
@pytest.mark.parametrize("material", [10, 16, "0123456789", "0123456789ABCDEF"])
def test_key_and_ksn_refuse_an_int_or_a_str(make, material):
    # bytes(16) is 16 zero bytes: an int must not pass the length check as an all-zero value
    with pytest.raises(TypeError):
        make(material)


# --- KSN parsing and views --------------------------------------------------

def test_parse_ksn_counter_zero():
    ksn = parse_ksn("FFFF9876543210E00000")
    assert ksn.counter == 0
    assert ksn.hex == "FFFF9876543210E00000"


def test_parse_ksn_counter_one():
    assert parse_ksn("FFFF9876543210E00001").counter == 1


def test_parse_ksn_counter_against_bit_slice_oracle():
    # independent oracle: slice the 80-bit integer by hand. Note the byte
    # 0xEF contributes only its low five bits to the counter.
    for text, expected in [
        ("FFFF9876543210EFFFFF", 0x0FFFFF),
        ("FFFF9876543210FFFFFF", 0x1FFFFF),
    ]:
        value = int(text, 16)
        ksn = parse_ksn(text)
        assert ksn.counter == value % (2**21) == expected
        assert ksn.initial_id == value // (2**21)
        assert ksn.key_set_id == value >> 56 == 0xFFFF98


@pytest.mark.parametrize("text,raw", [
    ("", b""), ("00", b"\x00"), ("aBcD", b"\xab\xcd"), ("FFFF9876543210E00001", bytes.fromhex(
        "FFFF9876543210E00001")),
    # two digits a byte and nothing between: blanks, which bytes.fromhex skips, an odd
    # digit, a non-ASCII digit, a letter that is not hex, a 0x prefix and a sign
    ("AB CD", b""), ("ABCD ", b""), (" ABCD", b""), ("AB\tCD", b""), ("ABC", b""),
    ("\u0660\u0660", b""), ("ABCG", b""), ("0xAB", b""), ("+ABC", b""),
])
def test_read_hex_reads_two_digits_a_byte_and_nothing_else(text, raw):
    assert read_hex(text) == raw


def test_parse_ksn_errors():
    with pytest.raises(LengthError):
        parse_ksn("FFFF9876543210E0000")  # 19 chars
    with pytest.raises(HexInputError):
        parse_ksn("XXFF9876543210E00000")
    with pytest.raises(HexInputError, match="^KSN is not valid hex: "):
        parse_ksn("FFFF 9876543210E000 ")  # 20 characters, 9 bytes
    for size in (9, 11):
        with pytest.raises(LengthError, match=f"^KSN must be 10 bytes, got {size}$"):
            Ksn(bytes(size))


def test_base_ksn_stable_under_counter_updates():
    ksn = parse_ksn(INTEROP_KSN_HEX)
    assert ksn.with_counter(0x1FFFFF).base == ksn.base == ksn
    with pytest.raises(ValueError):
        ksn.with_counter(0x200000)


@given(st.integers(min_value=0, max_value=2**80 - 1), st.integers(0, COUNTER_MASK))
def test_ksn_views_partition_the_raw_value(value, counter):
    raw = value.to_bytes(10, "big")
    ksn = Ksn(raw)
    assert ksn.value == value
    assert (ksn.initial_id << 21) | ksn.counter == value
    assert ksn.raw == raw and ksn.hex == raw.hex().upper()
    assert parse_ksn(ksn.hex) == ksn
    moved = ksn.with_counter(counter)
    expected = Ksn(((value & ~COUNTER_MASK) | counter).to_bytes(10, "big"))
    assert moved == expected and hash(moved) == hash(expected)
    assert moved.counter == counter and moved.initial_id == ksn.initial_id
    assert ksn.base.counter == 0 and ksn.base == ksn.with_counter(0)


def test_ksn_is_frozen_and_survives_copy_and_pickle():
    # clone_attack_demo deep-copies devices, and a FixedKeyTerminal holds a Ksn
    ksn = parse_ksn(INTEROP_KSN_HEX).with_counter(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ksn.value = 0
    for twin in (copy.copy(ksn), copy.deepcopy(ksn), pickle.loads(pickle.dumps(ksn))):
        assert twin == ksn and hash(twin) == hash(ksn) and repr(twin) == repr(ksn)
        assert twin.raw == ksn.raw and twin.counter == 5


# --- counter walk ------------------------------------------------------------

def _brute_next(c):
    for candidate in range(c + 1, COUNTER_MASK + 1):
        if candidate.bit_count() <= MAX_COUNTER_WEIGHT:
            return candidate
    return None


def test_next_counter_simple_increment():
    assert next_counter(0) == 1


def test_next_counter_skips_overweight():
    # 0x3FF has weight 10; 0x400 is the next value that stays in bounds
    assert next_counter(0x3FF) == 0x400
    # 0x7FF would have weight 11 and must never be visited
    assert next_counter(0x7FE) == 0x800


@given(st.integers(min_value=0, max_value=0x1FF7FF))
def test_next_counter_matches_brute_force(c):
    assert next_counter(c) == _brute_next(c)


def test_next_counter_exhaustion():
    # 0x1FF800 (ten high bits) is the last usable value
    assert _brute_next(0x1FF800) is None
    with pytest.raises(CounterExhausted):
        next_counter(0x1FF800)
    # the top of the range is in range, with nothing usable above it
    with pytest.raises(CounterExhausted):
        next_counter(COUNTER_MASK)
    for outside in (-1, COUNTER_MASK + 1):
        with pytest.raises(ValueError, match="^counter out of 21-bit range"):
            next_counter(outside)


def test_counter_space_constant():
    assert COUNTER_SPACE == sum(math.comb(21, k) for k in range(1, 11)) == 1_048_575


def test_remaining_counters_against_small_brute_force():
    # exhaustive check over a truncated window keeps the oracle honest
    for limit in (0, 1, 2, 0x3FF, 0x7FF, 0xFFFF, 0x1FFFF):
        brute = sum(
            1
            for v in range(limit + 1, COUNTER_MASK + 1)
            if v.bit_count() <= MAX_COUNTER_WEIGHT
        )
        assert remaining_counters(limit) == brute


def test_remaining_counters_endpoints():
    assert remaining_counters(0) == COUNTER_SPACE
    assert remaining_counters(COUNTER_MASK) == 0
    assert remaining_counters(0x1F_F800) == 0
    for counter in (-1, COUNTER_MASK + 1):
        with pytest.raises(ValueError, match="out of 21-bit range"):
            remaining_counters(counter)


# --- IPEK derivation ---------------------------------------------------------

def test_derive_ipek_interop_vector(bdk, initial_ksn):
    assert derive_ipek(bdk, initial_ksn).hex == INTEROP_IPEK_HEX


def test_derive_ipek_masks_counter_bits(bdk, initial_ksn):
    dirty = initial_ksn.with_counter(0x1FFFFF)
    assert derive_ipek(bdk, dirty) == derive_ipek(bdk, initial_ksn)


def test_derive_ipek_distinct_across_devices(bdk):
    rng = random.Random(2024)
    ipeks = set()
    for _ in range(100):
        value = int.from_bytes(rng.randbytes(10), "big") & ~COUNTER_MASK
        ipeks.add(derive_ipek(bdk, Ksn(value.to_bytes(10, "big"))).material)
    assert len(ipeks) == 100


def test_derive_ipek_requires_base_derivation_role(initial_ksn):
    not_a_bdk = TdeaKey.from_hex("11" * 16, KeyRole.TRANSACTION)
    with pytest.raises(KeyRoleError):
        derive_ipek(not_a_bdk, initial_ksn)


# --- one-way step and chain ---------------------------------------------------

def test_nrkgp_deterministic(ipek, initial_ksn):
    ksn1 = initial_ksn.with_counter(1)
    assert nrkgp(ipek, ksn1) == nrkgp(ipek, ksn1)


def test_nrkgp_distinguishes_counters(ipek, initial_ksn):
    assert nrkgp(ipek, initial_ksn.with_counter(1)) != nrkgp(
        ipek, initial_ksn.with_counter(2)
    )


def test_nrkgp_rejects_zero_counter(ipek, initial_ksn):
    # the full message: with no check, the slot rule's negative shift raises ValueError too
    with pytest.raises(ValueError, match=r"^nrkgp needs a KSN with at least one counter bit set$"):
        nrkgp(ipek, initial_ksn)


def _reference_child(material, ksn, counter):
    """The one-way step written out per child: two single-DES blocks, byte-wise XOR."""
    def xor(a, b):
        return bytes(x ^ y for x, y in zip(a, b))

    value = (int.from_bytes(ksn.raw[-8:], "big") & ~COUNTER_MASK) | counter
    message = value.to_bytes(8, "big")
    left, right = material[:8], material[8:]
    new_right = xor(tdes.encrypt_block(left, xor(message, right)), right)
    masked = xor(material, bytes.fromhex("C0C0C0C000000000C0C0C0C000000000"))
    mleft, mright = masked[:8], masked[8:]
    new_left = xor(tdes.encrypt_block(mleft, xor(message, mright)), mright)
    return new_left + new_right


@st.composite
def _runs(draw):
    """(prefix, low, high): a run of slots and a counter prefix clear on its bits."""
    low = draw(st.integers(0, 21))
    high = draw(st.integers(low, 21))
    run = (1 << high) - (1 << low)
    return draw(st.integers(0, COUNTER_MASK)) & ~run, low, high


@given(
    material=st.binary(min_size=16, max_size=16),
    raw_ksn=st.binary(min_size=10, max_size=10),
    run=_runs(),
)
@example(material=bytes(16), raw_ksn=bytes(10), run=(0b1010, 3, 3))
@example(material=bytes(range(16)), raw_ksn=bytes(10), run=(0, 0, 21))
# all-ones keys and KSNs: a carry or borrow between 64-bit blocks would show
@example(material=b"\xff" * 16, raw_ksn=b"\xff" * 10, run=(0, 0, 21))
@example(material=b"\xff" * 16, raw_ksn=b"\xff" * 10, run=(0, 20, 21))
@example(material=b"\xff" * 16, raw_ksn=b"\xff" * 10, run=(0x1FF800, 0, 11))
def test_derive_children_matches_per_child_reference(material, raw_ksn, run):
    prefix, low, high = run
    ksn = Ksn(raw_ksn)
    with mock.patch.object(tdes, "_cipher", wraps=tdes._cipher) as builds:
        children = derive_children(material, ksn.value, prefix, low, high)
    assert children == b"".join(_reference_child(material, ksn, prefix | 1 << q)
                                for q in range(low, high))
    assert builds.call_count == (0 if low == high else 2)


def _reference_key(material, ksn, counter):
    """key(counter) from key(0) = material, one reference step per set bit, MSB first."""
    prefix = 0
    for pos in range(20, -1, -1):
        if counter >> pos & 1:
            prefix |= 1 << pos
            material = _reference_child(material, ksn, prefix)
    return material


_weighted_counters = st.integers(1, COUNTER_MASK).filter(
    lambda c: c.bit_count() <= MAX_COUNTER_WEIGHT)


@st.composite
def _usable_pairs(draw):
    """Usable counters ``last < counter``: ``counter`` keeps ``last``'s bits above
    the highest bit where they part, sets that bit, and takes any bits below it."""
    last = draw(st.integers(0, COUNTER_MASK).filter(
        lambda c: c.bit_count() <= MAX_COUNTER_WEIGHT))
    slot = draw(st.integers(0, 20).filter(lambda q: not last >> q & 1))
    counter = last >> slot + 1 << slot + 1 | 1 << slot | draw(st.integers(0, (1 << slot) - 1))
    assume(counter.bit_count() <= MAX_COUNTER_WEIGHT)
    return last, counter


@given(pair=_usable_pairs())
@example(pair=(0, 1))
@example(pair=(0, 0x1FF800))
@example(pair=(0x7FC, 0x7FE))  # weight 9 to 10: the slot below 0x7FE stays empty
@example(pair=(0x7FE, 0x800))
@example(pair=(0x0FF800, 0x1FF800))
@example(pair=(0x5A5A5, 0x5A5A6))
def test_tables_move_from_any_counter_to_a_later_one(ipek, initial_ksn, pair):
    # the table at last, itself a fold_chain result, advanced in place to counter, is
    # the device's table at counter
    last, counter = pair
    ksn = initial_ksn.with_counter(counter)
    table = bytearray(TABLE_BYTES)
    fold_chain(ipek.material, initial_ksn.with_counter(last).value, 21, table)
    assert advance(table, ksn.value, last) == derive_key_chain(ipek, ksn).material
    assert len(table) == TABLE_BYTES
    slots = table_counters(counter)
    assert table == b"".join(derive_key_chain(ipek, ksn.with_counter(slots[q])).material
                             if q in slots else bytes(16) for q in range(21))


@given(pair=_usable_pairs())
@example(pair=(0, 1))
@example(pair=(0, 0x1FF800))
@example(pair=(0x7FE, 0x800))
def test_advance_refuses_a_counter_not_above_last_before_a_write(ipek, initial_ksn, pair):
    # from the table at later, neither earlier nor later itself is a later counter: both
    # counters are named, no slot is taken, and nothing is written
    earlier, later = pair
    table = bytearray(TABLE_BYTES)
    fold_chain(ipek.material, initial_ksn.with_counter(later).value, 21, table)
    before = bytes(table)
    for counter in (earlier, later):
        with pytest.raises(RuntimeError,
                           match=rf"^counter {counter:#x} is not above last {later:#x}$"):
            advance(table, initial_ksn.with_counter(counter).value, later)
        assert table == before


@given(pair=_usable_pairs())
@example(pair=(0, 1))
@example(pair=(0x7FE, 0x800))
def test_advance_refuses_an_empty_slot_before_a_write(initial_ksn, pair):
    # a table that disagrees with last (here, one never filled) holds nothing at the slot
    # where counter parts from last, so a later counter is refused too, naming that slot
    last, counter = pair
    table = bytearray(TABLE_BYTES)
    slot = (counter ^ last).bit_length() - 1
    with pytest.raises(RuntimeError, match=rf"^future-key slot {slot} is empty$"):
        advance(table, initial_ksn.with_counter(counter).value, last)
    assert table == bytes(TABLE_BYTES)


@given(counter=_weighted_counters)
@example(counter=0x1FF800)
def test_fold_chain_starts_from_any_slot(ipek, initial_ksn, counter):
    ksn = initial_ksn.with_counter(counter)
    expected = _reference_key(ipek.material, ksn, counter)
    for slot in range(22):
        start = _reference_key(ipek.material, ksn, counter >> slot << slot)
        assert fold_chain(start, ksn.value, slot, bytearray(TABLE_BYTES)) == expected


@pytest.mark.parametrize("size", [0, 16, TABLE_BYTES - 16, TABLE_BYTES - 1, TABLE_BYTES + 16])
def test_fold_chain_refuses_a_table_of_another_length_before_a_write(ipek, initial_ksn, size):
    # slice assignment would resize a bytearray, so a short table would silently grow
    table = bytearray(range(256)) * 2
    del table[size:]
    for counter, slot in ((0, 21), (1, 0), (0x400, 10)):
        with pytest.raises(LengthError):
            fold_chain(ipek.material, initial_ksn.with_counter(counter).value, slot, table)
        assert table == (bytearray(range(256)) * 2)[:size]


def test_derive_children_rejects_material_that_is_not_16_bytes(ipek, initial_ksn):
    for size in (8, 15, 17, 24):
        with pytest.raises(LengthError):
            derive_children((ipek.material * 2)[:size], initial_ksn.value, 0, 0, 1)


@pytest.mark.parametrize("counter,expected", sorted(FROZEN_KEYS.items()))
def test_chain_reproduces_frozen_keys(ipek, initial_ksn, counter, expected):
    assert derive_key_chain(ipek, initial_ksn.with_counter(counter)).hex == expected


def test_chain_folds_one_child_per_set_bit_without_the_walk(ipek, initial_ksn):
    walk = mock.patch.object(key_hierarchy, "fold_chain", side_effect=AssertionError("walked"))
    steps = mock.patch.object(key_hierarchy, "derive_children", wraps=derive_children)
    with walk, steps as batches:
        for counter, expected in sorted(FROZEN_KEYS.items()):
            batches.reset_mock()
            assert derive_key_chain(ipek, initial_ksn.with_counter(counter)).hex == expected
            assert batches.call_count == counter.bit_count()
            assert all(low + 1 == high for (_, _, _, low, high), _ in batches.call_args_list)


def test_chain_counter_zero_is_ipek(ipek, initial_ksn):
    key = derive_key_chain(ipek, initial_ksn)
    assert key == ipek
    assert key.role is KeyRole.INITIAL


def test_chain_single_step_unrolls_to_nrkgp(ipek, initial_ksn):
    assert derive_key_chain(ipek, initial_ksn.with_counter(1)) == nrkgp(
        ipek, initial_ksn.with_counter(1)
    )


def test_chain_two_step_unroll_msb_first(ipek, initial_ksn):
    # counter 3 folds bit 1 (through counter 2) then bit 0 (counter 3)
    expected = nrkgp(nrkgp(ipek, initial_ksn.with_counter(2)), initial_ksn.with_counter(3))
    assert derive_key_chain(ipek, initial_ksn.with_counter(3)) == expected


def test_chain_matches_explicit_fold_small_counters(ipek, initial_ksn):
    # independent re-statement of the fold for every usable counter <= 0xFF
    for counter in range(1, 0x100):
        if counter.bit_count() > MAX_COUNTER_WEIGHT:
            continue
        key = ipek
        acc = 0
        for pos in range(20, -1, -1):
            if counter & (1 << pos):
                acc |= 1 << pos
                key = nrkgp(key, initial_ksn.with_counter(acc))
        assert derive_key_chain(ipek, initial_ksn.with_counter(counter)) == key


def test_chain_rejects_overweight_counter(ipek, initial_ksn):
    with pytest.raises(CounterOverweight):
        derive_key_chain(ipek, initial_ksn.with_counter(0x7FF))


def test_chain_uniqueness_sample(ipek, initial_ksn):
    seen = set()
    counter = 0
    for _ in range(600):
        counter = next_counter(counter)
        seen.add(derive_key_chain(ipek, initial_ksn.with_counter(counter)).material)
    assert len(seen) == 600


# --- variants -----------------------------------------------------------------

def test_variant_masks_on_zero_key():
    zero = TdeaKey.from_bytes(bytes(16), KeyRole.TRANSACTION)
    assert variant_pin_key(zero).hex == "00000000000000FF00000000000000FF"
    assert variant_data_key(zero).hex == "0000000000FF00000000000000FF0000"


def test_variants_differ_for_any_key(ipek, initial_ksn):
    key = derive_key_chain(ipek, initial_ksn.with_counter(1))
    assert variant_pin_key(key) != variant_data_key(key)


def test_variant_frozen_vectors(ipek, initial_ksn):
    key = derive_key_chain(ipek, initial_ksn.with_counter(1))
    assert variant_pin_key(key).hex == FROZEN_PIN_VARIANT_1
    assert variant_data_key(key).hex == FROZEN_DATA_VARIANT_1


def test_variant_roles_enforced(ipek):
    with pytest.raises(KeyRoleError, match="^PIN variant requires role Transaction, got Initial$"):
        variant_pin_key(ipek)  # Initial, not Transaction
    tk = TdeaKey.from_bytes(bytes(16), KeyRole.TRANSACTION)
    pin_key = variant_pin_key(tk)
    assert pin_key.role is KeyRole.PIN_VARIANT
    assert variant_data_key(tk).role is KeyRole.DATA_VARIANT
    with pytest.raises(KeyRoleError,
                       match="^data variant requires role Transaction, got PinVariant$"):
        variant_data_key(pin_key)  # variants cannot be re-derived


# every public entry that takes a key object: the role it requires and the use it names
TRANSACTION = KeyRole.TRANSACTION
ROLE_CHECKED = {
    "register_bdk": (KeyRole.BASE_DERIVATION, "IPEK derivation",
                     lambda key, ksn: HostRegistry().register_bdk(ksn.key_set_id, key)),
    "derive_ipek": (KeyRole.BASE_DERIVATION, "IPEK derivation", derive_ipek),
    "TerminalState": (KeyRole.INITIAL, "terminal init", TerminalState),
    # unchecked, a BDK grew a Transaction key, and at counter 0 came back as itself
    "derive_key_chain": (KeyRole.INITIAL, "transaction key derivation", derive_key_chain),
    "derive_key_chain@1": (KeyRole.INITIAL, "transaction key derivation",
                           lambda key, ksn: derive_key_chain(key, ksn.with_counter(1))),
    "variant_pin_key": (TRANSACTION, "PIN variant", lambda key, _: variant_pin_key(key)),
    "variant_data_key": (TRANSACTION, "data variant", lambda key, _: variant_data_key(key)),
    "encrypt_pin": (TRANSACTION, "PIN encryption", lambda key, _: encrypt_pin(key, bytes(8))),
    "decrypt_pin": (TRANSACTION, "PIN decryption", lambda key, _: decrypt_pin(key, bytes(8))),
    "encrypt_data": (TRANSACTION, "data encryption", lambda key, _: encrypt_data(key, b"data")),
    "decrypt_data": (TRANSACTION, "data decryption", lambda key, _: decrypt_data(key, bytes(8))),
}


@pytest.mark.parametrize("entry", ROLE_CHECKED)
def test_each_role_checked_entry_refuses_every_other_role(entry, initial_ksn):
    role, use, call = ROLE_CHECKED[entry]
    for wrong in set(KeyRole) - {role}:
        message = f"^{use} requires role {role.value}, got {wrong.value}$"
        with pytest.raises(KeyRoleError, match=message):
            call(TdeaKey(bytes(range(16)), wrong), initial_ksn)


def test_require_returns_the_material_of_a_key_of_its_role():
    for role in KeyRole:
        key = TdeaKey(bytes(range(16)), role)
        assert key.require(role, "any use") is key.material
