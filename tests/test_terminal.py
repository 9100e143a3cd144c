"""Terminal engine: future-key table, issuance, erasure, payload crypto."""

import copy
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dukptlab import key_hierarchy, tdes
from dukptlab.errors import (
    CounterExhausted,
    DecryptFailed,
    EmptyPlaintext,
    KeyRoleError,
    LengthError,
    NonZeroCounter,
)
from dukptlab.key_hierarchy import (
    COUNTER_SPACE,
    DATA_VARIANT_MASK,
    MAX_COUNTER_WEIGHT,
    PIN_VARIANT_MASK,
    TABLE_BYTES,
    KeyRole,
    TdeaKey,
    derive_key_chain,
    next_counter,
    seal,
    unseal,
)
from dukptlab.pin_block import encode_iso0
from dukptlab.wire import MAX_DATA_BYTES, Scheme, TransactionMessage, encode_wire, parse_fields
from dukptlab import terminal as terminal_module
from dukptlab.terminal import (
    TerminalState,
    decrypt_data,
    decrypt_pin,
    encrypt_data,
    encrypt_pin,
    init_terminal,
)

from conftest import (
    FROZEN_DATA_CT_1,
    FROZEN_PIN_CT_1,
    INTEROP_DATA,
    INTEROP_PAN,
    INTEROP_PIN,
    PUBLISHED_PIN_CT_100000,
    table_counters,
    table_slot,
)


def _stored(terminal):
    """Every key the table holds; all-zero slots are empty."""
    return {table_slot(terminal.table, q) for q in range(21)} - {bytes(16)}


def _occupied(terminal):
    """How many slots of the table hold a key."""
    return sum(table_slot(terminal.table, q) != bytes(16) for q in range(21))


# --- initialization -----------------------------------------------------------

def test_init_populates_all_registers(terminal):
    assert _occupied(terminal) == 21
    assert terminal.counter == 0
    assert terminal.remaining_transactions() == COUNTER_SPACE


def test_init_registers_hold_chain_keys(terminal, ipek, initial_ksn):
    for q in range(21):
        expected = derive_key_chain(ipek, initial_ksn.with_counter(1 << q))
        assert table_slot(terminal.table, q) == expected.material


def test_init_discards_ipek(terminal, ipek):
    assert ipek.material not in _stored(terminal)


def test_the_constructor_is_the_one_way_to_make_a_terminal():
    # no blank device, no table passed in, and no state beside base, counter and table
    assert init_terminal is TerminalState
    assert list(inspect.signature(TerminalState).parameters) == ["ipek", "initial_ksn"]
    assert TerminalState.__slots__ == ("_base", "_counter", "table")


def test_each_terminal_gets_a_table_of_its_own(ipek, initial_ksn):
    # issue() folds into the table in place, so two devices provisioned alike must
    # not share one: the first device's issuance leaves the second's table alone
    first, second = init_terminal(ipek, initial_ksn), init_terminal(ipek, initial_ksn)
    assert first.table is not second.table
    assert type(second.table) is bytearray and len(second.table) == TABLE_BYTES
    before = bytes(second.table)
    first.next_transaction_key()
    assert first.table != before
    assert second.table == before and second.counter == 0


def test_init_rejects_nonzero_counter(ipek, initial_ksn):
    # a KSN with counter bits set is refused, never silently cleared
    for counter in (5, 0x1FFFFF):
        with pytest.raises(NonZeroCounter):
            init_terminal(ipek, initial_ksn.with_counter(counter))


def test_init_rejects_non_initial_key(initial_ksn):
    impostor = TdeaKey.from_bytes(bytes(16), KeyRole.TRANSACTION)
    with pytest.raises(KeyRoleError):
        init_terminal(impostor, initial_ksn)


# --- issuance -----------------------------------------------------------------

def test_first_transaction(terminal, ipek, initial_ksn):
    ksn, key = terminal.next_transaction_key()
    assert ksn.counter == 1
    assert key == derive_key_chain(ipek, initial_ksn.with_counter(1))


def test_third_transaction_uses_replenished_register(terminal, ipek, initial_ksn):
    # key(3) enters slot 0 while the counter-2 step runs
    terminal.next_transaction_key()
    terminal.next_transaction_key()
    expected = derive_key_chain(ipek, initial_ksn.with_counter(3)).material
    assert table_slot(terminal.table, 0) == expected
    ksn, key = terminal.next_transaction_key()
    assert ksn.counter == 3
    assert key == derive_key_chain(ipek, initial_ksn.with_counter(3))


def test_worst_case_refill_matches_direct_chain(terminal, ipek, initial_ksn):
    # 0x3FF0 is the last usable counter below 0x4000, and slot 14 still
    # holds its initial key(0x4000): only counters from 0x8000 up refill it.
    # So the fresh table already holds the key this jump issues next, and
    # setting the private counter keeps the two in step.
    terminal._counter = 0x3FF0
    untouched = bytes(terminal.table[16 * 15 :])
    ksn, key = terminal.next_transaction_key()
    assert ksn.counter == 0x4000
    assert key == derive_key_chain(ipek, ksn)
    for pos in range(14):
        expected = derive_key_chain(ipek, initial_ksn.with_counter(0x4000 | 1 << pos))
        assert table_slot(terminal.table, pos) == expected.material
    assert table_slot(terminal.table, 14) == bytes(16)
    assert terminal.table[16 * 15 :] == untouched


def test_issued_keys_match_direct_chain_sweep(terminal, ipek, initial_ksn):
    for _ in range(2_000):
        ksn, key = terminal.next_transaction_key()
        assert key == derive_key_chain(ipek, ksn)


def test_counters_strictly_increase_with_bounded_weight(terminal):
    previous = 0
    for _ in range(1_500):
        ksn, _ = terminal.next_transaction_key()
        assert ksn.counter > previous
        assert ksn.counter.bit_count() <= MAX_COUNTER_WEIGHT
        previous = ksn.counter


def test_forward_erasure_exhaustive_small_range(terminal, ipek, initial_ksn):
    # nothing reachable from the state may equal any spent key
    past_keys: set[bytes] = set()
    while terminal.counter < 64:
        _, key = terminal.next_transaction_key()
        past_keys.add(key.material)
        stored = _stored(terminal)
        assert not stored & past_keys
        assert ipek.material not in stored


def test_register_occupancy_never_exceeds_slots(terminal):
    for _ in range(500):
        terminal.next_transaction_key()
        assert _occupied(terminal) <= 21


def test_an_empty_slot_is_never_issued(ipek, initial_ksn):
    # an all-zero slot is empty: issuing from it would hand out a zero key,
    # and the refused issuance moves neither the counter nor the table
    terminal = init_terminal(ipek, initial_ksn)
    terminal.next_transaction_key()
    terminal.next_transaction_key()
    terminal.table[:16] = bytes(16)
    table = bytes(terminal.table)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="slot 0 is empty"):
            terminal.next_transaction_key()
        assert terminal.counter == 2
        assert terminal.table == table


def test_issue_folds_into_the_terminal_table_itself(ipek, initial_ksn, monkeypatch):
    # each issuance is one advance of the terminal's table object itself, the same one
    # for the terminal's life, past the refill of 0x4000's 14 slots
    terminal = init_terminal(ipek, initial_ksn)
    table = terminal.table
    tables = []
    real_advance = key_hierarchy.advance

    def spy(into, ksn, last):
        tables.append(into)
        return real_advance(into, ksn, last)

    monkeypatch.setattr(terminal_module, "advance", spy)
    while terminal.counter < 0x4001:
        terminal.issue()
    slots = table_counters(0x4001)
    assert table == b"".join(derive_key_chain(ipek, initial_ksn.with_counter(slots[q])).material
                             if q in slots else bytes(16) for q in range(21))
    assert len(tables) == terminal.counter - sum(
        c.bit_count() > MAX_COUNTER_WEIGHT for c in range(terminal.counter))
    assert all(into is table for into in tables)
    assert terminal.table is table and len(table) == TABLE_BYTES


def test_counter_is_read_only(terminal):
    # a counter set apart from the table would label one key with another's counter
    with pytest.raises(AttributeError):
        terminal.counter = 5
    assert terminal.counter == 0


def test_base_ksn_and_ksn_are_read_only(terminal, initial_ksn):
    # the state holds the base KSN as an int: a KSN set apart from it would go stale
    for name in ("base_ksn", "ksn"):
        with pytest.raises(AttributeError):
            setattr(terminal, name, initial_ksn.with_counter(1))
    assert terminal.base_ksn == terminal.ksn == initial_ksn


def test_every_message_ksn_is_the_base_with_its_counter(ipek, initial_ksn, monkeypatch):
    # build_message's KSN is base | counter on every usable counter up to 0x4400,
    # and the refill derives only when the consumed slot has slots below it
    device = init_terminal(ipek, initial_ksn)
    runs = 0
    real_derive_children = key_hierarchy.derive_children

    def counting_derive_children(material, ksn, prefix, low, high):
        nonlocal runs
        runs += low < high
        return real_derive_children(material, ksn, prefix, low, high)

    monkeypatch.setattr(key_hierarchy, "derive_children", counting_derive_children)
    counter = expected_runs = 0
    while (counter := next_counter(counter)) <= 0x4400:
        ksn = device.build_message(data=b"payload").ksn
        assert ksn == device.ksn == device.base_ksn.with_counter(counter)
        expected_runs += counter & 1 == 0 and counter.bit_count() < MAX_COUNTER_WEIGHT
    assert device.counter == 0x4400
    assert runs == expected_runs


def test_remaining_transactions_counts_down(terminal):
    assert terminal.remaining_transactions() == COUNTER_SPACE
    terminal.next_transaction_key()
    assert terminal.remaining_transactions() == COUNTER_SPACE - 1


def test_exhaustion_is_permanent(terminal):
    # one step before the end of the counter space; no key is issued past it,
    # so the fresh table already holds every key this test can reach
    terminal._counter = 0x1FF800
    with pytest.raises(CounterExhausted):
        terminal.next_transaction_key()
    assert _occupied(terminal) == 0
    assert terminal.remaining_transactions() == 0
    with pytest.raises(CounterExhausted):
        terminal.next_transaction_key()
    assert terminal.counter == 0x1FF800
    assert _occupied(terminal) == 0


# --- payload crypto -----------------------------------------------------------

@pytest.fixture
def transaction_key(terminal):
    return terminal.next_transaction_key()[1]


def test_pin_round_trip(transaction_key):
    block = encode_iso0(INTEROP_PIN, INTEROP_PAN)
    assert decrypt_pin(transaction_key, encrypt_pin(transaction_key, block)) == block


def test_data_round_trip(transaction_key):
    for payload in (b"x", b"eight by", b"a longer payload than one block"):
        assert decrypt_data(transaction_key, encrypt_data(transaction_key, payload)) == payload


def test_pin_and_data_ciphertexts_differ(transaction_key):
    block = encode_iso0(INTEROP_PIN, INTEROP_PAN)
    pin_ct = encrypt_pin(transaction_key, block)
    data_ct = encrypt_data(transaction_key, block)
    assert pin_ct != data_ct[:8]


def test_frozen_first_transaction_ciphertexts(transaction_key):
    block = encode_iso0(INTEROP_PIN, INTEROP_PAN)
    assert encrypt_pin(transaction_key, block).hex().upper() == FROZEN_PIN_CT_1
    assert encrypt_data(transaction_key, INTEROP_DATA).hex().upper() == FROZEN_DATA_CT_1


def test_published_pin_ct_at_high_counter(ipek, initial_ksn):
    key = derive_key_chain(ipek, initial_ksn.with_counter(0x100000))
    block = encode_iso0(INTEROP_PIN, INTEROP_PAN)
    assert encrypt_pin(key, block).hex().upper() == PUBLISHED_PIN_CT_100000
    assert seal(key.material, block, None)[0].hex().upper() == PUBLISHED_PIN_CT_100000


def test_payload_crypto_validates_inputs(transaction_key, ipek):
    with pytest.raises(EmptyPlaintext):
        encrypt_data(transaction_key, b"")
    with pytest.raises(LengthError):
        encrypt_pin(transaction_key, b"\x00" * 7)
    with pytest.raises(KeyRoleError):
        encrypt_pin(ipek, bytes(8))
    with pytest.raises(KeyRoleError):
        encrypt_data(ipek, b"payload")


@settings(max_examples=50, deadline=None)
@given(material=st.binary(min_size=16, max_size=16), pin=st.binary(min_size=8, max_size=8),
       data=st.binary(min_size=1, max_size=40), parts=st.sampled_from(["pin", "data", "both"]))
def test_unseal_inverts_seal(material, pin, data, parts):
    pin = None if parts == "data" else pin
    data = None if parts == "pin" else data
    pin_ct, data_ct = seal(material, pin, data)
    assert (pin_ct is None, data_ct is None) == (pin is None, data is None)
    assert unseal(material, pin_ct, data_ct) == (pin, data)


@settings(max_examples=50, deadline=None)
@given(material=st.binary(min_size=16, max_size=16), pin=st.binary(min_size=8, max_size=8),
       data=st.binary(min_size=1, max_size=40))
def test_seal_and_unseal_match_the_masked_variants(material, pin, data):
    # the codec takes both variants from one step; the reference masks the key per variant
    key = int.from_bytes(material, "big")
    pin_key = (key ^ PIN_VARIANT_MASK).to_bytes(16, "big")
    data_key = (key ^ DATA_VARIANT_MASK).to_bytes(16, "big")
    pin_ct, data_ct = tdes.encrypt_block(pin_key, pin), tdes.cbc_encrypt(data_key, data)
    assert seal(material, pin, data) == (pin_ct, data_ct)
    assert unseal(material, pin_ct, data_ct) == (
        tdes.ecb_decrypt(pin_key, pin_ct), tdes.cbc_decrypt(data_key, data_ct))


@pytest.mark.parametrize("size", [15, 17])
@pytest.mark.parametrize("parts", ["pin", "data", "both"])
def test_seal_and_unseal_refuse_material_that_is_not_16_bytes(size, parts):
    pin = None if parts == "data" else bytes(8)
    data = None if parts == "pin" else b"payload"
    with pytest.raises(LengthError, match=f"^key material must be 16 bytes, got {size}$"):
        seal(bytes(size), pin, data)
    with pytest.raises(LengthError, match=f"^key material must be 16 bytes, got {size}$"):
        unseal(bytes(size), pin, data and bytes(8))


def test_unseal_refuses_data_with_broken_padding():
    material = bytes(range(16))
    _, data_ct = seal(material, None, b"one block")  # 9 bytes pad to two blocks
    with pytest.raises(DecryptFailed):
        unseal(material, None, data_ct[:8])  # the first block alone has no marker


# --- message building -----------------------------------------------------------

def test_build_message_monotone_counters(terminal):
    block = encode_iso0(INTEROP_PIN, INTEROP_PAN)
    previous = 0
    for _ in range(100):
        msg = terminal.build_message(clear_pin_block=block, data=b"payload")
        assert msg.ksn.counter > previous
        assert msg.ksn.counter.bit_count() <= MAX_COUNTER_WEIGHT
        previous = msg.ksn.counter


def test_build_message_needs_a_payload(terminal):
    with pytest.raises(EmptyPlaintext):
        terminal.build_message()


def test_build_message_distinct_counters_and_ciphertexts(terminal):
    counters = set()
    ciphertexts = set()
    for _ in range(1_000):
        msg = terminal.build_message(data=b"same payload every time")
        counters.add(msg.ksn.counter)
        ciphertexts.add(msg.encrypted_data)
    assert len(counters) == 1_000
    assert len(ciphertexts) == 1_000


def test_build_message_consumes_its_register(terminal, ipek):
    msg = terminal.build_message(data=b"payload")
    consumed = msg.ksn.counter
    chain_key = derive_key_chain(ipek, msg.ksn)
    assert chain_key.material not in _stored(terminal)
    assert consumed == terminal.counter


@pytest.mark.parametrize("route", ["build_message", "send"])
def test_a_refused_payload_draws_no_key(terminal, route):
    transact = getattr(terminal, route)
    transact(data=b"payload")
    counter, table = terminal.counter, bytes(terminal.table)
    refused = [
        (None, None, EmptyPlaintext),
        (bytes(7), None, LengthError),
        (None, b"", EmptyPlaintext),
        (bytes(7), b"payload", LengthError),
        (bytes(8), b"", EmptyPlaintext),
        # data whose padded ciphertext would pass the wire's bound
        (None, bytes(MAX_DATA_BYTES), LengthError),
        (bytes(8), bytes(MAX_DATA_BYTES + 100), LengthError),
    ]
    for clear_pin_block, data, error in refused:
        with pytest.raises(error):
            transact(clear_pin_block, data)
        assert terminal.counter == counter
        assert terminal.table == table
    transact(data=b"payload")
    assert terminal.counter == counter + 1
    transact(data=bytes(MAX_DATA_BYTES - 1))  # the longest data: one block of padding to the bound
    assert terminal.counter == counter + 2


def test_send_writes_the_line_of_the_message(ipek, initial_ksn):
    # a twin builds the message of each line; 2,100 transactions pass counter 0x800
    device = init_terminal(ipek, initial_ksn)
    twin = copy.deepcopy(device)
    block = encode_iso0(INTEROP_PIN, INTEROP_PAN)
    for i in range(2_100):
        pin = None if i % 3 == 1 else block  # PIN only, data only, both
        data = None if i % 3 == 0 else bytes([i % 251]) * (1 + i % 20)
        line, pin_ct, data_ct, key = device.send(pin, data)
        msg = twin.build_message(pin, data)
        assert line == encode_wire(msg)
        ksn_raw = (initial_ksn.value | device.counter).to_bytes(10, "big")
        assert parse_fields(line) == (ksn_raw, pin_ct, data_ct, Scheme.DUKPT, None)
        assert (pin_ct, data_ct) == (msg.encrypted_pin_block, msg.encrypted_data)
        if device.counter % 61 == 0 or device.counter & (device.counter - 1) == 0:
            assert key == derive_key_chain(ipek, msg.ksn).material
    assert device.counter == twin.counter > 0x800
    assert device.table == twin.table


_pin_blocks = st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=8)
_data = st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=8)


@settings(max_examples=4, deadline=None)
@given(pins=_pin_blocks, datas=_data)
def test_build_message_matches_the_key_object_route(ipek, initial_ksn, pins, datas):
    # build_message stays on bytes; its twin takes the public TdeaKey route.
    # 2,100 transactions pass counter 0x800, whose issuance refills 11 slots
    device = init_terminal(ipek, initial_ksn)
    twin = copy.deepcopy(device)
    for i in range(2_100):
        pin = None if i % 3 == 1 else pins[i % len(pins)]  # PIN only, data only, both
        data = None if i % 3 == 0 else datas[i % len(datas)]
        msg = device.build_message(pin, data)
        ksn, key = twin.next_transaction_key()
        assert msg == TransactionMessage(
            ksn,
            None if pin is None else encrypt_pin(key, pin),
            None if data is None else encrypt_data(key, data),
        )
        counter = msg.ksn.counter
        if counter % 61 == 0 or counter & (counter - 1) == 0:
            chain_key = derive_key_chain(ipek, msg.ksn)
            if pin is not None:
                assert decrypt_pin(chain_key, msg.encrypted_pin_block) == pin
            if data is not None:
                assert decrypt_data(chain_key, msg.encrypted_data) == data
    assert device.counter == twin.counter > 0x800
    assert device.table == twin.table


def test_send_cipher_builds_per_payload_shape(terminal, cipher_builds):
    # one build a part (the PIN block, the data), plus two when the issued key's
    # children refill the slots below it: at an even counter here, not at an odd one
    block = encode_iso0(INTEROP_PIN, INTEROP_PAN)
    for pin, data in [(block, None), (None, INTEROP_DATA), (block, INTEROP_DATA)]:
        for refill in (False, True):
            cipher_builds.clear()
            terminal.send(pin, data)
            assert terminal.counter % 2 == (not refill)
            assert len(cipher_builds) == (pin is not None) + (data is not None) + 2 * refill


def test_build_message_cipher_builds(terminal, monkeypatch, cipher_builds):
    # two payload builds per message, plus the refill's two single-DES passes
    # whenever the issued key has children; no key object on the way
    def no_key_object(*args):
        raise AssertionError("build_message made a key object")

    monkeypatch.setattr(TdeaKey, "__post_init__", no_key_object)
    monkeypatch.setattr(tdes.TdeaCipher, "__init__", no_key_object)
    block = encode_iso0(INTEROP_PIN, INTEROP_PAN)
    expected = 0
    for _ in range(2_100):
        counter = terminal.build_message(block, INTEROP_DATA).ksn.counter
        low = (counter & -counter).bit_length() - 1
        expected += 2 + 2 * (low > 0 and counter.bit_count() < MAX_COUNTER_WEIGHT)
    assert len(cipher_builds) == expected
