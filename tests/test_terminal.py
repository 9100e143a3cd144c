"""Terminal engine: future-key table, issuance, erasure, payload crypto."""

import pytest

from dukptlab.errors import (
    CounterExhausted,
    EmptyPlaintext,
    KeyRoleError,
    LengthError,
    NonZeroCounter,
)
from dukptlab.key_hierarchy import (
    COUNTER_SPACE,
    MAX_COUNTER_WEIGHT,
    KeyRole,
    TdeaKey,
    derive_key_chain,
)
from dukptlab.pin_block import encode_iso0
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
)


def _slot(terminal, q):
    return bytes(terminal.table[16 * q : 16 * q + 16])


def _stored(terminal):
    """Every key the table holds; all-zero slots are empty."""
    return {_slot(terminal, q) for q in range(21)} - {bytes(16)}


# --- initialization -----------------------------------------------------------

def test_init_populates_all_registers(terminal):
    assert terminal.occupied_count() == 21
    assert terminal.counter == 0
    assert not terminal.exhausted


def test_init_registers_hold_chain_keys(terminal, ipek, initial_ksn):
    for q in range(21):
        expected = derive_key_chain(ipek, initial_ksn.with_counter(1 << q))
        assert _slot(terminal, q) == expected.material


def test_init_discards_ipek(terminal, ipek):
    assert ipek.material not in _stored(terminal)


def test_init_rejects_nonzero_counter(ipek, initial_ksn):
    with pytest.raises(NonZeroCounter):
        init_terminal(ipek, initial_ksn.with_counter(5))


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
    assert _slot(terminal, 0) == derive_key_chain(ipek, initial_ksn.with_counter(3)).material
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
        assert _slot(terminal, pos) == expected.material
    assert _slot(terminal, 14) == bytes(16)
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
        assert terminal.occupied_count() <= 21


def test_an_empty_slot_is_never_issued(ipek, initial_ksn):
    # an all-zero slot is empty: issuing from it would hand out a zero key
    with pytest.raises(RuntimeError, match="slot 0 is empty"):
        TerminalState(initial_ksn).next_transaction_key()
    terminal = init_terminal(ipek, initial_ksn)
    terminal.next_transaction_key()
    terminal.next_transaction_key()
    terminal.table[:16] = bytes(16)
    with pytest.raises(RuntimeError, match="slot 0 is empty"):
        terminal.next_transaction_key()


def test_counter_is_read_only(terminal):
    # a counter set apart from the table would label one key with another's counter
    with pytest.raises(AttributeError):
        terminal.counter = 5
    assert terminal.counter == 0


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
    assert terminal.exhausted
    assert terminal.occupied_count() == 0
    assert terminal.remaining_transactions() == 0
    with pytest.raises(CounterExhausted):
        terminal.next_transaction_key()


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


def test_payload_crypto_validates_inputs(transaction_key, ipek):
    with pytest.raises(EmptyPlaintext):
        encrypt_data(transaction_key, b"")
    with pytest.raises(LengthError):
        encrypt_pin(transaction_key, b"\x00" * 7)
    with pytest.raises(KeyRoleError):
        encrypt_pin(ipek, bytes(8))
    with pytest.raises(KeyRoleError):
        encrypt_data(ipek, b"payload")


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
