"""Host engine: registry, re-derivation, replay policy, wire handling."""

import random
import sys
import threading

import pytest

from dukptlab import host
from dukptlab.errors import CounterOverweight, DuplicateKeySet, KeyRoleError, UnknownKeySet
from dukptlab.host import HostRegistry, VerdictStatus, format_reply
from dukptlab.key_hierarchy import (
    COUNTER_MASK,
    MAX_COUNTER_WEIGHT,
    KeyRole,
    Ksn,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    next_counter,
    parse_ksn,
)
from dukptlab.pin_block import encode_iso0
from dukptlab.terminal import encrypt_data, encrypt_pin, init_terminal
from dukptlab.wire import Scheme, TransactionMessage, encode_wire

from conftest import INTEROP_PAN, INTEROP_PIN, OTHER_BDK_HEX

CLEAR_BLOCK_ARGS = (INTEROP_PIN, INTEROP_PAN)


def _message(terminal, data=b"Sale: 42.00 USD"):
    return terminal.build_message(
        clear_pin_block=encode_iso0(*CLEAR_BLOCK_ARGS), data=data
    )


# --- registration ----------------------------------------------------------------

def test_register_then_process(registry, terminal):
    verdict = registry.process_message(_message(terminal))
    assert verdict.status is VerdictStatus.ACCEPTED
    assert verdict.clear_pin_block == encode_iso0(*CLEAR_BLOCK_ARGS)
    assert verdict.clear_data == b"Sale: 42.00 USD"


def test_unregistered_key_set(terminal):
    empty = HostRegistry()
    verdict = empty.process_message(_message(terminal))
    assert verdict.status is VerdictStatus.UNKNOWN_KEY_SET
    assert verdict.clear_pin_block is None and verdict.clear_data is None


def test_duplicate_registration_needs_overwrite(registry, bdk, initial_ksn):
    with pytest.raises(DuplicateKeySet):
        registry.register_bdk(initial_ksn.key_set_id, bdk)
    registry.register_bdk(initial_ksn.key_set_id, bdk, overwrite=True)


def test_register_validates_inputs(registry, bdk):
    with pytest.raises(ValueError):
        registry.register_bdk(1 << 24, bdk)
    with pytest.raises(KeyRoleError):
        registry.register_bdk(0x123456, TdeaKey.from_bytes(bytes(16), KeyRole.TRANSACTION))


def test_old_bdk_message_fails_decrypt(registry, terminal, initial_ksn):
    # message encrypted under the original BDK, registry re-keyed since
    msg = _message(terminal)
    other = TdeaKey.from_hex(OTHER_BDK_HEX, KeyRole.BASE_DERIVATION)
    registry.register_bdk(initial_ksn.key_set_id, other, overwrite=True)
    assert registry.process_message(msg).status is VerdictStatus.DECRYPT_FAILED


def test_pin_only_wrong_key_fails_structure_check(registry, initial_ksn):
    # hand-built PIN-only message under a foreign key chain; counter 2's
    # decryption shape is frozen to fail the structural check
    other = TdeaKey.from_hex(OTHER_BDK_HEX, KeyRole.BASE_DERIVATION)
    foreign_key = derive_key_chain(
        derive_ipek(other, initial_ksn), initial_ksn.with_counter(2)
    )
    pin_ct = encrypt_pin(foreign_key, encode_iso0(*CLEAR_BLOCK_ARGS))
    msg = TransactionMessage(initial_ksn.with_counter(2), encrypted_pin_block=pin_ct)
    assert registry.process_message(msg).status is VerdictStatus.DECRYPT_FAILED


# --- counter policy ----------------------------------------------------------------

def test_replay_same_message_rejected(registry, terminal):
    msg = _message(terminal)
    assert registry.process_message(msg).status is VerdictStatus.ACCEPTED
    assert registry.process_message(msg).status is VerdictStatus.REPLAY_REJECTED


def test_reordered_messages_rejected(registry, terminal):
    first = _message(terminal)
    second = _message(terminal)
    assert registry.process_message(second).status is VerdictStatus.ACCEPTED
    assert registry.process_message(first).status is VerdictStatus.REPLAY_REJECTED


def test_forged_overweight_counter_rejected(registry, initial_ksn):
    msg = TransactionMessage(
        initial_ksn.with_counter(0x7FF),  # eleven set bits
        encrypted_pin_block=b"\x42" * 8,
    )
    assert (
        registry.process_message(msg).status
        is VerdictStatus.OVERWEIGHT_COUNTER_REJECTED
    )


def test_counter_zero_message_always_rejected(bdk, initial_ksn):
    # counter 0 names the initial key; no transaction may carry it
    registry = HostRegistry()
    registry.register_bdk(initial_ksn.key_set_id, bdk)
    msg = TransactionMessage(initial_ksn, encrypted_pin_block=b"\x42" * 8)
    assert registry.process_message(msg).status is VerdictStatus.REPLAY_REJECTED


def test_rejected_messages_leave_no_log_entry(registry, terminal, initial_ksn):
    msg = _message(terminal)
    tampered = TransactionMessage(
        msg.ksn, msg.encrypted_pin_block, b"\x00" * 16, Scheme.DUKPT
    )
    assert registry.process_message(tampered).status is VerdictStatus.DECRYPT_FAILED
    assert registry.last_accepted_counter(initial_ksn.initial_id) == 0
    assert registry.process_message(msg).status is VerdictStatus.ACCEPTED
    assert registry.last_accepted_counter(initial_ksn.initial_id) == msg.ksn.counter


def test_process_message_requires_dukpt_scheme(registry, initial_ksn):
    msg = TransactionMessage(
        initial_ksn.with_counter(1), encrypted_data=b"\x00" * 8, scheme=Scheme.FIXED
    )
    with pytest.raises(ValueError):
        registry.process_message(msg)


# --- re-derivation -------------------------------------------------------------------

def test_rederive_matches_terminal_sweep(registry, terminal):
    for _ in range(300):
        ksn, key = terminal.next_transaction_key()
        assert registry.rederive_key(ksn) == key


def test_rederive_counter_zero_gives_initial_key(registry, initial_ksn, ipek):
    assert registry.rederive_key(initial_ksn) == ipek


def test_rederive_errors(registry, initial_ksn):
    with pytest.raises(UnknownKeySet):
        registry.rederive_key(parse_ksn("0000000000000000000A").with_counter(1))
    with pytest.raises(CounterOverweight):
        registry.rederive_key(initial_ksn.with_counter(0x7FF))


def test_rederive_has_no_replay_side_effects(registry, terminal, initial_ksn):
    ksn, _ = terminal.next_transaction_key()
    registry.rederive_key(ksn)
    assert registry.last_accepted_counter(initial_ksn.initial_id) == 0


# --- wire handling -------------------------------------------------------------------

def test_wire_accept_reply(registry, terminal):
    msg = _message(terminal)
    assert registry.handle_wire_line(encode_wire(msg)) == f"OK|{msg.ksn.counter}"


def test_wire_error_replies(registry, terminal):
    line = encode_wire(_message(terminal))
    assert registry.handle_wire_line(line).startswith("OK|")
    assert registry.handle_wire_line(line) == "ERR|ReplayRejected"
    assert registry.handle_wire_line("garbage") == "ERR|MalformedMessage"
    fixed_line = encode_wire(
        TransactionMessage(
            parse_ksn("00000000000000000001"),
            encrypted_data=b"\x00" * 8,
            scheme=Scheme.FIXED,
        )
    )
    assert registry.handle_wire_line(fixed_line) == "ERR|UnsupportedScheme"


def test_format_reply_names(registry, initial_ksn):
    msg = TransactionMessage(
        initial_ksn.with_counter(0x7FF), encrypted_pin_block=b"\x42" * 8
    )
    assert format_reply(registry.process_message(msg)) == "ERR|OverweightCounterRejected"


def test_no_bdk_bytes_in_any_reply(registry, terminal, bdk):
    replies = []
    for _ in range(20):
        replies.append(registry.handle_wire_line(encode_wire(_message(terminal))))
    replies.append(registry.handle_wire_line("garbage"))
    blob = "\n".join(replies).upper()
    assert bdk.hex not in blob
    assert bdk.hex.lower() not in blob.lower()


def _leaked(text, secrets):
    # repr(s)[2:-1] is the escaped body, which also shows inside a longer buffer's repr
    return [s for s in secrets
            if repr(s)[2:-1] in text or s.hex() in text or s.hex().upper() in text]


def test_no_key_or_clear_block_in_reprs(registry, terminal):
    def table_material():
        return {_slot(terminal.table, q) for q in range(21)} - {bytes(16)}

    material = table_material()
    assert len(material) == 21
    assert not _leaked(repr(terminal), material)
    for _ in range(3):
        msg = _message(terminal)
    material |= table_material()
    assert not _leaked(repr(terminal), material)

    verdict = registry.process_message(msg)
    assert verdict.accepted
    clear = {verdict.clear_pin_block, verdict.clear_data}
    assert clear == {encode_iso0(*CLEAR_BLOCK_ARGS), b"Sale: 42.00 USD"}
    assert not _leaked(repr(verdict), clear | material)
    table, = registry._tables.values()
    table_keys = {_slot(table, q) for q in range(21)} - {bytes(16)}
    assert len(table_keys) == len(_table_counters(msg.ksn.counter))
    assert not _leaked(repr(registry), table_keys | material)


# --- concurrency ----------------------------------------------------------------------

def test_concurrent_devices_process_cleanly(bdk):
    registry = HostRegistry()
    devices = []
    for device_index in range(4):
        value = (0xABCDEF << 56) | (device_index << 21)
        ksn = Ksn(value.to_bytes(10, "big"))
        if device_index == 0:  # one key set serves the whole fleet
            registry.register_bdk(ksn.key_set_id, bdk)
        terminal = init_terminal(derive_ipek(bdk, ksn), ksn)
        lines = [encode_wire(_message(terminal)) for _ in range(50)]
        devices.append(lines)

    results: dict[int, list[str]] = {}

    def run(index: int, lines: list[str]) -> None:
        results[index] = [registry.handle_wire_line(line) for line in lines]

    threads = [
        threading.Thread(target=run, args=(i, lines)) for i, lines in enumerate(devices)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    for replies in results.values():
        assert all(reply.startswith("OK|") for reply in replies)


def test_fresh_device_ids_leave_the_lock_table_as_it_was(bdk):
    registry = HostRegistry()
    registry.register_bdk(0x5A5A5A, bdk)
    lock = registry._lock
    # forged PIN-only lines of zeros, each from a device id never seen before
    for device_index in range(2000):
        ksn = _device_ksn(0x5A5A5A, device_index).with_counter(1)
        registry.handle_wire_line(encode_wire(TransactionMessage(ksn, bytes(8))))
    lock_type = type(threading.Lock())
    assert registry._lock is lock
    assert [name for name, value in vars(registry).items()
            if isinstance(value, lock_type)] == ["_lock"]
    for value in vars(registry).values():
        if isinstance(value, (dict, list, tuple, set, frozenset)):
            items = value.values() if isinstance(value, dict) else value
            assert not any(isinstance(item, lock_type) for item in items)


# --- key table cache ------------------------------------------------------------------

def _table_counters(counter):
    """Slot -> counter of each key held by the table of last accepted ``counter``."""
    low = (counter & -counter).bit_length() - 1
    slots = {q: (counter >> q + 1 << q + 1) | 1 << q
             for q in range(low + 1, 21) if not counter >> q & 1}
    slots[low] = counter
    return slots


def _reference_table(derive, ksn):
    """The table bytes for the KSN's counter: reference keys, zero where no key is held."""
    slots = _table_counters(ksn.counter)
    return b"".join(derive(ksn.with_counter(slots[q])).material if q in slots else bytes(16)
                    for q in range(21))


def _slot(table, q):
    return bytes(table[16 * q : 16 * q + 16])


def _cache(registry):
    return [(d, registry.last_accepted_counter(d), bytes(table))
            for d, table in registry._tables.items()]


def _assert_cache_matches_reference(registry):
    for device, counter, table in _cache(registry):
        ksn = Ksn(((device << 21) | counter).to_bytes(10, "big"))
        assert len(table) == host.TABLE_BYTES == 16 * 21
        assert table == _reference_table(registry.rederive_key, ksn)


def _reference_message(ipek, ksn, rng):
    key = derive_key_chain(ipek, ksn)
    block = encode_iso0(str(rng.randrange(10**4, 10**6)), INTEROP_PAN)
    data = rng.randbytes(rng.randrange(1, 40))
    msg = TransactionMessage(ksn, encrypt_pin(key, block), encrypt_data(key, data))
    return msg, (block, data)


def _device_ksn(key_set_id, device_index):
    return Ksn(((key_set_id << 56) | (device_index << 21)).to_bytes(10, "big"))


def _next_counter(rng, last):
    """A random, gapped, consecutive, out-of-order or repeated successor of ``last``."""
    kind = rng.choices(["random", "gapped", "consecutive", "earlier", "repeated"],
                       weights=[1, 2, 3, 2, 1])[0]
    c = {
        "random": rng.randrange(1, 1 << 21),
        "gapped": min(last + rng.randrange(2, 300), 0x1FF800),
        "consecutive": next_counter(min(last, 0x1FF7FF)),
        "earlier": max(last - rng.randrange(1, 300), 1),
        "repeated": max(last, 1),
    }[kind]
    while not (0 < c <= COUNTER_MASK and c.bit_count() <= MAX_COUNTER_WEIGHT):
        c = rng.randrange(1, 1 << 21)
    return c


def test_cached_folds_match_reference(monkeypatch, bdk):
    monkeypatch.setattr(host, "TABLE_CACHE_DEVICES", 3)
    rng = random.Random(5)
    registry = HostRegistry()
    registry.register_bdk(0x5A5A5A, bdk)
    devices = [_device_ksn(0x5A5A5A, i) for i in range(7)]  # more than the bound
    ipeks = [derive_ipek(bdk, ksn) for ksn in devices]
    last = [0] * len(devices)
    floor = [0] * len(devices)
    accepted = 0
    for n in range(150):
        # skewed device choice: some tables survive in the cache, others are evicted
        i = rng.choices(range(len(devices)), weights=[6, 4, 3, 1, 1, 1, 1])[0]
        last[i] = counter = _next_counter(rng, last[i])
        msg, sent = _reference_message(ipeks[i], devices[i].with_counter(counter), rng)
        verdict = registry.process_message(msg)
        if counter <= floor[i]:
            assert verdict.status is VerdictStatus.REPLAY_REJECTED
            continue
        assert verdict.accepted
        assert (verdict.clear_pin_block, verdict.clear_data) == sent
        floor[i] = max(floor[i], counter)
        accepted += 1
        if n % 5 == 0:
            before = _cache(registry)
            registry.rederive_key(devices[i].with_counter(_next_counter(rng, counter)))
            assert _cache(registry) == before
    assert accepted > 150 // 3
    assert len(registry._tables) == 3
    _assert_cache_matches_reference(registry)


def test_host_table_mirrors_the_terminal_table(bdk, ipek, initial_ksn):
    # after accepting c the host holds the device's table as it stood when the
    # device issued c, before its refill: the same slots above c's lowest set
    # bit, key(c) in the slot the device consumes, and zeros below it
    rng = random.Random(14)
    for delivered in (1.0, 0.2):  # every line in order, then about one line in five
        registry = HostRegistry()
        registry.register_bdk(initial_ksn.key_set_id, bdk)
        terminal = init_terminal(ipek, initial_ksn)
        device = initial_ksn.initial_id
        accepted = 0
        for _ in range(5_000):
            ksn, key = terminal.next_transaction_key()
            if rng.random() >= delivered:
                continue  # the line never reaches the host
            msg = TransactionMessage(ksn, None, encrypt_data(key, b"tx"))
            verdict = registry.process_message(msg)
            assert verdict.accepted
            counter = registry.last_accepted_counter(device)
            assert counter == terminal.counter == verdict.derived_counter
            low = (counter & -counter).bit_length() - 1
            expected = bytes(16 * low) + key.material + terminal.table[16 * low + 16 :]
            assert registry._tables[device] == expected
            accepted += 1
        assert accepted > 5_000 * delivered * 0.9


def test_rejected_message_leaves_cached_chain(registry, terminal, initial_ksn):
    for _ in range(3):
        assert registry.process_message(_message(terminal)).accepted
    before = _cache(registry)
    msg = _message(terminal)
    tampered = TransactionMessage(msg.ksn, msg.encrypted_pin_block, b"\x00" * 16)
    assert registry.process_message(tampered).status is VerdictStatus.DECRYPT_FAILED
    # a far counter whose walk derives fresh siblings before the decrypt fails
    far = TransactionMessage(initial_ksn.with_counter(0x1234), b"\x42" * 8, b"\x00" * 16)
    assert registry.process_message(far).status is VerdictStatus.DECRYPT_FAILED
    overweight = TransactionMessage(initial_ksn.with_counter(0x7FF), b"\x42" * 8)
    assert registry.process_message(overweight).status is VerdictStatus.OVERWEIGHT_COUNTER_REJECTED
    replayed = TransactionMessage(initial_ksn.with_counter(1), b"\x42" * 8)
    assert registry.process_message(replayed).status is VerdictStatus.REPLAY_REJECTED
    unknown = TransactionMessage(parse_ksn("0000000000000000000A").with_counter(4), b"\x42" * 8)
    assert registry.process_message(unknown).status is VerdictStatus.UNKNOWN_KEY_SET
    assert _cache(registry) == before
    assert registry.process_message(msg).accepted


def test_bdk_replacement_drops_cached_chains(registry, terminal, initial_ksn):
    for _ in range(4):
        assert registry.process_message(_message(terminal)).accepted
    table, = registry._tables.values()
    other = TdeaKey.from_hex(OTHER_BDK_HEX, KeyRole.BASE_DERIVATION)
    registry.register_bdk(initial_ksn.key_set_id, other, overwrite=True)
    assert not registry._tables and not any(table)
    # counter 5 extends counter 4, so a kept table would start from the old BDK's key(4)
    rekeyed = init_terminal(derive_ipek(other, initial_ksn), initial_ksn)
    for _ in range(4):
        rekeyed.next_transaction_key()
    msg = _message(rekeyed)
    assert msg.ksn.counter == 5
    assert registry.process_message(msg).accepted


def test_bdk_replacement_keeps_the_replay_floor(registry, terminal, initial_ksn):
    replies = [registry.handle_wire_line(encode_wire(_message(terminal))) for _ in range(5)]
    other = TdeaKey.from_hex(OTHER_BDK_HEX, KeyRole.BASE_DERIVATION)
    registry.register_bdk(initial_ksn.key_set_id, other, overwrite=True)
    # re-injected under the new BDK with the same initial KSN: counters 1-5 were accepted
    rekeyed = init_terminal(derive_ipek(other, initial_ksn), initial_ksn)
    replies += [registry.handle_wire_line(encode_wire(_message(rekeyed))) for _ in range(6)]
    assert replies == [f"OK|{c}" for c in range(1, 6)] + ["ERR|ReplayRejected"] * 5 + ["OK|6"]
    assert registry.last_accepted_counter(initial_ksn.initial_id) == 6


def test_bdk_replaced_while_a_message_is_open_drops_its_chain(monkeypatch, registry,
                                                              terminal, initial_ksn):
    other = TdeaKey.from_hex(OTHER_BDK_HEX, KeyRole.BASE_DERIVATION)
    real_open = host._open
    opened, release = threading.Event(), threading.Event()
    verdicts = []

    def open_and_wait(key, msg):
        opened.set()
        release.wait(timeout=120)
        return real_open(key, msg)

    monkeypatch.setattr(host, "_open", open_and_wait)
    message = threading.Thread(
        target=lambda: verdicts.append(registry.process_message(_message(terminal))))
    rekey = threading.Thread(
        target=registry.register_bdk, args=(initial_ksn.key_set_id, other, True))
    message.start()
    try:
        assert opened.wait(timeout=120)
        rekey.start()
        rekey.join(timeout=0.2)
        blocked = rekey.is_alive()  # the replacement waits for the open message
    finally:
        release.set()
        message.join(timeout=120)
    rekey.join(timeout=120)
    assert blocked and not message.is_alive() and not rekey.is_alive()
    assert [v.status for v in verdicts] == [VerdictStatus.ACCEPTED]
    assert not [d for d in registry._tables if d >> host.DEVICE_ID_BITS == initial_ksn.key_set_id]
    # counter 5 walks from slot 2 of counter 1's table: a kept table holds the old BDK's key(4)
    rekeyed = init_terminal(derive_ipek(other, initial_ksn), initial_ksn)
    for _ in range(4):
        rekeyed.next_transaction_key()
    msg = _message(rekeyed)
    assert msg.ksn.counter == 5
    assert registry.process_message(msg).accepted


def test_evicted_tables_and_spent_slots_are_wiped(monkeypatch, bdk):
    monkeypatch.setattr(host, "TABLE_CACHE_DEVICES", 2)
    registry = HostRegistry()
    registry.register_bdk(0x5A5A5A, bdk)
    terminals = [init_terminal(derive_ipek(bdk, ksn), ksn)
                 for ksn in (_device_ksn(0x5A5A5A, i) for i in range(3))]
    for _ in range(5):
        assert registry.process_message(_message(terminals[0])).accepted
    table, = registry._tables.values()
    last = registry.last_accepted_counter(terminals[0].base_ksn.initial_id)
    key_5, key_6, key_8 = _slot(table, 0), _slot(table, 1), _slot(table, 3)
    assert last == 5 and all(key != bytes(16) for key in (key_5, key_6, key_8))
    for _ in range(2):  # counters 6 and 7 never reach the host
        terminals[0].next_transaction_key()
    assert registry.process_message(_message(terminals[0])).derived_counter == 8
    device = terminals[0].base_ksn.initial_id
    assert registry._tables[device] is table  # in place
    assert registry.last_accepted_counter(device) == 8
    # counter 8 came from slot 3, its consumed slot; slot 0 (counter 5) is spent and
    # slot 1 (counter 6) stale
    assert _slot(table, 0) == _slot(table, 1) == bytes(16)
    assert _slot(table, 3) == key_8
    assert key_5 not in bytes(table) and key_6 not in bytes(table)
    for t in terminals[1:]:
        assert registry.process_message(_message(t)).accepted
    assert len(registry._tables) == 2 and not any(table)  # evicted, least recent first


@pytest.mark.parametrize("rejection", [VerdictStatus.DECRYPT_FAILED,
                                       VerdictStatus.REPLAY_REJECTED], ids=lambda s: s.value)
def test_rejected_line_keeps_its_device_in_eviction_order(monkeypatch, bdk, rejection):
    monkeypatch.setattr(host, "TABLE_CACHE_DEVICES", 2)
    registry = HostRegistry()
    registry.register_bdk(0x5A5A5A, bdk)
    a, b, c = (init_terminal(derive_ipek(bdk, ksn), ksn)
               for ksn in (_device_ksn(0x5A5A5A, i) for i in range(3)))
    first = _message(a)
    for msg in (first, _message(b)):
        assert registry.process_message(msg).accepted
    table_a, table_b = registry._tables.values()
    if rejection is VerdictStatus.DECRYPT_FAILED:
        msg = _message(a)
        rejected = TransactionMessage(msg.ksn, msg.encrypted_pin_block, b"\x00" * 16)
    else:
        rejected = first
    assert registry.process_message(rejected).status is rejection
    assert registry.process_message(_message(c)).accepted
    # eviction follows the least recently accepted device, not the last one seen
    devices = [t.base_ksn.initial_id for t in (a, b, c)]
    assert list(registry._tables) == devices[1:]
    assert not any(table_a)
    assert registry._tables[devices[1]] is table_b and any(table_b)


def test_threads_over_a_small_cache_accept_in_order_traffic(monkeypatch, bdk):
    monkeypatch.setattr(host, "TABLE_CACHE_DEVICES", 5)
    registry = HostRegistry()
    registry.register_bdk(0x5A5A5A, bdk)
    per_thread = []
    for t in range(4):
        devices = [_device_ksn(0x5A5A5A, 8 * t + i) for i in range(8)]
        terminals = [init_terminal(derive_ipek(bdk, ksn), ksn) for ksn in devices]
        # round-robin over this thread's devices, each in counter order
        per_thread.append([encode_wire(_message(term)) for _ in range(12) for term in terminals])
    results: dict[int, list[str]] = {}

    def run(index, lines):
        results[index] = [registry.handle_wire_line(line) for line in lines]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=item) for item in enumerate(per_thread)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    for replies in results.values():
        assert replies == [f"OK|{n}" for n in range(1, 13) for _ in range(8)]
    assert len(registry._tables) == 5
    _assert_cache_matches_reference(registry)
