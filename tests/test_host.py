"""Host engine: registry, re-derivation, replay policy, wire handling."""

import random
import sys
import threading
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dukptlab import host, key_hierarchy, tdes
from dukptlab.errors import (
    CounterOverweight, DuplicateKeySet, KeyRoleError, UnknownKeySet, WireFormatError,
)
from dukptlab.host import HostRegistry, VerdictStatus, format_reply
from dukptlab.key_hierarchy import (
    COUNTER_BITS,
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
from dukptlab.wire import Scheme, TransactionMessage, encode_fields, encode_wire, parse_wire

from conftest import (
    EDIT_TOKENS, INTEROP_PAN, INTEROP_PIN, MALFORMED_TEMPLATES, OTHER_BDK_HEX, edited, leaked,
    malformed_line, table_counters, table_slot,
)

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


def test_cipher_builds_per_line_kind(registry, terminal, bdk, initial_ksn, cipher_builds):
    # the opens: one build for a PIN block, one for the data's last two blocks; a walk
    # or a refill: two for each derive_children run (one ECB pass a key half)
    block, data = encode_iso0(*CLEAR_BLOCK_ARGS), b"Sale: 42.00 USD"
    shapes = [(block, data)] * 4 + [(block, None), (block, data), (None, data)]
    lines = [terminal.send(pin, clear)[0] for pin, clear in shapes]  # counters 1 to 7
    late_ksn = _device_ksn(initial_ksn.key_set_id, 7)
    late = init_terminal(derive_ipek(bdk, late_ksn), late_ksn)
    for _ in range(11):
        late.issue()
    late_line = late.send(block, data)[0]  # counter 12, 0b1100
    registry.rederive_key(terminal.base_ksn)  # builds the key set's loaded IPEK contexts

    def builds(line):
        cipher_builds.clear()
        return registry.handle_wire_line(line), len(cipher_builds)

    assert [builds(line) for line in lines] == [
        ("OK|1", 2 + 2),  # first seen: one run (bit 0), then the opens
        ("OK|2", 2 + 2),  # an even counter: its key's child refills slot 0
        ("OK|3", 2),  # an in-order successor at an odd counter: the opens alone
        ("OK|4", 2 + 2),  # slots 0 and 1 refilled in one run
        ("OK|5", 1),  # PIN only
        ("OK|6", 2 + 2),
        ("OK|7", 1),  # data only
    ]
    # first seen at 12: runs from bits 3 and 2 on the way down, then slots 0 and 1
    assert builds(late_line) == ("OK|12", 3 * 2 + 2)
    # every refusal builds nothing
    ksn_hex, pin_hex = lines[0].split("|")[1:3]
    next_line = terminal.send(block, data)[0]  # counter 8
    ksn, pin, data_hex, tag = next_line.split("|")[1:]
    refusals = [(malformed_line(t, ksn_hex, pin_hex), "ERR|MalformedMessage")
                for t in MALFORMED_TEMPLATES]
    refusals += [
        (encode_fields(terminal.ksn.raw, None, bytes(8), Scheme.FIXED), "ERR|UnsupportedScheme"),
        (encode_wire(TransactionMessage(_device_ksn(0x123456, 1).with_counter(1), block)),
         "ERR|UnknownKeySet"),
        (encode_wire(TransactionMessage(terminal.base_ksn.with_counter(0x7FF), block)),
         "ERR|OverweightCounterRejected"),
        (lines[2], "ERR|ReplayRejected"),
    ]
    for size in (1 << 10, 8 << 20):  # over the line bound, by 1 KiB and 8 MiB of data
        pad = size - len(next_line)
        over = "|".join(["DUKPT1", ksn, pin, data_hex + "0" * pad, tag])
        assert len(over) == size
        refusals.append((over, "ERR|MalformedMessage"))
    # a valid line followed by 8 Mi spaces is over the bound too: whitespace counts
    refusals.append((next_line + " " * (8 << 20), "ERR|MalformedMessage"))
    for line, reply in refusals:
        assert builds(line) == (reply, 0), line[:80]
    # and none of them moved the device: its next line folds from counter 7's table
    assert builds(next_line) == ("OK|8", 2 + 2)


def test_format_reply_names(registry, initial_ksn):
    msg = TransactionMessage(
        initial_ksn.with_counter(0x7FF), encrypted_pin_block=b"\x42" * 8
    )
    assert format_reply(registry.process_message(msg)) == "ERR|OverweightCounterRejected"


@pytest.mark.parametrize("reply,status", [
    ("OK|1", VerdictStatus.ACCEPTED), ("OK|2097151", VerdictStatus.ACCEPTED),
    *((f"ERR|{s.value}", s) for s in VerdictStatus if s is not VerdictStatus.ACCEPTED),
])
def test_reply_status_reads_a_verdict_reply(reply, status):
    assert host.reply_status(reply) is status


@pytest.mark.parametrize("reply", [
    "ERR|MalformedMessage", "ERR|UnsupportedScheme", "ERR|Accepted", "OK|", "OK|-1", "OK|1 ",
    "OK|0x1", "OK|\u0663", "ok|1", "OK 1", "ERR|replayrejected", "", "garbage"])
def test_reply_status_refuses_any_other_line(reply):
    with pytest.raises(ValueError):
        host.reply_status(reply)


def test_no_bdk_bytes_in_any_reply(registry, terminal, bdk):
    replies = []
    for _ in range(20):
        replies.append(registry.handle_wire_line(encode_wire(_message(terminal))))
    replies.append(registry.handle_wire_line("garbage"))
    blob = "\n".join(replies).upper()
    assert bdk.hex not in blob
    assert bdk.hex.lower() not in blob.lower()


def test_no_key_or_clear_block_in_reprs(registry, terminal):
    def table_material():
        return {table_slot(terminal.table, q) for q in range(21)} - {bytes(16)}

    material = table_material()
    assert len(material) == 21
    assert not leaked(repr(terminal), material)
    for _ in range(3):
        msg = _message(terminal)
    material |= table_material()
    assert not leaked(repr(terminal), material)

    verdict = registry.process_message(msg)
    assert verdict.accepted
    clear = {verdict.clear_pin_block, verdict.clear_data}
    assert clear == {encode_iso0(*CLEAR_BLOCK_ARGS), b"Sale: 42.00 USD"}
    assert not leaked(repr(verdict), clear | material)
    table, = registry._tables.values()
    table_keys = {table_slot(table, q) for q in range(21)} - {bytes(16)}
    assert len(table_keys) == len(table_counters(msg.ksn.counter))
    assert not leaked(repr(registry), table_keys | material)


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

def _reference_table(derive, ksn):
    """The table bytes for the KSN's counter: reference keys, zero where no key is held."""
    slots = table_counters(ksn.counter)
    return b"".join(derive(ksn.with_counter(slots[q])).material if q in slots else bytes(16)
                    for q in range(21))


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


_bdk_bytes = st.binary(min_size=16, max_size=16)


@given(bdks=st.tuples(_bdk_bytes, _bdk_bytes).filter(lambda pair: pair[0] != pair[1]),
       initial_id=st.integers(0, (1 << 59) - 1),
       counters=st.lists(st.integers(1, COUNTER_MASK).filter(
           lambda c: c.bit_count() <= MAX_COUNTER_WEIGHT), min_size=2, max_size=2, unique=True))
@example(bdks=(bytes(16), bytes(range(16))), initial_id=0, counters=[1, 2])
@example(bdks=(bytes(range(16)), bytes(16)), initial_id=(1 << 59) - 1, counters=[0x1FF800, 0x7FE])
@settings(deadline=None)
def test_first_sight_ipek_matches_derive_ipek(bdks, initial_id, counters):
    # the host's first-sight key, from the BDK loaded at registration, is the IPEK
    # route's key; after the BDK is replaced the device is first seen again, and its
    # fold starts from the new BDK: a line under the old one no longer opens
    old, new = (TdeaKey(b, KeyRole.BASE_DERIVATION) for b in bdks)
    base = Ksn((initial_id << 21).to_bytes(10, "big"))
    registry = HostRegistry()
    registry.register_bdk(base.key_set_id, old)
    first, later = sorted(counters)

    def line(bdk, counter):
        key = derive_key_chain(derive_ipek(bdk, base), base.with_counter(counter))
        return encode_wire(TransactionMessage(base.with_counter(counter),
                                              encrypt_pin(key, encode_iso0(*CLEAR_BLOCK_ARGS)),
                                              encrypt_data(key, b"first sight")))

    for bdk, counter in ((old, first), (new, later)):
        ksn = base.with_counter(counter)
        reference = derive_key_chain(derive_ipek(bdk, base), ksn)
        assert registry.rederive_key(ksn) == reference
        if bdk is new:
            assert registry.handle_wire_line(line(old, counter)) == "ERR|DecryptFailed"
        assert registry.handle_wire_line(line(bdk, counter)) == f"OK|{counter}"
        table, = registry._tables.values()
        assert table == _reference_table(
            lambda k: derive_key_chain(derive_ipek(bdk, base), k), ksn)
        registry.register_bdk(base.key_set_id, new, overwrite=True)
        assert not registry._tables


def test_each_bdk_is_loaded_once_and_used_under_the_lock(monkeypatch, bdk):
    # register_bdk builds the BDK's two ciphers; a first-seen device's IPEK, on either
    # entry point or rederive_key, builds none and runs with the registry lock held
    loaded = []
    real_cipher, real_ipek_material = tdes.TdeaCipher, host.ipek_material
    registry = HostRegistry()

    class CountingCipher(real_cipher):
        __slots__ = ()

        def __init__(self, key):
            loaded.append(key)
            super().__init__(key)

    def locked_ipek_material(*args):
        assert registry._lock.locked()
        return real_ipek_material(*args)

    monkeypatch.setattr(tdes, "TdeaCipher", CountingCipher)
    monkeypatch.setattr(host, "ipek_material", locked_ipek_material)
    registry.register_bdk(0x123456, bdk)
    assert len(loaded) == 2
    terminals = [init_terminal(derive_ipek(bdk, ksn), ksn)
                 for ksn in (_device_ksn(0x123456, i) for i in range(4))]
    del loaded[:]
    for i, terminal in enumerate(terminals):
        assert registry.rederive_key(terminal.base_ksn) == derive_ipek(bdk, terminal.base_ksn)
        if i % 2:
            assert registry.process_message(_message(terminal)).accepted
        else:
            assert registry.handle_wire_line(encode_wire(_message(terminal))) == "OK|1"
    assert len(loaded) == 4 * 2  # derive_ipek's own, for the reference above
    del loaded[:]
    registry.register_bdk(0x123456, TdeaKey.from_hex(OTHER_BDK_HEX), overwrite=True)
    assert len(loaded) == 2


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


def test_a_cached_line_advances_a_copy_that_becomes_the_table(registry, terminal, monkeypatch):
    # the host takes the device's own step on a copy of a cached table, once a line, and
    # an accept keeps that copy; a device with no table folds from its IPEK, as the
    # terminal constructor does
    steps = []
    real_advance = key_hierarchy.advance

    def spy(table, ksn, last):
        steps.append((table, ksn, last))
        return real_advance(table, ksn, last)

    monkeypatch.setattr(host, "advance", spy)
    first, _, third = (encode_wire(_message(terminal)) for _ in range(3))  # 2 is lost
    assert registry.handle_wire_line(first) == "OK|1" and steps == []
    assert registry.handle_wire_line(third) == "OK|3"
    [(walk, ksn, last)] = steps
    assert walk is registry._tables[terminal.base_ksn.initial_id]
    assert (ksn, last) == (terminal.ksn.value, 1)


def test_host_table_mirrors_the_terminal_table(bdk, ipek, initial_ksn):
    # after accepting c the host holds the device's table after it issued c, byte
    # for byte; the in-order walk crosses weight 9 to 10 (0x3FF, 0x7FE, ...), where
    # every child would be overweight, so the slots below low(c) stay empty
    rng = random.Random(14)
    weight_10_lows = set()
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
            assert registry._tables[device] == terminal.table
            low = (counter & -counter).bit_length() - 1
            if counter.bit_count() == MAX_COUNTER_WEIGHT:
                assert not any(terminal.table[: 16 * low])
                weight_10_lows.add(low)
            accepted += 1
        assert accepted > 5_000 * delivered * 0.9
    assert {0, 1, 2} <= weight_10_lows


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
    # counter 5 extends counter 4, so a kept table would hand over the old BDK's key(5)
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

    def open_and_wait(*args):
        opened.set()
        release.wait(timeout=120)
        return real_open(*args)

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
    device = terminals[0].base_ksn.initial_id
    key_6, key_8 = table_slot(table, 1), table_slot(table, 3)
    assert registry.last_accepted_counter(device) == 5
    assert table_slot(table, 0) == table_slot(table, 2) == bytes(16)  # counters 5 and 4 are spent
    assert key_6 != bytes(16) and key_8 != bytes(16)
    for _ in range(2):  # counters 6 and 7 never reach the host
        terminals[0].next_transaction_key()
    replaced = table
    assert registry.process_message(_message(terminals[0])).derived_counter == 8
    table = registry._tables[device]
    assert table is not replaced and not any(replaced)  # the accept wiped the table it replaced
    assert registry.last_accepted_counter(device) == 8
    # counter 8 came from slot 3, which it consumes; slot 1 (counter 6) is stale,
    # and the slots below 3 now hold counters 9, 10 and 12
    assert table_slot(table, 3) == bytes(16) and table == terminals[0].table
    assert key_6 not in bytes(table) and key_8 not in bytes(table)
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


@pytest.mark.parametrize("kind", ["forged", "forged far", "replayed", "overweight"])
def test_a_refused_line_leaves_its_cached_table_as_it_was(bdk, kind):
    # a refusal from a cached device keeps that device's table object, its bytes and its
    # place in the eviction order; the least recently accepted device sends it
    registry = HostRegistry()
    registry.register_bdk(0x5A5A5A, bdk)
    a, b = (init_terminal(derive_ipek(bdk, ksn), ksn)
            for ksn in (_device_ksn(0x5A5A5A, i) for i in range(2)))
    for terminal in (a, a, a, b):
        assert registry.process_message(_message(terminal)).accepted
    tables = list(registry._tables.items())
    contents = [bytes(table) for _, table in tables]
    refused, status = {
        "forged": (replace(_message(a), encrypted_data=bytes(16)), VerdictStatus.DECRYPT_FAILED),
        "forged far": (TransactionMessage(a.ksn.with_counter(0x1234), b"\x42" * 8),
                       VerdictStatus.DECRYPT_FAILED),
        "replayed": (TransactionMessage(a.ksn.with_counter(2), b"\x42" * 8),
                     VerdictStatus.REPLAY_REJECTED),
        "overweight": (TransactionMessage(a.ksn.with_counter(0x7FF), b"\x42" * 8),
                       VerdictStatus.OVERWEIGHT_COUNTER_REJECTED),
    }[kind]
    assert registry.process_message(refused).status is status
    assert list(registry._tables) == [device for device, _ in tables]  # the same order
    assert all(registry._tables[device] is table for device, table in tables)
    assert [bytes(table) for _, table in tables] == contents


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


def test_two_senders_a_device_and_a_rekey_thread_keep_each_floor(bdk):
    # the registry lock guards the logs and the table cache: without it, a rekey pops
    # a table a line is committing, or two lines of a device commit from one table
    registry = HostRegistry()
    registry.register_bdk(0x5A5A5A, bdk)
    per_device = []
    for i in range(4):
        ksn = _device_ksn(0x5A5A5A, i)
        terminal = init_terminal(derive_ipek(bdk, ksn), ksn)
        per_device.append([terminal.send(encode_iso0(*CLEAR_BLOCK_ARGS), b"Sale")[0]
                           for _ in range(300)])
    replies: dict[tuple[int, int], list[str]] = {}
    errors: list[Exception] = []
    senders_done = threading.Event()

    def send(device, sender):
        try:
            replies[device, sender] = [registry.handle_wire_line(line)
                                       for line in per_device[device]]
        except Exception as exc:
            errors.append(exc)

    def rekey():
        try:
            while not senders_done.is_set():
                registry.register_bdk(0x5A5A5A, bdk, overwrite=True)
        except Exception as exc:
            errors.append(exc)

    senders = [threading.Thread(target=send, args=(device, sender))
               for device in range(4) for sender in range(2)]
    rekeyer = threading.Thread(target=rekey)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rekeyer.start()
        for t in senders:
            t.start()
        for t in senders:
            t.join(timeout=120)
    finally:
        senders_done.set()
        sys.setswitchinterval(old_interval)
    rekeyer.join(timeout=120)
    assert not any(t.is_alive() for t in [*senders, rekeyer])
    assert errors == []
    for device in range(4):
        both = replies[device, 0] + replies[device, 1]
        assert all(r.startswith("OK|") or r == "ERR|ReplayRejected" for r in both), both
        accepted = [int(r[3:]) for r in both if r.startswith("OK|")]
        assert len(set(accepted)) == len(accepted)  # each counter is accepted once
        assert registry.last_accepted_counter(_device_ksn(0x5A5A5A, device).initial_id) \
            == max(accepted) == 300


def test_every_walk_is_a_table_or_zero_between_lines(monkeypatch, bdk):
    # the host walks every line, from a cached device or one with no table, in a
    # buffer of its own that becomes the device's table only on an accept; after
    # every line, accepted or not, each buffer the host made is a cached table or
    # holds no key: a refused walk and a replaced table are wiped
    made = []

    def recorded(*args):
        made.append(bytearray(*args))
        return made[-1]

    monkeypatch.setattr(host, "bytearray", recorded, raising=False)
    monkeypatch.setattr(host, "TABLE_CACHE_DEVICES", 2)
    registry = HostRegistry()
    registry.register_bdk(0x5A5A5A, bdk)
    terminals = [init_terminal(derive_ipek(bdk, ksn), ksn)
                 for ksn in (_device_ksn(0x5A5A5A, i) for i in range(4))]
    stranger = terminals.pop()  # sends forged lines only

    def device(terminal):
        return terminal.base_ksn.value >> COUNTER_BITS

    def loose_buffers():
        """The buffers the host made that are no cached table, each all zero."""
        cached = {id(t) for t in registry._tables.values()}
        loose = [b for b in made if id(b) not in cached]
        assert not any(any(b) for b in loose), replies[-1]
        return loose

    replies = []
    for n in range(90):
        if n % 5 == 0:
            # a forged line from each device with no table, never seen or evicted,
            # folds from the BDK and fails: no table is kept and the floor stays
            for outsider in [t for t in (*terminals, stranger)
                             if device(t) not in registry._tables]:
                floor = registry.last_accepted_counter(device(outsider))
                forged = replace(_message(outsider), encrypted_data=bytes(16))
                replies.append(registry.handle_wire_line(encode_wire(forged)))
                assert replies[-1] == "ERR|DecryptFailed"
                assert device(outsider) not in registry._tables
                assert registry.last_accepted_counter(device(outsider)) == floor
                assert loose_buffers()
        # mostly one cached device; the other two take turns, evicting each other
        terminal = terminals[0] if n % 5 else terminals[1 + n // 5 % 2]
        msg = _message(terminal)
        counter = msg.ksn.counter
        lines = [encode_wire(msg)]
        if counter % 8 == 4:  # forged first; it folds from slot 2 at least, then fails
            lines.insert(0, encode_wire(replace(msg, encrypted_data=bytes(16))))
        elif counter % 16 in (9, 10, 11):
            continue  # never reaches the host, so the next line is gapped
        for line in lines:
            replies.append(registry.handle_wire_line(line))
            assert loose_buffers() and registry._tables
    # the cached devices' forgeries, the stranger's 18 and the evicted pair's 16
    assert replies.count("ERR|DecryptFailed") >= 8 + 18 + 16
    assert all(r == "ERR|DecryptFailed" or r.startswith("OK|") for r in replies)
    # one buffer a line: each line that reached a walk made one, and nothing else did
    assert len(made) == len(replies)


# --- the two entry points -------------------------------------------------------------

# key-set id -> devices; the last set is never registered
_STREAM_KEY_SETS = {0x5A5A5A: 2, 0xC3C3C3: 2, 0x0F0F0F: 1}
_STREAM_BDKS = {key_set: TdeaKey.from_bytes(random.Random(key_set).randbytes(16))
                for key_set in _STREAM_KEY_SETS}
_STREAM_KINDS = {"honest": 30, "gapped": 8, "replayed": 8, "tampered": 3, "inner": 4,
                 "forged": 3, "overweight": 4, "unknown": 4, "fixed": 3, "ms": 3,
                 "near-miss": 10, "malformed": 5}



def _stream(seed, n_lines=60):
    """A seeded mix of honest, gapped, replayed, tampered, inner-tampered, forged,
    overweight, unknown-key-set, FIXED and MS, near-miss and malformed lines from five
    devices over three key sets. A tampered line is an honest one with its last data
    block zeroed, so its PIN block opens and its data does not. An inner-tampered line
    is an honest one with one data block other than the last replaced, of 3 to 5:
    the wire route decrypts only the last two blocks and the message route all of
    them, yet both refuse it only when the padding breaks. A replaced block before the
    second-to-last leaves the last clear block as sent, so both routes accept the line,
    as they did when both decrypted everything; only a MAC over the line (ROADMAP
    item 1) closes that."""
    rng = random.Random(seed)
    terminals = [init_terminal(derive_ipek(_STREAM_BDKS[key_set], ksn), ksn)
                 for key_set, count in _STREAM_KEY_SETS.items()
                 for ksn in (_device_ksn(key_set, i) for i in range(count))]
    sent = []
    for _ in range(n_lines):
        kind = rng.choices(list(_STREAM_KINDS), weights=list(_STREAM_KINDS.values()))[0]
        term = rng.choice(terminals[:-1] if kind != "unknown" else terminals[-1:])
        ksn = term.base_ksn.with_counter(rng.randrange(1, 1 << 21))
        if kind == "replayed" and sent:
            line = rng.choice(sent)
        elif kind == "near-miss" and sent:
            kinds = ["substitute", "substitute", "insert", "delete"]
            line = edited(rng.choice(sent), [
                (rng.choice(kinds), rng.randrange(1 << 16), rng.choice(EDIT_TOKENS))
                for _ in range(rng.randint(1, 4))])
        elif kind == "malformed":
            line = malformed_line(rng.choice(MALFORMED_TEMPLATES), ksn.hex, rng.randbytes(8).hex())
        elif kind == "overweight":
            counter = sum(1 << b for b in rng.sample(range(21), rng.randint(11, 21)))
            line = encode_wire(TransactionMessage(ksn.with_counter(counter), rng.randbytes(8)))
        elif kind in ("fixed", "ms"):
            scheme = Scheme.FIXED if kind == "fixed" else Scheme.MASTER_SESSION
            wrapped = rng.randbytes(16) if kind == "ms" else None
            line = encode_wire(TransactionMessage(ksn, None, rng.randbytes(16), scheme, wrapped))
        elif kind == "tampered":
            msg = _message(term)
            line = encode_wire(replace(msg, encrypted_data=msg.encrypted_data[:-8]
                                       + bytes(8)))
        elif kind == "inner":
            msg = term.build_message(encode_iso0(*CLEAR_BLOCK_ARGS) if rng.random() < 0.5
                                     else None, rng.randbytes(rng.randrange(17, 40)))
            data = msg.encrypted_data
            at = 8 * rng.randrange(len(data) // 8 - 1)  # any block but the last
            line = encode_wire(replace(msg, encrypted_data=data[:at] + rng.randbytes(8)
                                       + data[at + 8 :]))
        elif kind == "forged":
            line = encode_wire(TransactionMessage(ksn, rng.randbytes(8), rng.randbytes(16)))
        else:
            for _ in range(rng.randint(1, 40) if kind == "gapped" else 0):
                term.issue()
            payload = rng.choice([(True, True), (True, False), (False, True)])
            line = encode_wire(term.build_message(
                encode_iso0(*CLEAR_BLOCK_ARGS) if payload[0] else None,
                rng.randbytes(rng.randrange(1, 40)) if payload[1] else None))
            sent.append(line)
        yield line


def _reply_through_message(registry, line):
    """The reply as perfbench's pre-check builds it: parse_wire, process_message,
    format_reply, with the malformed and unsupported replies written out."""
    try:
        msg = parse_wire(line)
    except WireFormatError:
        return "ERR|MalformedMessage"
    if msg.scheme is not Scheme.DUKPT:
        return "ERR|UnsupportedScheme"
    return format_reply(registry.process_message(msg))


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
@settings(deadline=None)
def test_wire_line_and_message_entry_points_agree(seed):
    wire_host, message_host = HostRegistry(), HostRegistry()
    for key_set in list(_STREAM_BDKS)[:-1]:
        wire_host.register_bdk(key_set, _STREAM_BDKS[key_set])
        message_host.register_bdk(key_set, _STREAM_BDKS[key_set])
    # three tables for four known devices, so evictions happen too
    with mock.patch.object(host, "TABLE_CACHE_DEVICES", 3):
        for line in _stream(seed):
            assert wire_host.handle_wire_line(line) == _reply_through_message(message_host, line)
            assert wire_host._device_log == message_host._device_log
            assert list(wire_host._tables.items()) == list(message_host._tables.items())
