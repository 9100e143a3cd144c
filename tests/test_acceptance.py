"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The register-equivalence sweep walks the entire counter space
once (about a million transactions) and is the slow part of the suite;
everything else is desk-scale.
"""

import random

import pytest

from dukptlab.baseline import (
    FixedKeyTerminal,
    MasterSessionContext,
    fixed_encrypt,
    ms_unwrap_session,
    ms_wrap_session,
)
from dukptlab.errors import CounterExhausted
from dukptlab.host import HostRegistry
from dukptlab.key_hierarchy import (
    COUNTER_MASK,
    COUNTER_SPACE,
    MAX_COUNTER_WEIGHT,
    KeyRole,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    next_counter,
    parse_ksn,
)
from dukptlab.pin_block import decode_iso0, encode_iso0
from dukptlab.scenarios import BUILTIN_PROFILES, clone_attack_demo, evaluate_applicability
from dukptlab.terminal import decrypt_data, decrypt_pin, encrypt_data, encrypt_pin, init_terminal

from conftest import (
    INTEROP_BDK_HEX,
    INTEROP_IPEK_HEX,
    INTEROP_KSN_HEX,
    INTEROP_PAN,
    INTEROP_PIN,
    ISO0_CLEAR_BLOCK_HEX,
)


@pytest.fixture(scope="module")
def full_sweep(ipek, initial_ksn):
    """Drive one terminal through its whole life, checking as it goes."""
    terminal = init_terminal(ipek, initial_ksn)
    transactions = 0
    previous = 0
    monotone = True
    weights_ok = True
    first_5000 = []
    low_weight_checked = 0
    low_weight_mismatches = 0
    while True:
        try:
            counter, material = terminal.issue()
        except CounterExhausted:
            break
        transactions += 1
        monotone = monotone and counter > previous
        weights_ok = weights_ok and counter.bit_count() <= MAX_COUNTER_WEIGHT
        previous = counter
        if transactions <= 5000:
            first_5000.append(material)
        if counter.bit_count() <= 5:
            low_weight_checked += 1
            if material != derive_key_chain(ipek, initial_ksn.with_counter(counter)).material:
                low_weight_mismatches += 1
    remaining_after = terminal.remaining_transactions()
    try:
        terminal.issue()
        refused_again = False
    except CounterExhausted:
        refused_again = True
    return {
        "transactions": transactions,
        "monotone": monotone,
        "weights_ok": weights_ok,
        "first_5000": first_5000,
        "low_weight_checked": low_weight_checked,
        "low_weight_mismatches": low_weight_mismatches,
        "remaining_after": remaining_after,
        "refused_again": refused_again,
        "final_counter": previous,
    }


def test_c01_interop_ipek_vector(bdk, initial_ksn):
    """Initial-key derivation matches the independently pinned vector."""
    ipek = derive_ipek(bdk, initial_ksn)
    assert ipek.hex == INTEROP_IPEK_HEX
    assert bdk.hex == INTEROP_BDK_HEX and initial_ksn.hex == INTEROP_KSN_HEX
    print("\nACCEPTANCE C01 PASS: interop IPEK vector matches exactly")


def test_c02_key_agreement_5000_transactions(bdk, ipek, initial_ksn):
    """Host re-derivation equals the terminal key for 5,000 straight runs."""
    registry = HostRegistry()
    registry.register_bdk(initial_ksn.key_set_id, bdk)
    terminal = init_terminal(ipek, initial_ksn)
    for _ in range(5000):
        ksn, key = terminal.next_transaction_key()
        assert registry.rederive_key(ksn) == key
    print("ACCEPTANCE C02 PASS: key agreement exact over 5000 transactions")


def test_c03_register_algorithm_equivalence(full_sweep):
    """Register-table keys equal the direct fold, exhaustively at low weight.

    Every counter of weight <= 5 (a strict superset of the weight <= 4 set)
    is compared; that is 27,895 counters reached through the real stateful
    register walk.
    """
    assert full_sweep["low_weight_checked"] == 27_895
    assert full_sweep["low_weight_mismatches"] == 0
    print(
        "ACCEPTANCE C03 PASS: register keys equal direct fold on all "
        f"{full_sweep['low_weight_checked']} counters of weight <= 5"
    )


def test_c04_counter_space_enumeration(full_sweep):
    """next_counter visits exactly the weight-bounded space, in order."""
    # independent brute-force oracle over all 21-bit values
    walker = 0
    visited = 0
    for expected in (
        v for v in range(1, COUNTER_MASK + 1) if v.bit_count() <= MAX_COUNTER_WEIGHT
    ):
        walker = next_counter(walker)
        assert walker == expected
        visited += 1
    assert visited == 1_048_575 == COUNTER_SPACE
    with pytest.raises(CounterExhausted):
        next_counter(walker)
    # and the stateful terminal burned precisely that space
    assert full_sweep["transactions"] == 1_048_575
    assert full_sweep["monotone"] and full_sweep["weights_ok"]
    assert full_sweep["remaining_after"] == 0 and full_sweep["refused_again"]
    print("ACCEPTANCE C04 PASS: exactly 1048575 usable counters, strictly increasing, then exhausted")


def test_c05_key_uniqueness_first_5000(full_sweep):
    """No collision among the first 5,000 issued transaction keys."""
    keys = full_sweep["first_5000"]
    assert len(keys) == 5000
    assert len(set(keys)) == 5000
    print("ACCEPTANCE C05 PASS: first 5000 transaction keys pairwise distinct")


def test_c06_forward_erasure(ipek, initial_ksn):
    """After counter c (c <= 64), no stored key equals any key(c') for c' <= c."""
    spent_key_material = {
        derive_key_chain(ipek, initial_ksn.with_counter(c)).material: c
        for c in range(1, 65)
    }
    terminal = init_terminal(ipek, initial_ksn)
    while terminal.counter < 64:
        terminal.next_transaction_key()
        current = terminal.counter
        for q in range(21):
            material = bytes(terminal.table[16 * q : 16 * q + 16])
            if material != bytes(16):  # an all-zero slot is empty
                past = spent_key_material.get(material)
                assert past is None or past > current
                assert material != ipek.material
    print("ACCEPTANCE C06 PASS: forward erasure holds exhaustively for counters <= 64")


def test_c07_round_trips_and_iso0_vector(ipek, initial_ksn):
    """PIN-block and cipher round trips over 1,000 random cases each."""
    rng = random.Random(20250101)
    for _ in range(1000):
        pin = "".join(rng.choice("0123456789") for _ in range(rng.randrange(4, 13)))
        pan = "".join(rng.choice("0123456789") for _ in range(rng.randrange(13, 20)))
        assert decode_iso0(encode_iso0(pin, pan), pan) == pin
    key = derive_key_chain(ipek, initial_ksn.with_counter(1))
    for _ in range(1000):
        block = rng.randbytes(8)
        assert decrypt_pin(key, encrypt_pin(key, block)) == block
        payload = rng.randbytes(rng.randrange(1, 64))
        assert decrypt_data(key, encrypt_data(key, payload)) == payload
    assert encode_iso0(INTEROP_PIN, INTEROP_PAN).hex().upper() == ISO0_CLEAR_BLOCK_HEX
    print("ACCEPTANCE C07 PASS: 1000+1000 round trips and the hand-computed format-0 vector")


def test_c08_replay_and_cloning():
    """50/50 interleaved clone traffic: >= 49 rejections with policy, 0 without."""
    with_policy = clone_attack_demo(50, 50, seed=17, enforce_replay=True)
    assert with_policy.clone_first_accepted
    assert with_policy.legit_replay_rejected
    assert with_policy.replay_rejected >= 49
    without_policy = clone_attack_demo(50, 50, seed=17, enforce_replay=False)
    assert without_policy.replay_rejected == 0
    assert without_policy.accepted == 100
    print(
        "ACCEPTANCE C08 PASS: cloning demo rejected "
        f"{with_policy.replay_rejected} with policy, 0 without"
    )


def test_c09_applicability_regression():
    """The built-in endpoint table reproduces the analysis exactly."""
    expected = {
        "pos": ("Applicable", set()),
        "sim_se": ("ApplicableWithDependency", {"MobileNetworkOperator"}),
        "embedded_se": ("ApplicableWithDependency", {"DeviceManufacturer"}),
        "micro_sd": ("ApplicableWithDependency", {"WalletProvider"}),
        "browser": ("NotApplicable", set()),
        "cloud_wallet": ("RuledOut", set()),
    }
    assert set(BUILTIN_PROFILES) == set(expected)
    for name, (status, dependencies) in expected.items():
        verdict = evaluate_applicability(BUILTIN_PROFILES[name])
        assert verdict.status.value == status, name
        assert {d.value for d in verdict.dependency_set} == dependencies, name
    print("ACCEPTANCE C09 PASS: all six endpoint verdicts reproduce the analysis")


def test_c10_scheme_contrast(ipek, initial_ksn):
    """Fixed key repeats ciphertexts; per-transaction keys never do; M/S wraps invert."""
    fixed_key = TdeaKey.from_hex("89ABCDEF010203040506070809ABCDEF", KeyRole.BASE_DERIVATION)
    fixed = FixedKeyTerminal(fixed_key, parse_ksn("00BB0000000000000000"))
    assert fixed_encrypt(fixed, b"AMT=4200") == fixed_encrypt(fixed, b"AMT=4200")

    terminal = init_terminal(ipek, initial_ksn)
    first = terminal.build_message(data=b"AMT=4200").encrypted_data
    second = terminal.build_message(data=b"AMT=4200").encrypted_data
    assert first != second

    rng = random.Random(55)
    kek = TdeaKey.from_bytes(rng.randbytes(16), KeyRole.BASE_DERIVATION)
    ctx = MasterSessionContext(kek, random_source=rng.randbytes)
    for _ in range(1000):
        wrapped, session = ms_wrap_session(ctx)
        assert ms_unwrap_session(kek, wrapped) == session
    print("ACCEPTANCE C10 PASS: fixed-key reuse, per-transaction freshness, 1000 M/S wrap identities")
