"""Applicability verdicts, simulations, and the clone attack demo."""

import copy
import random
import re

import pytest

from dukptlab import key_hierarchy, scenarios, tdes, wire
from dukptlab.errors import DukptError, ProfileFormatError, ProfileIncompatible
from dukptlab.host import HostRegistry, VerdictStatus, format_reply
from dukptlab.scenarios import (
    BUILTIN_PROFILES,
    ApplicabilityStatus,
    ApplicabilityVerdict,
    CloneAttackReport,
    Dependency,
    EndpointProfile,
    ReasonCode,
    SecureStorage,
    TransactionOrigin,
    applicability_table,
    clone_attack_demo,
    evaluate_applicability,
    load_profiles_file,
    parse_profile_line,
    run_simulation,
)
from dukptlab.terminal import init_terminal
from dukptlab.wire import Scheme, encode_wire, parse_wire


# --- verdict engine ---------------------------------------------------------------

BUILTIN_EXPECTATIONS = {
    "pos": (ApplicabilityStatus.APPLICABLE, frozenset()),
    "sim_se": (
        ApplicabilityStatus.APPLICABLE_WITH_DEPENDENCY,
        frozenset({Dependency.MOBILE_NETWORK_OPERATOR}),
    ),
    "embedded_se": (
        ApplicabilityStatus.APPLICABLE_WITH_DEPENDENCY,
        frozenset({Dependency.DEVICE_MANUFACTURER}),
    ),
    "micro_sd": (
        ApplicabilityStatus.APPLICABLE_WITH_DEPENDENCY,
        frozenset({Dependency.WALLET_PROVIDER}),
    ),
    "browser": (ApplicabilityStatus.NOT_APPLICABLE, frozenset()),
    "cloud_wallet": (ApplicabilityStatus.RULED_OUT, frozenset()),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_EXPECTATIONS))
def test_builtin_profile_verdicts(name):
    status, deps = BUILTIN_EXPECTATIONS[name]
    verdict = evaluate_applicability(BUILTIN_PROFILES[name])
    assert verdict.status is status
    assert verdict.dependency_set == deps


def test_browser_reason_code():
    verdict = evaluate_applicability(BUILTIN_PROFILES["browser"])
    assert verdict.reasons == (ReasonCode.NO_SECURE_IPEK_STORAGE,)


def test_cloud_wallet_reason_codes():
    verdict = evaluate_applicability(BUILTIN_PROFILES["cloud_wallet"])
    assert ReasonCode.SERVER_INITIATED_NO_DEVICE_KEY_RELATIONSHIP in verdict.reasons
    assert ReasonCode.DEPENDENCY_NOT_DESIRABLE in verdict.reasons


def test_server_origin_dominates_storage():
    # even with a perfectly good secure element, server-initiated payment
    # leaves the transacting party without a device key
    profile = EndpointProfile(
        "server_wallet_with_se", SecureStorage.SIM_SE, TransactionOrigin.SERVER
    )
    verdict = evaluate_applicability(profile)
    assert verdict.status is ApplicabilityStatus.RULED_OUT
    assert Dependency.MOBILE_NETWORK_OPERATOR in verdict.dependency_set


def test_non_applicable_statuses_always_carry_reasons():
    for storage in SecureStorage:
        for origin in TransactionOrigin:
            verdict = evaluate_applicability(
                EndpointProfile("x", storage, origin)
            )
            if verdict.status is not ApplicabilityStatus.APPLICABLE:
                assert verdict.reasons


def _reference_verdict(profile):
    """The rules as an ``if`` chain, one branch per outcome, server origin first."""
    se_rules = {
        SecureStorage.SIM_SE: (
            Dependency.MOBILE_NETWORK_OPERATOR, ReasonCode.MOBILE_NETWORK_OPERATOR_DEPENDENCY),
        SecureStorage.EMBEDDED_SE: (
            Dependency.DEVICE_MANUFACTURER, ReasonCode.DEVICE_MANUFACTURER_DEPENDENCY),
        SecureStorage.MICRO_SD_SE: (
            Dependency.WALLET_PROVIDER, ReasonCode.WALLET_PROVIDER_DEPENDENCY),
    }
    deps = set(profile.dependencies)
    se_rule = se_rules.get(profile.secure_key_storage)
    if profile.transaction_origin is TransactionOrigin.SERVER:
        if se_rule:
            deps.add(se_rule[0])
        return ApplicabilityVerdict(
            ApplicabilityStatus.RULED_OUT,
            (ReasonCode.SERVER_INITIATED_NO_DEVICE_KEY_RELATIONSHIP,
             ReasonCode.DEPENDENCY_NOT_DESIRABLE),
            frozenset(deps),
        )
    if profile.secure_key_storage is SecureStorage.NONE:
        return ApplicabilityVerdict(
            ApplicabilityStatus.NOT_APPLICABLE, (ReasonCode.NO_SECURE_IPEK_STORAGE,),
            frozenset(deps))
    if se_rule:
        deps.add(se_rule[0])
        return ApplicabilityVerdict(
            ApplicabilityStatus.APPLICABLE_WITH_DEPENDENCY, (se_rule[1],), frozenset(deps))
    return ApplicabilityVerdict(ApplicabilityStatus.APPLICABLE, (), frozenset(deps))


def test_storage_table_matches_the_reference_on_every_profile():
    subsets = [
        frozenset(d for i, d in enumerate(Dependency) if mask >> i & 1)
        for mask in range(2 ** len(Dependency))
    ]
    profiles = [
        EndpointProfile("x", storage, origin, deps)
        for storage in SecureStorage for origin in TransactionOrigin for deps in subsets
    ]
    assert len(profiles) == 80
    for profile in profiles:
        assert evaluate_applicability(profile) == _reference_verdict(profile), profile


def test_verdict_is_deterministic():
    profile = BUILTIN_PROFILES["sim_se"]
    assert evaluate_applicability(profile) == evaluate_applicability(profile)


# --- profile file format --------------------------------------------------------------

def test_parse_profile_line_variants():
    p = parse_profile_line("kiosk,none,device")
    assert p.secure_key_storage is SecureStorage.NONE
    p = parse_profile_line("wearable, embedded_se, device, manufacturer+wallet")
    assert p.dependencies == frozenset(
        {Dependency.DEVICE_MANUFACTURER, Dependency.WALLET_PROVIDER}
    )
    p = parse_profile_line("veteran,CertifiedDevice,Device,-")
    assert p.secure_key_storage is SecureStorage.CERTIFIED_DEVICE


@pytest.mark.parametrize(
    "line",
    ["", "onlyname", "a,b", "x,floppy,device", "x,none,postal", "x,none,device,carrier_pigeon"],
)
def test_parse_profile_line_rejects(line):
    with pytest.raises(ProfileFormatError):
        parse_profile_line(line)


def test_printed_profile_values_parse_back():
    everyone = EndpointProfile("everyone", SecureStorage.CERTIFIED_DEVICE,
                               TransactionOrigin.DEVICE, frozenset(Dependency))
    rows = [row.split() for row in applicability_table(
        [*BUILTIN_PROFILES.values(), everyone]).splitlines()[1:]]
    for name, storage, origin, _, dependencies, _ in rows:
        profile = parse_profile_line(f"{name},{storage},{origin},{dependencies}")
        assert profile.secure_key_storage.value == storage
        assert profile.transaction_origin.value == origin
        assert ("+".join(sorted(d.value for d in profile.dependencies)) or "-") == dependencies
    assert {row[1] for row in rows} == {s.value for s in SecureStorage}
    assert {row[2] for row in rows} == {o.value for o in TransactionOrigin}
    assert {row[4] for row in rows} >= {d.value for d in Dependency}


def test_load_profiles_file(tmp_path):
    path = tmp_path / "profiles.txt"
    path.write_bytes(
        "# fleet under evaluation at the café\n"  # a comment may hold any byte
        "\n"
        "kiosk,none,device\n"
        "van_pos,certified,device\n".encode("utf-8")
    )
    profiles = load_profiles_file(str(path))
    assert [p.name for p in profiles] == ["kiosk", "van_pos"]
    bad = tmp_path / "bad.txt"
    bad.write_text("x,?,device\n")
    with pytest.raises(ProfileFormatError, match="bad.txt:1"):
        load_profiles_file(str(bad))
    bad.write_bytes("# café\nkiosk,none,device\ncafé,none,device\n".encode("utf-8"))
    with pytest.raises(DukptError, match=f"^{re.escape(str(bad))}:3: record line is not ASCII$"):
        load_profiles_file(str(bad))


def test_applicability_table_lists_all_builtins():
    table = applicability_table()
    for name in BUILTIN_PROFILES:
        assert name in table
    assert "RuledOut" in table and "NotApplicable" in table


# --- simulations ------------------------------------------------------------------------

def test_dukpt_simulation_honest_run():
    report = run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["pos"], 50, seed=1)
    assert report.accepted == 50
    assert report.distinct_keys == 50
    assert not report.ciphertext_reuse


def test_dukpt_simulation_gated_by_verdict():
    with pytest.raises(ProfileIncompatible):
        run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["browser"], 5, seed=1)
    with pytest.raises(ProfileIncompatible):
        run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["cloud_wallet"], 5, seed=1)


def test_dukpt_simulation_allowed_with_dependency():
    report = run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["sim_se"], 10, seed=4)
    assert report.accepted == 10


def test_fixed_simulation_flags_ciphertext_reuse():
    report = run_simulation(Scheme.FIXED, BUILTIN_PROFILES["pos"], 2, seed=1)
    assert report.accepted == 2
    assert report.distinct_keys == 1
    assert report.ciphertext_reuse


def test_ms_simulation_fresh_keys():
    report = run_simulation(Scheme.MASTER_SESSION, BUILTIN_PROFILES["pos"], 25, seed=2)
    assert report.accepted == 25
    assert report.distinct_keys == 25
    assert not report.ciphertext_reuse


def test_simulation_reports_are_reproducible():
    a = run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["pos"], 40, seed=7)
    b = run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["pos"], 40, seed=7)
    assert a.record_line() == b.record_line()
    assert a.table() == b.table()


def test_report_renderings_exclude_elapsed_time():
    report = run_simulation(Scheme.FIXED, BUILTIN_PROFILES["pos"], 3, seed=1)
    assert report.elapsed_seconds > 0
    assert "elapsed" not in report.record_line()
    assert "elapsed" not in report.table()


def test_dukpt_simulation_host_derives_where_the_device_does(monkeypatch):
    # both sides' tables are written by key_hierarchy.fold_chain, which looks
    # derive_children up as a module global, so this records the parent counter of
    # every non-empty run on either side. The host keeps the device's table, so each
    # side derives the IPEK's 21 children once (the device at init, the host for
    # counter 1) and then the children of each even counter 2-100 (a fold per
    # message from the IPEK would take 319 steps)
    parents = []
    real_derive_children = key_hierarchy.derive_children

    def recording_derive_children(material, ksn, prefix, low, high):
        if low < high:
            parents.append(prefix)
        return real_derive_children(material, ksn, prefix, low, high)

    monkeypatch.setattr(key_hierarchy, "derive_children", recording_derive_children)
    report = run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["pos"], 100, seed=0)
    assert sorted(parents) == sorted(2 * [0, *range(2, 101, 2)])
    assert report.distinct_keys == 100


@pytest.mark.parametrize("scheme,builds", [
    (Scheme.DUKPT, 608),  # per-transaction keys: every use builds its cipher
    (Scheme.FIXED, 2),  # the key, loaded once by the terminal and once by the host
    (Scheme.MASTER_SESSION, 202),  # the KEK, loaded on each side, plus two per session key
])
def test_simulation_cipher_builds(cipher_builds, scheme, builds):
    report = run_simulation(scheme, BUILTIN_PROFILES["pos"], 100, seed=0)
    assert len(cipher_builds) == builds
    assert report.accepted == 100


@pytest.mark.parametrize("scheme,built_keys", [
    # the BDK and the terminal's IPEK; the host derives the first message's IPEK
    # as bytes from its loaded BDK, and every transaction key stays bytes on both sides
    (Scheme.DUKPT, 2),
    (Scheme.FIXED, 1),  # the permanent key
    (Scheme.MASTER_SESSION, 1),  # the KEK; the sender takes each session key as bytes
], ids=["DUKPT", "FIXED", "MS"])
def test_simulation_key_objects(monkeypatch, scheme, built_keys):
    built = 0
    real_post_init = key_hierarchy.TdeaKey.__post_init__

    def counting_post_init(self):
        nonlocal built
        built += 1
        real_post_init(self)

    monkeypatch.setattr(key_hierarchy.TdeaKey, "__post_init__", counting_post_init)
    report = run_simulation(scheme, BUILTIN_PROFILES["pos"], 100, seed=0)
    assert built == built_keys
    assert report.accepted == 100


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_simulation_lines_take_no_message_object(monkeypatch, scheme):
    # each sender writes its line with encode_fields and each receiver reads it with
    # parse_fields or, for DUKPT, one handle_wire_line call per transaction: with the
    # message route refusing, a run reports exactly what an unpatched run does
    expected = run_simulation(scheme, BUILTIN_PROFILES["pos"], 25, seed=3)
    lines = []
    real_handle = HostRegistry.handle_wire_line

    def handle(self, line):
        lines.append(line)
        return real_handle(self, line)

    def refuse(*args, **kwargs):
        raise AssertionError("a simulated line took the message route")

    monkeypatch.setattr(wire.TransactionMessage, "__post_init__", refuse)
    monkeypatch.setattr(wire, "parse_wire", refuse)
    monkeypatch.setattr(wire, "encode_wire", refuse)
    monkeypatch.setattr(HostRegistry, "process_message", refuse)
    monkeypatch.setattr(HostRegistry, "handle_wire_line", handle)
    report = run_simulation(scheme, BUILTIN_PROFILES["pos"], 25, seed=3)
    assert report == expected and report.accepted == 25
    assert report.table() == expected.table()
    assert len(lines) == len(set(lines)) == (25 if scheme is Scheme.DUKPT else 0)
    assert not ({"TransactionMessage", "parse_wire", "encode_wire", "seal", "_dukpt_sender"}
                & set(vars(scenarios)))


@pytest.mark.parametrize("reply", ["ERR|MalformedMessage", "ERR|UnsupportedScheme", "OK|", "?"])
def test_a_reply_that_names_no_status_stops_the_simulation(monkeypatch, reply):
    # a reply outside OK|<n> and the verdict set is an error, not a count
    monkeypatch.setattr(HostRegistry, "handle_wire_line", lambda self, line: reply)
    with pytest.raises(ValueError, match="not a verdict reply"):
        run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["pos"], 3, seed=3)


def test_simulation_counts_each_status_its_host_replies(monkeypatch):
    replies = iter(["OK|1", "ERR|ReplayRejected", "ERR|DecryptFailed", "OK|4"])
    monkeypatch.setattr(HostRegistry, "handle_wire_line", lambda self, line: next(replies))
    report = run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["pos"], 4, seed=3)
    assert report.status_counts == {**{s: 0 for s in VerdictStatus},
                                    VerdictStatus.ACCEPTED: 2,
                                    VerdictStatus.REPLAY_REJECTED: 1,
                                    VerdictStatus.DECRYPT_FAILED: 1}
    assert report.distinct_keys == 2


def test_simulation_rejects_bad_count():
    with pytest.raises(ValueError):
        run_simulation(Scheme.DUKPT, BUILTIN_PROFILES["pos"], 0, seed=1)


def test_simulation_rejects_an_unknown_scheme():
    with pytest.raises(ValueError, match="^unknown scheme 'DUKPT'$"):
        run_simulation("DUKPT", BUILTIN_PROFILES["pos"], 1, seed=1)


# --- clone attack -------------------------------------------------------------------------

def test_clone_demo_with_policy():
    report = clone_attack_demo(10, 10, seed=3)
    assert report.clone_first_accepted
    assert report.legit_replay_rejected
    assert report.replay_rejected == 9
    assert report.accepted == 11
    assert len(report.reply_lines) == 20


def test_clone_demo_without_policy():
    report = clone_attack_demo(10, 10, seed=3, enforce_replay=False)
    assert report.clone_first_accepted
    assert not report.legit_replay_rejected
    assert report.replay_rejected == 0
    assert report.accepted == 20


@pytest.mark.parametrize("enforce_replay, replies", [
    (True, ["OK|1", "OK|2", "ERR|ReplayRejected", "OK|3", "ERR|ReplayRejected",
            "OK|4", "ERR|ReplayRejected", "OK|5"]),
    (False, ["OK|1", "OK|2", "OK|2", "OK|3", "OK|3", "OK|4", "OK|4", "OK|5"]),
], ids=["policy", "no_policy"])
def test_clone_demo_reply_trace(enforce_replay, replies):
    # theft after counter 1; then clone and original alternate, clone first
    report = clone_attack_demo(4, 4, seed=11, enforce_replay=enforce_replay)
    assert report.reply_lines == replies


def test_clone_demo_exactly_one_acceptance_per_counter_pair():
    report = clone_attack_demo(6, 6, seed=1)
    # counters 2..6 collide once each: one OK, one ERR per pair
    ok = sum(1 for line in report.reply_lines if line.startswith("OK"))
    err = sum(1 for line in report.reply_lines if line.startswith("ERR"))
    assert ok == report.accepted and err == report.replay_rejected
    assert report.replay_rejected == 5


def _reference_clone_report(n_legit, n_clone, seed, enforce_replay):
    """The demo's schedule as counted sends, each through process_message."""
    rng = random.Random(seed)
    bdk = key_hierarchy.TdeaKey(rng.randbytes(16), key_hierarchy.KeyRole.BASE_DERIVATION)
    initial_ksn = key_hierarchy.Ksn(rng.randbytes(10)).base
    legit = init_terminal(key_hierarchy.derive_ipek(bdk, initial_ksn), initial_ksn)

    def host():
        registry = HostRegistry()
        registry.register_bdk(initial_ksn.key_set_id, bdk)
        return registry

    registry = host()
    replies, counts = [], {status: 0 for status in VerdictStatus}

    def send(term):
        line = encode_wire(term.build_message(data=b"checkout-request"))
        verdict = (registry if enforce_replay else host()).process_message(parse_wire(line))
        replies.append(format_reply(verdict))
        counts[verdict.status] += 1
        return verdict.status

    send(legit)
    clone = copy.deepcopy(legit)
    clone_first = send(clone) if n_clone >= 1 else None
    legit_after = send(legit) if n_legit >= 2 else None
    clone_left, legit_left = max(n_clone - 1, 0), max(n_legit - 2, 0)
    while clone_left or legit_left:
        if clone_left:
            send(clone)
            clone_left -= 1
        if legit_left:
            send(legit)
            legit_left -= 1
    return CloneAttackReport(
        clone_first_accepted=clone_first is VerdictStatus.ACCEPTED,
        legit_replay_rejected=legit_after is VerdictStatus.REPLAY_REJECTED,
        accepted=counts[VerdictStatus.ACCEPTED],
        replay_rejected=counts[VerdictStatus.REPLAY_REJECTED],
        reply_lines=replies,
    )


@pytest.mark.parametrize("enforce_replay", [True, False], ids=["policy", "no_policy"])
@pytest.mark.parametrize("seed", [1, 11])
@pytest.mark.parametrize("n_legit, n_clone", [(1, 0), (1, 3), (3, 0), (2, 5), (6, 2), (4, 4)])
def test_clone_demo_matches_the_reference_schedule(n_legit, n_clone, seed, enforce_replay):
    report = clone_attack_demo(n_legit, n_clone, seed=seed, enforce_replay=enforce_replay)
    expected = _reference_clone_report(n_legit, n_clone, seed, enforce_replay)
    assert report == expected  # every field, the reply lines included


def test_clone_demo_validates_args():
    with pytest.raises(ValueError, match="^n_legit must be at least 1$"):
        clone_attack_demo(0, 5, seed=1)
    with pytest.raises(ValueError, match="^n_clone must be at least 0$"):
        clone_attack_demo(2, -3, seed=1)
