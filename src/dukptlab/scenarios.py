"""Endpoint applicability analysis and end-to-end scheme simulations.

Per-transaction key derivation needs a pre-established cryptographic
relationship between the endpoint and the host: an initial key injected
into storage the endpoint actually controls. Whether that exists, and who
you depend on for it, is a property of the endpoint:

* certified payment hardware: yes, unconditionally;
* a SIM/UICC secure element: yes, but the mobile network operator owns it;
* an embedded secure element: yes, if the device manufacturer opens it up;
* a micro-SD secure element: yes, but the wallet provider must distribute
  (and the user must carry) the card;
* a plain browser: no — there is nowhere to keep the initial key;
* a cloud wallet, where the *server* initiates payment: ruled out — the
  transacting party has no device-side key at all, and any workaround
  reintroduces one of the dependencies above.

:func:`evaluate_applicability` encodes those rules deterministically, one
reason code each, and gates the simulator: no run ever installs an initial
key into a profile with no secure storage.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass, field
from enum import Enum

from . import tdes
from .baseline import FixedKeyTerminal, MasterSessionContext, fixed_encrypt, ms_wrap_session
from .errors import DecryptFailed, ProfileFormatError, ProfileIncompatible
from .host import HostRegistry, VerdictStatus
from .key_hierarchy import KeyRole, Ksn, TdeaKey, derive_ipek, seal
from .pin_block import encode_iso0
from .terminal import TerminalState, init_terminal
from .wire import Scheme, TransactionMessage, encode_wire, parse_wire


class SecureStorage(Enum):
    CERTIFIED_DEVICE = "CertifiedDevice"
    SIM_SE = "SimSE"
    EMBEDDED_SE = "EmbeddedSE"
    MICRO_SD_SE = "MicroSdSE"
    NONE = "None"


class TransactionOrigin(Enum):
    DEVICE = "Device"
    SERVER = "Server"


class Dependency(Enum):
    MOBILE_NETWORK_OPERATOR = "MobileNetworkOperator"
    DEVICE_MANUFACTURER = "DeviceManufacturer"
    WALLET_PROVIDER = "WalletProvider"


class ApplicabilityStatus(Enum):
    APPLICABLE = "Applicable"
    APPLICABLE_WITH_DEPENDENCY = "ApplicableWithDependency"
    NOT_APPLICABLE = "NotApplicable"
    RULED_OUT = "RuledOut"


class ReasonCode(Enum):
    NO_SECURE_IPEK_STORAGE = "NoSecureIpekStorage"
    SERVER_INITIATED_NO_DEVICE_KEY_RELATIONSHIP = "ServerInitiatedNoDeviceKeyRelationship"
    DEPENDENCY_NOT_DESIRABLE = "DependencyNotDesirable"
    MOBILE_NETWORK_OPERATOR_DEPENDENCY = "MobileNetworkOperatorDependency"
    DEVICE_MANUFACTURER_DEPENDENCY = "DeviceManufacturerDependency"
    WALLET_PROVIDER_DEPENDENCY = "WalletProviderDependency"


@dataclass(frozen=True)
class EndpointProfile:
    """A transaction endpoint as the verdict engine sees it."""

    name: str
    secure_key_storage: SecureStorage
    transaction_origin: TransactionOrigin
    dependencies: frozenset[Dependency] = frozenset()


@dataclass(frozen=True)
class ApplicabilityVerdict:
    status: ApplicabilityStatus
    reasons: tuple[ReasonCode, ...]
    dependency_set: frozenset[Dependency]

    @property
    def permits_dukpt(self) -> bool:
        return self.status in (
            ApplicabilityStatus.APPLICABLE,
            ApplicabilityStatus.APPLICABLE_WITH_DEPENDENCY,
        )


# a device-started verdict by where the key is kept: (status, dependency it brings, reasons)
_STORAGE_RULES = {
    SecureStorage.CERTIFIED_DEVICE: (ApplicabilityStatus.APPLICABLE, None, ()),
    SecureStorage.SIM_SE: (
        ApplicabilityStatus.APPLICABLE_WITH_DEPENDENCY,
        Dependency.MOBILE_NETWORK_OPERATOR,
        (ReasonCode.MOBILE_NETWORK_OPERATOR_DEPENDENCY,),
    ),
    SecureStorage.EMBEDDED_SE: (
        ApplicabilityStatus.APPLICABLE_WITH_DEPENDENCY,
        Dependency.DEVICE_MANUFACTURER,
        (ReasonCode.DEVICE_MANUFACTURER_DEPENDENCY,),
    ),
    SecureStorage.MICRO_SD_SE: (
        ApplicabilityStatus.APPLICABLE_WITH_DEPENDENCY,
        Dependency.WALLET_PROVIDER,
        (ReasonCode.WALLET_PROVIDER_DEPENDENCY,),
    ),
    SecureStorage.NONE: (
        ApplicabilityStatus.NOT_APPLICABLE,
        None,
        (ReasonCode.NO_SECURE_IPEK_STORAGE,),
    ),
}


def evaluate_applicability(profile: EndpointProfile) -> ApplicabilityVerdict:
    """Deterministic verdict for one endpoint profile.

    Rule order: the storage decides a device-started transaction's status,
    reasons and the dependency it adds to the profile's own; a server-started
    transaction then overrides status and reasons with ``RuledOut`` (the
    initiating party holds no device key, whatever the storage) and keeps
    the dependency set.
    """
    status, dependency, reasons = _STORAGE_RULES[profile.secure_key_storage]
    dependencies = frozenset({*profile.dependencies, dependency} - {None})
    if profile.transaction_origin is TransactionOrigin.SERVER:
        status = ApplicabilityStatus.RULED_OUT
        reasons = (
            ReasonCode.SERVER_INITIATED_NO_DEVICE_KEY_RELATIONSHIP,
            ReasonCode.DEPENDENCY_NOT_DESIRABLE,
        )
    return ApplicabilityVerdict(status, reasons, dependencies)


BUILTIN_PROFILES: dict[str, EndpointProfile] = {
    p.name: p
    for p in (
        EndpointProfile("pos", SecureStorage.CERTIFIED_DEVICE, TransactionOrigin.DEVICE),
        EndpointProfile("sim_se", SecureStorage.SIM_SE, TransactionOrigin.DEVICE),
        EndpointProfile("embedded_se", SecureStorage.EMBEDDED_SE, TransactionOrigin.DEVICE),
        EndpointProfile("micro_sd", SecureStorage.MICRO_SD_SE, TransactionOrigin.DEVICE),
        EndpointProfile("browser", SecureStorage.NONE, TransactionOrigin.DEVICE),
        EndpointProfile("cloud_wallet", SecureStorage.NONE, TransactionOrigin.SERVER),
    )
}


# each kind parses from its printed value, case-insensitively, or one short name
_STORAGE_TOKENS = {
    **{s.value.casefold(): s for s in SecureStorage},
    "certified": SecureStorage.CERTIFIED_DEVICE,
    "sim_se": SecureStorage.SIM_SE,
    "embedded_se": SecureStorage.EMBEDDED_SE,
    "micro_sd": SecureStorage.MICRO_SD_SE,
}

_ORIGIN_TOKENS = {o.value.casefold(): o for o in TransactionOrigin}

_DEPENDENCY_TOKENS = {
    **{d.value.casefold(): d for d in Dependency},
    "operator": Dependency.MOBILE_NETWORK_OPERATOR,
    "manufacturer": Dependency.DEVICE_MANUFACTURER,
    "wallet": Dependency.WALLET_PROVIDER,
}


def parse_profile_line(line: str) -> EndpointProfile:
    """Parse ``name,storage,origin[,dep1+dep2]``; tokens are case-insensitive."""
    parts = [p.strip() for p in line.split(",")]
    if len(parts) not in (3, 4) or not parts[0]:
        raise ProfileFormatError(f"expected name,storage,origin[,deps]: {line!r}")
    storage = _STORAGE_TOKENS.get(parts[1].casefold())
    if storage is None:
        raise ProfileFormatError(f"unknown storage token {parts[1]!r}")
    origin = _ORIGIN_TOKENS.get(parts[2].casefold())
    if origin is None:
        raise ProfileFormatError(f"unknown origin token {parts[2]!r}")
    deps: set[Dependency] = set()
    if len(parts) == 4 and parts[3] not in ("", "-"):
        for token in parts[3].split("+"):
            dep = _DEPENDENCY_TOKENS.get(token.strip().casefold())
            if dep is None:
                raise ProfileFormatError(f"unknown dependency token {token!r}")
            deps.add(dep)
    return EndpointProfile(parts[0], storage, origin, frozenset(deps))


def load_profiles_file(path: str) -> list[EndpointProfile]:
    """One profile per line; ``#`` comments and blank lines are skipped."""
    profiles = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                profiles.append(parse_profile_line(stripped))
            except ProfileFormatError as exc:
                raise ProfileFormatError(f"{path}:{lineno}: {exc}") from exc
    return profiles


def applicability_table(profiles: list[EndpointProfile] | None = None) -> str:
    """Plain-text verdict table, one row per profile."""
    profiles = list(BUILTIN_PROFILES.values()) if profiles is None else profiles
    rows = [("profile", "storage", "origin", "status", "dependencies", "reasons")]
    for profile in profiles:
        verdict = evaluate_applicability(profile)
        rows.append(
            (
                profile.name,
                profile.secure_key_storage.value,
                profile.transaction_origin.value,
                verdict.status.value,
                "+".join(sorted(d.value for d in verdict.dependency_set)) or "-",
                "+".join(r.value for r in verdict.reasons) or "-",
            )
        )
    return _columns(rows)


def _columns(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned text columns two spaces apart, with no trailing blanks."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    )


@dataclass
class SimulationReport:
    """Counts from one simulation run.

    ``elapsed_seconds`` is measured wall time and is deliberately excluded
    from both renderings so identical (scheme, profile, count, seed) runs
    produce byte-identical output.
    """

    scheme: Scheme
    profile: str
    transactions: int
    status_counts: dict[VerdictStatus, int]
    distinct_keys: int
    ciphertext_reuse: bool
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def accepted(self) -> int:
        return self.status_counts.get(VerdictStatus.ACCEPTED, 0)

    def _fields(self) -> list[tuple[str, str]]:
        pairs = [
            ("scheme", self.scheme.value),
            ("profile", self.profile),
            ("transactions", str(self.transactions)),
        ]
        for status in VerdictStatus:
            label = "accepted" if status is VerdictStatus.ACCEPTED else f"rejected_{status.value}"
            pairs.append((label, str(self.status_counts.get(status, 0))))
        pairs.append(("distinct_keys", str(self.distinct_keys)))
        pairs.append(("ciphertext_reuse", "yes" if self.ciphertext_reuse else "no"))
        return pairs

    def record_line(self) -> str:
        """Machine-readable ``field=value`` pairs, one record per line."""
        return " ".join(f"{k}={v}" for k, v in self._fields())

    def table(self) -> str:
        return _columns(self._fields())


def _random_initial_ksn(rng: random.Random) -> Ksn:
    return Ksn(rng.randbytes(10)).base


def _provision_dukpt(rng: random.Random) -> tuple[TdeaKey, TerminalState]:
    bdk = TdeaKey(rng.randbytes(16), KeyRole.BASE_DERIVATION)
    initial_ksn = _random_initial_ksn(rng)
    return bdk, init_terminal(derive_ipek(bdk, initial_ksn), initial_ksn)


def _host_for(bdk: TdeaKey, term: TerminalState) -> HostRegistry:
    registry = HostRegistry()
    registry.register_bdk(term.base_ksn.key_set_id, bdk)
    return registry


def run_simulation(
    scheme: Scheme,
    profile: EndpointProfile,
    count: int,
    seed: int,
) -> SimulationReport:
    """Drive ``count`` terminal-to-host transactions over the wire format.

    The applicability verdict gates per-transaction derivation: profiles it
    does not permit never receive an initial key and the run refuses with
    :class:`ProfileIncompatible`. Every transaction in a run carries the
    same (seed-derived) payload, which is what makes the fixed-key scheme's
    ciphertext reuse — and its absence under per-transaction keys —
    directly observable in the report. ``distinct_keys`` counts the keys
    the senders used for accepted transactions.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if scheme is Scheme.DUKPT:
        verdict = evaluate_applicability(profile)
        if not verdict.permits_dukpt:
            raise ProfileIncompatible(
                f"profile {profile.name!r}: {verdict.status.value} "
                f"({'+'.join(r.value for r in verdict.reasons)})"
            )
    start = time.perf_counter()
    rng = random.Random(seed)
    pin = "".join(rng.choice("0123456789") for _ in range(4))
    pan = "4" + "".join(rng.choice("0123456789") for _ in range(12))
    clear_block = encode_iso0(pin, pan)
    payload = f"AMT={rng.randrange(100, 100000):06d};MERCHANT={rng.randrange(10**8):08d}".encode()

    # each branch provisions (its RNG draws, in this order, fix the report for
    # a seed) and defines one transaction's terminal side, which returns the
    # message with the key it used, and host side
    if scheme is Scheme.DUKPT:
        bdk, term = _provision_dukpt(rng)
        registry = _host_for(bdk, term)

        def send() -> tuple[TransactionMessage, bytes]:
            material = term.issue()[1]
            return TransactionMessage(term.ksn, *seal(material, clear_block, payload)), material

        def receive(msg: TransactionMessage) -> VerdictStatus:
            return registry.process_message(msg).status

    elif scheme is Scheme.FIXED:
        key = TdeaKey(rng.randbytes(16), KeyRole.BASE_DERIVATION)
        term_fixed = FixedKeyTerminal(key, _random_initial_ksn(rng))
        host_key = tdes.TdeaCipher(key.material)

        def send() -> tuple[TransactionMessage, bytes]:
            return TransactionMessage(
                term_fixed.terminal_id,
                encrypted_data=fixed_encrypt(term_fixed, payload),
                scheme=Scheme.FIXED,
            ), key.material

        def receive(msg: TransactionMessage) -> VerdictStatus:
            host_key.cbc_decrypt(msg.encrypted_data)
            return VerdictStatus.ACCEPTED

    elif scheme is Scheme.MASTER_SESSION:
        kek = TdeaKey(rng.randbytes(16), KeyRole.BASE_DERIVATION)
        ctx = MasterSessionContext(kek, random_source=rng.randbytes)
        device_id = _random_initial_ksn(rng)
        host_kek = tdes.TdeaCipher(kek.material)

        def send() -> tuple[TransactionMessage, bytes]:
            wrapped, session = ms_wrap_session(ctx)
            return TransactionMessage(
                device_id,
                encrypted_data=tdes.cbc_encrypt(session.material, payload),
                scheme=Scheme.MASTER_SESSION,
                wrapped_session_key=wrapped,
            ), session.material

        def receive(msg: TransactionMessage) -> VerdictStatus:
            # an MS message holds a 16-byte wrapped key, the check ms_unwrap_session makes
            tdes.cbc_decrypt(host_kek.ecb_decrypt(msg.wrapped_session_key), msg.encrypted_data)
            return VerdictStatus.ACCEPTED

    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    status_counts: dict[VerdictStatus, int] = {s: 0 for s in VerdictStatus}
    seen_keys: set[bytes] = set()
    seen_ciphertexts: set[tuple[bytes | None, bytes | None]] = set()
    for _ in range(count):
        sent, material = send()
        msg = parse_wire(encode_wire(sent))
        try:
            status = receive(msg)
        except DecryptFailed:
            status = VerdictStatus.DECRYPT_FAILED
        status_counts[status] += 1
        if status is VerdictStatus.ACCEPTED:
            seen_keys.add(material)
        seen_ciphertexts.add((msg.encrypted_pin_block, msg.encrypted_data))

    return SimulationReport(
        scheme=scheme,
        profile=profile.name,
        transactions=count,
        status_counts=status_counts,
        distinct_keys=len(seen_keys),
        ciphertext_reuse=len(seen_ciphertexts) < count,
        elapsed_seconds=time.perf_counter() - start,
    )


@dataclass
class CloneAttackReport:
    """Outcome of replaying a device whose full state was copied."""

    clone_first_accepted: bool
    legit_replay_rejected: bool
    accepted: int
    replay_rejected: int
    reply_lines: list[str] = field(default_factory=list, repr=False)


def clone_attack_demo(
    n_legit: int,
    n_clone: int,
    seed: int = 0,
    enforce_replay: bool = True,
) -> CloneAttackReport:
    """Copy a terminal's state and run clone and original against one host.

    Schedule: the original sends once before the theft; then the two
    alternate, clone first, until the clone has sent ``n_clone`` lines and
    the original ``n_legit`` in all. Each line goes through
    :meth:`HostRegistry.handle_wire_line`; the report is read from the replies.

    Because the clone holds identical key material, its first message is
    cryptographically indistinguishable from the original's and the host
    accepts it. What *does* make cloning visible is counter policy: once
    both devices walk the same counter sequence, every collision leaves
    exactly one side accepted and the other replay-rejected. Without it (a
    fresh registry per message, so no counter is kept) nothing is rejected
    at all — derivation alone cannot tell the devices apart.
    """
    if n_legit < 1:
        raise ValueError("n_legit must be at least 1")
    rng = random.Random(seed)
    bdk, legit = _provision_dukpt(rng)
    registry = _host_for(bdk, legit)
    payload = b"checkout-request"
    replies: list[str] = []

    def send(term: TerminalState) -> str:
        host = registry if enforce_replay else _host_for(bdk, legit)
        replies.append(host.handle_wire_line(encode_wire(term.build_message(data=payload))))
        return replies[-1]

    send(legit)  # the device transacts at least once before the theft
    clone = copy.deepcopy(legit)
    from_clone: list[str] = []
    from_legit: list[str] = []
    for i in range(max(n_clone, n_legit - 1)):
        if i < n_clone:
            from_clone.append(send(clone))
        if i < n_legit - 1:
            from_legit.append(send(legit))
    replay_rejected = f"ERR|{VerdictStatus.REPLAY_REJECTED.value}"
    return CloneAttackReport(
        clone_first_accepted=bool(from_clone) and from_clone[0].startswith("OK|"),
        legit_replay_rejected=from_legit[:1] == [replay_rejected],
        accepted=sum(reply.startswith("OK|") for reply in replies),
        replay_rejected=replies.count(replay_rejected),
        reply_lines=replies,
    )
