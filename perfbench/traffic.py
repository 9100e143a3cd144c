"""Seeded input generators and the expected-outcome model for host traffic.

Everything here is built from the benchmark seed alone, so the same seed
gives the same wire lines, the same expected replies and the same secrets.
The program under test only ever sees the generated lines and keys.

Every BDK, IPEK and transaction key a generator makes is recorded in
``secrets`` (uppercase hex) so the run can prove none of them leaks into
anything it emits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from dukptlab import (
    COUNTER_SPACE,
    KeyRole,
    Ksn,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    encode_iso0,
    encode_wire,
    next_counter,
)
from dukptlab.key_hierarchy import COUNTER_BITS, MAX_COUNTER_WEIGHT
from dukptlab.terminal import encrypt_data, encrypt_pin
from dukptlab.wire import TransactionMessage

KEY_SET_BITS = 24
DEVICE_BITS = 80 - KEY_SET_BITS - COUNTER_BITS  # 35

OK = "OK|{}"
ERR = "ERR|{}"


def new_bdk(rng: random.Random) -> TdeaKey:
    return TdeaKey.from_bytes(rng.randbytes(16), KeyRole.BASE_DERIVATION)


def make_ksn(key_set_id: int, device_id: int, counter: int = 0) -> Ksn:
    value = (key_set_id << (DEVICE_BITS + COUNTER_BITS)) | (device_id << COUNTER_BITS) | counter
    return Ksn(value.to_bytes(10, "big"))


# _LIGHT[b][k]: how many values below 2**b have at most k set bits
_LIGHT = [[sum(math.comb(b, j) for j in range(k + 1)) for k in range(MAX_COUNTER_WEIGHT + 1)]
          for b in range(COUNTER_BITS)]


def usable_counter_at(rank: int) -> int:
    """The ``rank``-th smallest usable counter (1-based), by direct unranking.

    Zero has rank 0 among values of weight <= 10, so the usable counter of
    rank ``r`` is the value at 0-based index ``r`` in that set; walk down
    from the top bit, setting a bit whenever the values below it with the
    bit clear are too few.
    """
    if not 1 <= rank <= COUNTER_SPACE:
        raise ValueError(f"rank out of range: {rank}")
    value, budget = 0, MAX_COUNTER_WEIGHT
    for pos in range(COUNTER_BITS - 1, -1, -1):
        below = _LIGHT[pos][budget]
        if rank >= below:
            rank -= below
            value |= 1 << pos
            budget -= 1
    return value


def random_payload(rng: random.Random) -> tuple[bytes, bytes]:
    """A clear format-0 PIN block and a data payload, both seed-derived."""
    pin = "".join(rng.choice("0123456789") for _ in range(rng.randint(4, 6)))
    pan = "4" + "".join(rng.choice("0123456789") for _ in range(15))
    data = (
        f"AMT={rng.randrange(100, 10**6):06d};MERCHANT={rng.randrange(10**8):08d};"
        f"STAN={rng.randrange(10**6):06d}"
    ).encode()
    return encode_iso0(pin, pan), data


@dataclass
class Device:
    base_ksn: Ksn
    ipek: TdeaKey


@dataclass
class HostTraffic:
    """Wire lines for one host epoch, with what a correct host must answer.

    ``sent[i]`` is the clear ``(pin_block, data)`` of line ``i`` when it is
    an honest message, else ``None``; an accepted verdict must return
    exactly these. ``kinds[i]`` names the generator class of line ``i``.
    """

    bdks: dict[int, TdeaKey]
    devices: list[Device]
    lines: list[str] = field(default_factory=list)
    expected: list[str] = field(default_factory=list)
    sent: list[tuple[bytes | None, bytes | None] | None] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    secrets: set[str] = field(default_factory=set)

    def add(self, line: str, expected: str, kind: str, sent=None) -> None:
        self.lines.append(line)
        self.expected.append(expected)
        self.kinds.append(kind)
        self.sent.append(sent)


def _fleet(rng: random.Random, n_key_sets: int, n_devices: int) -> HostTraffic:
    key_sets = rng.sample(range(1, 1 << KEY_SET_BITS), n_key_sets)
    bdks = {ks: new_bdk(rng) for ks in key_sets}
    device_ids = rng.sample(range(1 << DEVICE_BITS), n_devices)
    devices = []
    for i, dev in enumerate(device_ids):
        ks = key_sets[i % n_key_sets]
        base = make_ksn(ks, dev)
        devices.append(Device(base, derive_ipek(bdks[ks], base)))
    traffic = HostTraffic(bdks, devices)
    traffic.secrets.update(k.hex for k in bdks.values())
    traffic.secrets.update(d.ipek.hex for d in devices)
    return traffic


def _honest_line(
    traffic: HostTraffic, rng: random.Random, device: Device, counter: int,
    with_data: bool = True,
) -> tuple[str, tuple[bytes, bytes | None]]:
    ksn = device.base_ksn.with_counter(counter)
    key = derive_key_chain(device.ipek, ksn)
    traffic.secrets.add(key.hex)
    block, data = random_payload(rng)
    if not with_data:
        data = None
    msg = TransactionMessage(
        ksn, encrypt_pin(key, block), encrypt_data(key, data) if data else None
    )
    return encode_wire(msg), (block, data)


def _honest_traffic(name: str, seed: int, n_devices: int, per_device: int,
                    max_gap: int, n_key_sets: int = 4) -> HostTraffic:
    """Every device sends ``per_device`` increasing counters; all are accepted.

    Each device starts at a counter drawn uniformly over its usable life,
    so the mean counter weight is close to the life-long mean of 8.65.
    With ``max_gap`` 0 the counters are consecutive; otherwise each is up to
    ``max_gap`` usable counters past the previous one. Lines go out
    round-robin over the devices.
    """
    rng = random.Random(f"{name}:{seed}")
    traffic = _fleet(rng, n_key_sets, n_devices)
    runs = []
    for _ in traffic.devices:
        rank = rng.randint(1, COUNTER_SPACE - per_device * max(max_gap, 1))
        run = [usable_counter_at(rank)]
        for _ in range(per_device - 1):
            if max_gap:
                rank += rng.randint(1, max_gap)
                run.append(usable_counter_at(rank))
            else:
                run.append(next_counter(run[-1]))
        runs.append(run)
    for i in range(per_device):
        for device, run in zip(traffic.devices, runs):
            line, sent = _honest_line(traffic, rng, device, run[i])
            traffic.add(line, OK.format(run[i]), "legit", sent)
    return traffic


def host_inorder(seed: int, n_devices: int = 64, per_device: int = 32) -> HostTraffic:
    """Consecutive counters per device: neighbouring lines share fold prefixes."""
    return _honest_traffic("host_inorder", seed, n_devices, per_device, max_gap=0)


def host_scattered(seed: int, n_devices: int = 682, per_device: int = 3) -> HostTraffic:
    """Many devices, each seen a few times far apart in its counter space."""
    return _honest_traffic("host_scattered", seed, n_devices, per_device, max_gap=100_000)


# share of each line class in host_hostile traffic, in percent; the rest
# of the lines are honest ones (gapped and out of order)
HOSTILE_MIX = {
    "replay": 12,
    "forged": 20,
    "overweight": 8,
    "unknown_key_set": 8,
    "malformed": 8,
}

# host_hostile's mix without forgeries. The current host accepts a few
# forged PIN-only lines (ROADMAP item 2), so only this mix has outcomes the
# floor model predicts exactly.
REJECTS_MIX = dict(HOSTILE_MIX, forged=0)

_MALFORMED = (
    "",
    "DUKPT1",
    "DUKPT2|{ksn}|{pin}|-|DUKPT",
    "DUKPT1|{ksn}|{pin}|-",
    "DUKPT1|{ksn}|{pin}|-|DUKPT|extra",
    "DUKPT1|{ksn_short}|{pin}|-|DUKPT",
    "DUKPT1|{ksn}|{pin_short}|-|DUKPT",
    "DUKPT1|{ksn}|-|-|DUKPT",
    "DUKPT1|{ksn}|{pin}|ABC|DUKPT",
    "DUKPT1|{ksn}|{pin}|-|NOPE",
    "DUKPT1|{ksn_bad}|{pin}|-|DUKPT",
)


def _overweight_counter(rng: random.Random) -> int:
    bits = rng.sample(range(COUNTER_BITS), rng.randint(MAX_COUNTER_WEIGHT + 1, COUNTER_BITS))
    return sum(1 << b for b in bits)


def host_hostile(seed: int, n_devices: int = 512, n_lines: int = 3072,
                 n_key_sets: int = 4, mix: dict[str, int] | None = None) -> HostTraffic:
    """Mixed traffic: honest lines gapped and out of order, plus attacks.

    Many devices, each seen only a few times. The expected replies come
    from a model of the host policy: a per-device floor that only an
    honest, newer counter moves. The model treats every forged PIN-only
    line as rejected (``DecryptFailed``); a host that accepts one moves its
    floor, and the honest lines it then locks out count as wrong too.
    """
    mix = HOSTILE_MIX if mix is None else mix
    rng = random.Random(f"host_hostile:{seed}")
    traffic = _fleet(rng, n_key_sets, n_devices)
    # the next honest counter each device will send, and the model floor
    position = [usable_counter_at(rng.randint(1, COUNTER_SPACE // 2)) for _ in traffic.devices]
    floor = [0] * n_devices
    accepted_lines: list[list[str]] = [[] for _ in traffic.devices]
    held: list[int | None] = [None] * n_devices  # a delayed honest counter
    unknown_sets = [ks for ks in rng.sample(range(1, 1 << KEY_SET_BITS), 8)
                    if ks not in traffic.bdks]
    kinds = list(mix) + ["legit"]
    weights = list(mix.values()) + [100 - sum(mix.values())]

    def honest(d: int, counter: int) -> None:
        device = traffic.devices[d]
        line, sent = _honest_line(traffic, rng, device, counter, with_data=rng.random() < 0.8)
        if counter > floor[d]:
            floor[d] = counter
            traffic.add(line, OK.format(counter), "legit", sent)
            accepted_lines[d].append(line)
        else:
            traffic.add(line, ERR.format("ReplayRejected"), "late")

    while len(traffic.lines) < n_lines:
        d = rng.randrange(n_devices)
        device = traffic.devices[d]
        kind = rng.choices(kinds, weights)[0]
        if kind == "legit":
            if held[d] is not None and rng.random() < 0.5:
                # release a delayed line: it arrives after a newer counter
                honest(d, held[d])
                held[d] = None
                continue
            for _ in range(rng.randint(0, 40)):  # gap: counters never sent
                position[d] = next_counter(position[d])
            counter = position[d]
            position[d] = next_counter(position[d])
            if held[d] is None and rng.random() < 0.25:
                held[d] = counter
                continue
            honest(d, counter)
        elif kind == "replay":
            if accepted_lines[d]:
                traffic.add(rng.choice(accepted_lines[d]), ERR.format("ReplayRejected"), "replay")
        elif kind == "forged":
            # random PIN ciphertext under a live KSN above the floor
            counter = position[d]
            for _ in range(rng.randint(0, 2000)):
                counter = next_counter(counter)
            msg = TransactionMessage(device.base_ksn.with_counter(counter), rng.randbytes(8))
            traffic.add(encode_wire(msg), ERR.format("DecryptFailed"), "forged")
        elif kind == "overweight":
            msg = TransactionMessage(
                device.base_ksn.with_counter(_overweight_counter(rng)), rng.randbytes(8),
                rng.randbytes(16),
            )
            traffic.add(encode_wire(msg), ERR.format("OverweightCounterRejected"), "overweight")
        elif kind == "unknown_key_set":
            ksn = make_ksn(rng.choice(unknown_sets), rng.randrange(1 << DEVICE_BITS),
                           usable_counter_at(rng.randint(1, COUNTER_SPACE)))
            msg = TransactionMessage(ksn, rng.randbytes(8), rng.randbytes(24))
            traffic.add(encode_wire(msg), ERR.format("UnknownKeySet"), "unknown_key_set")
        else:
            ksn = device.base_ksn.with_counter(position[d]).hex
            line = rng.choice(_MALFORMED).format(
                ksn=ksn, ksn_short=ksn[:-2], ksn_bad=ksn[:-1] + "G",
                pin=rng.randbytes(8).hex().upper(), pin_short=rng.randbytes(7).hex().upper(),
            )
            traffic.add(line, ERR.format("MalformedMessage"), "malformed")
    return traffic


@dataclass
class TerminalPlan:
    """Devices that each run from counter 0 past the 2**14 boundary."""

    devices: list[Device]
    counters: list[int]
    payloads: list[tuple[bytes, bytes]]
    secrets: set[str]


# counter values a device walks per epoch: just past 2**14, so the 14-child
# refill at 0x4000 falls inside every epoch
TERMINAL_LAST_COUNTER = (1 << 14) + 128


def terminal_plan(seed: int, n_devices: int = 2, n_payloads: int = 64,
                  last_counter: int = TERMINAL_LAST_COUNTER) -> TerminalPlan:
    rng = random.Random(f"terminal_issue:{seed}")
    key_set = rng.randrange(1, 1 << KEY_SET_BITS)
    bdk = new_bdk(rng)
    devices = []
    for dev in rng.sample(range(1 << DEVICE_BITS), n_devices):
        base = make_ksn(key_set, dev)
        devices.append(Device(base, derive_ipek(bdk, base)))
    counters = [next_counter(0)]
    while counters[-1] < last_counter:
        counters.append(next_counter(counters[-1]))
    payloads = [random_payload(rng) for _ in range(n_payloads)]
    secrets = {bdk.hex} | {d.ipek.hex for d in devices}
    return TerminalPlan(devices, counters, payloads, secrets)


def children_per_issue(counter: int) -> int:
    """Registers a terminal refills when it issues ``counter``."""
    low = (counter & -counter).bit_length() - 1
    return sum(
        1 for pos in range(low) if (counter | (1 << pos)).bit_count() <= MAX_COUNTER_WEIGHT
    )
