"""
From one base key to a million transaction keys
================================================

Walks the three-level hierarchy bottom-up: the acquirer's base derivation
key, the per-device initial key, and the per-transaction keys grown from it
by a one-way step keyed on the transaction counter.
"""

from dukptlab import (
    KeyRole,
    TdeaKey,
    derive_ipek,
    derive_key_chain,
    next_counter,
    parse_ksn,
    remaining_counters,
)
from dukptlab.key_hierarchy import DATA_VARIANT_MASK, PIN_VARIANT_MASK, masked

# The acquirer owns one base derivation key; the same BDK can serve an
# entire fleet of devices. This is the published interoperability value.
bdk = TdeaKey.from_hex("0123456789ABCDEFFEDCBA9876543210", KeyRole.BASE_DERIVATION)

# Each device carries a unique key serial number. The leftmost 59 bits
# identify key set + device and never change; the rightmost 21 bits count
# transactions.
initial_ksn = parse_ksn("FFFF9876543210E00000")
print("device id bits :", f"{initial_ksn.initial_id:015X}")
print("counter        :", initial_ksn.counter)

# The initial key (IPEK) is derived from BDK + counter-zeroed KSN. It is
# injected once and the device destroys it right after expanding its
# future-key table.
ipek = derive_ipek(bdk, initial_ksn)
print("IPEK           :", ipek.hex)

# Every transaction counter names its own key, reachable by folding the
# one-way step over the counter's set bits (most significant first).
for counter in (1, 2, 3):
    key = derive_key_chain(ipek, initial_ksn.with_counter(counter))
    print(f"key({counter})         :", key.hex)

# One transaction key never encrypts two kinds of traffic directly: fixed
# XOR masks split it into a PIN-block variant and a data variant.
key_1 = derive_key_chain(ipek, initial_ksn.with_counter(1))
print("PIN variant    :", masked(key_1.material, PIN_VARIANT_MASK).hex().upper())
print("data variant   :", masked(key_1.material, DATA_VARIANT_MASK).hex().upper())

# The counter does not simply increment: values with more than ten set
# bits are skipped. 0x3FF already has ten bits, so eight candidates are
# jumped in one step.
print("after 0x3FF    :", hex(next_counter(0x3FF)))

# The skip rule is what bounds the whole space: exactly 1,048,575 usable
# counters, each with its own key, and then the device is spent for good.
print("counters total :", remaining_counters(0))
