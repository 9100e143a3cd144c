"""
Three ways to manage terminal keys
==================================

The same payload is sent twice under each scheme. Watch what the wire sees:
a fixed key repeats itself, Master/Session ships wrapped key material along
with every message, per-transaction derivation ships neither.
"""

import random

from dukptlab import KeyRole, TdeaKey, TerminalState, derive_ipek, parse_ksn
from dukptlab.baseline import FixedKeyTerminal, MasterSessionContext, fixed_encrypt, ms_wrap
from dukptlab.scenarios import BUILTIN_PROFILES, run_simulation
from dukptlab.wire import Scheme
from dukptlab import tdes

payload = b"AMT=004200;CUR=USD"

# --- fixed key: one permanent secret per device -------------------------------

fixed = FixedKeyTerminal(
    TdeaKey.from_hex("89ABCDEF010203040506070809ABCDEF", KeyRole.BASE_DERIVATION),
    parse_ksn("00AA0000000000000000"),
)
ct1 = fixed_encrypt(fixed, payload)
ct2 = fixed_encrypt(fixed, payload)
print("fixed, sale 1  :", ct1.hex().upper())
print("fixed, sale 2  :", ct2.hex().upper())
print("identical?     :", ct1 == ct2, " <- an observer learns repeat purchases")

# --- Master/Session: fresh random key, wrapped and sent in-band ----------------

kek = TdeaKey.from_hex("FEDCBA98765432100123456789ABCDEF", KeyRole.BASE_DERIVATION)
ctx = MasterSessionContext(kek, random_source=random.Random(7).randbytes)
for sale in (1, 2):
    wrapped, session = ms_wrap(ctx)
    ct = tdes.cbc_encrypt(session, payload)
    recovered = tdes.ecb_decrypt(kek.material, wrapped)  # the host unwraps it under the KEK
    print(f"M/S, sale {sale}    : ct={ct.hex().upper()[:16]}... wrapped_key={wrapped.hex().upper()[:16]}...")
    assert recovered == session
print("fresh keys, but key material rides on every message")

# --- per-transaction derivation: fresh key, nothing extra on the wire ----------

bdk = TdeaKey.from_hex("0123456789ABCDEFFEDCBA9876543210", KeyRole.BASE_DERIVATION)
ksn = parse_ksn("FFFF9876543210E00000")
terminal = TerminalState(derive_ipek(bdk, ksn), ksn)
for sale in (1, 2):
    _, _, data_ct, _ = terminal.send(data=payload)  # (line, pin_ct, data_ct, key)
    print(f"derived, sale {sale}: ct={data_ct.hex().upper()[:16]}... ksn={terminal.ksn.hex}")
print("distinct ciphertexts, and only a counter travels")

# --- the same comparison at simulation scale ------------------------------------

print()
for scheme in (Scheme.FIXED, Scheme.MASTER_SESSION, Scheme.DUKPT):
    report = run_simulation(scheme, BUILTIN_PROFILES["pos"], count=200, seed=42)
    print(report.record_line())
