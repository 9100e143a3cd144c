"""
A full payment transaction, terminal to host
============================================

One terminal and one host, speaking the pipe-delimited wire format. The
terminal never sends a key: it sends the key serial number, and the host
re-derives the same transaction key from its registered base key.
"""

from dukptlab import (
    HostRegistry,
    KeyRole,
    TdeaKey,
    decode_iso0,
    derive_ipek,
    encode_iso0,
    encode_wire,
    init_terminal,
    parse_ksn,
    parse_wire,
)

# --- provisioning (done once, at the factory / key ceremony) -----------------

bdk = TdeaKey.from_hex("0123456789ABCDEFFEDCBA9876543210", KeyRole.BASE_DERIVATION)
initial_ksn = parse_ksn("FFFF9876543210E00000")

host = HostRegistry()
host.register_bdk(initial_ksn.key_set_id, bdk)

terminal = init_terminal(derive_ipek(bdk, initial_ksn), initial_ksn)
table = terminal.table  # 21 slots of 16 bytes; an all-zero slot is empty
loaded = sum(any(table[q : q + 16]) for q in range(0, len(table), 16))
print("terminal provisioned; future keys loaded:", loaded)

# --- a cardholder pays --------------------------------------------------------

pin, pan = "1234", "4012345678909"
clear_pin_block = encode_iso0(pin, pan)
payload = b"AMT=004200;CUR=USD"

message = terminal.build_message(clear_pin_block=clear_pin_block, data=payload)
line = encode_wire(message)
print("wire line      :", line)

# --- the acquirer processes it --------------------------------------------------

verdict = host.process_message(parse_wire(line))
print("verdict        :", verdict.status.value)
print("recovered PIN  :", decode_iso0(verdict.clear_pin_block, pan))
print("recovered data :", verdict.clear_data.decode())

# --- replay is caught by counter policy -----------------------------------------

print("replayed line  :", host.handle_wire_line(line))

# --- a few more transactions: every message uses a fresh key ---------------------

for _ in range(3):
    message = terminal.build_message(data=payload)
    print(
        f"counter {message.ksn.counter}      : data_ct={message.encrypted_data.hex().upper()[:16]}..."
        f" reply={host.handle_wire_line(encode_wire(message))}"
    )

print("transactions remaining on this device:", terminal.remaining_transactions())
