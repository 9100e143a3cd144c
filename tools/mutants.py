"""Mutation smoke: each listed fault, applied alone to a copy of the tree, must fail a test.

    python3 tools/mutants.py

Stdlib only; run from anywhere, with pytest and hypothesis installed. The script
copies this checkout's ``src/``, ``tests/`` and ``pyproject.toml`` (uncommitted
edits included) into a temporary directory, removed on exit. There the test
modules named by any mutant first run on the unmutated copy and must pass, so a
kill below is the mutant's doing. Then, one mutant at a time, the mutant's ``old``
text, which must occur exactly once in its file, is replaced by its ``new`` text,
only the test modules named for it run, and the file is put back. A mutant is
killed when pytest reports a failed test (exit status 1); a mutant that passes
survives, and any other status (a collection error, say) is an error. The script
prints one line per mutant and exits 0 only when every mutant is killed.

A mutant that no test can kill because it is equivalent to the original code is
deleted from the list, with its reason given here, not kept as a survivor:

- ``decode_iso0`` without its 8-byte ``LengthError`` check: ``xor_bytes`` raises the
  same error on a block of any other length.
- ``next_counter``'s loop bound ``while c <= COUNTER_MASK`` made ``<``: ``COUNTER_MASK``
  has weight 21, so the loop never returns it and the two bounds end the same walk.

A mutant that a test kills only some of the time is left out of the list too, and
named here with its kill rate; there is none at present.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/dukptlab
    old: str
    new: str
    why: str
    tests: tuple[str, ...]  # modules under tests/


HOST_TESTS = ("test_host.py",)
PAYLOAD_CHECKS = """\
        if clear_pin_block is None and data is None:
            raise EmptyPlaintext("transaction needs a PIN block or data to send")
        _check_pin_block(clear_pin_block)
        if data is not None and not data:
            raise EmptyPlaintext("refusing to encrypt an empty payload")
        if data is not None and len(data) >= MAX_DATA_BYTES:  # padding adds 1 to 8 bytes
            raise LengthError(f"data must be under {MAX_DATA_BYTES} bytes, got {len(data)}")
"""
DRAW = "        counter, material = self.issue()\n"

MUTANTS = [
    # policy
    Mutant("host.py", "if counter <= last:", "if counter < last:",
           "the replay check lets a repeated counter through", HOST_TESTS),
    Mutant("host.py",
           "        with self._lock:\n            bdk = self._bdks.get(device >> DEVICE_ID_BITS)",
           "        if True:\n            bdk = self._bdks.get(device >> DEVICE_ID_BITS)",
           "the policy path runs without the registry lock", HOST_TESTS),
    Mutant("host.py", "if counter.bit_count() > MAX_COUNTER_WEIGHT:",
           "if counter.bit_count() > MAX_COUNTER_WEIGHT + 1:",
           "the weight bound lets a counter of weight 11 through", HOST_TESTS),
    # the table cache and its erasure
    Mutant("host.py", "while len(self._tables) > TABLE_CACHE_DEVICES:",
           "while len(self._tables) > TABLE_CACHE_DEVICES + 1:",
           "the cache keeps one table too many", HOST_TESTS),
    Mutant("host.py", "_wipe(self._tables.popitem(last=False)[1])",
           "self._tables.popitem(last=False)",
           "an evicted table is dropped unwiped", HOST_TESTS),
    Mutant("host.py", "_wipe(self._tables.pop(device))", "self._tables.pop(device)",
           "a BDK replacement drops its devices' tables unwiped", HOST_TESTS),
    Mutant("host.py",
           "                _wipe(self._spare)\n                return VerdictStatus.DECRYPT_FAILED",
           "                return VerdictStatus.DECRYPT_FAILED",
           "a refused line leaves its walk in the spare", HOST_TESTS),
    Mutant("host.py",
           "            _wipe(self._spare)\n            self._tables.move_to_end(device)",
           "            self._tables.move_to_end(device)",
           "an accepted line leaves a second copy of the table in the spare", HOST_TESTS),
    Mutant("host.py", "table[: 16 * slot + 16] = self._spare[: 16 * slot + 16]",
           "table[: 16 * slot] = self._spare[: 16 * slot]",
           "the commit copies one slot too few", HOST_TESTS),
    Mutant("host.py", "            table[: 16 * slot + 16] =",
           "            if slot < COUNTER_BITS:\n                table[: 16 * slot + 16] =",
           "a device's first accept stores an empty table", HOST_TESTS),
    Mutant("terminal.py",
           "        except CounterExhausted:\n            self.table[:] = bytes(len(self.table))\n",
           "        except CounterExhausted:\n",
           "an exhausted device keeps its table", ("test_terminal.py",)),
    # provisioning and the counter space
    Mutant("key_hierarchy.py", "        if self.role is not role:\n", "        if False:\n",
           "the one role check lets a key of any role through",
           ("test_key_hierarchy.py", "test_terminal.py", "test_host.py")),
    Mutant("terminal.py", "        if initial_ksn.counter != 0:\n", "        if False:\n",
           "the constructor skips the zero-counter check", ("test_terminal.py",)),
    Mutant("key_hierarchy.py", "        if len(self.raw) != 10:\n", "        if False:\n",
           "a Ksn of another length than 10 bytes is made", ("test_key_hierarchy.py",)),
    Mutant("key_hierarchy.py",
           "``counter``.\"\"\"\n    if not 0 <= counter <= COUNTER_MASK:",
           "``counter``.\"\"\"\n    if False:",
           "remaining_counters drops its range check", ("test_key_hierarchy.py",)),
    Mutant("key_hierarchy.py",
           "    if not 0 <= counter <= COUNTER_MASK:\n"
           "        raise ValueError(f\"counter out of 21-bit range: {counter:#x}\")\n"
           "    c = counter + 1\n",
           "    if not 0 <= counter < COUNTER_MASK:\n"
           "        raise ValueError(f\"counter out of 21-bit range: {counter:#x}\")\n"
           "    c = counter + 1\n",
           "next_counter refuses the top of the counter range as out of range",
           ("test_key_hierarchy.py",)),
    # the table rule
    Mutant("key_hierarchy.py", "if counter.bit_count() < MAX_COUNTER_WEIGHT else",
           "if counter.bit_count() <= MAX_COUNTER_WEIGHT else",
           "a key at weight 10 refills the slots below it",
           ("test_key_hierarchy.py", "test_terminal.py")),
    Mutant("terminal.py", PAYLOAD_CHECKS + DRAW, DRAW + PAYLOAD_CHECKS,
           "send and build_message draw their key before the payload checks, the data "
           "bound among them",
           ("test_terminal.py",)),
    # the input boundary: the one hex rule of keys, KSNs and wire fields, and record files
    Mutant("key_hierarchy.py", 'return raw if 2 * len(raw) == len(text) else b""', "return raw",
           "hex with blanks in it is read, in a key, a KSN or a wire field",
           ("test_key_hierarchy.py", "test_wire.py")),
    Mutant("errors.py", 'raise type(exc)(f"{path}:{lineno}: {exc}") from exc',
           "raise type(exc)(str(exc)) from exc",
           "a record file's bad line is reported without its path and line",
           ("test_scenarios.py", "test_vectors.py")),
    Mutant("errors.py", "enumerate(fh.read().splitlines(), start=1)",
           'enumerate(fh.read().decode("ascii").encode().splitlines(), start=1)',
           "a record file is decoded whole, so a non-ASCII comment aborts the read",
           ("test_scenarios.py", "test_vectors.py")),
    # the wire, the PIN block and the padding
    Mutant("wire.py", "if len(line := line.strip()) > _MAX_LINE:",
           "if len(line := line.strip()) > 2 ** 62:",
           "the line bound is dropped, so a longer line is split and its fields read",
           ("test_wire.py",)),
    Mutant("pin_block.py", "and block[1] >> 4 <= 9 and block[1] & 0xF <= 9)",
           "and block[1] >> 4 <= 9)",
           "the PIN block check skips the second PIN digit", ("test_pin_block.py",)),
    Mutant("pin_block.py", '    if field1[0] != "0":\n', "    if False:\n",
           "decode_iso0 skips the control-nibble check", ("test_pin_block.py",)),
    Mutant("pin_block.py", "    if not _MIN_PIN <= length <= _MAX_PIN:\n", "    if False:\n",
           "decode_iso0 skips the length check", ("test_pin_block.py",)),
    Mutant("pin_block.py", "    if not pin.isdigit():\n", "    if False:\n",
           "decode_iso0 skips the PIN-digit check", ("test_pin_block.py",)),
    Mutant("pin_block.py", '    if filler.strip("F"):\n', "    if False:\n",
           "decode_iso0 skips the filler check", ("test_pin_block.py",)),
    Mutant("tdes.py", "len(data) - len(body) >= BLOCK_SIZE", "len(data) - len(body) > BLOCK_SIZE",
           "the padding check takes a whole block of zeros after the marker",
           ("test_tdes.py",)),
    # the key bundle and the cipher builder
    Mutant("tdes.py", "return (key * 3)[:24]", "return key[:8] * 3",
           "the bundle makes a 2-key TDEA key single DES", ("test_tdes.py",)),
    Mutant("tdes.py",
           "return _create_encryption_ctx(algorithm, mode)\n"
           "    return _create_decryption_ctx(algorithm, mode)",
           "return _create_decryption_ctx(algorithm, mode)\n"
           "    return _create_encryption_ctx(algorithm, mode)",
           "the builder swaps the encryption and decryption factories", ("test_tdes.py",)),
    # the loaded key's CBC and the Master/Session wrap
    Mutant("tdes.py", '(int.from_bytes(data, "big") ^ prev)', 'int.from_bytes(data, "big")',
           "the kept CBC encryptor skips its chaining cancel", ("test_tdes.py",)),
    Mutant("tdes.py", '(ciphertext, "big") >> 64', '(ciphertext, "big")',
           "the kept CBC decryptor XORs the unshifted ciphertext", ("test_tdes.py",)),
    Mutant("baseline.py", "if len(material) != 16:\n", "if False:\n",
           "ms_wrap drops its 16-byte check", ("test_baseline.py",)),
    # the receivers that only decide: the last block alone decrypts against the zero IV
    Mutant("tdes.py", "PADDING_BLOCKS = slice(-2 * BLOCK_SIZE, None)",
           "PADDING_BLOCKS = slice(-BLOCK_SIZE, None)",
           "the receivers that only decide decrypt the last data block alone",
           ("test_host.py", "test_scenarios.py", "test_tdes.py")),
    # the process footprint: cryptography's OpenSSL is the only one mapped
    Mutant("key_hierarchy.py", "import math\n", "import hmac\nimport math\n",
           "key_hierarchy imports hmac, which loads the system OpenSSL",
           ("test_module_boundaries.py",)),
]


def pytest(tree: Path, modules: set[str] | tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *(f"tests/{m}" for m in sorted(modules))]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=900).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        modules = {m for mutant in MUTANTS for m in mutant.tests}
        if pytest(tree, modules) != 0:
            print("the unmutated tree fails its tests; no mutant was run")
            return 1
        failed = 0
        for mutant in MUTANTS:
            path = tree / "src" / "dukptlab" / mutant.file
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                outcome = "stale"  # the code moved: the entry no longer names one place
            else:
                path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
                start = time.perf_counter()
                status = pytest(tree, mutant.tests)
                path.write_text(original, encoding="utf-8")
                outcome = {0: "SURVIVED", 1: "killed"}.get(status, f"error {status}")
                outcome += f" in {time.perf_counter() - start:.1f} s"
            failed += not outcome.startswith("killed")
            print(f"{mutant.file}: {mutant.why}: {outcome}", flush=True)
        print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
