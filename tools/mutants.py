"""Mutation smoke: each listed or generated fault, applied alone to a copy of the tree,
must fail a test.

    python3 tools/mutants.py     # the hand-placed list, then the generated mutants

Stdlib only; run from anywhere, with pytest and hypothesis installed. ``run(MUTANTS)``
and ``run(generated())`` judge one half alone, as CI's two mutation steps do. The
script copies this checkout's ``src/``, ``tests/``, ``demos/`` and ``pyproject.toml``
(uncommitted edits included) into a temporary directory, removed on exit. There the
test modules named by any mutant first run on the unmutated copy and must pass, so a
kill below is the mutant's doing. Then, one mutant at a time, the mutant's ``old``
text, which must occur exactly once in its file (a generated mutant's: at its offset),
is replaced by its ``new`` text, only the test modules named for it run, in the order
named, and the file is put back. A mutant is killed when pytest reports a failed test
(exit status 1), when the mutated module no longer imports, or when its tests run
longer than ``TIMEOUT`` seconds; a mutant that passes survives, and any other status
(a collection error, say) is an error. The script prints one line per mutant and exits
0 only when every mutant is killed.

A mutant that no test can kill because it is equivalent to the original code is
deleted from the list, with its reason given here, not kept as a survivor:

- ``decode_iso0`` without its 8-byte ``LengthError`` check: ``xor_bytes`` raises the
  same error on a block of any other length.
- ``next_counter``'s loop bound ``while c <= COUNTER_MASK`` made ``<``: ``COUNTER_MASK``
  has weight 21, so the loop never returns it and the two bounds end the same walk.

A mutant that a test kills only some of the time is left out of the list too, and
named here with its kill rate; there is none at present. The list holds 47 mutants.

Beside the hand-placed list the script generates mutants with :mod:`ast`, one per site
of three operators in each module ``GENERATED`` names: a comparison operator flipped to
its negation (``<`` to ``>=``, ``==`` to ``!=``, ``is`` to ``is not``, ``in`` to
``not in``, and back), an ``and`` made ``or`` or an ``or`` made ``and``, and a ``raise``
statement made ``pass``. A generated mutant replaces the site's source at its offset with
the site unparsed after the one change, and is named by its module, the function that
holds it and the change. It runs the test modules ``GENERATED`` maps its module to: the
module's own and the ones that reach it through other modules, since a fault in a shared
function can show only where a caller's output is checked.

A generated mutant that is equivalent to the code is skipped, named by its site as the
script prints it, with its reason (of the 174 sites at present, the three below, so 171
generated mutants run):

- ``pin_block.py: decode_iso0: raise LengthError -> pass``: ``xor_bytes`` raises the
  same ``LengthError`` on a block of any other length (the hand-placed list's first
  equivalent above).
- ``tdes.py: <module>: raise ImportError -> pass``: the guard on cryptography's private
  cipher factory, which never fires on a supported release; with ``pass`` the module
  imports, and fails only at the first cipher build.
- ``tdes.py: <module>: raise ImportError -> pass #2``: the guard on ``TripleDES``'s
  constructor state, which never fires on a supported release.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds for one mutant's tests; the longest kill takes about a tenth of it


class Mutant(NamedTuple):
    file: str  # under src/dukptlab
    old: str
    new: str
    why: str
    tests: tuple[str, ...]  # modules under tests/
    at: int = -1  # a generated mutant's offset of ``old``; -1: ``old`` occurs once


HOST_TESTS = ("test_host.py",)
VECTOR_TESTS = ("test_key_hierarchy.py", "test_vectors.py", "test_cli.py")
STEP_TESTS = ("test_key_hierarchy.py", "test_terminal.py", "test_host.py")
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
    # each line's walk buffer
    Mutant("host.py",
           "                _wipe(walk)\n                return VerdictStatus.DECRYPT_FAILED",
           "                return VerdictStatus.DECRYPT_FAILED",
           "a refusal drops its walk unwiped", HOST_TESTS),
    Mutant("host.py", "            if table is not None:\n                _wipe(table)\n", "",
           "an accept drops the table it replaces unwiped", HOST_TESTS),
    Mutant("host.py", "self._tables[device] = walk",
           "self._tables[device] = walk if table is None else table",
           "an accept keeps the old table, not the walk", HOST_TESTS),
    Mutant("host.py", "walk = bytearray(table)", "walk = table",
           "a cached line walks its table itself, not a copy", HOST_TESTS),
    Mutant("host.py", "walk = bytearray(table)", "walk = bytearray(TABLE_BYTES)",
           "a cached line walks a zero buffer instead of a copy", HOST_TESTS),
    Mutant("terminal.py",
           "        except CounterExhausted:\n            self.table[:] = bytes(len(self.table))\n",
           "        except CounterExhausted:\n",
           "an exhausted device keeps its table", ("test_terminal.py",)),
    # provisioning and the counter space
    Mutant("key_hierarchy.py", "        if self.role is not role:\n", "        if False:\n",
           "the one role check lets a key of any role through",
           ("test_key_hierarchy.py", "test_terminal.py", "test_host.py")),
    Mutant("key_hierarchy.py",
           'ipek.require(KeyRole.INITIAL, "transaction key derivation"), 0', "ipek.material, 0",
           "derive_key_chain takes a key of any role", ("test_key_hierarchy.py",)),
    Mutant("scenarios.py", "    if n_clone < 0:\n", "    if False:\n",
           "the clone demo runs with a negative clone count", ("test_scenarios.py",)),
    Mutant("terminal.py", "        if initial_ksn.counter != 0:\n", "        if False:\n",
           "the constructor skips the zero-counter check", ("test_terminal.py",)),
    Mutant("key_hierarchy.py", "        if len(raw) != 10:\n", "        if False:\n",
           "a Ksn of another length than 10 bytes is made", ("test_key_hierarchy.py",)),
    Mutant("key_hierarchy.py", "return _ksn(self.value & ~COUNTER_MASK | counter)",
           "return _ksn(self.value | counter)",
           "with_counter keeps the old counter bits under the new ones", ("test_key_hierarchy.py",)),
    Mutant("key_hierarchy.py", "bytes(memoryview(self.material))", "bytes(self.material)",
           "a TdeaKey takes an int as that many zero bytes", ("test_key_hierarchy.py",)),
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
    Mutant("key_hierarchy.py",
           '        raise ValueError("nrkgp needs a KSN with at least one counter bit set")\n',
           "        pass\n",
           "nrkgp skips its counter-0 check", ("test_key_hierarchy.py",)),
    # the table rule and its one step
    Mutant("key_hierarchy.py", "slot = (c ^ last).bit_length() - 1", "slot = c.bit_length() - 1",
           "advance starts from the counter's top bit, not where the counters part",
           STEP_TESTS),
    Mutant("key_hierarchy.py", "    if (c := ksn & COUNTER_MASK) <= last:\n",
           "    c = ksn & COUNTER_MASK\n    if False:\n",
           "advance drops its guard on a counter not above last", STEP_TESTS),
    Mutant("key_hierarchy.py", "    if not any(material):\n", "    if False:\n",
           "advance folds from an empty slot", STEP_TESTS),
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
    Mutant("wire.py", "if len(line) > _MAX_LINE:", "if len(line) > 2 ** 62:",
           "the line bound is dropped, so a longer line is split and its fields read",
           ("test_wire.py",)),
    Mutant("wire.py", "if len(line) > _MAX_LINE:", "if len(line := line.strip()) > _MAX_LINE:",
           "line.strip() is put back before the bound, so a framed line is read",
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
    # the fixed masks of the IPEK and the variants
    Mutant("key_hierarchy.py", "pin, data = key ^ PIN_VARIANT_MASK, key ^ DATA_VARIANT_MASK",
           "pin, data = key ^ DATA_VARIANT_MASK, key ^ PIN_VARIANT_MASK",
           "the one variant step swaps the PIN and data masks", VECTOR_TESTS),
    Mutant("key_hierarchy.py",
           'half_masked = (int.from_bytes(material, "big") ^ KEY_HALF_MASK).to_bytes(16, "big")',
           "half_masked = material",
           "load_bdk drops KEY_HALF_MASK, so every IPEK's right half changes", VECTOR_TESTS),
    # the process footprint: cryptography's OpenSSL is the only one mapped
    Mutant("key_hierarchy.py", "import math\n", "import hmac\nimport math\n",
           "key_hierarchy imports hmac, which loads the system OpenSSL",
           ("test_module_boundaries.py",)),
]


# per module, the test modules its generated mutants run: its own first, then those that
# check it through a caller (the four "is None" flips in seal and unseal pass
# test_key_hierarchy and fail test_terminal and test_demos, the two in seal test_baseline)
GENERATED = {
    "host.py": ("test_host.py", "test_host_model.py", "test_scenarios.py", "test_spent_keys.py"),
    "wire.py": ("test_wire.py", "test_host.py", "test_scenarios.py", "test_terminal.py"),
    "terminal.py": ("test_terminal.py", "test_host.py", "test_scenarios.py", "test_spent_keys.py"),
    "pin_block.py": ("test_pin_block.py", "test_host.py", "test_terminal.py", "test_vectors.py"),
    "tdes.py": ("test_tdes.py", "test_baseline.py", "test_terminal.py", "test_host.py"),
    "key_hierarchy.py": ("test_key_hierarchy.py", "test_terminal.py", "test_host.py",
                         "test_baseline.py", "test_demos.py", "test_vectors.py"),
}
_NEGATED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
# the docstring's skipped sites: the part of each bullet between its double backquotes
EQUIVALENT = re.findall(r"^- ``(.+?)``:", __doc__.partition("is skipped")[2], re.M)


class _Sites(ast.NodeVisitor):
    """The generated mutants of one module's source, in source order."""

    def __init__(self, file: str, tests: tuple[str, ...]) -> None:
        self.file, self.tests = file, tests
        self.text = (ROOT / "src" / "dukptlab" / file).read_text(encoding="utf-8")
        self.lines = self.text.split("\n")
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line) + 1)
        self.scope: list[str] = []
        self.mutants: list[Mutant] = []
        self.visit(ast.parse(self.text))

    def _offset(self, lineno: int, col: int) -> int:  # ast counts a column in UTF-8 bytes
        return self.starts[lineno - 1] + len(self.lines[lineno - 1].encode()[:col].decode())

    def _add(self, node: ast.AST, new: str, change: str) -> None:
        start = self._offset(node.lineno, node.col_offset)
        old = self.text[start:self._offset(node.end_lineno, node.end_col_offset)]
        why = f"{'.'.join(self.scope) or '<module>'}: {change}"
        repeats = sum(m.why == why or m.why.startswith(why + " #") for m in self.mutants)
        why += f" #{repeats + 1}" if repeats else ""
        self.mutants.append(Mutant(self.file, old, new, why, self.tests, start))

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Compare(self, node: ast.Compare) -> None:
        for i, op in enumerate(node.ops):
            ops = [*node.ops[:i], _NEGATED[type(op)](), *node.ops[i + 1:]]
            new = ast.unparse(ast.Compare(node.left, ops, node.comparators))
            self._add(node, new, f"{ast.unparse(node)} -> {new}")
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        new = ast.unparse(ast.BoolOp(ast.Or() if isinstance(node.op, ast.And) else ast.And(),
                                     node.values))
        self._add(node, new, f"{ast.unparse(node)} -> {new}")
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        change = f"raise {ast.unparse(exc)} -> pass" if exc else "raise -> pass"
        self._add(node, "pass", change)
        self.generic_visit(node)


def generated() -> list[Mutant]:
    """Every generated mutant of this checkout's ``src/`` but the docstring's equivalents,
    each of which must name a generated site."""
    every = [m for file, tests in GENERATED.items() for m in _Sites(file, tests).mutants]
    missing = set(EQUIVALENT) - {f"{m.file}: {m.why}" for m in every}
    if missing:
        raise ValueError(f"listed as equivalent, but not generated: {sorted(missing)}")
    return [m for m in every if f"{m.file}: {m.why}" not in EQUIVALENT]


def python(tree: Path, *args: str) -> int | None:
    """The exit status of Python run on ``args`` in ``tree``, or None past ``TIMEOUT``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def pytest(tree: Path, modules: list[str] | tuple[str, ...]) -> int | None:
    # in the order given: a mutant's own module first, so most kills come early
    return python(tree, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                  *(f"tests/{m}" for m in modules))


def judge(tree: Path, mutant: Mutant) -> str:
    """The mutant applied alone to ``tree``, its tests run, and the file put back."""
    path = tree / "src" / "dukptlab" / mutant.file
    original = path.read_text(encoding="utf-8")
    start = original.find(mutant.old) if mutant.at < 0 else mutant.at
    if (original.count(mutant.old) != 1 if mutant.at < 0
            else original[start:start + len(mutant.old)] != mutant.old):
        return "stale"  # the code moved: the entry no longer names one place
    path.write_text(original[:start] + mutant.new + original[start + len(mutant.old):],
                    encoding="utf-8")
    try:
        began = time.perf_counter()
        status = pytest(tree, mutant.tests)
        if status is None:
            outcome = f"killed: ran past {TIMEOUT} s"
        elif status in (0, 1):
            outcome = {0: "SURVIVED", 1: "killed"}[status]
        else:
            module = f"dukptlab.{mutant.file.removesuffix('.py')}"
            imports = python(tree, "-c", f"import {module}") == 0
            outcome = f"error {status}" if imports else "killed: no import"
        return f"{outcome} in {time.perf_counter() - began:.1f} s"
    finally:
        path.write_text(original, encoding="utf-8")


def run(mutants: list[Mutant]) -> int:
    """Judge each of ``mutants`` alone in a copy of this checkout; 0 when every one is killed."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for name in ("src", "tests", "demos"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        modules = sorted({m for mutant in mutants for m in mutant.tests})
        if pytest(tree, modules) != 0:
            print("the unmutated tree fails its tests; no mutant was run")
            return 1
        failed = 0
        for mutant in mutants:
            outcome = judge(tree, mutant)
            failed += not outcome.startswith("killed")
            print(f"{mutant.file}: {mutant.why}: {outcome}", flush=True)
        print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
        return 1 if failed else 0


def main() -> int:
    return run(MUTANTS + generated())


if __name__ == "__main__":
    sys.exit(main())
