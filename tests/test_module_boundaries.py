"""Package structure: modules share only public names."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import dukptlab

PACKAGE_DIR = Path(dukptlab.__file__).parent
# each maps the system OpenSSL (_hashlib, _ssl) beside cryptography's own
SECOND_OPENSSL = {"hmac", "hashlib", "_hashlib", "secrets", "ssl"}


def test_no_private_name_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert offenders == []


def test_one_cipher_builder_and_one_crypto_importer():
    importers, second_openssl, builds = [], [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                           else [node.module or ""])
                tops = {module.split(".")[0] for module in modules}
                if "cryptography" in tops:
                    importers.append(path.name)
                second_openssl += [f"{path.name}: {top}" for top in sorted(tops & SECOND_OPENSSL)]
            elif isinstance(node, ast.Call):
                name = (getattr(node.func, "id", None) or getattr(node.func, "attr", "")).lstrip("_")
                if name in {"Cipher", "create_encryption_ctx", "create_decryption_ctx"}:
                    builds.append(f"{path.name}:{name}")
    assert set(importers) == {"tdes.py"}
    assert second_openssl == []
    # no public Cipher: the backend factory is called once per direction, in _cipher
    assert sorted(builds) == ["tdes.py:create_decryption_ctx", "tdes.py:create_encryption_ctx"], builds


FOOTPRINT = """
import contextlib, io, sys
import cryptography.hazmat.bindings._rust
before = set(sys.modules)
from dukptlab import cli
from dukptlab.key_hierarchy import KeyRole, TdeaKey
from dukptlab.scenarios import BUILTIN_PROFILES, Scheme, clone_attack_demo, run_simulation
for scheme in Scheme:
    run_simulation(scheme, BUILTIN_PROFILES["pos"], 3, seed=1)
clone_attack_demo(3, 3, seed=1)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["derive-key", "--bdk", "0123456789ABCDEFFEDCBA9876543210",
                     "--ksn", "FFFF9876543210E00001"]) == 0
    assert cli.main(["vectors", "generate", "--count", "3"]) == 0
    assert cli.main(["vectors", "verify", "--file", sys.argv[1]]) == 0
assert TdeaKey(bytes(16), KeyRole.INITIAL) == TdeaKey(bytes(16), KeyRole.INITIAL)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_the_package_maps_one_openssl():
    # a fresh interpreter: this one already holds hashlib, which hypothesis imports
    vectors = Path(__file__).parent / "data" / "interop_vectors.txt"
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(vectors)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "dukptlab.scenarios" in added
    assert added & SECOND_OPENSSL == set()


BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_benchmark_takes_from_the_package_resolves():
    # the benchmark runs this package from its own checkout, so a name removed
    # here breaks every benchmark run; this catches it in the tests instead
    missing = []
    for path in sorted(BENCHMARK_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> a package module the file imported under it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dukptlab":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: from {node.module} import {alias.name}")
                    elif inspect.ismodule(getattr(module, alias.name)):
                        modules[alias.asname or alias.name] = getattr(module, alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
                missing.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert missing == []
