"""Package structure: modules share only public names."""

import ast
from pathlib import Path

import dukptlab

PACKAGE_DIR = Path(dukptlab.__file__).parent


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
    importers, builds = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cryptography"):
                importers.append(path.name)
            elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "cryptography" for a in node.names
            ):
                importers.append(path.name)
            elif isinstance(node, ast.Call):
                name = (getattr(node.func, "id", None) or getattr(node.func, "attr", "")).lstrip("_")
                if name in {"Cipher", "create_encryption_ctx", "create_decryption_ctx"}:
                    builds.append(f"{path.name}:{name}")
    assert set(importers) == {"tdes.py"}
    # no public Cipher: the backend factory is called once per direction, in _cipher
    assert sorted(builds) == ["tdes.py:create_decryption_ctx", "tdes.py:create_encryption_ctx"], builds
