"""Every CLI output is byte-identical to its recorded transcript.

Each file under ``tests/data/golden/`` holds one command's exit code, stdout and
stderr, as :func:`transcript` writes them. Only the ``elapsed_seconds`` line that
``simulate`` writes to stderr is dropped: it is the one figure that is not
reproducible. The commands run from that directory, so the file paths they take
and print are relative to it. An intended output change edits the recorded file in
the same change and says so; a file is never rewritten to make this test pass.
"""

from pathlib import Path

import pytest

from dukptlab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

BDK = "0123456789ABCDEFFEDCBA9876543210"
KSN = "FFFF9876543210E00000"

CASES = {
    **{
        f"simulate_{scheme}_{profile}_{fmt}_seed{seed}_count{count}": [
            "simulate", "--scheme", scheme, "--profile", profile, "--count", str(count),
            "--seed", str(seed), "--format", fmt]
        for scheme in ("dukpt", "fixed", "ms")
        for profile in ("pos", "sim_se")
        for fmt in ("table", "records")
        for seed in (0, 7)
        for count in (13, 100)
    },
    "vectors_generate_count30": ["vectors", "generate", "--count", "30"],
    "vectors_verify_frozen": ["vectors", "verify", "--file", "../interop_vectors.txt"],
    "vectors_verify_one_bad_record": ["vectors", "verify", "--file", "inputs/one_bad_record.txt"],
    "applicability_builtin": ["applicability"],
    "applicability_one_profile": ["applicability", "--profile", "browser"],
    "applicability_profiles_file": ["applicability", "--profiles-file", "inputs/profiles.txt"],
    "derive_ipek": ["derive-ipek", "--bdk", BDK, "--ksn", KSN],
    "derive_key_counter1": ["derive-key", "--bdk", BDK, "--ksn", KSN[:-1] + "1"],
    "derive_key_counter0": ["derive-key", "--bdk", BDK, "--ksn", KSN],  # the note= path
    # the documented error paths: exit 1, 2 (input), 3 (counter policy), 4 (gating)
    "error_vectors_verify_data_not_hex": [
        "vectors", "verify", "--file", "inputs/data_not_hex.txt"],
    "error_derive_ipek_short_bdk": ["derive-ipek", "--bdk", "0123", "--ksn", KSN],
    "error_derive_ipek_bdk_not_hex": ["derive-ipek", "--bdk", "ZZ" * 16, "--ksn", KSN],
    "error_derive_key_bdk_with_blanks": [
        "derive-key", "--bdk", "0123456789ABCDEF FEDCBA98765432 ", "--ksn", KSN],
    "error_derive_key_short_ksn": ["derive-key", "--bdk", BDK, "--ksn", KSN[:-1]],
    "error_derive_key_ksn_not_hex": ["derive-key", "--bdk", BDK, "--ksn", KSN[:-1] + "G"],
    "error_derive_key_overweight_counter": ["derive-key", "--bdk", BDK, "--ksn", KSN[:-5] + "007FF"],
    "error_simulate_unknown_profile": ["simulate", "--scheme", "dukpt", "--profile", "toaster"],
    "error_simulate_gated_profile": ["simulate", "--scheme", "dukpt", "--profile", "browser"],
    "error_vectors_generate_count0": ["vectors", "generate", "--count", "0"],
    "error_vectors_generate_bad_ksn": ["vectors", "generate", "--count", "2", "--ksn", "FFFF"],
    "error_vectors_verify_missing_file": ["vectors", "verify", "--file", "inputs/missing.txt"],
    "error_vectors_verify_malformed_record": [
        "vectors", "verify", "--file", "inputs/malformed_record.txt"],
    "error_applicability_unknown_profile": ["applicability", "--profile", "fax_machine"],
    "error_applicability_bad_profiles_file": [
        "applicability", "--profiles-file", "inputs/bad_profiles.txt"],
    "error_applicability_profile_not_ascii": [
        "applicability", "--profiles-file", "inputs/profile_not_ascii.txt"],
}


def transcript(code: int, out: str, err: str) -> str:
    err = "".join(line for line in err.splitlines(keepends=True)
                  if not line.startswith("elapsed_seconds="))
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


def test_every_recorded_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(CASES[name])
    captured = capsys.readouterr()
    recorded = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(code, captured.out, captured.err) == recorded
