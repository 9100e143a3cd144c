"""Command-line surface: outputs, exit codes, determinism."""

from pathlib import Path

import pytest

from dukptlab import vectors
from dukptlab.cli import main

from conftest import (
    INTEROP_BDK_HEX,
    INTEROP_IPEK_HEX,
    INTEROP_KSN_HEX,
    FROZEN_KEYS,
    FROZEN_PIN_VARIANT_1,
    FROZEN_DATA_VARIANT_1,
)

INTEROP_FILE = str(Path(__file__).parent / "data" / "interop_vectors.txt")
GOLDEN = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- derive-ipek -----------------------------------------------------------------

def test_derive_ipek_interop(capsys):
    code, out, _ = run(capsys, "derive-ipek", "--bdk", INTEROP_BDK_HEX, "--ksn", INTEROP_KSN_HEX)
    assert code == 0
    assert out.strip() == INTEROP_IPEK_HEX


def test_derive_ipek_accepts_lowercase(capsys):
    code, out, _ = run(
        capsys, "derive-ipek", "--bdk", INTEROP_BDK_HEX.lower(), "--ksn", INTEROP_KSN_HEX.lower()
    )
    assert code == 0
    assert out.strip() == INTEROP_IPEK_HEX


def test_derive_ipek_short_bdk(capsys):
    code, _, err = run(capsys, "derive-ipek", "--bdk", "0123", "--ksn", INTEROP_KSN_HEX)
    assert code == 2
    assert "32" in err


def test_derive_ipek_bad_hex(capsys):
    code, _, _ = run(capsys, "derive-ipek", "--bdk", "ZZ" * 16, "--ksn", INTEROP_KSN_HEX)
    assert code == 2


def test_derive_key_refuses_a_key_with_blanks_in_it(capsys):
    # 32 characters, but bytes.fromhex would read them as 15 bytes
    bdk = "0123456789ABCDEF FEDCBA98765432 "
    code, out, err = run(capsys, "derive-key", "--bdk", bdk, "--ksn", INTEROP_KSN_HEX)
    assert (code, out) == (2, "")
    assert "not valid hex" in err


# --- derive-key ------------------------------------------------------------------

def test_derive_key_counter_one(capsys):
    ksn = INTEROP_KSN_HEX[:-1] + "1"
    code, out, _ = run(capsys, "derive-key", "--bdk", INTEROP_BDK_HEX, "--ksn", ksn)
    assert code == 0
    assert f"key={FROZEN_KEYS[1]}" in out
    assert f"pin_variant={FROZEN_PIN_VARIANT_1}" in out
    assert f"data_variant={FROZEN_DATA_VARIANT_1}" in out


def test_derive_key_counter_zero_notes_diagnostic(capsys):
    code, out, _ = run(capsys, "derive-key", "--bdk", INTEROP_BDK_HEX, "--ksn", INTEROP_KSN_HEX)
    assert code == 0
    assert f"key={INTEROP_IPEK_HEX}" in out
    assert "note=" in out
    assert "variant" not in out


def test_derive_key_overweight_counter(capsys):
    ksn = INTEROP_KSN_HEX[:-5] + "007FF"  # eleven set bits
    code, _, err = run(capsys, "derive-key", "--bdk", INTEROP_BDK_HEX, "--ksn", ksn)
    assert code == 3
    assert "counter policy" in err


# --- simulate ---------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["dukpt", "fixed", "ms"])
def test_simulate_deterministic_stdout(capsys, scheme):
    # two in-process runs print the recorded stdout of the default --count, 100
    recorded = (GOLDEN / f"simulate_{scheme}_pos_records_seed0_count100.txt").read_text(
        encoding="utf-8")
    stdout = recorded.partition("--- stdout\n")[2].partition("--- stderr\n")[0]
    args = ("simulate", "--scheme", scheme, "--profile", "pos", "--format", "records",
            "--seed", "0")
    code_a, out_a, err_a = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert stdout and out_a == out_b == stdout
    assert "elapsed_seconds=" in err_a  # wall time goes to stderr only


def test_simulate_browser_gated(capsys):
    code, _, err = run(capsys, "simulate", "--scheme", "dukpt", "--profile", "browser")
    assert code == 4
    assert "NotApplicable" in err


def test_simulate_fixed_reuse_flag(capsys):
    code, out, _ = run(
        capsys, "simulate", "--scheme", "fixed", "--profile", "pos",
        "--count", "2", "--seed", "1", "--format", "records",
    )
    assert code == 0
    assert "ciphertext_reuse=yes" in out


def test_simulate_unknown_profile(capsys):
    code, _, err = run(capsys, "simulate", "--scheme", "dukpt", "--profile", "toaster")
    assert code == 2
    assert "unknown profile" in err


# --- vectors -----------------------------------------------------------------------

def test_vectors_generate_then_verify(capsys, tmp_path):
    out_path = str(tmp_path / "v.txt")
    code, _, _ = run(capsys, "vectors", "generate", "--count", "8", "--out", out_path)
    assert code == 0
    code, out, _ = run(capsys, "vectors", "verify", "--file", out_path)
    assert code == 0
    assert "OK: 8 record(s) verified" in out


def test_vectors_verify_frozen_interop_file(capsys):
    code, out, _ = run(capsys, "vectors", "verify", "--file", INTEROP_FILE)
    assert code == 0
    assert "OK: 10 record(s)" in out


def test_vectors_verify_names_corrupt_record(capsys, tmp_path):
    out_path = tmp_path / "v.txt"
    run(capsys, "vectors", "generate", "--count", "3", "--out", str(out_path))
    text = out_path.read_text()
    target = "counter=000002 key="
    start = text.index(target) + len(target)
    corrupted = text[:start] + "0" * 32 + text[start + 32 :]
    out_path.write_text(corrupted)
    code, out, _ = run(capsys, "vectors", "verify", "--file", str(out_path))
    assert code == 1
    assert "record 2" in out and "FAIL" in out


def test_vectors_verify_goes_on_past_a_non_hex_data_field(capsys, tmp_path):
    out_path = tmp_path / "v.txt"
    run(capsys, "vectors", "generate", "--count", "3", "--out", str(out_path))
    lines = out_path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace(" data=", " data=ZZ", 1)  # the second record
    out_path.write_text("".join(lines))
    code, out, _ = run(capsys, "vectors", "verify", "--file", str(out_path))
    assert code == 1
    assert "record 2: data_ct inputs rejected" in out
    assert "FAIL: 1 mismatch(es) in 3 record(s)" in out


def test_vectors_generate_stdout(capsys):
    code, out, _ = run(capsys, "vectors", "generate", "--count", "2")
    assert code == 0
    assert out.count("\n") == 3  # header comment + two records
    assert "counter=000002" in out


def test_vectors_generate_accepts_lowercase_hex(capsys):
    _, default_out, _ = run(capsys, "vectors", "generate", "--count", "3")
    code, out, _ = run(
        capsys, "vectors", "generate", "--count", "3",
        "--bdk", vectors.DEFAULT_BDK_HEX.lower(), "--ksn", vectors.DEFAULT_KSN_HEX.lower(),
    )
    assert code == 0
    assert vectors.DEFAULT_BDK_HEX != vectors.DEFAULT_BDK_HEX.lower()
    assert out == default_out


def test_vectors_missing_file(capsys):
    code, _, err = run(capsys, "vectors", "verify", "--file", "/nonexistent/v.txt")
    assert code == 2
    assert "error" in err


# --- applicability ------------------------------------------------------------------

def test_applicability_builtin_table(capsys):
    code, out, _ = run(capsys, "applicability")
    assert code == 0
    for fragment in (
        "pos", "Applicable",
        "sim_se", "MobileNetworkOperator",
        "embedded_se", "DeviceManufacturer",
        "micro_sd", "WalletProvider",
        "browser", "NotApplicable",
        "cloud_wallet", "RuledOut",
    ):
        assert fragment in out


def test_applicability_single_profile(capsys):
    code, out, _ = run(capsys, "applicability", "--profile", "browser")
    assert code == 0
    assert "NoSecureIpekStorage" in out
    assert "cloud_wallet" not in out


def test_applicability_unknown_profile(capsys):
    code, _, err = run(capsys, "applicability", "--profile", "fax_machine")
    assert code == 2
    assert "unknown profile" in err


def test_applicability_profiles_file(capsys, tmp_path):
    path = tmp_path / "profiles.txt"
    path.write_text("kiosk,none,device\n")
    code, out, _ = run(capsys, "applicability", "--profiles-file", str(path))
    assert code == 0
    assert "kiosk" in out and "NotApplicable" in out


def test_applicability_profiles_file_reads_any_comment_and_names_a_line_not_ascii(capsys, tmp_path):
    path = tmp_path / "profiles.txt"
    path.write_bytes("# café\nkiosk,none,device\n".encode("utf-8"))
    code, out, _ = run(capsys, "applicability", "--profiles-file", str(path))
    assert code == 0 and "kiosk" in out
    path.write_bytes("# café\ncafé,none,device\n".encode("utf-8"))
    code, out, err = run(capsys, "applicability", "--profiles-file", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}:2: record line is not ASCII\n"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--scheme", "rot13", "--profile", "pos"])
    assert excinfo.value.code == 2


def test_vectors_verify_names_a_counter_zero_record_and_goes_on(capsys, tmp_path):
    out_path = tmp_path / "v.txt"
    run(capsys, "vectors", "generate", "--count", "2", "--out", str(out_path))
    lines = out_path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace("counter=000001", "counter=000000")
    lines[2] = lines[2].replace(" key=", " key=00", 1)
    out_path.write_text("".join(lines))
    code, out, err = run(capsys, "vectors", "verify", "--file", str(out_path))
    assert code == 1 and err == ""
    assert ("record 1: derivation failed: vector derivation requires role Transaction, got Initial"
            in out.splitlines())
    assert "record 2 (counter 000002): key expected 00" in out
    assert "FAIL: 2 mismatch(es) in 2 record(s)" in out
