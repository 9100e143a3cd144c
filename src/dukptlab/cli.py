"""Command-line driver.

Subcommands::

    dukptlab derive-ipek    --bdk HEX32 --ksn HEX20
    dukptlab derive-key     --bdk HEX32 --ksn HEX20
    dukptlab simulate       --scheme {dukpt,fixed,ms} --profile NAME --count N --seed S
    dukptlab vectors        generate --count N [--bdk HEX32 --ksn HEX20 --out PATH]
    dukptlab vectors        verify --file PATH
    dukptlab applicability  [--profile NAME | --profiles-file PATH]

Exit codes: 0 success, 1 verification failure, 2 input error,
3 crypto-policy error (overweight or exhausted counter), 4 profile gating.
Hex is accepted in either case and always printed uppercase. Output is
deterministic given the flags; the only non-reproducible figure (simulation
wall time) goes to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import vectors as vectors_mod
from .errors import CounterExhausted, CounterOverweight, DukptError, ProfileIncompatible
from .key_hierarchy import (
    KeyRole, TdeaKey, derive_ipek, derive_key_chain, parse_ksn, variant_data_key, variant_pin_key,
)
from .scenarios import (
    BUILTIN_PROFILES, EndpointProfile, applicability_table, load_profiles_file, run_simulation,
)
from .wire import Scheme

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_POLICY = 3
EXIT_PROFILE = 4

_SCHEME_FLAGS = {"dukpt": Scheme.DUKPT, "fixed": Scheme.FIXED, "ms": Scheme.MASTER_SESSION}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dukptlab",
        description="Per-transaction key derivation tools and simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive-ipek", help="derive a device initial key")
    p.add_argument("--bdk", required=True, help="base derivation key, 32 hex chars")
    p.add_argument("--ksn", required=True, help="initial KSN, 20 hex chars")

    p = sub.add_parser("derive-key", help="derive the transaction key for a KSN")
    p.add_argument("--bdk", required=True, help="base derivation key, 32 hex chars")
    p.add_argument("--ksn", required=True, help="KSN carrying the counter, 20 hex chars")

    p = sub.add_parser("simulate", help="run terminal-to-host transactions")
    p.add_argument("--scheme", required=True, choices=sorted(_SCHEME_FLAGS))
    p.add_argument("--profile", required=True, help="endpoint profile name")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "records"), default="table")

    p = sub.add_parser("vectors", help="generate or verify derivation vectors")
    vsub = p.add_subparsers(dest="vectors_command", required=True)
    g = vsub.add_parser("generate", help="emit self-consistent vector records")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--bdk", default=vectors_mod.DEFAULT_BDK_HEX)
    g.add_argument("--ksn", default=vectors_mod.DEFAULT_KSN_HEX)
    g.add_argument("--out", help="write to a file instead of stdout")
    v = vsub.add_parser("verify", help="recompute and check a vector file")
    v.add_argument("--file", required=True)

    p = sub.add_parser("applicability", help="endpoint applicability verdicts")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--profile", help="one built-in profile name")
    group.add_argument("--profiles-file", help="profile definitions, one per line")

    return parser


def _builtin_profile(name: str) -> EndpointProfile:
    if name not in BUILTIN_PROFILES:
        raise ValueError(f"unknown profile {name!r}; known: {', '.join(BUILTIN_PROFILES)}")
    return BUILTIN_PROFILES[name]


def _cmd_derive_ipek(args: argparse.Namespace) -> int:
    bdk = TdeaKey.from_hex(args.bdk, KeyRole.BASE_DERIVATION)
    print(derive_ipek(bdk, parse_ksn(args.ksn)).hex)
    return EXIT_OK


def _cmd_derive_key(args: argparse.Namespace) -> int:
    bdk = TdeaKey.from_hex(args.bdk, KeyRole.BASE_DERIVATION)
    ksn = parse_ksn(args.ksn)
    key = derive_key_chain(derive_ipek(bdk, ksn), ksn)
    print(f"key={key.hex}")
    if ksn.counter == 0:
        print("note=counter is zero; this is the initial key (diagnostic only)")
        return EXIT_OK
    print(f"pin_variant={variant_pin_key(key).hex}")
    print(f"data_variant={variant_data_key(key).hex}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    profile = _builtin_profile(args.profile)
    report = run_simulation(_SCHEME_FLAGS[args.scheme], profile, args.count, args.seed)
    print(report.table() if args.format == "table" else report.record_line())
    print(f"elapsed_seconds={report.elapsed_seconds:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_vectors(args: argparse.Namespace) -> int:
    if args.vectors_command == "generate":
        records = vectors_mod.generate(args.count, args.bdk, args.ksn)
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                vectors_mod.write_file(records, fh)
        else:
            vectors_mod.write_file(records, sys.stdout)
        return EXIT_OK
    records = vectors_mod.read_file(args.file)
    failures = vectors_mod.verify(records)
    for failure in failures:
        print(failure)
    if failures:
        print(f"FAIL: {len(failures)} mismatch(es) in {len(records)} record(s)")
        return EXIT_VERIFY_FAILED
    print(f"OK: {len(records)} record(s) verified")
    return EXIT_OK


def _cmd_applicability(args: argparse.Namespace) -> int:
    profiles = None  # the built-in set
    if args.profile is not None:
        profiles = [_builtin_profile(args.profile)]
    elif args.profiles_file is not None:
        profiles = load_profiles_file(args.profiles_file)
    print(applicability_table(profiles))
    return EXIT_OK


_HANDLERS = {
    "derive-ipek": _cmd_derive_ipek,
    "derive-key": _cmd_derive_key,
    "simulate": _cmd_simulate,
    "vectors": _cmd_vectors,
    "applicability": _cmd_applicability,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ProfileIncompatible as exc:
        print(f"profile gating: {exc}", file=sys.stderr)
        return EXIT_PROFILE
    except (CounterOverweight, CounterExhausted) as exc:
        print(f"counter policy: {exc}", file=sys.stderr)
        return EXIT_POLICY
    except (DukptError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
