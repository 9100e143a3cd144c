"""Exception types shared across the package, and :func:`read_records`, the record-file reader.

The command-line driver maps these onto exit codes, so new failure modes
should subclass one of the existing families rather than raising bare builtins.
"""

from typing import Callable, TypeVar

_Record = TypeVar("_Record")


class DukptError(Exception):
    """Base class for every error raised by this package."""


class HexInputError(DukptError, ValueError):
    """Input text is not valid hexadecimal."""


class LengthError(DukptError, ValueError):
    """Key, KSN, or block has the wrong length."""


class CounterExhausted(DukptError):
    """No usable transaction counters remain; the device is spent."""


class CounterOverweight(DukptError):
    """Counter has more than the allowed number of set bits."""


class KeyRoleError(DukptError):
    """Key presented with the wrong role for the requested operation."""


class NonZeroCounter(DukptError):
    """Initial KSN carried a nonzero transaction counter."""


class EmptyPlaintext(DukptError, ValueError):
    """Nothing to encrypt."""


class DecryptFailed(DukptError):
    """Decryption produced structurally invalid output (bad padding or
    a clear text that fails its integrity shape check)."""


class MalformedPinBlock(DukptError):
    """Clear PIN block does not follow the format-0 structure."""


class InvalidPin(DukptError, ValueError):
    """PIN is not 4..12 decimal digits."""


class InvalidPan(DukptError, ValueError):
    """PAN is shorter than 13 digits or contains non-digits."""


class DuplicateKeySet(DukptError):
    """Key-set identifier already registered and overwrite not requested."""


class UnknownKeySet(DukptError):
    """No base derivation key registered for the key-set identifier."""


class WireFormatError(DukptError, ValueError):
    """Wire line does not parse as a transaction message."""


class EmptyMessage(WireFormatError):
    """Transaction message carries no payload at all."""


class VectorFormatError(DukptError, ValueError):
    """Vector file line does not parse as a vector record."""


class ProfileFormatError(DukptError, ValueError):
    """Endpoint profile definition does not parse."""


class ProfileIncompatible(DukptError):
    """Requested scheme is not applicable to the endpoint profile."""


def read_records(path: str, parse: Callable[[str], _Record]) -> list[_Record]:
    """``parse`` of each line of the file at ``path``, blank and ``#`` lines skipped undecoded (a
    comment may hold any byte); a record line not ASCII raises :class:`DukptError` and one
    ``parse`` refuses raises its error again, of its class, each after ``path:lineno:``."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith(b"#"):
                try:
                    records.append(parse(stripped.decode("ascii")))
                except UnicodeDecodeError as exc:
                    raise DukptError(f"{path}:{lineno}: record line is not ASCII") from exc
                except DukptError as exc:
                    raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return records
