"""Exception types shared across the library and the CLI, the size text of
the cap messages, the line split, strict integer token check and
symbol-table reader of the text parsers, the one file reader and writer,
and the tile rule of the two packed passes.

The text parsers read a block of rows through a table of the legal values
(parse_rows): a token is looked up as the string str(v) of a legal v.  A
block with any token not in the table, such as '01', '+1', '1_0', a
non-ASCII digit or a value out of range, is read again by parse_decimals,
so the checks after it see the same ints, or raise the same errors, as
without the table."""

import os
from pathlib import Path
from typing import Sequence


class FormatError(ValueError):
    """A matrix or Latin-square file could not be parsed."""


class PlanError(ValueError):
    """A construction plan cannot be realised (missing C1/C2, bad LSESC set, ...)."""


class VerificationError(RuntimeError):
    """A matrix that was required to be orthogonal is not."""


def size_text(size: int) -> str:
    """A size for a cap message: in decimal up to 64 bits, else by its bit
    length, since str() refuses ints past 4300 digits."""
    return str(size) if size.bit_length() <= 64 else f"<{size.bit_length()}-bit int>"


def text_lines(text: str) -> list[str]:
    """The lines of text, ended by LF, CRLF or CR only.  str.splitlines
    would also end a line at VT, FF, \\x1c-\\x1e, NEL, U+2028 and U+2029,
    which the file formats do not allow."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_decimals(tokens: list[str]) -> tuple[int, ...]:
    """ASCII decimal tokens as ints.  int() alone would also take '+0',
    '0_0' and non-ASCII digits, so a malformed file would be coerced.
    str.split() yields no empty token, so one test of the joined tokens
    checks every token."""
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        raise FormatError(f"not all ASCII decimal integers: {' '.join(tokens)!r}")
    return tuple(map(int, tokens))


def parse_rows(lines: Sequence[str], legal: range) -> tuple[tuple[int, ...], ...]:
    """The tokens of each line as ints, through the table of the legal
    values (a range of ints >= 0), or else parse_decimals (see above)."""
    table = dict(zip(map(str, legal), legal))
    try:
        return tuple(tuple(map(table.__getitem__, line.split())) for line in lines)
    except KeyError:
        return tuple(parse_decimals(line.split()) for line in lines)


def read_text(path: str | Path, what: str) -> str:
    """The file's text, which must be UTF-8, else FormatError naming what."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} file is not UTF-8: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Atomic UTF-8 write: a sibling temporary file, then os.replace onto path."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except OSError as exc:  # named after path, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(target)) from exc
    finally:
        tmp.unlink(missing_ok=True)


_TILE_BYTES, _TILE_FLOOR = 1 << 19, 32


def tile_units(unit_bytes: int) -> int:
    """Units in a tile of butson._first_packed_failure (rows of n slots) or
    latin._first_unmet_pair (squares of n^2 slots): as many as fit _TILE_BYTES,
    but at least _TILE_FLOOR, lest the largest inputs sum a few units at a time."""
    return max(_TILE_FLOOR, _TILE_BYTES // unit_bytes)
