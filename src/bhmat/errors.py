"""Exception types shared across the library and the CLI, and the strict
integer token check of the text parsers."""


class FormatError(ValueError):
    """A matrix or Latin-square file could not be parsed."""


class PlanError(ValueError):
    """A construction plan cannot be realised (missing C1/C2, bad LSESC set, ...)."""


class VerificationError(RuntimeError):
    """A matrix that was required to be orthogonal is not."""


def parse_decimals(tokens: list[str]) -> tuple[int, ...]:
    """ASCII decimal tokens as ints.  int() alone would also take '+0',
    '0_0' and non-ASCII digits, so a malformed file would be coerced.
    str.split() yields no empty token, so one test of the joined tokens
    checks every token."""
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        raise FormatError(f"not all ASCII decimal integers: {' '.join(tokens)!r}")
    return tuple(map(int, tokens))
