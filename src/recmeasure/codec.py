"""String/number bijections, pairing, interval families and the dyadic budget.

Binary strings are plain ``str`` objects over the characters ``"0"`` and
``"1"``; the empty string is a valid string.
"""

from __future__ import annotations

from math import gcd
from typing import Callable

# CPython's default int-from-str limit: ``int`` is quadratic in the digit count
MAX_DIGITS = 4300
# An exact rational as (numerator, denominator): reduced, with the denominator
# positive, wherever a function returns one
Rational = tuple[int, int]
# read_file reads whole lines until a block holds at least this many characters
_BLOCK_CHARS = 1 << 13


def excerpt(token: str) -> str:
    """``repr(token)`` for a message, cut to 40 characters plus the length."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} chars)"


def check_bits(sigma: str) -> str:
    """Reject anything that is not a word over {0,1}."""
    if sigma.strip("01"):
        raise ValueError(f"not a binary string: {excerpt(sigma)}")
    return sigma


def read_file(path, parse: Callable[[str], object],
              block: Callable[[list[str]], bool] | None = None) -> None:
    """Call ``parse`` on each stripped line of an ASCII text file, for its
    effect, skipping blanks and ``#`` comments.

    A ValueError from ``parse``, or a non-ASCII byte, is raised once as
    ``path:lineno: message``, so a parse function never sees a line number.
    Lines are read in blocks of about 8 KB; ``block(lines)`` may take an
    all-ASCII block whole, unstripped, by returning True; a block it
    declines goes to ``parse`` line by line.
    """
    lineno = 0
    # surrogateescape keeps each undecodable byte on its own line, as U+DC80..U+DCFF
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        while lines := fh.readlines(_BLOCK_CHARS):
            if block is not None and all(map(str.isascii, lines)) and block(lines):
                lineno += len(lines)
                continue
            for lineno, raw in enumerate(lines, lineno + 1):
                try:
                    if not raw.isascii():
                        byte = next(ord(c) - 0xDC00 for c in raw if not c.isascii())
                        raise ValueError(f"non-ASCII byte {byte:#04x}")
                    line = raw.strip()
                    if line and not line.startswith("#"):
                        parse(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_bits(token: str) -> str:
    """A binary string read from a file, ``-`` standing for the empty string."""
    return check_bits("" if token == "-" else token)


def is_digits(token: str) -> bool:
    """True iff ``token`` is 1 to MAX_DIGITS ASCII decimal digits."""
    return token.isascii() and token.isdecimal() and len(token) <= MAX_DIGITS


def is_integer(token: str) -> bool:
    """True iff ``token`` is ``[+-]digits`` with at most MAX_DIGITS digits."""
    return is_digits(token[1:] if token[:1] in ("+", "-") else token)


def read_rational(token: str) -> tuple[int, int]:
    """``[+-]digits`` or ``[+-]digits/digits`` read from a file, as (numerator,
    denominator); the denominator must be nonzero.

    Only this grammar is read: an exponent such as ``1e400000000`` would ask
    for a number of that many digits.  Each part has at most MAX_DIGITS
    digits, the limit the CLI's numeric options share; the CLI lifts
    CPython's own limit for output.
    """
    num, slash, den = token.partition("/")
    if is_integer(num) and (is_digits(den) or not slash):
        num, den = int(num), int(den or 1)
        if den:
            return num, den
    raise ValueError(f"bad rational {excerpt(token)}")


def reduced(num: int, den: int) -> Rational:
    """num/den (den nonzero) in lowest terms, with a positive denominator."""
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def rational_text(num: int, den: int) -> str:
    """num/den (den nonzero) as ``str(Fraction(num, den))`` writes it, for
    messages: in lowest terms, and an integer with no ``/1``."""
    num, den = reduced(num, den)
    return str(num) if den == 1 else f"{num}/{den}"


def num_of(sigma: str) -> int:
    """Rank of ``sigma`` in length-lexicographic order (shorter first): the
    binary number 1sigma less one.

    Satisfies 2^|sigma| - 1 <= num_of(sigma) <= 2^(|sigma|+1) - 2.
    """
    return int("1" + check_bits(sigma), 2) - 1


def str_of(n: int) -> str:
    """Inverse of :func:`num_of`: the binary digits of n + 1 after the leading 1."""
    if n < 0:
        raise ValueError("rank must be a natural number")
    return bin(n + 1)[3:]


def pair(a: int, b: int) -> int:
    """Injective pairing via the rank of ``1^|str(a)| 0 str(a) str(b)``."""
    sa, sb = str_of(a), str_of(b)
    return num_of("1" * len(sa) + "0" + sa + sb)


def s_index(e: int, n: int) -> int:
    """Even index 2*pair(e, n); bounded by 8(e+1)^2(n+1)."""
    return 2 * pair(e, n)


# The three interval partition families used throughout
FAMILIES = ["logpart", "pow2", "pow3"]


def logpart_size(m: int) -> int:
    """floor(2 + log2(m+1)), the size of the m-th LOGPART interval."""
    if m < 0:
        raise ValueError("index must be a natural number")
    return (m + 1).bit_length() + 1


def _logpart_lo(m: int) -> int:
    # lo(m) = sum_{j<m} logpart_size(j) = 2m + sum_{t=1}^{m} floor(log2 t),
    # and the inner sum has the closed form (m+1)k - 2^(k+1) + 2 with
    # k = floor(log2 m).
    if m == 0:
        return 0
    k = m.bit_length() - 1
    return 2 * m + (m + 1) * k - (1 << (k + 1)) + 2


def interval(family: str, m: int) -> range:
    """The m-th interval of the family named ``family`` (see FAMILIES), as the
    range of its integers."""
    if m < 0:
        raise ValueError("index must be a natural number")
    if family == "logpart":
        lo = _logpart_lo(m)
        return range(lo, lo + logpart_size(m))
    if family == "pow2":
        return range(0, 2) if m == 0 else range((1 << m) + 1, (1 << (m + 1)) + 1)
    if family == "pow3":
        return range(0, 3) if m == 0 else range(3**m, 3 ** (m + 1))
    raise ValueError(f"unknown family: {family!r}")


def budget_sequence(k: int) -> tuple[tuple[Rational, ...], Rational]:
    """Greedy prefix r_0..r_k of powers of two with weighted sum below 1/2, as
    (terms, remainder): sum_i (i+1)*terms[i] + remainder == 1/2 exactly.

    r_i is the largest power of two with (i+1)*r_i <= remainder_i/2, which
    forces remainder_k <= (3/4)^k / 2 while keeping the remainder positive.
    """
    if k < 0:
        raise ValueError("k must be a natural number")
    # every value is dyadic: the remainder is rem / 2^e and r_i is 1 / 2^t
    rem, e, exponents = 1, 1, []
    for m in range(1, k + 2):
        # the least t with m / 2^t <= rem / 2^(e+1), i.e. rem * 2^t >= m * 2^(e+1);
        # it is the bit-length difference (>= 0, as the remainder is below 2m) or one more
        scaled = m << (e + 1)
        t = scaled.bit_length() - rem.bit_length()
        if rem << t < scaled:
            t += 1
        exponents.append(t)
        rem, e = (rem << (t - e)) - m, t  # t >= e, as the terms never grow
    return tuple((1, 1 << t) for t in exponents), reduced(rem, 1 << e)
