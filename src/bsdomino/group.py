"""Words and exact valuations for BS(m,n) = <a, t | t^-1 a^m t = a^n>.

A word is either text or a canonical GroupElement; both are read as runs,
('a', exponent) per a-run and ('t', +-1) per stable letter, so an
exponent costs its digits, not its value.  Words carry two exact
valuations:

* ``beta(w)``  = -(#t - #t^-1), the (negated) stable-letter height;
* ``alpha(w)`` accumulates +-(m/n)^(-beta(prefix)) for each a^(+-1).

The pair ``phi = (alpha, beta)`` is invariant under the defining relator,
so it descends to the group.  ``lambda_val = (1/m) (n/m)^(-beta) alpha``
is the derived scale parameter the tile construction runs on; it obeys

    lambda(g a) = lambda(g) + 1/m        lambda(g t) = (n/m) lambda(g)

so it is one integer walk over the runs (lambda_parts), and phi is
read back from it as alpha = m lambda (n/m)^beta.

Group elements get a decidable canonical form by Britton reduction for
the HNN presentation: pinches t^-1 a^(m j) t -> a^(n j) and
t a^(n j) t^-1 -> a^(m j) are removed, and a-exponents are normalised to
coset representatives, 0 <= e < m before a t and 0 <= e < n before a
t^-1 (the relator gives a^m t = t a^n and a^n t^-1 = t^-1 a^m, so those
are the moduli that slide across each stable letter), pushing quotients
to the right.  The trailing exponent is unconstrained.

Text syntax: ``a``, ``t``, with ``A`` and ``T`` for the inverses, an
optional integer exponent after each letter, whitespace ignored.  A
negative exponent or an uppercase letter (or both) marks an inverse run:
``a2`` is a^2 while ``A2``, ``a-2`` and ``A-2`` all mean a^-2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, repeat
from operator import itemgetter

from .errors import ParseError

ALPHABET = ("a", "A", "t", "T")


@dataclass(frozen=True)
class BsParams:
    """The two positive integers defining BS(m,n)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"require m >= 1 and n >= 1, got ({self.m}, {self.n})")


# a letter and its exponent, a character to skip ('e' spells the empty
# word), or any other character
_WORD_TOKEN = re.compile(rf"([{''.join(ALPHABET)}])(-?\d*)|[\se]|(.)", re.DOTALL)


def _text_runs(text: str):
    """Parse the compact word syntax into runs: one ('a', exponent) per
    a-run, one ('t', +-1) per t, as each t is a stable letter."""
    for token in _WORD_TOKEN.finditer(text):
        ch, digits, other = token.groups()
        if other is not None:
            raise ParseError(f"unexpected character {other!r} (at position {token.start()})")
        if ch is None:
            continue
        if digits == "-":
            raise ParseError(f"dangling '-' after letter (at position {token.start(2)})")
        try:
            exp = int(digits) if digits else 1
        except ValueError:  # past Python's limit on integer string digits
            raise ParseError(f"exponent too long (at position {token.start(2)})") from None
        sign = -1 if ch.isupper() or exp < 0 else 1
        if ch in "aA":
            yield ("a", sign * abs(exp))
        else:
            yield from repeat(("t", sign), abs(exp))


def _runs(w):
    """The ('a', exponent) / ('t', +-1) runs of an element or of text."""
    if isinstance(w, GroupElement):
        return w.runs()
    if isinstance(w, str):
        return _text_runs(w)
    raise TypeError(f"a word is text or a GroupElement, not {type(w).__name__}")


def beta(w) -> int:
    """Minus the net count of t over t^-1; decreases by 1 for each trailing t."""
    total = 0
    for kind, value in _runs(w):
        if kind == "t":
            total -= value
    return total


def phi(params: BsParams, w) -> tuple[Fraction, int]:
    """The exact plane embedding (alpha(w), beta(w)), from the integer
    lambda walk: alpha = m lambda (n/m)^beta."""
    num, den = lambda_parts(params, w)
    b_val = beta(w)
    return Fraction(params.m * num, den) * Fraction(params.n, params.m) ** b_val, b_val


def alpha(params: BsParams, w) -> Fraction:
    return phi(params, w)[0]


def lambda_parts(params: BsParams, w) -> tuple[int, int]:
    """lambda(w) = N / (m D) as the unreduced pair (N, m D), in one walk:
    a^e adds e D to N, t multiplies N by n and D by m, t^-1 N by m and D
    by n (lambda(g a) = lambda(g) + 1/m, lambda(g t) = (n/m) lambda(g)).
    The stable letters between two a-runs, u times t and d times t^-1,
    are applied at once as n^u m^d and m^u n^d, so t^k costs about the
    k digits of its value, not k big-number steps."""
    m, n = params.m, params.n
    num, den = 0, 1
    up = down = 0
    for kind, value in chain(_runs(w), [("a", 0)]):
        if kind == "t":
            if value > 0:
                up += 1
            else:
                down += 1
            continue
        if up or down:
            num, den = num * n**up * m**down, den * m**up * n**down
            up = down = 0
        num += value * den
    return num, m * den


def lambda_val(params: BsParams, w) -> Fraction:
    """(1/m) (n/m)^(-beta) alpha, the scale parameter of the tile rows."""
    return Fraction(*lambda_parts(params, w))


@dataclass(frozen=True)
class GroupElement:
    """Canonical (Britton-reduced) form of a BS(m,n) element.

    Stored as the alternating word  a^exps[0] s_1 a^exps[1] ... s_k a^exps[k]
    with stables[i-1] = +1 for t and -1 for t^-1.  Interior exponents are
    coset representatives; the final exponent is any integer.
    """

    exps: tuple[int, ...]
    stables: tuple[int, ...]

    def is_identity(self) -> bool:
        return not self.stables and self.exps == (0,)

    def length(self) -> int:
        """Letter count of the canonical word."""
        return sum(abs(e) for e in self.exps) + len(self.stables)

    def beta(self) -> int:
        return -sum(self.stables)

    def runs(self):
        yield ("a", self.exps[0])
        for sign, e in zip(self.stables, self.exps[1:]):
            yield ("t", sign)
            yield ("a", e)

    def to_text(self) -> str:
        """Space-separated runs of equal letters, ``A``/``T`` marking
        inverses and ``e`` the identity, as in ``T A2 t2``."""
        letters = (
            (kind if value > 0 else kind.upper(), abs(value))
            for kind, value in self.runs()
            if value
        )
        parts = []
        for letter, run in groupby(letters, itemgetter(0)):
            count = sum(c for _, c in run)
            parts.append(letter if count == 1 else f"{letter}{count}")
        return " ".join(parts) or "e"

    def sort_key(self):
        return (self.length(), len(self.stables), self.stables, self.exps)

    def __str__(self) -> str:
        return self.to_text()


IDENTITY_ELEMENT = GroupElement((0,), ())


def _reduce_runs(run_iter, m: int, n: int) -> GroupElement:
    # the Britton step on lists, so each letter costs O(1)
    exps: list[int] = [0]
    stables: list[int] = []
    for kind, value in run_iter:
        if kind == "a":
            exps[-1] += value
            continue
        # a^e t = a^(e mod m) t a^(n floor(e/m)) and a^e t^-1 = a^(e mod n)
        # t^-1 a^(m floor(e/n)), so with (q, r) = divmod(e, mod) the tail
        # a^e t^value becomes a^r t^value a^(q out); r = 0 right after
        # t^-value is a pinch (t^-1 a^(m q) t -> a^(n q), t a^(n q) t^-1
        # -> a^(m q)): the two stable letters cancel, and a^(q out) joins
        # the exponent before them
        mod, out = (m, n) if value > 0 else (n, m)
        q, r = divmod(exps[-1], mod)
        if r == 0 and stables and stables[-1] == -value:
            del stables[-1], exps[-1]
            exps[-1] += q * out
        else:
            exps[-1:] = r, q * out
            stables.append(value)
    return GroupElement(tuple(exps), tuple(stables))


def britton_reduce(params: BsParams, w) -> GroupElement:
    """Canonical form of the element represented by the word w."""
    return _reduce_runs(_runs(w), params.m, params.n)


def multiply(params: BsParams, g: GroupElement, h) -> GroupElement:
    """Product g * h on canonical forms; h may be an element or a word."""
    # g's runs reduce to g itself, so the product is one reduction
    return _reduce_runs(chain(g.runs(), _runs(h)), params.m, params.n)


def inverse(params: BsParams, g: GroupElement) -> GroupElement:
    def inverted():
        yield ("a", -g.exps[-1])
        for sign, e in zip(reversed(g.stables), reversed(g.exps[:-1])):
            yield ("t", -sign)
            yield ("a", -e)

    return _reduce_runs(inverted(), params.m, params.n)


def element_from_text(params: BsParams, text: str) -> GroupElement:
    return britton_reduce(params, text)
