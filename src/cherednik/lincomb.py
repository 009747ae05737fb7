"""
Sparse linear combinations with exact coefficients, and one rewriting core.

``LinComb`` is a finite sum of hashable keys with exact coefficients (ints
or Fractions, never floats), stored as a zero-free ``terms`` dict. Its
arithmetic (sum, difference, negation, scalar multiple, equality, hash) is
defined here once. When the keys are words (tuples), two combinations
multiply by concatenating keys and reducing each concatenation through the
class's ``_reduce`` hook, which maps a word to its normal form as (word,
coefficient) pairs; a class without the hook has no product.

``rewriting(sign, bracket)`` builds such a hook from one commutation rule:
for letters a > b, a b = sign (b a) + bracket(a, b), where sign is +1 or -1
and ``bracket(a, b)`` gives the (word, coefficient) terms added, words of
any length (no terms when bracket is None). With sign -1 a repeated letter
a a is 0: a a = -(a a) + bracket(a, a) needs bracket(a, a) = 0, which holds
because every anticommuting alphabet of the package is isotropic,
<v, v> = 0 for each basis vector. The leftmost pair a > b (or a a, with
sign -1) is rewritten and every resulting word is reduced again through the
cache, so the rewriting ends when some well-founded order on words puts
both b a and each bracket word, in the pair's place, below a b: here the
length and then the number of inversions, or, for a bracket whose words
are longer than the pair, a count of letters it lowers. Every bracket of
the package has integer coefficients, so normal forms stay in Python ints;
a Fraction enters only where a caller scales a result.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Hashable, Iterable

Word = tuple
Scalar = int | Fraction
NormalForm = tuple[tuple[Word, int], ...]
Bracket = Callable[[Hashable, Hashable], Iterable[tuple[Word, int]]]

ONE = 1


def add_terms(acc: dict, pairs: Iterable[tuple[Hashable, Scalar]]) -> dict:
    """Add (key, coefficient) pairs into ``acc`` in place; zeros stay."""
    for k, c in pairs:
        acc[k] = acc[k] + c if k in acc else c
    return acc


def rewriting(sign: int, bracket: Bracket | None = None) -> Callable[[Word], NormalForm]:
    """The cached normal-form function of words under a b = sign (b a) +
    bracket(a, b) for a > b."""

    @lru_cache(maxsize=None)
    def normal_form(word: Word) -> NormalForm:
        for idx in range(len(word) - 1):
            a, b = word[idx], word[idx + 1]
            if a < b or (a == b and sign > 0):
                continue
            if a == b:
                return ()
            head, tail = word[:idx], word[idx + 2:]
            terms = [((b, a), sign), *(bracket(a, b) if bracket else ())]
            acc = add_terms({}, ((m, coeff * c) for sub, coeff in terms
                                 for m, c in normal_form(head + sub + tail)))
            return tuple((m, c) for m, c in acc.items() if c)
        return ((word, ONE),)

    return normal_form


class LinComb:
    """Zero-free combination of hashable keys with exact (int or Fraction)
    coefficients."""

    __slots__ = ("terms",)
    _reduce: Callable[[Word], Iterable[tuple[Word, Scalar]]] | None = None

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def collect(cls, pairs: Iterable[tuple[Hashable, Scalar]]):
        """The sum of the given (key, coefficient) pairs."""
        return cls(add_terms({}, pairs))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return type(self)(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return type(self)(add_terms(dict(self.terms),
                                    ((k, -c) for k, c in other.terms.items())))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, LinComb):
            return NotImplemented
        reduce = self._reduce
        if reduce is None:
            raise TypeError(f"{type(self).__name__} has no product")
        return self.collect((m, c1 * c2 * c)
                            for m1, c1 in self.terms.items()
                            for m2, c2 in other.terms.items()
                            for m, c in reduce(m1 + m2))

    __rmul__ = __mul__

    def commutator(self, other):
        return self * other - other * self
