"""The sparse linear-combination type and the rewriting core."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.clifford import _cl_normalize
from cherednik.enveloping import _normalize, _wedge_normalize, v_basis
from cherednik.lincomb import LinComb, rewriting

F = Fraction


def inversions(word):
    return sum(a > b for i, a in enumerate(word) for b in word[i + 1:])


def test_terms_are_zero_free_and_arithmetic_is_exact():
    a = LinComb({"p": F(1, 2), "q": F(0), "r": F(-1)})
    b = LinComb({"p": F(-1, 2), "s": F(3)})
    assert a.terms == {"p": F(1, 2), "r": F(-1)}
    assert (a + b).terms == {"r": F(-1), "s": F(3)}
    assert (a - a).is_zero() and (a * 0).is_zero()
    assert (-a).terms == {"p": F(-1, 2), "r": F(1)}
    assert (2 * a).terms == (a * 2).terms == {"p": F(1), "r": F(-2)}
    assert LinComb.collect([("p", F(1)), ("q", F(2)), ("p", F(-1))]) == LinComb({"q": F(2)})
    assert LinComb.zero().is_zero()
    assert hash(a) == hash(LinComb({"r": F(-1), "p": F(1, 2)}))


def test_equality_needs_the_same_type():
    class Other(LinComb):
        __slots__ = ()

    assert LinComb({"p": F(1)}) != Other({"p": F(1)})
    assert Other({"p": F(1)}) == Other({"p": F(1)})


def test_product_needs_a_hook_and_an_exact_scalar():
    a = LinComb({("p",): F(1)})
    with pytest.raises(TypeError):
        a * a
    with pytest.raises(TypeError):
        a * 0.5


def test_rewriting_sorts_a_commutative_word_and_stops_at_zero():
    commutative = rewriting(1)
    assert commutative((3, 1, 2, 1)) == (((1, 1, 2, 3), F(1)),)
    anticommuting = rewriting(-1)
    assert anticommuting((2, 1, 2)) == ()
    assert anticommuting((2, 1, 3)) == (((1, 2, 3), F(-1)),)
    assert anticommuting((3, 2, 1)) == (((1, 2, 3), F(-1)),)
    # the Weyl algebra, letters x < d with d x = x d + 1: d x x = x x d + 2 x
    x, d = 0, 1
    weyl = rewriting(1, lambda a, b: [((), 1)])
    assert dict(weyl((d, x, x))) == {(x, x, d): 1, (x,): 2}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.sampled_from(v_basis(n)), max_size=6).map(tuple)))
def test_wedge_normal_form_is_signed_sort_or_zero(word):
    if len(set(word)) < len(word):
        assert _wedge_normalize(word) == ()
    else:
        assert _wedge_normalize(word) == ((tuple(sorted(word)), F((-1) ** inversions(word))),)


@st.composite
def rule_words(draw):
    """A normal-form function of the package and a word of its letters."""
    n = draw(st.integers(1, 3))
    letters = st.sampled_from(v_basis(n))
    generators = st.tuples(st.integers(1, n), st.integers(1, n))
    normalize, letter = draw(st.sampled_from([(_normalize, generators),
                                              (_wedge_normalize, letters),
                                              (_cl_normalize, letters)]))
    return normalize, tuple(draw(st.lists(letter, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(rule_words())
def test_normal_forms_have_int_coefficients(case):
    # the rules rewrite in integers; a Fraction in a rule would show here
    normalize, word = case
    assert all(type(c) is int for _, c in normalize(word))
