import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdomino.errors import ParseError
from bsdomino.group import (
    BsParams,
    IDENTITY_ELEMENT,
    alpha,
    beta,
    _text_runs,
    britton_reduce,
    element_from_text,
    inverse,
    lambda_parts,
    lambda_val,
    multiply,
    phi,
)
from support import (
    ALL_PARAMS,
    compose_alpha_check,
    insert_relator,
    random_word,
    reference_lambda,
    reference_phi,
    reference_text,
    relator_variants,
)

WITNESS_32 = "taT a2 t A T A-2"
WITNESS_ALL = "taT at A T A"


def text_runs(text):
    return list(_text_runs(text))


def test_parse_word_syntax():
    # one ('a', exponent) per a-run, one ('t', +-1) per stable letter
    assert text_runs("taT a2 t A T A-2") == [
        ("t", 1), ("a", 1), ("t", -1), ("a", 2),
        ("t", 1), ("a", -1), ("t", -1), ("a", -2),
    ]
    assert text_runs("") == [] and text_runs("e") == []
    assert text_runs("  a3  T2 ") == [("a", 3), ("t", -1), ("t", -1)]
    assert text_runs("a-2") == [("a", -2)]
    assert text_runs("A2") == [("a", -2)]
    assert text_runs("t0") == []


def test_parse_word_rejects_garbage():
    for text, message in [
        ("a b", "unexpected character 'b' (at position 2)"),
        ("ax", "unexpected character 'x' (at position 1)"),
        ("a-", "dangling '-' after letter (at position 1)"),
        # superscripts pass str.isdigit but are no exponent digits
        ("a²", "unexpected character '²' (at position 1)"),
        ("t¹", "unexpected character '¹' (at position 1)"),
        ("a1²", "unexpected character '²' (at position 2)"),
        ("a-²", "dangling '-' after letter (at position 1)"),
        # more digits than int() reads
        ("a" + "1" * 5000, "exponent too long (at position 1)"),
    ]:
        with pytest.raises(ParseError) as info:
            text_runs(text)
        assert str(info.value) == message
        with pytest.raises(ParseError, match=re.escape(message)):
            element_from_text(BsParams(2, 3), text)
    with pytest.raises(TypeError):
        beta(("a", "t"))


def test_word_text_round_trip():
    rng = Random(11)
    for m, n in [(2, 3), (3, 2), (1, 2), (2, 2)]:
        p = BsParams(m, n)
        for _ in range(200):
            g = britton_reduce(p, random_word(rng))
            assert element_from_text(p, g.to_text()) == g


def test_beta():
    assert beta("") == 0
    assert beta("t") == -1
    assert beta("T T a t") == 1


def test_alpha_examples():
    assert alpha(BsParams(5, 7), "") == 0
    assert alpha(BsParams(2, 3), "a") == 1
    assert alpha(BsParams(2, 3), "ta") == Fraction(2, 3)


def test_alpha_composition_examples():
    p = BsParams(2, 3)
    assert compose_alpha_check(p, "", "a")
    assert compose_alpha_check(p, "t", "a")
    assert alpha(p, "ta") == 0 + Fraction(2, 3) * 1


def test_alpha_composition_random():
    rng = Random(5)
    p = BsParams(3, 2)
    for _ in range(500):
        u = "".join(rng.choice("aAtT") for _ in range(20))
        v = "".join(rng.choice("aAtT") for _ in range(20))
        assert compose_alpha_check(p, u, v)


def test_beta_is_a_homomorphism():
    rng = Random(6)
    for _ in range(300):
        u, v = random_word(rng), random_word(rng)
        assert beta(u + v) == beta(u) + beta(v)


def test_witness_words_map_to_origin():
    assert phi(BsParams(3, 2), WITNESS_32) == (0, 0)
    for m, n in [(2, 3), (3, 2), (2, 2), (3, 5)]:
        assert phi(BsParams(m, n), WITNESS_ALL) == (0, 0)
    assert phi(BsParams(4, 9), "") == (0, 0)


def test_lambda_examples():
    p = BsParams(2, 3)
    assert lambda_val(p, "") == 0
    assert lambda_val(p, "a") == Fraction(1, 2)
    assert lambda_val(p, "at") == Fraction(3, 4)


def test_lambda_step_identities():
    rng = Random(7)
    for m, n in [(2, 3), (3, 2), (1, 2), (2, 2)]:
        p = BsParams(m, n)
        for _ in range(200):
            w = random_word(rng)
            lam = lambda_val(p, w)
            assert lambda_val(p, w + "a") == lam + Fraction(1, m)
            assert lambda_val(p, w + "t") == Fraction(n, m) * lam


def test_britton_reduce_examples():
    for m, n in [(2, 3), (3, 2), (1, 4)]:
        p = BsParams(m, n)
        relator_side = britton_reduce(p, "T" + "a" * m + "t")
        assert relator_side == britton_reduce(p, "a" * n)
    p = BsParams(2, 3)
    assert britton_reduce(p, "aA") == IDENTITY_ELEMENT
    nontrivial = britton_reduce(BsParams(3, 2), WITNESS_32)
    assert not nontrivial.is_identity()
    assert phi(BsParams(3, 2), nontrivial) == (0, 0)


def test_britton_preserves_phi():
    rng = Random(8)
    for m, n in [(2, 3), (3, 2), (2, 2)]:
        p = BsParams(m, n)
        for _ in range(300):
            w = random_word(rng)
            assert phi(p, britton_reduce(p, w)) == phi(p, w)


def test_relator_insertion_fixes_canonical_form():
    rng = Random(9)
    for m, n in [(2, 3), (3, 2), (1, 2), (2, 2)]:
        p = BsParams(m, n)
        for _ in range(500):
            w = random_word(rng)
            padded = insert_relator(rng, p, w)
            assert britton_reduce(p, padded) == britton_reduce(p, w)


def test_canonical_equality_matches_word_problem():
    # u and v name the same element exactly when u v^-1 reduces to identity
    rng = Random(10)
    p = BsParams(2, 3)
    for _ in range(400):
        u, v = random_word(rng, 14), random_word(rng, 14)
        same_form = britton_reduce(p, u) == britton_reduce(p, v)
        # the inverse of a word of single letters: reversed, case swapped
        trivial_quotient = britton_reduce(p, u + v[::-1].swapcase()).is_identity()
        assert same_form == trivial_quotient


def test_multiply_and_inverse_laws():
    rng = Random(12)
    p = BsParams(2, 3)
    for _ in range(300):
        g = britton_reduce(p, random_word(rng, 14))
        h = britton_reduce(p, random_word(rng, 14))
        k = britton_reduce(p, random_word(rng, 14))
        assert multiply(p, g, IDENTITY_ELEMENT) == g
        assert multiply(p, IDENTITY_ELEMENT, g) == g
        assert multiply(p, g, inverse(p, g)) == IDENTITY_ELEMENT
        assert multiply(p, multiply(p, g, h), k) == multiply(p, g, multiply(p, h, k))


def test_multiply_relator_slide():
    p = BsParams(2, 3)
    product = multiply(p, element_from_text(p, "a2"), element_from_text(p, "t"))
    assert product == element_from_text(p, "t a3")


def test_element_word_round_trip():
    rng = Random(13)
    p = BsParams(3, 2)
    for _ in range(200):
        g = britton_reduce(p, random_word(rng))
        assert britton_reduce(p, g) == g
        assert britton_reduce(p, reference_text(g)) == g
        assert element_from_text(p, g.to_text()) == g


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        BsParams(0, 3)
    with pytest.raises(ValueError):
        BsParams(2, -1)


# The identities simulate_row and assignment_from_orbit rely on for lambda,
# and the group laws behind them, over the parameters of every example map
# and a few more.
PARAMS = st.sampled_from(
    [BsParams(m, n) for m, n in [(2, 3), (2, 2), (3, 2), (1, 2), (3, 5)]]
)
WORDS = st.lists(st.sampled_from("aAtT"), max_size=16).map("".join)


@settings(max_examples=200, deadline=None)
@given(params=PARAMS, u=WORDS, v=WORDS, w=WORDS)
def test_multiply_is_associative(params, u, v, w):
    g, h, k = (britton_reduce(params, x) for x in (u, v, w))
    assert multiply(params, multiply(params, g, h), k) == multiply(
        params, g, multiply(params, h, k)
    )
    assert multiply(params, g, h) == britton_reduce(params, u + v)


@settings(max_examples=200, deadline=None)
@given(params=PARAMS, u=WORDS)
def test_inverse_is_two_sided(params, u):
    g = britton_reduce(params, u)
    assert multiply(params, g, inverse(params, g)) == IDENTITY_ELEMENT
    assert multiply(params, inverse(params, g), g) == IDENTITY_ELEMENT


@settings(max_examples=200, deadline=None)
@given(params=PARAMS, u=WORDS, data=st.data())
def test_relator_insertion_keeps_britton_form_and_phi(params, u, data):
    relator = data.draw(st.sampled_from(relator_variants(params)))
    cut = data.draw(st.integers(0, len(u)))
    padded = u[:cut] + relator + u[cut:]
    assert britton_reduce(params, padded) == britton_reduce(params, u)
    assert phi(params, padded) == phi(params, u)


@settings(max_examples=200, deadline=None)
@given(params=PARAMS, u=WORDS)
def test_lambda_steps_on_elements(params, u):
    g = britton_reduce(params, u)
    lam = lambda_val(params, g)
    assert lambda_val(params, multiply(params, g, "a")) == lam + Fraction(1, params.m)
    step_t = multiply(params, g, "t")
    assert lambda_val(params, step_t) == Fraction(params.n, params.m) * lam
    assert lam == lambda_val(params, u)


@settings(max_examples=300, deadline=None)
@given(params=ALL_PARAMS, u=WORDS)
def test_lambda_matches_phi_formula(params, u):
    g = britton_reduce(params, u)
    for w in (u, g, g.to_text()):
        assert lambda_val(params, w) == reference_lambda(params, w)
        assert phi(params, w) == reference_phi(params, w)
    num, den = lambda_parts(params, g)
    assert Fraction(num, den) == reference_lambda(params, g)


# t-runs long enough that their letters outnumber everything else
T_RUNS = st.lists(
    st.tuples(st.sampled_from("aAtT"), st.integers(-400, 400)), max_size=5
)


@settings(max_examples=100, deadline=None)
@given(params=ALL_PARAMS, runs=T_RUNS)
def test_lambda_on_long_t_runs_matches_phi_formula(params, runs):
    text = " ".join(f"{letter}{exp}" for letter, exp in runs)
    g = element_from_text(params, text)
    for w in (text, g):
        assert Fraction(*lambda_parts(params, w)) == reference_lambda(params, w)
    assert phi(params, text) == reference_phi(params, text)


def test_lambda_of_a_t_run_in_closed_form():
    # a^5 t^k a^-1: N = 5 n^k - m^k over m D = m m^k, and t^-k swaps n and m
    p, k = BsParams(3, 2), 60000
    assert lambda_parts(p, f"a5 t{k} A") == (5 * 2**k - 3**k, 3 ** (k + 1))
    assert lambda_parts(p, f"a5 T{k} A") == (5 * 3**k - 2**k, 3 * 2**k)
    assert lambda_parts(p, f"t{k} T{k} a") == (6**k, 3 * 6**k)


RUNS = st.lists(
    st.tuples(st.sampled_from("aAtT"), st.integers(-3, 12)), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(params=ALL_PARAMS, runs=RUNS)
def test_text_runs_match_letters(params, runs):
    text = " ".join(f"{letter}{exp}" for letter, exp in runs)
    word = ""
    for letter, exp in runs:
        inverted = letter.isupper() or exp < 0
        word += (letter.upper() if inverted else letter.lower()) * abs(exp)
    letters = "".join(
        (kind if value > 0 else kind.upper()) * abs(value)
        for kind, value in text_runs(text)
    )
    assert letters == word
    assert element_from_text(params, text) == britton_reduce(params, word)
    assert phi(params, text) == phi(params, word)
    assert lambda_val(params, text) == reference_lambda(params, word)


def test_large_exponent_costs_its_digits():
    p = BsParams(3, 2)
    g = element_from_text(p, "a1000000000")
    assert g.exps == (10**9,) and g.stables == ()
    assert phi(p, "a1000000000") == (10**9, 0)
    assert lambda_val(p, g) == Fraction(10**9, 3)
    assert g.to_text() == "a1000000000"
    assert element_from_text(p, "T a2 t a-1000000000").to_text() == "T a2 t A1000000000"


# a-runs of up to two digits, t-runs short enough that the letters stay few
LONG_RUNS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("aA"), st.integers(-40, 40)),
        st.tuples(st.sampled_from("tT"), st.integers(-2, 2)),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(params=ALL_PARAMS, u=WORDS, runs=LONG_RUNS)
def test_to_text_matches_letter_rendering(params, u, runs):
    text = " ".join(f"{letter}{exp}" for letter, exp in runs)
    for g in (britton_reduce(params, u), element_from_text(params, text)):
        assert g.to_text() == reference_text(g)
