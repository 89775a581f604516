from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from urnlab import EmptyUrn, NonPositiveParameter, UrnSpec, validate_urn


def test_derived_quantities_a11():
    u = UrnSpec(1, 1, 0, 1)
    assert u.sigma == 3
    u.require_single_white("the formula")  # the one start it lets through


def test_derived_quantities_a32():
    u = UrnSpec(3, 2, 0, 1)
    assert u.sigma == 8


def test_size_after_is_affine():
    u = UrnSpec(3, 2, 0, 1)
    assert [u.size_after(n) for n in range(4)] == [1, 9, 17, 25]


def test_counts_at_known_points():
    u = UrnSpec(1, 1, 0, 1)
    # after 3 draws of which 2 were black: 0 + 3 + 2 black, 1 + 6 - 2 white
    assert u.black_count(3, 2) == 5
    assert u.white_count(3, 2) == 5


def test_json_form_is_the_fields_in_order():
    # the "spec" object of every report and table file
    u = UrnSpec(3, 2, 5, 0)
    assert list(u.to_json_dict().items()) == [("alpha", 3), ("beta", 2), ("a0", 5), ("b0", 0)]


def test_validate_accepts_test_urns():
    assert validate_urn(1, 1, 0, 1) == UrnSpec(1, 1, 0, 1)
    assert validate_urn(3, 2, 0, 1) == UrnSpec(3, 2, 0, 1)


@pytest.mark.parametrize(
    "args",
    [
        (0, 1, 0, 1),
        (1, 0, 0, 1),
        (-1, 1, 0, 1),
        (1, 1, -1, 1),
        (1, 1, 0, -1),
    ],
)
def test_validate_rejects_nonpositive(args):
    with pytest.raises(NonPositiveParameter):
        validate_urn(*args)


def test_validate_rejects_empty_start():
    with pytest.raises(EmptyUrn):
        validate_urn(1, 1, 0, 0)


@pytest.mark.parametrize("bad", [True, 1.0, "1", Fraction(1)])
def test_validate_rejects_non_int_types(bad):
    with pytest.raises(NonPositiveParameter):
        validate_urn(bad, 1, 0, 1)


@given(
    alpha=st.integers(1, 20),
    beta=st.integers(1, 20),
    a0=st.integers(0, 10),
    b0=st.integers(0, 10),
    n=st.integers(0, 200),
    k=st.integers(0, 200),
)
def test_balance_for_any_history_point(alpha, beta, a0, b0, n, k):
    # black + white depends only on n, never on how many draws were black
    u = UrnSpec(alpha, beta, a0, b0)
    k = min(k, n)
    assert u.black_count(n, k) + u.white_count(n, k) == u.size_after(n)
