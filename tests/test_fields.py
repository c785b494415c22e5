"""Unit and property tests for the finite-field substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import (
    FiniteField,
    factor_prime_power,
    finite_field,
    is_prime,
    is_prime_power,
    prime_powers_up_to,
)

PAPER_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


class TestPrimes:
    def test_small_primes(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_non_primes(self):
        for n in (-5, 0, 1, 4, 9, 15, 21, 100):
            assert not is_prime(n)

    def test_factor_prime_power(self):
        assert factor_prime_power(8) == (2, 3)
        assert factor_prime_power(9) == (3, 2)
        assert factor_prime_power(7) == (7, 1)
        assert factor_prime_power(16) == (2, 4)

    @pytest.mark.parametrize("n", [6, 10, 12, 15, 100])
    def test_factor_rejects_composites(self, n):
        with pytest.raises(ValueError):
            factor_prime_power(n)

    def test_is_prime_power(self):
        assert is_prime_power(27)
        assert not is_prime_power(1)
        assert not is_prime_power(6)

    def test_prime_powers_up_to(self):
        assert prime_powers_up_to(16) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

    def test_sieve_matches_is_prime_power(self):
        """The sieve lists exactly the ``is_prime_power`` numbers, for
        every bound up to Table 2's N = 1300."""
        expected = [n for n in range(2, 1301) if is_prime_power(n)]
        for limit in range(1301):
            assert prime_powers_up_to(limit) == [n for n in expected if n <= limit]


@pytest.mark.parametrize("q", PAPER_FIELDS)
class TestFieldAxioms:
    """Field axioms hold for every field used in the paper."""

    def test_additive_identity(self, q):
        f = finite_field(q)
        assert all(f.add(a, 0) == a for a in f.elements())

    def test_multiplicative_identity(self, q):
        f = finite_field(q)
        assert all(f.mul(a, 1) == a for a in f.elements())

    def test_additive_inverse(self, q):
        f = finite_field(q)
        assert all(f.add(a, f.neg(a)) == 0 for a in f.elements())

    def test_multiplicative_inverse(self, q):
        f = finite_field(q)
        assert all(f.mul(a, f.inv(a)) == 1 for a in f.nonzero_elements())

    def test_commutativity(self, q):
        f = finite_field(q)
        for a in f.elements():
            for b in f.elements():
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)

    def test_associativity_sampled(self, q):
        f = finite_field(q)
        sample = list(f.elements())[: min(q, 6)]
        for a in sample:
            for b in sample:
                for c in sample:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))

    def test_distributivity(self, q):
        f = finite_field(q)
        sample = list(f.elements())[: min(q, 6)]
        for a in sample:
            for b in sample:
                for c in sample:
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_no_zero_divisors(self, q):
        f = finite_field(q)
        for a in f.nonzero_elements():
            for b in f.nonzero_elements():
                assert f.mul(a, b) != 0

    def test_primitive_element_generates(self, q):
        f = finite_field(q)
        xi = f.primitive_element
        powers = {f.power(xi, e) for e in range(q - 1)}
        assert powers == set(f.nonzero_elements())

    def test_addition_table_is_latin_square(self, q):
        f = finite_field(q)
        table = f.addition_table()
        for row in table:
            assert sorted(row) == list(range(q))
        for col in range(q):
            assert sorted(table[row_i][col] for row_i in range(q)) == list(range(q))

    def test_multiplication_table_nonzero_latin(self, q):
        f = finite_field(q)
        table = f.multiplication_table()
        for a in f.nonzero_elements():
            assert sorted(table[a][b] for b in f.nonzero_elements()) == list(
                f.nonzero_elements()
            )


class TestPaperTable3:
    """The paper's Table 3: GF(9) and GF(8) operation tables."""

    def test_gf9_characteristic_three(self):
        f = finite_field(9)
        assert f.p == 3 and f.m == 2
        one_plus_one = f.add(1, 1)
        assert f.add(one_plus_one, 1) == 0  # 1+1+1 = 0 in char 3

    def test_gf8_self_inverse_addition(self):
        f = finite_field(8)
        # Char 2: every element is its own additive inverse (Table 3 right).
        assert all(f.neg(a) == a for a in f.elements())

    def test_gf9_has_four_primitive_elements(self):
        f = finite_field(9)
        generators = []
        for candidate in f.nonzero_elements():
            powers = {f.power(candidate, e) for e in range(1, 9)}
            if powers == set(f.nonzero_elements()):
                generators.append(candidate)
        assert len(generators) == 4  # paper: "There are 4 such elements"

    def test_element_names_match_paper_convention(self):
        f = finite_field(9)
        names = [f.element_name(a) for a in f.elements()]
        assert names == ["0", "1", "2", "u", "v", "w", "x", "y", "z"]

    def test_format_tables_render(self):
        f = finite_field(8)
        assert "+ |" in f.format_table("+")
        assert "* |" in f.format_table("*")
        assert "el -el" in f.format_table("-")
        with pytest.raises(ValueError):
            f.format_table("?")

    def test_gf9_zero_row_in_product_table(self):
        f = finite_field(9)
        assert all(f.mul(0, b) == 0 for b in f.elements())


class TestFieldErrors:
    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            finite_field(5).inv(0)

    def test_zero_negative_power_raises(self):
        with pytest.raises(ZeroDivisionError):
            finite_field(5).power(0, -1)

    def test_zero_power_zero_is_one(self):
        assert finite_field(5).power(0, 0) == 1

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            FiniteField(6)

    def test_cached_constructor_returns_same_object(self):
        assert finite_field(9) is finite_field(9)


@given(st.sampled_from([4, 5, 7, 8, 9]), st.data())
@settings(max_examples=120, deadline=None)
def test_field_properties_hypothesis(q, data):
    """Randomized field identities: (a+b)-b == a, (a*b)*inv(b) == a."""
    f = finite_field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.sub(f.add(a, b), b) == a
    if b != 0:
        assert f.mul(f.mul(a, b), f.inv(b)) == a


@given(st.sampled_from([5, 8, 9]), st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_power_homomorphism(q, n, k):
    """xi^(n+k) == xi^n * xi^k."""
    f = finite_field(q)
    xi = f.primitive_element
    assert f.power(xi, n + k) == f.mul(f.power(xi, n), f.power(xi, k))
