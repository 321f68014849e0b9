"""The vectorised '%.17g' formatter against Python's own '%', value by value."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcat import textfmt
from kerrcat.textfmt import SLOT, edge_values, padded_text, portrait_tables


def texts(values):
    """The formatter's text of each value, one string per value."""
    return [row[row != 0].tobytes().decode("ascii") for row in padded_text(values)]


def percent(values):
    return [SLOT % v for v in np.asarray(values, dtype=np.float64).tolist()]


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def is_tie(v):
    """v has exactly 18 significant decimal digits and the last is 5."""
    digits = Decimal(v).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


@pytest.fixture
def fallback_count(monkeypatch):
    count = [0]
    fallback = textfmt._fallback

    def counted(values):
        count[0] += len(values)
        return fallback(values)

    monkeypatch.setattr(textfmt, "_fallback", counted)
    return count


class TestEdgeVector:
    def test_every_edge_value_matches_percent(self):
        values = edge_values()
        assert texts(values) == percent(values)

    def test_covers_the_edges(self):
        values = edge_values()
        got = set(values.tolist())
        assert {0.0, 5e-324, 2.2250738585072009e-308, 1e-5, 1e-4, 1e16, 1e17, 1e280} <= got
        assert np.signbit(values[values == 0]).any()  # -0
        for edge in (1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280, 2.0**53):
            assert {np.nextafter(edge, 0), np.nextafter(edge, np.inf)} <= got
        # both notations at the 1e-5/1e-4 and 1e16/1e17 edges
        assert SLOT % np.nextafter(1e-4, 0) == "9.9999999999999991e-05"
        assert SLOT % np.nextafter(1e17, 0) == "99999999999999984"

    def test_holds_carries_to_ten_to_the_seventeen(self):
        # a value whose 17 digits round up to 10^17 is written one decade higher
        carries = [v for v in edge_values().tolist() if v > 0 and np.isfinite(v)
                   and Decimal(SLOT % v).adjusted() == Decimal(v).adjusted() + 1]
        assert 1e-14 in carries and 1e98 in carries

    def test_holds_exact_ties(self):
        ties = [v for v in edge_values().tolist() if v > 0 and np.isfinite(v) and is_tie(v)]
        assert 2.0917557487171307e15 in ties
        assert len(ties) >= 3 * 24  # three per d = 2..25


class TestRandomDoubles:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_any_bit_pattern(self, bits):
        value = from_bits([bits])
        assert texts(value) == percent(value)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def test_arrays_of_bit_patterns(self, bits):
        values = from_bits(bits)
        assert texts(values) == percent(values)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-40, 40))
    def test_scaled_floats(self, value, power):
        with np.errstate(over="ignore", under="ignore"):
            values = np.array([value]) * np.array([1.0, 10.0 ** power, 2.0 ** power])
        assert texts(values) == percent(values)


class TestFallback:
    def test_fires_on_ties(self, fallback_count):
        ties = [v for v in edge_values().tolist() if v and np.isfinite(v) and is_tie(v)]
        assert texts(ties) == percent(ties)
        assert fallback_count[0] == len(ties)

    @pytest.mark.parametrize("value", [1e-280, 5e-324, -3e-300, 1e280, -1.7976931348623157e308,
                                       np.inf, -np.inf, np.nan])
    def test_fires_out_of_range(self, value, fallback_count):
        assert texts([value]) == percent([value])
        assert fallback_count[0] == 1

    def test_silent_inside_the_range(self, fallback_count):
        values = np.concatenate([np.linspace(-12.5, 12.5, 401),
                                 [0.0, -0.0, 1.0, 0.1, 1.0000000000000001e-280, 9.9e279]])
        assert texts(values) == percent(values)
        assert fallback_count[0] == 0


class TestTables:
    def test_portrait_with_fallback_values(self):
        # a tie, an out-of-range value and -0 inside the field
        xs, ps = np.array([-1.5, 0.0, 2.25]), np.array([1e-300, 2.0917557487171307e15])
        values = np.array([[2.0917557487171307e15, -0.0], [1e300, 0.1], [-5e-324, 7.0]])
        csv, matrix = portrait_tables(xs, ps, values)
        lines = [f"{SLOT % x},{SLOT % p},{SLOT % values[i, j]}"
                 for i, x in enumerate(xs) for j, p in enumerate(ps)]
        assert csv == "x,p,W\n" + "\n".join(lines) + "\n"
        rows = [" ".join(["3"] + percent(xs))]
        rows += [" ".join(percent([p]) + percent(values[:, j])) for j, p in enumerate(ps)]
        assert matrix == "\n".join(rows) + "\n"
