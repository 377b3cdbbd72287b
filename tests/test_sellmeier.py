import numpy as np
import pytest
from hypothesis import given, strategies as st

from epstreak.errors import ValidityError
from epstreak.sellmeier import get_table, refractive_index


def test_physical_bound_near_ir():
    n = refractive_index(826.0, 25.0)
    assert 1.5 < n < 2.1


def test_deterministic():
    assert refractive_index(826.0, 56.0) == refractive_index(826.0, 56.0)


def test_frozen_oracle_values():
    # frozen from an independent evaluation of the same coefficient table
    assert refractive_index(826.0, 25.0) == pytest.approx(1.8431160424691957, abs=1e-9)
    assert refractive_index(826.0, 56.0) == pytest.approx(1.843641352643543, abs=1e-9)
    assert refractive_index(413.0, 56.0) == pytest.approx(1.9560271530647664, abs=1e-9)
    assert refractive_index(800.0, 60.0) == pytest.approx(1.845792542572694, abs=1e-9)
    assert refractive_index(860.0, 100.0) == pytest.approx(1.842011565087279, abs=1e-9)


@pytest.mark.parametrize("lam, temp, n_hex", [
    (400.0, 0.0, "0x1.f769b8f169e8dp+0"),
    (3500.0, 200.0, "0x1.c3c6cef72e31fp+0"),
    (400.0, 200.0, "0x1.fa972e701c207p+0"),
    (3500.0, 0.0, "0x1.c3125df9d972fp+0"),
    (413.0, 56.0, "0x1.f4be320c804bdp+0"),
    (826.0, 25.0, "0x1.d7d673f5235d5p+0"),
    (1000.0, 60.0, "0x1.d55cd16fc3e9ap+0"),
])
def test_refractive_index_bits_pinned(lam, temp, n_hex):
    # exact doubles of this coefficient table, window edges included
    assert refractive_index(lam, temp) == float.fromhex(n_hex)


def test_refractive_index_array_bits_pinned():
    n = refractive_index(np.array([400.0, 700.0, 826.0, 1650.0, 3500.0]), 33.5)
    assert [x.hex() for x in n.tolist()] == [
        "0x1.f7c3236e97093p+0", "0x1.db074dd7d5422p+0", "0x1.d7df8e9cc47ebp+0",
        "0x1.d056b79d6830ap+0", "0x1.c32cabc23c8e1p+0"]


def test_validity_window_enforced():
    with pytest.raises(ValidityError):
        refractive_index(350.0, 25.0)
    with pytest.raises(ValidityError):
        refractive_index(4000.0, 25.0)
    with pytest.raises(ValidityError):
        refractive_index(826.0, -5.0)
    with pytest.raises(ValidityError):
        refractive_index(826.0, 250.0)
    with pytest.raises(ValidityError):
        refractive_index(float("nan"), 25.0)
    with pytest.raises(ValidityError):
        refractive_index(np.array([700.0, np.nan, 1000.0]), 25.0)


def test_unknown_table():
    with pytest.raises(ValidityError):
        get_table("bbo-x")


def test_array_input():
    lam = np.array([700.0, 826.0, 1000.0])
    n = refractive_index(lam, 25.0)
    assert n.shape == lam.shape
    assert np.all(np.diff(n) < 0)  # normal dispersion in the near IR


@given(st.floats(min_value=450, max_value=3000),
       st.floats(min_value=0, max_value=200))
def test_always_physical_inside_window(lam, temp):
    n = refractive_index(lam, temp)
    assert 1.4 < n < 2.3
    assert np.isfinite(n)
