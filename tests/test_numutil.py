"""The one float formatter: every value exactly as "%.16e" % v writes it;
the package's quadratures against scipy's."""

import cmath
import io
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, quad

from spineq import numutil
from spineq.dynamics import Trajectory
from spineq.numutil import E16, csv_rows


# texts are compared as lists of lines, whose first difference pytest
# reports without diffing whole tables


def _reference(columns):
    """The row loop the formatter replaces, one line per row."""
    return [",".join(E16 % v for v in row) for row in np.column_stack(columns).tolist()]


def _lines(columns):
    return "".join(csv_rows(columns)).split("\n")[:-1]


def _tie(q, j):
    """q / 2**j, exact, whose 18-digit decimal expansion ends in 5: halfway
    between two 17-digit values."""
    x = q / 2**j
    digits = Decimal(x).as_tuple().digits
    assert len(digits) == 18 and digits[-1] == 5
    return x


def _ties(x):
    """How many values of x are decimal ties, as _tie checks them."""
    return sum(len(d) == 18 and d[-1] == 5
               for d in (Decimal(v).as_tuple().digits for v in np.ravel(x).tolist()))


def _fixed_table():
    values = [5e-324, np.finfo(float).max, 0.0, -0.0, np.inf, -np.inf, np.nan, 1.0]
    for k in range(-320, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    # q odd with q * 5**j an 18-digit integer: q / 2**j is a decimal tie
    rng = np.random.default_rng(5)
    for j in range(3, 26):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        values += [_tie(int(q) | 1, j) for q in rng.integers(lo, hi - 1, size=8)]
    x = np.array(values)
    return np.concatenate([x, -x])


_bit_floats = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
_floats = st.one_of(_bit_floats, st.floats(), st.floats(1e-12, 1e45),
                    st.floats(-1e45, -1e-12))


class TestFormatter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_floats, min_size=1, max_size=60), st.integers(1, 4))
    def test_any_bits_as_percent_e(self, values, cols):
        values += [0.0] * (-len(values) % cols)
        table = np.array(values).reshape(-1, cols)
        columns = list(table.T)
        assert _lines(columns) == _reference(columns)

    def test_fixed_table(self):
        x = _fixed_table()
        assert _lines([x]) == [E16 % v for v in x.tolist()]

    def test_fixed_table_examples(self):
        x = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-320, 1e308])
        assert _lines([x]) == [
            "-0.0000000000000000e+00", "0.0000000000000000e+00", "inf", "-inf",
            "nan", "4.9406564584124654e-324", "9.9998886718268301e-321",
            "1.0000000000000000e+308"]

    def test_all_fallback_gives_the_same_text(self, monkeypatch):
        x = _fixed_table()
        table = np.random.default_rng(2).normal(size=(2001, 12))
        monkeypatch.setattr(numutil, "E16_MARGIN", 0.5)
        for columns in ([x], list(table.T)):
            assert _lines(columns) == _reference(columns)
        assert numutil._e16_block(table)[1] == table.size

    def test_fast_path_carries_most_values(self):
        # a broken fast path must not pass by sending everything to the
        # exact fallback
        table = np.random.default_rng(11).normal(size=(2001, 12))
        text, slow = numutil._e16_block(table)
        assert text.splitlines() == _reference(list(table.T))
        assert slow / table.size < 0.10

    def test_values_just_below_a_power_of_ten_take_the_fast_path(self):
        # log10 rounds most of these up to the next integer; the exponent is
        # taken again instead of sending them to the fallback.  Only
        # 999999999999999.875, an exact decimal tie, falls back.
        x = np.array([np.nextafter(float(f"1e{n}"), 0.0) for n in range(-10, 44)])
        text, slow = numutil._e16_block(x[:, None])
        assert text.splitlines() == _reference([x])
        assert slow == 1

    def test_powers_of_ten_and_their_neighbours(self):
        x = np.array([float(f"1e{k}") for k in range(-99, 100)])
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
        assert _lines([x]) == _reference([x])
        assert _lines([-x]) == _reference([-x])

    def test_two_and_three_digit_exponents(self):
        # the fast path writes two exponent digits; the fallback writes three
        x = np.array([np.nextafter(1e100, 0.0), 1e-99, 1e100, np.nextafter(1e-99, 0.0)])
        x = np.concatenate([x, -x])
        assert _lines([x]) == _reference([x])
        assert [len(line) for line in _lines([x])] == [22, 22, 23, 23, 23, 23, 24, 24]
        assert numutil._e16_block(x[:, None])[1] == 4

    def test_scaled_value_next_to_a_digit_boundary(self):
        # |x| * 10**(16 - E) within 2 of 10**16 or 10**17, at each exponent,
        # and the doubles either side
        x = np.array([float(f"{d}e{e - 16}") for e in range(-99, 100)
                      for d in (*range(10**16 - 2, 10**16 + 3), *range(10**17 - 2, 10**17))])
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
        assert _lines([x]) == _reference([x])

    def test_fast_path_takes_all_but_ties_over_the_exponent_range(self):
        rng = np.random.default_rng(12)
        table = 10.0 ** rng.uniform(-99, 99, size=(2001, 12)) * rng.choice([-1.0, 1.0], (2001, 12))
        text, slow = numutil._e16_block(table)
        assert text.splitlines() == _reference(list(table.T))
        assert slow == _ties(table)

    def test_fast_path_takes_all_but_ties_of_a_trajectory(self):
        # a 2001-row table as propagate writes it: zero imaginary parts of a
        # real field and of real components, and values that decay below 1e-11
        t = np.linspace(0.0, 40.0, 2001)
        decay = np.exp(-t)
        traj = Trajectory(t, np.column_stack([np.cos(t) * decay, 1j * np.sin(t) * decay]),
                          np.column_stack([np.cos(2 * t), 1e-12 * np.sin(t), 0.5 + 0 * t]) + 0j,
                          1e-6)
        v, f = traj.states, traj.field_samples
        columns = [t, v[:, 0].real, v[:, 0].imag, v[:, 1].real, v[:, 1].imag, f[:, 0].real,
                   f[:, 0].imag, f[:, 1].real, f[:, 1].imag, f[:, 2].real, f[:, 2].imag,
                   traj.norms()]
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue().splitlines()[1:] == _reference(columns)
        table = np.column_stack(columns)
        assert (table == 0).sum() >= 5 * 2001
        assert ((table != 0) & (np.abs(table) < 1e-11)).sum() > 4000
        assert numutil._e16_block(table)[1] == _ties(table)

    def test_rows_cross_block_boundaries(self):
        n = 2 * numutil.CSV_BLOCK_ROWS + 3
        columns = [np.linspace(-1, 1, n), np.geomspace(1e-3, 1e3, n)]
        blocks = list(csv_rows(columns))
        assert len(blocks) == 3
        assert "".join(blocks).splitlines() == _reference(columns)
        assert list(csv_rows([np.empty(0)])) == []


class _NullWriter:
    def write(self, text):
        pass

    def writelines(self, texts):
        for _ in texts:
            pass


def test_to_csv_memory_is_bounded_by_the_row_block():
    n = 100_001
    rng = np.random.default_rng(4)
    traj = Trajectory(np.linspace(0.0, 10.0, n),
                      rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)),
                      rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)), 1e-10)
    tracemalloc.start()
    try:
        traj.to_csv(_NullWriter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


# scipy is the independent oracle of the package's own quadratures
# (the test extra installs it; the package never imports it)

# (q, t): the integrands of the phase integral w(t) = int_0^t q(s) ds
_INTEGRANDS = {
    "constant": (lambda s: 0.9, 1.3),
    "linear": (lambda s: 2 * s, 0.8),
    "linear-backward": (lambda s: 2 * s, -0.8),
    "chirp": (lambda s: cmath.exp(3j * s) * (1 + 0.2j * s), 5.0),
    "damped-cosine": (lambda s: math.cos(7 * s) / (1 + s * s), 20.0),
    "lorentzian": (lambda s: 1 / (1 + 100 * (s - 20) ** 2), 40.0),
    "sine-squared": (lambda s: math.sin(s) ** 2, 100.0),
    "root-abs": (lambda s: math.sqrt(abs(s)), 2.0),
    "empty": (lambda s: 1.0, 0.0),
    "oscillating-backward": (lambda s: cmath.exp(2.5j * s), -4.0),
}


@pytest.mark.parametrize("case", _INTEGRANDS)
def test_gauss_kronrod_agrees_with_quad(case):
    q, t = _INTEGRANDS[case]
    w, err = numutil.gauss_kronrod(q, 0.0, t, 1e-12)
    want = complex(*(quad(lambda s: part(complex(q(s))), 0.0, t, epsabs=1e-12,
                          epsrel=1e-12, limit=400)[0]
                     for part in (lambda z: z.real, lambda z: z.imag)))
    assert abs(w - want) <= 1e-12 * max(1.0, abs(w))
    assert err <= 1e-12 * max(1.0, abs(w))


def _grids():
    rng = np.random.default_rng(20)
    for n in [*range(2, 40), 101, 1001, 2001]:
        for scale in (1e-5, 1.0, 1e5):
            uniform = np.linspace(-1.0, 2.0, n)
            uneven = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
            for x in (uniform, uneven):
                y = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
                yield x, y
        signed_zeros = np.empty(n, complex)  # scipy's sums hold no -0.0
        signed_zeros.real, signed_zeros.imag = rng.choice([-0.0, 0.0, 1.0], (2, n))
        yield uneven, signed_zeros


def test_cumulative_integral_is_scipys_simpson_bit_for_bit():
    for x, y in _grids():
        for values in (y.real, y):
            got = numutil.cumulative_integral(values, x)
            want = cumulative_simpson(values.real, x=x, initial=0.0)
            if np.iscomplexobj(values):
                want = want + 1j * cumulative_simpson(values.imag, x=x, initial=0.0)
            assert got.dtype == want.dtype
            assert (got.view(np.int64) == want.view(np.int64)).all(), len(x)
