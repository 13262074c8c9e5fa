import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineq import specfun
from spineq.errors import AccuracyError, DomainError, SpinEqError
from spineq.specfun import (REL_EPS, SeriesResult, _grid_series, _hyp1f1_coefficient,
                            _hyp2f1_coefficient, _series, _small_terms,
                            complex_gamma, gauss_2f1, gauss_2f1_info, gauss_2f1_many,
                            kummer_phi, kummer_phi_info, kummer_phi_many, parabolic_d,
                            parabolic_d_many, reciprocal_gamma)

from conftest import assert_rel


def central_diff(f, z, h=1e-5):
    return (f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h) - f(z + 2 * h)) / (12 * h)


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.int64).tolist()


def _grid(coefficient, z):
    """The grid kernel on one job."""
    return _grid_series([(coefficient, z)])[0]


def _assert_grid_matches_scalar(grid, scalar, z):
    values, terms, estimates = grid
    for i, zi in enumerate(z):
        value, n, est = scalar(complex(zi))
        assert _bits(values[i]) == _bits(value), f"value at z = {zi!r}"
        assert terms[i] == n, f"terms at z = {zi!r}"
        assert _bits(estimates[i]) == _bits(est), f"estimate at z = {zi!r}"


# what an array call raises where an element fails, and what the node
# replay of numutil.grid_or_replay catches
_GRID_ERRORS = (SpinEqError, ArithmeticError, ValueError)


def _each(one, sets, z):
    """[one(*s, z) for s in sets], element by element at an ndarray z."""
    if not isinstance(z, np.ndarray):
        return [one(*s, z) for s in sets]
    return [np.array([one(*s, x) for x in z.flat], dtype=object).reshape(z.shape) for s in sets]


def _circle_image(theta):
    z = cmath.exp(1j * theta)
    return z / (z - 1.0)


_unit = st.floats(-1, 1, allow_nan=False)  # hits +-0.0 and the ends
_param = st.builds(complex, _unit, _unit)
_gamma = st.builds(complex, st.floats(0.5, 2), _unit)


class TestGridKernels:
    """The grid kernels against the scalar loops, bit for bit."""

    @given(_param, _param, _gamma,
           st.lists(st.builds(complex, st.floats(-0.95, 0.95), st.floats(-0.3, 0.3)),
                    min_size=1, max_size=8),
           st.lists(st.floats(1.2, 5.0), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_hyp2f1_grid(self, a, b, c, zs, thetas):
        # Pfaff images of unit-circle points, as gauss_2f1 passes them on
        z = np.array(zs + [0j, complex(-0.0, -0.0)] + [_circle_image(t) for t in thetas])
        _assert_grid_matches_scalar(_grid(_hyp2f1_coefficient(a, b, c), z),
                                    lambda x: _series(_hyp2f1_coefficient(a, b, c), x), z)

    @given(_param, _gamma,
           st.lists(st.builds(complex, st.floats(-6, 6), st.floats(-6, 6)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_hyp1f1_grid(self, a, c, zs):
        z = np.array(zs + [complex(0.0, -0.0)])
        _assert_grid_matches_scalar(_grid(_hyp1f1_coefficient(a, c), z),
                                    lambda x: _series(_hyp1f1_coefficient(a, c), x), z)

    def test_cap_hit_element(self):
        # 2500j is where entry 16 on [-50, 50] fails: a term of its Kummer
        # series overflows to inf, far below the term cap
        z = np.array([0.5j, 2500.100001j, -3.0])
        grid = _grid(_hyp1f1_coefficient(0.5j, 0.5), z)
        assert grid[1][1] == -1
        _assert_grid_matches_scalar(grid, lambda x: _series(_hyp1f1_coefficient(0.5j, 0.5), x), z)
        # F(1, 1; 1.5; 1) diverges: its terms fall off like k^-1/2
        z = np.array([1.0, 0.25])
        grid = _grid(_hyp2f1_coefficient(1, 1, 1.5), z)
        assert grid[1][0] == -1
        _assert_grid_matches_scalar(grid, lambda x: _series(_hyp2f1_coefficient(1, 1, 1.5), x), z)

    def test_specfun_arrays_take_the_scalar_branches(self):
        theta = np.linspace(1.2, 5.0, 7)
        z = np.concatenate([np.exp(1j * theta), [0.3, -0.2j, 0.99j]]).astype(object)
        a, b, c = 0.3 + 0.1j, -0.4j, 1.2 + 0.2j  # Re(c - a - b) > 0.05: slow series at 0.99j
        got = gauss_2f1_many([(a, b, c)], z)[0]
        assert all(type(v) is complex for v in got)
        assert _bits(got.tolist()) == _bits([gauss_2f1(a, b, c, x) for x in z])
        got = kummer_phi_many([(a, c)], 4 * z)[0]
        assert _bits(got.tolist()) == _bits([kummer_phi(a, c, 4 * x) for x in z])
        got = parabolic_d_many([a], 3 * z)[0]
        assert _bits(got.tolist()) == _bits([parabolic_d(a, 3 * x) for x in z])

    def test_specfun_arrays_raise_the_scalar_errors(self):
        # the scalar call at 1.5 is on the branch cut, and gamma = -3 is a pole
        z = np.array([0.5, 1.5 + 0j], dtype=object)
        for sets in ([(0.2, 0.3, 1.1)], [(1, 1, -3)]):
            with pytest.raises(DomainError):
                gauss_2f1(*sets[0], z[1])
            with pytest.raises(_GRID_ERRORS):
                gauss_2f1_many(sets, z)


# a job of the grid kernel: the series ("2F1" or "1F1"), its parameters and its z
_SERIES = {"2F1": _hyp2f1_coefficient, "1F1": _hyp1f1_coefficient}
_z_2f1 = st.one_of(st.builds(complex, st.floats(-0.95, 0.95), st.floats(-0.3, 0.3)),
                   st.floats(1.2, 5.0).map(_circle_image))
_job = st.one_of(
    st.tuples(st.just("2F1"), st.tuples(_param, _param, _gamma),
              st.lists(_z_2f1, min_size=1, max_size=6)),
    st.tuples(st.just("1F1"), st.tuples(_param, _gamma),
              st.lists(st.builds(complex, st.floats(-6, 6), st.floats(-6, 6)),
                       min_size=1, max_size=6)))

# where the partial sums of F(1; 1; z) = e^z pass the double range in
# modulus, with finite parts, and the terms of
# Phi(0.5i; 0.5; z) and Phi(0.3; 1.2; z) overflow to inf instead
_Z_OVERFLOW = 800 * cmath.exp(0.6j)
# where a term of Phi(0.5i; 0.5; z) overflows to inf (entry 16 on [-50, 50]):
# the sum ends there, not at the term cap
_Z_CAP = 2500.100001j


def _kernel_jobs(specs):
    return [(_SERIES[kind](*params), np.array(z, dtype=complex)) for kind, params, z in specs]


def _assert_jobs_match(specs):
    """One pass over all jobs against a pass per job and the scalar loop,
    bit for bit in values, term counts and estimates."""
    jobs = _kernel_jobs(specs)
    got = _grid_series(jobs)
    assert len(got) == len(jobs)
    for (kind, params, _), job, result in zip(specs, jobs, got):
        for got_part, alone_part in zip(result, _grid_series([job])[0]):
            assert _bits(got_part) == _bits(alone_part)
        _assert_grid_matches_scalar(result, lambda x: _series(_SERIES[kind](*params), x), job[1])
    return got


def _outcome(fn):
    """What fn returns, as bits, or the type and message of what it raises."""
    try:
        return [_bits(v.tolist() if isinstance(v, np.ndarray) else v) for v in fn()]
    except Exception as exc:
        return type(exc), str(exc)


class TestGridJobs:
    """Several series summed in one pass of the grid kernel, each as it
    would be alone and as the scalar loop sums it."""

    @given(st.lists(_job, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_jobs_match_alone_and_scalar(self, specs):
        _assert_jobs_match(specs)

    def test_unequal_sizes_and_an_early_end_beside_a_slow_job(self):
        # Phi at 0 ends in its first block; 2F1 at 0.94 takes hundreds of terms
        got = _assert_jobs_match([
            ("1F1", (0.3, 1.2), [0j]),
            ("2F1", (0.4 + 0.2j, 1.1, 1.7 - 0.3j), [0.94, -0.93 + 0.2j, 0.3]),
            ("1F1", (0.8 - 0.4j, 1.9), [0.1, -2.0, 3j, 5 - 5j, 0.5]),
            ("2F1", (0.9 + 0.8j, 0.2 - 0.5j, 0.8 - 0.5j), [_circle_image(1.3)])])
        assert got[0][1].tolist() == [3]
        assert max(got[1][1]) > 16 * 8

    def test_cap_beside_converging_jobs(self):
        # F(1, 1; 1.5; 1) diverges with finite terms; at _Z_CAP the terms
        # of Phi overflow to inf, so that job comes last
        got = _assert_jobs_match([
            ("1F1", (0.3, 1.2), [0.1]),
            ("2F1", (1, 1, 1.5), [1.0, 0.25]),
            ("2F1", (0.2, 0.3, 1.1), [0.5]),
            ("1F1", (0.5j, 0.5), [0.5j, _Z_CAP, -3.0])])
        assert [(r[1] < 0).tolist() for r in got] == [
            [False], [True, False], [False], [False, True, False]]

    def test_nan_estimates(self):
        got = _assert_jobs_match([
            ("1F1", (0.3, 1.2), [0.5, complex(math.nan, 0.0), complex(math.inf, 1.0)]),
            ("2F1", (0.2, 0.3, 1.1), [complex(0.1, math.nan), 0.2])])
        assert np.isnan(got[0][2][1:]).all() and np.isnan(got[1][2][0])
        assert got[0][1][1:].tolist() == [-1, -1]

    @pytest.mark.parametrize("first", [True, False])
    def test_overflow_raised_as_the_scalar_loop_raises_it(self, first):
        # where abs would raise on finite parts, the scalar loop and the
        # kernel end the element over the cap with the same bits, beside a
        # job summed to its end; the scalar call and the array call raise
        coefficient = _hyp1f1_coefficient(1.0, 1.0)
        z = np.array([0.5, _Z_OVERFLOW, 709.9 + 1j])
        _assert_grid_matches_scalar(_grid(coefficient, z), lambda x: _series(coefficient, x), z)
        specs = [("1F1", (1.0, 1.0), z), ("1F1", (0.2, 1.1), [1.0, 2j])]
        results = _grid_series(_kernel_jobs(specs if first else specs[::-1]))
        terms = [r[1].tolist() for r in (results if first else results[::-1])]
        assert terms[0][0] > 0 and terms[0][1:] == [-1, -1] and min(terms[1]) > 0
        sets = [(1.0, 1.0), (0.2, 1.1)]
        with np.errstate(all="ignore"), pytest.raises(_GRID_ERRORS):
            kummer_phi_many(sets if first else sets[::-1], z)

    @pytest.mark.parametrize("z", [_Z_OVERFLOW, 709.9 + 1j])
    def test_a_modulus_past_the_double_range_is_typed(self, z):
        # a partial sum whose parts are finite but whose modulus is not:
        # AccuracyError, not the OverflowError that abs raises
        with pytest.raises(AccuracyError, match=re.escape(
                f"Kummer series has a partial sum that is not finite at z={z}")):
            kummer_phi(1.0, 1.0, z)


def _block(terms, totals):
    """A kernel block, [step, term/total, re/im, element], from complex
    arrays of terms and totals as [step, element]."""
    terms, totals = np.asarray(terms, dtype=complex), np.asarray(totals, dtype=complex)
    return np.stack([np.stack([terms.real, terms.imag], axis=1),
                     np.stack([totals.real, totals.imag], axis=1)], axis=1)


def _abs_rule(block):
    """The scalar loop's stop test at every [step, element] of a block, by
    CPython's abs, where that abs raises OverflowError, and where it raises
    or gives a magnitude that is not finite, for the term or the total."""
    kb, m = block.shape[0], block.shape[-1]
    small, over, odd = (np.zeros((kb, m), dtype=bool) for _ in range(3))
    for k in range(kb):
        for e in range(m):
            term, total = (complex(*block[k, i, :, e]) for i in (0, 1))
            try:
                mags = abs(term), abs(total)
            except OverflowError:
                over[k, e] = odd[k, e] = True
            else:
                small[k, e] = mags[0] < REL_EPS * mags[1]
                odd[k, e] = not all(map(math.isfinite, mags))
    return small, over, odd


def _assert_stop_test(block):
    """_small_terms on a block, decision by decision against CPython's abs,
    and the steps at which the kernel ends an element over the cap, which
    are those where abs raises or gives a magnitude that is not finite;
    True where the squared magnitudes decided the block."""
    kb, m = block.shape[0], block.shape[-1]
    small = np.empty((kb, m), dtype=bool)
    with np.errstate(all="ignore"):  # as the kernel runs it
        mags = _small_terms(block, np.empty(3 * kb * m), small)
        ends = np.zeros((kb, m), dtype=bool) if mags is None else ~np.isfinite(mags).all(axis=1)
    want_small, want_over, want_ends = _abs_rule(block)
    assert ends.tolist() == want_ends.tolist()  # want_over among them
    assert small[~want_over].tolist() == want_small[~want_over].tolist()
    return mags is None


def _near_eps(rng, magnitudes, u):
    """Totals of the given magnitudes and terms at REL_EPS (1 + u) of them,
    in random directions, as [step, element]."""
    total = magnitudes * np.exp(2j * np.pi * rng.random(magnitudes.shape))
    term = np.abs(total) * REL_EPS * (1 + u) * np.exp(2j * np.pi * rng.random(u.shape))
    return term, total


class TestStopTest:
    """The kernel's stop test from squared magnitudes against the scalar
    loop's abs(term) < REL_EPS * abs(total), decision by decision."""

    def test_ratios_at_the_margin(self, rng):
        ulp = 2.0 ** -52
        u = np.concatenate([rng.uniform(-1e-11, 1e-11, 320), rng.uniform(-2e-12, 2e-12, 320),
                            rng.uniform(-8 * ulp, 8 * ulp, 320), np.arange(-16, 16) * ulp])
        u = u.reshape(16, -1)
        term, total = _near_eps(rng, 10.0 ** rng.uniform(-3, 3, u.shape), u)
        block = _block(term, total)
        assert _assert_stop_test(block)
        small = _abs_rule(block)[0]
        # the ratios within a few roundings of REL_EPS go both ways
        close = np.abs(u) < 4 * ulp
        assert small[close].any() and not small[close].all()

    @pytest.mark.parametrize("scale", [2.0 ** 450, 2.0 ** 449.9999, 2.0 ** 450.0001,
                                       2.0 ** -450, 2.0 ** -449.9999, 2.0 ** -450.0001])
    def test_totals_at_the_range_ends(self, rng, scale):
        u = np.concatenate([rng.uniform(-1e-11, 1e-11, 40), np.arange(-8, 8) * 2.0 ** -52,
                            rng.uniform(-1, 3, 40)]).reshape(4, -1)
        term, total = _near_eps(rng, scale * rng.uniform(0.9, 1.1, u.shape), u)
        _assert_stop_test(_block(term, total))

    def test_squares_decide_in_range_and_hypot_outside(self, rng):
        u = rng.uniform(-1e-11, 1e-11, (2, 8))
        for scale, squares in ((2.0 ** 440, True), (2.0 ** -440, True),
                               (2.0 ** 460, False), (2.0 ** -460, False)):
            term, total = _near_eps(rng, np.full(u.shape, scale), u)
            assert _assert_stop_test(_block(term, total)) is squares

    def test_subnormal_terms_and_zero_totals(self):
        tiny = 5e-324
        terms = [[tiny, complex(tiny, tiny), 1e-310, complex(0, -1e-315), 0j, 0j, 1e-300],
                 [1e-151, 1e-151j, 3e-153, tiny, 1e-310, 0j, 1e-140]]
        totals = [[1.0, 1j, 1.0, -1.0, 1.0, 1.0, 1.0],
                  [1e-135, 1e-135j, 2.0 ** -450, 2.0 ** -450, 2.0 ** -450, 2.0 ** -450,
                   1e-124]]
        assert _assert_stop_test(_block(terms, totals))
        # a zero total, or one whose square underflows, takes hypot
        for zero in (0j, complex(-0.0, 0.0), 1e-200, complex(tiny, 0.0)):
            assert not _assert_stop_test(_block([[tiny, 0j, 1.0]], [[zero, zero, zero]]))

    def test_nan_and_inf_parts(self):
        nan, inf = math.nan, math.inf
        odd = [complex(nan, 0.0), complex(0.0, nan), complex(inf, nan), complex(nan, -inf),
               complex(inf, 1.0), complex(1.0, -inf), complex(nan, nan), complex(inf, inf)]
        n = len(odd)
        for terms, totals in ((odd, [1.0] * n), ([1e-20] * n, odd), (odd, odd[::-1]),
                              ([1e-20] * n, [1.0] * (n - 1) + [complex(nan, 1.0)])):
            assert not _assert_stop_test(_block([terms], [totals]))

    def test_finite_parts_whose_hypot_overflows(self):
        # hypot(1e308, 1e308) = 1.41e308 is still finite
        big = 1.3e308
        cases = [complex(big, big), complex(-big, big), complex(big, 0.0), complex(1e308, 1e308)]
        n = len(cases)
        for terms, totals in ((cases, [1.0] * n), ([1.0] * n, cases), (cases, cases),
                              ([1e-20] * n, [complex(big, 1.0)] * n)):
            assert not _assert_stop_test(_block([terms], [totals]))
        over = _abs_rule(_block([cases], [[1.0] * n]))[1]
        assert over.tolist() == [[True, True, False, False]]


class TestBlockLength:
    """The grid kernel gives the same values, term counts and estimates at
    any block length, and the array calls the same outcome: each element
    keeps its own STREAK count and cap, and the streak carries across
    blocks."""

    BLOCKS = sorted({1, 7, 16, specfun._BLOCK})
    CASES = [
        # TestGridKernels' arguments: the direct disc, the signed zeros and the
        # Pfaff images of unit-circle points; the 1F1 square
        [("2F1", (0.3 + 0.1j, -0.4j, 1.2 + 0.2j),
          [0.9, -0.93 + 0.2j, 0.3j, 0j, complex(-0.0, -0.0)]
          + [_circle_image(t) for t in (1.2, 3.0, 5.0)])],
        [("1F1", (-0.7 + 1.0j, 1.9 - 0.3j), [6 + 6j, -6 - 1j, 2.5, -0.5j, complex(0.0, -0.0)])],
        # test_cap_hit_element's: terms that overflow to inf, and a cap with
        # finite terms
        [("1F1", (0.5j, 0.5), [0.5j, _Z_CAP, -3.0])],
        [("2F1", (1, 1, 1.5), [1.0, 0.25])],
        # jobs in one pass, one with a term that overflows
        [("1F1", (0.3, 1.2), [0.1, 0j]), ("2F1", (1, 1, 1.5), [1.0, 0.25]),
         ("1F1", (0.5j, 0.5), [_Z_CAP]), ("2F1", (0.2, 0.3, 1.1), [0.5])],
        # more elements than _BLOCK_SIZE lets a block take _BLOCK terms of
        [("1F1", (0.3 - 0.2j, 1.2),
          list(np.random.default_rng(28).uniform(-6, 6, (1200, 2)) @ [1, 1j]))],
        # abs of a term past the double range
        [("1F1", (1.0, 1.0), [0.5, _Z_OVERFLOW]), ("1F1", (0.2, 1.1), [1.0, 2j])],
    ]

    @staticmethod
    def _kernel(specs):
        return [[_bits(r[0]), r[1].tolist(), _bits(r[2])] for r in _grid_series(_kernel_jobs(specs))]

    @staticmethod
    def _many_forms():
        z = np.array([0.3, cmath.exp(0.5j), _Z_CAP / 2], dtype=object)
        # over the cap with finite terms (the slow series on |z| = 1), and at
        # a term that is not finite
        with np.errstate(all="ignore"):
            return [_outcome(lambda: gauss_2f1_many([(0.5, 0.5, 1.06)], z[:2])),
                    _outcome(lambda: kummer_phi_many([(0.5j, 0.5)], 2 * z[::2])),
                    _outcome(lambda: kummer_phi_many([(0.3, 1.2)], 8 * z[:2]))]

    def test_same_outcome_at_every_block_length(self, monkeypatch):
        got = {}
        for block in self.BLOCKS:
            monkeypatch.setattr(specfun, "_BLOCK", block)
            got[block] = [self._kernel(specs) for specs in self.CASES], self._many_forms()
        for block in self.BLOCKS:
            assert got[block] == got[16], f"_BLOCK = {block}"
        outcomes = got[16][1]
        assert [isinstance(o, list) for o in outcomes] == [False, False, True]
        assert issubclass(outcomes[0][0], _GRID_ERRORS) and issubclass(outcomes[1][0], _GRID_ERRORS)


class TestNonFiniteTerms:
    """A term that is not finite ends its sum at once, over the cap."""

    @staticmethod
    def _counted(coefficient, calls):
        def counted(k):
            calls.append(k)
            return coefficient(k)
        return counted

    @pytest.mark.parametrize("z", [1e300, complex(math.nan, 0.0), complex(math.inf, 1.0)])
    def test_scalar_and_grid_end_at_once(self, z):
        calls = []
        coefficient = self._counted(_hyp1f1_coefficient(0.3, 1.2), calls)
        value, n, est = _series(coefficient, z)
        assert n == -1 and len(calls) <= 2
        calls.clear()
        assert _grid(coefficient, np.array([z]))[1].tolist() == [-1]
        assert len(calls) <= specfun._BLOCK  # one block
        z = np.array([z, 0.5])
        _assert_grid_matches_scalar(_grid(_hyp1f1_coefficient(0.3, 1.2), z),
                                    lambda x: _series(_hyp1f1_coefficient(0.3, 1.2), x), z)

    def test_the_error_tells_a_term_not_finite_from_the_cap(self):
        # Phi(0.5i; 0.5; z) at _Z_CAP ends at an inf term; F(0.5, 0.5; 1.06; z)
        # on |z| = 1 takes the slow direct series, which runs to the cap with
        # finite terms
        slow = cmath.exp(0.5j)
        for many, one, params, z, text in [
                (kummer_phi_many, kummer_phi_info, (0.5j, 0.5), _Z_CAP,
                 f"Kummer series has a term that is not finite at z={_Z_CAP}"),
                (gauss_2f1_many, gauss_2f1_info, (0.5, 0.5, 1.06), slow,
                 f"2F1 series did not converge within 20000 terms at z={slow}")]:
            with pytest.raises(AccuracyError, match=f"^{re.escape(text)}$"):
                one(*params, z)
            with pytest.raises(_GRID_ERRORS):
                many([params], np.array([0.5, z]))

    def test_a_partial_sum_past_the_double_range_is_replayed(self):
        # e^z at z = 709.9: every term is finite but the partial sums pass
        # the double range; the scalar loop and the kernel both end the sum
        # there over the cap, and the scalar call names the partial sum
        coefficient = _hyp1f1_coefficient(1.0, 1.0)
        z = np.array([0.5, 709.9])
        grid = _grid(coefficient, z)
        assert grid[1].tolist()[1] == -1
        _assert_grid_matches_scalar(grid, lambda x: _series(coefficient, x), z)
        with pytest.raises(AccuracyError, match=re.escape(
                "Kummer series has a partial sum that is not finite at z=709.9")):
            kummer_phi(1.0, 1.0, 709.9)
        with pytest.raises(_GRID_ERRORS):
            kummer_phi_many([(1.0, 1.0)], z.astype(object))

    def test_overflowing_orders_fail_fast(self, monkeypatch):
        # a = 1e150 on entry 1: the Kummer terms are inf from the second on
        from spineq import catalog
        calls = []
        kummer = specfun._hyp1f1_coefficient
        monkeypatch.setattr(specfun, "_hyp1f1_coefficient",
                            lambda a, c: self._counted(kummer(a, c), calls))
        with pytest.raises(AccuracyError, match=re.escape(
                "Kummer series has a term that is not finite at z=3.99920004e+148j")):
            catalog.verify_entry(1, {"a": 1e150})
        assert 0 < len(calls) <= 4 * specfun._BLOCK


class TestManyForms:
    """gauss_2f1_many, kummer_phi_many and parabolic_d_many against the
    one-set calls at each element: the same bits, or an error wherever one
    of those fails.  At a number they are the one-set calls made in order."""

    def test_values_match_the_one_set_calls(self):
        theta = np.linspace(1.2, 5.0, 7)
        z = np.concatenate([np.exp(1j * theta), [0.3, -0.2j, 0.99j]]).astype(object)
        sets = [(0.3 + 0.1j, -0.4j, 1.2 + 0.2j), (1.3 + 0.1j, -0.4j, 1.2 + 0.2j),
                (0.3 + 0.1j, 0.6 - 0.4j, 2.2 + 0.2j), (0.5, 0.25, 1.5)]
        for zz in (z, z[3], z.reshape(2, 5)):
            for n in (1, 2, 4):
                want = _outcome(lambda: _each(gauss_2f1, sets[:n], zz))
                assert isinstance(want, list)
                assert _outcome(lambda: gauss_2f1_many(sets[:n], zz)) == want
            k_sets = [(a, c) for a, _, c in sets]
            want = _outcome(lambda: _each(kummer_phi, k_sets, 4 * zz))
            assert isinstance(want, list)
            assert _outcome(lambda: kummer_phi_many(k_sets, 4 * zz)) == want
            ps = [0.3 + 0.1j, -0.7 - 0.1j, 1.5j]
            want = _outcome(lambda: _each(parabolic_d, [(p,) for p in ps], 3 * zz))
            assert isinstance(want, list)
            assert _outcome(lambda: parabolic_d_many(ps, 3 * zz)) == want

    def test_one_pass_for_all_sets(self, monkeypatch):
        passes = []
        grid = _grid_series
        monkeypatch.setattr(specfun, "_grid_series",
                            lambda jobs, **kw: passes.append(len(jobs)) or grid(jobs, **kw))
        z = np.array([0.3, -0.2j, np.exp(2j)], dtype=object)  # 2 direct, 1 Pfaff image
        gauss_2f1_many([(0.3, 0.2, 1.2), (1.3, 0.2, 1.2)], z)
        kummer_phi_many([(0.3, 1.2), (1.3, 1.2)], z)
        parabolic_d_many([0.3, -0.7], z)
        assert passes == [4, 2, 4]

    # Re(c - a - b) = 0.06 at |z| = 1 near z = 1: the slow direct series,
    # which runs out of terms; Re(c - a - b) = 3.5 converges
    _SLOW = np.exp(0.1j)

    @pytest.mark.parametrize("fn, sets, z", [
        # the first set fails (2F1 at the term cap, Phi at a term that is
        # not finite), a bad gamma in the second
        (gauss_2f1, [(1, 1, 2.06), (1, 1, -2)], [0.3, _SLOW]),
        (kummer_phi, [(0.5j, 0.5), (1, -2)], [0.5, _Z_CAP]),
        # a bad gamma in the first set
        (gauss_2f1, [(1, 1, -2), (1, 1, 2.06)], [0.3, _SLOW]),
        (kummer_phi, [(1, math.nan), (0.5j, 0.5)], [0.5, _Z_CAP]),
        # the second set outside the domain, where the first converges
        (gauss_2f1, [(0.2, 0.3, 4.0), (0.2, 0.3, 0.5)], [0.3, _SLOW]),
        # a branch cut, for every set
        (gauss_2f1, [(0.2, 0.3, 1.1), (0.3, 0.3, 1.1)], [0.5, 1.5]),
        # an inf term in the first set, an overflow in the second, and back
        (kummer_phi, [(0.5j, 0.5), (1.0, 1.0)], [0.5, _Z_OVERFLOW]),
        (kummer_phi, [(1.0, 1.0), (0.5j, 0.5)], [0.5, _Z_OVERFLOW]),
        (kummer_phi, [(0.3, 1.2), (1.0, 1.0), (0.5j, 0.5)], [0.5, _Z_OVERFLOW]),
        # the second set over the cap: the first is still summed
        (gauss_2f1, [(0.2, 0.3, 4.0), (1, 1, 2.06)], [0.3, _SLOW]),
        # parabolic_d: a NaN order after one whose series has an inf term
        (parabolic_d, [(0.5,), (math.nan,)], [0.5, 71.0 * cmath.exp(0.25j * math.pi)]),
        (parabolic_d, [(0.5,), (math.nan,)], [0.5, 2.0]),
    ])
    def test_errors_match_the_one_set_calls(self, fn, sets, z):
        # at a number, the one-set calls' error; on an array, an error
        many = {gauss_2f1: gauss_2f1_many, kummer_phi: kummer_phi_many,
                parabolic_d: lambda sets, z: parabolic_d_many([p for p, in sets], z)}[fn]
        zz = z[-1]
        want = _outcome(lambda: [fn(*s, zz) for s in sets])
        assert isinstance(want, tuple), "each case fails"
        assert _outcome(lambda: many(sets, zz)) == want
        with np.errstate(all="ignore"), pytest.raises(_GRID_ERRORS):
            many(sets, np.array(z, dtype=object))

    def test_error_cases_fail_as_described(self):
        # the scenarios above, checked on the one-set calls
        with pytest.raises(AccuracyError):
            gauss_2f1(1, 1, 2.06, self._SLOW)
        assert cmath.isfinite(gauss_2f1(0.2, 0.3, 4.0, self._SLOW))
        with pytest.raises(DomainError, match="outside the supported domain"):
            gauss_2f1(0.2, 0.3, 0.5, self._SLOW)
        with pytest.raises(AccuracyError):
            kummer_phi(0.5j, 0.5, _Z_OVERFLOW)
        with pytest.raises(AccuracyError, match="a partial sum that is not finite"):
            kummer_phi(1.0, 1.0, _Z_OVERFLOW)
        with pytest.raises(AccuracyError):
            parabolic_d(0.5, 71.0 * cmath.exp(0.25j * math.pi))


def _straddle(inside, lo, hi):
    """Adjacent floats (x, y) between lo and hi, inside(x) and not inside(y),
    by bisection, for inside(lo) true and inside(hi) false."""
    while math.nextafter(lo, hi) != hi:
        mid = lo + (hi - lo) / 2
        if mid in (lo, hi):
            mid = math.nextafter(lo, hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo, hi


def _across(inside, lo, hi, point):
    """The two points point(x) and point(y) either side of a decision."""
    return [point(x) for x in _straddle(inside, lo, hi)]


def _w_across(r):
    """The two points z = r e^(i theta) either side of |z/(z-1)| = 0.95."""
    def point(theta):
        return r * cmath.exp(1j * theta)
    return _across(lambda t: abs(point(t) / (point(t) - 1.0)) <= 0.95, math.pi, 0.5, point)


_ONE_UP, _ONE_DOWN = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
_R_SLOW = 1.0 + 1e-12  # the slow direct series is taken up to this |z|

# arguments either side of each branch decision of a 2F1 at |z| > 0.95
_PLANNER_Z = [
    # the cut [1, inf), with the imaginary part +-0.0 and the real part 1 +- ulp
    complex(1.0, 0.0), complex(1.0, -0.0), complex(_ONE_UP, 0.0), complex(_ONE_DOWN, -0.0),
    complex(1.5, -0.0), complex(1.0, 5e-324), complex(1.0, -1e-300),
    # |z| = 0.95 +- ulp: direct, then the slow series (Re z > 0) or the image (Re z < 0)
    *_across(lambda x: abs(complex(x, 0.0)) <= 0.95, 0.5, 1.0, lambda x: complex(x, 0.0)),
    *_across(lambda x: abs(complex(x, 0.3)) <= 0.95, 0.0, 1.0, lambda x: complex(x, 0.3)),
    *_across(lambda x: abs(complex(x, -0.3)) <= 0.95, 0.0, -1.0, lambda x: complex(x, -0.3)),
    # |z| = 1 + 1e-12 +- ulp: the slow series or outside (|w| > 0.95), or the image
    *_across(lambda x: abs(complex(x, 5e-324)) <= _R_SLOW, 0.5, 2.0,
             lambda x: complex(x, 5e-324)),
    *_across(lambda x: abs(complex(x, 0.3)) <= _R_SLOW, 0.0, 2.0, lambda x: complex(x, 0.3)),
    *_across(lambda y: abs(complex(0.14, y)) <= _R_SLOW, 0.0, -2.0, lambda y: complex(0.14, y)),
    # |z/(z-1)| = 0.95 +- ulp: the image, then the slow series (|z| = 1) or outside
    *_w_across(1.0), *_w_across(1.05),
    # NaN and inf parts, and an |z| that abs cannot take
    complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
    complex(-math.inf, 0.0), complex(math.inf, 1.0), complex(1.0, -math.inf),
    complex(math.nan, math.inf), complex(-math.inf, math.nan), complex(1.5e308, 1.5e308),
    # plain arguments: direct, and two images
    0.3 + 0j, -0.2j, cmath.exp(2j), -1.0 + 0j,
]


def _gamma_at(a, b, side):
    """gamma with Re(gamma - a - b) just above (side > 0) or at most 0.05."""
    return complex(_straddle(lambda g: not (complex(g, 0.1) - a - b).real > 0.05,
                             0.0, 2.0)[side > 0], 0.1)


_PA, _PB = 0.3 + 0.1j, 0.2 - 0.4j
_PLANNER_SETS = [
    # Re(gamma - alpha - beta) either side of 0.05, and a set sharing their alpha
    (_PA, _PB, _gamma_at(_PA, _PB, 1)), (_PA, _PB, _gamma_at(_PA, _PB, -1)),
    (_PA, _PB + 1, 6.5 + 0.1j),
    # alphas that compare equal but differ in the sign of a zero part
    (complex(0.0, 0.3), 0.2, 6.0), (complex(-0.0, 0.3), 0.2, 6.0),
    (complex(0.4, 0.0), -0.2j, 6.0), (complex(0.4, -0.0), -0.2j, 6.0),
    # gamma poles, for every argument: the second one past the terms that a
    # series near z = 0 takes, where only the check of gamma finds it
    (0.5, 0.25, -2.0), (0.5, 0.25, -30.0),
]


# the arguments and parameter sets of kummer_phi_many and parabolic_d_many:
# plain ones, and each failure of a scalar call (a term that overflows to inf,
# abs past the double range, z or z*z/2 not finite, a gamma pole, a NaN order,
# weights past the double range)
_KUMMER_Z = [0.5 + 0j, -3 + 2j, 6j, complex(-0.0, 0.0), _Z_CAP, _Z_OVERFLOW,
             complex(math.nan, 0.0), complex(1.0, math.inf), 1e200 + 0j, 1.5 + 0j]
_KUMMER_SETS = [(0.3, 1.2), (0.5j, 0.5), (1.0, 1.0), (-0.7 + 1.0j, 1.9 - 0.3j), (1, -2),
                (1, -30), (1, math.nan)]
_PARABOLIC_Z = _KUMMER_Z + [71.0 * cmath.exp(0.25j * math.pi), 2e155j]
_PARABOLIC_SETS = [(0.5,), (0.3j,), (-0.7 - 0.1j,), (math.nan,), (3000.0,), (600j,)]

# each array call: the many-form, the one-set call, its arguments and its sets
_ARRAY_CALLS = {
    "2F1": (gauss_2f1_many, gauss_2f1, _PLANNER_Z, _PLANNER_SETS),
    "1F1": (kummer_phi_many, kummer_phi, _KUMMER_Z, _KUMMER_SETS),
    "D": (lambda sets, z: parabolic_d_many([p for p, in sets], z), parabolic_d,
          _PARABOLIC_Z, _PARABOLIC_SETS),
}


def _scalar_outcome(kind, sets, z):
    """The one-set call at each complex(z_i), set by set and element by
    element: the bits of every set, or the first error."""
    one = _ARRAY_CALLS[kind][1]
    return _outcome(lambda: [[one(*s, complex(zi)) for zi in z] for s in sets])


def _array_outcome(kind, sets, z):
    """The array call's outcome, with numpy's warnings off as
    numutil.grid_or_replay runs it."""
    with np.errstate(all="ignore"):
        return _outcome(lambda: _ARRAY_CALLS[kind][0](sets, np.array(z, dtype=object)))


def _assert_sound(got, want):
    """An array call's outcome against the scalar calls': their bits, or
    an error that the node replay catches.  So it raises wherever a scalar
    call fails."""
    if isinstance(got, tuple):
        assert issubclass(got[0], _GRID_ERRORS), got
    else:
        assert got == want


class TestArrayPlanner:
    """gauss_2f1_many on an array takes each branch decision once per
    argument array, with masks, and it, kummer_phi_many and parabolic_d_many
    must return the scalar calls' bits at every element, or raise, and
    raise wherever a scalar call fails."""

    def test_the_arguments_reach_every_outcome(self):
        for kind, texts in (
                ("2F1", ["branch cut", "outside the supported domain", "did not converge"]),
                ("1F1", ["a term that is not finite", "a partial sum that is not finite",
                         "is not finite",
                         "non-positive integer"]),
                ("D", ["not finite at z", "is not finite", "past the double range",
                       "overflows in the Lanczos formula"])):
            _, one, zs, sets = _ARRAY_CALLS[kind]
            outcomes = [_outcome(lambda: [one(*s, x)]) for s in sets for x in zs]
            messages = " ".join(o[1] for o in outcomes if isinstance(o, tuple))
            for text in texts:
                assert text in messages, (kind, text)
            assert sum(isinstance(o, list) for o in outcomes) > 10

    @given(st.one_of(*(st.tuples(st.just(kind), st.lists(st.sampled_from(zs), min_size=1,
                                                         max_size=5),
                                 st.lists(st.sampled_from(sets), min_size=1, max_size=3))
                       for kind, (_, _, zs, sets) in _ARRAY_CALLS.items())))
    @settings(max_examples=120, deadline=None)
    def test_many_against_the_scalar_calls(self, case):
        kind, z, sets = case
        _assert_sound(_array_outcome(kind, sets, z), _scalar_outcome(kind, sets, z))

    def test_each_set_at_each_argument_and_at_all_at_once(self):
        for kind, (_, _, zs, sets) in _ARRAY_CALLS.items():
            for s in sets:
                for z in [[x] for x in zs] + [zs]:
                    got, want = _array_outcome(kind, [s], z), _scalar_outcome(kind, [s], z)
                    _assert_sound(got, want)
                    # and no false alarm, which would cost the node replay
                    assert isinstance(got, list) == isinstance(want, list), (kind, s, z)

    @pytest.mark.parametrize("z, text", [
        # the cut, before an element outside the domain
        ([0.3, 1.5 + 0j, -30 + 1j], "branch cut"),
        # outside (|z| and |z/(z-1)| both too large), before an element on the cut
        ([-0.2j, -30 + 1j, 1.5 + 0j], "outside the supported domain"),
        # the slow direct series, which the second set may not take
        ([0.3, 0.96 + 0.1j, 0.97 + 0j], "outside the supported domain"),
    ])
    def test_a_failing_branch_raises_the_scalar_message(self, z, text):
        # the message of the scalar call at the first failing element, z[1]
        sets = [(0.3, 0.2, 1.1), (0.3, 0.2, 0.5)]  # Re(gamma - alpha - beta) 0.6, then 0
        with pytest.raises(DomainError, match=text) as scalar:
            gauss_2f1(*sets[1], z[1])
        with np.errstate(all="ignore"), pytest.raises(DomainError) as array:
            gauss_2f1_many(sets, np.array(z, dtype=object))
        assert str(array.value) == str(scalar.value)

    def test_one_power_per_alpha(self, monkeypatch):
        powers = []
        power = np.power
        monkeypatch.setattr(specfun.np, "power",
                            lambda *args: powers.append(args[1][()]) or power(*args))
        z = np.array([cmath.exp(2j), -1.0, 0.3], dtype=object)
        a, b = complex(0.0, 0.3), complex(-0.0, 0.3)
        got = gauss_2f1_many([(a, 0.2, 6.0), (a, 1.2, 7.0), (b, 0.2, 6.0), (a, 0.2, 6.0)], z)
        assert [(x.real, x.imag) for x in powers] == [(-0.0, -0.3), (0.0, -0.3)]
        assert [math.copysign(1, x.real) for x in powers] == [-1.0, 1.0]
        for s, values in zip([(a, 0.2, 6.0), (a, 1.2, 7.0), (b, 0.2, 6.0)], got):
            assert _bits(values.tolist()) == _bits([gauss_2f1(*s, x) for x in z])


class TestNonFiniteArgument:
    """A NaN or infinite z is an input error that names it, not a series
    that runs to the term cap and reports that."""

    @pytest.mark.parametrize("z", [math.nan, complex(0.0, math.inf), -math.inf,
                                   complex(math.inf, math.nan)])
    def test_each_call_names_the_argument(self, z):
        text = re.escape(str(complex(z)))
        for name, call in (("Kummer", lambda: kummer_phi(0.5, 1.5, z)),
                           ("Kummer", lambda: kummer_phi_info(0.5, 1.5, z)),
                           ("parabolic_d", lambda: parabolic_d(0.3j, z))):
            with pytest.raises(DomainError, match=f"^{name} argument z = {text} is not finite$"):
                call()

    @pytest.mark.parametrize("z", [1e200, 1e160, 2e155j])
    def test_an_overflowing_series_argument_names_z(self, z):
        # the Kummer series take z*z/2, past the double range here: the
        # error names the caller's z, with no warning, not z*z/2 = inf
        text = re.escape(str(complex(z)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^parabolic_d argument z = {text}: "
                                                  r"z\*z/2 is past the double range$"):
                parabolic_d(0.3j, z)

    @pytest.mark.parametrize("sets", [[(1, -2), (0.5, 1.5)], [(0.5, 1.5), (1, -2)]])
    def test_errors_match_the_one_set_calls(self, sets):
        # a bad gamma in a set is reported before z, as each set's own call
        # reports it; an array with a NaN element raises
        want = _outcome(lambda: [kummer_phi(*s, math.nan) for s in sets])
        assert want[0] is DomainError
        assert _outcome(lambda: kummer_phi_many(sets, math.nan)) == want
        with np.errstate(all="ignore"), pytest.raises(_GRID_ERRORS):
            kummer_phi_many(sets, np.array([0.5, math.nan]))


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.3 + 1j, -0.7, 1.5, 0.0) == 1.0

    def test_log_closed_form(self):
        # F(1,1;2;z) = -ln(1-z)/z
        assert_rel(gauss_2f1(1, 1, 2, 0.5), -math.log(0.5) / 0.5, 1e-13)

    def test_binomial_closed_form(self):
        # F(2,b;b;z) = (1-z)^-2 for any b
        assert_rel(gauss_2f1(2, 0.77, 0.77, 0.25), 0.75 ** -2, 1e-13)

    def test_gamma_pole_rejected(self):
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, 0, 0.5)
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, -3, 0.5)

    def test_branch_cut_rejected(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.3, 0.4, 1.2, 1.5)

    @pytest.mark.parametrize("z", [1.5e308 + 1.5e308j, complex(-1.3e308, 1.3e308)])
    def test_argument_whose_modulus_overflows_rejected(self, z):
        # |z| is inf, outside the domain: not the bare OverflowError of abs
        with pytest.raises(DomainError, match="outside the supported domain"):
            gauss_2f1(0.5, 0.5, 1.5, z)

    def test_series_metadata(self):
        info = gauss_2f1_info(0.3, 0.4, 1.2, 0.5)
        assert isinstance(info, SeriesResult)
        assert info.terms_used > 0
        assert info.truncation_estimate <= 1e-15

    def test_pfaff_transformation_random(self, rng):
        # F(a,b;c;z) = (1-z)^-a F(a, c-b; c; z/(z-1)), both sides in-domain
        for _ in range(100):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.3, 0.3))
            lhs = gauss_2f1(a, b, c, z)
            rhs = (1 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1))
            assert_rel(lhs, rhs, 1e-9, scale=1 + abs(lhs))

    def test_unit_circle_point(self):
        # argument on the unit circle handled through the Pfaff route
        z = -cmath.exp(-2j * 0.7)
        val = gauss_2f1(0.9 + 0.8j, 0.2 - 0.5j, 0.8 - 0.5j, z)
        assert cmath.isfinite(val)

    def test_derivative_relation(self):
        a, b, c = 0.4 + 0.2j, 1.1, 1.7 - 0.3j
        f = lambda z: gauss_2f1(a, b, c, z)
        got = central_diff(f, 0.3)
        want = a * b / c * gauss_2f1(a + 1, b + 1, c + 1, 0.3)
        assert_rel(got, want, 1e-6, scale=1 + abs(want))

    def test_contiguous_relation_random(self, rng):
        # (c-a) F(a-1,b;c;z) + (2a-c+(b-a)z) F(a,b;c;z) + a(z-1) F(a+1,b;c;z) = 0
        for _ in range(100):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            r = ((c - a) * gauss_2f1(a - 1, b, c, z)
                 + (2 * a - c + (b - a) * z) * gauss_2f1(a, b, c, z)
                 + a * (z - 1) * gauss_2f1(a + 1, b, c, z))
            assert abs(r) <= 1e-10 * (1 + abs(gauss_2f1(a, b, c, z)))


class TestKummerPhi:
    def test_at_zero(self):
        assert kummer_phi(0.3 + 1j, 1.5, 0.0) == 1.0

    def test_exponential_closed_form(self):
        assert_rel(kummer_phi(1.7, 1.7, 1.0), math.e, 1e-13)

    def test_gamma_pole_rejected(self):
        with pytest.raises(DomainError):
            kummer_phi(1, -2, 0.5)

    def test_kummer_transformation_specific(self):
        a, g, z = 1 + 1j, 2.5, 3j
        lhs = kummer_phi(a, g, z)
        rhs = cmath.exp(z) * kummer_phi(g - a, g, -z)
        assert_rel(lhs, rhs, 1e-12, scale=1 + abs(lhs))

    def test_kummer_transformation_random(self, rng):
        for _ in range(100):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            lhs = kummer_phi(a, g, z)
            rhs = cmath.exp(z) * kummer_phi(g - a, g, -z)
            assert_rel(lhs, rhs, 1e-9, scale=1 + abs(lhs))

    def test_derivative_relation(self):
        a, g = 0.8 - 0.4j, 1.9
        f = lambda z: kummer_phi(a, g, z)
        got = central_diff(f, 0.7)
        want = a / g * kummer_phi(a + 1, g + 1, 0.7)
        assert_rel(got, want, 1e-6, scale=1 + abs(want))

    def test_metadata_invariant(self):
        info = kummer_phi_info(0.5, 1.5, 2.0 + 1j)
        assert info.truncation_estimate <= 1e-15


class TestComplexGamma:
    def test_one(self):
        assert_rel(complex_gamma(1.0), 1.0, 1e-14)

    def test_half(self):
        assert_rel(complex_gamma(0.5), math.sqrt(math.pi), 1e-13)

    def test_modulus_one_plus_i(self):
        # |Gamma(1+i)|^2 = pi / sinh(pi)
        got = abs(complex_gamma(1 + 1j)) ** 2
        assert_rel(got, math.pi / math.sinh(math.pi), 1e-12)

    def test_recurrence_random(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z.imag) < 1e-3 and z.real <= 0.5:
                continue
            lhs = complex_gamma(z + 1)
            rhs = z * complex_gamma(z)
            assert_rel(lhs, rhs, 1e-12, scale=abs(lhs) + abs(rhs))

    def test_pole_rejected(self):
        for z in (0, -1, -5):
            with pytest.raises(DomainError):
                complex_gamma(z)
        assert reciprocal_gamma(0) == 0
        assert reciprocal_gamma(-3) == 0

    @pytest.mark.parametrize("fn, args, z", [
        (complex_gamma, (171.5,), 171.5), (complex_gamma, (200,), 200),
        (complex_gamma, (-200.5,), -200.5), (reciprocal_gamma, (-200.5,), -200.5),
        (parabolic_d, (-500, 1.0), 250.5)])
    def test_overflow_is_an_accuracy_error(self, fn, args, z):
        # the caller's z, not the reflected 1 - z; not a bare OverflowError
        with pytest.raises(AccuracyError, match=rf"gamma at z = \({z}\+0j\) overflows"):
            fn(*args)

    @pytest.mark.parametrize("fn, args, z", [
        (complex_gamma, (0.5 - 5e307j,), 0.5 - 5e307j),
        (complex_gamma, (1e308 + 1e308j,), 1e308 + 1e308j),
        (parabolic_d, (1e308j, 0), 0.5 - 5e307j),
        (complex_gamma, (-1e308 + 0.5j,), -1e308 + 0.5j)])
    def test_infinite_phase_is_an_accuracy_error(self, fn, args, z):
        # the phase of t ** (z + 0.5) is not finite; CPython's complex power
        # reports that as a bare ZeroDivisionError.  In the last case the
        # reflection's pi z is, whose sine is a bare ValueError
        with pytest.raises(AccuracyError, match=rf"gamma at z = {re.escape(str(z))} overflows"):
            fn(*args)

    @pytest.mark.parametrize("z", [0.5 + 1000j, 0.5 - 700j, 3 + 2500j])
    def test_reciprocal_of_an_underflowed_gamma_is_an_accuracy_error(self, z):
        # |Gamma(z)| ~ e^{-pi |Im z| / 2} leaves the double range: not a bare
        # ZeroDivisionError, nor an infinite reciprocal
        assert complex_gamma(z) == 0
        with pytest.raises(AccuracyError, match=rf"gamma at z = {re.escape(str(z))} underflows"):
            reciprocal_gamma(z)

    def test_reciprocal_near_the_underflow_is_finite(self):
        # Gamma(0.5 + 300i) ~ 5e-205 is still a normal double
        r = reciprocal_gamma(0.5 + 300j)
        assert cmath.isfinite(r) and abs(r) > 1e204

    @pytest.mark.parametrize("fn, args", [
        (complex_gamma, (math.nan,)), (complex_gamma, (math.inf,)),
        (reciprocal_gamma, (math.nan,)), (parabolic_d, (math.nan, 1)),
        (gauss_2f1, (1, 1, math.nan, 0.1)), (kummer_phi, (1, math.inf, 0.1)),
        (parabolic_d, (1e308, 0))])  # a finite order whose 2**(p/2) is not
    def test_non_finite_argument_rejected(self, fn, args):
        # not the bare ValueError or OverflowError of rounding it
        with pytest.raises(DomainError, match="not finite"):
            fn(*args)


class TestParabolicD:
    def test_d0(self):
        assert_rel(parabolic_d(0, 2.0), math.exp(-1.0), 1e-13)

    def test_d1(self):
        assert_rel(parabolic_d(1, 1.0), math.exp(-0.25), 1e-13)

    def test_recurrence_complex(self):
        # D_{p+1}(z) - z D_p(z) + p D_{p-1}(z) = 0
        p, z = 0.5 + 0.3j, 1 + 1j
        r = parabolic_d(p + 1, z) - z * parabolic_d(p, z) + p * parabolic_d(p - 1, z)
        assert abs(r) <= 1e-10 * (1 + abs(parabolic_d(p, z)))

    def test_recurrence_random(self, rng):
        for _ in range(50):
            p = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r = parabolic_d(p + 1, z) - z * parabolic_d(p, z) + p * parabolic_d(p - 1, z)
            scale = 1 + abs(parabolic_d(p, z)) + abs(parabolic_d(p + 1, z))
            assert abs(r) <= 1e-10 * scale

    def test_derivative_relation(self):
        # D_p'(z) = (z/2) D_p(z) - D_{p+1}(z)
        p = 0.7 - 0.2j
        f = lambda z: parabolic_d(p, z)
        got = central_diff(f, 0.9)
        want = 0.45 * parabolic_d(p, 0.9) - parabolic_d(p + 1, 0.9)
        assert_rel(got, want, 1e-6, scale=1 + abs(want))
