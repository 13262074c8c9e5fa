import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineq import specfun
from spineq.errors import AccuracyError, DomainError
from spineq.specfun import (REL_EPS, SeriesResult, _grid_series, _hyp1f1_coefficient,
                            _hyp2f1_coefficient, _overflows, _series, _small_terms,
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


def _pfaff_image(theta):
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
        z = np.array(zs + [0j, complex(-0.0, -0.0)] + [_pfaff_image(t) for t in thetas])
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
        # 2500j is where entry 16 on [-50, 50] runs out of terms
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
        got = gauss_2f1(a, b, c, z)
        assert all(type(v) is complex for v in got)
        assert _bits(got.tolist()) == _bits([gauss_2f1(a, b, c, x) for x in z])
        got = kummer_phi(a, c, 4 * z)
        assert _bits(got.tolist()) == _bits([kummer_phi(a, c, 4 * x) for x in z])
        got = parabolic_d(a, 3 * z)
        assert _bits(got.tolist()) == _bits([parabolic_d(a, 3 * x) for x in z])

    def test_specfun_arrays_raise_the_scalar_errors(self):
        z = np.array([0.5, 1.5 + 0j], dtype=object)
        with pytest.raises(DomainError, match="branch cut"):
            gauss_2f1(0.2, 0.3, 1.1, z)
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, -3, z)


# a job of the grid kernel: the series ("2F1" or "1F1"), its parameters and its z
_SERIES = {"2F1": _hyp2f1_coefficient, "1F1": _hyp1f1_coefficient}
_z_2f1 = st.one_of(st.builds(complex, st.floats(-0.95, 0.95), st.floats(-0.3, 0.3)),
                   st.floats(1.2, 5.0).map(_pfaff_image))
_job = st.one_of(
    st.tuples(st.just("2F1"), st.tuples(_param, _param, _gamma),
              st.lists(_z_2f1, min_size=1, max_size=6)),
    st.tuples(st.just("1F1"), st.tuples(_param, _gamma),
              st.lists(st.builds(complex, st.floats(-6, 6), st.floats(-6, 6)),
                       min_size=1, max_size=6)))

# where F(1; 1; z) = e^z overflows in the scalar loop, and Phi(0.5i; 0.5; z)
# and Phi(0.3; 1.2; z) run out of terms instead
_Z_OVERFLOW = 800 * cmath.exp(0.6j)
_Z_CAP = 2500.100001j  # Phi(0.5i; 0.5; z) runs out of terms (entry 16 on [-50, 50])


def _kernel_jobs(specs):
    return [(_SERIES[kind](*params), np.array(z, dtype=complex)) for kind, params, z in specs]


def _assert_jobs_match(specs):
    """One pass over all jobs against a pass per job and the scalar loop,
    bit for bit in values, term counts and estimates, for every job up to
    the first with an element over the cap; the jobs after it may be left
    out (None)."""
    jobs = _kernel_jobs(specs)
    got = _grid_series(jobs)
    assert len(got) == len(jobs)
    for i, ((kind, params, _), job, result) in enumerate(zip(specs, jobs, got)):
        if result is None:
            assert any((r[1] < 0).any() for r in got[:i]), "left out before a cap"
            continue
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
            ("2F1", (0.9 + 0.8j, 0.2 - 0.5j, 0.8 - 0.5j), [_pfaff_image(1.3)])])
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
        with pytest.raises(OverflowError) as want:
            _series(_hyp1f1_coefficient(1.0, 1.0), _Z_OVERFLOW)
        specs = [("1F1", (1.0, 1.0), [0.5, _Z_OVERFLOW]), ("1F1", (0.2, 1.1), [1.0, 2j])]
        with pytest.raises(OverflowError) as got:
            _grid_series(_kernel_jobs(specs if first else specs[::-1]))
        assert str(got.value) == str(want.value)

    def test_jobs_after_a_diverging_term_are_left_out(self):
        # at z = 1e300 the second term overflows to inf, and NaN follows
        specs = [("1F1", (0.3, 1.2), [0.5, 2.0]),
                 ("1F1", (0.3, 1.2), [1.0, 1e300]),
                 ("1F1", (0.2, 1.1), [1.0])]
        got = _assert_jobs_match(specs)
        assert got[2] is None and got[1][1].tolist()[1] == -1
        assert None not in _assert_jobs_match([specs[0], specs[2], specs[1]])
        # the cap with finite terms, and a NaN argument (no magnitude
        # overflows), leave no job out
        for z in (1.0, complex(math.inf, 1.0)):
            assert None not in _assert_jobs_match([("2F1", (1, 1, 1.5), [z]), specs[2]])


def _block(terms, totals):
    """A kernel block, [step, term/total, re/im, element], from complex
    arrays of terms and totals as [step, element]."""
    terms, totals = np.asarray(terms, dtype=complex), np.asarray(totals, dtype=complex)
    return np.stack([np.stack([terms.real, terms.imag], axis=1),
                     np.stack([totals.real, totals.imag], axis=1)], axis=1)


def _abs_rule(block):
    """The scalar loop's stop test at every [step, element] of a block, by
    CPython's abs, and where that abs raises OverflowError."""
    kb, m = block.shape[0], block.shape[-1]
    small, over = np.zeros((kb, m), dtype=bool), np.zeros((kb, m), dtype=bool)
    for k in range(kb):
        for e in range(m):
            term, total = (complex(*block[k, i, :, e]) for i in (0, 1))
            try:
                small[k, e] = abs(term) < REL_EPS * abs(total)
            except OverflowError:
                over[k, e] = True
    return small, over


def _assert_stop_test(block):
    """_small_terms and _overflows on a block, decision by decision against
    CPython's abs; True where the squared magnitudes decided the block."""
    kb, m = block.shape[0], block.shape[-1]
    small = np.empty((kb, m), dtype=bool)
    with np.errstate(all="ignore"):  # as the kernel runs it
        mags = _small_terms(block, np.empty(3 * kb * m), small)
        over = np.zeros((kb, m), dtype=bool) if mags is None else _overflows(block, mags)
    want_small, want_over = _abs_rule(block)
    assert over.tolist() == want_over.tolist()
    # where abs raises, the kernel raises before it reads the decision
    assert small[~over].tolist() == want_small[~over].tolist()
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
        small, _ = _abs_rule(block)
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
        _, over = _abs_rule(_block([cases], [[1.0] * n]))
        assert over.tolist() == [[True, True, False, False]]


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

    def test_overflowing_orders_fail_fast(self, monkeypatch):
        # a = 1e150 on entry 1: the Kummer terms are inf from the second on
        from spineq import catalog
        calls = []
        kummer = specfun._hyp1f1_coefficient
        monkeypatch.setattr(specfun, "_hyp1f1_coefficient",
                            lambda a, c: self._counted(kummer(a, c), calls))
        with pytest.raises(AccuracyError, match=re.escape(
                "Kummer series did not converge within 20000 terms at z=3.99920004e+148j")):
            catalog.verify_entry(1, {"a": 1e150})
        assert 0 < len(calls) <= 4 * specfun._BLOCK


class TestManyForms:
    """gauss_2f1_many, kummer_phi_many and parabolic_d_many against the
    one-set calls made in order: the same bits, or the same error."""

    def test_values_match_the_one_set_calls(self):
        theta = np.linspace(1.2, 5.0, 7)
        z = np.concatenate([np.exp(1j * theta), [0.3, -0.2j, 0.99j]]).astype(object)
        sets = [(0.3 + 0.1j, -0.4j, 1.2 + 0.2j), (1.3 + 0.1j, -0.4j, 1.2 + 0.2j),
                (0.3 + 0.1j, 0.6 - 0.4j, 2.2 + 0.2j), (0.5, 0.25, 1.5)]
        for zz in (z, z[3], z.reshape(2, 5)):
            for n in (1, 2, 4):
                assert _outcome(lambda: gauss_2f1_many(sets[:n], zz)) == \
                    _outcome(lambda: [gauss_2f1(*s, zz) for s in sets[:n]])
            k_sets = [(a, c) for a, _, c in sets]
            assert _outcome(lambda: kummer_phi_many(k_sets, 4 * zz)) == \
                _outcome(lambda: [kummer_phi(*s, 4 * zz) for s in k_sets])
            ps = [0.3 + 0.1j, -0.7 - 0.1j, 1.5j]
            assert _outcome(lambda: parabolic_d_many(ps, 3 * zz)) == \
                _outcome(lambda: [parabolic_d(p, 3 * zz) for p in ps])

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
        # the first set over the cap, a bad gamma in the second
        (gauss_2f1, [(1, 1, 2.06), (1, 1, -2)], [0.3, _SLOW]),
        (kummer_phi, [(0.5j, 0.5), (1, -2)], [0.5, _Z_CAP]),
        # a bad gamma in the first set
        (gauss_2f1, [(1, 1, -2), (1, 1, 2.06)], [0.3, _SLOW]),
        (kummer_phi, [(1, math.nan), (0.5j, 0.5)], [0.5, _Z_CAP]),
        # the second set outside the domain, where the first converges
        (gauss_2f1, [(0.2, 0.3, 4.0), (0.2, 0.3, 0.5)], [0.3, _SLOW]),
        # a branch cut, for every set
        (gauss_2f1, [(0.2, 0.3, 1.1), (0.3, 0.3, 1.1)], [0.5, 1.5]),
        # over the cap in the first set, an overflow in the second, and back
        (kummer_phi, [(0.5j, 0.5), (1.0, 1.0)], [0.5, _Z_OVERFLOW]),
        (kummer_phi, [(1.0, 1.0), (0.5j, 0.5)], [0.5, _Z_OVERFLOW]),
        (kummer_phi, [(0.3, 1.2), (1.0, 1.0), (0.5j, 0.5)], [0.5, _Z_OVERFLOW]),
        # the second set over the cap: the first is still summed
        (gauss_2f1, [(0.2, 0.3, 4.0), (1, 1, 2.06)], [0.3, _SLOW]),
        # parabolic_d: a NaN order after one whose series runs out of terms
        (parabolic_d, [(0.5,), (math.nan,)], [0.5, 71.0 * cmath.exp(0.25j * math.pi)]),
        (parabolic_d, [(0.5,), (math.nan,)], [0.5, 2.0]),
    ])
    def test_errors_match_the_one_set_calls(self, fn, sets, z):
        many = {gauss_2f1: gauss_2f1_many, kummer_phi: kummer_phi_many,
                parabolic_d: lambda sets, z: parabolic_d_many([p for p, in sets], z)}[fn]
        for zz in (np.array(z, dtype=object), z[-1]):
            want = _outcome(lambda: [fn(*s, zz) for s in sets])
            assert isinstance(want, tuple), "each case fails"
            assert _outcome(lambda: many(sets, zz)) == want

    def test_error_cases_fail_as_described(self):
        # the scenarios above, checked on the one-set calls
        with pytest.raises(AccuracyError):
            gauss_2f1(1, 1, 2.06, self._SLOW)
        assert cmath.isfinite(gauss_2f1(0.2, 0.3, 4.0, self._SLOW))
        with pytest.raises(DomainError, match="outside the supported domain"):
            gauss_2f1(0.2, 0.3, 0.5, self._SLOW)
        with pytest.raises(AccuracyError):
            kummer_phi(0.5j, 0.5, _Z_OVERFLOW)
        with pytest.raises(OverflowError):
            kummer_phi(1.0, 1.0, _Z_OVERFLOW)
        with pytest.raises(AccuracyError):
            parabolic_d(0.5, 71.0 * cmath.exp(0.25j * math.pi))


class TestNonFiniteArgument:
    """A NaN or infinite z is an input error that names it, not a series
    that runs to the term cap and reports that."""

    @pytest.mark.parametrize("z", [math.nan, complex(0.0, math.inf), -math.inf,
                                   complex(math.inf, math.nan)])
    def test_each_call_names_the_argument(self, z):
        text = re.escape(str(complex(z)))
        for name, call in (("Kummer", lambda: kummer_phi(0.5, 1.5, z)),
                           ("Kummer", lambda: kummer_phi_info(0.5, 1.5, z)),
                           ("Kummer", lambda: kummer_phi_many([(0.5, 1.5)], np.array([z]))),
                           ("parabolic_d", lambda: parabolic_d(0.3j, z)),
                           ("parabolic_d", lambda: parabolic_d_many([0.3j], np.array([z])))):
            with pytest.raises(DomainError, match=f"^{name} argument z = {text} is not finite$"):
                call()

    def test_an_array_names_its_first_bad_element(self):
        z = np.array([0.5, 2.0, complex(math.nan, 1.0), math.inf])
        for call in (lambda: kummer_phi_many([(0.5, 1.5), (0.2, 0.5)], z),
                     lambda: parabolic_d_many([0.3, 0.5], z)):
            with pytest.raises(DomainError, match=re.escape("z = (nan+1j) is not finite")):
                call()

    @pytest.mark.parametrize("z", [1e200, 1e160, 2e155j])
    def test_an_overflowing_series_argument_names_z(self, z):
        # the Kummer series take z*z/2, past the double range here: the
        # error names the caller's z, with no warning, not z*z/2 = inf
        text = re.escape(str(complex(z)))
        for call in (lambda: parabolic_d(0.3j, z),
                     lambda: parabolic_d_many([0.3j], np.array([0.5, z]))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=f"^parabolic_d argument z = {text}: "
                                                      r"z\*z/2 is past the double range$"):
                    call()

    @pytest.mark.parametrize("sets", [[(1, -2), (0.5, 1.5)], [(0.5, 1.5), (1, -2)]])
    def test_errors_match_the_one_set_calls(self, sets):
        # a bad gamma in a set is reported before z, as each set's own call reports it
        for z in (np.array([0.5, math.nan]), math.nan):
            want = _outcome(lambda: [kummer_phi(*s, z) for s in sets])
            assert want[0] is DomainError
            assert _outcome(lambda: kummer_phi_many(sets, z)) == want


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
        (gauss_2f1, (1, 1, math.nan, 0.1)), (kummer_phi, (1, math.inf, 0.1))])
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
