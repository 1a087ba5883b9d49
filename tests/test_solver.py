import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dltsched.datagen import SamplerRanges, sample_config
from dltsched.errors import InvalidInputError, NumericError
from dltsched.solver import (
    LoadAllocation,
    SltnConfig,
    TimeRates,
    oracle_solve,
    simulate_timeline,
    solve_optimal,
    to_time_rates,
)

from conftest import exact_solve


# Table-range random rates reused by the sweep tests.
def random_rates(rng, n=None):
    n = n if n is not None else int(rng.integers(3, 21))
    config = SltnConfig(
        n=n,
        root_speed=float(rng.uniform(1.0, 15.0)),
        child_speeds=tuple(rng.uniform(1.0, 15.0, size=n)),
        link_bandwidths=tuple(rng.uniform(10.0, 150.0, size=n)),
        load_gb=float(rng.uniform(1.0, 100.0)),
    )
    return to_time_rates(config), config.load_gb


class TestToTimeRates:
    def test_unit_conversions(self):
        config = SltnConfig(
            n=2, root_speed=10.0, child_speeds=(1.0, 10.0), link_bandwidths=(100.0, 100.0), load_gb=1.0
        )
        rates = to_time_rates(config, compute_intensity=100.0)
        assert rates.w0 == 10.0
        assert rates.w == (100.0, 10.0)
        assert rates.z == (10.0, 10.0)

    def test_rejects_nonpositive_intensity(self):
        config = SltnConfig(n=1, root_speed=1.0, child_speeds=(1.0,), link_bandwidths=(10.0,), load_gb=1.0)
        with pytest.raises(InvalidInputError):
            to_time_rates(config, compute_intensity=0.0)

    def test_rejects_bad_config(self):
        with pytest.raises(InvalidInputError):
            SltnConfig(n=0, root_speed=1.0, child_speeds=(), link_bandwidths=(), load_gb=1.0)
        with pytest.raises(InvalidInputError):
            SltnConfig(n=1, root_speed=-1.0, child_speeds=(1.0,), link_bandwidths=(10.0,), load_gb=1.0)
        with pytest.raises(InvalidInputError):
            SltnConfig(n=2, root_speed=1.0, child_speeds=(1.0,), link_bandwidths=(10.0, 10.0), load_gb=1.0)


# Values every positive-and-finite check refuses: NaN, both infinities, both
# zeros and a negative number.
NOT_POSITIVE_AND_FINITE = [math.nan, math.inf, -math.inf, 0.0, -0.0, -2.5]


def config_with(**changes) -> SltnConfig:
    """A valid two-child system with ``changes`` applied; a tuple field takes
    a one-value change in its first entry."""
    fields = dict(root_speed=4.0, child_speeds=(3.0, 6.0), link_bandwidths=(30.0, 60.0), load_gb=20.0)
    for name, value in changes.items():
        fields[name] = (value, *fields[name][1:]) if isinstance(fields[name], tuple) else value
    return SltnConfig(n=2, **fields)


class TestRangeChecks:
    """Each check refuses NaN, +-inf, 0.0, -0.0 and a negative value with its
    own exception type and message."""

    @pytest.mark.parametrize("value", NOT_POSITIVE_AND_FINITE, ids=repr)
    @pytest.mark.parametrize(
        "field, message",
        [
            ("root_speed", "every speed must be positive and finite"),
            ("child_speeds", "every speed must be positive and finite"),
            ("link_bandwidths", "every bandwidth must be positive and finite"),
            ("load_gb", "load must be positive and finite"),
        ],
    )
    def test_config(self, field, message, value):
        with pytest.raises(InvalidInputError, match=re.escape(f"{message}, got {value}")):
            config_with(**{field: value})

    @pytest.mark.parametrize("value", NOT_POSITIVE_AND_FINITE, ids=repr)
    def test_compute_rates(self, value):
        message = re.escape(f"compute rates must be positive and finite, got {value}")
        with pytest.raises(InvalidInputError, match=message):
            TimeRates(w0=value, w=(1.0, 2.0), z=(0.5, 0.5))
        with pytest.raises(InvalidInputError, match=message):
            TimeRates(w0=1.0, w=(1.0, value), z=(0.5, 0.5))

    @pytest.mark.parametrize("value", NOT_POSITIVE_AND_FINITE, ids=repr)
    def test_link_rates(self, value):
        if value == 0.0:  # an idealised free link, either zero
            assert TimeRates(w0=1.0, w=(1.0, 2.0), z=(0.5, value)).z[1] == value
            return
        message = re.escape(f"link rates must be non-negative and finite, got {value}")
        with pytest.raises(InvalidInputError, match=message):
            TimeRates(w0=1.0, w=(1.0, 2.0), z=(0.5, value))

    @pytest.mark.parametrize("value", [*NOT_POSITIVE_AND_FINITE, 1.0, 1.5])
    def test_share(self, value):
        if 0.0 <= value <= 1.0:  # a share below the double range, either zero, or one beside such shares
            assert LoadAllocation(alpha=(value, 1.0 - value), t_star_norm=1.0, t_star=1.0).alpha[0] == value
            return
        # A NaN second share makes the sum NaN, which the sum check lets
        # through, so the first share's own check decides.
        with pytest.raises(NumericError, match=re.escape(f"load fraction {value!r} outside [0, 1]")):
            LoadAllocation(alpha=(value, math.nan), t_star_norm=1.0, t_star=1.0)


class TestSolveOptimal:
    def test_free_link_splits_evenly(self):
        alloc = solve_optimal(TimeRates(w0=1.0, w=(1.0,), z=(0.0,)), 1.0)
        np.testing.assert_allclose(alloc.alpha, [0.5, 0.5], rtol=1e-12)
        assert alloc.t_star == pytest.approx(0.5, rel=1e-12)

    def test_homogeneous_n2(self):
        alloc = solve_optimal(TimeRates(w0=1.0, w=(1.0, 1.0), z=(1.0, 1.0)), 1.0)
        np.testing.assert_allclose(alloc.alpha, [4 / 7, 2 / 7, 1 / 7], rtol=1e-12)
        assert alloc.t_star == pytest.approx(4 / 7, rel=1e-12)

    def test_hand_evaluated_chain(self):
        # Each share is the previous one over (z_i + w_i) / w_{i-1}, here
        # (1+4)/2 and (2+8)/4, both 2.5: shares 1 : 0.4 : 0.16, that is
        # 25 : 10 : 4 over 39, and T* = alpha_0 w0 load = 50/39 for one GB.
        rates = TimeRates(w0=2.0, w=(4.0, 8.0), z=(1.0, 2.0))
        alloc = solve_optimal(rates, 1.0)
        shares, t_star = exact_solve(rates, 1.0)
        np.testing.assert_allclose(alloc.alpha, [25 / 39, 10 / 39, 4 / 39], rtol=1e-15)
        assert shares == (25 / 39, 10 / 39, 4 / 39)
        assert alloc.t_star == pytest.approx(50 / 39, rel=1e-15) and t_star == 50 / 39

    def test_zero_communication_limit_is_harmonic(self):
        # As z -> 0 the star acts like one pooled processor: 1 / sum(1/w_j).
        rates = TimeRates(w0=1.0, w=(2.0, 4.0), z=(1e-12, 1e-12))
        alloc = solve_optimal(rates, 1.0)
        assert alloc.t_star == pytest.approx(4 / 7, rel=1e-6)
        np.testing.assert_allclose(alloc.alpha, [4 / 7, 2 / 7, 1 / 7], rtol=1e-6)

    def test_homogeneous_closed_form_n1_to_10(self):
        # w = z = 1 gives rho = 2 and t* = rho^n (rho-1) / (rho^(n+1) - 1).
        for n in range(1, 11):
            rates = TimeRates(w0=1.0, w=(1.0,) * n, z=(1.0,) * n)
            alloc = solve_optimal(rates, 1.0)
            expected = 2.0**n / (2.0 ** (n + 1) - 1)
            assert alloc.t_star_norm == pytest.approx(expected, rel=1e-12), f"n={n}"

    def test_load_scaling(self):
        rng = np.random.default_rng(5)
        rates, _ = random_rates(rng)
        a1 = solve_optimal(rates, 3.0)
        a2 = solve_optimal(rates, 21.0)
        assert a2.t_star == pytest.approx(7.0 * a1.t_star, rel=1e-12)
        np.testing.assert_array_equal(a1.alpha, a2.alpha)

    def test_equal_finish_split_is_not_optimal_for_the_given_order(self):
        # The README system: root 10, children 5:100, 8:40, 12:75, 25 GB at
        # intensity 100. The split at which every child finishes together is
        # beaten by another order, by dropping 8:40, and, in the given order,
        # by giving 8:40 almost nothing and the rest the two-child split.
        def star(children):
            speeds, bandwidths = zip(*children)
            config = SltnConfig(len(children), 10.0, speeds, bandwidths, 25.0)
            return to_time_rates(config, 100.0)

        given = star([(5.0, 100.0), (8.0, 40.0), (12.0, 75.0)])
        t_given = solve_optimal(given, 25.0).t_star
        assert t_given == pytest.approx(154.93, abs=0.005)
        assert solve_optimal(star([(5.0, 100.0), (12.0, 75.0), (8.0, 40.0)]), 25.0).t_star == pytest.approx(146.25)
        dropped = solve_optimal(star([(5.0, 100.0), (12.0, 75.0)]), 25.0)
        assert dropped.t_star == pytest.approx(152.34, abs=0.005)
        a0, a1, a3 = (a * (1.0 - 1e-6) for a in dropped.alpha)
        profile = simulate_timeline(given, (a0, a1, 1e-6, a3), 25.0)
        assert max(profile.compute_finish) == pytest.approx(152.344, abs=0.0005)
        assert max(profile.compute_finish) < t_given

    def test_rejects_bad_load(self):
        rates = TimeRates(w0=1.0, w=(1.0,), z=(1.0,))
        with pytest.raises(InvalidInputError):
            solve_optimal(rates, 0.0)

    def test_large_n_matches_exact_solve(self):
        rng = np.random.default_rng(11)
        rates, load = random_rates(rng, n=18)
        closed = solve_optimal(rates, load)
        np.testing.assert_allclose(closed.alpha, exact_solve(rates, load)[0], rtol=1e-9)

    def test_share_near_double_underflow_is_returned(self):
        # The last share is near 1e-310 of the root's: subnormal, and still
        # within rounding of its exact value.
        rates = TimeRates(w0=1.0, w=(1.0, 1.0, 1.0), z=(0.0, 1e155, 1e155))
        closed = solve_optimal(rates, 1.0)
        assert 0 < closed.alpha[3] < 1e-308
        np.testing.assert_allclose(closed.alpha, exact_solve(rates, 1.0)[0], rtol=1e-9)

    def test_root_share_below_double_range_is_zero(self):
        # The root's share is 1e-400 of the child's, which takes all the load.
        rates = TimeRates(w0=1e200, w=(1e-200,), z=(0.0,))
        closed = solve_optimal(rates, 1.0)
        assert closed.alpha == (0.0, 1.0) == exact_solve(rates, 1.0)[0]
        assert closed.t_star == exact_solve(rates, 1.0)[1] == 1e-200

    def test_extreme_rate_spread_gives_zero_shares(self):
        # Link rates 18 orders above compute rates: child k's share is about
        # 1e-18k, so the last three are below the double range.
        rates = TimeRates(w0=1.0, w=(1.0,) * 20, z=(1e18,) * 20)
        closed = solve_optimal(rates, 1.0)
        shares, t_star = exact_solve(rates, 1.0)
        assert closed.alpha[-3:] == shares[-3:] == (0.0, 0.0, 0.0) and 0.0 not in closed.alpha[:-3]
        assert_within_rounding(closed.alpha, shares)
        assert closed.t_star == pytest.approx(t_star, rel=1e-14)

    def test_default_box_system_of_1000_children_matches_exact_solve(self):
        # Intensity 100: the shares of the last few dozen children are below
        # the double range.
        config = sample_config(np.random.default_rng(1), SamplerRanges(n_range=(1000, 1000)))
        rates = to_time_rates(config, 100.0)
        closed = solve_optimal(rates, config.load_gb)
        shares, t_star = exact_solve(rates, config.load_gb)
        assert closed.t_star == pytest.approx(t_star, rel=1e-14)
        assert 0.0 in shares
        assert_within_rounding(closed.alpha, shares)

    @pytest.mark.parametrize(
        "rates",
        [
            # The discount underflows at the 1e200 links, ahead of a child whose
            # share is 1e-110.
            TimeRates(w0=1.0, w=(1.0, 1.0, 1.0, 1e-290), z=(1e200, 1e200, 0.0, 0.0)),
            # A discount step (z + w) / w of 1e330, which cuts the discount to
            # zero from any size: refused wherever it falls, here after the last
            # child.
            TimeRates(w0=1e300, w=(1e-300,), z=(1e30,)),
            # Subnormal compute rates: a makespan or a part beyond the range.
            TimeRates(w0=1.0, w=(1e-310,), z=(0.0,)),
            TimeRates(w0=1.0, w=(1.0, 1e-310), z=(1.0, 0.0)),
            TimeRates(w0=1e-310, w=(1.0,), z=(0.0,)),
            # Parts whose sum passes the double range.
            TimeRates(w0=1e-300, w=(1e-308,) * 3, z=(0.0,) * 3),
            # A link plus compute time past the double range, whose child's
            # share is about 2e-9.
            TimeRates(w0=1e300, w=(1e300, 1e308), z=(0.0, 1e308)),
        ],
        ids=[
            "underflow-ahead-of-a-fast-child",
            "discount-step-overflow",
            "subnormal-child",
            "subnormal-later-child",
            "subnormal-root",
            "parts-overflow",
            "link-plus-compute-overflow",
        ],
    )
    def test_rates_beyond_double_precision_raise_numeric_error(self, rates):
        with pytest.raises(NumericError, match="rates span too wide a range for double precision"):
            solve_optimal(rates, 1.0)


def assert_within_rounding(alpha, shares):
    """Each share whose exact value is a normal double is within 1e-14 of
    it, and every other within 2**-1022."""
    for a, exact in zip(alpha, shares, strict=True):
        assert abs(a - exact) <= (1e-14 * exact if exact >= sys.float_info.min else sys.float_info.min)


@st.composite
def wide_rates(draw):
    """Rates from anywhere in the double range, subnormals and free links
    included."""
    n = draw(st.integers(1, 8))
    rate = st.floats(min_value=5e-324, allow_infinity=False)
    return TimeRates(
        w0=draw(rate),
        w=tuple(draw(st.lists(rate, min_size=n, max_size=n))),
        z=tuple(draw(st.lists(st.just(0.0) | rate, min_size=n, max_size=n))),
    )


@st.composite
def chained_rates(draw):
    """Rates built from drawn beta coefficients, each split between the
    child's compute rate and its link rate."""
    n = draw(st.integers(1, 40))
    betas = draw(st.lists(st.floats(0.01, 1e3), min_size=n, max_size=n))
    compute_parts = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    w_prev, w, z = 1.0, [], []
    for beta, part in zip(betas, compute_parts):
        w.append(part * beta * w_prev)
        z.append((1.0 - part) * beta * w_prev)
        w_prev = w[-1]
    return TimeRates(w0=1.0, w=tuple(w), z=tuple(z)), draw(st.floats(1.0, 100.0))


class TestSolveOptimalProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chained_rates())
    def test_matches_exact_shares(self, system):
        rates, load = system
        closed = solve_optimal(rates, load)
        shares, t_star = exact_solve(rates, load)
        assert closed.t_star == pytest.approx(t_star, rel=1e-9)
        np.testing.assert_allclose(closed.alpha, shares, rtol=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chained_rates())
    def test_shares_are_accurate_to_1e_14(self, system):
        rates, load = system
        np.testing.assert_allclose(solve_optimal(rates, load).alpha, exact_solve(rates, load)[0], rtol=1e-14, atol=0.0)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(wide_rates())
    def test_answers_within_rounding_or_refuses(self, rates):
        try:
            closed = solve_optimal(rates, 1.0)
        except NumericError:
            return
        shares, t_star = exact_solve(rates, 1.0)
        assert closed.t_star == pytest.approx(t_star, rel=1e-14)
        assert_within_rounding(closed.alpha, shares)


def ladder(exponents, w0):
    """Rates whose compute rates step by powers of two, w_i = w0 * 2**e_i,
    with z_i = w_i / 8, so each beta is 9/16 or 9/4 and the share divisions
    round."""
    w = tuple(math.ldexp(w0, e) for e in exponents)
    return TimeRates(w0=w0, w=w, z=tuple(x / 8 for x in w))


class TestRescaledChain:
    """Long chains of rounding steps across the double range: each spans
    about 2**1000 between its largest and smallest share, and every step
    rounds the same way."""

    @pytest.mark.parametrize(
        "rates",
        [
            pytest.param(ladder(range(-1, -1201, -1), 2.0**600), id="rising"),
            pytest.param(ladder(range(1, 851), 2.0**-425), id="falling"),
            pytest.param(ladder([*range(-1, -1161, -1), *range(-1159, -329)], 2.0**600), id="rising-then-falling"),
            pytest.param(ladder([*range(1, 851), *range(849, -351, -1)], 2.0**-425), id="falling-then-rising"),
        ],
    )
    def test_matches_exact_shares(self, rates):
        closed = solve_optimal(rates, 3.0)
        shares, t_star = exact_solve(rates, 3.0)
        np.testing.assert_allclose(closed.alpha, shares, rtol=1e-14, atol=0.0)
        assert closed.t_star == pytest.approx(t_star, rel=1e-14)


class TestSimulateTimeline:
    def test_optimal_allocation_finishes_simultaneously(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rates, load = random_rates(rng)
            alloc = solve_optimal(rates, load)
            profile = simulate_timeline(rates, alloc.alpha, load)
            finishes = np.array(profile.compute_finish)
            assert np.max(np.abs(finishes - alloc.t_star)) / alloc.t_star <= 1e-9

    def test_root_only_allocation(self):
        rates = TimeRates(w0=3.0, w=(1.0, 1.0), z=(1.0, 1.0))
        profile = simulate_timeline(rates, [1.0, 0.0, 0.0], 2.0)
        assert profile.compute_finish[0] == 6.0
        assert profile.comm_finish == (0.0, 0.0)
        assert profile.compute_finish[1:] == (0.0, 0.0)

    def test_hand_computed_homogeneous(self):
        rates = TimeRates(w0=1.0, w=(1.0, 1.0), z=(1.0, 1.0))
        profile = simulate_timeline(rates, [4 / 7, 2 / 7, 1 / 7], 1.0)
        np.testing.assert_allclose(profile.comm_finish, [2 / 7, 3 / 7], rtol=1e-12)
        np.testing.assert_allclose(profile.compute_finish, [4 / 7] * 3, rtol=1e-12)

    def test_comm_finish_is_nondecreasing(self):
        rng = np.random.default_rng(13)
        rates, load = random_rates(rng)
        alloc = solve_optimal(rates, load)
        profile = simulate_timeline(rates, alloc.alpha, load)
        assert list(profile.comm_finish) == sorted(profile.comm_finish)

    def test_rejects_length_mismatch(self):
        rates = TimeRates(w0=1.0, w=(1.0, 1.0), z=(1.0, 1.0))
        with pytest.raises(InvalidInputError):
            simulate_timeline(rates, [0.5, 0.5], 1.0)

    @pytest.mark.parametrize(
        "alpha, load_gb",
        [
            ([math.nan, 0.5], 1.0),
            ([1.5, -0.5], 1.0),
            ([math.inf, 0.0], 1.0),
            ([0.5, 0.5], 0.0),
            ([0.5, 0.5], -2.0),
            ([0.5, 0.5], math.nan),
            ([0.5, 0.5], math.inf),
        ],
        ids=["nan-fraction", "negative-fraction", "infinite-fraction", "zero-load", "negative-load", "nan-load", "infinite-load"],
    )
    def test_rejects_impossible_fractions_and_loads(self, alpha, load_gb):
        with pytest.raises(InvalidInputError, match="fraction|load"):
            simulate_timeline(TimeRates(w0=1.0, w=(1.0,), z=(0.5,)), alpha, load_gb)


class TestOracleSolve:
    def test_symmetric_free_link(self):
        alloc = oracle_solve(TimeRates(w0=1.0, w=(1.0,), z=(0.0,)), 1.0)
        np.testing.assert_allclose(alloc.alpha, [0.5, 0.5], rtol=1e-12)

    def test_homogeneous_3x3_system(self):
        alloc = oracle_solve(TimeRates(w0=1.0, w=(1.0, 1.0), z=(1.0, 1.0)), 1.0)
        np.testing.assert_allclose(alloc.alpha, [4 / 7, 2 / 7, 1 / 7], rtol=1e-12)

    def test_matches_exact_solve(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rates, load = random_rates(rng)
            linear = oracle_solve(rates, load)
            shares, t_star = exact_solve(rates, load)
            assert linear.t_star == pytest.approx(t_star, rel=1e-9)
            np.testing.assert_allclose(linear.alpha, shares, rtol=1e-9)

    def test_small_shares_are_accurate_in_absolute_terms_only(self):
        # The chain of the docstring: betas fall below 1 along it, and
        # Gaussian elimination misses its smallest shares by about 1.2e-9 of
        # themselves, where the product chain misses by about 1e-16.
        rates = TimeRates(w0=1.0, w=(0.5, 0.0078125, 1.22e-4, 1.43e-6, 4.47e-8, 4.47e-8), z=(0.0,) * 6)
        shares = exact_solve(rates, 1.0)[0]
        np.testing.assert_allclose(solve_optimal(rates, 1.0).alpha, shares, rtol=1e-14, atol=0.0)
        linear = oracle_solve(rates, 1.0).alpha
        np.testing.assert_allclose(linear, shares, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(linear, shares, rtol=0.0, atol=1e-15)


@st.composite
def default_box_systems(draw):
    """A system from the default sampling box."""
    ranges = SamplerRanges()
    n = draw(st.integers(*ranges.n_range))
    speeds = draw(st.lists(st.floats(*ranges.speed_range), min_size=n + 1, max_size=n + 1))
    bandwidths = draw(st.lists(st.floats(*ranges.bandwidth_range), min_size=n, max_size=n))
    return SltnConfig(n, speeds[0], tuple(speeds[1:]), tuple(bandwidths), draw(st.floats(*ranges.load_range)))


class TestInvariants:
    def test_conservation_and_positivity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            rates, load = random_rates(rng)
            alloc = solve_optimal(rates, load)
            assert abs(math.fsum(alloc.alpha) - 1.0) <= 1e-12
            assert all(a > 0 for a in alloc.alpha)

    def test_appending_child_strictly_helps(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            rates, load = random_rates(rng)
            extended = TimeRates(
                w0=rates.w0,
                w=(*rates.w, float(rng.uniform(100 / 15, 100))),
                z=(*rates.z, float(rng.uniform(1000 / 150, 100))),
            )
            assert solve_optimal(extended, load).t_star < solve_optimal(rates, load).t_star

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(default_box_systems(), st.floats(1e-3, 1e3), st.floats(1e-3, 1e6))
    def test_scaling_every_rate_divides_the_makespan(self, config, k, intensity):
        # Every w and z is divided by k, so every finish time is too and the
        # equal-finish shares stay put.
        scaled = SltnConfig(
            config.n,
            config.root_speed * k,
            tuple(s * k for s in config.child_speeds),
            tuple(b * k for b in config.link_bandwidths),
            config.load_gb,
        )
        base = solve_optimal(to_time_rates(config, intensity), config.load_gb)
        fast = solve_optimal(to_time_rates(scaled, intensity), config.load_gb)
        assert fast.t_star == pytest.approx(base.t_star / k, rel=1e-12)
        np.testing.assert_allclose(fast.alpha, base.alpha, rtol=1e-12)
