import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dltsched import solver
from dltsched.datagen import SamplerRanges
from dltsched.errors import InvalidInputError, NumericError
from dltsched.solver import (
    LoadAllocation,
    SltnConfig,
    TimeRates,
    beta_coefficients,
    oracle_solve,
    simulate_timeline,
    solve_optimal,
    to_time_rates,
)

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
        # A NaN second share makes the sum NaN, which the sum check lets
        # through, so the first share's own check decides.
        with pytest.raises(NumericError, match=re.escape(f"load fraction {value!r} outside (0, 1)")):
            LoadAllocation(alpha=(value, math.nan), t_star_norm=1.0, t_star=1.0)


class TestBetaCoefficients:
    def test_free_link(self):
        assert beta_coefficients(TimeRates(w0=1.0, w=(1.0,), z=(0.0,))) == [1.0]

    def test_homogeneous(self):
        assert beta_coefficients(TimeRates(w0=1.0, w=(1.0, 1.0), z=(1.0, 1.0))) == [2.0, 2.0]

    def test_hand_evaluated_chain(self):
        # beta_1 = (1+4)/2, beta_2 = (2+8)/4
        rates = TimeRates(w0=2.0, w=(4.0, 8.0), z=(1.0, 2.0))
        assert beta_coefficients(rates) == [2.5, 2.5]


class TestSolveOptimal:
    def test_free_link_splits_evenly(self):
        alloc = solve_optimal(TimeRates(w0=1.0, w=(1.0,), z=(0.0,)), 1.0)
        np.testing.assert_allclose(alloc.alpha, [0.5, 0.5], rtol=1e-12)
        assert alloc.t_star == pytest.approx(0.5, rel=1e-12)

    def test_homogeneous_n2(self):
        alloc = solve_optimal(TimeRates(w0=1.0, w=(1.0, 1.0), z=(1.0, 1.0)), 1.0)
        np.testing.assert_allclose(alloc.alpha, [4 / 7, 2 / 7, 1 / 7], rtol=1e-12)
        assert alloc.t_star == pytest.approx(4 / 7, rel=1e-12)

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

    def test_large_n_matches_oracle(self):
        rng = np.random.default_rng(11)
        rates, load = random_rates(rng, n=18)
        closed = solve_optimal(rates, load)
        linear = oracle_solve(rates, load)
        np.testing.assert_allclose(closed.alpha, linear.alpha, rtol=1e-9)

    def test_share_near_double_underflow_is_returned(self):
        # The last share is near 1e-310 of the root's, past the running
        # share's lower bound of 2**-960, so it is reached through a rescale.
        rates = TimeRates(w0=1.0, w=(1.0, 1.0, 1.0), z=(0.0, 1e155, 1e155))
        closed = solve_optimal(rates, 1.0)
        assert 0 < closed.alpha[3] < 1e-308
        np.testing.assert_allclose(closed.alpha, oracle_solve(rates, 1.0).alpha, rtol=1e-9)

    def test_beta_outside_double_range_raises_numeric_error(self):
        # beta_1 = 1e-200 / 1e200 underflows to zero.
        with pytest.raises(NumericError):
            solve_optimal(TimeRates(w0=1e200, w=(1e-200,), z=(0.0,)), 1.0)

    def test_extreme_rate_spread_raises_numeric_error(self):
        from dltsched.errors import NumericError

        # Link rates 18 orders above compute rates underflow the tail shares.
        rates = TimeRates(w0=1.0, w=(1.0,) * 20, z=(1e18,) * 20)
        with pytest.raises(NumericError):
            solve_optimal(rates, 1.0)


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


def exact_shares(rates):
    """Optimal shares in rational arithmetic, straight from the finish-time
    equalities alpha_i (z_i + w_i) = alpha_{i-1} w_{i-1} and conservation."""
    shares = [Fraction(1)]
    w_prev = Fraction(rates.w0)
    for w, z in zip(rates.w, rates.z):
        shares.append(shares[-1] * w_prev / (Fraction(z) + Fraction(w)))
        w_prev = Fraction(w)
    total = sum(shares)
    return [s / total for s in shares]


class TestSolveOptimalProperty:
    # Compared with exact arithmetic, not oracle_solve: Gaussian elimination
    # loses relative accuracy on the smallest shares when betas fall below 1
    # along a long chain (1.2e-9 at n=6 with betas near 0.016).
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chained_rates())
    def test_matches_exact_shares(self, system):
        rates, load = system
        closed = solve_optimal(rates, load)
        shares = exact_shares(rates)
        assert closed.t_star == pytest.approx(float(shares[0] * Fraction(rates.w0) * Fraction(load)), rel=1e-9)
        np.testing.assert_allclose(closed.alpha, [float(s) for s in shares], rtol=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chained_rates())
    def test_shares_are_accurate_to_1e_14(self, system):
        rates, load = system
        shares = [float(s) for s in exact_shares(rates)]
        np.testing.assert_allclose(solve_optimal(rates, load).alpha, shares, rtol=1e-14, atol=0.0)


def ladder(exponents, w0):
    """Rates whose compute rates step by powers of two, w_i = w0 * 2**e_i,
    with z_i = w_i / 8, so each beta is 9/16 or 9/4 and the share divisions
    round."""
    w = tuple(math.ldexp(w0, e) for e in exponents)
    return TimeRates(w0=w0, w=w, z=tuple(x / 8 for x in w))


class TestRescaledChain:
    """Chains whose running share passes 2**960 or 2**-960, so every share
    so far is rescaled by a power of two, some of them in both directions.
    Each spans about 2**1000 between its largest and smallest share."""

    @pytest.mark.parametrize(
        "rates, rescales",
        [
            pytest.param(ladder(range(-1, -1201, -1), 2.0**600), 1, id="rising"),
            pytest.param(ladder(range(1, 851), 2.0**-425), 1, id="falling"),
            pytest.param(ladder([*range(-1, -1161, -1), *range(-1159, -329)], 2.0**600), 2, id="rising-then-falling"),
            pytest.param(ladder([*range(1, 851), *range(849, -351, -1)], 2.0**-425), 2, id="falling-then-rising"),
        ],
    )
    def test_matches_exact_shares(self, monkeypatch, rates, rescales):
        calls = []
        rescale = solver._rescale
        monkeypatch.setattr(solver, "_rescale", lambda *args: calls.append(args) or rescale(*args))
        closed = solve_optimal(rates, 3.0)
        shares = exact_shares(rates)
        assert len(calls) >= rescales
        np.testing.assert_allclose(closed.alpha, [float(s) for s in shares], rtol=1e-14, atol=0.0)
        assert closed.t_star == pytest.approx(float(shares[0] * Fraction(rates.w0) * 3), rel=1e-14)


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

    def test_equivalent_to_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rates, load = random_rates(rng)
            closed = solve_optimal(rates, load)
            linear = oracle_solve(rates, load)
            assert closed.t_star == pytest.approx(linear.t_star, rel=1e-9)
            np.testing.assert_allclose(closed.alpha, linear.alpha, rtol=1e-9)


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
            assert oracle_solve(extended, load).t_star < oracle_solve(rates, load).t_star

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
