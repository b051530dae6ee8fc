"""Closed-form key rate, Gaussian MI reference and the numerical helpers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamkey.allocation import allocate_bs_beams, allocate_ut_beams, build_matrices
from beamkey.channel import (
    PathSet,
    beam_covariance_factor,
    beam_covariances,
    grid_sines,
    sample_paths,
)
from beamkey.keyrate import (
    NumericalConsistencyError,
    ObservationCovariances,
    RateInputs,
    SingularNoiseFreeRateError,
    _finalize_rate,
    assemble_observation_covariances,
    build_v_matrices,
    full_sampling_rate,
    gaussian_mi_oracle,
    hermitian_logdet,
    pilot_overhead,
    psd_eigh,
    rate_factors,
    secret_key_rate,
    unit_skr,
)
from beamkey.experiments import Scenario, ScenarioConfig
from reference_rates import (
    SWEEP_SNR_DB,
    mp_gaussian_mi_bits,
    psd_sqrt,
    runner_draw,
    sweep_draws,
)


def random_psd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b.conj().T @ b


def full_inputs(factor, m, n_ut):
    """Complete-grid probing of a single user."""
    return RateInputs([factor], build_matrices([np.arange(m)], [np.arange(n_ut)], m, [n_ut]))


class TestPsdSqrt:
    """`reference_rates.psd_sqrt`, the dense route's factor."""

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]),
                                   atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = random_psd(rng, 8)
            q = psd_sqrt(s)
            assert np.linalg.norm(q.conj().T @ q - s) <= 1e-9 * np.linalg.norm(s)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestHermitianLogdet:
    def test_matches_slogdet(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = random_psd(rng, 6) + np.eye(6)
            assert hermitian_logdet(s) == pytest.approx(np.linalg.slogdet(s)[1], rel=1e-10)

    def test_singular_raises(self):
        with pytest.raises(NumericalConsistencyError):
            hermitian_logdet(np.zeros((3, 3)))

    def test_failed_factorization_is_not_regularized(self):
        # Slightly indefinite with a positive trace: diagonal jitter of
        # 1e-12 * trace would make it factorizable and return a number.
        with pytest.raises(NumericalConsistencyError, match="not numerically positive definite"):
            hermitian_logdet(np.diag([1.0, -1e-14]))


class TestGaussianMiOracle:
    def test_scalar_closed_form(self):
        for rho in (0.1, 0.5, 0.9):
            cov = ObservationCovariances(
                np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]), np.array([[rho + 0j]])
            )
            assert gaussian_mi_oracle(cov) == pytest.approx(-math.log2(1 - rho ** 2))

    def test_independent_blocks_give_zero(self):
        rng = np.random.default_rng(2)
        r1 = random_psd(rng, 4) + np.eye(4)
        r2 = random_psd(rng, 4) + np.eye(4)
        cov = ObservationCovariances(r1, r2, np.zeros((4, 4), dtype=complex))
        assert gaussian_mi_oracle(cov) == pytest.approx(0.0, abs=1e-9)

    def test_singular_block_rejected(self):
        cov = ObservationCovariances(
            np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex),
            np.zeros((2, 2), dtype=complex),
        )
        with pytest.raises(NumericalConsistencyError):
            gaussian_mi_oracle(cov)

    def test_inconsistent_joint_fails_factorization(self):
        # Cross-covariance larger than the diagonal blocks allow: the joint
        # block matrix is indefinite and cannot be factorized.
        cov = ObservationCovariances(
            np.eye(2, dtype=complex), np.eye(2, dtype=complex),
            1.5 * np.eye(2, dtype=complex),
        )
        with pytest.raises(NumericalConsistencyError):
            gaussian_mi_oracle(cov)


class TestFinalizeRate:
    def test_clips_round_off(self):
        assert _finalize_rate(-1e-12) == 0.0

    def test_flags_large_negative(self):
        with pytest.raises(NumericalConsistencyError):
            _finalize_rate(-1e-6)


class TestBuildVMatrices:
    def test_zero_covariance_gives_zero_factors(self):
        inputs = full_inputs(np.zeros((32, 2), dtype=complex), 8, 4)
        v_k, v_kks = build_v_matrices(inputs, 0)
        assert np.all(v_k == 0) and np.all(v_kks[0] == 0)
        assert secret_key_rate(inputs, 0, 0.5) == 0.0
        assert gaussian_mi_oracle(assemble_observation_covariances(inputs, 0, 0.5)) == (
            pytest.approx(0.0, abs=1e-12))

    def test_aligned_on_grid_path_has_unit_factor_norm(self):
        # One unit-power path exactly on the selected transmit/receive beams:
        # the factor matrix keeps exactly that unit of power.
        m, n_ut = 8, 4
        paths = PathSet(
            gains=[1.0],
            aoa=[np.arcsin(grid_sines(n_ut)[2])],
            aod=[np.arcsin(grid_sines(m)[5])],
            powers=[1.0],
        )
        factor, _, _ = beam_covariance_factor(paths, m, n_ut)
        inputs = RateInputs([factor], build_matrices([[5]], [[2]], m, [n_ut]))
        v_k, _ = build_v_matrices(inputs, 0)
        assert np.linalg.norm(v_k) == pytest.approx(1.0, abs=1e-10)

    def test_disjoint_on_grid_cross_factors_vanish(self):
        rng = np.random.default_rng(3)
        m, n_ut, n_p = 16, 4, 2
        bs_idx = rng.permutation(m)[: 2 * n_p].reshape(2, n_p)
        paths = []
        for k in range(2):
            ut_idx = rng.choice(n_ut, size=n_p, replace=False)
            paths.append(PathSet(
                gains=np.full(n_p, np.sqrt(1 / n_p)),
                aoa=np.arcsin(grid_sines(n_ut)[ut_idx]),
                aod=np.arcsin(grid_sines(m)[bs_idx[k]]),
                powers=np.full(n_p, 1 / n_p),
            ))
        scenario = Scenario.from_paths(paths, m, [n_ut] * 2)
        inputs = RateInputs(scenario.factors, scenario.allocate(n_p, 2))
        _, v_kks = build_v_matrices(inputs, 0)
        assert np.max(np.abs(v_kks[1])) < 1e-10


def scenario_inputs(rng, m, ut_counts, n_p, m_e, n_e):
    """Random off-grid users with the given antenna counts, allocated as the runners do."""
    scenario = Scenario.draw(rng, n_p, m, ut_counts)
    return RateInputs(scenario.factors, scenario.allocate(m_e, n_e))


def kron_v_matrices(inputs, k):
    """V_k and every V_kk' through dense 0/1 selectors and kron, built from the
    beam indices: V_k = (kron(S_sum^T, C_k^H) F_k)^H, V_kk' = (kron(S_k^T, C_k'^H) F_k')^H."""
    alloc = inputs.allocation
    sel_bs = [np.eye(alloc.bs_antennas)[:, b] for b in alloc.bs_beams]
    sel_ut = [np.eye(n)[:, u] for n, u in zip(alloc.ut_counts, alloc.ut_beams)]
    f = inputs.lambda_factors
    v_k = (np.kron(sum(sel_bs).T, sel_ut[k].conj().T) @ f[k]).conj().T
    v_kks = [(np.kron(sel_bs[k].T, c.conj().T) @ f_kp).conj().T
             for c, f_kp in zip(sel_ut, f)]
    return v_k, v_kks


class TestIndexRoute:
    """build_v_matrices slices the reshaped factors by beam index; the dense
    selector-and-kron products are the reference."""

    @pytest.mark.parametrize("m, ut_counts, n_p, m_e, n_e", [
        (8, [4], 3, 2, 2),
        (8, [2, 4], 2, 2, 2),
        (8, [4, 2, 3], 3, 2, 2),
        (16, [4], 3, 4, 3),
        (16, [2, 4], 3, 3, 2),
        (16, [4, 4, 2], 2, 3, 2),
        (128, [4] * 6, 6, 6, 4),  # the reference scenario
    ])
    def test_matches_kron_reference(self, m, ut_counts, n_p, m_e, n_e):
        rng = np.random.default_rng(m + 10 * len(ut_counts) + n_p)
        inputs = scenario_inputs(rng, m, ut_counts, n_p, m_e, n_e)
        for k in range(inputs.n_users):
            v_k, v_kks = build_v_matrices(inputs, k)
            ref_k, ref_kks = kron_v_matrices(inputs, k)
            assert v_k.shape == ref_k.shape
            assert np.max(np.abs(v_k - ref_k)) <= 1e-14
            assert len(v_kks) == len(ref_kks)
            for v, ref in zip(v_kks, ref_kks):
                assert v.shape == ref.shape
                assert np.max(np.abs(v - ref)) <= 1e-14

    def setup_method(self):
        self.inputs = scenario_inputs(np.random.default_rng(15), 16, [4, 2], 2, 2, 2)
        self.alloc = self.inputs.allocation

    def test_wrong_factor_rows_rejected(self):
        factors = [self.inputs.lambda_factors[0], self.inputs.lambda_factors[0]]
        with pytest.raises(ValueError, match=r"lambda_factors\[1\] must be a matrix with 32 rows"):
            RateInputs(factors, self.alloc)

    def test_factor_count_must_match_users(self):
        with pytest.raises(ValueError, match="one covariance factor per allocated user"):
            RateInputs(self.inputs.lambda_factors[:1], self.alloc)

    @pytest.mark.parametrize("field, beams", [
        ("bs_beams", [5, 16]), ("bs_beams", [5, -1]), ("ut_beams", [0, 2]), ("ut_beams", [0, -1]),
    ])
    def test_out_of_range_index_rejected(self, field, beams):
        # User 1 has 16 transmit and 2 receive beams; a negative index would
        # otherwise wrap around silently.  The allocation rejects it as it
        # is built, so no rate input can hold it.
        message = {"bs_beams": "transmit beam index out of range",
                   "ut_beams": "invalid receive beam indices"}[field]
        with pytest.raises(ValueError, match=f"{message} for user 1"):
            replace(self.alloc, **{field: [getattr(self.alloc, field)[0], np.array(beams)]})

    @pytest.mark.parametrize("m, ut_counts, n_p, m_e, n_e", [
        (16, [4, 2, 3], 3, 2, 2),
        (128, [4] * 6, 6, 6, 4),  # the reference scenario
    ])
    def test_v_matrices_are_the_blocks(self, m, ut_counts, n_p, m_e, n_e):
        # V_kk' = blocks[k][k']^H and V_k = (sum_k'' blocks[k''][k])^H, bit
        # for bit, with the table cut once per rate inputs.
        inputs = scenario_inputs(np.random.default_rng(m + n_p), m, ut_counts, n_p, m_e, n_e)
        blocks = inputs.blocks
        assert inputs.blocks is blocks
        assert [len(row) for row in blocks] == [inputs.n_users] * inputs.n_users
        for k in range(inputs.n_users):
            v_k, v_kks = build_v_matrices(inputs, k)
            total = blocks[0][k]
            for row in blocks[1:]:
                total = total + row[k]
            assert np.array_equal(v_k, total.conj().T)
            for v, block in zip(v_kks, blocks[k]):
                assert block.shape == (m_e * n_e, n_p)
                assert np.array_equal(v, block.conj().T)


class TestSecretKeyRate:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(40):
            n_users = int(rng.integers(1, 4))
            sizes = [int(rng.choice([8, 16])), [2] * n_users, int(rng.integers(1, 4)),
                     int(rng.integers(1, 3)), int(rng.integers(1, 3))]
            noise = float(rng.choice([0.01, 0.1, 1.0]))
            inputs = scenario_inputs(rng, *sizes)
            for k in range(n_users):
                closed = secret_key_rate(inputs, k, noise)
                oracle = gaussian_mi_oracle(assemble_observation_covariances(inputs, k, noise))
                worst = max(worst, abs(closed - oracle) / max(oracle, 1e-12))
        assert worst <= 1e-8

    def test_monotone_decreasing_in_noise(self):
        rng = np.random.default_rng(5)
        inputs = scenario_inputs(rng, 16, [2, 2], 2, 2, 2)
        rates = [secret_key_rate(inputs, 0, s2) for s2 in (1.0, 10.0, 100.0, 1000.0)]
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 1e-9
        sweep = [secret_key_rate(inputs, 0, s2) for s2 in np.logspace(-2, 2, 10)]
        assert np.max(np.diff(sweep)) <= 1e-9

    def test_negative_noise_rejected(self):
        rng = np.random.default_rng(6)
        inputs = scenario_inputs(rng, 8, [2], 2, 2, 2)
        with pytest.raises(ValueError):
            secret_key_rate(inputs, 0, -1.0)

    def test_noise_free_rank_deficient_rejected(self):
        # A single path probed through two beams leaves the observation
        # covariances rank one; without noise the inverses do not exist.
        m, n_ut = 8, 4
        paths = PathSet(
            gains=[1.0],
            aoa=[np.arcsin(grid_sines(n_ut)[1])],
            aod=[np.arcsin(grid_sines(m)[2])],
            powers=[1.0],
        )
        factor, _, _ = beam_covariance_factor(paths, m, n_ut)
        inputs = RateInputs([factor], build_matrices([[2, 3]], [[1, 0]], m, [n_ut]))
        with pytest.raises(SingularNoiseFreeRateError):
            secret_key_rate(inputs, 0, 0.0)


def factor_and_dense_inputs(rng, n_users, m, n_ut, n_p, m_e, n_e):
    """One random scenario as rate inputs twice: with each user's rank-P path
    factor, and with psd_sqrt of the dense covariance as the factor."""
    paths = [sample_paths(n_p, rng) for _ in range(n_users)]
    covs = [beam_covariances(p, m, n_ut) for p in paths]
    bs_sets = allocate_bs_beams([np.real(np.diag(c.r_bs)) for c in covs], m_e)
    ut_sets = [allocate_ut_beams(np.real(np.diag(c.r_ut)), n_e) for c in covs]
    alloc = build_matrices(bs_sets, ut_sets, m, [n_ut] * n_users)
    factored = RateInputs([beam_covariance_factor(p, m, n_ut)[0] for p in paths], alloc)
    dense = replace(factored, lambda_factors=[psd_sqrt(c.lambda_full) for c in covs])
    return factored, dense, covs


class TestFactorMatchesDense:
    """The rank-P factor route against the dense square-root route."""

    def assert_routes_agree(self, factored, dense, covs, noise):
        for k in range(factored.n_users):
            assert secret_key_rate(factored, k, noise) == pytest.approx(
                secret_key_rate(dense, k, noise), rel=1e-10)
            for s2 in (0.01, 1.0, 10.0):
                assert rate_factors(factored.blocks).rate(s2)[k] == pytest.approx(
                    rate_factors(dense.blocks).rate(s2)[k], rel=1e-10)
            f = factored.lambda_factors[k]
            lam = covs[k].lambda_full
            gram_eigs = psd_eigh(f.conj().T @ f)[0]
            dense_eigs = psd_eigh(lam)[0]
            nonzero = dense_eigs[dense_eigs > 0]
            assert nonzero.size == gram_eigs.size
            np.testing.assert_allclose(gram_eigs, nonzero, rtol=0,
                                       atol=1e-12 * np.trace(lam).real)

    def test_random_small_scenarios(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n_users = int(rng.integers(1, 4))
            m = int(rng.choice([8, 16]))
            sizes = [n_users, m, int(rng.choice([2, 4])), int(rng.integers(1, 4)),
                     int(rng.integers(1, m // (2 * n_users) + 1)), int(rng.integers(1, 3))]
            noise = float(rng.choice([0.01, 0.1, 1.0]))
            self.assert_routes_agree(*factor_and_dense_inputs(rng, *sizes), noise)

    def test_reference_size_user(self):
        # M = 128, N = 4, P = 6: the dense covariance is 512 x 512.
        rng = np.random.default_rng(14)
        self.assert_routes_agree(*factor_and_dense_inputs(rng, 1, 128, 4, 6, 6, 4), 0.1)


HIGH_SNR_DB = np.array([30.0, 60.0, 100.0, 150.0, 200.0])


class TestRateEngine:
    """`rate_factors(...).rate`: exact at every SNR, batched over the grid."""

    @pytest.mark.parametrize("config, users", [
        (ScenarioConfig(bs_antennas=32, users=1), [0]),
        # The reference scenario; users 0 and 3 see interference.
        (ScenarioConfig(), [0, 3]),
    ], ids=["single_user_m32", "reference_six_users"])
    def test_matches_80_digit_gaussian_mi(self, config, users):
        # At 200 dB, user 0 of this draw reads 98.53 bits; the Cholesky
        # oracle with diagonal jitter used to report 77.5.
        inputs = runner_draw(config, np.random.default_rng(5), m_e=6)
        noise = 10.0 ** (-HIGH_SNR_DB / 10.0)
        fast = rate_factors(inputs.blocks).rate(noise)
        for k in users:
            v_k, v_kks = build_v_matrices(inputs, k)
            exact = mp_gaussian_mi_bits(v_k, v_kks, k, noise)
            np.testing.assert_allclose(fast[:, k], exact, rtol=1e-12, atol=0)
        if inputs.n_users == 6:
            assert rate_factors(inputs.blocks).rate(1e-20)[0] == pytest.approx(98.5279, abs=1e-4)

    @pytest.mark.parametrize("m_e, n_e", [(4, 1), (1, 4), (1, 1)])
    def test_rank_deficient_single_user_matches_80_digit_gaussian_mi(self, m_e, n_e):
        # Fewer measurements than paths (m_e * n_e < P = 6): the information
        # matrices are singular, and used to fail to factorize at high SNR.
        inputs = scenario_inputs(np.random.default_rng(0), 128, [4], 6, m_e, n_e)
        noise = 10.0 ** (-HIGH_SNR_DB / 10.0)
        v_k, v_kks = build_v_matrices(inputs, 0)
        np.testing.assert_allclose(rate_factors(inputs.blocks).rate(noise)[:, 0],
                                   mp_gaussian_mi_bits(v_k, v_kks, 0, noise), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("make_inputs", [
        lambda: runner_draw(ScenarioConfig(bs_antennas=32, users=1), np.random.default_rng(5),
                            m_e=6),
        lambda: runner_draw(ScenarioConfig(bs_antennas=32, users=1), np.random.default_rng(5),
                            m_e=4),
        lambda: runner_draw(ScenarioConfig(bs_antennas=32, users=1, n_paths=4,
                                           angle_mode="on_grid"),
                            np.random.default_rng(5), m_e=6),
        # Fewer measurements than paths: m_e * n_e = 4 < P = 6.
        lambda: scenario_inputs(np.random.default_rng(0), 128, [4], 6, 1, 4),
    ], ids=["m_e_6", "m_e_4", "on_grid", "rank_deficient"])
    def test_single_user_matches_80_digit_gaussian_mi_from_minus_60_to_200_db(
            self, make_inputs):
        # One user's rate is the complete-grid sum over V_k's squared
        # singular values.  The three log-determinants of the graded route,
        # each O(1/sigma^2), cancelled to an O(1/sigma^4) rate: they missed
        # by 1.5e-3, 5.8e-3, 9.4e-4 and 7.8e-3 at -60 dB on these draws.
        inputs = make_inputs()
        noise = 10.0 ** (-np.arange(-60.0, 201.0, 10.0) / 10.0)
        v_k, v_kks = build_v_matrices(inputs, 0)
        np.testing.assert_allclose(rate_factors(inputs.blocks).rate(noise)[:, 0],
                                   mp_gaussian_mi_bits(v_k, v_kks, 0, noise), rtol=1e-12, atol=0)

    def test_batched_grid_equals_single_points(self):
        inputs = runner_draw(ScenarioConfig(), np.random.default_rng(5), m_e=6)
        noise = 10.0 ** (-np.linspace(-10.0, 200.0, 43) / 10.0)
        factors = rate_factors(inputs.blocks)
        batched = factors.rate(noise)
        singles = np.array([factors.rate(s2) for s2 in noise])
        assert batched.shape == singles.shape == (noise.size, 6)
        np.testing.assert_allclose(batched, singles, rtol=1e-14, atol=0)

    def test_secret_key_rate_is_the_engine_at_one_point(self):
        rng = np.random.default_rng(16)
        inputs = scenario_inputs(rng, 16, [2, 2, 2], 3, 2, 2)
        for k in range(3):
            assert secret_key_rate(inputs, k, 0.05) == rate_factors(inputs.blocks).rate(0.05)[k]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(1, 3),
           m=st.sampled_from([8, 16]), n_paths=st.integers(1, 3),
           m_e=st.integers(1, 2), n_e=st.integers(1, 2),
           exponents=st.lists(st.floats(-20.0, 2.0), min_size=2, max_size=8))
    def test_rate_grows_as_noise_falls_and_stays_below_complete_probing(
            self, seed, n_users, m, n_paths, m_e, n_e, exponents):
        # Round-off slack, relative: 1e-9.
        rng = np.random.default_rng(seed)
        inputs = scenario_inputs(rng, m, [2] * n_users, n_paths, m_e, n_e)
        noise = np.sort(10.0 ** np.array(exponents))[::-1]
        rates = rate_factors(inputs.blocks).rate(noise)
        assert rates.shape == (noise.size, n_users)
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0)
        assert np.all(rates[1:] >= rates[:-1] - 1e-9 * rates[1:])
        if n_users == 1:
            f = inputs.lambda_factors[0]
            perfect = full_sampling_rate(psd_eigh(f.conj().T @ f)[0], noise)
            assert np.all(rates[:, 0] <= perfect * (1 + 1e-9))

    def test_noise_free_multiuser_rejected(self):
        inputs = scenario_inputs(np.random.default_rng(17), 16, [2, 2], 2, 2, 2)
        factors = rate_factors(inputs.blocks)
        with pytest.raises(SingularNoiseFreeRateError):
            factors.rate(0.0)
        with pytest.raises(SingularNoiseFreeRateError):
            factors.rate(np.array([0.1, 0.0]))

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf, [0.1, -1.0], [[0.1]]],
                             ids=["negative", "nan", "inf", "negative_in_array", "2d"])
    def test_bad_noise_powers_rejected(self, noise):
        factors = rate_factors(
            scenario_inputs(np.random.default_rng(18), 8, [2], 2, 2, 2).blocks)
        with pytest.raises(ValueError):
            factors.rate(noise)


def claimed_snr_db(n_users, on_grid):
    """The SNRs of the sweep grid at which the keyrate docstring claims a
    draw's rates exact: every one for a lone user, from 0 dB up for two or
    more users off grid, and none for two or more users on grid."""
    if n_users == 1:
        return SWEEP_SNR_DB
    if on_grid:
        return SWEEP_SNR_DB[:0]
    return SWEEP_SNR_DB[SWEEP_SNR_DB >= 0.0]


class TestAccuracySweep:
    """The keyrate docstring's accuracy claim as one seeded differential
    sweep: the engine against the 80-digit Gaussian MI over `sweep_draws`,
    wherever the claim holds."""

    def test_draws_cover_the_rule(self):
        # (U, N_k, d = m_e * n_e, P, on_grid) of each draw.
        draws = [(x.n_users, x.allocation.ut_counts, *x.blocks.shape[2:], on_grid)
                 for x, on_grid in sweep_draws()]
        assert {u for u, *_ in draws} == {1, 2, 3, 4}
        assert {on_grid for *_, on_grid in draws} == {False, True}
        assert any(len(set(n_k)) > 1 for _, n_k, *_ in draws)
        assert any(d < p for _, _, d, p, _ in draws)
        assert any(u >= 2 and d <= 3 and not on_grid for u, _, d, _, on_grid in draws)

    def test_engine_matches_80_digit_gaussian_mi_where_claimed(self):
        # Within 1e-12 relative or 1e-12 bits absolute: a user whose V_k is
        # round-off has a true rate of about 1e-25 bits.
        misses = []
        for i, (inputs, on_grid) in enumerate(sweep_draws()):
            snr_db = claimed_snr_db(inputs.n_users, on_grid)
            if not snr_db.size:
                continue
            noise = 10.0 ** (-snr_db / 10.0)
            fast = rate_factors(inputs.blocks).rate(noise)
            for k in range(inputs.n_users):
                v_k, v_kks = build_v_matrices(inputs, k)
                exact = mp_gaussian_mi_bits(v_k, v_kks, k, noise)
                miss = np.abs(fast[:, k] - exact) > np.maximum(1e-12 * np.abs(exact), 1e-12)
                misses += [(i, k, db) for db in snr_db[miss]]
        assert not misses, misses


def mixed_term_count_inputs():
    """Three users with 4, 2 and 8 UT antennas, P = 2, m_e = 3, n_e = 2.

    User 0 sits on grid beams, and users 1 and 2 carry no power on its
    transmit beams, as users on disjoint grid beams do: every floor of user
    0 is 0, and its terms take the diagonal form.  Users 1 and 2 are off
    grid; each sees an interference stack of 4 rows against d = 6
    measurements, so at least two of its floors are 0.  The numbers of
    zero floors thus differ between users.
    """
    rng = np.random.default_rng(21)
    m, ut_counts = 16, [4, 2, 8]
    paths = [sample_paths(2, rng, grid=(m, ut_counts[0]))]
    paths += [sample_paths(2, rng) for _ in ut_counts[1:]]
    scenario = Scenario.from_paths(paths, m, ut_counts)
    alloc = scenario.allocate(3, 2)
    factors = [f.copy() for f in scenario.factors]
    for f in factors[1:]:
        f.reshape(m, -1, 2)[alloc.bs_beams[0]] = 0.0
    return RateInputs(factors, alloc)


class TestBatchedUsers:
    """One `rate_factors` call factors every user of an allocation."""

    @pytest.mark.parametrize("make_inputs", [
        mixed_term_count_inputs,
        # Fewer measurements than paths: m_e * n_e = 4 < P = 6.
        lambda: scenario_inputs(np.random.default_rng(0), 128, [4], 6, 1, 4),
    ], ids=["mixed_term_counts", "rank_deficient_single_user"])
    def test_every_user_matches_the_dense_oracle(self, make_inputs):
        inputs = make_inputs()
        noise = np.array([0.01, 0.1, 1.0, 10.0])
        rates = rate_factors(inputs.blocks).rate(noise)
        assert rates.shape == (noise.size, inputs.n_users)
        for k in range(inputs.n_users):
            for i, s2 in enumerate(noise):
                oracle = gaussian_mi_oracle(assemble_observation_covariances(inputs, k, s2))
                assert rates[i, k] == pytest.approx(oracle, rel=1e-10)

    def test_every_row_keeps_one_term_per_measurement(self):
        # d = m_e * n_e = 6 uplink and P + d = 8 joint terms for every user,
        # however many of its floors are 0.
        factors = rate_factors(mixed_term_count_inputs().blocks)
        for info, n_terms, zeros in ((factors.uplink, 6, [6, 2, 4]),
                                     (factors.joint, 8, [8, 4, 6])):
            assert info.terms.shape == (3, 2, 2, n_terms)
            assert info.floors.shape == (3, n_terms)
            assert np.count_nonzero(info.floors == 0, axis=1).tolist() == zeros
            # User 0's single diagonal term, then zero terms.
            first = info.terms[0, :, :, 0]
            assert np.count_nonzero(first - np.diag(np.diag(first))) == 0
            assert np.all(info.terms[0, :, :, 1:] == 0)
            # Users 1 and 2 keep each measurement, zero floors too, as a term.
            for k in (1, 2):
                assert np.all(np.any(info.terms[k] != 0, axis=(0, 1)))

    def test_interference_svd_memory_is_linear_in_the_stack_height(self):
        # 32 users, P = 6, d = 2: each interference stack is 186 x 2.  Its
        # full left singular vectors, 32 x 186 x 186 complex, would take
        # 17 MiB; Z alone needs d x d.
        import tracemalloc

        scenario = Scenario.draw(np.random.default_rng(3), 6, 64, [2] * 32)
        inputs = RateInputs(scenario.factors, scenario.allocate(2, 1))
        inputs.blocks
        tracemalloc.start()
        try:
            rate_factors(inputs.blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    def test_unequal_column_counts_rejected(self):
        inputs = scenario_inputs(np.random.default_rng(15), 16, [4, 2], 2, 2, 2)
        wider = [inputs.lambda_factors[0], np.hstack([inputs.lambda_factors[1]] * 2)]
        with pytest.raises(ValueError, match=r"lambda_factors\[1\] has 4 columns; every user "
                                             r"needs 2, as user 0 has"):
            RateInputs(wider, inputs.allocation)


def zeroed(inputs, pairs):
    """`inputs` with user kp's factor rows at user k's transmit beams set to
    0, for each (k, kp) in `pairs`, as for users on disjoint grid beams:
    user k's uplink then sees no interference from user kp."""
    alloc = inputs.allocation
    factors = [f.copy() for f in inputs.lambda_factors]
    for k, kp in pairs:
        factors[kp].reshape(alloc.bs_antennas, -1, factors[kp].shape[1])[alloc.bs_beams[k]] = 0
    return RateInputs(factors, alloc)


def term_count_mix():
    """Allocations of one shape (16 BS antennas, users with 4, 2 and 8 UT
    antennas, P = 2, m_e = 3, n_e = 2) whose users' numbers of zero uplink
    floors differ, so that a batch of them holds flat and graded rows: off
    grid, on grid, every user free of one interferer, user 0 free of both
    (`mixed_term_count_inputs`) and every user free of both, whose floors
    are all 0."""
    rng = np.random.default_rng(22)
    draw = lambda on_grid: Scenario.draw(rng, 2, 16, [4, 2, 8], on_grid)  # noqa: E731
    return [RateInputs(s.factors, s.allocate(3, 2)) for s in (draw(False), draw(True))] + [
        zeroed(scenario_inputs(rng, 16, [4, 2, 8], 2, 3, 2), [(0, 1), (1, 2), (2, 0)]),
        mixed_term_count_inputs(),
        zeroed(scenario_inputs(rng, 16, [4, 2, 8], 2, 3, 2),
               [(k, kp) for k in range(3) for kp in range(3) if kp != k]),
    ]


class TestBatchedAllocations:
    """`rate_factors` factors a stacked (T, U, U, d, P) table of several
    allocations as one batch."""

    NOISE = 10.0 ** (-np.arange(-10.0, 151.0, 10.0) / 10.0)

    @pytest.mark.parametrize("make_inputs", [
        term_count_mix,
        lambda: [scenario_inputs(np.random.default_rng(s), 32, [4], 6, 6, 4) for s in range(4)],
        # Fewer measurements than paths: m_e * n_e = 4 < P = 6.
        lambda: [scenario_inputs(np.random.default_rng(s), 128, [4], 6, 1, 4) for s in range(3)],
    ], ids=["multi_user_term_counts_differ", "single_user", "rank_deficient_single_user"])
    def test_batch_is_bit_identical_to_one_call_per_allocation(self, make_inputs):
        inputs = make_inputs()
        batch = rate_factors(np.stack([x.blocks for x in inputs]))
        for noise in (self.NOISE, 0.05):
            alone = np.concatenate([rate_factors(x.blocks).rate(noise) for x in inputs],
                                   axis=-1)
            assert np.array_equal(batch.rate(noise), alone)

    def test_zero_floor_counts_differ_across_the_mix(self):
        # So the bit-identity above covers flat and graded rows, with
        # different numbers of zero floors, in one batch.
        floors = rate_factors(np.stack([x.blocks for x in term_count_mix()])).uplink.floors
        assert np.count_nonzero(floors == 0, axis=1).reshape(5, 3).tolist() == [
            [2, 2, 2], [4, 3, 5], [4, 4, 4], [6, 2, 4], [6, 6, 6]]

    def test_leading_axes_are_flattened_trial_major(self):
        tables = np.stack([x.blocks for x in term_count_mix()])  # (5, 3, 3, 6, 2)
        flat = rate_factors(tables).rate(self.NOISE)
        assert np.array_equal(rate_factors(tables[None]).rate(self.NOISE), flat)
        assert np.array_equal(rate_factors(tables[:4].reshape(2, 2, 3, 3, 6, 2))
                              .rate(self.NOISE), flat[:, :12])

    @pytest.mark.parametrize("table", [
        np.ones((3, 6, 2)),
        np.ones((3, 2, 6, 2)),
        np.ones((2, 3, 2, 6, 2)),
        np.ones((3, 3, 0, 2)),
        np.ones((0, 3, 3, 6, 2)),
    ], ids=["three_axes", "unequal_users", "unequal_users_stacked", "no_rows", "no_tables"])
    def test_malformed_table_rejected(self, table):
        with pytest.raises(ValueError, match=r"needs a nonempty \(\.\.\., U, U, d, P\) table"):
            rate_factors(table)


class TestFullSamplingRate:
    def test_matches_oracle_through_full_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            paths = sample_paths(3, rng)
            cov = beam_covariances(paths, 8, 4)
            noise = float(rng.choice([0.05, 0.5, 2.0]))
            inputs = full_inputs(psd_sqrt(cov.lambda_full), 8, 4)
            oracle = gaussian_mi_oracle(assemble_observation_covariances(inputs, 0, noise))
            eigs = np.linalg.eigvalsh(cov.lambda_full)
            assert full_sampling_rate(eigs, noise) == pytest.approx(oracle, rel=1e-9)

    def test_zero_covariance(self):
        assert full_sampling_rate(np.zeros(8), 0.1) == 0.0

    def test_noise_free_rejected(self):
        with pytest.raises(SingularNoiseFreeRateError):
            full_sampling_rate(np.ones(4), 0.0)
        with pytest.raises(SingularNoiseFreeRateError):
            full_sampling_rate(np.ones(4), np.array([0.1, 0.0]))

    def test_batched_noise_powers_equal_single_points(self):
        eigs = np.array([2.0, 0.5, 1e-3, 0.0])
        noise = 10.0 ** (-np.linspace(-10.0, 200.0, 22) / 10.0)
        batched = full_sampling_rate(eigs, noise)
        assert batched.shape == noise.shape
        assert np.array_equal(batched, [full_sampling_rate(eigs, s2) for s2 in noise])
        assert isinstance(full_sampling_rate(eigs, 0.1), float)

    def test_zero_covariance_batched(self):
        assert np.array_equal(full_sampling_rate(np.zeros(8), np.array([0.1, 0.0])), [0.0, 0.0])

    def test_matches_80_digit_sum_from_minus_60_to_200_db(self):
        # Each user's Gram spectrum of a reference-scenario draw, all users in
        # one call.  The form 2 log(w + s2) - log s2 - log(2 w + s2) cancels
        # at low SNR: it missed by 1.4e-12 at -10 dB and by 5e-2 at -60 dB.
        import mpmath

        inputs = runner_draw(ScenarioConfig(), np.random.default_rng(5), m_e=6)
        spectra = psd_eigh(np.stack([f.conj().T @ f for f in inputs.lambda_factors]))[0]
        noise = 10.0 ** (-np.arange(-60.0, 201.0, 10.0) / 10.0)
        fast = full_sampling_rate(spectra, noise)
        assert fast.shape == (noise.size, 6)
        assert np.array_equal(fast[:, 3], full_sampling_rate(spectra[3], noise))
        with mpmath.workdps(80):
            exact = [[float(mpmath.fsum(mpmath.log((w + s2) ** 2 / (s2 * (2 * w + s2)))
                                        for w in map(mpmath.mpf, user)) / mpmath.log(2))
                      for user in spectra] for s2 in map(mpmath.mpf, noise)]
        np.testing.assert_allclose(fast, exact, rtol=1e-12, atol=0)


class TestDominanceAndInterference:
    def test_full_grid_probing_dominates_reduced(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            paths = sample_paths(3, rng)
            cov = beam_covariances(paths, 16, 4)
            noise = float(rng.choice([0.01, 0.1, 1.0]))
            perfect = full_sampling_rate(np.linalg.eigvalsh(cov.lambda_full), noise)
            factor, _, _ = beam_covariance_factor(paths, 16, 4)
            m_e = int(rng.integers(1, 5))
            bs_set = allocate_bs_beams([np.real(np.diag(cov.r_bs))], m_e)[0]
            ut_set = allocate_ut_beams(np.real(np.diag(cov.r_ut)), 2)
            inputs = RateInputs([factor], build_matrices([bs_set], [ut_set], 16, [4]))
            reduced = secret_key_rate(inputs, 0, noise)
            assert reduced <= perfect + 1e-9

    def test_reuse_with_overlapping_supports_pays_a_penalty(self):
        # Two users share the same on-grid beams, so pilot reuse leaks one
        # user's probing into the other; orthogonal (interference-free)
        # probing of the same reduced beams can only be better.
        m, n_ut, n_p = 16, 4, 2
        shared_bs, shared_ut = [3, 9], [1, 2]
        rng = np.random.default_rng(10)
        paths = [PathSet(
            gains=np.sqrt([0.6, 0.4]) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2)),
            aoa=np.arcsin(grid_sines(n_ut)[shared_ut]),
            aod=np.arcsin(grid_sines(m)[shared_bs]),
            powers=[0.6, 0.4],
        ) for _ in range(2)]
        scenario = Scenario.from_paths(paths, m, [n_ut] * 2)
        alloc = scenario.allocate(n_p, 2)
        reused = RateInputs(scenario.factors, alloc)
        for k in range(2):
            with_interference = secret_key_rate(reused, k, 0.1)
            alone_alloc = build_matrices([alloc.bs_beams[k]], [alloc.ut_beams[k]], m, [n_ut])
            alone = RateInputs([scenario.factors[k]], alone_alloc)
            interference_free = secret_key_rate(alone, 0, 0.1)
            assert with_interference <= interference_free + 1e-9


class TestAssembledCovariances:
    def test_zero_channel_leaves_noise_only(self):
        inputs = full_inputs(np.zeros((32, 2), dtype=complex), 8, 4)
        cov = assemble_observation_covariances(inputs, 0, 0.7)
        np.testing.assert_allclose(cov.r_zdl, 0.7 * np.eye(32), atol=1e-12)
        np.testing.assert_allclose(cov.r_zul, 0.7 * np.eye(32), atol=1e-12)
        assert np.all(cov.r_cross == 0)

    def test_orthonormal_matrices_give_scaled_identity_noise(self):
        rng = np.random.default_rng(11)
        inputs = scenario_inputs(rng, 8, [2], 2, 2, 2)
        zero = [np.zeros_like(inputs.lambda_factors[0])]
        noise_only = replace(inputs, lambda_factors=zero)
        cov = assemble_observation_covariances(noise_only, 0, 0.3)
        np.testing.assert_allclose(cov.r_zdl, 0.3 * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(cov.r_zul, 0.3 * np.eye(4), atol=1e-12)

    def test_rate_factors_match_direct_assembly(self):
        rng = np.random.default_rng(12)
        inputs = scenario_inputs(rng, 16, [2, 2], 2, 2, 2)
        direct = assemble_observation_covariances(inputs, 1, 0.25)
        assert rate_factors(inputs.blocks).rate(0.25)[1] == pytest.approx(
            gaussian_mi_oracle(direct), rel=1e-10)

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf])
    def test_bad_noise_power_rejected(self, noise):
        inputs = scenario_inputs(np.random.default_rng(12), 8, [2], 2, 2, 2)
        with pytest.raises(ValueError, match="noise_power must be finite and nonnegative"):
            assemble_observation_covariances(inputs, 0, noise)

    @pytest.mark.parametrize("block", ["r_zdl", "r_zul"])
    def test_non_hermitian_block_rejected(self, block):
        blocks = dict(r_zdl=np.eye(2), r_zul=np.eye(2), r_cross=np.zeros((2, 2)))
        blocks[block] = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="must be Hermitian"):
            ObservationCovariances(**blocks)

    @pytest.mark.parametrize("shapes", [
        ((2, 3), (2, 2), (2, 2)),
        ((2, 2), (3, 3), (2, 2)),
        ((2, 2), (3, 3), (3, 2)),
    ], ids=["non_square_dl", "cross_too_narrow", "cross_transposed"])
    def test_inconsistent_block_shapes_rejected(self, shapes):
        r_zdl, r_zul, r_cross = (np.zeros(s, dtype=complex) for s in shapes)
        with pytest.raises(ValueError, match="block shapes are inconsistent"):
            ObservationCovariances(r_zdl, r_zul, r_cross)

    def test_joint_is_derived_from_the_blocks(self):
        rng = np.random.default_rng(12)
        r_zdl, r_zul = random_psd(rng, 3), random_psd(rng, 2)
        r_cross = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        joint = ObservationCovariances(r_zdl, r_zul, r_cross).joint
        assert joint.shape == (5, 5)
        np.testing.assert_array_equal(joint[:3, :3], r_zdl)
        np.testing.assert_array_equal(joint[3:, 3:], r_zul)
        np.testing.assert_array_equal(joint[:3, 3:], r_cross)
        np.testing.assert_array_equal(joint[3:, :3], r_cross.conj().T)


class TestOverheadAndUnitRate:
    def test_paper_overheads(self):
        assert pilot_overhead("traditional", 128, [4] * 6, 6, 4) == 152
        assert pilot_overhead("reused", 128, [4] * 6, 6, 4) == 10
        assert pilot_overhead("reused", 128, [4] * 6, 4, 4) == 8

    def test_reused_burst_ignores_the_array_sizes(self):
        # One m_e + n_e burst whatever M and the N_k are.
        for m, n_k in ((16, [2]), (128, [4] * 6), (256, [8, 2, 4])):
            assert pilot_overhead("reused", m, n_k, 3, 2) == 5

    def test_zero_users_edge(self):
        assert pilot_overhead("traditional", 128, [], 6, 4) == 128

    @pytest.mark.parametrize("mode", ["bogus", "orthogonal", "orthogonal_reduced"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown pilot mode"):
            pilot_overhead(mode, 128, [4], 6, 4)

    def test_unit_rate(self):
        assert unit_skr(10.0, 10) == 1.0
        assert unit_skr(0.0, 152) == 0.0
        with pytest.raises(ValueError):
            unit_skr(1.0, 0)
