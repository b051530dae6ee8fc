"""Closed-form key rate, Gaussian MI reference and the numerical helpers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamkey.allocation import allocate_bs_beams, allocate_ut_beams, build_matrices
from beamkey.channel import (
    ArrayGeometry,
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
    psd_sqrt,
    rate_factors,
    secret_key_rate,
    unit_skr,
)
from beamkey.experiments import Scenario, ScenarioConfig


def random_psd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b.conj().T @ b


def full_inputs(factor, m, n_ut):
    """Complete-grid probing of a single user."""
    return RateInputs([factor], build_matrices([np.arange(m)], [np.arange(n_ut)], m, [n_ut]))


class TestPsdSqrt:
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
            cov = ObservationCovariances.from_blocks(
                np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]), np.array([[rho + 0j]])
            )
            assert gaussian_mi_oracle(cov) == pytest.approx(-math.log2(1 - rho ** 2))

    def test_independent_blocks_give_zero(self):
        rng = np.random.default_rng(2)
        r1 = random_psd(rng, 4) + np.eye(4)
        r2 = random_psd(rng, 4) + np.eye(4)
        cov = ObservationCovariances.from_blocks(r1, r2, np.zeros((4, 4), dtype=complex))
        assert gaussian_mi_oracle(cov) == pytest.approx(0.0, abs=1e-9)

    def test_singular_block_rejected(self):
        cov = ObservationCovariances.from_blocks(
            np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex),
            np.zeros((2, 2), dtype=complex),
        )
        with pytest.raises(NumericalConsistencyError):
            gaussian_mi_oracle(cov)

    def test_inconsistent_joint_fails_factorization(self):
        # Cross-covariance larger than the diagonal blocks allow: the joint
        # block matrix is indefinite and cannot be factorized.
        cov = ObservationCovariances.from_blocks(
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
        factor, _, _ = beam_covariance_factor(paths, ArrayGeometry(m), ArrayGeometry(n_ut))
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

    def test_mismatched_bs_beam_counts_rejected(self):
        alloc = replace(self.alloc, bs_beams=[self.alloc.bs_beams[0],
                                              self.alloc.bs_beams[1][:1]])
        with pytest.raises(ValueError, match="user 1 has 1 transmit"):
            RateInputs(self.inputs.lambda_factors, alloc)

    def test_mismatched_ut_beam_counts_rejected(self):
        alloc = replace(self.alloc, ut_beams=[self.alloc.ut_beams[0],
                                              self.alloc.ut_beams[1][:1]])
        with pytest.raises(ValueError, match="user 1 has 2 transmit and 1 receive"):
            RateInputs(self.inputs.lambda_factors, alloc)

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
        factor, _, _ = beam_covariance_factor(paths, ArrayGeometry(m), ArrayGeometry(n_ut))
        inputs = RateInputs([factor], build_matrices([[2, 3]], [[1, 0]], m, [n_ut]))
        with pytest.raises(SingularNoiseFreeRateError):
            secret_key_rate(inputs, 0, 0.0)


def factor_and_dense_inputs(rng, n_users, m, n_ut, n_p, m_e, n_e):
    """One random scenario as rate inputs twice: with each user's rank-P path
    factor, and with psd_sqrt of the dense covariance as the factor."""
    bs, ut = ArrayGeometry(m), ArrayGeometry(n_ut)
    paths = [sample_paths(n_p, rng) for _ in range(n_users)]
    covs = [beam_covariances(p, bs, ut) for p in paths]
    bs_sets = allocate_bs_beams([np.real(np.diag(c.r_bs)) for c in covs], m_e)
    ut_sets = [allocate_ut_beams(np.real(np.diag(c.r_ut)), n_e) for c in covs]
    alloc = build_matrices(bs_sets, ut_sets, m, [n_ut] * n_users)
    factored = RateInputs([beam_covariance_factor(p, bs, ut)[0] for p in paths], alloc)
    dense = replace(factored, lambda_factors=[psd_sqrt(c.lambda_full) for c in covs])
    return factored, dense, covs


class TestFactorMatchesDense:
    """The rank-P factor route against the dense square-root route."""

    def assert_routes_agree(self, factored, dense, covs, noise):
        for k in range(factored.n_users):
            assert secret_key_rate(factored, k, noise) == pytest.approx(
                secret_key_rate(dense, k, noise), rel=1e-10)
            for s2 in (0.01, 1.0, 10.0):
                assert rate_factors(factored, k).rate(s2) == pytest.approx(
                    rate_factors(dense, k).rate(s2), rel=1e-10)
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


def mp_gaussian_mi_bits(v_k, v_kks, k, noise_powers):
    """80-digit log det R_dl + log det R_ul - log det R_joint of user k's
    dense observation covariances, in bits, at each noise power.

    Each covariance is A^H A + s2 I for a stacked A: V_k for R_dl, every
    V_kk' for R_ul and [[V_k, V_kk], [0, J]] for R_joint.  Its determinant
    is taken through the smaller Gram matrix, det(s2 I_n + A^H A) =
    s2^(n - m) det(s2 I_m + A A^H) for an m x n matrix A, by an 80-digit
    Cholesky factorization.  The float64 V matrices are taken as exact.
    """
    import mpmath

    def gram(a):
        rows = [[mpmath.mpc(complex(x)) for x in row] for row in a]
        if len(rows) >= len(rows[0]):
            cols = list(zip(*rows))
            return [[mpmath.fdot(x, y, conjugate=True) for y in cols] for x in cols]
        return [[mpmath.fdot(y, x, conjugate=True) for y in rows] for x in rows]

    def logdet_plus(g, s2):
        n = len(g)
        low = [[None] * n for _ in range(n)]
        total = mpmath.mpf(0)
        for j in range(n):
            pivot = mpmath.re(g[j][j] + s2 - mpmath.fdot(low[j][:j], low[j][:j], conjugate=True))
            low[j][j] = mpmath.sqrt(pivot)
            total += mpmath.log(pivot)
            conj_j = [mpmath.conj(x) for x in low[j][:j]]
            for i in range(j + 1, n):
                low[i][j] = (g[i][j] - mpmath.fdot(low[i][:j], conj_j)) / low[j][j]
        return total

    others = [v for j, v in enumerate(v_kks) if j != k]
    joint = np.hstack([v_k, v_kks[k]])
    if others:
        j_stack = np.vstack(others)
        joint = np.vstack([joint, np.hstack([np.zeros_like(j_stack), j_stack])])
    with mpmath.workdps(80):
        parts = [(gram(a), a.shape[1] - min(a.shape)) for a in (v_k, np.vstack(v_kks), joint)]
        rates = []
        for noise in noise_powers:
            s2 = mpmath.mpf(float(noise))
            ld = [logdet_plus(g, s2) + extra * mpmath.log(s2) for g, extra in parts]
            rates.append(float((ld[0] + ld[1] - ld[2]) / mpmath.log(2)))
    return np.array(rates)


def runner_draw(config, rng, m_e):
    """One trial's users and allocation, drawn the way the runners draw them."""
    scenario = Scenario.draw(rng, config.n_paths, config.bs_antennas,
                             config.ut_antenna_list(), config.angle_mode == "on_grid")
    return RateInputs(scenario.factors, scenario.allocate(m_e, config.ut_beams))


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
        for k in users:
            fast = rate_factors(inputs, k).rate(noise)
            v_k, v_kks = build_v_matrices(inputs, k)
            exact = mp_gaussian_mi_bits(v_k, v_kks, k, noise)
            np.testing.assert_allclose(fast, exact, rtol=1e-12, atol=0)
        if inputs.n_users == 6:
            assert rate_factors(inputs, 0).rate(1e-20) == pytest.approx(98.5279, abs=1e-4)

    @pytest.mark.parametrize("m_e, n_e", [(4, 1), (1, 4), (1, 1)])
    def test_rank_deficient_single_user_matches_80_digit_gaussian_mi(self, m_e, n_e):
        # Fewer measurements than paths (m_e * n_e < P = 6): the information
        # matrices are singular, and used to fail to factorize at high SNR.
        inputs = scenario_inputs(np.random.default_rng(0), 128, [4], 6, m_e, n_e)
        noise = 10.0 ** (-HIGH_SNR_DB / 10.0)
        v_k, v_kks = build_v_matrices(inputs, 0)
        np.testing.assert_allclose(rate_factors(inputs, 0).rate(noise),
                                   mp_gaussian_mi_bits(v_k, v_kks, 0, noise), rtol=1e-12, atol=0)

    def test_batched_grid_equals_single_points(self):
        inputs = runner_draw(ScenarioConfig(), np.random.default_rng(5), m_e=6)
        noise = 10.0 ** (-np.linspace(-10.0, 200.0, 43) / 10.0)
        for k in (0, 5):
            factors = rate_factors(inputs, k)
            batched = factors.rate(noise)
            singles = np.array([factors.rate(s2) for s2 in noise])
            assert isinstance(factors.rate(noise[0]), float)
            np.testing.assert_allclose(batched, singles, rtol=1e-14, atol=0)

    def test_secret_key_rate_is_the_engine_at_one_point(self):
        rng = np.random.default_rng(16)
        inputs = scenario_inputs(rng, 16, [2, 2, 2], 3, 2, 2)
        for k in range(3):
            assert secret_key_rate(inputs, k, 0.05) == rate_factors(inputs, k).rate(0.05)

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
        for k in range(n_users):
            rates = rate_factors(inputs, k).rate(noise)
            assert np.all(np.isfinite(rates)) and np.all(rates >= 0)
            assert np.all(rates[1:] >= rates[:-1] - 1e-9 * rates[1:])
        if n_users == 1:
            f = inputs.lambda_factors[0]
            perfect = full_sampling_rate(psd_eigh(f.conj().T @ f)[0], noise)
            assert np.all(rates <= perfect * (1 + 1e-9))

    def test_noise_free_multiuser_rejected(self):
        inputs = scenario_inputs(np.random.default_rng(17), 16, [2, 2], 2, 2, 2)
        factors = rate_factors(inputs, 0)
        with pytest.raises(SingularNoiseFreeRateError):
            factors.rate(0.0)
        with pytest.raises(SingularNoiseFreeRateError):
            factors.rate(np.array([0.1, 0.0]))

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf, [0.1, -1.0], [[0.1]]],
                             ids=["negative", "nan", "inf", "negative_in_array", "2d"])
    def test_bad_noise_powers_rejected(self, noise):
        factors = rate_factors(scenario_inputs(np.random.default_rng(18), 8, [2], 2, 2, 2), 0)
        with pytest.raises(ValueError):
            factors.rate(noise)


class TestFullSamplingRate:
    def test_matches_oracle_through_full_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            paths = sample_paths(3, rng)
            cov = beam_covariances(paths, ArrayGeometry(8), ArrayGeometry(4))
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


class TestDominanceAndInterference:
    def test_full_grid_probing_dominates_reduced(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            paths = sample_paths(3, rng)
            cov = beam_covariances(paths, ArrayGeometry(16), ArrayGeometry(4))
            noise = float(rng.choice([0.01, 0.1, 1.0]))
            perfect = full_sampling_rate(np.linalg.eigvalsh(cov.lambda_full), noise)
            factor, _, _ = beam_covariance_factor(paths, ArrayGeometry(16), ArrayGeometry(4))
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
        assert rate_factors(inputs, 1).rate(0.25) == pytest.approx(
            gaussian_mi_oracle(direct), rel=1e-10)

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf])
    def test_bad_noise_power_rejected(self, noise):
        inputs = scenario_inputs(np.random.default_rng(12), 8, [2], 2, 2, 2)
        with pytest.raises(ValueError, match="noise_power must be finite and nonnegative"):
            assemble_observation_covariances(inputs, 0, noise)

    def test_joint_block_structure_validated(self):
        with pytest.raises(ValueError):
            ObservationCovariances(
                r_zdl=np.eye(2), r_zul=np.eye(2), r_cross=np.zeros((2, 2)),
                joint=np.eye(4) * 2.0,
            )


class TestOverheadAndUnitRate:
    def test_paper_overheads(self):
        assert pilot_overhead("traditional", 128, [4] * 6, 6, 4) == 152
        assert pilot_overhead("reused", 128, [4] * 6, 6, 4) == 10
        assert pilot_overhead("reused", 128, [4] * 6, 4, 4) == 8

    def test_orthogonal_alias_and_reduced(self):
        assert pilot_overhead("orthogonal", 128, [4] * 6, 6, 4) == 152
        assert pilot_overhead("orthogonal_reduced", 128, [4] * 6, 6, 4) == 60

    def test_zero_users_edge(self):
        assert pilot_overhead("traditional", 128, [], 6, 4) == 128

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pilot_overhead("bogus", 128, [4], 6, 4)

    def test_unit_rate(self):
        assert unit_skr(10.0, 10) == 1.0
        assert unit_skr(0.0, 152) == 0.0
        with pytest.raises(ValueError):
            unit_skr(1.0, 0)
