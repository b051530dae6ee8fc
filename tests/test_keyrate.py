"""Closed-form key rate, Gaussian MI reference and the numerical helpers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from beamkey.allocation import allocate_bs_beams, allocate_ut_beams, build_matrices
from beamkey.channel import (
    ArrayGeometry,
    PathSet,
    beam_covariance_factor,
    beam_covariances,
    grid_sines,
    sample_paths,
    sampling_matrix,
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
from beamkey.experiments import _random_small_inputs


def random_psd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b.conj().T @ b


def full_inputs(factor, m, n_ut, noise):
    """Complete-grid probing of a single user."""
    alloc = build_matrices([np.arange(m)], [np.arange(n_ut)],
                           sampling_matrix(ArrayGeometry(m)),
                           [sampling_matrix(ArrayGeometry(n_ut))])
    return RateInputs([factor], alloc, noise)


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
        inputs = full_inputs(np.zeros((32, 2), dtype=complex), 8, 4, 0.5)
        v_k, v_kks = build_v_matrices(inputs, 0)
        assert np.all(v_k == 0) and np.all(v_kks[0] == 0)
        assert secret_key_rate(inputs, 0) == 0.0
        assert gaussian_mi_oracle(assemble_observation_covariances(inputs, 0)) == pytest.approx(
            0.0, abs=1e-12)

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
        a_bs = sampling_matrix(ArrayGeometry(m))
        a_ut = sampling_matrix(ArrayGeometry(n_ut))
        alloc = build_matrices([[5]], [[2]], a_bs, [a_ut])
        inputs = RateInputs([factor], alloc, 0.1)
        v_k, _ = build_v_matrices(inputs, 0)
        assert np.linalg.norm(v_k) == pytest.approx(1.0, abs=1e-10)

    def test_disjoint_on_grid_cross_factors_vanish(self):
        rng = np.random.default_rng(3)
        m, n_ut, n_p = 16, 4, 2
        bs_idx = rng.permutation(m)[: 2 * n_p].reshape(2, n_p)
        a_bs = sampling_matrix(ArrayGeometry(m))
        a_ut = sampling_matrix(ArrayGeometry(n_ut))
        factors, diags_bs, diags_ut = [], [], []
        for k in range(2):
            ut_idx = rng.choice(n_ut, size=n_p, replace=False)
            paths = PathSet(
                gains=np.full(n_p, np.sqrt(1 / n_p)),
                aoa=np.arcsin(grid_sines(n_ut)[ut_idx]),
                aod=np.arcsin(grid_sines(m)[bs_idx[k]]),
                powers=np.full(n_p, 1 / n_p),
            )
            factor, r_bs, r_ut = beam_covariance_factor(paths, ArrayGeometry(m),
                                                        ArrayGeometry(n_ut))
            factors.append(factor)
            diags_bs.append(np.real(np.diag(r_bs)))
            diags_ut.append(np.real(np.diag(r_ut)))
        bs_sets = allocate_bs_beams(diags_bs, n_p)
        ut_sets = [allocate_ut_beams(d, 2) for d in diags_ut]
        alloc = build_matrices(bs_sets, ut_sets, a_bs, [a_ut] * 2)
        inputs = RateInputs(factors, alloc, 0.1)
        _, v_kks = build_v_matrices(inputs, 0)
        assert np.max(np.abs(v_kks[1])) < 1e-10


def scenario_inputs(rng, m, ut_counts, n_p, m_e, n_e, noise=0.1):
    """Random users with the given antenna counts, allocated as the runners do."""
    bs = ArrayGeometry(m)
    factors, diags_bs, diags_ut = [], [], []
    for n in ut_counts:
        factor, r_bs, r_ut = beam_covariance_factor(sample_paths(n_p, rng), bs,
                                                    ArrayGeometry(n))
        factors.append(factor)
        diags_bs.append(np.real(np.diag(r_bs)))
        diags_ut.append(np.real(np.diag(r_ut)))
    alloc = build_matrices(allocate_bs_beams(diags_bs, m_e),
                           [allocate_ut_beams(d, n_e) for d in diags_ut],
                           sampling_matrix(bs),
                           [sampling_matrix(ArrayGeometry(n)) for n in ut_counts])
    return RateInputs(factors, alloc, noise)


def kron_v_matrices(inputs, k):
    """V_k and every V_kk' through dense 0/1 selectors and kron, built from the
    beam indices: V_k = (kron(S_sum^T, C_k^H) F_k)^H, V_kk' = (kron(S_k^T, C_k'^H) F_k')^H."""
    alloc = inputs.allocation
    sel_bs = [np.eye(alloc.a_bs.shape[0])[:, b] for b in alloc.bs_beams]
    sel_ut = [np.eye(a.shape[0])[:, u] for a, u in zip(alloc.a_ut, alloc.ut_beams)]
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
            RateInputs(self.inputs.lambda_factors, alloc, 0.1)

    def test_mismatched_ut_beam_counts_rejected(self):
        alloc = replace(self.alloc, ut_beams=[self.alloc.ut_beams[0],
                                              self.alloc.ut_beams[1][:1]])
        with pytest.raises(ValueError, match="user 1 has 2 transmit and 1 receive"):
            RateInputs(self.inputs.lambda_factors, alloc, 0.1)

    def test_wrong_factor_rows_rejected(self):
        factors = [self.inputs.lambda_factors[0], self.inputs.lambda_factors[0]]
        with pytest.raises(ValueError, match=r"lambda_factors\[1\] must be a matrix with 32 rows"):
            RateInputs(factors, self.alloc, 0.1)

    def test_factor_count_must_match_users(self):
        with pytest.raises(ValueError, match="one covariance factor per allocated user"):
            RateInputs(self.inputs.lambda_factors[:1], self.alloc, 0.1)

    @pytest.mark.parametrize("field, beams", [
        ("bs_beams", [5, 16]), ("bs_beams", [5, -1]), ("ut_beams", [0, 2]), ("ut_beams", [0, -1]),
    ])
    def test_out_of_range_index_rejected(self, field, beams):
        # User 1 has 16 transmit and 2 receive beams; a negative index would
        # otherwise wrap around silently.
        alloc = replace(self.alloc, **{field: [getattr(self.alloc, field)[0], np.array(beams)]})
        with pytest.raises(ValueError, match="out of range for user 1"):
            RateInputs(self.inputs.lambda_factors, alloc, 0.1)


class TestSecretKeyRate:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(40):
            n_users = int(rng.integers(1, 4))
            inputs = _random_small_inputs(
                rng, n_users, int(rng.choice([8, 16])), 2,
                int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                int(rng.integers(1, 3)), float(rng.choice([0.01, 0.1, 1.0])),
            )
            for k in range(n_users):
                closed = secret_key_rate(inputs, k)
                oracle = gaussian_mi_oracle(assemble_observation_covariances(inputs, k))
                worst = max(worst, abs(closed - oracle) / max(oracle, 1e-12))
        assert worst <= 1e-8

    def test_monotone_decreasing_in_noise(self):
        rng = np.random.default_rng(5)
        inputs = _random_small_inputs(rng, 2, 16, 2, 2, 2, 2, 1.0)
        rates = [secret_key_rate(inputs.with_noise_power(s2), 0)
                 for s2 in (1.0, 10.0, 100.0, 1000.0)]
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 1e-9
        sweep = [secret_key_rate(inputs.with_noise_power(s2), 0)
                 for s2 in np.logspace(-2, 2, 10)]
        assert np.max(np.diff(sweep)) <= 1e-9

    def test_negative_noise_rejected(self):
        rng = np.random.default_rng(6)
        inputs = _random_small_inputs(rng, 1, 8, 2, 2, 2, 2, 0.1)
        with pytest.raises(ValueError):
            secret_key_rate(inputs.with_noise_power(-1.0), 0)

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
        a_bs = sampling_matrix(ArrayGeometry(m))
        a_ut = sampling_matrix(ArrayGeometry(n_ut))
        alloc = build_matrices([[2, 3]], [[1, 0]], a_bs, [a_ut])
        inputs = RateInputs([factor], alloc, 0.0)
        with pytest.raises(SingularNoiseFreeRateError):
            secret_key_rate(inputs, 0)


def factor_and_dense_inputs(rng, n_users, m, n_ut, n_p, m_e, n_e, noise):
    """One random scenario as rate inputs twice: with each user's rank-P path
    factor, and with psd_sqrt of the dense covariance as the factor."""
    bs, ut = ArrayGeometry(m), ArrayGeometry(n_ut)
    paths = [sample_paths(n_p, rng) for _ in range(n_users)]
    covs = [beam_covariances(p, bs, ut) for p in paths]
    bs_sets = allocate_bs_beams([np.real(np.diag(c.r_bs)) for c in covs], m_e)
    ut_sets = [allocate_ut_beams(np.real(np.diag(c.r_ut)), n_e) for c in covs]
    alloc = build_matrices(bs_sets, ut_sets, sampling_matrix(bs),
                           [sampling_matrix(ut)] * n_users)
    factored = RateInputs([beam_covariance_factor(p, bs, ut)[0] for p in paths], alloc, noise)
    dense = replace(factored, lambda_factors=[psd_sqrt(c.lambda_full) for c in covs])
    return factored, dense, covs


class TestFactorMatchesDense:
    """The rank-P factor route against the dense square-root route."""

    def assert_routes_agree(self, factored, dense, covs):
        for k in range(factored.n_users):
            assert secret_key_rate(factored, k) == pytest.approx(
                secret_key_rate(dense, k), rel=1e-10)
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
            self.assert_routes_agree(*factor_and_dense_inputs(
                rng, n_users, m, int(rng.choice([2, 4])), int(rng.integers(1, 4)),
                int(rng.integers(1, m // (2 * n_users) + 1)), int(rng.integers(1, 3)),
                float(rng.choice([0.01, 0.1, 1.0])),
            ))

    def test_reference_size_user(self):
        # M = 128, N = 4, P = 6: the dense covariance is 512 x 512.
        rng = np.random.default_rng(14)
        self.assert_routes_agree(*factor_and_dense_inputs(rng, 1, 128, 4, 6, 6, 4, 0.1))


class TestFullSamplingRate:
    def test_matches_oracle_through_full_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            paths = sample_paths(3, rng)
            cov = beam_covariances(paths, ArrayGeometry(8), ArrayGeometry(4))
            noise = float(rng.choice([0.05, 0.5, 2.0]))
            inputs = full_inputs(psd_sqrt(cov.lambda_full), 8, 4, noise)
            oracle = gaussian_mi_oracle(assemble_observation_covariances(inputs, 0))
            eigs = np.linalg.eigvalsh(cov.lambda_full)
            assert full_sampling_rate(eigs, noise) == pytest.approx(oracle, rel=1e-9)

    def test_zero_covariance(self):
        assert full_sampling_rate(np.zeros(8), 0.1) == 0.0

    def test_noise_free_rejected(self):
        with pytest.raises(SingularNoiseFreeRateError):
            full_sampling_rate(np.ones(4), 0.0)


class TestDominanceAndInterference:
    def test_full_grid_probing_dominates_reduced(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            paths = sample_paths(3, rng)
            cov = beam_covariances(paths, ArrayGeometry(16), ArrayGeometry(4))
            noise = float(rng.choice([0.01, 0.1, 1.0]))
            perfect = full_sampling_rate(np.linalg.eigvalsh(cov.lambda_full), noise)
            factor, _, _ = beam_covariance_factor(paths, ArrayGeometry(16), ArrayGeometry(4))
            a_bs = sampling_matrix(ArrayGeometry(16))
            a_ut = sampling_matrix(ArrayGeometry(4))
            m_e = int(rng.integers(1, 5))
            bs_set = allocate_bs_beams([np.real(np.diag(cov.r_bs))], m_e)[0]
            ut_set = allocate_ut_beams(np.real(np.diag(cov.r_ut)), 2)
            alloc = build_matrices([bs_set], [ut_set], a_bs, [a_ut])
            inputs = RateInputs([factor], alloc, noise)
            reduced = secret_key_rate(inputs, 0)
            assert reduced <= perfect + 1e-9

    def test_reuse_with_overlapping_supports_pays_a_penalty(self):
        # Two users share the same on-grid beams, so pilot reuse leaks one
        # user's probing into the other; orthogonal (interference-free)
        # probing of the same reduced beams can only be better.
        m, n_ut, n_p = 16, 4, 2
        shared_bs, shared_ut = [3, 9], [1, 2]
        a_bs = sampling_matrix(ArrayGeometry(m))
        a_ut = sampling_matrix(ArrayGeometry(n_ut))
        factors, diags_bs, diags_ut = [], [], []
        rng = np.random.default_rng(10)
        for k in range(2):
            paths = PathSet(
                gains=np.sqrt([0.6, 0.4]) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2)),
                aoa=np.arcsin(grid_sines(n_ut)[shared_ut]),
                aod=np.arcsin(grid_sines(m)[shared_bs]),
                powers=[0.6, 0.4],
            )
            factor, r_bs, r_ut = beam_covariance_factor(paths, ArrayGeometry(m),
                                                        ArrayGeometry(n_ut))
            factors.append(factor)
            diags_bs.append(np.real(np.diag(r_bs)))
            diags_ut.append(np.real(np.diag(r_ut)))
        bs_sets = allocate_bs_beams(diags_bs, n_p)
        ut_sets = [allocate_ut_beams(d, 2) for d in diags_ut]
        alloc = build_matrices(bs_sets, ut_sets, a_bs, [a_ut] * 2)
        reused = RateInputs(factors, alloc, 0.1)
        for k in range(2):
            with_interference = secret_key_rate(reused, k)
            alone_alloc = build_matrices([bs_sets[k]], [ut_sets[k]], a_bs, [a_ut])
            alone = RateInputs([factors[k]], alone_alloc, 0.1)
            interference_free = secret_key_rate(alone, 0)
            assert with_interference <= interference_free + 1e-9


class TestAssembledCovariances:
    def test_zero_channel_leaves_noise_only(self):
        inputs = full_inputs(np.zeros((32, 2), dtype=complex), 8, 4, 0.7)
        cov = assemble_observation_covariances(inputs, 0)
        np.testing.assert_allclose(cov.r_zdl, 0.7 * np.eye(32), atol=1e-12)
        np.testing.assert_allclose(cov.r_zul, 0.7 * np.eye(32), atol=1e-12)
        assert np.all(cov.r_cross == 0)

    def test_orthonormal_matrices_give_scaled_identity_noise(self):
        rng = np.random.default_rng(11)
        inputs = _random_small_inputs(rng, 1, 8, 2, 2, 2, 2, 0.3)
        zero = [np.zeros_like(inputs.lambda_factors[0])]
        noise_only = replace(inputs, lambda_factors=zero)
        cov = assemble_observation_covariances(noise_only, 0)
        np.testing.assert_allclose(cov.r_zdl, 0.3 * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(cov.r_zul, 0.3 * np.eye(4), atol=1e-12)

    def test_rate_factors_match_direct_assembly(self):
        rng = np.random.default_rng(12)
        inputs = _random_small_inputs(rng, 2, 16, 2, 2, 2, 2, 0.25)
        direct = assemble_observation_covariances(inputs, 1)
        via_factors = rate_factors(inputs, 1).covariances(0.25)
        np.testing.assert_allclose(direct.joint, via_factors.joint, atol=1e-12)

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
