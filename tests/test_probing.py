"""Two-way probing of effective channels with one reused pilot burst."""

import numpy as np
import pytest

from beamkey._util import complex_normal, vec
from beamkey.allocation import (
    allocate_bs_beams,
    allocate_ut_beams,
    build_matrices,
)
from beamkey.channel import (
    PathSet,
    beam_covariances,
    grid_sines,
    sample_paths,
    sampling_matrix,
    synthesize_channel,
)
from beamkey.probing import (
    _probe_matrices,
    dimension_reduction_factor,
    downlink_maps,
    downlink_probe,
    uplink_probe,
    vectorize_observations,
)


def build_scenario(n_users, m, n_ut, n_p, m_e, n_e, rng, on_grid=False,
                   disjoint_grid=False):
    """Channels plus an allocation for one random scenario."""
    paths_list = []
    if disjoint_grid:
        bs_idx = rng.permutation(m)[: n_users * n_p].reshape(n_users, n_p)
        for k in range(n_users):
            ut_idx = rng.choice(n_ut, size=n_p, replace=False)
            paths_list.append(PathSet(
                gains=np.sqrt(np.full(n_p, 1.0 / n_p)),
                aoa=np.arcsin(grid_sines(n_ut)[ut_idx]),
                aod=np.arcsin(grid_sines(m)[bs_idx[k]]),
                powers=np.full(n_p, 1.0 / n_p),
            ))
    else:
        grid = (m, n_ut) if on_grid else None
        paths_list = [sample_paths(n_p, rng, grid=grid) for _ in range(n_users)]
    covs = [beam_covariances(p, m, n_ut) for p in paths_list]
    bs_sets = allocate_bs_beams([np.real(np.diag(c.r_bs)) for c in covs], m_e)
    ut_sets = [allocate_ut_beams(np.real(np.diag(c.r_ut)), n_e) for c in covs]
    alloc = build_matrices(bs_sets, ut_sets, m, [n_ut] * n_users)
    channels = [synthesize_channel(p, m, n_ut) for p in paths_list]
    return channels, alloc, paths_list


def beamformers(alloc, k):
    """User k's precoder and combiner, written out: the sampling-matrix
    columns at its allocated beams."""
    return (sampling_matrix(alloc.bs_antennas)[:, alloc.bs_beams[k]],
            sampling_matrix(alloc.ut_counts[k])[:, alloc.ut_beams[k]])


def effective_channel(alloc, h, k):
    """C_k^H H_k P_k."""
    precoder, combiner = beamformers(alloc, k)
    return combiner.conj().T @ h @ precoder


class TestProbeMatrices:
    """The beamformers probing forms from an allocation: grid columns at the
    allocated beams."""

    def setup_method(self):
        self.a_bs = sampling_matrix(128)
        self.a_ut = sampling_matrix(4)

    def probe_matrices(self, bs_sets, ut_sets):
        return _probe_matrices(build_matrices(bs_sets, ut_sets, 128, [4] * len(bs_sets)))

    def test_first_beams_give_first_columns(self):
        precoders, combiners = self.probe_matrices([np.arange(6)], [np.arange(4)])
        np.testing.assert_allclose(precoders[0], self.a_bs[:, :6], atol=1e-15)
        np.testing.assert_allclose(combiners[0], self.a_ut[:, :4], atol=1e-15)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        sets = allocate_bs_beams([rng.random(128) for _ in range(6)], 6)
        ut_sets = [allocate_ut_beams(rng.random(4), 4) for _ in range(6)]
        precoders, combiners = self.probe_matrices(sets, ut_sets)
        assert len(precoders) == len(combiners) == 6
        for p, c in zip(precoders, combiners):
            assert np.max(np.abs(p.conj().T @ p - np.eye(p.shape[1]))) <= 1e-12
            assert np.max(np.abs(c.conj().T @ c - np.eye(4))) <= 1e-12

    def test_paper_scale_shapes(self):
        precoders, combiners = self.probe_matrices([np.arange(6)], [np.arange(4)])
        assert precoders[0].shape == (128, 6)
        assert combiners[0].shape == (4, 4)

    def test_beam_domain_images_are_basis_columns(self):
        # In the beam domain a grid precoder/combiner is a basis column, so
        # the rate layer needs only the beam indices.
        precoders, combiners = self.probe_matrices([[3, 1]], [[2, 0]])
        np.testing.assert_allclose(self.a_bs.conj().T @ precoders[0],
                                   np.eye(128)[:, [3, 1]], atol=1e-12)
        np.testing.assert_allclose(self.a_ut.conj().T @ combiners[0],
                                   np.eye(4)[:, [2, 0]], atol=1e-12)


@pytest.mark.parametrize("probe", [downlink_probe, uplink_probe])
@pytest.mark.parametrize("users, n_ut, match", [
    (1, 4, "user count mismatch"),
    (2, 2, "channel 0 has shape"),
], ids=["too_few_channels", "wrong_channel_shape"])
def test_channels_must_fit_the_allocation(probe, users, n_ut, match):
    # The allocation fixes every probing dimension; channels that do not fit
    # it are rejected before any product is formed.
    channels, _, _ = build_scenario(users, 16, n_ut, 2, 2, 2, np.random.default_rng(8))
    _, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, np.random.default_rng(8))
    with pytest.raises(ValueError, match=match):
        probe(channels, alloc, 0.0)


@pytest.mark.parametrize("probe", [downlink_probe, uplink_probe])
@pytest.mark.parametrize("noise_power", [-0.1, np.nan, np.inf])
def test_bad_noise_power_rejected(probe, noise_power):
    channels, alloc, _ = build_scenario(1, 16, 4, 2, 2, 2, np.random.default_rng(9))
    with pytest.raises(ValueError, match="noise_power must be finite and nonnegative"):
        probe(channels, alloc, noise_power, np.random.default_rng(0))


@pytest.mark.parametrize("users, n_ut, m_e, n_e", [(1, 4, 3, 2), (2, 4, 2, 2), (3, 3, 2, 1)])
def test_estimate_shapes_follow_the_allocation(users, n_ut, m_e, n_e):
    # One reused burst: every user's downlink estimate is n_e x m_e and its
    # uplink estimate m_e x n_e, with or without noise.
    channels, alloc, _ = build_scenario(users, 16, n_ut, 2, m_e, n_e, np.random.default_rng(3))
    for noise_power in (0.0, 0.2):
        rng = np.random.default_rng(4)
        z_dl = downlink_probe(channels, alloc, noise_power, rng)
        z_ul = uplink_probe(channels, alloc, noise_power, rng)
        assert [z.shape for z in z_dl] == [(n_e, m_e)] * users
        assert [z.shape for z in z_ul] == [(m_e, n_e)] * users


class TestDownlinkMaps:
    def test_pilot_is_sum_of_precoders_and_combiner_conjugated(self):
        _, alloc, _ = build_scenario(3, 16, 4, 2, 2, 2, np.random.default_rng(2))
        maps = downlink_maps(alloc)
        assert len(maps) == 3
        for k, dl in enumerate(maps):
            precoders, combiners = zip(*(beamformers(alloc, j) for j in range(3)))
            np.testing.assert_allclose(dl.pilot, sum(precoders), atol=1e-15)
            np.testing.assert_allclose(dl.combiner_h, combiners[k].conj().T, atol=1e-15)

    def test_signal_and_noise_accept_batch_axes(self):
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, np.random.default_rng(4))
        dl = downlink_maps(alloc)[1]
        stacked = np.stack([channels[0], channels[1], 2.0 * channels[1]])
        noise = complex_normal(np.random.default_rng(5), (3, 4, 2), 1.0)
        signal, noise_image = dl.signal(stacked), dl.noise(noise)
        assert signal.shape == noise_image.shape == (3, 2, 2)
        for i in range(3):
            np.testing.assert_allclose(signal[i], dl.signal(stacked[i]), atol=1e-14)
            np.testing.assert_allclose(noise_image[i], dl.noise(noise[i]), atol=1e-14)


# (users, N_k, m_e, n_e) of the hand-written probing rounds.
ROUNDS = [(2, 4, 2, 2), (1, 4, 3, 2), (3, 3, 2, 1)]


class TestDownlinkProbe:
    def test_noiseless_single_user_is_effective_channel(self):
        rng = np.random.default_rng(0)
        channels, alloc, _ = build_scenario(1, 16, 4, 3, 3, 2, rng)
        z = downlink_probe(channels, alloc, 0.0)[0]
        np.testing.assert_allclose(z, effective_channel(alloc, channels[0], 0), atol=1e-12)

    def test_on_grid_disjoint_users_see_no_interference(self):
        rng = np.random.default_rng(1)
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, rng, disjoint_grid=True)
        zs = downlink_probe(channels, alloc, 0.0)
        for k in range(2):
            clean = effective_channel(alloc, channels[k], k)
            assert np.max(np.abs(zs[k] - clean)) < 1e-10

    def test_noise_requires_rng(self):
        rng = np.random.default_rng(4)
        channels, alloc, _ = build_scenario(1, 16, 4, 2, 2, 2, rng)
        with pytest.raises(ValueError):
            downlink_probe(channels, alloc, 0.1, None)

    def test_same_seed_reproduces_noise(self):
        rng = np.random.default_rng(5)
        channels, alloc, _ = build_scenario(1, 16, 4, 2, 2, 2, rng)
        z1 = downlink_probe(channels, alloc, 0.5, np.random.default_rng(9))[0]
        z2 = downlink_probe(channels, alloc, 0.5, np.random.default_rng(9))[0]
        np.testing.assert_array_equal(z1, z2)

    @pytest.mark.parametrize("users, n_ut, m_e, n_e", ROUNDS)
    def test_matches_hand_written_round_bit_for_bit(self, users, n_ut, m_e, n_e):
        channels, alloc, _ = build_scenario(users, 16, n_ut, 2, m_e, n_e,
                                            np.random.default_rng(6))
        zs = downlink_probe(channels, alloc, 0.3, np.random.default_rng(10))
        rng = np.random.default_rng(10)
        precoders, combiners = zip(*(beamformers(alloc, k) for k in range(users)))
        x = sum(precoders)
        for k, h in enumerate(channels):
            c_h = combiners[k].conj().T
            n = complex_normal(rng, (n_ut, m_e), 0.3)
            np.testing.assert_array_equal(zs[k], c_h @ h @ x + c_h @ n)

    def test_noiseless_probe_draws_nothing(self):
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        downlink_probe(channels, alloc, 0.0, rng)
        assert rng.standard_normal() == np.random.default_rng(8).standard_normal()


class TestUplinkProbe:
    def test_noiseless_single_user_transpose_identity(self):
        rng = np.random.default_rng(10)
        channels, alloc, _ = build_scenario(1, 16, 4, 3, 3, 2, rng)
        z_ul = uplink_probe(channels, alloc, 0.0)[0]
        np.testing.assert_allclose(z_ul, effective_channel(alloc, channels[0], 0).T, atol=1e-12)

    def test_on_grid_disjoint_users_reciprocal(self):
        rng = np.random.default_rng(11)
        channels, alloc, _ = build_scenario(3, 16, 4, 2, 2, 2, rng, disjoint_grid=True)
        z_ul = uplink_probe(channels, alloc, 0.0)
        for k in range(3):
            clean = effective_channel(alloc, channels[k], k).T
            assert np.max(np.abs(z_ul[k] - clean)) < 1e-10

    @pytest.mark.parametrize("users, n_ut, m_e, n_e", ROUNDS)
    def test_matches_hand_written_round_bit_for_bit(self, users, n_ut, m_e, n_e):
        channels, alloc, _ = build_scenario(users, 16, n_ut, 2, m_e, n_e,
                                            np.random.default_rng(7))
        zs = uplink_probe(channels, alloc, 0.3, np.random.default_rng(11))
        precoders, combiners = zip(*(beamformers(alloc, k) for k in range(users)))
        # P_k^T (sum_k' H_k'^T C_k'^* + N), one M x n_e base-station noise
        # matrix N shared by every user.
        x = sum(h.T @ c.conj() for h, c in zip(channels, combiners))
        n = complex_normal(np.random.default_rng(11), (16, n_e), 0.3)
        for k in range(users):
            p_t = precoders[k].T
            np.testing.assert_array_equal(zs[k], p_t @ x + p_t @ n)

    def test_noise_requires_rng(self):
        channels, alloc, _ = build_scenario(1, 16, 4, 2, 2, 2, np.random.default_rng(4))
        with pytest.raises(ValueError, match="an rng is required"):
            uplink_probe(channels, alloc, 0.1, None)

    def test_same_seed_reproduces_noise(self):
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, np.random.default_rng(5))
        z1 = uplink_probe(channels, alloc, 0.5, np.random.default_rng(9))
        z2 = uplink_probe(channels, alloc, 0.5, np.random.default_rng(9))
        for a, b in zip(z1, z2):
            np.testing.assert_array_equal(a, b)

    def test_noise_energy_matches_prediction(self):
        # E ||P^T N||_F^2 = noise * m_e * n_e for orthonormal columns.
        rng = np.random.default_rng(12)
        channels, alloc, _ = build_scenario(1, 16, 4, 3, 3, 2, rng)
        clean = uplink_probe(channels, alloc, 0.0)[0]
        noise_power = 0.3
        noise_rng = np.random.default_rng(13)
        energies = []
        for _ in range(10_000):
            noisy = uplink_probe(channels, alloc, noise_power, noise_rng)[0]
            energies.append(np.linalg.norm(noisy - clean) ** 2)
        predicted = noise_power * 3 * 2
        assert np.mean(energies) == pytest.approx(predicted, rel=0.02)

    def test_error_energy_scales_linearly_with_noise(self):
        rng = np.random.default_rng(14)
        channels, alloc, _ = build_scenario(1, 16, 4, 2, 2, 2, rng)
        clean = downlink_probe(channels, alloc, 0.0)[0]
        noise_rng = np.random.default_rng(15)
        means = {}
        for s2 in (0.1, 0.2, 0.4):
            errs = [
                np.linalg.norm(downlink_probe(channels, alloc, s2, noise_rng)[0]
                               - clean) ** 2
                for _ in range(10_000)
            ]
            means[s2] = np.mean(errs)
        assert means[0.2] / means[0.1] == pytest.approx(2.0, rel=0.05)
        assert means[0.4] / means[0.2] == pytest.approx(2.0, rel=0.05)

    def test_estimator_unbiased(self):
        # Monte Carlo mean of the noisy estimate stays within three standard
        # errors of the noiseless effective channel, per real component.
        rng = np.random.default_rng(16)
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, rng)
        clean = downlink_probe(channels, alloc, 0.0)[0]
        noise_power, rounds = 0.5, 10_000
        noise_rng = np.random.default_rng(17)
        acc = np.zeros_like(clean)
        for _ in range(rounds):
            acc += downlink_probe(channels, alloc, noise_power, noise_rng)[0]
        mean = acc / rounds
        se = np.sqrt(noise_power / 2.0 / rounds)
        assert np.max(np.abs((mean - clean).real)) <= 3 * se
        assert np.max(np.abs((mean - clean).imag)) <= 3 * se


class TestVectorizeObservations:
    def test_noiseless_single_user_reciprocity(self):
        rng = np.random.default_rng(20)
        channels, alloc, _ = build_scenario(1, 16, 4, 3, 3, 2, rng)
        z_dl = downlink_probe(channels, alloc, 0.0)[0]
        z_ul = uplink_probe(channels, alloc, 0.0)[0]
        v_dl, v_ul = vectorize_observations(z_dl, z_ul)
        np.testing.assert_allclose(v_dl, v_ul, atol=1e-12)

    def test_lengths(self):
        v_dl, v_ul = vectorize_observations(np.ones((2, 3)), np.ones((3, 2)))
        assert v_dl.shape == (6,)
        assert v_ul.shape == (6,)

    def test_vectorization_is_column_major(self):
        z_dl = np.arange(6, dtype=complex).reshape(2, 3)
        v_dl, v_ul = vectorize_observations(z_dl, z_dl.T)
        np.testing.assert_array_equal(v_dl, vec(z_dl))
        np.testing.assert_array_equal(v_ul, vec(z_dl))

    def test_noisy_correlation_strictly_between_zero_and_one(self):
        rng = np.random.default_rng(21)
        channels, alloc, paths = build_scenario(1, 16, 4, 2, 2, 2, rng)
        noise_rng = np.random.default_rng(22)
        num = 0.0
        den_dl = 0.0
        den_ul = 0.0
        for _ in range(500):
            gains = np.sqrt(paths[0].powers / 2) * (
                noise_rng.standard_normal(2) + 1j * noise_rng.standard_normal(2)
            )
            fresh = PathSet(gains=gains, aoa=paths[0].aoa, aod=paths[0].aod,
                            powers=paths[0].powers)
            h = [synthesize_channel(fresh, 16, 4)]
            z_dl, z_ul = vectorize_observations(
                downlink_probe(h, alloc, 0.5, noise_rng)[0],
                uplink_probe(h, alloc, 0.5, noise_rng)[0])
            num += np.vdot(z_dl, z_ul).real
            den_dl += np.linalg.norm(z_dl) ** 2
            den_ul += np.linalg.norm(z_ul) ** 2
        corr = num / np.sqrt(den_dl * den_ul)
        assert 0.0 < corr < 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vectorize_observations(np.ones((2, 3)), np.ones((2, 3)))


class TestDimensionReduction:
    def test_paper_configuration(self):
        assert dimension_reduction_factor(128, 4, 6, 4) == pytest.approx(512 / 24)

    def test_identity(self):
        assert dimension_reduction_factor(16, 4, 16, 4) == 1.0

    def test_plain_arithmetic(self):
        assert dimension_reduction_factor(128, 4, 4, 4) == 32.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dimension_reduction_factor(0, 4, 4, 4)

