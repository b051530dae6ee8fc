"""Pilot construction and two-way probing of effective channels."""

import numpy as np
import pytest

from beamkey._util import complex_normal, vec
from beamkey.allocation import (
    allocate_bs_beams,
    allocate_ut_beams,
    build_matrices,
)
from beamkey.channel import (
    ArrayGeometry,
    PathSet,
    beam_covariances,
    grid_sines,
    sample_paths,
    sampling_matrix,
    synthesize_channel,
)
from beamkey.probing import (
    PILOT_MODES,
    _probe_matrices,
    dimension_reduction_factor,
    downlink_probe,
    make_pilots,
    observations_to_csv,
    uplink_probe,
    vectorize_observations,
)


def build_scenario(n_users, m, n_ut, n_p, m_e, n_e, rng, on_grid=False,
                   disjoint_grid=False):
    """Channels plus an allocation for one random scenario."""
    bs, ut = ArrayGeometry(m), ArrayGeometry(n_ut)
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
    covs = [beam_covariances(p, bs, ut) for p in paths_list]
    bs_sets = allocate_bs_beams([np.real(np.diag(c.r_bs)) for c in covs], m_e)
    ut_sets = [allocate_ut_beams(np.real(np.diag(c.r_ut)), n_e) for c in covs]
    alloc = build_matrices(bs_sets, ut_sets, m, [n_ut] * n_users)
    channels = [synthesize_channel(p, bs, ut) for p in paths_list]
    return channels, alloc, paths_list


def beamformers(alloc, k):
    """User k's precoder and combiner, written out: the sampling-matrix
    columns at its allocated beams."""
    return (sampling_matrix(ArrayGeometry(alloc.bs_antennas))[:, alloc.bs_beams[k]],
            sampling_matrix(ArrayGeometry(alloc.ut_counts[k]))[:, alloc.ut_beams[k]])


def effective_channel(alloc, h, k):
    """C_k^H H_k P_k."""
    precoder, combiner = beamformers(alloc, k)
    return combiner.conj().T @ h @ precoder


class TestMakePilots:
    def test_reused_durations(self):
        pilots = make_pilots("reused", 6, 4, 128, [4] * 6, 6)
        assert (pilots.t_d, pilots.t_u) == (6, 4)
        for k in range(6):
            assert pilots.s_dl[k] is pilots.s_dl[0]
            assert pilots.s_ul[k] is pilots.s_ul[0]

    def test_orthogonal_durations(self):
        pilots = make_pilots("orthogonal", 6, 4, 128, [4] * 6, 6)
        assert (pilots.t_d, pilots.t_u) == (128, 24)

    def test_orthogonal_reduced_durations(self):
        pilots = make_pilots("orthogonal_reduced", 6, 4, 128, [4] * 6, 6)
        assert (pilots.t_d, pilots.t_u) == (36, 24)

    @pytest.mark.parametrize("mode", ["reused", "orthogonal", "orthogonal_reduced"])
    def test_row_orthonormal(self, mode):
        pilots = make_pilots(mode, 3, 2, 16, [4, 4, 4], 3)
        for s in list(pilots.s_dl) + list(pilots.s_ul):
            gram = s @ s.conj().T
            assert np.max(np.abs(gram - np.eye(s.shape[0]))) <= 1e-12

    def test_cross_orthogonality(self):
        pilots = make_pilots("orthogonal", 3, 2, 16, [4, 3, 2], 3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.max(np.abs(pilots.s_ul[i] @ pilots.s_ul[j].conj().T)) == 0.0
        reduced = make_pilots("orthogonal_reduced", 3, 2, 16, [4, 4, 4], 3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.max(np.abs(reduced.s_dl[i] @ reduced.s_dl[j].conj().T)) == 0.0

    def test_infeasible_dimensions_rejected(self):
        with pytest.raises(ValueError):
            make_pilots("reused", 0, 2, 16, [4], 1)
        with pytest.raises(ValueError):
            make_pilots("reused", 20, 2, 16, [4], 1)
        with pytest.raises(ValueError):
            make_pilots("bogus", 2, 2, 16, [4], 1)


class TestProbeMatrices:
    """The beamformers probing forms from an allocation: grid columns at the
    allocated beams, or the complete sampling matrices in "orthogonal" mode."""

    def setup_method(self):
        self.a_bs = sampling_matrix(ArrayGeometry(128))
        self.a_ut = sampling_matrix(ArrayGeometry(4))

    def probe_matrices(self, bs_sets, ut_sets, mode):
        alloc = build_matrices(bs_sets, ut_sets, 128, [4] * len(bs_sets))
        pilots = make_pilots(mode, len(bs_sets[0]), len(ut_sets[0]), 128,
                             [4] * len(bs_sets), len(bs_sets))
        return _probe_matrices(alloc, pilots)

    def test_first_beams_give_first_columns(self):
        precoders, combiners = self.probe_matrices([np.arange(6)], [np.arange(4)], "reused")
        np.testing.assert_allclose(precoders[0], self.a_bs[:, :6], atol=1e-15)
        np.testing.assert_allclose(combiners[0], self.a_ut[:, :4], atol=1e-15)

    @pytest.mark.parametrize("mode", PILOT_MODES)
    def test_orthonormal_columns(self, mode):
        rng = np.random.default_rng(3)
        sets = allocate_bs_beams([rng.random(128) for _ in range(6)], 6)
        ut_sets = [allocate_ut_beams(rng.random(4), 4) for _ in range(6)]
        precoders, combiners = self.probe_matrices(sets, ut_sets, mode)
        assert len(precoders) == len(combiners) == 6
        for p, c in zip(precoders, combiners):
            assert np.max(np.abs(p.conj().T @ p - np.eye(p.shape[1]))) <= 1e-12
            assert np.max(np.abs(c.conj().T @ c - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("mode, m_cols", [("reused", 6), ("orthogonal", 128)])
    def test_paper_scale_shapes(self, mode, m_cols):
        precoders, combiners = self.probe_matrices([np.arange(6)], [np.arange(4)], mode)
        assert precoders[0].shape == (128, m_cols)
        assert combiners[0].shape == (4, 4)

    @pytest.mark.parametrize("mode, bs_cols, ut_cols", [
        ("reused", [3, 1], [2, 0]),
        ("orthogonal_reduced", [3, 1], [2, 0]),
        ("orthogonal", list(range(128)), list(range(4))),
    ])
    def test_beam_domain_images_are_basis_columns(self, mode, bs_cols, ut_cols):
        # In the beam domain a grid precoder/combiner is a basis column, so
        # the rate layer needs only the beam indices.
        precoders, combiners = self.probe_matrices([[3, 1]], [[2, 0]], mode)
        np.testing.assert_allclose(self.a_bs.conj().T @ precoders[0],
                                   np.eye(128)[:, bs_cols], atol=1e-12)
        np.testing.assert_allclose(self.a_ut.conj().T @ combiners[0],
                                   np.eye(4)[:, ut_cols], atol=1e-12)


class TestDownlinkProbe:
    def test_noiseless_single_user_is_effective_channel(self):
        rng = np.random.default_rng(0)
        channels, alloc, _ = build_scenario(1, 16, 4, 3, 3, 2, rng)
        pilots = make_pilots("reused", 3, 2, 16, [4], 1)
        z = downlink_probe(channels, alloc, pilots, 0.0)[0]
        np.testing.assert_allclose(z, effective_channel(alloc, channels[0], 0), atol=1e-12)

    def test_on_grid_disjoint_users_see_no_interference(self):
        rng = np.random.default_rng(1)
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, rng, disjoint_grid=True)
        pilots = make_pilots("reused", 2, 2, 16, [4, 4], 2)
        zs = downlink_probe(channels, alloc, pilots, 0.0)
        for k in range(2):
            clean = effective_channel(alloc, channels[k], k)
            assert np.max(np.abs(zs[k] - clean)) < 1e-10

    def test_orthogonal_reduced_pilots_cancel_any_overlap(self):
        rng = np.random.default_rng(2)
        channels, alloc, _ = build_scenario(3, 16, 4, 2, 2, 2, rng)
        pilots = make_pilots("orthogonal_reduced", 2, 2, 16, [4] * 3, 3)
        zs = downlink_probe(channels, alloc, pilots, 0.0)
        for k in range(3):
            clean = effective_channel(alloc, channels[k], k)
            assert np.max(np.abs(zs[k] - clean)) < 1e-12

    def test_traditional_mode_gives_full_beam_channel(self):
        rng = np.random.default_rng(3)
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, rng)
        pilots = make_pilots("orthogonal", 2, 2, 16, [4, 4], 2)
        zs = downlink_probe(channels, alloc, pilots, 0.0)
        a_bs, a_ut = sampling_matrix(ArrayGeometry(16)), sampling_matrix(ArrayGeometry(4))
        for k in range(2):
            np.testing.assert_allclose(zs[k], a_ut.conj().T @ channels[k] @ a_bs, atol=1e-12)

    def test_noise_requires_rng(self):
        rng = np.random.default_rng(4)
        channels, alloc, _ = build_scenario(1, 16, 4, 2, 2, 2, rng)
        pilots = make_pilots("reused", 2, 2, 16, [4], 1)
        with pytest.raises(ValueError):
            downlink_probe(channels, alloc, pilots, 0.1, None)

    def test_same_seed_reproduces_noise(self):
        rng = np.random.default_rng(5)
        channels, alloc, _ = build_scenario(1, 16, 4, 2, 2, 2, rng)
        pilots = make_pilots("reused", 2, 2, 16, [4], 1)
        z1 = downlink_probe(channels, alloc, pilots, 0.5, np.random.default_rng(9))[0]
        z2 = downlink_probe(channels, alloc, pilots, 0.5, np.random.default_rng(9))[0]
        np.testing.assert_array_equal(z1, z2)

    @pytest.mark.parametrize("mode", ["reused", "orthogonal", "orthogonal_reduced"])
    def test_matches_hand_written_round_bit_for_bit(self, mode):
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, np.random.default_rng(6))
        pilots = make_pilots(mode, 2, 2, 16, [4, 4], 2)
        zs = downlink_probe(channels, alloc, pilots, 0.3, np.random.default_rng(10))
        rng = np.random.default_rng(10)
        if mode == "orthogonal":
            x = sampling_matrix(ArrayGeometry(16)) @ pilots.s_dl[0]
            combiners = [sampling_matrix(ArrayGeometry(4))] * 2
        else:
            precoders, combiners = zip(*(beamformers(alloc, k) for k in range(2)))
            x = sum(p @ s for p, s in zip(precoders, pilots.s_dl))
        for k, h in enumerate(channels):
            c_h, s_h = combiners[k].conj().T, pilots.s_dl[k].conj().T
            n = complex_normal(rng, (4, pilots.t_d), 0.3)
            np.testing.assert_array_equal(zs[k], c_h @ h @ x @ s_h + c_h @ n @ s_h)


class TestUplinkProbe:
    def test_noiseless_single_user_transpose_identity(self):
        rng = np.random.default_rng(10)
        channels, alloc, _ = build_scenario(1, 16, 4, 3, 3, 2, rng)
        pilots = make_pilots("reused", 3, 2, 16, [4], 1)
        z_ul = uplink_probe(channels, alloc, pilots, 0.0)[0]
        np.testing.assert_allclose(z_ul, effective_channel(alloc, channels[0], 0).T, atol=1e-12)

    def test_on_grid_disjoint_users_reciprocal(self):
        rng = np.random.default_rng(11)
        channels, alloc, _ = build_scenario(3, 16, 4, 2, 2, 2, rng, disjoint_grid=True)
        pilots = make_pilots("reused", 2, 2, 16, [4] * 3, 3)
        z_ul = uplink_probe(channels, alloc, pilots, 0.0)
        for k in range(3):
            clean = effective_channel(alloc, channels[k], k).T
            assert np.max(np.abs(z_ul[k] - clean)) < 1e-10

    @pytest.mark.parametrize("mode", PILOT_MODES)
    def test_matches_hand_written_round_bit_for_bit(self, mode):
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, np.random.default_rng(7))
        pilots = make_pilots(mode, 2, 2, 16, [4, 4], 2)
        zs = uplink_probe(channels, alloc, pilots, 0.3, np.random.default_rng(11))
        if mode == "orthogonal":
            precoders = [sampling_matrix(ArrayGeometry(16))] * 2
            combiners = [sampling_matrix(ArrayGeometry(4))] * 2
        else:
            precoders, combiners = zip(*(beamformers(alloc, k) for k in range(2)))
        # P_k^T (sum_k' H_k'^T C_k'^* S_k'^UL) S_k^H + P_k^T N S_k^H, one
        # base-station noise matrix N shared by every user.
        x = sum(h.T @ c.conj() @ s for h, c, s in zip(channels, combiners, pilots.s_ul))
        n = complex_normal(np.random.default_rng(11), (16, pilots.t_u), 0.3)
        for k in range(2):
            p_t, s_h = precoders[k].T, pilots.s_ul[k].conj().T
            np.testing.assert_array_equal(zs[k], p_t @ x @ s_h + p_t @ n @ s_h)

    def test_noise_energy_matches_prediction(self):
        # E ||P^T N S^H||_F^2 = noise * m_e * n_e for orthonormal columns/rows.
        rng = np.random.default_rng(12)
        channels, alloc, _ = build_scenario(1, 16, 4, 3, 3, 2, rng)
        pilots = make_pilots("reused", 3, 2, 16, [4], 1)
        clean = uplink_probe(channels, alloc, pilots, 0.0)[0]
        noise_power = 0.3
        noise_rng = np.random.default_rng(13)
        energies = []
        for _ in range(10_000):
            noisy = uplink_probe(channels, alloc, pilots, noise_power, noise_rng)[0]
            energies.append(np.linalg.norm(noisy - clean) ** 2)
        predicted = noise_power * 3 * 2
        assert np.mean(energies) == pytest.approx(predicted, rel=0.02)

    def test_error_energy_scales_linearly_with_noise(self):
        rng = np.random.default_rng(14)
        channels, alloc, _ = build_scenario(1, 16, 4, 2, 2, 2, rng)
        pilots = make_pilots("reused", 2, 2, 16, [4], 1)
        clean = downlink_probe(channels, alloc, pilots, 0.0)[0]
        noise_rng = np.random.default_rng(15)
        means = {}
        for s2 in (0.1, 0.2, 0.4):
            errs = [
                np.linalg.norm(downlink_probe(channels, alloc, pilots, s2, noise_rng)[0]
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
        pilots = make_pilots("reused", 2, 2, 16, [4, 4], 2)
        clean = downlink_probe(channels, alloc, pilots, 0.0)[0]
        noise_power, rounds = 0.5, 10_000
        noise_rng = np.random.default_rng(17)
        acc = np.zeros_like(clean)
        for _ in range(rounds):
            acc += downlink_probe(channels, alloc, pilots, noise_power, noise_rng)[0]
        mean = acc / rounds
        se = np.sqrt(noise_power / 2.0 / rounds)
        assert np.max(np.abs((mean - clean).real)) <= 3 * se
        assert np.max(np.abs((mean - clean).imag)) <= 3 * se


class TestVectorizeObservations:
    def test_noiseless_single_user_reciprocity(self):
        rng = np.random.default_rng(20)
        channels, alloc, _ = build_scenario(1, 16, 4, 3, 3, 2, rng)
        pilots = make_pilots("reused", 3, 2, 16, [4], 1)
        z_dl = downlink_probe(channels, alloc, pilots, 0.0)[0]
        z_ul = uplink_probe(channels, alloc, pilots, 0.0)[0]
        obs = vectorize_observations(z_dl, z_ul, 0.0)
        np.testing.assert_allclose(obs.z_dl, obs.z_ul, atol=1e-12)

    def test_lengths(self):
        obs = vectorize_observations(np.ones((2, 3)), np.ones((3, 2)), 0.1)
        assert obs.z_dl.shape == (6,)
        assert obs.z_ul.shape == (6,)
        assert obs.noise_power == 0.1

    def test_vectorization_is_column_major(self):
        z_dl = np.arange(6, dtype=complex).reshape(2, 3)
        obs = vectorize_observations(z_dl, z_dl.T, 0.0)
        np.testing.assert_array_equal(obs.z_dl, vec(z_dl))

    def test_noisy_correlation_strictly_between_zero_and_one(self):
        rng = np.random.default_rng(21)
        channels, alloc, paths = build_scenario(1, 16, 4, 2, 2, 2, rng)
        pilots = make_pilots("reused", 2, 2, 16, [4], 1)
        bs, ut = ArrayGeometry(16), ArrayGeometry(4)
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
            h = [synthesize_channel(fresh, bs, ut)]
            z_dl = vec(downlink_probe(h, alloc, pilots, 0.5, noise_rng)[0])
            z_ul = vec(uplink_probe(h, alloc, pilots, 0.5, noise_rng)[0].T)
            num += np.vdot(z_dl, z_ul).real
            den_dl += np.linalg.norm(z_dl) ** 2
            den_ul += np.linalg.norm(z_ul) ** 2
        corr = num / np.sqrt(den_dl * den_ul)
        assert 0.0 < corr < 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vectorize_observations(np.ones((2, 3)), np.ones((2, 3)), 0.0)


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


class TestObservationsCsv:
    def test_header_and_rows(self):
        rng = np.random.default_rng(30)
        channels, alloc, _ = build_scenario(2, 16, 4, 2, 2, 2, rng)
        pilots = make_pilots("reused", 2, 2, 16, [4, 4], 2)
        z_dl = downlink_probe(channels, alloc, pilots, 0.1, np.random.default_rng(1))
        z_ul = uplink_probe(channels, alloc, pilots, 0.1, np.random.default_rng(2))
        obs = [vectorize_observations(d, u, 0.1) for d, u in zip(z_dl, z_ul)]
        text = observations_to_csv(obs)
        lines = text.strip().split("\n")
        assert lines[0] == "user,index,z_dl_re,z_dl_im,z_ul_re,z_ul_im"
        assert len(lines) == 1 + 2 * 4  # two users, 2x2 effective channels
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == obs[0].z_dl[0].real
