"""Channel synthesis, beam-domain transform and covariance statistics."""

import numpy as np
import pytest

from beamkey.channel import (
    ArrayGeometry,
    PathSet,
    beam_covariance_factor,
    beam_covariances,
    beam_path_factors,
    grid_sines,
    path_steering,
    sample_paths,
    sampling_matrix,
    synthesize_channel,
    to_beam_domain,
)
from beamkey._util import vec


def nearest_grid_index(sine: float, n: int) -> int:
    # The beam response is periodic in the sine with period 2 (a sine just
    # below +1 aliases onto the beam at -1), so distance wraps.
    dist = np.abs(grid_sines(n) - sine)
    return int(np.argmin(np.minimum(dist, 2.0 - dist)))


def steering(n: int, angles) -> np.ndarray:
    # Base-station responses of an n-element array, one column per departure
    # angle, read from `path_steering`.
    aod = np.atleast_1d(np.asarray(angles, dtype=float))
    ones = np.ones(aod.shape)
    paths = PathSet(gains=ones, aoa=np.zeros(aod.shape), aod=aod, powers=ones)
    return path_steering(paths, ArrayGeometry(n), ArrayGeometry(1))[1]


class TestSteeringVector:
    def test_broadside_is_uniform(self):
        v = steering(2, 0.0)[:, 0]
        np.testing.assert_allclose(v, np.ones(2) / np.sqrt(2), atol=1e-15)

    def test_endfire_limit_alternates(self):
        # sin(angle) -> 1 drives the phase increment to pi: alternating +-1/2.
        v = steering(4, np.pi / 2 - 1e-12)[:, 0]
        expected = np.array([0.5, -0.5, 0.5, -0.5], dtype=complex)
        np.testing.assert_allclose(v, expected, atol=1e-9)

    def test_matches_sampling_matrix_column(self):
        # Grid index m = 3 of an 8-element array sits at sin = 2*3/8 - 1 = -0.25.
        a = sampling_matrix(ArrayGeometry(8))
        v = steering(8, np.arcsin(-0.25))[:, 0]
        np.testing.assert_allclose(v, a[:, 3], atol=1e-14)

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            angle = float(rng.uniform(-np.pi / 2, np.pi / 2))
            assert np.linalg.norm(steering(n, angle)) == pytest.approx(1.0)


class TestSamplingMatrix:
    def test_single_element(self):
        np.testing.assert_array_equal(sampling_matrix(ArrayGeometry(1)), np.array([[1.0 + 0j]]))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_unitary_at_half_wavelength(self, n):
        a = sampling_matrix(ArrayGeometry(n))
        assert np.max(np.abs(a.conj().T @ a - np.eye(n))) <= 1e-12

    def test_column_peak_direction(self):
        # Each column's response over a fine angle sweep peaks at its own grid sine.
        n = 128
        a = sampling_matrix(ArrayGeometry(n))
        sweep = np.arcsin(np.linspace(-0.999, 0.999, 4001))
        responses = steering(n, sweep).T
        for m in (0, 5, 64, 100, 127):
            gains = np.abs(responses.conj() @ a[:, m])
            peak_sine = np.sin(sweep[int(np.argmax(gains))])
            assert abs(peak_sine - grid_sines(n)[m]) < 2e-3

    def test_half_wavelength_grid_is_built_once_and_read_only(self):
        a = sampling_matrix(ArrayGeometry(8))
        assert sampling_matrix(ArrayGeometry(8)) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)


class TestSamplePaths:
    def test_uniform_profile_and_count(self):
        paths = sample_paths(6, np.random.default_rng(0))
        assert paths.n_paths == 6
        np.testing.assert_allclose(paths.powers, np.full(6, 1 / 6))
        assert np.all(np.abs(paths.aoa) < np.pi / 2)
        assert np.all(np.abs(paths.aod) < np.pi / 2)

    def test_on_grid_angles_come_from_both_grids(self):
        paths = sample_paths(1, np.random.default_rng(1), grid=(8, 4))
        assert np.sin(paths.aod[0]) == pytest.approx(grid_sines(8)[nearest_grid_index(np.sin(paths.aod[0]), 8)], abs=1e-12)
        assert np.sin(paths.aoa[0]) == pytest.approx(grid_sines(4)[nearest_grid_index(np.sin(paths.aoa[0]), 4)], abs=1e-12)

    def test_on_grid_indices_distinct(self):
        paths = sample_paths(4, np.random.default_rng(2), grid=(8, 4))
        aod_idx = [nearest_grid_index(s, 8) for s in np.sin(paths.aod)]
        aoa_idx = [nearest_grid_index(s, 4) for s in np.sin(paths.aoa)]
        assert len(set(aod_idx)) == 4
        assert len(set(aoa_idx)) == 4

    def test_on_grid_too_many_paths_rejected(self):
        with pytest.raises(ValueError):
            sample_paths(5, np.random.default_rng(0), grid=(8, 4))

    def test_same_seed_is_bit_identical(self):
        a = sample_paths(5, np.random.default_rng(77))
        b = sample_paths(5, np.random.default_rng(77))
        np.testing.assert_array_equal(a.gains, b.gains)
        np.testing.assert_array_equal(a.aoa, b.aoa)
        np.testing.assert_array_equal(a.aod, b.aod)

    def test_pathset_validation(self):
        with pytest.raises(ValueError):
            PathSet(gains=[1.0], aoa=[2.0], aod=[0.1], powers=[1.0])
        with pytest.raises(ValueError):
            PathSet(gains=[1.0], aoa=[0.1], aod=[0.1], powers=[-1.0])
        with pytest.raises(ValueError):
            PathSet(gains=[], aoa=[], aod=[], powers=[])


class TestSynthesizeChannel:
    def test_single_path_rank_one_unit_norm(self):
        paths = PathSet(gains=[1.0], aoa=[0.3], aod=[-0.7], powers=[1.0])
        h = synthesize_channel(paths, ArrayGeometry(8), ArrayGeometry(4))
        assert h.shape == (4, 8)
        assert np.linalg.matrix_rank(h) == 1
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gains_give_zero_matrix(self):
        paths = PathSet(gains=[0.0, 0.0], aoa=[0.1, 0.2], aod=[0.3, 0.4], powers=[0.5, 0.5])
        h = synthesize_channel(paths, ArrayGeometry(8), ArrayGeometry(4))
        assert np.all(h == 0)

    def test_two_orthogonal_on_grid_paths_add_in_energy(self):
        # Distinct grid points on both ends make the two rank-one terms orthogonal.
        aod = np.arcsin(grid_sines(8)[[2, 5]])
        aoa = np.arcsin(grid_sines(4)[[1, 3]])
        paths = PathSet(gains=[1.0, 1.0], aoa=aoa, aod=aod, powers=[0.5, 0.5])
        h = synthesize_channel(paths, ArrayGeometry(8), ArrayGeometry(4))
        assert np.linalg.norm(h) ** 2 == pytest.approx(2.0, abs=1e-10)


class TestToBeamDomain:
    def setup_method(self):
        self.bs = ArrayGeometry(8)
        self.ut = ArrayGeometry(4)
        self.a_bs = sampling_matrix(self.bs)
        self.a_ut = sampling_matrix(self.ut)

    def test_zero_maps_to_zero(self):
        out = to_beam_domain(np.zeros((4, 8)), self.a_ut, self.a_bs)
        assert out.shape == (4, 8) and np.all(out == 0)

    def test_on_grid_single_path_is_one_entry(self):
        paths = PathSet(
            gains=[1.0],
            aoa=[np.arcsin(grid_sines(4)[1])],
            aod=[np.arcsin(grid_sines(8)[3])],
            powers=[1.0],
        )
        h = synthesize_channel(paths, self.bs, self.ut)
        hb = to_beam_domain(h, self.a_ut, self.a_bs)
        assert abs(abs(hb[1, 3]) - 1.0) < 1e-10
        rest = np.abs(hb).copy()
        rest[1, 3] = 0.0
        assert np.max(rest) < 1e-10

    def test_off_grid_peak_lands_on_nearest_grid_pair(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            paths = sample_paths(1, rng)
            h = synthesize_channel(paths, self.bs, self.ut)
            hb = to_beam_domain(h, self.a_ut, self.a_bs)
            n_best, m_best = np.unravel_index(np.argmax(np.abs(hb)), hb.shape)
            assert m_best == nearest_grid_index(np.sin(paths.aod[0]), 8)
            assert n_best == nearest_grid_index(np.sin(paths.aoa[0]), 4)

    def test_norm_preserved_for_random_channels(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            paths = sample_paths(3, rng)
            h = synthesize_channel(paths, self.bs, self.ut)
            hb = to_beam_domain(h, self.a_ut, self.a_bs)
            assert abs(np.linalg.norm(hb) - np.linalg.norm(h)) <= 1e-10 * np.linalg.norm(h)

    def test_on_grid_exact_sparsity(self):
        rng = np.random.default_rng(9)
        for n_p in (1, 2, 4):
            paths = sample_paths(n_p, rng, grid=(8, 4))
            h = synthesize_channel(paths, self.bs, self.ut)
            hb = np.abs(to_beam_domain(h, self.a_ut, self.a_bs))
            assert int(np.sum(hb > 1e-8)) == n_p
            assert np.all(hb[hb <= 1e-8] < 1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            to_beam_domain(np.zeros((4, 8)), self.a_bs, self.a_ut)

    def test_non_unitary_grid_rejected(self):
        # A ULA with 0.3-wavelength spacing steered onto the same sine grid:
        # its columns are not orthogonal.
        n = 4
        a = np.exp(-1j * np.outer(np.arange(n), 0.6 * np.pi * grid_sines(n))) / np.sqrt(n)
        with pytest.raises(ValueError, match="not unitary"):
            to_beam_domain(np.zeros((n, 8)), a, self.a_bs)


class TestBeamCovariances:
    def setup_method(self):
        self.bs = ArrayGeometry(8)
        self.ut = ArrayGeometry(4)

    def test_on_grid_single_path_exact_projectors(self):
        paths = PathSet(
            gains=[1.0],
            aoa=[np.arcsin(grid_sines(4)[2])],
            aod=[np.arcsin(grid_sines(8)[5])],
            powers=[1.0],
        )
        cov = beam_covariances(paths, self.bs, self.ut)
        e_m = np.zeros(8)
        e_m[5] = 1.0
        e_n = np.zeros(4)
        e_n[2] = 1.0
        np.testing.assert_allclose(cov.r_bs, np.outer(e_m, e_m), atol=1e-12)
        np.testing.assert_allclose(cov.r_ut, np.outer(e_n, e_n), atol=1e-12)

    def test_traces_equal_total_power(self):
        rng = np.random.default_rng(21)
        paths = sample_paths(5, rng)
        cov = beam_covariances(paths, self.bs, self.ut)
        for mat in (cov.r_bs, cov.r_ut, cov.lambda_full):
            assert np.trace(mat).real == pytest.approx(paths.powers.sum(), abs=1e-12)

    def test_hermitian_psd(self):
        paths = sample_paths(4, np.random.default_rng(22))
        cov = beam_covariances(paths, self.bs, self.ut)
        for mat in (cov.r_bs, cov.r_ut, cov.lambda_full):
            assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() >= -1e-10 * np.trace(mat).real

    def test_lambda_rank_bounded_by_path_count(self):
        for n_p in (1, 3, 5):
            paths = sample_paths(n_p, np.random.default_rng(n_p))
            lam = beam_covariances(paths, self.bs, self.ut).lambda_full
            eigs = np.linalg.eigvalsh(lam)
            assert int(np.sum(eigs > 1e-10 * np.trace(lam).real)) <= n_p

    def test_lambda_matches_kron_of_path_factors(self):
        # lambda = sum_p power_p (w_p^* kron u_p)(w_p^* kron u_p)^H, checked
        # against an independent assembly through np.kron per path; the
        # factor's column p is sqrt(power_p) (w_p^* kron u_p).
        paths = sample_paths(3, np.random.default_rng(4))
        u, w = beam_path_factors(paths, self.bs, self.ut)
        expected = np.zeros((32, 32), dtype=complex)
        factor = beam_covariance_factor(paths, self.bs, self.ut)[0]
        assert factor.shape == (32, 3)
        for p in range(3):
            v = np.kron(w[:, p].conj(), u[:, p])
            expected += paths.powers[p] * np.outer(v, v.conj())
            np.testing.assert_allclose(factor[:, p], np.sqrt(paths.powers[p]) * v, atol=1e-15)
        cov = beam_covariances(paths, self.bs, self.ut)
        np.testing.assert_allclose(cov.lambda_full, expected, atol=1e-12)

    @pytest.mark.parametrize("m, n_ut, on_grid", [(16, 4, False), (128, 4, False),
                                                  (16, 4, True)])
    def test_factor_gains_are_the_covariance_diagonals(self, m, n_ut, on_grid):
        # bs_gains = |w|^2 powers and ut_gains = |u|^2 powers are the
        # diagonals of the dense r_bs and r_ut, without forming them; the
        # powers are unequal, so each gain must weight its own path.
        rng = np.random.default_rng(m + on_grid)
        bs, ut = ArrayGeometry(m), ArrayGeometry(n_ut)
        for n_p in (1, 3, 4):
            drawn = sample_paths(n_p, rng, grid=(m, n_ut) if on_grid else None)
            paths = PathSet(gains=drawn.gains, aoa=drawn.aoa, aod=drawn.aod,
                            powers=rng.dirichlet(np.ones(n_p)))
            _, bs_gains, ut_gains = beam_covariance_factor(paths, bs, ut)
            cov = beam_covariances(paths, bs, ut)
            for gains, dense in ((bs_gains, cov.r_bs), (ut_gains, cov.r_ut)):
                diag = np.real(np.diag(dense))
                assert gains.shape == diag.shape and gains.dtype == float
                np.testing.assert_allclose(gains, diag, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("m", [16, 128])
    def test_bs_profile_matches_fejer_kernel(self, m):
        # A path delta beams off beam k (sine 2k/M - 1, spacing 2/M) puts the
        # Fejer kernel sin^2(pi delta) / (M^2 sin^2(pi delta / M)) of its power
        # there; the kernel's period M covers the wrap at sine +-1.
        paths = sample_paths(6, np.random.default_rng(40 + m))
        beam_sines = 2 * np.arange(m) / m - 1
        delta = (np.sin(paths.aod)[None, :] - beam_sines[:, None]) * m / 2
        assert np.min(np.abs(delta - np.round(delta))) > 1e-3  # off-grid draw
        fejer = np.sin(np.pi * delta) ** 2 / (m**2 * np.sin(np.pi * delta / m) ** 2)
        r_bs = beam_covariances(paths, ArrayGeometry(m), self.ut).r_bs
        np.testing.assert_allclose(np.real(np.diag(r_bs)), fejer @ paths.powers,
                                   rtol=0, atol=1e-12)

    def test_factor_maps_whitened_gains_to_the_beam_channel(self):
        # F @ (gains / sqrt(powers)) = sum_p gain_p (w_p^* kron u_p) is the
        # column-stacked beam-domain channel of the realized draw.
        rng = np.random.default_rng(30)
        a_ut, a_bs = sampling_matrix(self.ut), sampling_matrix(self.bs)
        for n_p in (1, 3, 6):
            # Unequal path powers: a sine-uniform draw with Dirichlet powers.
            drawn = sample_paths(n_p, rng)
            powers = rng.dirichlet(np.ones(n_p))
            paths = PathSet(gains=drawn.gains * np.sqrt(n_p * powers), aoa=drawn.aoa,
                            aod=drawn.aod, powers=powers)
            hb = to_beam_domain(synthesize_channel(paths, self.bs, self.ut), a_ut, a_bs)
            factor = beam_covariance_factor(paths, self.bs, self.ut)[0]
            np.testing.assert_allclose(vec(hb), factor @ (paths.gains / np.sqrt(paths.powers)),
                                       rtol=0, atol=1e-14)

    def test_concentration_improves_with_refinement(self):
        # A path aligned with the 32-beam grid but off the 16-beam grid: the
        # captured fraction of the strongest beams can only grow as the grid
        # refines.  (The trend is offset dependent at finite array sizes, so
        # the check pins an angle whose offset vanishes under refinement.)
        theta = np.arcsin(2 * 21 / 32 - 1)
        paths = PathSet(gains=[1.0], aoa=[0.1], aod=[theta], powers=[1.0])
        fractions = []
        for m in (16, 32, 64, 128):
            diag = np.real(np.diag(
                beam_covariances(paths, ArrayGeometry(m), ArrayGeometry(2)).r_bs
            ))
            fractions.append(np.sort(diag)[::-1][:6].sum() / diag.sum())
        for earlier, later in zip(fractions, fractions[1:]):
            assert later >= earlier - 1e-12


class TestVecConvention:
    def test_vec_of_product_matches_kron_identity(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        np.testing.assert_allclose(vec(a @ x @ b), np.kron(b.T, a) @ vec(x), atol=1e-12)

