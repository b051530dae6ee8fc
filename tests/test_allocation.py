"""Beam ranking, disjoint allocation and interference neutralization."""

import dataclasses

import numpy as np
import pytest

from beamkey.allocation import (
    allocate_bs_beams,
    allocate_ut_beams,
    allocation_summary,
    build_matrices,
    neutralization_residual,
    rank_beams,
)
from beamkey.channel import (
    PathSet,
    beam_covariance_factor,
    beam_covariances,
    grid_sines,
    sample_paths,
)
from beamkey.experiments import Scenario
from beamkey.keyrate import rate_table
from reference_rates import psd_sqrt


def on_grid_paths(bs_idx, ut_idx, m, n, power=None):
    k = len(bs_idx)
    power = power if power is not None else np.full(k, 1.0 / k)
    return PathSet(
        gains=np.sqrt(power),
        aoa=np.arcsin(grid_sines(n)[np.asarray(ut_idx)]),
        aod=np.arcsin(grid_sines(m)[np.asarray(bs_idx)]),
        powers=power,
    )


class TestRankBeams:
    def test_basic_ordering(self):
        np.testing.assert_array_equal(rank_beams([0.1, 0.9, 0.5]), [1, 2, 0])

    def test_ties_break_by_index(self):
        np.testing.assert_array_equal(rank_beams([0.5, 0.5, 0.5, 0.5]), [0, 1, 2, 3])

    def test_on_grid_single_path_puts_its_beam_first(self):
        cov = beam_covariances(on_grid_paths([5], [2], 8, 4), 8, 4)
        assert rank_beams(np.real(np.diag(cov.r_bs)))[0] == 5

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = rng.random(16)
            base = rank_beams(d)
            for c in (1e-9, 0.3, 7.0, 1e9):
                np.testing.assert_array_equal(base, rank_beams(c * d))

    def test_rejects_negative_or_nonfinite(self):
        with pytest.raises(ValueError):
            rank_beams([1.0, -0.1])
        with pytest.raises(ValueError):
            rank_beams([np.nan, 1.0])


class TestAllocateBsBeams:
    def test_no_conflict(self):
        sets = allocate_bs_beams([np.array([9.0, 1, 0, 0]), np.array([1.0, 9, 0, 0])], 1)
        assert [s.tolist() for s in sets] == [[0], [1]]

    def test_conflict_resolved_round_robin(self):
        # User 0 claims beam 0 first; user 1's best remaining is beam 1.
        sets = allocate_bs_beams([np.array([9.0, 1, 0, 0]), np.array([8.0, 7, 0, 0])], 1)
        assert [s.tolist() for s in sets] == [[0], [1]]

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            allocate_bs_beams([np.ones(4)] * 3, 2)

    def test_disjointness_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            diags = [rng.random(32) for _ in range(4)]
            sets = allocate_bs_beams(diags, 6)
            flat = np.concatenate(sets)
            assert len(set(flat.tolist())) == flat.size

    def test_returns_own_top_sets_when_disjoint(self):
        # Users whose top beams never collide simply keep their own ranking.
        rng = np.random.default_rng(23)
        base = rng.random(32) * 0.01
        diags = []
        for k in range(4):
            d = base.copy()
            d[8 * k:8 * k + 6] += 1.0 + rng.random(6)
            diags.append(d)
        sets = allocate_bs_beams(diags, 6)
        for k, s in enumerate(sets):
            np.testing.assert_array_equal(np.sort(s), np.sort(rank_beams(diags[k])[:6]))

    def test_picks_in_descending_gain_order(self):
        d = np.array([0.1, 0.9, 0.5, 0.7])
        sets = allocate_bs_beams([d], 3)
        np.testing.assert_array_equal(sets[0], [1, 3, 2])

    def test_prefix_closed(self):
        # The runners allocate once at the largest beam count and keep each
        # user's leading picks.  Gains from a few levels force collisions
        # and ties; continuous gains do neither.
        rng = np.random.default_rng(31)
        for _ in range(200):
            n_beams, n_users = int(rng.integers(1, 33)), int(rng.integers(1, 7))
            if n_users > n_beams:
                continue
            levels = int(rng.choice([2, 4, 1000]))
            diags = [rng.integers(0, levels, n_beams) / levels for _ in range(n_users)]
            widest = allocate_bs_beams(diags, n_beams // n_users)
            for m in range(1, n_beams // n_users + 1):
                for k, picks in enumerate(allocate_bs_beams(diags, m)):
                    np.testing.assert_array_equal(picks, widest[k][:m])


class TestAllocateUtBeams:
    def test_all_beams(self):
        np.testing.assert_array_equal(
            np.sort(allocate_ut_beams(np.array([1.0, 2, 3, 4]), 4)), [0, 1, 2, 3]
        )

    def test_top_two(self):
        assert set(allocate_ut_beams(np.array([0.0, 5, 3, 0]), 2).tolist()) == {1, 2}

    def test_on_grid_single_path(self):
        cov = beam_covariances(on_grid_paths([5], [2], 8, 4), 8, 4)
        assert allocate_ut_beams(np.real(np.diag(cov.r_ut)), 1).tolist() == [2]

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            allocate_ut_beams(np.ones(4), 5)


class TestBuildMatrices:
    def test_indices_and_sizes_only(self):
        alloc = build_matrices([[3, 1], [0, 5]], [[2, 0], [1, 0]], 128, [4, 2])
        assert [f.name for f in dataclasses.fields(alloc)] == [
            "bs_beams", "ut_beams", "bs_antennas", "ut_counts"]
        assert (alloc.bs_antennas, alloc.ut_counts, alloc.n_users) == (128, [4, 2], 2)
        assert alloc.bs_beams.tolist() == [[3, 1], [0, 5]]
        assert alloc.ut_beams.tolist() == [[2, 0], [1, 0]]
        for beams in (alloc.bs_beams, alloc.ut_beams):
            assert not beams.flags.writeable

    def test_overlapping_bs_sets_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            build_matrices([[0, 1], [1, 2]], [[0], [0]], 128, [4] * 2)

    @pytest.mark.parametrize("ut_beams", [[4], [-1], [1, 1]])
    def test_invalid_receive_beams_rejected(self, ut_beams):
        with pytest.raises(ValueError, match="invalid receive beam indices for user 1"):
            build_matrices([[0], [1]], [[0], ut_beams], 128, [4] * 2)

    @pytest.mark.parametrize("bs_beams, message", [
        ([0, 8], "transmit beam index out of range for user 0"),
        ([-1], "transmit beam index out of range for user 0"),
        ([2, 2], "repeated transmit beam for user 0"),
    ], ids=["past_end", "negative", "repeated"])
    def test_invalid_transmit_beams_rejected(self, bs_beams, message):
        # 8 transmit beams; a negative index would otherwise wrap around silently.
        with pytest.raises(ValueError, match=message):
            build_matrices([bs_beams], [[0]], 8, [4])

    def test_mismatched_bs_beam_counts_rejected(self):
        # All users share one probing burst, so they need equal beam counts.
        with pytest.raises(ValueError, match="user 1 has 1 transmit"):
            build_matrices([[0, 1], [2]], [[0, 1], [0, 1]], 16, [4, 2])

    def test_mismatched_ut_beam_counts_rejected(self):
        with pytest.raises(ValueError, match="user 1 has 2 transmit and 1 receive"):
            build_matrices([[0, 1], [2, 3]], [[0, 1], [0]], 16, [4, 2])

    def test_ut_counts_length_must_match_users(self):
        with pytest.raises(ValueError, match="one entry per user"):
            build_matrices([[0], [1]], [[0], [1]], 128, [4])

    def test_no_users_rejected(self):
        with pytest.raises(ValueError, match="at least one user"):
            build_matrices([], [], 128, [])


def residual(factors, alloc, k, kp):
    """User k's probing leak into user k', from its block of the rate table."""
    block = rate_table(factors, alloc)[k][kp]
    return neutralization_residual(block, factors[kp].conj().T @ factors[kp])


class TestNeutralizationResidual:
    def setup_method(self):
        self.bs = 8
        self.ut = 4

    def test_zero_covariance_gives_zero(self):
        assert neutralization_residual(np.zeros((4, 3)), np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("m, counts, n_p, m_e, on_grid", [
        (16, [4, 2, 3], 2, 2, False),
        (16, [4, 4, 2], 2, 2, True),
        (32, [4, 4, 4, 4], 6, 4, False),
        (128, [4] * 6, 6, 6, False),
    ])
    def test_table_is_the_per_pair_calls(self, m, counts, n_p, m_e, on_grid):
        # One call on every block against every Gram matrix gives, entry by
        # entry, the bits of one call per pair.
        rng = np.random.default_rng(m + n_p)
        for _ in range(5):
            scenario = Scenario.draw(rng, n_p, m, counts, on_grid)
            blocks = rate_table(scenario.factors, scenario.allocate(m_e, 2))
            table = neutralization_residual(blocks, scenario.grams)
            assert table.shape == (len(counts), len(counts))
            for k in range(len(counts)):
                for kp in range(len(counts)):
                    single = neutralization_residual(blocks[k][kp], scenario.grams[kp])
                    assert type(single) is float
                    assert table[k, kp] == single

    def test_disjoint_on_grid_users_neutralize(self):
        cov0 = beam_covariances(on_grid_paths([0, 1], [0, 1], 8, 4), self.bs, self.ut)
        cov1 = beam_covariances(on_grid_paths([4, 5], [2, 3], 8, 4), self.bs, self.ut)
        sets = allocate_bs_beams(
            [np.real(np.diag(cov0.r_bs)), np.real(np.diag(cov1.r_bs))], 2
        )
        ut_sets = [
            allocate_ut_beams(np.real(np.diag(c.r_ut)), 2) for c in (cov0, cov1)
        ]
        alloc = build_matrices(sets, ut_sets, 8, [4] * 2)
        factors = [psd_sqrt(c.lambda_full) for c in (cov0, cov1)]
        for k, kp in ((0, 1), (1, 0)):
            assert residual(factors, alloc, k, kp) < 1e-10

    def test_shared_beam_breaks_neutralization(self):
        # Both users sit on beam 3; probing one through that beam leaks the
        # other's whole path power.  A power other than 1 tells the residual
        # apart from the one a dense covariance passed as the factor gives
        # (its square, 0.25).
        paths = on_grid_paths([3], [2], 8, 4, power=np.array([0.5]))
        factor, _, _ = beam_covariance_factor(paths, self.bs, self.ut)
        alloc = build_matrices([[3]], [[2]], 8, [4])
        assert residual([factor], alloc, 0, 0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m, n_ut, n_p", [(8, 4, 3), (16, 2, 2), (128, 4, 6)])
    def test_factor_residual_matches_dense(self, m, n_ut, n_p):
        rng = np.random.default_rng(m + n_p)
        paths = sample_paths(n_p, rng)
        factor, bs_gains, _ = beam_covariance_factor(paths, m, n_ut)
        lam = beam_covariances(paths, m, n_ut).lambda_full
        strongest = allocate_bs_beams([bs_gains], 2)[0]
        for beams in (strongest, rng.choice(m, size=2, replace=False)):
            ut_beams = rng.choice(n_ut, size=2, replace=False)
            sel_p = np.eye(m, dtype=complex)[:, beams]
            sel_c = np.eye(n_ut, dtype=complex)[:, ut_beams]
            dense = np.linalg.norm(np.kron(sel_p.T, sel_c.conj().T) @ lam)
            alloc = build_matrices([beams], [ut_beams], m, [n_ut])
            assert residual([factor], alloc, 0, 0) == pytest.approx(dense, rel=1e-10, abs=1e-15)


class TestAllocationJson:
    def test_round_trip_fields(self):
        alloc = build_matrices([[5, 2], [0, 7]], [[1, 0], [3, 2]], 8, [4] * 2)
        gains = [np.linspace(0, 1, 8), np.linspace(1, 0, 8)]
        doc = allocation_summary(alloc, gains)
        assert doc["users"][0]["bs_beams"] == [5, 2]
        assert doc["users"][1]["ut_beams"] == [3, 2]
        assert doc["users"][0]["bs_beam_gains"] == [gains[0][5], gains[0][2]]
