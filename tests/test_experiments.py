"""Experiment runners: config validation, determinism, output schema."""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from beamkey import allocation, channel, experiments
from beamkey._util import complex_normal, vec
from beamkey.allocation import (
    allocate_bs_beams,
    allocate_ut_beams,
    allocation_summary,
    build_matrices,
    neutralization_residual,
)
from beamkey.channel import (
    PathSet,
    beam_covariance_factor,
    beam_covariances,
    beam_path_factors,
    sample_paths,
    sampling_matrix,
    synthesize_channel,
)
from beamkey.experiments import (
    DEFAULT_SNR_GRID,
    PROBE_CHUNK,
    ConfigError,
    Scenario,
    ScenarioConfig,
    _mean_trial_rates,
    _trial_seeds,
    empirical_downlink_covariance,
    run_beam_gain_profile,
    run_multiuser_unit_rate,
    run_overhead_comparison,
    run_single_user_rate,
    run_validation_suite,
    table_to_csv,
    write_result,
)
from beamkey.keyrate import (
    assemble_observation_covariances,
    full_sampling_rate,
    gaussian_mi_oracle,
    psd_eigh,
    rate_factors,
    rate_table,
    secret_key_rate,
)
from beamkey.probing import downlink_maps, downlink_probe, uplink_probe
from result_rows import rows


def small_single_user(**overrides):
    base = dict(
        bs_antennas=16, users=1, ut_antennas=4, n_paths=3, bs_beams=3, ut_beams=2,
        snr_db_grid=[0.0, 10.0, 20.0], trials=3, seed=11, bs_beams_compare=[3, 2],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def small_multi_user(**overrides):
    base = dict(
        bs_antennas=16, users=3, ut_antennas=4, n_paths=2, bs_beams=2, ut_beams=2,
        snr_db_grid=[0.0, 10.0], trials=3, seed=12, bs_beams_compare=[2, 1],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_default_paper_config_is_valid(self):
        ScenarioConfig().validate()

    def test_disjointness_infeasible(self):
        with pytest.raises(ConfigError, match="disjoint"):
            ScenarioConfig(bs_antennas=16, users=4, bs_beams=6,
                           bs_beams_compare=[6, 4]).validate()

    def test_ut_beams_exceeding_antennas(self):
        with pytest.raises(ConfigError, match="ut_beams"):
            ScenarioConfig(ut_antennas=4, ut_beams=5).validate()

    def test_trials_positive(self):
        with pytest.raises(ConfigError, match="trials"):
            ScenarioConfig(trials=0).validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ScenarioConfig.from_dict({"bogus_knob": 3})

    @pytest.mark.parametrize("doc, field", [
        ({"users": 2.5}, "users"),
        ({"trials": "3"}, "trials"),
        ({"users": True}, "users"),
        ({"bs_beams_compare": [6, 4.7]}, "bs_beams_compare"),
        ({"ut_antennas": [4, "4"]}, "ut_antennas"),
        ({"snr_db_grid": "0,10"}, "snr_db_grid"),
        ({"angle_mode": 1}, "angle_mode"),
    ])
    def test_mistyped_field_rejected(self, doc, field):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            ScenarioConfig.from_dict(doc)

    @pytest.mark.parametrize("overrides, field", [
        ({"users": 2.5}, "users"),
        ({"trials": "3"}, "trials"),
        ({"users": True}, "users"),
        ({"bs_beams_compare": [6, 4.7]}, "bs_beams_compare"),
    ])
    def test_mistyped_field_rejected_when_built_directly(self, overrides, field):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            ScenarioConfig(**overrides).validate()

    def test_well_typed_fields_accepted(self):
        cfg = ScenarioConfig.from_dict({
            "users": 3, "ut_antennas": [4, 3, 2], "ut_beams": 2,
            "snr_db_grid": [0, 2.5], "bs_beams_compare": [6, 4], "angle_mode": "off_grid",
        })
        cfg.validate()
        assert cfg.snr_db_grid == (0, 2.5)

    def test_per_user_antenna_lists(self):
        cfg = ScenarioConfig(users=3, ut_antennas=[4, 3, 2], ut_beams=2)
        cfg.validate()
        assert cfg.ut_antenna_list() == [4, 3, 2]

    @pytest.mark.parametrize("snr_db", [-4000.0, 3200.0, 4000.0, 10 ** 400, np.nan, np.inf],
                             ids=["noise_overflows", "noise_subnormal", "noise_zero",
                                  "int_beyond_float", "nan", "inf"])
    def test_snr_whose_noise_power_leaves_float64_rejected(self, snr_db):
        # The runners evaluate at 10^(-SNR/10); it must be a finite normal float64.
        with pytest.raises(ConfigError, match="snr_db_grid"):
            ScenarioConfig(snr_db_grid=[0.0, snr_db]).validate()

    def test_extreme_snr_with_normal_noise_power_accepted(self):
        cfg = ScenarioConfig(snr_db_grid=[-3082.0, -3000.0, 3075.0, 3076.0])
        cfg.validate()
        sigmas = cfg.noise_powers()
        assert np.all(np.isfinite(sigmas)) and np.all(sigmas >= np.finfo(float).tiny)

    def test_hash_stable_and_sensitive(self):
        a, b = ScenarioConfig(), ScenarioConfig()
        assert a.config_hash() == b.config_hash()
        assert ScenarioConfig(seed=1).config_hash() != a.config_hash()


class TestConfigCheckedWhenBuilt:
    def test_invalid_config_raises_without_validate(self):
        with pytest.raises(ConfigError, match="trials must be at least 1"):
            ScenarioConfig(trials=0)

    def test_fields_cannot_be_reassigned(self):
        cfg = ScenarioConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.trials = 0
        assert cfg.trials == 100

    def test_list_fields_cannot_be_changed_in_place(self):
        cfg = ScenarioConfig(users=2, bs_antennas=16, ut_antennas=[4, 2], ut_beams=2)
        with pytest.raises(AttributeError):
            cfg.bs_beams_compare.append(100)
        with pytest.raises(AttributeError):
            cfg.ut_antennas.append(4)
        assert (cfg.bs_beams_compare, cfg.ut_antennas) == ((6, 4), (4, 2))
        assert cfg.resolved()["bs_beams_compare"] == [6, 4]

    def test_integer_ut_antennas_still_broadcasts(self):
        cfg = dataclasses.replace(ScenarioConfig(users=2, bs_antennas=32), users=3)
        assert cfg.ut_antennas == 4
        assert cfg.ut_antenna_list() == [4, 4, 4]


class TestSingleUserRate:
    def test_requires_single_user(self):
        with pytest.raises(ConfigError, match="users = 1"):
            run_single_user_rate(small_multi_user())

    def test_orderings_and_schema(self):
        res = run_single_user_rate(small_single_user())
        assert len(rows(res)) == 3 * 3  # snr points x schemes
        by_snr = {}
        for rec in rows(res):
            by_snr.setdefault(rec["snr_db"], {})[rec["scheme"]] = rec["rate_bits"]
        for snr, schemes in by_snr.items():
            assert schemes["perfect"] >= schemes["reduced_me3"] - 1e-9
            assert schemes["reduced_me3"] >= schemes["reduced_me2"] - 1e-9
        assert res.metadata["config"]["bs_antennas"] == 16
        assert res.metadata["tool_version"]

    def test_deterministic(self):
        a = run_single_user_rate(small_single_user())
        b = run_single_user_rate(small_single_user())
        assert a.tables == b.tables
        assert table_to_csv(a.tables[a.name]) == table_to_csv(b.tables[b.name])

    def test_workers_do_not_change_results(self):
        a = run_single_user_rate(small_single_user(workers=1))
        b = run_single_user_rate(small_single_user(workers=3))
        assert a.tables == b.tables


class TestBeamGainProfile:
    def test_on_grid_gain_support(self):
        cfg = small_multi_user(angle_mode="on_grid")
        res = run_beam_gain_profile(cfg)
        assert len(rows(res)) == 16
        for k in range(cfg.users):
            gains = np.array([rec[f"gain_user_{k}"] for rec in rows(res)])
            assert int(np.sum(gains > 1e-8)) == cfg.n_paths
            assert np.all(gains[gains <= 1e-8] < 1e-10)

    def test_single_user_emits_no_pairs(self):
        res = run_beam_gain_profile(small_single_user())
        assert rows(res, "adjacent_attenuation") == []

    def test_pair_rows_cover_adjacent_users(self):
        res = run_beam_gain_profile(small_multi_user())
        pair_rows = rows(res, "adjacent_attenuation")
        assert len(pair_rows) == 2 * (3 - 1)
        assert {"user", "neighbor", "attenuation_db"} <= set(pair_rows[0])
        assert "median_adjacent_attenuation_db" in res.metadata


class TestOverheadComparison:
    def test_values_scale_with_users(self):
        res = run_overhead_comparison(ScenarioConfig(trials=1))
        by_users = {rec["users"]: rec for rec in rows(res)}
        assert by_users[6]["overhead_traditional"] == 152
        assert by_users[1]["overhead_traditional"] == 132
        assert all(rec["overhead_reused"] == 10 for rec in rows(res))

    def test_record_count(self):
        res = run_overhead_comparison(small_multi_user())
        assert [rec["users"] for rec in rows(res)] == [1, 2, 3]


def hand_drawn_paths(rng, n_paths, m, n, on_grid):
    """One user's links, drawn in the stream order of the runners: the
    departure, then the arrival sines (grid indices on grid), then the
    complex gains."""
    if on_grid:
        aod = np.arcsin(2.0 * rng.choice(m, size=n_paths, replace=False) / m - 1.0)
        aoa = np.arcsin(2.0 * rng.choice(n, size=n_paths, replace=False) / n - 1.0)
    else:
        open_interval = (np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0))
        aod = np.arcsin(np.clip(rng.uniform(-1.0, 1.0, size=n_paths), *open_interval))
        aoa = np.arcsin(np.clip(rng.uniform(-1.0, 1.0, size=n_paths), *open_interval))
    powers = np.full(n_paths, 1.0 / n_paths)
    return PathSet(complex_normal(rng, n_paths, powers), aoa, aod, powers)


class TestScenario:
    """The one draw -> allocate route of every runner and check."""

    @pytest.mark.parametrize("n_trials", [5, 1], ids=["block", "one_trial"])
    @pytest.mark.parametrize("on_grid", [False, True], ids=["off_grid", "on_grid"])
    def test_draw_and_allocate_are_the_explicit_chain(self, on_grid, n_trials):
        # Every trial of a block, bit for bit, is the chain of per-user calls
        # it replaces, and leaves each trial's generator where they leave it.
        m, counts, n_p = 16, [4, 2, 3], 2
        seeds = np.random.SeedSequence(21).spawn(n_trials)
        rngs = [np.random.default_rng(s) for s in seeds]
        block = Scenario.draw_trials(rngs, n_p, m, counts, on_grid)
        alloc = block.allocate(2, 2)
        assert alloc.bs_beams.shape == (n_trials, 3, 2)
        for t, seed in enumerate(seeds):
            ref_rng, hand_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            diags_bs, diags_ut = [], []
            for k, n in enumerate(counts):
                ref = sample_paths(n_p, ref_rng, grid=(m, n) if on_grid else None)
                hand = hand_drawn_paths(hand_rng, n_p, m, n, on_grid)
                for name in ("gains", "aoa", "aod", "powers"):
                    assert np.array_equal(getattr(block.paths[t, k], name), getattr(ref, name))
                    assert np.array_equal(getattr(ref, name), getattr(hand, name))
                factor, bs_gains, ut_gains = beam_covariance_factor(ref, m, n)
                assert np.array_equal(block.factors[k][t], factor)
                assert np.array_equal(block.bs_gains[t, k], bs_gains)
                assert np.array_equal(block.ut_gains[k][t], ut_gains)
                assert np.array_equal(block.grams[t, k], factor.conj().T @ factor)
                diags_bs.append(bs_gains)
                diags_ut.append(ut_gains)
            # the stream is left where the per-user draws leave it
            assert rngs[t].random() == ref_rng.random() == hand_rng.random()
            for k, bs_set in enumerate(allocate_bs_beams(diags_bs, 2)):
                assert np.array_equal(alloc.bs_beams[t, k], bs_set)
                assert np.array_equal(alloc.ut_beams[t, k], allocate_ut_beams(diags_ut[k], 2))
        one = Scenario.draw(np.random.default_rng(seeds[0]), n_p, m, counts, on_grid)
        assert np.array_equal(one.grams, block.grams[0])
        assert np.array_equal(one.allocate(2, 2).bs_beams, alloc.bs_beams[0])

    def test_gains_allocate_as_the_dense_diagonals(self):
        # The beam gains replace the diagonals of the dense r_bs and r_ut
        # without moving a beam: off-grid reference-size draws allocate alike.
        # The dense r_bs = W diag(powers) W^H and r_ut = U diag(powers) U^H
        # are formed as `beam_covariances` forms them, without its 512 x 512
        # lambda; hermitizing leaves the real diagonal unchanged.
        def dense_diagonal(signatures, powers):
            return np.real(np.diag((signatures * powers) @ signatures.conj().T))

        rng = np.random.default_rng(2025)
        for _ in range(50):
            scenario = Scenario.draw(rng, 6, 128, [4] * 6)
            diags_bs, diags_ut = [], []
            for p in scenario.paths:
                u, w = beam_path_factors(p, 128, 4)
                diags_bs.append(dense_diagonal(w, p.powers))
                diags_ut.append(dense_diagonal(u, p.powers))
            for m_e in (6, 4):
                alloc = scenario.allocate(m_e, 4)
                for k, bs_set in enumerate(allocate_bs_beams(diags_bs, m_e)):
                    assert np.array_equal(alloc.bs_beams[k], bs_set)
                    assert np.array_equal(alloc.ut_beams[k], allocate_ut_beams(diags_ut[k], 4))

    # The largest residual has k < k' at seed 23 and k > k' at seed 28.
    @pytest.mark.parametrize("seed", [23, 28])
    def test_max_residual_over_ordered_pairs(self, seed):
        scenario = Scenario.draw(np.random.default_rng(seed), 2, 16, [4, 2, 3])
        table = rate_table(scenario.factors, scenario.allocate(2, 2))
        expected = max(
            neutralization_residual(table[k][kp],
                                    scenario.factors[kp].conj().T @ scenario.factors[kp])
            for k in range(3) for kp in range(3) if kp != k)
        assert scenario.max_residual(table) == expected > 0
        alone = Scenario.from_paths(scenario.paths[:1], 16, [4])
        assert alone.max_residual(rate_table(alone.factors, alone.allocate(2, 2))) == 0.0

    def test_one_grid_per_array_size(self):
        sampling_matrix.cache_clear()
        run_multiuser_unit_rate(small_multi_user(ut_antennas=[4, 2, 4]))
        assert sampling_matrix.cache_info().misses == 3  # 16, 4 and 2 antennas


def dense_spectra(cfg):
    """Eigenvalues of each user's dense covariance in trial 0, drawn the way
    the runners draw them."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.trials)[0])
    bs, ut = cfg.bs_antennas, cfg.ut_antennas
    return [psd_eigh(beam_covariances(sample_paths(cfg.n_paths, rng), bs, ut).lambda_full)[0]
            for _ in range(cfg.users)]


@pytest.mark.parametrize("run, cfg, scheme, column", [
    (run_single_user_rate, small_single_user(trials=1), "perfect", "rate_bits"),
    (run_multiuser_unit_rate, small_multi_user(trials=1), "orthogonal", "rate_user_{k}"),
], ids=["single_user_rate", "multiuser_unit_rate"])
def test_complete_grid_rates_match_dense_spectrum(run, cfg, scheme, column):
    # The runners take each user's spectrum from the P x P Gram matrix of its
    # factor; the dense covariance of the same draw must give the same rates.
    spectra = dense_spectra(cfg)
    for rec in rows(run(cfg)):
        if rec["scheme"] != scheme:
            continue
        noise = 10.0 ** (-rec["snr_db"] / 10.0)
        for k, eigs in enumerate(spectra):
            assert rec[column.format(k=k)] == pytest.approx(
                full_sampling_rate(eigs, noise), rel=1e-10)


@pytest.mark.parametrize("run, cfg, prefix, column", [
    (run_single_user_rate, small_single_user(snr_db_grid=list(DEFAULT_SNR_GRID)),
     "reduced_me", "rate_bits"),
    (run_multiuser_unit_rate, small_multi_user(snr_db_grid=list(DEFAULT_SNR_GRID)),
     "reused_me", "rate_user_{k}"),
    (run_multiuser_unit_rate, small_multi_user(ut_antennas=[4, 2, 8], trials=2,
                                               snr_db_grid=list(DEFAULT_SNR_GRID)),
     "reused_me", "rate_user_{k}"),
], ids=["single_user_rate", "multiuser_unit_rate", "multiuser_mixed_ut_antennas"])
def test_reduced_rates_match_dense_oracle_per_point(run, cfg, prefix, column):
    # The runners evaluate every user's whole SNR grid in one engine call; the
    # Gaussian MI of the dense covariances assembled at each point, for the
    # same draws, is the reference.
    noise = 10.0 ** (-np.asarray(cfg.snr_db_grid) / 10.0)
    oracle = {}
    for seed in _trial_seeds(cfg):
        scenario = Scenario.draw(np.random.default_rng(seed), cfg.n_paths, cfg.bs_antennas,
                                 cfg.ut_antenna_list(), cfg.angle_mode == "on_grid")
        for m_e in cfg.bs_beams_compare:
            alloc = scenario.allocate(m_e, cfg.ut_beams)
            for k in range(cfg.users):
                table = rate_table(scenario.factors, alloc)
                rates = [gaussian_mi_oracle(assemble_observation_covariances(table, k, s2))
                         for s2 in noise]
                oracle.setdefault((m_e, k), []).append(rates)
    checked = 0
    for rec in rows(run(cfg)):
        if not rec["scheme"].startswith(prefix):
            continue
        m_e = int(rec["scheme"][len(prefix):])
        i = list(cfg.snr_db_grid).index(rec["snr_db"])
        for k in range(cfg.users):
            expected = np.mean(oracle[m_e, k], axis=0)[i]
            assert rec[column.format(k=k)] == pytest.approx(expected, rel=1e-10)
            checked += 1
    assert checked == len(noise) * len(cfg.bs_beams_compare) * cfg.users


class TestMultiuserUnitRate:
    def test_one_engine_call_per_beam_count(self, monkeypatch):
        # Every user of an allocation is factored by one call, never one per user.
        calls = []

        def counting(blocks):
            calls.append(blocks.shape[-4])
            return rate_factors(blocks)

        monkeypatch.setattr(experiments, "rate_factors", counting)
        cfg = small_multi_user(trials=1)
        run_multiuser_unit_rate(cfg)
        assert calls == [cfg.users] * len(cfg.bs_beams_compare)

    def test_requires_multiple_users(self):
        with pytest.raises(ConfigError, match="users >= 2"):
            run_multiuser_unit_rate(small_single_user())

    def test_schema_and_determinism(self):
        cfg = small_multi_user()
        res = run_multiuser_unit_rate(cfg)
        assert len(rows(res)) == 2 * 3  # snr points x (2 reused + orthogonal)
        for rec in rows(res):
            assert rec["unit_rate"] == pytest.approx(rec["sum_rate_bits"] / rec["overhead"])
            users_sum = sum(rec[f"rate_user_{k}"] for k in range(cfg.users))
            assert rec["sum_rate_bits"] == pytest.approx(users_sum)
            if rec["scheme"] == "orthogonal":
                assert rec["overhead"] == 16 + 3 * 4
                assert rec["max_neutralization_residual"] is None
            else:
                assert rec["max_neutralization_residual"] >= 0
        again = run_multiuser_unit_rate(cfg)
        assert res.tables == again.tables


def one_trial_at_a_time(cfg):
    """`_mean_trial_rates` as a loop over trials, one engine call per trial
    and beam count."""
    sigmas = cfg.noise_powers()
    rates, residuals = [], []
    for seed in _trial_seeds(cfg):
        scenario = Scenario.draw(np.random.default_rng(seed), cfg.n_paths, cfg.bs_antennas,
                                 cfg.ut_antenna_list(), cfg.angle_mode == "on_grid")
        trial, worst = [], []
        for m_e in cfg.bs_beams_compare:
            table = rate_table(scenario.factors, scenario.allocate(m_e, cfg.ut_beams))
            trial.append(rate_factors(table).rate(sigmas))
            worst.append(scenario.max_residual(table))
        trial.append(scenario.full_sampling_rate(sigmas))
        rates.append(np.stack(trial, axis=1))
        residuals.append(worst)
    return np.stack(rates).mean(axis=0), np.array(residuals).mean(axis=0)


def budget_for(monkeypatch, cfg, trials):
    """Set the block budget so that blocks of `cfg` hold `trials` trials."""
    monkeypatch.setattr(experiments, "BLOCK_BYTES",
                        trials * experiments.trial_working_set(cfg))
    assert experiments.trials_per_block(cfg) == min(trials, cfg.trials)


def block_sizes(cfg):
    """The trials of each block of a rate runner, by `trials_per_block`."""
    size = experiments.trials_per_block(cfg)
    return [min(size, cfg.trials - start) for start in range(0, cfg.trials, size)]


class TestTrialBlocks:
    """The rate runners rate a block of trials per engine call, as many
    trials as the `BLOCK_BYTES` budget holds."""

    TRIALS = 11  # blocks of 2, 3 or 5 leave a shorter last block

    @pytest.mark.parametrize("cfg", [
        small_single_user(trials=TRIALS),
        small_multi_user(trials=TRIALS, angle_mode="on_grid", snr_db_grid=[0.0, 50.0, 100.0]),
        small_multi_user(trials=TRIALS, ut_antennas=[4, 2, 8]),
        small_multi_user(trials=TRIALS, angle_mode="on_grid", ut_antennas=[4, 2, 3]),
    ], ids=["single_user", "multi_user_on_grid", "multi_user_mixed_ut_antennas",
            "multi_user_on_grid_mixed_ut_antennas"])
    def test_blocks_equal_one_trial_at_a_time(self, monkeypatch, cfg):
        # Every block size gives the same bits, the default one included.
        expected_rates, expected_residuals = one_trial_at_a_time(cfg)
        for trials in (None, 1, 2, 3, cfg.trials):
            if trials is not None:
                budget_for(monkeypatch, cfg, trials)
            rates, residuals = _mean_trial_rates(cfg)
            assert np.array_equal(rates, expected_rates), trials
            assert np.array_equal(residuals, expected_residuals), trials

    def test_one_engine_call_per_block_and_beam_count(self, monkeypatch):
        # Each call takes the block's (T, U, U, d, P) table, and every beam
        # count of a block reads the leading rows of one stacked table.
        cfg = small_multi_user(trials=self.TRIALS)
        calls = []

        def counting(blocks):
            calls.append(blocks)
            return rate_factors(blocks)

        monkeypatch.setattr(experiments, "rate_factors", counting)
        for trials in (None, 5):  # the default budget, then uneven blocks
            if trials is not None:
                budget_for(monkeypatch, cfg, trials)
            calls.clear()
            run_multiuser_unit_rate(cfg)
            assert [c.shape for c in calls] == [
                (n, cfg.users, cfg.users, m_e * cfg.ut_beams, cfg.n_paths)
                for n in block_sizes(cfg) for m_e in cfg.bs_beams_compare]
            for wide, narrow in zip(calls[::2], calls[1::2]):
                assert narrow.base is wide.base is not None
        assert block_sizes(cfg) == [5, 5, 1]


class TestOneAllocationPerTrial:
    """The rate runners allocate each trial once, at the largest beam count,
    with one allocation per block of trials."""

    @pytest.mark.parametrize("run, cfg", [
        (run_single_user_rate, small_single_user(trials=7, bs_beams_compare=[2, 3])),
        (run_multiuser_unit_rate, small_multi_user(trials=7)),
    ], ids=["single_user", "multi_user"])
    def test_one_allocate_call_per_block(self, monkeypatch, run, cfg):
        calls, built = [], []
        allocate = Scenario.allocate

        def counting(scenario, m_e, n_e):
            calls.append((m_e, n_e))
            return allocate(scenario, m_e, n_e)

        def building(*args):
            built.append(args)
            return build_matrices(*args)

        monkeypatch.setattr(Scenario, "allocate", counting)
        # Every BeamAllocation is built, and checked, by `build_matrices`,
        # once for all the trials of a block; smaller beam counts build none.
        monkeypatch.setattr(experiments, "build_matrices", building)
        for trials in (None, 5):  # the default budget, then uneven blocks
            if trials is not None:
                budget_for(monkeypatch, cfg, trials)
            calls.clear()
            built.clear()
            run(cfg)
            blocks = block_sizes(cfg)
            assert calls == [(max(cfg.bs_beams_compare), cfg.ut_beams)] * len(blocks)
            assert [np.shape(args[0])[0] for args in built] == blocks
        assert blocks == [5, 2]

    @pytest.mark.parametrize("on_grid", [False, True], ids=["off_grid", "on_grid"])
    def test_smaller_beam_count_is_the_leading_rows(self, on_grid):
        # What the runners rely on: the table of every user's first m
        # transmit beams is the leading m * n_e rows of the widest table,
        # bit for bit, and so are its residuals and rates.
        n_e, widest = 2, 4
        sigmas = small_multi_user().noise_powers()
        for seed in range(5):
            scenario = Scenario.draw(np.random.default_rng(seed), 2, 32, [4, 2, 8], on_grid)
            wide = rate_table(scenario.factors, scenario.allocate(widest, n_e))
            for m in range(1, widest + 1):
                alone = rate_table(scenario.factors, scenario.allocate(m, n_e))
                leading = wide[:, :, : m * n_e]
                assert np.array_equal(alone, leading)
                assert scenario.max_residual(alone) == scenario.max_residual(leading)
                assert np.array_equal(rate_factors(alone).rate(sigmas),
                                      rate_factors(leading).rate(sigmas))

    @pytest.mark.parametrize("run, cfg, complete_grid", [
        (run_single_user_rate, small_single_user(), "perfect"),
        (run_multiuser_unit_rate, small_multi_user(), "orthogonal"),
    ], ids=["single_user", "multi_user"])
    def test_no_beam_counts_leaves_the_complete_grid_rows(self, tmp_path, run, cfg,
                                                          complete_grid):
        # Complete-grid rates do not depend on the beam counts, so a run
        # without any writes the rows of that scheme and nothing else.
        empty = dataclasses.replace(cfg, bs_beams_compare=[])
        got = write_result(run(empty), tmp_path / "empty")
        full = write_result(run(cfg), tmp_path / "full")
        assert [p.name for p in got] == [p.name for p in full]
        csv, full_csv = got[0].read_text().splitlines(), full[0].read_text().splitlines()
        assert csv == full_csv[:1] + [line for line in full_csv if f",{complete_grid}," in line]
        meta, full_meta = (json.loads(p.read_text()) for p in (got[-1], full[-1]))
        assert meta["config"] == empty.resolved()
        assert meta["config_hash"] == empty.config_hash()
        for doc in (meta, full_meta):
            del doc["config"], doc["config_hash"]
        assert meta == full_meta


class TestBlockChecks:
    """A block is checked once, as a whole, and rejects what the per-trial
    objects reject, naming the trial and user."""

    def setup_method(self):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(5)]
        self.block = Scenario.draw_trials(rngs, 2, 16, [4, 2, 3])
        self.alloc = self.block.allocate(2, 2)

    def faulty_paths(self, name, value, index=()):
        """The block's paths with one path of user 1 of trial 2 faulty, or the
        links at `index` of them."""
        arrays = {f: getattr(self.block.paths, f).copy()
                  for f in ("gains", "aoa", "aod", "powers")}
        arrays[name][2, 1, 0] = value
        return PathSet(**{f: a[index] for f, a in arrays.items()})

    @pytest.mark.parametrize("name, value, message", [
        ("gains", np.nan, "path gains must be finite"),
        ("gains", np.inf, "path gains must be finite"),
        ("aoa", np.pi / 2, r"aoa angles must lie in \[-pi/2, pi/2\)"),
        ("aod", np.pi / 2, r"aod angles must lie in \[-pi/2, pi/2\)"),
    ], ids=["nan_gain", "infinite_gain", "aoa_at_pi_over_2", "aod_at_pi_over_2"])
    def test_faulty_link_named(self, name, value, message):
        with pytest.raises(ValueError, match=message + r" \(user 1 of trial 2\)"):
            self.faulty_paths(name, value)
        # one link, and one trial, keep the per-link message
        with pytest.raises(ValueError, match=message + "$"):
            self.faulty_paths(name, value, (2, 1))
        with pytest.raises(ValueError, match=message + r" \(user 1\)$"):
            self.faulty_paths(name, value, 2)

    def test_shared_transmit_beam_named(self):
        bs = self.alloc.bs_beams.copy()
        bs[3, 2, 1] = bs[3, 0, 0]
        with pytest.raises(ValueError, match="transmit beams of user 2 of trial 3 overlap "
                                             "another user's"):
            replace(self.alloc, bs_beams=bs)
        with pytest.raises(ValueError, match="transmit beams of user 2 overlap another user's"):
            build_matrices(bs[3], self.alloc.ut_beams[3], 16, [4, 2, 3])

    def test_repeated_receive_beam_named(self):
        ut = self.alloc.ut_beams.copy()
        ut[1, 1, 1] = ut[1, 1, 0]
        with pytest.raises(ValueError, match="invalid receive beam indices for user 1 of trial 1"):
            replace(self.alloc, ut_beams=ut)
        with pytest.raises(ValueError, match="invalid receive beam indices for user 1$"):
            build_matrices(self.alloc.bs_beams[1], ut[1], 16, [4, 2, 3])

    def test_repeated_transmit_beam_named(self):
        bs = self.alloc.bs_beams.copy()
        bs[4, 0, 1] = bs[4, 0, 0]
        with pytest.raises(ValueError, match="repeated transmit beam for user 0 of trial 4"):
            replace(self.alloc, bs_beams=bs)

    def test_first_faulty_trial_named(self):
        # Faults in trials 1 and 3: trial 1's is named, though trial 3's is
        # in an earlier user, since the walk runs in (trial, user) order.
        bs = self.alloc.bs_beams.copy()
        bs[3, 0, 0] = 16
        bs[1, 2, 1] = bs[1, 1, 0]
        with pytest.raises(ValueError, match="transmit beams of user 2 of trial 1 overlap"):
            replace(self.alloc, bs_beams=bs)

    def test_reference_block_is_not_walked(self, monkeypatch):
        # A valid block passes the whole-block checks alone: the link-by-link
        # walks run only on a fault.
        def walk(*args):
            raise AssertionError("a valid block was walked")

        monkeypatch.setattr(allocation, "_raise_first_fault", walk)
        monkeypatch.setattr(channel, "_link_fault", walk)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(7).spawn(5)]
        block = Scenario.draw_trials(rngs, 6, 128, [4] * 6)
        assert block.allocate(6, 4).bs_beams.shape == (5, 6, 6)

    def test_probing_rejects_a_block(self):
        # A block's allocation has a trial axis before its users; probing
        # and the allocation summary take one trial's and must not read
        # trials as users.
        channels = [synthesize_channel(self.block.paths[0, k], 16, n)
                    for k, n in enumerate([4, 2, 3])]
        for probe in (downlink_probe, uplink_probe):
            with pytest.raises(ValueError, match="one trial's allocation"):
                probe(channels, self.alloc, 0.0)
        with pytest.raises(ValueError, match="one trial's allocation"):
            downlink_maps(self.alloc)
        with pytest.raises(ValueError, match="one trial's allocation"):
            allocation_summary(self.alloc, self.block.bs_gains)
        one = build_matrices(self.alloc.bs_beams[0], self.alloc.ut_beams[0], 16, [4, 2, 3])
        assert len(downlink_probe(channels, one, 0.0)) == 3

    def test_one_users_rate_needs_one_trial(self):
        table = rate_table(self.block.factors, self.alloc)
        with pytest.raises(ValueError, match=r"one trial's \(U, U, d, P\) rate table, not "
                                             r"a block of 5 trials"):
            secret_key_rate(table, 0, 0.1)
        with pytest.raises(ValueError, match=r"rate table, not shape \(3, 4, 2\)"):
            secret_key_rate(table[0, 0], 0, 0.1)
        assert table.shape == (5, 3, 3, 4, 2)

    def test_block_memory_is_bounded(self):
        # One full block's draw, allocation, table, `rate_factors` and
        # `rate` stay within the budget plus a margin for what a block holds
        # whatever its size and `trial_working_set` leaves out: the block's
        # small arrays (the conjugate M x M beam grid that `beam_path_factors`
        # multiplies by is cached once per size).  Measured peaks:
        # 3.28 MiB for the reference scenario's 5 trials (as with the fixed
        # blocks of 5 before the budget), 3.10 MiB for its 2 trials with 81
        # SNR points, where `rate`'s stack sets the estimate, 3.23 MiB for
        # the single-user default's 33 and 0.44 MiB for a 10-trial one-user
        # run with M = 32 and 81 SNR points; a third trial takes the 81-point
        # reference block to 4.63 MiB, over the bound.
        import tracemalloc

        def traced_peak(run, cfg):
            run(cfg)  # the grids are built once, outside the measurement
            tracemalloc.start()
            try:
                run(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = experiments.BLOCK_BYTES + 0.5 * 2 ** 20
        grid = [-10.0 + 0.5 * i for i in range(81)]
        sweep = ScenarioConfig(bs_antennas=32, users=1, ut_antennas=4, n_paths=6,
                               snr_db_grid=grid, bs_beams_compare=[6, 4], trials=10)
        for cfg, trials in ((ScenarioConfig(), 5), (ScenarioConfig(snr_db_grid=grid), 2),
                            (ScenarioConfig(users=1), 33), (sweep, 10)):
            assert experiments.trials_per_block(cfg) == trials
            assert traced_peak(rate_one_block, cfg) <= bound, cfg
        # A runner holds one block at a time: each block's arrays are freed
        # before the next is drawn (3.27 MiB over the single-user default's
        # four blocks; with two blocks alive at once, 4.95 MiB).
        assert traced_peak(_mean_trial_rates, ScenarioConfig(users=1)) <= bound

    def test_trial_over_budget_runs_in_blocks_of_one(self, monkeypatch):
        cfg = ScenarioConfig(bs_antennas=256, users=16, ut_antennas=8, n_paths=4, bs_beams=1,
                             ut_beams=1, bs_beams_compare=[1], snr_db_grid=[0.0], trials=3)
        assert experiments.trial_working_set(cfg) > experiments.BLOCK_BYTES
        built = []

        def building(*args):
            built.append(np.shape(args[0])[0])
            return build_matrices(*args)

        monkeypatch.setattr(experiments, "build_matrices", building)
        res = run_multiuser_unit_rate(cfg)
        assert built == [1, 1, 1]
        assert all(np.isfinite(rec["sum_rate_bits"]) for rec in rows(res))


def rate_one_block(cfg):
    """The first block of `cfg`'s trials as `_mean_trial_rates` rates it."""
    rngs = [np.random.default_rng(s)
            for s in _trial_seeds(cfg)[:experiments.trials_per_block(cfg)]]
    block = Scenario.draw_trials(rngs, cfg.n_paths, cfg.bs_antennas, cfg.ut_antenna_list(),
                                 cfg.angle_mode == "on_grid")
    table = rate_table(block.factors, block.allocate(max(cfg.bs_beams_compare), cfg.ut_beams))
    for m_e in cfg.bs_beams_compare:
        rate_factors(table[..., : m_e * cfg.ut_beams, :]).rate(cfg.noise_powers())


class TestWriteResult:
    def test_csv_files_and_metadata(self, tmp_path):
        res = run_overhead_comparison(small_multi_user())
        paths = write_result(res, tmp_path)
        names = {p.name for p in paths}
        assert names == {"overhead.csv", "overhead_meta.json"}
        text = (tmp_path / "overhead.csv").read_text()
        assert text.splitlines()[0] == "users,overhead_traditional,overhead_reused"
        meta = json.loads((tmp_path / "overhead_meta.json").read_text())
        assert meta["config"]["users"] == 3
        assert meta["config_hash"]

    def test_byte_reproducibility(self, tmp_path):
        cfg = small_single_user()
        first = write_result(run_single_user_rate(cfg), tmp_path / "a")
        second = write_result(run_single_user_rate(cfg), tmp_path / "b")
        for p1, p2 in zip(sorted(first), sorted(second)):
            assert p1.read_bytes() == p2.read_bytes()

    def test_beam_gain_tables(self, tmp_path):
        res = run_beam_gain_profile(small_multi_user())
        paths = write_result(res, tmp_path)
        names = {p.name for p in paths}
        assert names == {"beam_gains.csv", "adjacent_attenuation.csv", "beam_gains_meta.json"}

    def test_empty_side_table_keeps_header(self, tmp_path):
        res = run_beam_gain_profile(small_single_user())
        write_result(res, tmp_path)
        text = (tmp_path / "adjacent_attenuation.csv").read_text()
        assert text.splitlines() == [
            "user,neighbor,own_peak_beam,neighbor_peak_beam,attenuation_db"
        ]

    def test_columns_format_as_each_value_alone(self):
        # `table_to_csv` formats a column at a time; the reference is one
        # `_cell` call per value, row by row.
        def per_value_csv(table):
            lines = [",".join(table)]
            for row in zip(*table.values()):
                lines.append(",".join(map(experiments._cell, row)))
            return "\n".join(lines) + "\n"

        columns = {
            "float": [-0.0, 5e-324, 1e-300, 1e22, 0.1 + 0.2, 1.0, -2.5],
            "int": [0, -3, 2 ** 70, 7, 1, 10 ** 22, 5],
            "bool": [True, False, True, True, False, False, True],
            "none": [None] * 7,
            "np_float64": [np.float64(v) for v in (-0.0, 5e-324, 1e-300, 1e22, 0.3, 1, 2)],
            "np_int64": [np.int64(v) for v in (0, -3, 2 ** 62, 7, 1, 4, 5)],
            "str": ["perfect", "reduced_me6", "", "a b", "x", "reused_me4", "orthogonal"],
            "str_and_none": ["perfect", "reduced_me6", "", None, "x", "reused_me4", "orthogonal"],
            "max_neutralization_residual": [1e-17, None, 0.0, 2.5e-3, None, 5e-324, -0.0],
            "ints_and_bools": [1, True, 0, False, 2, 3, 4],
            "float_and_np": [0.1, np.float64(0.1), 1e22, np.float64(1e22), 0.0, 1.0, 2.0],
            "mixed": [1, 1.0, "1", None, True, np.int64(1), np.float64(1.0)],
        }
        for names in (list(columns), ["str_and_none", "none", "float"]):
            table = {name: columns[name] for name in names}
            assert table_to_csv(table) == per_value_csv(table)
        assert table_to_csv({"user": [], "rate": []}) == "user,rate\n"
        assert table_to_csv({}) == per_value_csv({}) == "\n"

    def test_columns_of_different_lengths_rejected(self):
        # `zip` would cut every column to the shortest one.
        with pytest.raises(ValueError, match="columns must have the same length"):
            table_to_csv({"user": [0, 1, 2], "rate": [0.5, 0.25]})


class TestValidationSuite:
    @pytest.mark.usefixtures("perturbed_grid_256")
    def test_corrupt_sampling_fails_unitarity(self):
        report = run_validation_suite(small_multi_user())
        failed = [c.name for c in report.checks if c.status != "pass"]
        assert failed == ["sampling_unitarity"]
        assert not report.passed

    def test_report_lists_the_nine_checks_in_order(self):
        report = run_validation_suite(small_multi_user())
        assert [c.name for c in report.checks] == [
            "sampling_unitarity",
            "rate_oracle_equivalence",
            "noiseless_reciprocity",
            "neutralization_residual_on_grid",
            "multiuser_probing_matches_single_user",
            "covariance_consistency",
            "rate_monotonic_in_noise",
            "selection_scale_invariance",
            "deterministic_reproducibility",
        ]

    def test_report_serialization(self):
        report = run_validation_suite(small_multi_user())
        text = report.to_text()
        assert "sampling_unitarity" in text
        doc = json.loads(report.to_json())
        assert doc["passed"] == report.passed


def probing_scenario():
    """Two users with different path and antenna counts."""
    rng = np.random.default_rng(41)
    m, n_ut, n_p, m_e, n_e = 16, [2, 3], [2, 3], 2, 2
    paths = [sample_paths(p, rng) for p in n_p]
    # A Scenario needs one P for all users, so these are allocated directly.
    gains = [beam_covariance_factor(p, m, n)[1:] for p, n in zip(paths, n_ut)]
    return paths, build_matrices(allocate_bs_beams([g[0] for g in gains], m_e),
                                 [allocate_ut_beams(g[1], n_e) for g in gains], m, n_ut)


def _loop_downlink_covariance(stats_paths, allocation, noise_power, rounds, rng, user):
    """Round-at-a-time reference: a validated PathSet, every user's channel
    and one `downlink_probe` call per round.  Returns the sample covariance
    after each round count in `rounds`."""
    acc = None
    out = {}
    for done in range(1, max(rounds) + 1):
        channels = []
        for k, base in enumerate(stats_paths):
            gains = complex_normal(rng, base.n_paths, base.powers)
            fresh = PathSet(gains=gains, aoa=base.aoa, aod=base.aod, powers=base.powers)
            channels.append(synthesize_channel(fresh, allocation.bs_antennas,
                                               allocation.ut_counts[k]))
        z = vec(downlink_probe(channels, allocation, noise_power, rng)[user])
        outer = np.outer(z, z.conj())
        acc = outer if acc is None else acc + outer
        if done in rounds:
            out[done] = acc / done
    return out


class TestEmpiricalDownlinkCovariance:
    ROUNDS = (1, PROBE_CHUNK - 1, PROBE_CHUNK, PROBE_CHUNK + 1, 2 * PROBE_CHUNK + 3)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize("user", [0, 1])
    def test_chunks_match_round_at_a_time_loop(self, user, noise):
        paths, alloc = probing_scenario()
        expected = _loop_downlink_covariance(
            paths, alloc, noise, self.ROUNDS, np.random.default_rng(7), user)
        for rounds in self.ROUNDS:
            got = empirical_downlink_covariance(
                paths, alloc, noise, rounds, np.random.default_rng(7), user)
            ref = expected[rounds]
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), rounds

    @pytest.mark.parametrize("kwargs, match", [
        ({"rounds": 0}, "rounds"),
        ({"rounds": 2.5}, "rounds"),
        ({"rounds": True}, "rounds"),
        ({"user": 2}, "user"),
        ({"user": -1}, "user"),
        ({"noise_power": -0.1}, "noise_power"),
    ])
    def test_bad_arguments_rejected(self, kwargs, match):
        paths, alloc = probing_scenario()
        args = dict(stats_paths=paths, allocation=alloc, noise_power=0.1, rounds=10,
                    rng=np.random.default_rng(0), user=0)
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            empirical_downlink_covariance(**args)

    def test_one_pathset_per_user_required(self):
        paths, alloc = probing_scenario()
        with pytest.raises(ValueError, match="stats_paths"):
            empirical_downlink_covariance(paths[:1], alloc, 0.1, 10,
                                          np.random.default_rng(0))
