"""Experiment runners: config validation, determinism, output schema."""

import dataclasses
import json

import numpy as np
import pytest

from beamkey import experiments
from beamkey._util import complex_normal, vec
from beamkey.allocation import allocate_bs_beams, allocate_ut_beams, neutralization_residual
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
    TRIAL_BLOCK,
    ConfigError,
    Scenario,
    ScenarioConfig,
    _mean_trial_rates,
    _trial_seeds,
    empirical_downlink_covariance,
    records_to_csv,
    run_beam_gain_profile,
    run_multiuser_unit_rate,
    run_overhead_comparison,
    run_single_user_rate,
    run_validation_suite,
    write_result,
)
from beamkey.keyrate import (
    RateInputs,
    assemble_observation_covariances,
    full_sampling_rate,
    gaussian_mi_oracle,
    psd_eigh,
    rate_factors,
)
from beamkey.probing import downlink_probe


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
        assert len(res.records) == 3 * 3  # snr points x schemes
        by_snr = {}
        for rec in res.records:
            by_snr.setdefault(rec["snr_db"], {})[rec["scheme"]] = rec["rate_bits"]
        for snr, schemes in by_snr.items():
            assert schemes["perfect"] >= schemes["reduced_me3"] - 1e-9
            assert schemes["reduced_me3"] >= schemes["reduced_me2"] - 1e-9
        assert res.metadata["config"]["bs_antennas"] == 16
        assert res.metadata["tool_version"]

    def test_deterministic(self):
        a = run_single_user_rate(small_single_user())
        b = run_single_user_rate(small_single_user())
        assert a.records == b.records
        assert records_to_csv(a.records) == records_to_csv(b.records)

    def test_workers_do_not_change_results(self):
        a = run_single_user_rate(small_single_user(workers=1))
        b = run_single_user_rate(small_single_user(workers=3))
        assert a.records == b.records


class TestBeamGainProfile:
    def test_on_grid_gain_support(self):
        cfg = small_multi_user(angle_mode="on_grid")
        res = run_beam_gain_profile(cfg)
        assert len(res.records) == 16
        for k in range(cfg.users):
            gains = np.array([rec[f"gain_user_{k}"] for rec in res.records])
            assert int(np.sum(gains > 1e-8)) == cfg.n_paths
            assert np.all(gains[gains <= 1e-8] < 1e-10)

    def test_single_user_emits_no_pairs(self):
        res = run_beam_gain_profile(small_single_user())
        assert res.extra_tables["adjacent_attenuation"] == []

    def test_pair_rows_cover_adjacent_users(self):
        res = run_beam_gain_profile(small_multi_user())
        rows = res.extra_tables["adjacent_attenuation"]
        assert len(rows) == 2 * (3 - 1)
        assert {"user", "neighbor", "attenuation_db"} <= set(rows[0])
        assert "median_adjacent_attenuation_db" in res.metadata


class TestOverheadComparison:
    def test_values_scale_with_users(self):
        res = run_overhead_comparison(ScenarioConfig(trials=1))
        by_users = {rec["users"]: rec for rec in res.records}
        assert by_users[6]["overhead_traditional"] == 152
        assert by_users[1]["overhead_traditional"] == 132
        assert all(rec["overhead_reused"] == 10 for rec in res.records)

    def test_record_count(self):
        res = run_overhead_comparison(small_multi_user())
        assert [rec["users"] for rec in res.records] == [1, 2, 3]


class TestScenario:
    """The one draw -> allocate route of every runner and check."""

    @pytest.mark.parametrize("on_grid", [False, True], ids=["off_grid", "on_grid"])
    def test_draw_and_allocate_are_the_explicit_chain(self, on_grid):
        m, counts, n_p = 16, [4, 2, 3], 2
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        scenario = Scenario.draw(rng, n_p, m, counts, on_grid)
        diags_bs, diags_ut = [], []
        for k, n in enumerate(counts):
            ref = sample_paths(n_p, ref_rng, grid=(m, n) if on_grid else None)
            for name in ("gains", "aoa", "aod", "powers"):
                assert np.array_equal(getattr(scenario.paths[k], name), getattr(ref, name))
            factor, bs_gains, ut_gains = beam_covariance_factor(ref, m, n)
            assert np.array_equal(scenario.factors[k], factor)
            assert np.array_equal(scenario.grams[k], factor.conj().T @ factor)
            diags_bs.append(bs_gains)
            diags_ut.append(ut_gains)
        assert rng.random() == ref_rng.random()  # the stream is left where it was
        alloc = scenario.allocate(2, 2)
        for k, bs_set in enumerate(allocate_bs_beams(diags_bs, 2)):
            assert np.array_equal(alloc.bs_beams[k], bs_set)
            assert np.array_equal(alloc.ut_beams[k], allocate_ut_beams(diags_ut[k], 2))

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
        inputs = RateInputs(scenario.factors, scenario.allocate(2, 2))
        expected = max(
            neutralization_residual(inputs.blocks[k][kp],
                                    scenario.factors[kp].conj().T @ scenario.factors[kp])
            for k in range(3) for kp in range(3) if kp != k)
        assert scenario.max_residual(inputs) == expected > 0
        alone = Scenario.from_paths(scenario.paths[:1], 16, [4])
        assert alone.max_residual(RateInputs(alone.factors, alone.allocate(2, 2))) == 0.0

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
    for rec in run(cfg).records:
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
                inputs = RateInputs(scenario.factors, alloc)
                rates = [gaussian_mi_oracle(assemble_observation_covariances(inputs, k, s2))
                         for s2 in noise]
                oracle.setdefault((m_e, k), []).append(rates)
    checked = 0
    for rec in run(cfg).records:
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

        def counting(inputs):
            calls.append(inputs.n_users)
            return rate_factors(inputs)

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
        assert len(res.records) == 2 * 3  # snr points x (2 reused + orthogonal)
        for rec in res.records:
            assert rec["unit_rate"] == pytest.approx(rec["sum_rate_bits"] / rec["overhead"])
            users_sum = sum(rec[f"rate_user_{k}"] for k in range(cfg.users))
            assert rec["sum_rate_bits"] == pytest.approx(users_sum)
            if rec["scheme"] == "orthogonal":
                assert rec["overhead"] == 16 + 3 * 4
                assert rec["max_neutralization_residual"] is None
            else:
                assert rec["max_neutralization_residual"] >= 0
        again = run_multiuser_unit_rate(cfg)
        assert res.records == again.records


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
            inputs = RateInputs(scenario.factors, scenario.allocate(m_e, cfg.ut_beams))
            trial.append(rate_factors(inputs).rate(sigmas))
            worst.append(scenario.max_residual(inputs))
        trial.append(scenario.full_sampling_rate(sigmas))
        rates.append(np.stack(trial, axis=1))
        residuals.append(worst)
    return np.stack(rates).mean(axis=0), np.array(residuals).mean(axis=0)


class TestTrialBlocks:
    """The rate runners rate a block of up to TRIAL_BLOCK trials per engine call."""

    TRIALS = 2 * TRIAL_BLOCK + 1  # two full blocks and a block of one

    @pytest.mark.parametrize("cfg", [
        small_single_user(trials=TRIALS),
        small_multi_user(trials=TRIALS, angle_mode="on_grid", snr_db_grid=[0.0, 50.0, 100.0]),
        small_multi_user(trials=TRIALS, ut_antennas=[4, 2, 8]),
    ], ids=["single_user", "multi_user_on_grid", "multi_user_mixed_ut_antennas"])
    def test_blocks_equal_one_trial_at_a_time(self, cfg):
        rates, residuals = _mean_trial_rates(cfg)
        expected_rates, expected_residuals = one_trial_at_a_time(cfg)
        assert np.array_equal(rates, expected_rates)
        assert np.array_equal(residuals, expected_residuals)

    def test_one_engine_call_per_block_and_beam_count(self, monkeypatch):
        calls = []

        def counting(*inputs):
            calls.append(len(inputs))
            return rate_factors(*inputs)

        monkeypatch.setattr(experiments, "rate_factors", counting)
        cfg = small_multi_user(trials=self.TRIALS)
        run_multiuser_unit_rate(cfg)
        blocks = [TRIAL_BLOCK, TRIAL_BLOCK, 1]  # ceil(TRIALS / TRIAL_BLOCK) blocks
        assert calls == [n for n in blocks for _ in cfg.bs_beams_compare]


class TestOneAllocationPerTrial:
    """The rate runners allocate each trial once, at the largest beam count."""

    @pytest.mark.parametrize("run, cfg", [
        (run_single_user_rate, small_single_user(trials=7, bs_beams_compare=[2, 3])),
        (run_multiuser_unit_rate, small_multi_user(trials=7)),
    ], ids=["single_user", "multi_user"])
    def test_one_allocate_call_per_trial(self, monkeypatch, run, cfg):
        calls = []
        allocate = Scenario.allocate

        def counting(scenario, m_e, n_e):
            calls.append((m_e, n_e))
            return allocate(scenario, m_e, n_e)

        monkeypatch.setattr(Scenario, "allocate", counting)
        run(cfg)
        assert calls == [(max(cfg.bs_beams_compare), cfg.ut_beams)] * cfg.trials

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
    return paths, Scenario.from_paths(paths, m, n_ut).allocate(m_e, n_e)


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
