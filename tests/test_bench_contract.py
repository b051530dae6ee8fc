"""What the benchmark under `bench/` needs from the program.

Every benchmark op is one `beamkey.cli.main` call on a workload's config, and
the tracer patches names the runners call.  A change that broke either would
fail every benchmark op; these tests make it fail here first.  So would rates
that drift from the recorded reference, or an op that does not repeat
byte for byte; the benchmark's own output check runs here on those ops.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import worker  # noqa: E402
from tracer import HOOKS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, op_seed  # noqa: E402

from beamkey.experiments import ScenarioConfig  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_validates(name):
    ScenarioConfig.from_dict(dict(WORKLOADS[name].config)).validate()


def test_tracer_resolves_every_hook():
    tracer = Tracer()
    try:
        tracer.install()  # a KeyError here names a hook that no longer exists
        patched = list(tracer._saved)
        assert len(patched) == len(HOOKS)
        for owner, name, original in patched:
            assert owner.__dict__[name] is not original
    finally:
        tracer.uninstall()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original


@pytest.mark.parametrize("name, layers", [
    ("multiuser_ref", ("keyrate.rate_factors", "keyrate.rate",
                       "allocation.neutralization_residual", "allocation.build_matrices")),
    ("single_user_sweep", ("keyrate.rate_factors", "keyrate.rate",
                           "keyrate.full_sampling_rate", "allocation.build_matrices")),
    ("validate_suite", ("keyrate.rate_factors", "keyrate.gaussian_mi_oracle",
                        "probing.downlink_probe", "probing.uplink_probe",
                        "channel.synthesize_channel")),
], ids=["multiuser_ref", "single_user_sweep", "validate_suite"])
def test_traced_op_reaches_the_hooked_layers(tmp_path, name, layers):
    # The runners must call the hooked names where the tracer patches them;
    # a call that bypasses them would leave these layers at zero calls.
    from beamkey import cli

    w = WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(w.config))
    tracer = Tracer()
    code = tracer.run_op(0, lambda: cli.main(
        [w.command, "--config", str(config), "--seed", "5", "--out", str(tmp_path / "out")]))
    assert code == 0
    counts = tracer.op_counts(0)
    for layer in layers + ("experiments.write_result",):
        assert counts[f"{layer}.calls"] > 0, layer
    assert counts["experiments.output_bytes"] > 0


@pytest.mark.parametrize("name", sorted(n for n, w in WORKLOADS.items() if w.reference_ops))
def test_reference_ops_match_the_recorded_rates(tmp_path, name):
    from beamkey import cli

    w = WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(w.config))
    reference = worker.load_reference(w)["rates"]
    assert len(reference) == w.reference_ops
    for index, expected in enumerate(reference):
        seed = op_seed(name, DEFAULT_SEED, index)
        problems, rates = worker.run_op(cli, w, config, seed, tmp_path / f"op{index}")[2:4]
        assert problems == [], index
        assert worker.compare_reference(rates, expected) is None, index
    repeat = tmp_path / "repeat"
    assert worker.run_op(cli, w, config, op_seed(name, DEFAULT_SEED, 0), repeat)[2] == []
    assert worker.same_files(tmp_path / "op0", repeat) is None


@pytest.mark.parametrize("index", [0, 35])
def test_validate_suite_ops_pass_the_output_check(tmp_path, index):
    # Op 35 at the default seed is the suite's closest known reading to a
    # bound: `rate_oracle_equivalence` reads 1.75e-9 against 1e-8, set by a
    # 3-user instance whose user 2 has a rate of 9.13e-8 bits, which the
    # float64 oracle misses by 2.5e-9 relative and the engine by 7.5e-10.
    from beamkey import cli

    w = WORKLOADS["validate_suite"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(w.config))
    seed = op_seed("validate_suite", DEFAULT_SEED, index)
    assert worker.run_op(cli, w, config, seed, tmp_path / "out")[2] == []
