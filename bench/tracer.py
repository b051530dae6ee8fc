"""Spans around the calls the CLI makes into beamkey's layers, from outside.

The runners call names imported into `beamkey.experiments`, so those names
are replaced there (not on the defining modules); `UserRateFactors.rate` is
replaced on its class and `write_result` on `beamkey.cli`, which imported it.
Spans stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

# (module attribute, layer).  Several attributes may share one layer.
HOOKS = (
    ("experiments.psd_eigh", "keyrate.psd_eigh"),
    ("experiments.rate_factors", "keyrate.rate_factors"),
    ("experiments.full_sampling_rate", "keyrate.full_sampling_rate"),
    ("experiments.secret_key_rate", "keyrate.secret_key_rate"),
    ("experiments.gaussian_mi_oracle", "keyrate.gaussian_mi_oracle"),
    ("keyrate.UserRateFactors.rate", "keyrate.rate"),
    ("experiments.sample_paths", "channel.sample_paths"),
    ("experiments.beam_covariances", "channel.beam_covariances"),
    ("experiments.synthesize_channel", "channel.synthesize_channel"),
    ("experiments.PathSet", "channel.PathSet"),
    ("experiments.allocate_bs_beams", "allocation.select"),
    ("experiments.allocate_ut_beams", "allocation.select"),
    ("experiments.rank_beams", "allocation.select"),
    ("experiments.build_matrices", "allocation.build_matrices"),
    ("experiments.neutralization_residual", "allocation.neutralization_residual"),
    ("experiments.downlink_probe", "probing.downlink_probe"),
    ("experiments.uplink_probe", "probing.uplink_probe"),
    ("cli.write_result", "experiments.write_result"),
)
ROOT = "experiments"  # the op span: one cli.main call


def _psd_eigh_elems(args, kwargs) -> int:
    n = np.shape(args[0] if args else kwargs["s"])[0]
    return n * n


def _lambda_bytes(args, kwargs) -> int:
    bs = args[1] if len(args) > 1 else kwargs["bs"]
    ut = args[2] if len(args) > 2 else kwargs["ut"]
    return 16 * (bs.antenna_count * ut.antenna_count) ** 2


def _output_bytes(result) -> int:
    return sum(Path(p).stat().st_size for p in result)


# Counts computed from a call's arguments (or its result), by layer.
ARG_COUNTS = {
    "keyrate.psd_eigh": ("keyrate.psd_eigh.elems", _psd_eigh_elems),
    "channel.beam_covariances": ("channel.beam_covariances.lambda_bytes", _lambda_bytes),
}
RESULT_COUNTS = {
    "experiments.write_result": ("experiments.output_bytes", _output_bytes),
}


class Tracer:
    """Records spans (name, start, end, parent, op id) for hooked calls."""

    def __init__(self) -> None:
        self.layers = [ROOT] + sorted({layer for _, layer in HOOKS})
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # Argument/result counts, per op id.
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.name.append(layer_id)
        self.op.append(self._op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, value: int) -> None:
        counts = self.counts.setdefault(self._op_id, {})
        counts[key] = counts.get(key, 0) + int(value)

    def _wrap(self, fn, layer: str):
        layer_id = self._layer_id[layer]
        arg_count = ARG_COUNTS.get(layer)
        result_count = RESULT_COUNTS.get(layer)

        def traced(*args, **kwargs):
            if arg_count is not None:
                self._count(arg_count[0], arg_count[1](args, kwargs))
            idx = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if result_count is not None:
                self._count(result_count[0], result_count[1](result))
            return result

        return traced

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        import beamkey.cli
        import beamkey.experiments
        import beamkey.keyrate

        modules = {"experiments": beamkey.experiments, "keyrate": beamkey.keyrate,
                   "cli": beamkey.cli}
        for attr, layer in HOOKS:
            head, *mid, name = attr.split(".")
            owner = modules[head]
            for part in mid:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def run_op(self, op_id: int, call):
        """Run `call()` as one traced op; hooks are live only during it."""
        self._op_id = op_id
        self.install()
        idx = self._open(self._layer_id[ROOT])
        try:
            return call()
        finally:
            self._close(idx)
            self.uninstall()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per layer over all recorded spans, in seconds.

        A span's self time is its duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        if not len(self.start):
            return {name: 0.0 for name in self.layers}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = np.bincount(names, weights=dur - child, minlength=len(self.layers))
        return {name: float(own[i]) for i, name in enumerate(self.layers)}

    def op_counts(self, op_id: int) -> dict[str, int]:
        """Exact counts of one op: `<layer>.calls` for every layer, plus the
        argument/result counts."""
        names = np.frombuffer(self.name, dtype=np.int32)
        ops = np.frombuffer(self.op, dtype=np.int32)
        per = np.bincount(names[ops == op_id], minlength=len(self.layers))
        counts = {f"{name}.calls": int(per[i]) for i, name in enumerate(self.layers)}
        for key, _ in (*ARG_COUNTS.values(), *RESULT_COUNTS.values()):
            counts[key] = self.counts.get(op_id, {}).get(key, 0)
        return counts

    def write(self, path: Path) -> None:
        """Write every span to a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            name=np.frombuffer(self.name, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
