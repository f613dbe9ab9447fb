"""Tests for the benchmark's own code: span arithmetic, tail percentiles,
step intervals, coverage, speed scaling and wrapper transparency.

    python3 -m pytest bench -q
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import SpanSummary, Tracer, nearest_rank, self_times, tail  # noqa: E402


def summary_of(spans):
    """SpanSummary from (name, start, end, parent) tuples."""
    names = sorted({name for name, *_ in spans})
    ids = [names.index(name) for name, *_ in spans]
    return SpanSummary(names, ids, [p for *_, p in spans],
                       [s for _, s, _, _ in spans], [e for _, _, e, _ in spans])


def test_self_time_subtracts_only_direct_children():
    parents = np.array([-1, 0, 1, 0])
    durations = np.array([10.0, 3.0, 1.0, 4.0])
    assert self_times(parents, durations).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_summary_sums_self_time_and_calls_per_name():
    s = summary_of([("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                    ("b", 5.0, 9.0, 0), ("a", 20.0, 21.0, -1)])
    assert s.self_seconds("a") == pytest.approx(3.0 + 1.0)
    assert s.self_seconds("b") == pytest.approx(2.0 + 4.0)
    assert s.calls("b") == 2 and s.calls("missing") == 0
    assert s.self_seconds("missing") == 0.0
    assert s.nearest_ancestor(2, ["a"]) == 0 and s.nearest_ancestor(0, ["a"]) == -1


def test_nearest_rank_percentile():
    values = list(range(1, 11))
    assert nearest_rank(values, 50.0) == 5
    assert nearest_rank(values, 90.0) == 9
    assert nearest_rank(values, 100.0) == 10
    assert nearest_rank([], 50.0) == 0.0


@pytest.mark.parametrize("n, pct", [(19, 0.0), (20, 50.0), (39, 50.0), (40, 75.0),
                                    (100, 90.0), (199, 90.0), (200, 95.0),
                                    (1000, 99.0), (10_000, 99.9), (100_000, 99.99)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = np.arange(n, 0, -1, dtype=float)  # unsorted on purpose
    got_pct, value, count = tail(values)
    assert (got_pct, count) == (pct, n)
    if pct:
        assert n - value >= 10  # values above ``value`` are n - value many
        assert value == nearest_rank(np.sort(values), pct)
    else:
        assert value == 0.0


def test_step_intervals_stay_inside_one_phase():
    step, epoch = "tensor.SGD.step", "trainers.CodimTrainer.epoch"
    s = summary_of([
        (epoch, 0.0, 1.0, -1),
        (step, 0.10, 0.11, 0), (step, 0.30, 0.31, 0), (step, 0.60, 0.61, 0),
        (epoch, 2.0, 3.0, -1),
        (step, 2.50, 2.51, 4), (step, 2.70, 2.71, 4),
    ])
    gaps, phases = layers._step_intervals_ms(s)
    assert gaps.tolist() == pytest.approx([200.0, 300.0, 200.0])
    assert phases.tolist() == [0, 0, 0, 4, 4]


def test_coverage_reports_missing_and_unexpected_calls():
    fired = {"mixmatch.semi_loss": 3, "cli.cmd_gen": 1}
    fake = type("Fake", (), {"calls": staticmethod(lambda name: fired.get(name, 0))})
    problems = layers.coverage_problems("selfcon-relabel", fake)
    assert "mixmatch.semi_loss fired 3 times, expected 0" in problems
    assert "cli.cmd_gen fired 1 times, expected 0" in problems
    assert "trainers.pretrain_selfcon never fired" in problems


def test_reference_seconds_scale_by_the_probe_around_the_call():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_BURST_S
    assert probe.reference_seconds(3.0, ref, ref) == pytest.approx(3.0)
    assert probe.reference_seconds(3.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.5)
    assert probe.sample() > 0 and len(probe.bursts) == speed.BURSTS_PER_SAMPLE
    assert probe.factor == pytest.approx(ref / np.median(probe.bursts))


def tiny_run():
    from codim import data, noise, trainers
    ds = data.gen_blobs(data.BlobSpec(3, 2, 40, 3.0, 1.0, seed=0)).with_noise(
        noise.NoiseSpec("symmetric", 0.3, seed=1))
    cfg = trainers.TrainConfig(pretrain_steps=10, warmup_epochs=1, epochs=2,
                               iters_per_epoch=2, batch_size=16, feat_hidden=(8, 8),
                               proj_hidden=8, proj_dim=4, seed=0)
    duo, record = trainers.train_codim(ds, cfg)
    return record, duo.net_a.state_dict(), duo.net_a.predict_proba(ds.test_x)


def test_wrapped_calls_return_identical_arrays():
    mods = [importlib.import_module(f"codim.{name}") for name in run.CODIM_MODULES]
    trainers, mixmatch = sys.modules["codim.trainers"], sys.modules["codim.mixmatch"]
    original = trainers.semi_loss
    plain = tiny_run()
    tracer = Tracer(mods, layers.OBSERVERS)
    assert "codim.trainers.semi_loss" in tracer.unbound_originals()
    tracer.install()
    try:
        assert tracer.unbound_originals() == []
        assert trainers.semi_loss is mixmatch.semi_loss is not original
        with tracer.recording():
            traced = tiny_run()
        with tracer.paused():
            tiny_run()
    finally:
        tracer.uninstall()
    assert trainers.semi_loss is original and mixmatch.semi_loss is original
    assert [vars(r) for r in plain[0].rows] == [vars(r) for r in traced[0].rows]
    for name, arr in plain[1].items():
        assert np.array_equal(arr, traced[1][name]), name
    assert np.array_equal(plain[2], traced[2])
    summary = tracer.summary()
    # one traced run: the paused repeat added no spans
    assert summary.calls("trainers.train_codim") == 1
    assert summary.calls("mixmatch.semi_loss") == 2 * 2 * 2
    assert tracer.nodes_built > 0


def test_benchmark_json_matches_the_code():
    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == run.spec()
