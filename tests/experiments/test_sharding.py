"""Shard-parallel row sweeps: spec parsing, merge identity, fan-out.

The full-geometry contract (ISSUE 8, extended by ISSUE 10 to the whole
row-sweep family): a shardable experiment's sweep splits into
contiguous unit ranges — (channel, pseudo channel) pairs, channels, or
bank combos — whose merged result is byte-identical to the unsharded
run — under the CLI ``--shard i/n`` flag and the pool's transparent
``-j N`` fan-out alike.
"""

import multiprocessing
import time
from unittest import mock

import pytest

from repro.errors import HbmSimError
from repro.experiments import __main__ as cli
from repro.experiments import fig05_hcfirst_chips, registry, runner
from repro.experiments.registry import run_timed
from repro.experiments.sharding import ShardSpec, shard_labels

SCALE = 0.02


class TestShardSpec:
    def test_parse_roundtrip(self):
        spec = ShardSpec.parse("2/8")
        assert spec == ShardSpec(2, 8)
        assert spec.label == "2/8"

    def test_none_means_unsharded(self):
        assert ShardSpec.parse(None) is None

    @pytest.mark.parametrize("value", ["ch0", "0/0x", "a/b", "1-4", ""])
    def test_non_matching_values_rejected(self, value):
        with pytest.raises(ValueError, match="i/n"):
            ShardSpec.parse(value)

    @pytest.mark.parametrize("value", ["4/4", "5/2", "0/0"])
    def test_malformed_matches_rejected(self, value):
        with pytest.raises(ValueError):
            ShardSpec.parse(value)

    def test_labels_enumerate_a_fanout(self):
        assert shard_labels(3) == ["0/3", "1/3", "2/3"]

    @pytest.mark.parametrize("count,n_units", [(1, 16), (3, 16),
                                               (4, 16), (16, 16),
                                               (20, 16), (5, 7)])
    def test_slices_partition_contiguously(self, count, n_units):
        slices = [ShardSpec(i, count).slice_of(n_units)
                  for i in range(count)]
        assert slices[0][0] == 0
        assert slices[-1][1] == n_units
        for (_, stop), (start, _) in zip(slices, slices[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in slices]
        assert max(sizes) - min(sizes) <= 1  # balanced


class TestMergeIdentity:
    @pytest.fixture(scope="class")
    def full(self):
        return {eid: registry.run_experiment(eid, SCALE)
                for eid in registry.SHARDABLE}

    @pytest.mark.parametrize("count", [1, 3, 4, 16, 20])
    @pytest.mark.parametrize("eid", sorted(registry.SHARDABLE))
    def test_merged_shards_match_full_run(self, full, eid, count):
        partials = [registry.run_experiment(eid, SCALE, shard=label)
                    for label in shard_labels(count)]
        module = registry.SHARDABLE[eid]
        merged = module.merge_shards(partials, SCALE)
        assert merged.text == full[eid].text

    def test_incomplete_fanout_rejected(self):
        partials = [registry.run_experiment("fig05", SCALE, shard=label)
                    for label in ("0/4", "2/4", "3/4")]
        with pytest.raises(HbmSimError, match="fan-out"):
            fig05_hcfirst_chips.merge_flats(partials)

    def test_mixed_fanout_rejected(self):
        partials = [registry.run_experiment("fig05", SCALE, shard="0/2"),
                    registry.run_experiment("fig05", SCALE, shard="1/4")]
        with pytest.raises(HbmSimError):
            fig05_hcfirst_chips.merge_flats(partials)

    def test_empty_shards_beyond_units_contribute_nothing(self):
        # 20 > 16 units: the tail shards carry empty flats.
        result = registry.run_experiment("fig05", SCALE, shard="19/20")
        flats = result.data["flats"]
        assert all(flats[label][name].size == 0
                   for label in flats for name in flats[label])


class TestRegistryShardApi:
    def test_shard_units(self):
        assert registry.shard_units("fig05") == 16
        assert registry.shard_units("fig07") == 16
        assert registry.shard_units("fig04") == 8
        assert registry.shard_units("fig06") == 8
        assert registry.shard_units("fig08") == 3
        assert registry.shard_units("fig09") == 256
        assert registry.shard_units("fig12") == 8
        assert registry.shard_units("fig13") == 3
        assert registry.shard_units("fig03") is None

    def test_opaque_label_rejected(self):
        with pytest.raises(ValueError, match="i/n"):
            registry.run_experiment("fig05", SCALE, shard="ch0")

    def test_shard_on_non_shardable_rejected(self):
        with pytest.raises(HbmSimError, match="shard"):
            registry.run_experiment("fig03", SCALE, shard="0/2")

    def test_merge_on_non_shardable_rejected(self):
        with pytest.raises(HbmSimError):
            registry.merge_shard_results("fig03", [], SCALE)


class TestPoolFanout:
    def test_fanout_requires_jobs_and_units(self):
        assert runner._shard_fanout("fig05", 1) == 1
        assert runner._shard_fanout("fig03", 4) == 1
        assert runner._shard_fanout("fig04", 4) == 4
        assert runner._shard_fanout("fig05", 4) == 4
        assert runner._shard_fanout("fig05", 64) == 16
        assert runner._shard_fanout("fig08", 8) == 3

    def test_pooled_shard_run_matches_serial(self):
        serial, __ = run_timed(["fig05", "fig07"], SCALE, jobs=1)
        with mock.patch.object(runner, "_available_cores",
                               return_value=4):
            pooled, records = run_timed(["fig05", "fig07"], SCALE,
                                        jobs=4)
        assert [r.text for r in pooled] == [r.text for r in serial]
        assert all(r.status == "ok" for r in records)
        # The merged record carries the fan-out's merge phase.
        assert "merge" in pooled[0].phases

    def test_explicit_shard_task_is_not_refanned(self):
        # A task already carrying --shard i/n runs as that single
        # slice, even under -j N.
        with mock.patch.object(runner, "_available_cores",
                               return_value=4):
            results, records = run_timed(["fig05"], SCALE, jobs=4,
                                         shard="1/4")
        assert records[0].status == "ok"
        assert results[0].data["shard_index"] == 1
        assert results[0].data["shard_count"] == 4

    def test_submit_validates_shard_strings(self):
        pool = runner.ResilientPool(slots=1)
        try:
            with pytest.raises(ValueError):
                pool.submit("fig05", SCALE, shard="9/4")
        finally:
            pool.shutdown()


class _FailFastFanout:
    """A two-unit shardable probe: shard 0 fails at once, shard 1
    sleeps for a minute."""

    @staticmethod
    def run(scale):
        raise AssertionError("the probe only runs as shards")

    @staticmethod
    def shard_units():
        return 2

    @staticmethod
    def run_shard(scale, spec):
        if spec.index == 0:
            raise RuntimeError("shard 0 fails at once")
        time.sleep(60.0)
        raise AssertionError("the sibling should have been cancelled")

    @staticmethod
    def merge_shards(partials, scale):
        raise AssertionError("a failed fan-out never merges")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="pool requires the fork start method")
def test_failed_shard_cancels_its_sleeping_sibling(monkeypatch):
    monkeypatch.setitem(registry.EXPERIMENTS, "fanout-probe",
                        _FailFastFanout.run)
    monkeypatch.setitem(registry.SHARDABLE, "fanout-probe",
                        _FailFastFanout)
    started = time.monotonic()
    with mock.patch.object(runner, "_available_cores", return_value=2):
        records = runner.run_resilient(["fanout-probe"], SCALE, jobs=2,
                                       keep_going=True)
    assert time.monotonic() - started < 30.0
    assert records[0].status == "failed"
    assert "shard 0 fails at once" in records[0].error


class TestCliShard:
    @pytest.mark.parametrize("argv", [
        ["fig05", "--scale", "0.02", "--shard", "ch0"],
        ["fig05", "--scale", "0.02", "--shard", "0/0x"],
        ["fig05", "--shard", "5/2"],
        ["table1", "--shard", "0/2"],
    ])
    def test_bad_shard_exits_2_before_running(self, argv, capsys):
        with mock.patch.object(cli, "run_timed") as run:
            assert cli.main(argv) == 2
        run.assert_not_called()
        assert "--shard" in capsys.readouterr().err
