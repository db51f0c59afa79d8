import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from stoseg import data, ensemble, network
from stoseg.activations import ActivationKind, default_pool
from stoseg.losses import TrainConfig
from stoseg.rng import SplitMix64


def tiny_spec(mode="sto", size=2, master_seed=5, epochs=2):
    return ensemble.EnsembleSpec(
        mode=mode,
        size=size,
        master_seed=master_seed,
        network=network.NetworkConfig(input_size=16, stem_width=4, down_width=8,
                                      aspp_width=4, fuse_width=8),
        train=TrainConfig(epochs=epochs, batch_size=4, shuffle_seed=1),
    )


@pytest.fixture(scope="module")
def tiny_data():
    ds = data.synth_blobs(14, 16, 77)
    train, test = data.split(ds, 10, 4, 3)
    return list(train), list(test)


class TestSpec:
    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            tiny_spec(mode="mixed")

    def test_size_validated(self):
        with pytest.raises(ValueError, match="size"):
            tiny_spec(size=0)

    def test_act_mode_bounded_by_pool(self):
        with pytest.raises(ValueError, match="pool"):
            ensemble.EnsembleSpec(mode="act", size=15, pool_size=14)

    def test_default_pool_prefix(self):
        spec = tiny_spec()
        assert spec.pool() == default_pool()[:14]


class TestMemberSeeds:
    def test_are_the_stream_outputs(self):
        seeds = ensemble.member_seeds(123, 4)
        stream = SplitMix64(123)
        assert seeds == [stream.next_u64() for _ in range(4)]

    def test_distinct(self):
        seeds = ensemble.member_seeds(0, 100)
        assert len(set(seeds)) == 100


class TestFuseProbs:
    def test_two_map_mean(self):
        a = np.full((2, 2, 2), 0.6)
        a[0] = 0.4
        b = np.full((2, 2, 2), 0.2)
        b[0] = 0.8
        fused = ensemble.fuse_probs([a, b])
        np.testing.assert_allclose(fused[1], 0.4)

    def test_idempotent_on_copies(self):
        m = SplitMix64(1).uniform_array(2 * 3 * 3).reshape(2, 3, 3)
        np.testing.assert_array_equal(ensemble.fuse_probs([m, m, m]), m)

    def test_permutation_invariant(self):
        rng = SplitMix64(2)
        maps = [rng.uniform_array(2 * 4 * 4).reshape(2, 4, 4) for _ in range(5)]
        f1 = ensemble.fuse_probs(maps)
        f2 = ensemble.fuse_probs(maps[::-1])
        np.testing.assert_allclose(f1, f2, atol=1e-15)

    def test_keeps_per_pixel_normalization(self):
        rng = SplitMix64(3)
        maps = []
        for _ in range(4):
            fg = rng.uniform_array(16).reshape(4, 4)
            maps.append(np.stack([1 - fg, fg]).astype(np.float32))
        fused = ensemble.fuse_probs(maps)
        np.testing.assert_allclose(fused.sum(axis=0), 1.0, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ensemble.fuse_probs([np.zeros((2, 2, 2)), np.zeros((2, 3, 3))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble.fuse_probs([])


class TestTrainEnsemble:
    def test_relu_mode_members_differ_only_by_init(self, tiny_data):
        train, _ = tiny_data
        ens = ensemble.train_ensemble(tiny_spec(mode="relu", size=3), train)
        for m in ens.members:
            assert all(k == ActivationKind.RELU for k in m.assignment)
        inits = {m.init_seed for m in ens.members}
        assert len(inits) == 3

    def test_act_mode_walks_the_pool(self, tiny_data):
        train, _ = tiny_data
        ens = ensemble.train_ensemble(tiny_spec(mode="act", size=3, epochs=1), train)
        pool = default_pool()
        for i, m in enumerate(ens.members):
            assert set(m.assignment) == {pool[i]}

    def test_sto_mode_is_reproducible(self, tiny_data):
        train, _ = tiny_data
        e1 = ensemble.train_ensemble(tiny_spec(), train)
        e2 = ensemble.train_ensemble(tiny_spec(), train)
        for m1, m2 in zip(e1.members, e2.members):
            assert m1.assignment == m2.assignment
            for k, v in m1.parameters().items():
                np.testing.assert_array_equal(v, m2.parameters()[k])

    def test_parallel_matches_sequential(self, tiny_data):
        train, _ = tiny_data
        seq = ensemble.train_ensemble(tiny_spec(master_seed=9), train, parallel=1)
        par = ensemble.train_ensemble(tiny_spec(master_seed=9), train, parallel=2)
        for m1, m2 in zip(seq.members, par.members):
            for k, v in m1.parameters().items():
                np.testing.assert_array_equal(v, m2.parameters()[k])

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble.train_ensemble(tiny_spec(), [])

    def test_failures_carry_member_index(self, tiny_data):
        train, _ = tiny_data
        bad = [data.Sample(s.ident, s.image[:, :8, :8], s.mask[:8, :8], (8, 8))
               for s in train]
        with pytest.raises(RuntimeError, match="member 0"):
            ensemble.train_ensemble(tiny_spec(), bad)


class TestEvaluate:
    def test_singleton_matches_single_model(self, tiny_data):
        train, test = tiny_data
        ens = ensemble.train_ensemble(tiny_spec(size=1), train)
        fused = ensemble.ensemble_evaluate(ens, test)
        single = ensemble.evaluate_model(ens.members[0], test)
        assert fused == single

    def test_copies_match_single_model(self, tiny_data):
        train, test = tiny_data
        ens = ensemble.train_ensemble(tiny_spec(size=1), train)
        m = ens.members[0]
        copies = ensemble.Ensemble(members=[m, m, m], spec=tiny_spec(size=3),
                                   member_seeds=[1, 2, 3])
        assert ensemble.ensemble_evaluate(copies, test) == ensemble.evaluate_model(m, test)

    def test_empty_test_set(self, tiny_data):
        train, _ = tiny_data
        ens = ensemble.train_ensemble(tiny_spec(size=1), train)
        with pytest.raises(ValueError, match="empty"):
            ensemble.ensemble_evaluate(ens, [])

    def test_evaluation_is_deterministic(self, tiny_data):
        train, test = tiny_data
        ens = ensemble.train_ensemble(tiny_spec(), train)
        assert ensemble.ensemble_evaluate(ens, test) == ensemble.ensemble_evaluate(ens, test)


class TestCheckpointDir:
    def test_round_trip(self, tiny_data, tmp_path):
        train, test = tiny_data
        spec = tiny_spec()
        ens = ensemble.train_ensemble(spec, train)
        ensemble.save_ensemble(tmp_path / "ens", ens)
        back = ensemble.load_ensemble(tmp_path / "ens", spec)
        assert back.member_seeds == ens.member_seeds
        for m1, m2 in zip(ens.members, back.members):
            for k, v in m1.parameters().items():
                np.testing.assert_array_equal(v, m2.parameters()[k])
        assert ensemble.ensemble_evaluate(back, test) == ensemble.ensemble_evaluate(ens, test)

    def test_manifest_contents(self, tiny_data, tmp_path):
        train, _ = tiny_data
        spec = tiny_spec(mode="relu", size=2)
        ens = ensemble.train_ensemble(spec, train)
        ensemble.save_ensemble(tmp_path / "e", ens)
        manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
        assert manifest["mode"] == "relu"
        assert manifest["size"] == 2
        assert manifest["member_seeds"] == ens.member_seeds
        assert manifest["pool"][0] == "relu"


@pytest.fixture(scope="module")
def saved_relu(tiny_data, tmp_path_factory):
    """A saved 2-member relu ensemble and the spec it was trained with."""
    train, _ = tiny_data
    spec = tiny_spec(mode="relu", size=2, epochs=1)
    directory = tmp_path_factory.mktemp("relu_ens")
    ensemble.save_ensemble(directory, ensemble.train_ensemble(spec, train))
    return directory, spec


def edited_manifest(saved, tmp_path, edit):
    """Copy the saved ensemble and replace its manifest text by ``edit(text)``;
    returns the copy's manifest path."""
    directory, _ = saved
    shutil.copytree(directory, tmp_path / "ens")
    path = tmp_path / "ens" / ensemble.MANIFEST_NAME
    path.write_text(edit(path.read_text()))
    return path


def reversed_seeds(text):
    manifest = json.loads(text)
    return json.dumps({**manifest, "member_seeds": manifest["member_seeds"][::-1]})


class TestLoadEnsembleMismatch:
    @pytest.mark.parametrize("key, change", [
        ("mode", {"mode": "sto"}),
        ("size", {"size": 3}),
        ("master_seed", {"master_seed": 6}),
        ("pool", {"pool_size": 13}),
    ])
    def test_manifest_key(self, saved_relu, key, change):
        directory, spec = saved_relu
        with pytest.raises(ValueError, match=f"{ensemble.MANIFEST_NAME}: {key} is") as err:
            ensemble.load_ensemble(directory, replace(spec, **change))
        assert str(directory / ensemble.MANIFEST_NAME) in str(err.value)

    def test_member_seed_count(self, saved_relu, tmp_path):
        directory, spec = saved_relu
        shutil.copytree(directory, tmp_path / "ens")
        path = tmp_path / "ens" / ensemble.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["member_seeds"].pop()
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="member_seeds has 1 entries") as err:
            ensemble.load_ensemble(tmp_path / "ens", spec)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda text: text[: len(text) // 2], "unreadable manifest", id="not_json"),
        pytest.param(lambda text: text.replace('"version": 1', '"version": 99'),
                     "unsupported manifest version 99", id="version_99"),
        pytest.param(reversed_seeds, "member_seeds are", id="seed_values"),
    ])
    def test_edited_manifest(self, saved_relu, tmp_path, edit, message):
        path = edited_manifest(saved_relu, tmp_path, edit)
        with pytest.raises(ValueError, match=message) as err:
            ensemble.load_ensemble(path.parent, saved_relu[1])
        assert str(path) in str(err.value)

    def test_member_network_config(self, saved_relu):
        directory, spec = saved_relu
        wrong = replace(spec, network=replace(spec.network, input_size=64))
        with pytest.raises(ValueError, match="config input_size is 16, spec has 64") as err:
            ensemble.load_ensemble(directory, wrong)
        assert str(directory / "member_000.npz") in str(err.value)

    def test_matching_spec_loads(self, saved_relu):
        directory, spec = saved_relu
        assert ensemble.load_ensemble(directory, spec).spec == spec
