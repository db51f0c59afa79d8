import json
import shutil
import tracemalloc
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_stacked_float64_sum(self, dtype, n):
        # the stacked-copy form fuse_probs replaced, summed over the stack axis
        # in member order; values and sign bits must match it
        rng = SplitMix64(n)
        maps = [rng.uniform_array(2 * 3 * 8).reshape(2, 3, 8).astype(dtype) for _ in range(n)]
        maps[0][0, 0, :2] = [-0.0, 0.0]
        maps[-1][0, 0, :3] = [0.0, -0.0, -0.0]
        m0 = maps[0].astype(np.float64)
        want = m0 + (np.stack(maps).astype(np.float64) - m0).sum(axis=0) / n
        got = ensemble.fuse_probs(maps)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

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

    def test_shape_mismatch_in_a_generator_names_its_index(self):
        maps = [np.zeros((2, 2, 2))] * 2 + [np.zeros((2, 3, 3))]
        with pytest.raises(ValueError, match=r"map 2 has shape \(2, 3, 3\)"):
            ensemble.fuse_probs(m for m in maps)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble.fuse_probs([])

    def test_empty_iterable_rejected(self):
        with pytest.raises(ValueError, match="cannot fuse an empty list"):
            ensemble.fuse_probs(m for m in [])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_generator_gives_the_bytes_of_the_list(self, n):
        rng = SplitMix64(n + 10)
        maps = [rng.uniform_array(2 * 4 * 4).reshape(2, 4, 4).astype(np.float32)
                for _ in range(n)]
        want = ensemble.fuse_probs(maps)
        assert ensemble.fuse_probs(m for m in maps).tobytes() == want.tobytes()

    def test_no_float64_copy_per_member(self):
        # four float32 maps of 64 images at 64x64; the float64 total and one
        # float64 deviation are the only full-size temporaries
        rng = SplitMix64(3)
        maps = [rng.uniform_array(64 * 2 * 64 * 64).reshape(64, 2, 64, 64).astype(np.float32)
                for _ in range(4)]
        tracemalloc.start()
        try:
            fused = ensemble.fuse_probs(maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * fused.nbytes


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

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble.train_ensemble(tiny_spec(), [])

    def test_parallel_below_one_rejected(self, tiny_data):
        train, _ = tiny_data
        for parallel in (0, 2):
            with pytest.raises(ValueError, match=f"parallel must be 1, got {parallel}"):
                ensemble.train_ensemble(tiny_spec(), train, parallel=parallel)

    def test_a_failure_starts_no_queued_member(self, tiny_data, monkeypatch):
        started = []

        def train_member(spec, samples, index):
            started.append(index)
            if index == 0:
                raise ValueError("bad member")
            return None, []

        monkeypatch.setattr(ensemble, "train_member", train_member)
        train, _ = tiny_data
        with pytest.raises(RuntimeError, match="member 0 failed: bad member"):
            ensemble.train_ensemble(tiny_spec(size=8), train)
        assert started == [0]

    def test_failures_carry_member_index(self, tiny_data):
        train, _ = tiny_data
        bad = [data.Sample(s.ident, s.image[:, :8, :8], s.mask[:8, :8], (8, 8))
               for s in train]
        with pytest.raises(RuntimeError, match="member 0"):
            ensemble.train_ensemble(tiny_spec(), bad)


class TestTrainMember:
    @pytest.mark.parametrize("mode", ["sto", "act", "relu"])
    def test_equals_the_ensemble_member(self, tiny_data, tmp_path, mode):
        train, _ = tiny_data
        spec = tiny_spec(mode=mode, size=3)
        ens = ensemble.train_ensemble(spec, train)
        for i, member in enumerate(ens.members):
            model, history = ensemble.train_member(spec, train, i)
            assert len(history) == spec.train.epochs
            network.save_model(tmp_path / "model.npz", model)
            network.save_model(tmp_path / "member.npz", member)
            assert (tmp_path / "model.npz").read_bytes() == (tmp_path / "member.npz").read_bytes(), i

    @pytest.mark.parametrize("index", [-1, 2, 3])
    def test_build_member_rejects_an_index_outside_the_ensemble(self, index):
        with pytest.raises(ValueError, match=rf"member index {index} is outside range\(2\)"):
            ensemble.build_member(tiny_spec(size=2), index)


class TestBuildMember:
    def test_sto_member_draws_its_sites_from_the_pool(self):
        spec = replace(tiny_spec(size=3), pool_size=4)
        for i, seed in enumerate(ensemble.member_seeds(spec.master_seed, 3)):
            asn = ensemble.build_member(spec, i).assignment
            assert asn == network.assign_activations(spec.pool(), spec.network.site_count, seed)
            assert set(asn) <= set(spec.pool())

    def test_act_member_i_is_pool_kind_i(self):
        spec = tiny_spec(mode="act", size=4)
        for i in range(4):
            asn = ensemble.build_member(spec, i).assignment
            assert asn == (default_pool()[i],) * spec.network.site_count

    def test_relu_member_is_all_relu_at_any_index(self):
        spec = tiny_spec(mode="relu", size=3)
        for i in range(3):
            asn = ensemble.build_member(spec, i).assignment
            assert asn == (ActivationKind.RELU,) * spec.network.site_count

    def test_act_member_0_is_relu_member_0(self):
        seed = ensemble.member_seeds(5, 1)[0]
        act = ensemble._member_recipe(tiny_spec(mode="act", size=3), 0, seed)
        relu = ensemble._member_recipe(tiny_spec(mode="relu", size=3), 0, seed)
        assert act == relu
        assert act[0] == (ActivationKind.RELU,) * tiny_spec().network.site_count

    def test_init_seed_follows_the_member_seed(self):
        spec = tiny_spec(mode="relu", size=3)
        a, b = ensemble.build_member(spec, 0), ensemble.build_member(spec, 1)
        assert a.init_seed != b.init_seed
        assert ensemble.build_member(spec, 1, seed=123).init_seed == \
            ensemble.build_member(spec, 2, seed=123).init_seed


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
        copies = ensemble.Ensemble(members=[m, m, m], spec=tiny_spec(size=3))
        assert ensemble.ensemble_evaluate(copies, test) == ensemble.evaluate_model(m, test)

    def test_empty_test_set(self, tiny_data):
        train, _ = tiny_data
        ens = ensemble.train_ensemble(tiny_spec(size=1), train)
        with pytest.raises(ValueError, match="empty"):
            ensemble.ensemble_evaluate(ens, [])

    def test_members_are_fused_as_they_are_predicted(self, monkeypatch):
        """Scoring holds the first member's map and one other, so four more
        members add less than one map to the traced peak."""
        monkeypatch.setattr(network, "_use_second_thread", lambda: False)  # like for like peaks
        cfg = tiny_spec().network
        models = [network.build_model(cfg, (ActivationKind.RELU,) * cfg.site_count, seed)
                  for seed in range(6)]
        test = list(data.synth_blobs(32, 16, 8))
        map_bytes = 32 * 2 * 16 * 16 * 4
        peaks = {}
        tracemalloc.start()
        try:
            for n in (2, 6):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                ensemble.evaluate_models(models[:n], test, cfg.input_size)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks[6] <= peaks[2] + map_bytes, peaks

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
        manifest = json.loads((tmp_path / "ens" / ensemble.MANIFEST_NAME).read_text())
        assert manifest["member_seeds"] == ensemble.member_seeds(spec.master_seed, spec.size)
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
        assert manifest["member_seeds"] == ensemble.member_seeds(spec.master_seed, 2)
        assert manifest["pool"][0] == "relu"

    def test_save_rejects_copies_of_one_member(self, tmp_path):
        """Members 1 and 2 are member 0 again, so load_ensemble would reject
        their files: save_ensemble names the first and writes nothing."""
        spec = tiny_spec(mode="relu", size=3)
        m = ensemble.build_member(spec, 0)
        with pytest.raises(ValueError, match="member 1: init_seed is"):
            ensemble.save_ensemble(tmp_path / "ens", ensemble.Ensemble([m, m, m], spec))
        assert not (tmp_path / "ens").exists()

    def test_save_rejects_a_member_of_another_network(self, tmp_path):
        spec = tiny_spec(mode="relu", size=1)
        m = ensemble.build_member(replace(spec, network=replace(spec.network, fuse_width=4)), 0)
        with pytest.raises(ValueError, match="member 0: config fuse_width is 4, spec has 8"):
            ensemble.save_ensemble(tmp_path / "ens", ensemble.Ensemble([m], spec))
        assert not (tmp_path / "ens").exists()


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


def replaced_seeds(value):
    """An ``edited_manifest`` edit that sets member_seeds to ``value(seeds)``."""
    def edit(text):
        manifest = json.loads(text)
        return json.dumps({**manifest, "member_seeds": value(manifest["member_seeds"])})
    return edit


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
        pytest.param(replaced_seeds(lambda s: s[::-1]), "member_seeds are", id="seed_values"),
        pytest.param(replaced_seeds(lambda s: 5), "member_seeds is 5, not a list",
                     id="seeds_int"),
        pytest.param(replaced_seeds(lambda s: None), "member_seeds is None, not a list",
                     id="seeds_null"),
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

    def test_member_from_another_ensemble(self, tmp_path):
        """Member 1 of an act ensemble (all leaky_relu) in place of member 0
        of a sto ensemble with the same network."""
        def save(mode, name):
            spec = tiny_spec(mode=mode, size=2)
            members = [ensemble.build_member(spec, i) for i in range(2)]
            ensemble.save_ensemble(tmp_path / name, ensemble.Ensemble(members, spec))
            return spec
        sto = save("sto", "sto")
        save("act", "act")
        shutil.copy(tmp_path / "act" / "member_001.npz", tmp_path / "sto" / "member_000.npz")
        with pytest.raises(ValueError, match=r"assignment is \['leaky_relu', ") as err:
            ensemble.load_ensemble(tmp_path / "sto", sto)
        assert str(tmp_path / "sto" / "member_000.npz") in str(err.value)

    def test_duplicated_member(self, saved_relu, tmp_path):
        directory, spec = saved_relu
        shutil.copytree(directory, tmp_path / "ens")
        shutil.copy(tmp_path / "ens" / "member_001.npz", tmp_path / "ens" / "member_000.npz")
        with pytest.raises(ValueError, match="init_seed is") as err:
            ensemble.load_ensemble(tmp_path / "ens", spec)
        assert str(tmp_path / "ens" / "member_000.npz") in str(err.value)

    def test_matching_spec_loads(self, saved_relu):
        directory, spec = saved_relu
        assert ensemble.load_ensemble(directory, spec).spec == spec
