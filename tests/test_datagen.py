import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dltsched import datagen
from dltsched.datagen import (
    Dataset,
    DatasetHeader,
    SamplerRanges,
    apply_normalization,
    denormalize_target,
    extract_features,
    fit_normalization,
    generate_dataset,
    load_dataset,
    sample_config,
    save_dataset,
    split_dataset,
)
from dltsched.errors import ConstantFeatureError, FileFormatError, InvalidInputError, StratificationError
from dltsched.solver import SltnConfig, oracle_solve, to_time_rates

from conftest import dataset_of


def make_config(n, speeds, bws, root=5.0, load=10.0):
    return SltnConfig(n=n, root_speed=root, child_speeds=tuple(speeds), link_bandwidths=tuple(bws), load_gb=load)


@st.composite
def wide_configs(draw):
    """Systems of 1-40 children with speeds and bandwidths over 0.01-1e3."""
    n = draw(st.integers(1, 40))
    value = st.floats(0.01, 1e3)
    return make_config(
        n,
        draw(st.lists(value, min_size=n, max_size=n)),
        draw(st.lists(value, min_size=n, max_size=n)),
        root=draw(value),
        load=draw(value),
    )


class TestSampleConfig:
    def test_deterministic_given_seed(self):
        a = sample_config(datagen.record_rng(123, 0))
        b = sample_config(datagen.record_rng(123, 0))
        assert a == b
        c = sample_config(datagen.record_rng(123, 1))
        assert a != c

    def test_draws_stay_in_ranges(self):
        ranges = SamplerRanges()
        ns, speeds, bws, loads = set(), [], [], []
        for i in range(10_000):
            cfg = sample_config(datagen.record_rng(9, i), ranges)
            ns.add(cfg.n)
            speeds.extend((cfg.root_speed, *cfg.child_speeds))
            bws.extend(cfg.link_bandwidths)
            loads.append(cfg.load_gb)
        assert ns == set(range(3, 21))
        assert 1.0 <= min(speeds) and max(speeds) < 15.0
        assert 10.0 <= min(bws) and max(bws) < 150.0
        assert 1.0 <= min(loads) and max(loads) < 100.0


class TestExtractFeatures:
    def test_homogeneous_children(self):
        f = extract_features(make_config(4, [5.0] * 4, [50.0] * 4, root=5.0, load=10.0))
        assert (f.std_w, f.std_z, f.cv_w, f.cv_z) == (0.0, 0.0, 0.0, 0.0)
        assert (f.heterog_w, f.heterog_z) == (1.0, 1.0)
        assert f.comp_comm_ratio == pytest.approx(0.1)
        assert f.n == 4.0 and f.load_gb == 10.0 and f.w0 == 5.0

    def test_extreme_speed_spread(self):
        f = extract_features(make_config(2, [1.0, 15.0], [10.0, 10.0]))
        assert f.heterog_w == 15.0

    def test_hand_computed_statistics(self):
        f = extract_features(make_config(3, [2.0, 4.0, 6.0], [10.0, 20.0, 30.0]))
        assert f.mean_w == 4.0
        assert f.std_w == pytest.approx(1.6329931618554518, rel=1e-12)  # population std
        assert (f.min_w, f.max_w) == (2.0, 6.0)
        assert f.comp_comm_ratio == pytest.approx(0.2)

    def test_canonical_vector_order(self):
        f = extract_features(make_config(3, [2.0, 4.0, 6.0], [10.0, 20.0, 30.0], root=7.0, load=42.0))
        arr = f.as_array()
        assert arr.shape == (16,)
        assert arr[0] == 3.0 and arr[1] == 42.0 and arr[10] == 7.0
        assert datagen.FEATURE_NAMES == datagen.FeatureVector._fields
        # Every field is a Python float, also from integer-valued inputs, so
        # a saved dataset writes each feature as a JSON float.
        g = extract_features(make_config(3, [2, 4, 6], [10, 20, 30], root=7, load=42))
        assert all(type(v) is float for v in g) and g == f

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(wide_configs())
    def test_matches_numpy_reference(self, config):
        # extract_features sums in plain Python with math.fsum; numpy's
        # pairwise sums may differ from it in the last bit. Standard
        # deviations can cancel to nearly zero, so they and the coefficients
        # of variation are held to 1e-12 of the mean, not of themselves.
        f = extract_features(config)
        for prefix, values in (("w", config.child_speeds), ("z", config.link_bandwidths)):
            arr = np.array(values)
            mean, std = float(np.mean(arr)), float(np.std(arr, ddof=0))
            assert getattr(f, f"mean_{prefix}") == pytest.approx(mean, rel=1e-12)
            assert getattr(f, f"std_{prefix}") == pytest.approx(std, rel=0, abs=1e-12 * mean)
            assert getattr(f, f"cv_{prefix}") == pytest.approx(std / mean, rel=0, abs=1e-12)
            assert (getattr(f, f"min_{prefix}"), getattr(f, f"max_{prefix}")) == (min(values), max(values))
            assert getattr(f, f"heterog_{prefix}") == max(values) / min(values)
        ratio = np.mean(config.child_speeds) / np.mean(config.link_bandwidths)
        assert f.comp_comm_ratio == pytest.approx(ratio, rel=1e-12)
        assert (f.n, f.load_gb, f.w0) == (config.n, config.load_gb, config.root_speed)
        assert list(f.as_array()) == [getattr(f, name) for name in datagen.FEATURE_NAMES]


class TestGenerateDataset:
    def test_deterministic(self):
        a = generate_dataset(50, seed=42)
        b = generate_dataset(50, seed=42)
        assert a.configs == b.configs
        assert np.array_equal(a.features, b.features) and np.array_equal(a.t_star, b.t_star)

    def test_labels_replay_through_oracle(self):
        dataset = generate_dataset(50, seed=3)
        for config, t_star in zip(dataset.configs, dataset.t_star):
            replay = oracle_solve(to_time_rates(config, 100.0), config.load_gb)
            assert replay.t_star == pytest.approx(t_star, rel=1e-9)

    def test_feature_consistency(self):
        dataset = generate_dataset(20, seed=4)
        for config, row in zip(dataset.configs, dataset.features.tolist()):
            assert list(extract_features(config)) == row


class TestDataset:
    def test_take_keeps_fields_aligned_and_arrays_read_only(self):
        dataset = generate_dataset(12, seed=5)
        rows = [7, 2, 2, 11]
        part = dataset.take(rows)
        assert len(part) == 4
        assert part.configs == tuple(dataset.configs[i] for i in rows)
        for row, config in zip(part.features.tolist(), part.configs):
            assert tuple(row) == extract_features(config)
        assert part.t_star.tolist() == [dataset.t_star[i] for i in rows]
        assert part.column("load_gb").tolist() == [c.load_gb for c in part.configs]
        for arr in (dataset.features, dataset.t_star, part.features, part.t_star):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_constructor_copies_its_arrays(self):
        configs = [make_config(3, [2.0, 4.0, 6.0], [10.0, 20.0, 30.0])] * 2
        features = np.ones((2, 16))
        t_star = np.ones(2)
        dataset = Dataset(tuple(configs), features, t_star)
        features[0, 0] = t_star[0] = 5.0
        assert dataset.features[0, 0] == dataset.t_star[0] == 1.0

    @pytest.mark.parametrize(
        "count, features_shape, t_star_shape",
        [(3, (2, 16), (3,)), (3, (3, 16), (2,)), (3, (3, 15), (3,)), (3, (3, 17), (3,)), (3, (48,), (3,))],
        ids=["short-features", "short-t-star", "width-15", "width-17", "flat-features"],
    )
    def test_rejects_mismatched_shapes(self, count, features_shape, t_star_shape):
        configs = (make_config(3, [2.0, 4.0, 6.0], [10.0, 20.0, 30.0]),) * count
        with pytest.raises(InvalidInputError, match="shape"):
            Dataset(configs, np.ones(features_shape), np.ones(t_star_shape))


def reference_split(configs, seed):
    """Row indices of the record-at-a-time stratified split, grouped on
    ``configs[i].n``: strata in ascending n, members in dataset order, one
    permutation per stratum."""
    strata: dict[int, list[int]] = {}
    for i, config in enumerate(configs):
        strata.setdefault(config.n, []).append(i)
    rng = np.random.default_rng(seed)
    train_idx, val_idx, test_idx = [], [], []
    for n in sorted(strata):
        members = strata[n]
        shuffled = [members[j] for j in rng.permutation(len(members))]
        n_val = round(datagen.VAL_FRACTION * len(members))
        n_test = round((1.0 - datagen.TRAIN_FRACTION - datagen.VAL_FRACTION) * len(members))
        n_train = len(members) - n_val - n_test
        train_idx.extend(shuffled[:n_train])
        val_idx.extend(shuffled[n_train : n_train + n_val])
        test_idx.extend(shuffled[n_train + n_val :])
    return train_idx, val_idx, test_idx


class TestSplitDataset:
    @staticmethod
    def dataset_with_n(counts: dict[int, int]):
        configs, t_star = [], []
        for n, count in counts.items():
            for i in range(count):
                configs.append(make_config(n, [2.0 + i % 5] * n, [20.0 + i % 7] * n, load=1.0 + i))
                t_star.append(float(1 + i))
        return dataset_of(configs, t_star)

    def test_overall_proportions(self):
        dataset = self.dataset_with_n({3: 50, 4: 50})
        train, val, test = split_dataset(dataset, seed=0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_every_stratum_in_every_split(self):
        dataset = self.dataset_with_n({3: 10, 7: 20, 20: 40})
        train, val, test = split_dataset(dataset, seed=1)
        for part in (train, val, test):
            assert {config.n for config in part.configs} == {3, 7, 20}

    def test_partition_property(self):
        dataset = self.dataset_with_n({5: 30, 6: 12})
        parts = split_dataset(dataset, seed=2)
        assert sum(map(len, parts)) == len(dataset)
        keys = lambda d: [(c.n, c.load_gb, t) for c, t in zip(d.configs, d.t_star.tolist())]
        assert sorted(key for part in parts for key in keys(part)) == sorted(keys(dataset))

    def test_deterministic(self):
        dataset = self.dataset_with_n({3: 20, 4: 20})
        for a, b in zip(split_dataset(dataset, seed=9), split_dataset(dataset, seed=9)):
            assert a.configs == b.configs and np.array_equal(a.t_star, b.t_star)

    def test_matches_record_at_a_time_reference(self):
        dataset = generate_dataset(1000, seed=17)
        assert len({config.n for config in dataset.configs}) == 18
        for seed in (0, 17):
            for part, rows in zip(split_dataset(dataset, seed), reference_split(dataset.configs, seed)):
                assert part.configs == tuple(dataset.configs[i] for i in rows)
                assert np.array_equal(part.features, dataset.features[rows])
                assert np.array_equal(part.t_star, dataset.t_star[rows])

    def test_small_stratum_rejected(self):
        dataset = self.dataset_with_n({3: 9})
        with pytest.raises(StratificationError):
            split_dataset(dataset, seed=0)


class TestNormalization:
    def test_train_columns_become_standard(self):
        dataset = generate_dataset(300, seed=8)
        stats = fit_normalization(dataset)
        x, y = apply_normalization(stats, dataset.features, dataset.t_star)
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(x.std(axis=0), 1.0, atol=1e-9)
        assert abs(y.mean()) <= 1e-9 and abs(y.std() - 1.0) <= 1e-9

    def test_held_out_mean_not_centered(self):
        dataset = generate_dataset(400, seed=12)
        stats = fit_normalization(dataset.take(range(200)))
        x = apply_normalization(stats, dataset.features[200:])
        assert np.any(np.abs(x.mean(axis=0)) > 1e-6)

    def test_population_std_convention(self):
        cfg_a = make_config(2, [2.0, 4.0], [10.0, 20.0], root=5.0, load=10.0)
        cfg_b = make_config(3, [1.0, 3.0, 9.0], [30.0, 60.0, 90.0], root=7.0, load=20.0)
        stats = fit_normalization(dataset_of([cfg_a, cfg_b], [1.0, 3.0]))
        assert stats.target_mean == 2.0
        assert stats.target_std == 1.0

    def test_round_trip(self):
        dataset = generate_dataset(100, seed=5)
        stats = fit_normalization(dataset)
        y = dataset.t_star
        x = dataset.features
        x_n, y_n = apply_normalization(stats, x, y)
        np.testing.assert_allclose(denormalize_target(stats, y_n), y, rtol=1e-12)
        back = x_n * np.array(stats.feature_stds) + np.array(stats.feature_means)
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-12)

    def test_mean_maps_to_zero_and_one_std_to_one(self):
        dataset = generate_dataset(60, seed=6)
        stats = fit_normalization(dataset)
        at_mean = apply_normalization(stats, np.array(stats.feature_means))
        np.testing.assert_allclose(at_mean, 0.0, atol=1e-12)
        one_up = apply_normalization(
            stats, np.array(stats.feature_means) + np.array(stats.feature_stds)
        )
        np.testing.assert_allclose(one_up, 1.0, rtol=1e-12)

    def test_stats_arrays_are_cached_and_read_only(self):
        stats = fit_normalization(generate_dataset(60, seed=6))
        assert stats.mean_array is stats.mean_array and stats.std_array is stats.std_array
        assert tuple(stats.mean_array) == stats.feature_means
        assert tuple(stats.std_array) == stats.feature_stds
        for arr in (stats.mean_array, stats.std_array):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert stats == datagen.NormalizationStats(
            stats.feature_means, stats.feature_stds, stats.target_mean, stats.target_std
        )

    def test_constant_feature_rejected(self):
        cfg = make_config(3, [2.0, 4.0, 6.0], [10.0, 20.0, 30.0])
        with pytest.raises(ConstantFeatureError):
            fit_normalization(dataset_of([cfg] * 5, [float(i + 1) for i in range(5)]))


class TestDatasetFiles:
    @staticmethod
    def header(seed=7):
        return DatasetHeader(seed=seed, ranges=SamplerRanges(), compute_intensity=100.0)

    def test_round_trip(self, tmp_path):
        dataset = generate_dataset(30, seed=7)
        path = tmp_path / "data.jsonl"
        save_dataset(path, dataset, self.header())
        header, loaded = load_dataset(path)
        assert loaded.configs == dataset.configs
        assert loaded.features.tobytes() == dataset.features.tobytes()
        assert loaded.t_star.tobytes() == dataset.t_star.tobytes()
        assert header == self.header()
        head = json.loads(path.read_text().splitlines()[0])
        assert (head["version"], head["count"], head["std_convention"]) == (datagen.FORMAT_VERSION, 30, "population")

    def test_byte_identical_rewrites(self, tmp_path):
        dataset = generate_dataset(25, seed=11)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(p1, dataset, self.header(seed=11))
        save_dataset(p2, generate_dataset(25, seed=11), self.header(seed=11))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format":"something-else","version":1}\n')
        with pytest.raises(FileFormatError):
            load_dataset(path)
        path.write_text("not json\n")
        with pytest.raises(FileFormatError):
            load_dataset(path)

    def test_rejects_truncated_file(self, tmp_path):
        dataset = generate_dataset(10, seed=2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, dataset, self.header(seed=2))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FileFormatError):
            load_dataset(path)

    @staticmethod
    def edit_record(tmp_path, edit):
        """A saved 10-record dataset whose fourth line (third record) went through ``edit``."""
        path = tmp_path / "data.jsonl"
        save_dataset(path, generate_dataset(10, seed=2), TestDatasetFiles.header(seed=2))
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        edit(record)
        lines[3] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_rejects_wrong_feature_count(self, tmp_path):
        path = self.edit_record(tmp_path, lambda record: record["features"].append(1.0))
        with pytest.raises(FileFormatError, match=":4: malformed record"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda record: record.update(t_star=-2.0), "t_star must be positive"),
            (lambda record: record.update(t_star=float("inf")), "t_star must be positive"),
            (lambda record: record["features"].__setitem__(5, float("nan")), "non-finite feature"),
        ],
        ids=["negative-t-star", "infinite-t-star", "nan-feature"],
    )
    def test_names_the_bad_line(self, tmp_path, edit, message):
        with pytest.raises(FileFormatError, match=f":4: {message}"):
            load_dataset(self.edit_record(tmp_path, edit))
