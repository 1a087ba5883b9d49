import hashlib
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
    extract_features,
    fit_normalization,
    generate_dataset,
    load_dataset,
    sample_config,
    save_dataset,
    split_dataset,
)
from dltsched.errors import FileFormatError, InvalidInputError, StratificationError
from dltsched.solver import SltnConfig, to_time_rates

from conftest import dataset_of, exact_solve


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

    def test_labels_replay_exactly(self):
        dataset = generate_dataset(50, seed=3)
        for config, t_star in zip(dataset.configs, dataset.t_star):
            assert exact_solve(to_time_rates(config, 100.0), config.load_gb)[1] == pytest.approx(t_star, rel=1e-9)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70], ids=["negative", "2**64", "2**70"])
    def test_seed_must_fit_64_bits(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            generate_dataset(5, seed=seed)
        with pytest.raises(InvalidInputError, match="split seed"):
            split_dataset(generate_dataset(5, seed=1), seed)
        generate_dataset(1, seed=2**64 - 1)

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
    def test_fits_column_means_and_population_stds(self):
        dataset = generate_dataset(300, seed=8)
        stats = fit_normalization(dataset.features, dataset.t_star)
        assert stats.feature_means == tuple(dataset.features.mean(axis=0).tolist())
        assert stats.feature_stds == tuple(dataset.features.std(axis=0).tolist())
        assert (stats.target_mean, stats.target_std) == (dataset.t_star.mean(), dataset.t_star.std())

    @pytest.mark.parametrize(
        "shape, count",
        [((3, 16), 2), ((3, 15), 3), ((3,), 3), ((0, 16), 0), ((1, 16), ())],
        ids=["fewer-makespans", "narrow-rows", "one-dimensional", "empty", "scalar-makespan"],
    )
    def test_rejects_rows_that_are_not_one_per_makespan(self, shape, count):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError, match="one per makespan"):
            fit_normalization(rng.random(shape), rng.random(count))

    def test_population_std_convention(self):
        cfg_a = make_config(2, [2.0, 4.0], [10.0, 20.0], root=5.0, load=10.0)
        cfg_b = make_config(3, [1.0, 3.0, 9.0], [30.0, 60.0, 90.0], root=7.0, load=20.0)
        dataset = dataset_of([cfg_a, cfg_b], [1.0, 3.0])
        stats = fit_normalization(dataset.features, dataset.t_star)
        assert stats.target_mean == 2.0
        assert stats.target_std == 1.0

    def test_stats_compare_by_value(self):
        dataset = generate_dataset(60, seed=6)
        stats = fit_normalization(dataset.features, dataset.t_star)
        assert stats == datagen.NormalizationStats(
            stats.feature_means, stats.feature_stds, stats.target_mean, stats.target_std
        )

    @pytest.mark.parametrize(
        "ranges, constant",
        [
            (SamplerRanges(n_range=(5, 5)), ["n"]),
            (SamplerRanges(speed_range=(4.0, 4.0)), ["mean_w", "std_w", "min_w", "max_w", "w0", "cv_w", "heterog_w"]),
            # 2.2 repeated has a mean a few ulps off 2.2, and so a std of about
            # 1e-13, not 0; the column is still constant.
            (SamplerRanges(load_range=(2.2, 2.2)), ["load_gb"]),
        ],
        ids=["one-n", "one-speed", "one-inexact-load"],
    )
    def test_constant_column_scales_by_one(self, ranges, constant):
        dataset = generate_dataset(120, seed=6, ranges=ranges)
        stats = fit_normalization(dataset.features, dataset.t_star)
        z = (dataset.features - stats.feature_means) / stats.feature_stds
        population_stds = dataset.features.std(axis=0)
        for name, std, population_std, column in zip(datagen.FEATURE_NAMES, stats.feature_stds, population_stds, z.T):
            if name in constant:
                assert std == 1.0
                np.testing.assert_allclose(column, 0.0, rtol=0, atol=1e-12)
            else:
                assert std == population_std > 0

    def test_constant_target_scales_by_one(self):
        dataset = generate_dataset(20, seed=6)
        stats = fit_normalization(dataset.features, np.full(20, 7.5))
        assert (stats.target_mean, stats.target_std) == (7.5, 1.0)

    def test_std_of_labels_whose_squares_overflow(self):
        # Speeds near 1e-200 give labels near 1e204; numpy's std squares
        # them to inf (with an overflow warning, an error in this suite).
        ranges = SamplerRanges(n_range=(3, 4), speed_range=(1e-200, 2e-200))
        dataset = generate_dataset(60, seed=1, ranges=ranges)
        peak = dataset.t_star.max()
        assert dataset.t_star.min() > 1e155  # every square is beyond the double range
        stats = fit_normalization(dataset.features, dataset.t_star)
        assert stats.target_std == pytest.approx((dataset.t_star / peak).std() * peak, rel=1e-15)


# The header's "ranges" for the default SamplerRanges.
FILE_RANGES = {"n": [3, 20], "load_gb": [1.0, 100.0], "speed": [1.0, 15.0], "bandwidth": [10.0, 150.0]}


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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        intensity=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.integers(1, 2**64 - 1),
        n_range=st.tuples(st.integers(1, 2**64 - 1), st.integers(1, 2**64 - 1)).map(sorted),
        load_range=st.tuples(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)).map(sorted),
    )
    def test_header_round_trips(self, tmp_path_factory, seed, intensity, n_range, load_range):
        header = DatasetHeader(
            seed=seed, ranges=SamplerRanges(n_range=tuple(n_range), load_range=tuple(load_range)), compute_intensity=intensity
        )
        path = tmp_path_factory.getbasetemp() / "header-data.jsonl"
        save_dataset(path, generate_dataset(3, seed=4), header)
        loaded, _ = load_dataset(path)
        assert loaded == header and type(loaded.compute_intensity) is type(intensity)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"seed": 7.0}, "seed"),
            ({"compute_intensity": 0.0}, "compute_intensity"),
            ({"compute_intensity": -1.0}, "compute_intensity"),
            ({"compute_intensity": float("inf")}, "compute_intensity"),
            ({"compute_intensity": float("nan")}, "compute_intensity"),
        ],
        ids=["negative-seed", "seed-2**64", "float-seed", "zero-intensity", "negative-intensity", "inf-intensity", "nan-intensity"],
    )
    def test_header_refuses_values_outside_its_rule(self, fields, name):
        with pytest.raises(InvalidInputError, match=name):
            DatasetHeader(**{"seed": 7, "ranges": SamplerRanges(), "compute_intensity": 100.0, **fields})

    def test_byte_identical_rewrites(self, tmp_path):
        dataset = generate_dataset(25, seed=11)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(p1, dataset, self.header(seed=11))
        save_dataset(p2, generate_dataset(25, seed=11), self.header(seed=11))
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_hash_is_sha256_of_the_bytes(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(path, generate_dataset(5, seed=3), self.header(seed=3))
        header, _ = load_dataset(path)
        assert header.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert self.header(seed=3).sha256 is None and header == self.header(seed=3)
        with pytest.raises(FileFormatError):
            load_dataset(tmp_path / "missing.jsonl")

    @pytest.mark.parametrize("intensity", [100.0, 10_000.0])
    def test_lines_are_compact_standard_json(self, tmp_path, intensity):
        dataset = generate_dataset(200, seed=5, compute_intensity=intensity)
        header = DatasetHeader(seed=5, ranges=SamplerRanges(), compute_intensity=intensity)
        path = tmp_path / "data.jsonl"
        save_dataset(path, dataset, header)
        head = {
            "format": datagen.DATASET_FORMAT,
            "version": datagen.FORMAT_VERSION,
            "seed": 5,
            "count": 200,
            "ranges": FILE_RANGES,
            "compute_intensity": intensity,
            "std_convention": "population",
        }
        records = [
            {
                "config": {
                    "n": c.n,
                    "root_speed": c.root_speed,
                    "child_speeds": list(c.child_speeds),
                    "link_bandwidths": list(c.link_bandwidths),
                    "load_gb": c.load_gb,
                },
                "features": dataset.features[i].tolist(),
                "t_star": dataset.t_star[i].item(),
            }
            for i, c in enumerate(dataset.configs)
        ]
        expected = "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in (head, *records))
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda features, t_star: t_star.__setitem__(1, np.nan),
            lambda features, t_star: features.__setitem__((0, 3), np.inf),
        ],
        ids=["nan-t-star", "infinite-feature"],
    )
    def test_refuses_non_finite_values(self, tmp_path, edit):
        dataset = generate_dataset(3, seed=4)
        features, t_star = dataset.features.copy(), dataset.t_star.copy()
        edit(features, t_star)
        path = tmp_path / "data.jsonl"
        with pytest.raises(InvalidInputError, match="finite"):
            save_dataset(path, Dataset(dataset.configs, features, t_star), self.header())
        assert not path.exists()

    def test_numpy_floats_are_written_as_floats(self, tmp_path):
        dataset = generate_dataset(3, seed=4)
        as_numpy = [
            SltnConfig(c.n, np.float64(c.root_speed), tuple(np.array(c.child_speeds)), c.link_bandwidths, c.load_gb)
            for c in dataset.configs
        ]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(p1, dataset, self.header())
        save_dataset(
            p2,
            Dataset(tuple(as_numpy), dataset.features, dataset.t_star),
            DatasetHeader(seed=7, ranges=SamplerRanges(), compute_intensity=np.float64(100.0)),
        )
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_outside_repr_spelling_range(self, tmp_path):
        # Below 1e-4 and from 1e15 on, the file spells floats differently
        # from Python's repr (0.00001 for 1e-05, 1e16 for 1e+16).
        configs = [
            make_config(3, [1e-5, 2.0, 3.5e-7], [10.0, 1e16, 20.0], root=1e-5, load=1e16),
            make_config(3, [1.0, 2.0, 3.0], [10.0, 20.0, 30.0]),
        ]
        dataset = dataset_of(configs, [1e-5, 2.5e17])
        path = tmp_path / "data.jsonl"
        save_dataset(path, dataset, DatasetHeader(seed=0, ranges=SamplerRanges(), compute_intensity=1e-5))
        assert b"0.00001" in path.read_bytes() and b"1e16" in path.read_bytes()
        header, loaded = load_dataset(path)
        assert loaded.configs == dataset.configs
        assert loaded.features.tobytes() == dataset.features.tobytes()
        assert loaded.t_star.tobytes() == dataset.t_star.tobytes()
        assert header.compute_intensity == 1e-5

    @pytest.mark.parametrize(
        "fields",
        [
            {"count": 30.9, "seed": 2.7},
            {"seed": 7.0},
            {"seed": "7"},
            {"seed": True},
            {"seed": -1},
            {"seed": 2**64},
            {"count": "10"},
            {"compute_intensity": "100.0"},
            {"compute_intensity": True},
            {"ranges": {**FILE_RANGES, "n": ["3", 20]}},
            {"ranges": {**FILE_RANGES, "n": [3, 4.9]}},
            {"ranges": {**FILE_RANGES, "load_gb": [True, 100.0]}},
            {"ranges": {**FILE_RANGES, "bandwidth": [10.0, "150.0"]}},
        ],
        ids=[
            "fractions",
            "float-seed",
            "text-seed",
            "boolean-seed",
            "negative-seed",
            "seed-2**64",
            "text-count",
            "text-intensity",
            "boolean-intensity",
            "text-n-bound",
            "fractional-n-bound",
            "boolean-load-bound",
            "text-bandwidth-bound",
        ],
    )
    def test_header_seed_and_count_are_integers(self, tmp_path, fields):
        path = tmp_path / "data.jsonl"
        save_dataset(path, generate_dataset(10, seed=2), self.header(seed=2))
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), **fields})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="malformed header"):
            load_dataset(path)

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
            (lambda record: record.update(t_star=float("inf")), "malformed record"),
            (lambda record: record["features"].__setitem__(5, float("nan")), "malformed record"),
            (lambda record: record["features"].__setitem__(5, "5.1"), "malformed record"),
            (lambda record: record.update(t_star="123.4"), "malformed record"),
            (lambda record: record["config"].update(load_gb="50.0"), "malformed record"),
            (lambda record: record["config"]["child_speeds"].__setitem__(0, "3.0"), "malformed record"),
            (lambda record: record["features"].__setitem__(0, True), "malformed record"),
            (lambda record: record["config"].update(n=float(record["config"]["n"])), "malformed record"),
        ],
        ids=[
            "negative-t-star",
            "infinite-t-star",
            "nan-feature",
            "text-feature",
            "text-t-star",
            "text-load",
            "text-child-speed",
            "boolean-feature",
            "float-n",
        ],
    )
    def test_names_the_bad_line(self, tmp_path, edit, message):
        with pytest.raises(FileFormatError, match=f":4: {message}"):
            load_dataset(self.edit_record(tmp_path, edit))


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "data.jsonl"
    save_dataset(path, generate_dataset(6, seed=4), DatasetHeader(seed=4, ranges=SamplerRanges(), compute_intensity=100.0))
    return path.read_bytes()


# Bytes that carry a value across a file rule: digits, sign, point and
# exponent, JSON punctuation, a space, a newline, NUL and a byte that is not
# UTF-8; any other byte is drawn too.
_FUZZ_BYTES = st.one_of(st.sampled_from(b'09-.eE"{}[],: \n\x00\xff'), st.integers(0, 255))
_BYTE_EDITS = ("set", "insert", "delete")
_LINE_EDITS = ("drop", "repeat", "swap", "cut")
# One to three edits: a byte set, inserted or deleted at any offset, or a
# line dropped, repeated, swapped with another or cut short. Offsets wrap.
dataset_edits = st.lists(
    st.tuples(st.sampled_from(_BYTE_EDITS + _LINE_EDITS), st.integers(0, 2**16), st.integers(0, 2**16), _FUZZ_BYTES),
    min_size=1,
    max_size=3,
)


def apply_edits(data: bytes, edits) -> bytes:
    for kind, i, j, byte in edits:
        if not data:
            break
        k = i % len(data)
        if kind == "set":
            data = data[:k] + bytes([byte]) + data[k + 1 :]
        elif kind == "insert":
            data = data[:k] + bytes([byte]) + data[k:]
        elif kind == "delete":
            data = data[:k] + data[k + 1 :]
        else:
            lines = data.split(b"\n")
            a, b = i % len(lines), j % len(lines)
            if kind == "drop":
                del lines[a]
            elif kind == "repeat":
                lines.insert(a, lines[a])
            elif kind == "swap":
                lines[a], lines[b] = lines[b], lines[a]
            else:
                lines[a] = lines[a][: j % (len(lines[a]) + 1)]
            data = b"\n".join(lines)
    return data


class TestDatasetFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edits=dataset_edits)
    def test_edited_file_loads_or_is_refused_with_a_typed_error(self, tmp_path_factory, saved_dataset, edits):
        # Any exception but these two fails the test: a traceback, not exit 2/3.
        path = tmp_path_factory.getbasetemp() / "fuzzed-data.jsonl"
        path.write_bytes(apply_edits(saved_dataset, edits))
        try:
            load_dataset(path)
        except (FileFormatError, InvalidInputError):
            pass
