import math
import re
import warnings

import numpy as np
import pytest

from contradapt.data import (
    BlobShift,
    Dataset,
    MOONS_CENTER,
    _parse_plain,
    gen_blobs,
    gen_moons,
    load_csv,
    save_csv,
)

from oracles import csv_reader_load, csv_writer_save


def test_dataset_validation():
    with pytest.raises(ValueError, match="nonempty"):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), "source")
    with pytest.raises(ValueError, match="one label per row"):
        Dataset(np.zeros((2, 2)), np.zeros(3, dtype=int), "source")
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[np.nan, 0.0]]), np.zeros(1, dtype=int), "source")
    with pytest.raises(ValueError, match=">= -1"):
        Dataset(np.zeros((1, 2)), np.array([-2]), "source")
    with pytest.raises(ValueError, match="domain"):
        Dataset(np.zeros((1, 2)), np.zeros(1, dtype=int), "both")


def test_dataset_label_helpers():
    ds = Dataset(np.zeros((3, 2)), np.array([0, 2, 1]), "source")
    assert ds.labeled
    assert ds.n_classes() == 3
    blank = ds.without_labels()
    assert not blank.labeled
    assert np.array_equal(blank.labels, [-1, -1, -1])
    assert np.array_equal(blank.features, ds.features)
    with pytest.raises(ValueError, match="unlabeled"):
        blank.n_classes()
    mixed = Dataset(np.zeros((2, 2)), np.array([0, -1]), "target")
    assert not mixed.labeled


def test_blob_shift_validation():
    with pytest.raises(ValueError, match="noise_sigma"):
        BlobShift(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="scale"):
        BlobShift(scale=0.0)


def test_gen_blobs_shapes_and_determinism():
    src, tgt = gen_blobs(seed=0, n_classes=3, per_class=10, dim=4)
    assert src.features.shape == (30, 4) and tgt.features.shape == (30, 4)
    assert src.domain == "source" and tgt.domain == "target"
    assert np.array_equal(src.labels, np.repeat([0, 1, 2], 10))
    assert np.array_equal(tgt.labels, src.labels)
    assert src.meta["generator"] == "blobs" and src.meta["seed"] == 0
    src2, tgt2 = gen_blobs(seed=0, n_classes=3, per_class=10, dim=4)
    assert np.array_equal(src.features, src2.features)
    assert np.array_equal(tgt.features, tgt2.features)
    src3, _ = gen_blobs(seed=1, n_classes=3, per_class=10, dim=4)
    assert not np.array_equal(src.features, src3.features)


def test_gen_blobs_zero_shift_noiseless_domains_coincide():
    shift = BlobShift(rotation_deg=0.0, translation=0.0, scale=1.0, noise_sigma=0.0)
    src, tgt = gen_blobs(seed=3, n_classes=4, per_class=5, dim=3, shift=shift)
    assert np.allclose(src.features, tgt.features, atol=1e-12)


def test_gen_blobs_zero_shift_matches_statistically():
    shift = BlobShift(noise_sigma=0.5)
    src, tgt = gen_blobs(seed=4, n_classes=3, per_class=200, dim=2, shift=shift)
    for c in range(3):
        mu_s = src.features[src.labels == c].mean(axis=0)
        mu_t = tgt.features[tgt.labels == c].mean(axis=0)
        # each coordinate's mean difference has sd 0.5 * sqrt(2/200) = 0.05
        assert np.linalg.norm(mu_s - mu_t) < 0.25


def test_gen_blobs_half_turn_swaps_two_classes():
    shift = BlobShift(rotation_deg=180.0, noise_sigma=0.0)
    src, tgt = gen_blobs(seed=5, n_classes=2, per_class=4, dim=2, shift=shift)
    mu = [src.features[src.labels == c][0] for c in range(2)]
    nu = [tgt.features[tgt.labels == c][0] for c in range(2)]
    assert np.allclose(nu[0], mu[1], atol=1e-12)
    assert np.allclose(nu[1], mu[0], atol=1e-12)


def test_gen_blobs_translation_moves_global_mean():
    shift = BlobShift(translation=2.5, noise_sigma=0.0)
    src, tgt = gen_blobs(seed=6, n_classes=4, per_class=3, dim=5, shift=shift)
    diff = tgt.features.mean(axis=0) - src.features.mean(axis=0)
    assert np.linalg.norm(diff) == pytest.approx(2.5, abs=1e-10)


def test_gen_blobs_classes_sit_on_separation_circle():
    src, _ = gen_blobs(seed=7, n_classes=5, per_class=2, dim=3,
                       shift=BlobShift(noise_sigma=0.0), separation=3.0)
    radii = np.linalg.norm(src.features[:, :2], axis=1)
    assert np.allclose(radii, 3.0, atol=1e-12)
    assert np.allclose(src.features[:, 2], 0.0, atol=1e-12)


def test_gen_blobs_validation():
    with pytest.raises(ValueError, match="n_classes >= 2"):
        gen_blobs(seed=0, n_classes=1, per_class=5, dim=2)
    with pytest.raises(ValueError, match="dim >= 2"):
        gen_blobs(seed=0, n_classes=2, per_class=5, dim=1)


def test_gen_moons_shapes_and_determinism():
    src, tgt = gen_moons(seed=0, per_class=50)
    assert src.features.shape == (100, 2) and tgt.features.shape == (100, 2)
    assert np.array_equal(src.labels, np.repeat([0, 1], 50))
    assert src.meta["generator"] == "moons"
    src2, tgt2 = gen_moons(seed=0, per_class=50)
    assert np.array_equal(src.features, src2.features)
    assert np.array_equal(tgt.features, tgt2.features)


def test_gen_moons_noiseless_points_lie_on_arcs():
    src, tgt = gen_moons(seed=1, per_class=40, rotation_deg=90.0, noise_sigma=0.0)
    upper = src.features[src.labels == 0]
    lower = src.features[src.labels == 1]
    assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
    assert np.all(upper[:, 1] >= -1e-12)
    shifted = lower - np.array([1.0, 0.5])
    assert np.allclose(np.linalg.norm(shifted, axis=1), 1.0, atol=1e-12)
    assert np.all(lower[:, 1] <= 0.5 + 1e-12)
    # rotating the target back about the figure center recovers the arcs
    c = np.asarray(MOONS_CENTER)
    theta = math.radians(-90.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    restored = (tgt.features - c) @ rot.T + c
    upper_t = restored[tgt.labels == 0]
    lower_t = restored[tgt.labels == 1] - np.array([1.0, 0.5])
    assert np.allclose(np.linalg.norm(upper_t, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(lower_t, axis=1), 1.0, atol=1e-12)


def test_gen_moons_target_is_fresh_sample_not_transform():
    src, tgt = gen_moons(seed=2, per_class=30, rotation_deg=0.0, noise_sigma=0.0)
    # same distribution but independent draws: identical arcs, different points
    assert not np.allclose(src.features, tgt.features, atol=1e-6)


def test_gen_moons_validation():
    with pytest.raises(ValueError, match="per_class"):
        gen_moons(seed=0, per_class=0)
    with pytest.raises(ValueError, match="noise_sigma"):
        gen_moons(seed=0, per_class=5, noise_sigma=-1.0)


def test_csv_round_trip_is_exact(tmp_path):
    src, _ = gen_blobs(seed=8, n_classes=3, per_class=7, dim=3)
    src.features[0, 0] = 1.0 / 3.0  # plenty of digits
    path = tmp_path / "src.csv"
    save_csv(src, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, src.features)
    assert np.array_equal(loaded.labels, src.labels)
    assert loaded.domain == "source"
    assert loaded.features.dtype == np.float64 and loaded.features.flags.c_contiguous
    text = path.read_text()
    assert text.startswith("feature_0,feature_1,feature_2,label,domain\n")
    assert "\r" not in text


def test_csv_round_trip_unlabeled(tmp_path):
    _, tgt = gen_moons(seed=3, per_class=4)
    blank = tgt.without_labels()
    path = tmp_path / "tgt.csv"
    save_csv(blank, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.labels, np.full(8, -1))
    assert loaded.domain == "target"
    assert not loaded.labeled


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_csv_error_reporting(tmp_path):
    head = "feature_0,feature_1,label,domain\n"
    cases = [
        ("empty.csv", "", "empty file"),
        ("header.csv", "a,b,c\n", "line 1: unrecognized header"),
        ("cols.csv", head + "1.0,2.0,0\n", "line 2: expected 4 columns"),
        ("feat.csv", head + "1.0,zap,0,source\n", "line 2: bad feature"),
        ("label.csv", head + "1.0,2.0,x,source\n", "line 2: bad label"),
        ("neg.csv", head + "1.0,2.0,-3,source\n", "line 2: label below -1"),
        ("domain.csv", head + "1.0,2.0,0,nowhere\n", "line 2: bad domain"),
        (
            "mixed.csv",
            head + "1.0,2.0,0,source\n3.0,4.0,1,target\n",
            "line 3: mixed domains",
        ),
        ("nosamples.csv", head, "no samples"),
    ]
    for name, text, message in cases:
        path = _write(tmp_path, name, text)
        with pytest.raises(ValueError, match=message):
            load_csv(path)


def test_csv_error_line_numbers_skip_past_good_rows(tmp_path):
    head = "feature_0,feature_1,label,domain\n"
    body = "1.0,2.0,0,source\n" * 3 + "1.0,oops,1,source\n"
    path = _write(tmp_path, "late.csv", head + body)
    with pytest.raises(ValueError, match="line 5: bad feature"):
        load_csv(path)


_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                1.0 / 3.0, 1.0, -2.0, 3e16, 12345678.0, 0.1, 1e-7]


@pytest.mark.parametrize("domain", ["source", "target"])
@pytest.mark.parametrize("rows", [7, 9000])  # 9000 spans three write chunks
def test_save_csv_bytes_equal_csv_writer(tmp_path, domain, rows):
    rng = np.random.default_rng(rows)
    features = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-5, 6, size=(rows, 1))
    features.flat[: len(_EDGE_VALUES)] = _EDGE_VALUES
    labels = rng.integers(-1, 4, size=rows)
    labels[:2] = -1
    dataset = Dataset(features, labels, domain)
    save_csv(dataset, tmp_path / "fast.csv")
    csv_writer_save(dataset, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # one call writing the unlabeled twin from the same formatted rows
    save_csv(dataset, tmp_path / "both.csv", tmp_path / "twin.csv")
    csv_writer_save(dataset.without_labels(), tmp_path / "twin_ref.csv")
    assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "twin.csv").read_bytes() == (tmp_path / "twin_ref.csv").read_bytes()


_HEAD = "feature_0,feature_1,label,domain\n"
_ROW = "1.0,2.0,0,source\n"

# name -> file text; each is read by both parsers and must give the same
# arrays or the same error message.
_READ_CASES = {
    "empty": "",
    "header": "a,b,c\n",
    "quoted_header": '"feature_0",feature_1,label,domain\n' + _ROW,
    "header_only": _HEAD,
    "header_no_newline": _HEAD.rstrip("\n"),
    "cols": _HEAD + "1.0,2.0,0\n",
    "feat": _HEAD + "1.0,zap,0,source\n",
    "label": _HEAD + "1.0,2.0,x,source\n",
    "neg": _HEAD + "1.0,2.0,-3,source\n",
    "domain": _HEAD + "1.0,2.0,0,nowhere\n",
    "mixed": _HEAD + _ROW + "3.0,4.0,1,target\n",
    "late_bad_feature": _HEAD + _ROW * 3 + "1.0,oops,1,source\n",
    "plain": _HEAD + _ROW + "-3.5e-7,4,-1,source\n",
    "whitespace_line": _HEAD + _ROW + "   \n" + _ROW,
    "tab_line": _HEAD + "\t\n" + _ROW,
    "blank_line": _HEAD + _ROW + "\n" + _ROW,
    "trailing_blank_line": _HEAD + _ROW + "\n",
    "crlf": (_HEAD + _ROW + _ROW).replace("\n", "\r\n"),
    "crlf_body": _HEAD + _ROW.replace("\n", "\r\n") * 2,
    "lone_cr": _HEAD + _ROW.replace("\n", "\r") + _ROW,
    "cr_in_field": _HEAD + "1.0,2\r.0,0,source\n",
    "no_trailing_newline": _HEAD + _ROW + _ROW.rstrip("\n"),
    "quoted_field": _HEAD + '"1.0",2.0,0,source\n',
    "quoted_domain": _HEAD + '1.0,2.0,0,"source"\n',
    "label_float": _HEAD + "1.0,2.0,1.0,source\n",
    "label_underscore": _HEAD + "1.0,2.0,1_0,source\n",
    "feature_underscore": _HEAD + "1_0,2.0,1,source\n",
    "label_plus_padded": _HEAD + "1.0,2.0, +1 ,source\n",
    "label_leading_zeros": _HEAD + "1.0,2.0,007,source\n",
    "label_huge": _HEAD + "1.0,2.0,99999999999999999999,source\n",
    "label_int64_max": _HEAD + "1.0,2.0,9223372036854775807,source\n",
    "label_past_int64": _HEAD + "1.0,2.0,9223372036854775808,source\n",
    "feature_padded": _HEAD + " 1.5\x0c,\x1c2.5 ,0,target\n",
    "feature_nan": _HEAD + "nan,2.0,0,source\n",
    "feature_inf": _HEAD + "1.0,-Infinity,0,source\n",
    "feature_overflow": _HEAD + _ROW + "1e400,2.0,0,source\n",
    "feature_hex": _HEAD + "0x10,2.0,0,source\n",
    "empty_field": _HEAD + "1.0,,0,source\n",
    "empty_domain": _HEAD + "1.0,2.0,0,\n",
    "padded_domain": _HEAD + "1.0,2.0,0, source\n",
    "domain_trailing_space": _HEAD + "1.0,2.0,0,source \n",
    "domain_nul": _HEAD + "1.0,2.0,0,source\x00\n",
    "feature_nul": _HEAD + "1.0\x00,2.0,0,source\n",
    "sourcesource": _HEAD + "1.0,2.0,0,sourcesource\n",
    "extra_column": _HEAD + "1.0,2.0,0,source,\n",
    "comment_in_domain": _HEAD + "1.0,2.0,0,source#c\n",
    "comment_line": _HEAD + "#c\n" + _ROW,
}


def _outcome(load, path):
    try:
        ds = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return ds


@pytest.mark.parametrize("name", sorted(_READ_CASES))
def test_load_csv_equals_csv_reader(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(_READ_CASES[name].encode("ascii"))
    got, want = _outcome(load_csv, path), _outcome(csv_reader_load, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
        assert got.domain == want.domain
        assert got.features.dtype == np.float64 and got.features.flags.c_contiguous
        assert got.labels.dtype == want.labels.dtype


@pytest.mark.parametrize("name, message", [
    ("label_huge", "line 2: bad label"),
    ("label_past_int64", "line 2: bad label"),
    ("feature_nan", "line 2: non-finite feature value"),
    ("feature_inf", "line 2: non-finite feature value"),
    ("feature_overflow", "line 3: non-finite feature value"),
])
def test_load_csv_names_file_and_line_of_out_of_range_values(tmp_path, name, message):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(_READ_CASES[name].encode("ascii"))
    with pytest.raises(ValueError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: {message}"


def test_dataset_rejects_labels_that_are_not_int64_whole_numbers():
    # [0.5, 1.7] used to become [0, 1], and 1e20 raised OverflowError
    with pytest.raises(ValueError, match=re.escape("labels [0.5, 1.7] are not whole numbers")):
        Dataset(np.zeros((2, 2)), [0.5, 1.7], "source")
    with pytest.raises(ValueError, match=re.escape("labels [1e+20] are not whole numbers")):
        Dataset(np.zeros((2, 2)), [1e20, 0.0], "source")
    with pytest.raises(ValueError, match="not whole numbers"):
        Dataset(np.zeros((1, 2)), np.array([2**64 - 1], dtype=np.uint64), "source")
    whole = Dataset(np.zeros((3, 2)), [1.0, -1.0, 0.0], "target")
    assert whole.labels.dtype == np.int64 and np.array_equal(whole.labels, [1, -1, 0])


def test_load_csv_non_ascii_raises_as_csv_reader(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(_HEAD.encode() + b"1.0,2.0,0,s\xf6urce\n")
    with pytest.raises(UnicodeDecodeError) as fast:
        load_csv(path)
    with pytest.raises(UnicodeDecodeError) as ref:
        csv_reader_load(path)
    assert str(fast.value) == str(ref.value)


def test_save_csv_output_takes_one_call_parse(tmp_path):
    src, _ = gen_blobs(seed=9, n_classes=3, per_class=5, dim=4)
    path = tmp_path / "src.csv"
    save_csv(src.without_labels(), path)
    with open(path, "r", newline="", encoding="ascii") as fh:
        features, labels, domain = _parse_plain(fh)
    assert np.array_equal(features, src.features) and features.flags.c_contiguous
    assert np.array_equal(labels, np.full(15, -1)) and domain == "source"


@pytest.mark.parametrize("name", ["crlf_body", "blank_line", "quoted_field", "label_underscore",
                                  "domain_nul", "header_only"])
def test_other_forms_go_line_by_line(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(_READ_CASES[name].encode("ascii"))
    with open(path, "r", newline="", encoding="ascii") as fh:
        assert _parse_plain(fh) is None


def test_header_only_file_raises_without_warning(tmp_path):
    path = _write(tmp_path, "nosamples.csv", "feature_0,feature_1,label,domain\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="no samples"):
            load_csv(path)
    assert caught == []
