import functools
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmkit import evalkit
from sdmkit.errors import AlignmentError, DegenerateLabelsError, SdmkitError, ShapeError
from sdmkit.evalkit import (
    Predictions,
    _row_aucs,
    binary_auc,
    evaluate,
    multilabel_auc,
    top_k,
    topk_prf,
    write_report,
)

from conftest import failing_writes, traced_peak


# ---- independent brute-force oracles -------------------------------------

def oracle_topk(scores, k):
    """Selection by exhaustive comparison under (score desc, index asc)."""
    keyed = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return keyed[:k]


def oracle_pairwise_auc(scores, labels):
    """O(n^2) concordant-pair count with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_average_ranks(values):
    """1-based rank of each value: values below it, plus the mean position
    among its equals."""
    return [
        sum(v < x for v in values) + (sum(v == x for v in values) + 1) / 2 for x in values
    ]


def oracle_prf(topk_sets, label_sets, k, s, averaging):
    """Set-intersection counting, written independently of the module path."""
    n = len(topk_sets)
    tps = [len(set(t) & set(y)) for t, y in zip(topk_sets, label_sets)]
    if averaging == "micro":
        tp = sum(tps)
        p = tp / (n * k)
        r = tp / sum(len(y) for y in label_sets)
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return p, r, f1
    if averaging == "samples":
        ps, rs, fs = [], [], []
        for tp, y in zip(tps, label_sets):
            if not y:
                continue
            pi, ri = tp / k, tp / len(y)
            ps.append(pi)
            rs.append(ri)
            fs.append(2 * pi * ri / (pi + ri) if pi + ri > 0 else 0.0)
        return sum(ps) / len(ps), sum(rs) / len(rs), sum(fs) / len(fs)
    # macro
    pcs, rcs, fcs = [], [], []
    for c in range(s):
        tp = sum(1 for t, y in zip(topk_sets, label_sets) if c in t and c in y)
        fp = sum(1 for t in topk_sets if c in t) - tp
        fn = sum(1 for y in label_sets if c in y) - tp
        pc = tp / (tp + fp) if tp + fp > 0 else 0.0
        rc = tp / (tp + fn) if tp + fn > 0 else 0.0
        fc = 2 * pc * rc / (pc + rc) if pc + rc > 0 else 0.0
        pcs.append(pc)
        rcs.append(rc)
        fcs.append(fc)
    return sum(pcs) / s, sum(rcs) / s, sum(fcs) / s


def oracle_unit_aucs(scores, labels, averaging):
    """Pairwise AUC of each unit (all entries, each row or each column) that
    holds both label values, NaN for such a unit holding a NaN score; and the
    number of rows or columns skipped for lacking a label value."""
    if averaging == "micro":
        units = [(scores.ravel(), labels.ravel())]
    elif averaging == "samples":
        units = list(zip(scores, labels))
    else:
        units = list(zip(scores.T, labels.T))
    vals = [
        math.nan if np.isnan(s).any() else oracle_pairwise_auc(s.tolist(), y.tolist())
        for s, y in units
        if 0 < y.sum() < y.size
    ]
    return vals, 0 if averaging == "micro" else len(units) - len(vals)


@st.composite
def tie_heavy_matrices(draw):
    """(R, M) scores on 2-5 levels, labels with some constant rows and
    columns, and a NaN score in some rows."""
    r, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    levels = draw(st.integers(2, 5))
    cells = st.lists(st.integers(0, levels - 1), min_size=r * m, max_size=r * m)
    scores = np.array(draw(cells), dtype=float).reshape(r, m) / levels
    bits = st.lists(st.booleans(), min_size=r * m, max_size=r * m)
    labels = np.array(draw(bits), dtype=float).reshape(r, m)
    for i in draw(st.lists(st.integers(0, r - 1), max_size=2)):
        labels[i] = draw(st.sampled_from([0.0, 1.0]))
    for j in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        labels[:, j] = draw(st.sampled_from([0.0, 1.0]))
    for i in draw(st.lists(st.integers(0, r - 1), max_size=2)):
        scores[i, draw(st.integers(0, m - 1))] = math.nan
    return scores, labels


def random_instance(rng, n_max=200, s_max=50, k_max=10):
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(max(3, k_max), s_max + 1))
    k = int(rng.integers(1, min(k_max, s) + 1))
    scores = rng.random((n, s))
    if rng.random() < 0.3:
        scores = np.round(scores, 1)  # force ties
    labels = (rng.random((n, s)) < 0.3).astype(float)
    for i in range(n):  # non-empty rows so the P identity is exact
        if not labels[i].any():
            labels[i, int(rng.integers(0, s))] = 1.0
    return n, s, k, scores, labels


# ---- top_k ----------------------------------------------------------------

class TestTopK:
    def test_tie_break_low_index(self):
        assert list(top_k(np.array([0.1, 0.9, 0.5, 0.5]), 2)) == [1, 2]

    def test_all_equal(self):
        assert list(top_k(np.zeros(5), 3)) == [0, 1, 2]

    def test_full_ranking(self):
        scores = np.array([0.3, 0.8, 0.1])
        assert list(top_k(scores, 3)) == [1, 0, 2]

    def test_returns_owned_array(self):
        scores = np.random.default_rng(0).random((50, 20))
        assert top_k(scores, 5).base is None
        assert top_k(scores[0], 5).base is None

    def test_k_too_large(self):
        with pytest.raises(SdmkitError):
            top_k(np.zeros(3), 4)

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = int(rng.integers(2, 30))
            k = int(rng.integers(1, s + 1))
            scores = np.round(rng.random(s), 1)
            assert list(top_k(scores, k)) == oracle_topk(list(scores), k)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=20, unique=True),
           st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_permutation_stability_tie_free(self, scores, k):
        scores = np.array(scores)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(scores))
        base = set(top_k(scores, k).tolist())
        permuted = top_k(scores[perm], k)
        assert set(perm[permuted].tolist()) == base


# ---- topk_prf -------------------------------------------------------------

class TestTopkPrf:
    def toy(self):
        # N=2, S=4, k=2; Y0={1,2}, top0={1,3}; Y1={0}, top1={0,2}
        labels = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=float)
        return np.array([[1, 3], [0, 2]]), labels

    def test_micro_hand_values(self):
        topk, labels = self.toy()
        p, r, f1 = topk_prf(topk, labels, "micro")
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(4 / 7)

    def test_samples_hand_values(self):
        topk, labels = self.toy()
        p, r, f1 = topk_prf(topk, labels, "samples")
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.75)
        assert f1 == pytest.approx((0.5 + 2 / 3) / 2)

    def test_perfect_predictions(self):
        labels = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
        topk = np.array([[0, 1], [2, 3]])
        for avg in ("micro", "samples", "macro"):
            p, r, f1 = topk_prf(topk, labels, avg)
            assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n, s, k, scores, labels = random_instance(rng, n_max=60, s_max=25, k_max=8)
            topk = top_k(scores, k)
            topk_sets = [set(row) for row in topk.tolist()]
            label_sets = [set(np.flatnonzero(labels[i]).tolist()) for i in range(n)]
            for avg in ("micro", "samples", "macro"):
                got = topk_prf(topk, labels, avg)
                want = oracle_prf(topk_sets, label_sets, k, s, avg)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_micro_identity(self):
        # micro P * (N*k) == micro R * sum|Y| == sum TP exactly
        rng = np.random.default_rng(1)
        n, s, k, scores, labels = random_instance(rng, n_max=50, s_max=20, k_max=5)
        topk = top_k(scores, k)
        p, r, _ = topk_prf(topk, labels, "micro")
        tp = sum(len(set(row) & set(np.flatnonzero(labels[i]).tolist()))
                 for i, row in enumerate(topk.tolist()))
        assert p * (n * k) == pytest.approx(tp, abs=1e-9)
        assert r * labels.sum() == pytest.approx(tp, abs=1e-9)


# ---- AUC ------------------------------------------------------------------

class TestBinaryAuc:
    def test_hand_value(self):
        assert binary_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_ranking(self):
        assert binary_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert binary_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_length_mismatch_rejected(self):
        for labels in ([0, 1], [0, 1, 1, 0]):
            with pytest.raises(ShapeError):
                binary_auc([0.1, 0.2, 0.3], labels)

    def test_single_class_error(self):
        with pytest.raises(DegenerateLabelsError):
            binary_auc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            scores = np.round(rng.random(n), 1)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                labels[0], labels[1] = 0, 1
            got = binary_auc(scores, labels)
            want = oracle_pairwise_auc(list(scores), list(labels))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 200])
    @pytest.mark.parametrize("levels", [3, 101])
    def test_average_ranks_match_oracle(self, n, levels):
        # row i holds a -inf negative, then the n scores with only score i
        # positive, so its AUC is rank_i / n
        rng = np.random.default_rng(n * 1000 + levels)
        for _ in range(5):
            scores = rng.integers(0, levels, size=n) / (levels - 1)
            rows = np.hstack([np.full((n, 1), -np.inf), np.tile(scores, (n, 1))])
            labels = np.hstack([np.zeros((n, 1)), np.eye(n)])
            auc, defined = _row_aucs(rows, labels)
            assert defined.all()
            want = oracle_average_ranks(scores.tolist())
            assert (n * auc).tolist() == pytest.approx(want, abs=1e-9)

    def test_nan_score_gives_nan(self):
        assert np.isnan(binary_auc([0.1, np.nan, 0.3, 0.2], [0, 1, 1, 0]))
        assert np.isnan(binary_auc([np.nan, np.nan, 0.3, 0.2], [0, 1, 1, 0]))

    @given(st.integers(0, 10000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = rng.random(n)
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        base = binary_auc(scores, labels)
        for fn in (np.exp, lambda s: 3 * s - 7, lambda s: s**3 + s):
            assert binary_auc(fn(scores), labels) == pytest.approx(base, abs=1e-12)


class TestMultilabelAuc:
    def test_perfect_scores(self):
        labels = np.array([[1, 0, 1], [0, 1, 0]], dtype=float)
        for avg in ("micro", "samples", "macro"):
            assert multilabel_auc(labels.copy(), labels, avg) == (1.0, 0)

    def test_single_sample_inverted(self):
        labels = np.array([[1, 0]], dtype=float)
        scores = np.array([[0.2, 0.9]])
        assert multilabel_auc(scores, labels, "micro") == (0.0, 0)
        assert multilabel_auc(scores, labels, "samples") == (0.0, 0)

    def test_matches_oracle_50x20(self):
        rng = np.random.default_rng(7)
        scores = rng.random((50, 20))
        labels = (rng.random((50, 20)) < 0.5).astype(float)
        labels[:, 0] = 1  # one degenerate class to exercise skipping
        for avg in ("micro", "samples", "macro"):
            got, skipped = multilabel_auc(scores, labels, avg)
            if avg == "micro":
                want = oracle_pairwise_auc(scores.ravel().tolist(), labels.ravel().tolist())
            elif avg == "macro":
                vals = [
                    oracle_pairwise_auc(scores[:, c].tolist(), labels[:, c].tolist())
                    for c in range(20)
                    if 0 < labels[:, c].sum() < 50
                ]
                want = float(np.mean(vals))
                assert skipped == 1
            else:
                vals = [
                    oracle_pairwise_auc(scores[i].tolist(), labels[i].tolist())
                    for i in range(50)
                    if 0 < labels[i].sum() < 20
                ]
                want = float(np.mean(vals))
            assert got == pytest.approx(want, abs=1e-12)

    @given(tie_heavy_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_unit_oracle_with_ties_skips_and_nans(self, case):
        scores, labels = case
        for avg in ("micro", "samples", "macro"):
            vals, want_skipped = oracle_unit_aucs(scores, labels, avg)
            if not vals:
                with pytest.raises(DegenerateLabelsError):
                    multilabel_auc(scores, labels, avg)
                continue
            got, skipped = multilabel_auc(scores, labels, avg)
            assert skipped == want_skipped
            if any(math.isnan(v) for v in vals):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(sum(vals) / len(vals), abs=1e-12)


class TestRowAucsSort:
    def test_default_sort_bit_equal_to_stable(self, monkeypatch):
        """_row_aucs sorts with numpy's default kind; the same call with a stable
        argsort gives the same auc and defined bits on tie-heavy rows with NaNs,
        mixed signed zeros, all-equal rows and single columns, row-wise and
        transposed (as macro AUC calls it)."""
        rng = np.random.default_rng(10)
        stable_argsort = functools.partial(np.argsort, kind="stable")
        reordered = 0
        for _ in range(400):
            r, m = int(rng.integers(1, 9)), int(rng.choice([1, 2, 5, 16, 17, 64, 257]))
            levels = int(rng.integers(1, 6))
            scores = rng.integers(0, levels, size=(r, m)) / levels
            scores[(scores == 0) & (rng.random((r, m)) < 0.5)] = -0.0
            scores[rng.random(r) < 0.2] = scores[0, 0]
            nan_rows = rng.random(r) < 0.3
            scores[nan_rows, rng.integers(0, m, size=nan_rows.sum())] = np.nan
            labels = (rng.random((r, m)) < rng.uniform(0.0, 1.0)).astype(float)
            for x, y in ((scores, labels), (scores.T, labels.T)):
                auc, defined = _row_aucs(x, y)
                with monkeypatch.context() as patch:
                    patch.setattr(np, "argsort", stable_argsort)
                    want_auc, want_defined = _row_aucs(x, y)
                assert auc.tobytes() == want_auc.tobytes()
                assert defined.tobytes() == want_defined.tobytes()
                reordered += not np.array_equal(np.argsort(x, axis=1), stable_argsort(x, axis=1))
        assert reordered > 0  # the default kind did move tied entries


# ---- evaluate -------------------------------------------------------------

class TestPredictions:
    def test_from_scores_one_row_per_survey(self):
        scores = np.array([[0.1, 0.9, 0.5], [0.7, 0.2, 0.7]])
        preds = Predictions.from_scores(("a", "b"), scores, 2)
        assert len(preds) == 2 and preds.survey_ids == ["a", "b"]
        np.testing.assert_array_equal(preds.topk, [[1, 2], [0, 2]])

    @pytest.mark.parametrize("scores, topk", [
        (np.zeros((3, 4)), np.zeros((2, 1), dtype=int)),  # row counts disagree
        (np.zeros((2, 4)), np.zeros((3, 1), dtype=int)),
        (np.zeros(4), np.zeros((2, 1), dtype=int)),  # ranks
        (np.zeros((2, 4)), np.zeros(2, dtype=int)),
    ])
    def test_shape_mismatch_rejected(self, scores, topk):
        with pytest.raises(ShapeError):
            Predictions(["a", "b"], scores, topk)


class TestEvaluate:
    def test_toy_report(self):
        labels = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=float)
        preds = Predictions(["a", "b"], np.array([[0.1, 0.9, 0.2, 0.8], [0.9, 0.1, 0.8, 0.2]]),
                            np.array([[1, 3], [0, 2]]))
        report = evaluate(preds, labels, k=2)
        assert report.micro_precision == pytest.approx(0.5)
        assert report.micro_recall == pytest.approx(2 / 3)
        assert report.micro_f1 == pytest.approx(4 / 7)
        # micro F1 is the harmonic mean of micro P and R
        p, r = report.micro_precision, report.micro_recall
        assert report.micro_f1 == pytest.approx(2 * p * r / (p + r))

    def test_empty_predictions(self):
        empty = Predictions([], np.zeros((0, 3)), np.zeros((0, 1), dtype=np.int64))
        with pytest.raises(AlignmentError):
            evaluate(empty, np.zeros((0, 3)), k=1)

    def test_topk_recomputed_for_other_k(self):
        rng = np.random.default_rng(5)
        n, s, k, scores, labels = random_instance(rng, n_max=30, s_max=12, k_max=5)
        ids = [f"s{i}" for i in range(n)]
        stored = Predictions.from_scores(ids, scores, 1 if k > 1 else 2)
        assert evaluate(stored, labels, k) == evaluate(Predictions.from_scores(ids, scores, k),
                                                       labels, k)

    def test_all_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        n, s, k, scores, labels = random_instance(rng, n_max=40, s_max=15, k_max=5)
        preds = Predictions.from_scores([f"s{i}" for i in range(n)], scores, k)
        report = evaluate(preds, labels, k)
        for field, value in asdict(report).items():
            if field.startswith("skipped"):
                continue
            assert 0.0 <= value <= 1.0, field


class TestWriteReport:
    @pytest.mark.parametrize("failing, after", [("report.json", 5), ("report.txt", 0)])
    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch, failing, after):
        """A write that fails inside either file leaves both previous files and
        no temporary file."""
        rng = np.random.default_rng(3)
        paths = [str(tmp_path / "report.json"), str(tmp_path / "report.txt")]
        reports = []
        for _ in range(2):
            n, s, k, scores, labels = random_instance(rng, n_max=40, s_max=15, k_max=5)
            preds = Predictions.from_scores([f"s{i}" for i in range(n)], scores, k)
            reports.append(evaluate(preds, labels, k))
        write_report(reports[0], *paths)
        before = [open(path, "rb").read() for path in paths]
        with failing_writes(monkeypatch, failing, after), \
                pytest.raises(OSError, match="disk full"):
            write_report(reports[1], *paths)
        assert [open(path, "rb").read() for path in paths] == before
        assert sorted(os.listdir(tmp_path)) == ["report.json", "report.txt"]


# ---- block-wise passes ----------------------------------------------------

def dense_topk_prf(topk, labels, averaging):
    """topk_prf from an (N, S) indicator of top-k membership, the formulation
    that topk_prf's counts from the (N, k) hits replace."""
    n, s = labels.shape
    k = topk.shape[1]
    in_topk = np.zeros((n, s), dtype=bool)
    np.put_along_axis(in_topk, topk, True, axis=1)
    pos = labels > 0.5
    tp = (in_topk & pos).sum(axis=1)
    label_counts = pos.sum(axis=1)
    if averaging == "micro":
        p = tp.sum() / (n * k)
        total_pos = label_counts.sum()
        r = tp.sum() / total_pos if total_pos else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        return float(p), float(r), float(f1)
    if averaging == "samples":
        valid = label_counts > 0
        p_i = tp / k
        r_i = np.zeros(n)
        r_i[valid] = tp[valid] / label_counts[valid]
        denom = p_i + r_i
        f_i = np.where(denom > 0, 2 * p_i * r_i / np.where(denom > 0, denom, 1.0), 0.0)
        if not valid.any():
            return 0.0, 0.0, 0.0
        return float(p_i[valid].mean()), float(r_i[valid].mean()), float(f_i[valid].mean())
    tp_c = (in_topk & pos).sum(axis=0).astype(float)
    pred_c = in_topk.sum(axis=0).astype(float)
    pos_c = pos.sum(axis=0).astype(float)
    p_c = np.divide(tp_c, pred_c, out=np.zeros(s), where=pred_c > 0)
    r_c = np.divide(tp_c, pos_c, out=np.zeros(s), where=pos_c > 0)
    denom = p_c + r_c
    f_c = np.where(denom > 0, 2 * p_c * r_c / np.where(denom > 0, denom, 1.0), 0.0)
    return float(p_c.mean()), float(r_c.mean()), float(f_c.mean())


@st.composite
def topk_label_pairs(draw):
    """(topk, labels): N x k distinct class ids per row, in any order, and N x S
    labels as bool, as ints, or as floats that hold values other than 0 and
    1 (NaN included)."""
    n, s = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    k = draw(st.integers(1, s))
    perms = st.permutations(range(s))
    topk = np.array([draw(perms)[:k] for _ in range(n)], dtype=draw(st.sampled_from(
        [np.int64, np.int32, np.uint8])))
    values = draw(st.sampled_from([[False, True], [0, 1, 2], [0.0, 1.0, 0.3, 0.7, math.nan]]))
    cells = st.lists(st.sampled_from(values), min_size=n * s, max_size=n * s)
    return topk, np.array(draw(cells)).reshape(n, s)


class TestBlockwise:
    @given(topk_label_pairs(), st.sampled_from([1, 3, evalkit.BLOCK]))
    @settings(max_examples=300, deadline=None)
    def test_topk_prf_equals_dense_formulation(self, case, block):
        topk, labels = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evalkit, "BLOCK", block)
            for avg in ("micro", "samples", "macro"):
                assert topk_prf(topk, labels, avg) == dense_topk_prf(topk, labels, avg)

    @pytest.mark.parametrize("topk", [[[0, 0]], [[1, 4]], [[-1, 0]], [[0.0, 1.0]]],
                             ids=["repeated", "past-s", "negative", "float"])
    def test_topk_prf_refuses_ids_that_are_not_distinct_classes(self, topk):
        with pytest.raises(SdmkitError, match=r"top-k ids must be 2 distinct class indices "
                                              r"in \[0, 4\) per row"):
            topk_prf(np.array(topk), np.zeros((1, 4), dtype=bool), "micro")

    def test_results_do_not_depend_on_block_size(self):
        """Every block size gives the same bits: AUC at each averaging on
        tie-heavy scores with NaN rows and constant rows and columns, and
        top-k."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            r, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            scores = rng.integers(0, 4, size=(r, m)) / 4
            scores[rng.random(r) < 0.2, int(rng.integers(0, m))] = np.nan
            labels = rng.random((r, m)) < rng.uniform(0.05, 0.95)
            labels[rng.random(r) < 0.2] = False
            labels[:, rng.random(m) < 0.2] = True
            labels[0, 0] = not labels[-1, -1]  # micro AUC defined
            results = []
            for block in (evalkit.BLOCK, 1, 5, m + 1):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(evalkit, "BLOCK", block)
                    got = [top_k(scores, min(3, m)).tobytes()]
                    for x, y in ((scores, labels), (scores.T, labels.T)):
                        auc, defined = _row_aucs(x, y)
                        got += [auc.tobytes(), defined.tobytes()]
                    got.append(np.float64(binary_auc(scores, labels)).tobytes())
                results.append(got)
            assert all(got == results[0] for got in results[1:])

    @given(tie_heavy_matrices())
    @settings(max_examples=300, deadline=None)
    def test_micro_auc_equals_one_row_rank_auc(self, case):
        """binary_auc from two sorts gives the bits of _row_aucs on the one
        row of all scores, with NaN scores and float labels."""
        scores, labels = case
        auc, defined = _row_aucs(scores.reshape(1, -1), labels.reshape(1, -1))
        if not defined[0]:
            with pytest.raises(DegenerateLabelsError):
                binary_auc(scores, labels)
        else:
            assert np.float64(binary_auc(scores, labels)).tobytes() == auc[0].tobytes()

    def test_evaluate_transient_memory_per_entry(self):
        """evaluate's traced peak, beyond the scores and bool labels it is
        given, grows by at most 16 bytes per added (survey, class) entry on
        continuous scores with 10% positives (micro AUC's two sorted copies
        take 8 + 1.6); every other temporary is bounded by the block size."""
        rng = np.random.default_rng(0)
        peaks = []
        for n in (5_000, 20_000):
            scores = rng.random((n, 200))
            labels = rng.random((n, 200)) < 0.1
            preds = Predictions.from_scores([f"s{i}" for i in range(n)], scores, 25)
            _, peak, _ = traced_peak(evaluate, preds, labels, 25)
            peaks.append(peak)
            del scores, labels, preds
        assert (peaks[1] - peaks[0]) / (15_000 * 200) <= 16
