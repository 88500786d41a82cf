"""Multilabel evaluation: Top-K predictions, precision/recall/F1 and
rank-based ROC-AUC at micro, samples, and macro averaging.

Conventions: Top-K tie-break is ascending class index; macro P/R/F1 average
over all classes with zero-division mapped to 0; AUC uses average ranks for
ties and skips classes/samples where it is undefined, reporting the counts.

The AUC sorts with numpy's default (unstable) kind: tied scores share their
average rank, so the order inside a tie group changes neither its bounds nor
its positive count. Top-K needs a stable sort, whose order inside a tie is
the ascending class index.

Memory: labels may be bool, which the CLI and training pass. Samples and
macro AUC, Top-K and the label counts of P/R/F1 run over blocks of at most
BLOCK (survey, class) entries (or one row, if a row is longer), so none of
their temporaries grows with N x S. Micro AUC holds two sorted copies, one of
all N x S scores and one of the positives' scores, and ranks the positives
with two searchsorted calls: 8 bytes per entry plus 16 per positive at its
peak.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AlignmentError, DegenerateLabelsError, SdmkitError, ShapeError
from .geodata import replaced_on_success

AVERAGINGS = ("micro", "samples", "macro")
# (survey, class) entries per block of the block-wise passes
BLOCK = 1 << 16


def _row_blocks(rows: int, cols: int):
    """Slices of max(1, BLOCK // cols) consecutive rows that cover rows rows."""
    step = max(1, BLOCK // max(cols, 1))
    return (slice(i, i + step) for i in range(0, rows, step))


def _positive(labels: np.ndarray) -> np.ndarray:
    """The positives of labels as a bool array: labels itself when bool,
    else labels > 0.5."""
    return labels if labels.dtype == bool else labels > 0.5


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best scores, ordered by (score desc, index asc)."""
    scores = np.asarray(scores)
    s = scores.shape[-1]
    if not (1 <= k <= s):
        raise SdmkitError(f"k={k} outside [1, {s}]")
    out = np.empty((*scores.shape[:-1], k), dtype=np.intp)
    rows, out_rows = scores.reshape(-1, s), out.reshape(-1, k)  # out_rows is a view
    for block in _row_blocks(*rows.shape):
        # stable sort on index after negating scores gives the tie-break for free
        out_rows[block] = np.argsort(-rows[block], axis=1, kind="stable")[:, :k]
    return out


def bad_topk_rows(topk: np.ndarray, s: int) -> np.ndarray:
    """Mask of the rows of an (N, k) top-k matrix that are not k distinct
    class indices in [0, s)."""
    ranked = np.sort(topk, axis=1)
    return (((ranked[:, :1] < 0) | (ranked[:, -1:] >= s)).any(axis=1)
            | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1))


@dataclass(frozen=True)
class Predictions:
    """Scores and top-k class indices of N surveys, one row per survey."""

    survey_ids: list[str]
    scores: np.ndarray  # (N, S)
    topk: np.ndarray  # (N, k) indices, rank order

    def __post_init__(self):
        n = len(self.survey_ids)
        if not (self.scores.ndim == self.topk.ndim == 2
                and self.scores.shape[0] == self.topk.shape[0] == n):
            raise ShapeError(f"{n} survey ids vs scores {self.scores.shape}, "
                             f"top-k {self.topk.shape}")

    def __len__(self) -> int:
        return len(self.survey_ids)

    @classmethod
    def from_scores(cls, survey_ids, scores: np.ndarray, k: int) -> "Predictions":
        scores = np.asarray(scores)
        return cls(list(survey_ids), scores, top_k(scores, k))


def topk_prf(topk: np.ndarray, labels: np.ndarray, averaging: str) -> tuple[float, float, float]:
    """Top-K precision/recall/F1 under the requested averaging.

    topk is an (N, k) matrix of class indices and labels the (N, S) multi-hot
    matrix of the same surveys.
    """
    if averaging not in AVERAGINGS:
        raise SdmkitError(f"averaging {averaging!r} not in {AVERAGINGS}")
    topk = np.asarray(topk)
    labels = np.asarray(labels)
    if topk.shape[0] != labels.shape[0]:
        raise ShapeError(f"{topk.shape[0]} top-k rows vs {labels.shape[0]} label rows")
    n, s = labels.shape
    k = topk.shape[1]
    if topk.dtype.kind not in "iu" or bad_topk_rows(topk, s).any():
        raise SdmkitError(f"top-k ids must be {k} distinct class indices in [0, {s}) per row")
    topk = topk.astype(np.intp, copy=False)
    # hits from the (N, k) ids; the labels are read a block of rows at a time
    hits = _positive(np.take_along_axis(labels, topk, axis=1))
    tp = hits.sum(axis=1)
    label_counts = np.empty(n, dtype=np.intp)
    pos_c = np.zeros(s, dtype=np.intp)
    for block in _row_blocks(n, s):
        pos = _positive(labels[block])
        label_counts[block] = np.count_nonzero(pos, axis=1)
        pos_c += np.count_nonzero(pos, axis=0)

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
        return (
            float(p_i[valid].mean()),
            float(r_i[valid].mean()),
            float(f_i[valid].mean()),
        )

    # macro: per class over all samples, zero-division -> 0, mean over all S
    tp_c = np.bincount(topk[hits], minlength=s).astype(float)
    pred_c = np.bincount(topk.ravel(), minlength=s).astype(float)
    pos_c = pos_c.astype(float)
    p_c = np.divide(tp_c, pred_c, out=np.zeros(s), where=pred_c > 0)
    r_c = np.divide(tp_c, pos_c, out=np.zeros(s), where=pos_c > 0)
    denom = p_c + r_c
    f_c = np.where(denom > 0, 2 * p_c * r_c / np.where(denom > 0, denom, 1.0), 0.0)
    return float(p_c.mean()), float(r_c.mean()), float(f_c.mean())


def _row_aucs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mann-Whitney AUC of each row of an (R, M) score matrix, ties sharing
    their average rank, computed a block of rows at a time.

    Returns (auc, defined): defined marks the rows holding both label
    values; the others get NaN, and so does any row with a NaN score.
    """
    r, m = scores.shape
    auc, defined = np.empty(r), np.empty(r, dtype=bool)
    for block in _row_blocks(r, m):
        auc[block], defined[block] = _block_aucs(scores[block], labels[block])
    return auc, defined


def _block_aucs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_row_aucs of one block of rows."""
    r, m = scores.shape
    pos = _positive(labels)
    n_pos = pos.sum(axis=1)
    n_neg = m - n_pos
    defined = (n_pos > 0) & (n_neg > 0)
    order = np.argsort(scores, axis=1)
    order += (np.arange(r) * m)[:, None]  # flat indices: np.take beats take_along_axis
    sorted_pos = np.take(pos, order)
    xs = np.take(scores, order)
    nan_row = np.isnan(xs[:, -1:]).any(axis=1)  # argsort puts NaNs last
    # a tie group starts at each row's first entry and wherever the value changes
    new_group = np.ones((r, m), dtype=bool)
    np.not_equal(xs[:, 1:], xs[:, :-1], out=new_group[:, 1:])
    del order, xs  # the (R, M) float and index arrays, before the per-group ones
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], r * m)
    row = starts // m
    group_pos = np.add.reduceat(sorted_pos.ravel(), starts, dtype=np.int64)
    # 1-based average rank of the group within its row; every value is a
    # multiple of 1/2 below 2**52, so the sums below are exact in any order
    mean_rank = (starts + ends + 1 - 2 * row * m) / 2
    rank_sum = np.bincount(row, weights=group_pos * mean_rank, minlength=r)
    auc = np.full(r, np.nan)
    auc[defined] = ((rank_sum - n_pos * (n_pos + 1) / 2)[defined]
                    / (n_pos * n_neg)[defined])
    auc[nan_row] = np.nan
    return auc, defined


def binary_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties.

    A positive's average rank is the mean of the 1-based ranks its tie group
    spans in the sorted scores, whose bounds two searchsorted calls find for
    every positive at once; so the rank sum is an integer sum halved, exact
    below 2**53, as _row_aucs' is. The positives' scores are gathered a block
    at a time and sorted, which the searches run fastest on.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ShapeError(f"{scores.size} scores vs {labels.size} labels")
    positives = np.concatenate([np.empty(0), *(
        scores[block][_positive(labels[block])] for block in _row_blocks(scores.size, 1))])
    n_pos = np.int64(positives.size)
    n_neg = scores.size - n_pos
    if not (n_pos > 0 and n_neg > 0):
        raise DegenerateLabelsError("AUC undefined: labels contain a single class")
    ranked = np.sort(scores)
    if np.isnan(ranked[-1]):  # sorted last
        return math.nan
    positives.sort()
    twice_rank_sum = (np.searchsorted(ranked, positives, "left").sum()
                      + np.searchsorted(ranked, positives, "right").sum() + n_pos)
    return float((twice_rank_sum / 2 - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def multilabel_auc(scores: np.ndarray, labels: np.ndarray, averaging: str) -> tuple[float, int]:
    """AUC over an (N, S) score/label pair at the requested averaging.

    Returns (auc, skipped): samples skips the rows and macro the classes
    lacking both label values; micro skips nothing.
    """
    if averaging not in AVERAGINGS:
        raise SdmkitError(f"averaging {averaging!r} not in {AVERAGINGS}")
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    if averaging == "micro":
        return binary_auc(scores, labels), 0
    if averaging == "macro":
        scores, labels = scores.T, labels.T
    aucs, defined = _row_aucs(scores, labels)
    if not defined.any():
        unit = "class" if averaging == "macro" else "row"
        raise DegenerateLabelsError(f"{averaging} AUC: no {unit} has both label values")
    return float(np.mean(aucs[defined])), int(defined.size - defined.sum())


@dataclass(frozen=True)
class MetricReport:
    micro_auc: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    samples_auc: float
    samples_precision: float
    samples_recall: float
    samples_f1: float
    macro_auc: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    skipped_samples: int
    skipped_classes: int


def evaluate(predictions: Predictions, labels: np.ndarray, k: int) -> MetricReport:
    """Fill the full 12-slot metric report for predictions and the (N, S)
    labels of the same surveys, in the same order."""
    if not predictions:
        raise AlignmentError("empty prediction list")
    labels = np.asarray(labels)
    if len(predictions) != labels.shape[0]:
        raise AlignmentError(f"{len(predictions)} predictions vs {labels.shape[0]} label rows")
    topk = predictions.topk if predictions.topk.shape[1] == k else top_k(predictions.scores, k)
    values, skipped = {}, {}
    for avg in AVERAGINGS:
        p, r, f1 = topk_prf(topk, labels, avg)
        auc, skipped[avg] = multilabel_auc(predictions.scores, labels, avg)
        values.update({f"{avg}_auc": auc, f"{avg}_precision": p, f"{avg}_recall": r,
                       f"{avg}_f1": f1})
    return MetricReport(**values, skipped_samples=skipped["samples"],
                        skipped_classes=skipped["macro"])


def write_report(report: MetricReport, json_path: str, txt_path: str) -> None:
    """Write report.json and report.txt, each through a temporary file that
    replaces it only once both are written whole: a failure in either write
    leaves both previous files as they were."""
    with (replaced_on_success(json_path, "w", encoding="utf-8") as json_fh,
          replaced_on_success(txt_path, "w", encoding="utf-8") as txt_fh):
        json.dump(asdict(report), json_fh, indent=2)
        lines = ["metric        micro    samples  macro"]
        for metric in ("auc", "precision", "recall", "f1"):
            row = [f"{metric:<12}"]
            for avg in AVERAGINGS:
                row.append(f"{getattr(report, f'{avg}_{metric}'):8.4f}")
            lines.append(" ".join(row))
        lines.append(f"skipped samples: {report.skipped_samples}")
        lines.append(f"skipped classes: {report.skipped_classes}")
        txt_fh.write("\n".join(lines) + "\n")
