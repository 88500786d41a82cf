"""Multilabel evaluation: Top-K prediction sets, precision/recall/F1 and
rank-based ROC-AUC at micro, samples, and macro averaging.

Conventions: Top-K tie-break is ascending class index; macro P/R/F1 average
over all classes with zero-division mapped to 0; AUC uses average ranks for
ties and skips classes/samples where it is undefined, reporting the counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AlignmentError, DegenerateLabelsError, SdmkitError, ShapeError

AVERAGINGS = ("micro", "samples", "macro")


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best scores, ordered by (score desc, index asc)."""
    scores = np.asarray(scores)
    s = scores.shape[-1]
    if not (1 <= k <= s):
        raise SdmkitError(f"k={k} outside [1, {s}]")
    # stable sort on index after negating scores gives the tie-break for free
    order = np.argsort(-scores, axis=-1, kind="stable")
    return order[..., :k]


@dataclass(frozen=True)
class PredictionSet:
    survey_id: str
    scores: np.ndarray  # (S,)
    topk: np.ndarray  # (k,) indices, rank order

    @classmethod
    def from_scores(cls, survey_id: str, scores: np.ndarray, k: int) -> "PredictionSet":
        return cls(survey_id=survey_id, scores=np.asarray(scores), topk=top_k(scores, k))


def _topk_matrix(predictions) -> np.ndarray:
    ks = {len(p.topk) for p in predictions}
    if len(ks) != 1:
        raise ShapeError(f"predictions disagree on k: {sorted(ks)}")
    return np.stack([p.topk for p in predictions])


def topk_prf(predictions, labels: np.ndarray, averaging: str) -> tuple[float, float, float]:
    """Top-K precision/recall/F1 under the requested averaging.

    labels is an (N, S) multi-hot matrix aligned with the prediction list.
    """
    if averaging not in AVERAGINGS:
        raise SdmkitError(f"averaging {averaging!r} not in {AVERAGINGS}")
    labels = np.asarray(labels)
    if len(predictions) != labels.shape[0]:
        raise ShapeError(
            f"{len(predictions)} predictions vs {labels.shape[0]} label rows"
        )
    n, s = labels.shape
    topk = _topk_matrix(predictions)
    k = topk.shape[1]
    # (N, S) indicator of top-k membership
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
        return (
            float(p_i[valid].mean()),
            float(r_i[valid].mean()),
            float(f_i[valid].mean()),
        )

    # macro: per class over all samples, zero-division -> 0, mean over all S
    tp_c = (in_topk & pos).sum(axis=0).astype(float)
    pred_c = in_topk.sum(axis=0).astype(float)
    pos_c = pos.sum(axis=0).astype(float)
    p_c = np.divide(tp_c, pred_c, out=np.zeros(s), where=pred_c > 0)
    r_c = np.divide(tp_c, pos_c, out=np.zeros(s), where=pos_c > 0)
    denom = p_c + r_c
    f_c = np.where(denom > 0, 2 * p_c * r_c / np.where(denom > 0, denom, 1.0), 0.0)
    return float(p_c.mean()), float(r_c.mean()), float(f_c.mean())


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, ties sharing the mean of their ranks.

    Any NaN makes every rank NaN, so an AUC over it is NaN too.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if np.isnan(xs[-1:]).any():  # argsort puts NaNs last
        return np.full(x.size, np.nan)
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def binary_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel()
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("AUC undefined: labels contain a single class")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def multilabel_auc(scores: np.ndarray, labels: np.ndarray, averaging: str,
                   return_skipped: bool = False):
    """AUC over an (N, S) score/label pair at the requested averaging.

    macro skips classes and samples skips rows lacking both label values;
    the skip count is returned when return_skipped is set.
    """
    if averaging not in AVERAGINGS:
        raise SdmkitError(f"averaging {averaging!r} not in {AVERAGINGS}")
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    skipped = 0
    if averaging == "micro":
        auc = binary_auc(scores.ravel(), labels.ravel())
    elif averaging == "macro":
        vals = []
        for c in range(scores.shape[1]):
            col = labels[:, c] > 0.5
            if col.any() and not col.all():
                vals.append(binary_auc(scores[:, c], labels[:, c]))
            else:
                skipped += 1
        if not vals:
            raise DegenerateLabelsError("macro AUC: no class has both label values")
        auc = float(np.mean(vals))
    else:
        vals = []
        for i in range(scores.shape[0]):
            row = labels[i] > 0.5
            if row.any() and not row.all():
                vals.append(binary_auc(scores[i], labels[i]))
            else:
                skipped += 1
        if not vals:
            raise DegenerateLabelsError("samples AUC: no row has both label values")
        auc = float(np.mean(vals))
    return (auc, skipped) if return_skipped else auc


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

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(predictions, labels: np.ndarray, k: int,
             label_ids: list[str] | None = None) -> MetricReport:
    """Fill the full 12-slot metric report for aligned predictions/labels."""
    if not predictions:
        raise AlignmentError("empty prediction list")
    labels = np.asarray(labels)
    if len(predictions) != labels.shape[0]:
        raise AlignmentError(
            f"{len(predictions)} predictions vs {labels.shape[0]} label rows"
        )
    if label_ids is not None:
        for i, (pred, sid) in enumerate(zip(predictions, label_ids)):
            if pred.survey_id != sid:
                raise AlignmentError(
                    f"row {i}: prediction survey {pred.survey_id!r} != label survey {sid!r}"
                )
    preds = [
        p if len(p.topk) == k else PredictionSet.from_scores(p.survey_id, p.scores, k)
        for p in predictions
    ]
    scores = np.stack([p.scores for p in preds])
    values = {}
    for avg in AVERAGINGS:
        p, r, f1 = topk_prf(preds, labels, avg)
        auc, skipped = multilabel_auc(scores, labels, avg, return_skipped=True)
        values[avg] = dict(auc=auc, precision=p, recall=r, f1=f1, skipped=skipped)
    return MetricReport(
        micro_auc=values["micro"]["auc"],
        micro_precision=values["micro"]["precision"],
        micro_recall=values["micro"]["recall"],
        micro_f1=values["micro"]["f1"],
        samples_auc=values["samples"]["auc"],
        samples_precision=values["samples"]["precision"],
        samples_recall=values["samples"]["recall"],
        samples_f1=values["samples"]["f1"],
        macro_auc=values["macro"]["auc"],
        macro_precision=values["macro"]["precision"],
        macro_recall=values["macro"]["recall"],
        macro_f1=values["macro"]["f1"],
        skipped_samples=values["samples"]["skipped"],
        skipped_classes=values["macro"]["skipped"],
    )


def write_report(report: MetricReport, json_path: str, txt_path: str) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    lines = ["metric        micro    samples  macro"]
    for metric in ("auc", "precision", "recall", "f1"):
        row = [f"{metric:<12}"]
        for avg in AVERAGINGS:
            row.append(f"{getattr(report, f'{avg}_{metric}'):8.4f}")
        lines.append(" ".join(row))
    lines.append(f"skipped samples: {report.skipped_samples}")
    lines.append(f"skipped classes: {report.skipped_classes}")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
