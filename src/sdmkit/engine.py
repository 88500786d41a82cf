"""Training and inference loops.

One training loop owns the model. Per epoch: a training pass (weighted BCE
backprop, AdamW, cosine schedule stepped on the epoch clock), a validation
pass (loss + the full metric report), one metrics.csv row, last.ckpt every
epoch and best.ckpt whenever the validation loss strictly improves.

Dropout, shuffling, and weight init draw from separate seeded RNG streams
so toggling one never perturbs the others.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .config import ExperimentConfig, config_digest, render_config
from .errors import CheckpointMismatchError, FormatError, SdmkitError, ShapeError
from .evalkit import Predictions, evaluate
from .geodata import collate, parse_field, read_csv

log = logging.getLogger(__name__)

METRIC_COLUMNS = [
    "micro_auc", "micro_precision", "micro_recall", "micro_f1",
    "samples_auc", "samples_precision", "samples_recall", "samples_f1",
    "macro_auc", "macro_precision", "macro_recall", "macro_f1",
]


@dataclass
class TrainState:
    epoch: int = 0
    best_val_loss: float = math.inf


@dataclass(frozen=True)
class ScheduleSpec:
    eta_max: float
    eta_min: float = 0.0
    t_max: int = 25


def _check_binary(labels: np.ndarray) -> None:
    if not np.all((labels == 0) | (labels == 1)):
        raise SdmkitError("labels must be binary (0/1)")


def expit(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid; exactly 0 or 1, without a warning, once exp overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def weighted_bce_logits(logits: np.ndarray, labels: np.ndarray,
                        pos_weight: float) -> float:
    """Mean of w*y*softplus(-z) + (1-y)*softplus(z); stable for |z| ~ 1e4."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if logits.shape != labels.shape:
        raise ShapeError(f"logits {logits.shape} vs labels {labels.shape}")
    _check_binary(labels)
    sp_neg = np.logaddexp(0.0, -logits)  # softplus(-z)
    sp_pos = np.logaddexp(0.0, logits)  # softplus(z) == z + softplus(-z)
    return float(np.mean(pos_weight * labels * sp_neg + (1.0 - labels) * sp_pos))


def weighted_bce_logits_grad(logits: np.ndarray, labels: np.ndarray,
                             pos_weight: float) -> np.ndarray:
    """Gradient of weighted_bce_logits with respect to the logits."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=float)
    grad = -pos_weight * labels * expit(-logits) + (1.0 - labels) * expit(logits)
    return grad / logits.size


def cosine_lr(t: int, spec: ScheduleSpec) -> float:
    """Cosine annealing on the epoch clock."""
    if t < 0 or t > spec.t_max:
        log.warning("cosine_lr: epoch %d outside [0, %d], clamping", t, spec.t_max)
        t = min(max(t, 0), spec.t_max)
    return spec.eta_min + (spec.eta_max - spec.eta_min) * (1 + math.cos(math.pi * t / spec.t_max)) / 2


class AdamW:
    """Decoupled weight-decay adaptive-moment optimizer.

    Moments are keyed by parameter path so the same instance survives any
    in-place model use; steps with non-finite gradients are skipped whole.
    """

    def __init__(self, weight_decay: float = 0.0, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, named_params, lr: float) -> bool:
        """Apply one update in place; returns False if skipped."""
        triples = list(named_params)
        for name, _, grad in triples:
            if not np.all(np.isfinite(grad)):
                log.warning("AdamW: non-finite gradient in %s; step skipped", name)
                return False
        self.t += 1
        bc1 = 1 - self.beta1**self.t
        bc2 = 1 - self.beta2**self.t
        for name, param, grad in triples:
            m = self.m.setdefault(name, np.zeros_like(param))
            v = self.v.setdefault(name, np.zeros_like(param))
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            if self.weight_decay:  # decays theta_{t-1}, before the update
                param *= 1 - lr * self.weight_decay
            param -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return True


def make_batches(n: int, batch_size: int, shuffle: bool, seed: int,
                 epoch: int = 0) -> list[np.ndarray]:
    """Partition indices 0..n-1 into batches; the order depends only on (seed, epoch)."""
    if n < 1:
        raise SdmkitError("empty sample source")
    if batch_size > n:
        log.warning("batch_size %d > %d samples; single smaller batch", batch_size, n)
    indices = np.arange(n)
    if shuffle:
        rng = np.random.default_rng([seed, 2, epoch])
        rng.shuffle(indices)
    return [indices[i : i + batch_size] for i in range(0, n, batch_size)]


def arch_digest(cfg: ExperimentConfig) -> str:
    """Digest of the architecture-determining sections (model + task)."""
    canon = json.dumps({"model": asdict(cfg.model), "task": asdict(cfg.task)},
                       sort_keys=True, separators=(",", ":"))
    import hashlib

    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@contextmanager
def _replaced_on_success(path: str, mode: str, **kwargs):
    """Open a temporary file next to path and move it onto path only once the
    block completes, so a failed write leaves the previous file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(path: str, model, optimizer, state: TrainState,
                    cfg: ExperimentConfig) -> None:
    """Write the model's params as param/<name> arrays and a JSON meta record
    (state, architecture and config digests). optimizer is ignored: nothing
    loads optimizer state, and the parameter stays only so that callers that
    pass five arguments, such as perfbench's input set-up, keep working."""
    arrays = {f"param/{name}": param for name, param, _ in model.named_params()}
    meta = {"state": asdict(state), "arch_digest": arch_digest(cfg),
            "config_digest": config_digest(cfg)}
    arrays["meta"] = np.array(json.dumps(meta))
    with _replaced_on_success(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str, model, cfg: ExperimentConfig) -> TrainState:
    """Restore weights into model, checking the architecture digest and each
    param's shape and dtype. Checkpoints that also hold optimizer state or
    more state fields load the same way; those extras are ignored."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta["arch_digest"] != arch_digest(cfg):
            raise CheckpointMismatchError(
                f"{path}: architecture digest {meta['arch_digest']} != "
                f"config's {arch_digest(cfg)}"
            )
        stored = {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
        mismatches = []
        for name, param, _ in model.named_params():
            if name not in stored:
                mismatches.append(f"{name}: missing from checkpoint")
            elif stored[name].shape != param.shape:
                mismatches.append(
                    f"{name}: checkpoint {stored[name].shape} vs model {param.shape}"
                )
            elif stored[name].dtype != param.dtype:
                mismatches.append(
                    f"{name}: checkpoint dtype {stored[name].dtype} vs model {param.dtype}"
                )
        if mismatches:
            raise CheckpointMismatchError(f"{path}: " + "; ".join(mismatches))
        for name, param, _ in model.named_params():
            param[...] = stored[name]
    state = meta["state"]
    return TrainState(epoch=state["epoch"], best_val_loss=state["best_val_loss"])


def _epoch_loss_pass(model, source, batches, pos_weight: float, optimizer=None,
                     lr: float = 0.0, training: bool = False):
    """Run one pass; returns (mean loss, score rows, label rows, survey ids).
    Losses and scores are computed in float64 from the model's logits; the
    loss gradient goes back in the logits' dtype."""
    total, count = 0.0, 0
    logits_all, labels_all, ids = [], [], []
    for batch_idx in batches:
        batch = collate(source, batch_idx)
        logits = model.forward(batch, training=training)
        labels = batch["labels"]
        loss = weighted_bce_logits(logits, labels, pos_weight)
        if training:
            if math.isfinite(loss):
                grad = weighted_bce_logits_grad(logits, labels, pos_weight)
                model.backward(grad.astype(logits.dtype, copy=False))
                optimizer.step(model.named_params(), lr)
        else:
            logits_all.append(logits)
            labels_all.append(labels)
            ids.extend(batch["survey_ids"])
        if math.isfinite(loss):
            total += loss * len(batch_idx)
            count += len(batch_idx)
    mean = total / count if count else math.nan
    if training:
        return mean, None, None, None
    scores = expit(np.concatenate(logits_all, dtype=np.float64))
    return mean, scores, np.concatenate(labels_all), ids


def fit(cfg: ExperimentConfig, model, train_source, val_source,
        out_root: str | None = None) -> str:
    """Train per the config; returns the unique run directory."""
    seed = cfg.run.seed
    model.set_dropout_rng(np.random.default_rng([seed, 1]))
    pos_weight = cfg.optimizer.pos_weight
    sched = ScheduleSpec(eta_max=cfg.optimizer.lr, t_max=cfg.optimizer.t_max)
    optimizer = AdamW(weight_decay=cfg.optimizer.weight_decay)
    root = out_root or cfg.trainer.output_dir
    run_dir = os.path.join(
        root, f"{time.strftime('%Y%m%d-%H%M%S')}-{config_digest(cfg, 8)}"
    )
    suffix = 0
    while os.path.exists(run_dir):
        suffix += 1
        run_dir = f"{run_dir}-{suffix}"
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "config.yaml"), "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))
    state = TrainState()
    metrics_path = os.path.join(run_dir, "metrics.csv")
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "val_loss"] + METRIC_COLUMNS)
        for epoch in range(cfg.trainer.epochs):
            lr = cosine_lr(epoch, sched)
            state.epoch = epoch
            train_batches = make_batches(
                len(train_source), cfg.data.batch_size, shuffle=True, seed=seed, epoch=epoch
            )
            train_loss, _, _, _ = _epoch_loss_pass(
                model, train_source, train_batches, pos_weight, optimizer, lr, training=True
            )
            if not math.isfinite(train_loss):
                raise SdmkitError(
                    f"epoch {epoch}: training loss non-finite for the full epoch; aborting"
                )
            val_batches = make_batches(
                len(val_source), cfg.data.batch_size, shuffle=False, seed=seed
            )
            val_loss, scores, labels, ids = _epoch_loss_pass(
                model, val_source, val_batches, pos_weight, training=False
            )
            preds = Predictions.from_scores(ids, scores, cfg.task.top_k)
            report = evaluate(preds, labels, cfg.task.top_k)
            row = [epoch, repr(lr), repr(train_loss), repr(val_loss)]
            row += [repr(getattr(report, col)) for col in METRIC_COLUMNS]
            writer.writerow(row)
            fh.flush()
            improved = val_loss < state.best_val_loss
            if improved:  # before both writes, so last.ckpt records the new best too
                state.best_val_loss = val_loss
            save_checkpoint(os.path.join(run_dir, "last.ckpt"), model, None, state, cfg)
            if improved:
                save_checkpoint(os.path.join(run_dir, "best.ckpt"), model, None, state, cfg)
            if cfg.trainer.log_interval and epoch % cfg.trainer.log_interval == 0:
                log.info(
                    "epoch %d/%d lr=%.3e train_loss=%.5f val_loss=%.5f micro_auc=%.4f",
                    epoch + 1, cfg.trainer.epochs, lr, train_loss, val_loss,
                    report.micro_auc,
                )
    return run_dir


def predict(cfg: ExperimentConfig, model, weights_path: str, test_source,
            out_path: str | None = None) -> Predictions:
    """Load a checkpoint and score every survey in the test source; the
    scores are computed in float64 from the model's logits."""
    load_checkpoint(weights_path, model, cfg)
    batches = make_batches(len(test_source), cfg.data.batch_size, shuffle=False,
                           seed=cfg.run.seed)
    ids, logits = [], []
    for batch_idx in batches:
        batch = collate(test_source, batch_idx)
        logits.append(model.forward(batch, training=False))
        ids += batch["survey_ids"]
    scores = expit(np.concatenate(logits, dtype=np.float64))
    predictions = Predictions.from_scores(ids, scores, cfg.task.top_k)
    if out_path:
        save_predictions(predictions, out_path)
    return predictions


def save_predictions(predictions: Predictions, path: str) -> None:
    """predictions.csv: surveyId, topk ids (rank order), all class scores.
    A missing directory is created."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with _replaced_on_success(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["surveyId", "topk", "scores"])
        writer.writerows(
            [sid, " ".join(map(str, topk)), " ".join(map(repr, scores))]
            for sid, topk, scores in zip(predictions.survey_ids, predictions.topk.tolist(),
                                         predictions.scores.tolist())
        )


def load_predictions(path: str) -> Predictions:
    """Read a predictions.csv. Each survey has one row, every row holds as
    many top-k ids and scores as the first one, and a row's top-k ids are
    distinct class indices below the score count.

    One CSV pass collects the survey ids and the field texts; then one
    np.loadtxt call parses each numeric column. Where numpy rejects or warns
    about a column, skips a blank field, or a field holds a line break, the
    per-row parse runs instead: it raises the FormatError naming the first
    bad row, or reads what Python's number syntax accepts but numpy's does
    not (such as 1_0)."""
    rows, row_of, topk_texts, score_texts = [], {}, [], []  # row_of: surveyId -> row number
    try:
        for i, (sid, topk_text, score_text) in read_csv(path, ("surveyId", "topk", "scores")):
            rows.append(i)
            topk_texts.append(topk_text)
            score_texts.append(score_text)
            if row_of.setdefault(sid, i) != i:
                raise FormatError(f"{path} row {i}: survey {sid!r} already in row {row_of[sid]}")
    except FormatError:
        # rows are checked in file order: a bad field up to here is reported first
        _parse_rows(path, rows, topk_texts, score_texts)
        raise
    if not rows:
        return Predictions([], np.empty((0, 0)), np.empty((0, 0), dtype=np.int64))
    topk = _parse_column(topk_texts, np.int64)
    scores = _parse_column(score_texts, np.float64)
    if topk is None or scores is None:
        topks, scores = _parse_rows(path, rows, topk_texts, score_texts)
        topk, scores = np.stack(topks), np.stack(scores)
    ranked = np.sort(topk, axis=1)
    bad = (((topk < 0) | (topk >= scores.shape[1])).any(axis=1)
           | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    if bad.any():
        bad_rows = np.array(rows)[bad]
        raise FormatError(
            f"{path} row {bad_rows[0]}, column topk: ids {topk[bad][0].tolist()} are not distinct "
            f"class indices in [0, {scores.shape[1]}) ({bad_rows.size} such rows)"
        )
    return Predictions(list(row_of), scores, topk)


def _parse_column(texts: list[str], dtype) -> np.ndarray | None:
    """One (rows, values) array of whitespace-separated numbers, or None if
    numpy rejects or warns about a field, or the column is not one array of
    len(texts) rows."""
    if any("\n" in text or "\r" in text for text in texts):
        return None  # numpy's reader may end a row at a line break inside a field
    try:
        with warnings.catch_warnings():
            # numpy warns where it reads a field the per-row parse rejects (older
            # numpy casts an int field such as 1.5 from float) or skips every line
            warnings.simplefilter("error")
            # comments=None: a '#' would otherwise cut a row short without an error
            values = np.loadtxt(texts, dtype=dtype, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return values if len(values) == len(texts) else None  # blank lines are skipped


def _parse_rows(path, rows, topk_texts, score_texts):
    """Parse the topk and scores fields row by row, raising a FormatError
    naming the first bad or ragged row; the per-row arrays otherwise."""
    topks, scores = [], []
    for i, topk, row_scores in zip(rows, topk_texts, score_texts):
        topk = parse_field(path, i, "topk", _int_array, topk)
        row_scores = parse_field(path, i, "scores", _float_array, row_scores)
        if topks and (topk.size, row_scores.size) != (topks[0].size, scores[0].size):
            raise FormatError(
                f"{path} row {i}: {topk.size} top-k ids and {row_scores.size} "
                f"scores, row 2 has {topks[0].size} and {scores[0].size}"
            )
        topks.append(topk)
        scores.append(row_scores)
    return topks, scores


def _int_array(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=np.int64)


def _float_array(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=np.float64)
