"""Training and inference loops.

One training loop owns the model. Per epoch: a training pass (weighted BCE
backprop, AdamW over the flat params, cosine schedule stepped on the epoch
clock), a validation pass (loss + the full metric report), one metrics.csv
row, last.ckpt every epoch and best.ckpt whenever the validation loss
strictly improves.

Dropout, shuffling, and weight init draw from separate seeded RNG streams
so toggling one never perturbs the others.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import time
import warnings
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .config import ExperimentConfig, config_digest, render_config
from .errors import CheckpointMismatchError, FormatError, SdmkitError, ShapeError
from .evalkit import Predictions, bad_topk_rows, evaluate
from .geodata import collate, parse_field, read_table, replaced_on_success
from .kernels import single_blas_thread
from .pipeline import model_encoders

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


def cosine_lr(t: int, eta_max: float, t_max: int) -> float:
    """Cosine annealing from eta_max at epoch 0 to zero at epoch t_max."""
    return eta_max * (1 + math.cos(math.pi * t / t_max)) / 2


# AdamW's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements of the flat buffers that each AdamW op runs over at a time
CHUNK = 1 << 16


class AdamW:
    """Decoupled weight-decay adaptive-moment optimizer over a flat model.

    The params and grads it steps must be the views Module.flatten_params
    made (build_model flattens every model); any other triples are refused
    with a ShapeError naming the first param outside that layout. A step
    checks the flat grads' finiteness once and skips a step with a
    non-finite gradient whole. Otherwise it runs its element-wise ops over
    the flat buffers one slice of CHUNK elements at a time, into two
    CHUNK-sized scratch buffers: besides the flat moments m and v it holds
    2 x CHUNK values, and no step allocates a param-sized array. Each
    element gets the same ops in the same order whatever the slice size.
    """

    def __init__(self, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.flat: _FlatState | None = None
        self.t = 0

    def step(self, named_params, lr: float) -> bool:
        """Apply one update in place; returns False if skipped. Updates
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, param *= 1 - lr wd,
        param -= lr (m / bc1) / (sqrt(v / bc2) + eps), each op as one ufunc
        over a slice of the flat buffers."""
        triples = list(named_params)
        flat = self._flat_state(triples)
        if not _all_finite(flat.grads):
            name = next(name for name, _, grad in triples if not _all_finite(grad))
            log.warning("AdamW: non-finite gradient in %s; step skipped", name)
            return False
        self.t += 1
        bc1 = 1 - ADAM_BETA1**self.t
        bc2 = 1 - ADAM_BETA2**self.t
        chunk = flat.scratch[0].size
        for start in range(0, flat.params.size, chunk or 1):
            param, grad, m, v = (a[start:start + chunk]
                                 for a in (flat.params, flat.grads, flat.m, flat.v))
            s1, s2 = (s[:param.size] for s in flat.scratch)
            m *= ADAM_BETA1
            m += np.multiply(grad, 1 - ADAM_BETA1, out=s1)
            v *= ADAM_BETA2
            np.multiply(grad, 1 - ADAM_BETA2, out=s1)
            v += np.multiply(s1, grad, out=s1)
            if self.weight_decay:  # decays theta_{t-1}, before the update
                param *= 1 - lr * self.weight_decay
            np.divide(m, bc1, out=s1)
            s1 *= lr
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += ADAM_EPS
            s1 /= s2
            param -= s1
        return True

    def _flat_state(self, triples) -> _FlatState:
        """The flat state of triples whose arrays are the views of one
        flatten_params call, in order; made, with zero moments and the step
        count at 0, on the first step of such a model."""
        flat = self.flat
        if flat is not None and len(flat.views) == len(triples) and all(
                param is p and grad is g for (_, param, grad), (p, g) in zip(triples, flat.views)):
            return flat
        params, grads = _flat_buffers(triples)
        self.t = 0  # bias correction for the new zero moments
        chunk = min(CHUNK, params.size)
        self.flat = _FlatState([(param, grad) for _, param, grad in triples], params, grads,
                               np.zeros_like(params), np.zeros_like(params),
                               (np.empty(chunk, params.dtype), np.empty(chunk, params.dtype)))
        return self.flat


@dataclass
class _FlatState:
    """AdamW's state for one flat model: the (param, grad) views it was made
    for, the model's params and grads buffers, the moments in the same
    layout, and two scratch buffers of min(CHUNK, params.size) elements,
    the slice a step works on at a time."""

    views: list
    params: np.ndarray
    grads: np.ndarray
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]


def _flat_buffers(triples) -> tuple[np.ndarray, np.ndarray]:
    """(params, grads) when the triples' params and grads are C-contiguous
    views of one 1-D buffer each, laid end to end in order over the whole
    buffer and each grad at its param's offset, as Module.flatten_params lays
    them out; otherwise a ShapeError names the first param outside that
    layout."""
    bases = (triples[0][1].base, triples[0][2].base) if triples else (None, None)
    offset = 0
    for name, param, grad in triples:
        if param.shape != grad.shape or not all(
                _view_at(base, a, offset) for base, a in zip(bases, (param, grad))):
            raise ShapeError(f"AdamW: {name} is not at its place in one flat param buffer; "
                             f"call flatten_params on the model before stepping it")
        offset += param.nbytes
    if bases[0] is None or any(offset != base.nbytes for base in bases):
        raise ShapeError("AdamW: the params do not fill one flat param buffer; call "
                         "flatten_params on the model before stepping it")
    return bases


def _view_at(base, a: np.ndarray, offset: int) -> bool:
    """Whether a is a C-contiguous view, in base's dtype, of the 1-D array
    base at byte offset."""
    return (base is not None and base.ndim == 1 and a.base is base and a.dtype == base.dtype
            and a.flags.c_contiguous and _address(a) == _address(base) + offset)


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _all_finite(a: np.ndarray) -> bool:
    """Whether every element of a is finite, without a mask as large as a:
    min and max propagate NaN, so both are finite only if every element is."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def make_batches(n: int, batch_size: int, shuffle: bool, seed: int,
                 epoch: int = 0) -> list[np.ndarray]:
    """Partition indices 0..n-1 into batches; the order depends only on (seed, epoch)."""
    if n < 1:
        raise SdmkitError("empty sample source")
    indices = np.arange(n)
    if shuffle:
        rng = np.random.default_rng([seed, 2, epoch])
        rng.shuffle(indices)
    return [indices[i : i + batch_size] for i in range(0, n, batch_size)]


def _arch(cfg: ExperimentConfig) -> dict:
    """What a checkpoint's params cannot show: the [provider, name] of the
    model, and of the encoder build_model builds for each modality
    (pipeline.model_encoders) keyed model.encoders.<modality>."""
    return {"model": [cfg.model.provider, cfg.model.name],
            **{f"model.encoders.{m}": [e.provider, e.name] for m, e in model_encoders(cfg).items()}}


def _stored_arch(arch: dict) -> dict:
    """A checkpoint's arch with each modality's encoder named. One without a
    model.encoders key was written, before the arch named resolved encoders,
    for a single-modality model without model.encoders: its patch encoder is
    the model's [provider, name], as model_encoders resolves it."""
    if any(key.startswith("model.encoders.") for key in arch):
        return arch
    return {**arch, "model.encoders.patch": arch.get("model")}


def _legacy_arch_digests(cfg: ExperimentConfig) -> set[str]:
    """The arch_digest that a checkpoint written before meta held "arch" holds
    for cfg, at each value of the removed task.type, which changed no param."""
    sections = [{"model": asdict(cfg.model), "task": {**asdict(cfg.task), "type": task_type}}
                for task_type in ("binary", "multilabel")]
    return {hashlib.sha256(json.dumps(s, sort_keys=True, separators=(",", ":")).encode("utf-8"))
            .hexdigest()[:12] for s in sections}


def save_checkpoint(path: str, model, optimizer, state: TrainState,
                    cfg: ExperimentConfig) -> None:
    """Write the model's params as param/<name> arrays and a JSON meta record
    (state and arch). optimizer is ignored: nothing loads optimizer state,
    and the parameter stays only so that callers that pass five arguments,
    such as perfbench's input set-up, keep working."""
    arrays = {f"param/{name}": param for name, param, _ in model.named_params()}
    meta = {"state": asdict(state), "arch": _arch(cfg)}
    arrays["meta"] = np.array(json.dumps(meta))
    with replaced_on_success(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str, model, cfg: ExperimentConfig) -> TrainState:
    """Restore weights into model, checking the arch (older checkpoints: the
    architecture digest) and each param's shape and dtype. Optimizer state,
    more state fields and a config digest in older checkpoints are ignored.
    A file that is not an npz archive with a JSON meta record holding the
    state raises one FormatError naming it."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # text or pickle, empty, broken zip
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise FormatError(f"{path}: not an npz checkpoint archive")
    with data:
        if "meta" not in data.files:
            raise FormatError(f"{path}: no meta record")
        try:
            meta = json.loads(str(data["meta"]))
        except ValueError as exc:
            raise FormatError(f"{path}: meta is not valid JSON ({exc})") from None
        state = meta.get("state") if isinstance(meta, dict) else None
        if not isinstance(state, dict) or not {"epoch", "best_val_loss"} <= state.keys():
            raise FormatError(f"{path}: meta has no state with epoch and best_val_loss")
        if "arch" in meta:
            stored = _stored_arch(meta["arch"])
            mismatches = [f"{key}: checkpoint {stored.get(key)} vs config {value}"
                          for key, value in _arch(cfg).items() if stored.get(key) != value]
        else:
            mismatches = [] if meta.get("arch_digest") in _legacy_arch_digests(cfg) else [
                f"architecture digest {meta.get('arch_digest')} does not match the config's"]
        stored = {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
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
    return TrainState(epoch=state["epoch"], best_val_loss=state["best_val_loss"])


def _forward_batches(model, source, batches, training: bool = False):
    """Yield (survey ids, labels, logits) of each batch in turn: collate, then
    the model's forward. labels is None for a source in predict mode. Only
    the batch being yielded is held, never a whole pass."""
    for batch_idx in batches:
        batch = collate(source, batch_idx)
        yield batch["survey_ids"], batch.get("labels"), model.forward(batch, training=training)


def _mean_finite(losses) -> float:
    """Mean of the finite (batch loss, batch size) pairs, weighted by size;
    NaN if none is finite."""
    total, count = 0.0, 0
    for loss, size in losses:
        if math.isfinite(loss):
            total += loss * size
            count += size
    return total / count if count else math.nan


def _train_epoch(model, source, batches, pos_weight: float, optimizer, lr: float) -> float:
    """One training pass: backprop and an optimizer step on every batch whose
    loss is finite; returns the mean loss. The loss is computed in float64
    from the model's logits and its gradient goes back in the logits' dtype."""
    losses = []
    for ids, labels, logits in _forward_batches(model, source, batches, training=True):
        loss = weighted_bce_logits(logits, labels, pos_weight)
        if math.isfinite(loss):
            grad = weighted_bce_logits_grad(logits, labels, pos_weight)
            model.backward(grad.astype(logits.dtype, copy=False))
            optimizer.step(model.named_params(), lr)
        losses.append((loss, len(ids)))
    return _mean_finite(losses)


def _validate(model, source, batches, pos_weight: float):
    """(mean loss, survey ids, float64 scores, labels) of one validation pass."""
    losses, ids, logits_all, labels_all = [], [], [], []
    for batch_ids, labels, logits in _forward_batches(model, source, batches):
        losses.append((weighted_bce_logits(logits, labels, pos_weight), len(batch_ids)))
        ids += batch_ids
        logits_all.append(logits)
        labels_all.append(labels)
    scores = expit(np.concatenate(logits_all, dtype=np.float64))
    return _mean_finite(losses), ids, scores, np.concatenate(labels_all)


def fit(cfg: ExperimentConfig, model, train_source, val_source,
        out_root: str | None = None) -> str:
    """Train per the config, with numpy's BLAS on one thread
    (kernels.single_blas_thread); returns the unique run directory."""
    single_blas_thread()
    seed = cfg.run.seed
    model.set_dropout_rng(np.random.default_rng([seed, 1]))
    pos_weight = cfg.optimizer.pos_weight
    optimizer = AdamW(weight_decay=cfg.optimizer.weight_decay)
    root = out_root or cfg.trainer.output_dir
    run_dir = os.path.join(
        root, f"{time.strftime('%Y%m%d-%H%M%S')}-{config_digest(cfg)}"
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
            lr = cosine_lr(epoch, cfg.optimizer.lr, cfg.optimizer.t_max)
            state.epoch = epoch
            train_batches = make_batches(
                len(train_source), cfg.data.batch_size, shuffle=True, seed=seed, epoch=epoch
            )
            train_loss = _train_epoch(model, train_source, train_batches, pos_weight,
                                      optimizer, lr)
            if not math.isfinite(train_loss):
                raise SdmkitError(
                    f"epoch {epoch}: training loss non-finite for the full epoch; aborting"
                )
            val_batches = make_batches(
                len(val_source), cfg.data.batch_size, shuffle=False, seed=seed
            )
            val_loss, ids, scores, labels = _validate(model, val_source, val_batches,
                                                      pos_weight)
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
    """Load a checkpoint and score every survey in the test source, with
    numpy's BLAS on one thread (kernels.single_blas_thread); the scores are
    computed in float64 from the model's logits."""
    single_blas_thread()
    load_checkpoint(weights_path, model, cfg)
    batches = make_batches(len(test_source), cfg.data.batch_size, shuffle=False,
                           seed=cfg.run.seed)
    ids, logits = [], []
    for batch_ids, _, batch_logits in _forward_batches(model, test_source, batches):
        ids += batch_ids
        logits.append(batch_logits)
    scores = expit(np.concatenate(logits, dtype=np.float64))
    predictions = Predictions.from_scores(ids, scores, cfg.task.top_k)
    if out_path:
        save_predictions(predictions, out_path)
    return predictions


# (survey, class) score entries that save_predictions formats at a time
WRITE_BLOCK = 1 << 16


def save_predictions(predictions: Predictions, path: str) -> None:
    """predictions.csv: surveyId, topk ids (rank order), all class scores,
    each score its repr. A missing directory is created. The bytes are those
    of csv.writer's excel dialect: only a survey id can need quoting, since
    the other fields hold numbers and spaces. Rows are formatted a block of
    about WRITE_BLOCK scores at a time, so only one block's Python floats
    are held."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    ids, topk, scores = predictions.survey_ids, predictions.topk, predictions.scores
    rows = max(1, WRITE_BLOCK // max(1, scores.shape[1]))
    with replaced_on_success(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("surveyId,topk,scores\r\n")
        for start in range(0, len(ids), rows):
            stop = start + rows
            fh.writelines(
                f"{_csv_field(sid)},{' '.join(map(str, row_topk))},"
                f"{' '.join(map(repr, row_scores))}\r\n"
                for sid, row_topk, row_scores in zip(ids[start:stop], topk[start:stop].tolist(),
                                                     scores[start:stop].tolist())
            )


def _csv_field(text: str) -> str:
    """text as a CSV field of the excel dialect with minimal quoting: in
    quotes, each quote doubled, when it holds a comma, a quote or a line
    break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def load_predictions(path: str) -> Predictions:
    """Read a predictions.csv. Each survey has one row, every row holds as
    many top-k ids and scores as the first one, and a row's top-k ids are
    distinct class indices below the score count. Each block of read_table
    is parsed by _parse_block into (N, k) and (N, S) arrays that grow in place
    to the row count the file's size implies, and are cut to the rows read."""
    size, chars, rows, row_of = os.path.getsize(path), 0, 0, {}  # row_of: surveyId -> row number
    topk, scores = np.empty((0, 0), dtype=np.int64), np.empty((0, 0))
    for start, (sids, topk_texts, score_texts) in read_table(path, ("surveyId", "topk", "scores")):
        widths = (topk.shape[1], scores.shape[1]) if rows else None
        block = _parse_block(path, start, sids, topk_texts, score_texts, widths, row_of)
        chars += sum(map(len, sids)) + sum(map(len, topk_texts)) + sum(map(len, score_texts))
        end = rows + len(sids)
        if end > len(scores):  # to the rows size implies at chars per row, at least end
            for array, parsed in zip((topk, scores), block):
                array.resize((end * max(size, chars) // max(chars, 1), parsed.shape[1]),
                             refcheck=False)
        topk[rows:end], scores[rows:end] = block
        rows = end
    for array in (topk, scores):
        array.resize((rows, array.shape[1]), refcheck=False)
    bad = bad_topk_rows(topk, scores.shape[1])
    if bad.any():
        bad_rows = np.fromiter(row_of.values(), np.int64, len(row_of))[bad]
        raise FormatError(
            f"{path} row {bad_rows[0]}, column topk: ids {topk[bad][0].tolist()} are not distinct "
            f"class indices in [0, {scores.shape[1]}) ({bad_rows.size} such rows)"
        )
    return Predictions(list(row_of), scores, topk)


def _parse_block(path, start, sids, topk_texts, score_texts, widths, row_of):
    """The (rows, k) top-k ids and (rows, S) scores of a block of rows from
    start, by one np.loadtxt call per column, recording each survey's row in
    row_of. Where numpy rejects, warns or skips, a field holds a line break, a
    survey repeats or the widths are not widths (the first row's), the row by
    row parse raises the FormatError naming the first bad row, or reads what
    Python's number syntax accepts but numpy's does not (such as 1_0)."""
    fresh = all(row_of.setdefault(sid, i) == i for i, sid in enumerate(sids, start))
    try:
        if any("\n" in text or "\r" in text for text in (*topk_texts, *score_texts)):
            raise ValueError("a line break in a field")
        with warnings.catch_warnings():
            # numpy warns where it reads a field the per-row parse rejects (older
            # numpy casts an int field such as 1.5 from float) or skips every line
            warnings.simplefilter("error")
            # comments=None: a '#' would otherwise cut a row short without an error
            topk, scores = (np.loadtxt(texts, dtype=dtype, comments=None, ndmin=2)
                            for texts, dtype in ((topk_texts, np.int64), (score_texts, np.float64)))
        if (fresh and len(topk) == len(scores) == len(sids)  # blank lines are skipped
                and widths in (None, (topk.shape[1], scores.shape[1]))):
            return topk, scores
    except (ValueError, Warning):
        pass
    topks, score_rows = [], []
    for i, (sid, topk, row_scores) in enumerate(zip(sids, topk_texts, score_texts), start):
        topk = parse_field(path, i, "topk", _int_array, topk)
        row_scores = parse_field(path, i, "scores", _float_array, row_scores)
        widths = widths or (topk.size, row_scores.size)
        if (topk.size, row_scores.size) != widths:
            raise FormatError(f"{path} row {i}: {topk.size} top-k ids and {row_scores.size} "
                              f"scores, row 2 has {widths[0]} and {widths[1]}")
        if row_of.setdefault(sid, i) != i:
            raise FormatError(f"{path} row {i}: survey {sid!r} already in row {row_of[sid]}")
        topks.append(topk)
        score_rows.append(row_scores)
    return np.stack(topks), np.stack(score_rows)


def _int_array(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=np.int64)


def _float_array(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=np.float64)
