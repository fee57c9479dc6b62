"""Loss mixing across prediction levels, Adam with the inverse-sqrt warmup
schedule, checkpoint averaging, and the training loop."""

from __future__ import annotations

import csv
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import ctc, diffcore as dc
from .diffcore import ContractError, NumericError, ParamStore, Tensor, atomic_write
from .encoder import EncoderModel, ForwardOutput
from .labels import error_rate
from .synthdata import Utterance


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run.

    `mix_weight` balances the final loss against the averaged intermediate
    losses; 0 means pure final-loss training.  `early_stop_train_cer` ends
    the run at the first evaluation where the training-set error rate is at
    or below it both at the final character output and, when the placement
    has syllable heads, at the top syllable head.  `grad_clip` bounds the
    global gradient norm; 0 turns clipping off.
    """

    mix_weight: float = 0.5
    epochs: int = 200
    batch_size: int = 10
    warmup_steps: int = 500
    lr_factor: float = 2.0
    seed: int = 0
    average_k: int = 10
    max_steps: int | None = None
    eval_interval: int = 50
    grad_clip: float = 5.0
    early_stop_train_cer: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.mix_weight < 1.0:
            raise ContractError(f"mix_weight must be in [0, 1), got {self.mix_weight}")
        if self.average_k < 1:
            raise ContractError(f"average_k must be >= 1, got {self.average_k}")
        if self.batch_size < 1 or self.epochs < 1 or self.eval_interval < 1:
            raise ContractError("batch_size, epochs, and eval_interval must be >= 1")
        if self.warmup_steps < 1:
            raise ContractError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ContractError(f"max_steps must be >= 1 when given, got {self.max_steps}")
        if not (math.isfinite(self.lr_factor) and self.lr_factor > 0.0):
            raise ContractError(f"lr_factor must be finite and > 0, got {self.lr_factor}")
        if not self.grad_clip >= 0.0:
            raise ContractError(f"grad_clip must be >= 0, got {self.grad_clip}")
        if self.early_stop_train_cer is not None and math.isnan(self.early_stop_train_cer):
            raise ContractError("early_stop_train_cer must be a number, got nan")


@dataclass
class MetricsRow:
    """One logged evaluation point."""

    step: int
    lr: float
    loss_total: float
    loss_final: float
    inter_losses: dict[tuple[str, int], float]
    cer_train: float
    cer_valid: float
    ser_valid: dict[int, float]


@dataclass
class TrainResult:
    metrics: list[MetricsRow]
    best_checkpoints: list[tuple[int, float]]
    averaged_store: ParamStore
    aborted: bool
    steps_run: int
    # The NumericError message that aborted the run, e.g. which block first
    # produced non-finite values; empty when the run was not aborted.
    abort_reason: str = ""


def ctc_node(
    log_probs: Sequence[Tensor],
    lengths: Sequence[int],
    targets: Sequence[Sequence[Sequence[int]]],
    weights: Sequence[float],
) -> tuple[Tensor, list[float]]:
    """Weighted sum over prediction points of each point's summed per-segment
    CTC losses, as one graph node over all points' log-softmax outputs.

    `log_probs[p]` stacks the segments' rows of point p and `targets[p][i]`
    is segment i's target there; `batch_loss` puts the final point first.
    Also returns each point's summed loss.  The gradient at each
    log-probability is minus its weighted occupancy, which
    `log_softmax_rows` turns into softmax minus occupancy.  The node lists
    the first point's log-softmax last among its parents, so that, with
    posterior feedback, `backward` runs the others' right after this node
    and frees their outputs and occupancies there.  Inside `no_grad` only
    the losses are computed: the forward lattices alone.
    """
    recording = dc.is_recording()
    result = ctc.ctc_loss_batch(
        [lp.value for lp in log_probs], lengths, targets, with_grads=recording
    )
    sums = [float(s) for s in result.losses.sum(axis=1)]
    total = 0.0
    for weight, point_sum in zip(weights, sums):
        total += weight * point_sum
    # Points of weight 0 only report their loss and stay off the graph.
    live = []
    if recording:
        live = [(lp, g, w) for lp, g, w in zip(log_probs, result.grads, weights) if w]
    # `backward` runs the order `dc._topo_order` documents: the subgraph of
    # the last-listed parent first.  Through the final head it reaches the
    # whole stack and, with posterior feedback, every intermediate head's
    # logits, so the other log-softmax nodes run right after this node,
    # before the top block: their outputs and occupancies are freed there,
    # and only the head-logit gradients of the same size are held until
    # their layer.
    live = live[1:] + live[:1]
    out = Tensor(np.float64(total), parents=tuple(lp for lp, _, _ in live), op="ctc_nll")
    # Backward reads the occupancies, not the log-probabilities.
    live = [(lp.node, grad, weight) for lp, grad, weight in live]

    def _bwd(g: np.ndarray) -> None:
        for node, grad, weight in live:
            dc._acc(node, (float(g) * weight) * grad)

    return dc._record(out, _bwd), sums


def total_loss(
    out: ForwardOutput,
    char_target: Sequence[int],
    syl_target: Sequence[int],
    mix_weight: float,
) -> tuple[Tensor, dict]:
    """Weighted sum of the final character loss and all intermediate losses
    of a one-utterance forward output.

    The final loss gets weight (1 - mix_weight); each intermediate loss gets
    mix_weight divided by the number of intermediate prediction points, so the
    coefficients always sum to one.  With no intermediate layers the final
    loss is returned as-is.
    """
    if len(out.lengths) != 1:
        raise ContractError(f"total_loss takes one utterance, got {len(out.lengths)}")
    return batch_loss(out, [char_target], [syl_target], mix_weight)


def batch_loss(
    out: ForwardOutput,
    char_targets: Sequence[Sequence[int]],
    syl_targets: Sequence[Sequence[int]],
    mix_weight: float,
) -> tuple[Tensor, dict]:
    """Sum over the segments of `out` of each one's `total_loss`, built as
    one `log_softmax_rows` per prediction point feeding one CTC node; the
    parts are summed the same way.  An infeasible target names its head,
    layer and segment.  `out` is dropped once the log-softmaxes are built,
    so when the caller holds no other reference its head logits are freed
    before the CTC sweep."""
    if not len(char_targets) == len(syl_targets) == len(out.lengths):
        raise ContractError(
            f"{len(out.lengths)} segments but {len(char_targets)} character and "
            f"{len(syl_targets)} syllable targets"
        )
    final = out.final_key
    keys = [final, *sorted(key for key in out.logits if key != final)]
    targets = [char_targets if level == "char" else syl_targets for level, _ in keys]
    n_inter = len(keys) - 1
    if mix_weight == 0.0 or not n_inter:
        weights = [1.0] + [0.0] * n_inter
    else:
        weights = [1.0 - mix_weight] + [mix_weight / n_inter] * n_inter
    log_probs = [dc.log_softmax_rows(out.logits[key]) for key in keys]
    lengths = out.lengths
    del out
    try:
        node, sums = ctc_node(log_probs, lengths, targets, weights)
    except ctc.InfeasibleAlignmentError as exc:
        key = keys[exc.point]
        head = "final char head" if key == final else f"{key[0]} head at layer {key[1]}"
        raise ctc.InfeasibleAlignmentError(f"{head}, {exc}") from exc
    return node, dict(zip(keys, sums))


def noam_lr(step: int, d_model: int, warmup_steps: int, factor: float) -> float:
    """Inverse-sqrt schedule with linear warmup, peaking at `warmup_steps`."""
    if step < 1:
        raise ContractError(f"schedule step must be >= 1, got {step}")
    return factor * d_model ** (-0.5) * min(step ** (-0.5), step * warmup_steps ** (-1.5))


def adam_moments(store: ParamStore) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed first and second Adam moments, flat vectors laid out as the
    store's values."""
    return np.zeros_like(store.flat), np.zeros_like(store.flat)


def _scratch(store: ParamStore) -> np.ndarray:
    """A buffer the size of the store's largest parameter: the block size of
    the optimizer's temporaries, so they never span the whole arena."""
    return np.empty(max((stop - start for _, start, stop in store.layout()), default=1))


def _check_finite_grads(store: ParamStore) -> None:
    """Raise NumericError naming the first parameter, in name order, whose
    gradient holds a non-finite value."""
    finite = np.isfinite(store.arena()[1])
    if not finite.all():
        first = int(finite.argmin())
        name = next(name for name, _, stop in store.layout() if first < stop)
        raise NumericError(f"non-finite gradient for parameter {name!r}")


def adam_step(
    store: ParamStore,
    moments: tuple[np.ndarray, np.ndarray],
    step: int,
    lr: float,
) -> None:
    """Bias-corrected Adam update, the `step`-th (from 1), over the store's
    flat arena in place, with `moments` from `adam_moments`, beta1 0.9,
    beta2 0.98 and eps 1e-8.

    All or nothing: the gradient is checked before any parameter or moment
    changes, so a non-finite gradient leaves the store and `moments` intact.
    The update runs block by block in two block-sized buffers, with the
    elementwise operations in the order of
    value -= lr * (m / c1) / (sqrt(v / c2) + eps).
    """
    _check_finite_grads(store)
    beta1, beta2, eps = 0.9, 0.98, 1e-8
    values, grads = store.arena()
    m, v = moments
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    a = _scratch(store)
    b = np.empty_like(a)
    for start in range(0, values.size, a.size):
        stop = min(start + a.size, values.size)
        g, mb, vb = grads[start:stop], m[start:stop], v[start:stop]
        ta, tb = a[: stop - start], b[: stop - start]
        mb *= beta1
        mb += np.multiply(1.0 - beta1, g, out=ta)
        vb *= beta2
        np.multiply(1.0 - beta2, g, out=ta)
        vb += np.multiply(ta, g, out=ta)
        np.divide(mb, c1, out=ta)
        ta *= lr
        np.divide(vb, c2, out=tb)
        np.sqrt(tb, out=tb)
        tb += eps
        ta /= tb
        values[start:stop] -= ta


def clip_global_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`;
    returns the norm before scaling.  The squares are summed per parameter,
    in name order.  A non-finite norm, from a non-finite gradient or from
    squares that overflow, raises NumericError and changes nothing."""
    _, grads = store.arena()
    sq = _scratch(store)
    norm = 0.0
    with np.errstate(over="ignore"):
        for _, start, stop in store.layout():
            g = grads[start:stop]
            norm += float(np.multiply(g, g, out=sq[: stop - start]).sum())
    norm = math.sqrt(norm)
    if not math.isfinite(norm):
        _check_finite_grads(store)
        raise NumericError("non-finite gradient norm: the squares of finite gradients overflow")
    if norm > max_norm > 0.0:
        grads *= max_norm / norm
    return norm


def average_checkpoints(stores: Sequence[ParamStore]) -> ParamStore:
    """Elementwise arithmetic mean of the parameter values: the flat vectors
    summed in order, divided once."""
    if not stores:
        raise ContractError("no checkpoints to average")
    shapes = stores[0].shapes()
    if any(other.shapes() != shapes for other in stores[1:]):
        raise ContractError("checkpoint parameter names or shapes do not match")
    total = stores[0].flat.copy()
    for other in stores[1:]:
        total += other.flat
    total /= len(stores)
    return ParamStore(shapes, total)


def decode_points(
    model: EncoderModel, utts: Sequence[Utterance], chunk: int, mix_weight: float | None = None
) -> tuple[list[dict[tuple[str, int], list[int]]], float, dict]:
    """Each utterance's greedy hypothesis at every prediction point, decoded
    from `ForwardOutput.logits` (softmax keeps each row's order) and keyed
    alike, from one packed forward per `chunk` utterances that records no
    graph.  With a `mix_weight`, also the summed `batch_loss` totals and
    per-point losses; without one, 0.0 and an empty dict."""
    hyps: list[dict[tuple[str, int], list[int]]] = []
    loss_sum = 0.0
    part_sums: dict = {}
    with dc.no_grad():
        for start in range(0, len(utts), chunk):
            batch = utts[start : start + chunk]
            out = model.forward_batch([u.features for u in batch])
            if mix_weight is not None:
                node, parts = batch_loss(
                    out, [u.char_ids for u in batch], [u.syl_ids for u in batch], mix_weight
                )
                loss_sum += float(node.value)
                for key, val in parts.items():
                    part_sums[key] = part_sums.get(key, 0.0) + val
            for rows in out.segments():
                hyps.append({key: ctc.greedy_decode(t.value[rows]) for key, t in out.logits.items()})
    return hyps, loss_sum, part_sums


def _error_rates(utts: Sequence[Utterance], hyps: list[dict]) -> dict[tuple[str, int], float]:
    """Corpus error rate per prediction point of `decode_points` hypotheses."""
    refs = {"char": [u.char_ids for u in utts], "syl": [u.syl_ids for u in utts]}
    keys = sorted({key for hyp in hyps for key in hyp})
    return {key: error_rate(zip(refs[key[0]], [hyp[key] for hyp in hyps])) for key in keys}


def layerwise_error_rates(
    model: EncoderModel, utts: Sequence[Utterance]
) -> dict[tuple[str, int], float]:
    """Greedy-decoding error rate per prediction point over a dataset, keyed
    as in `decode_points`, one utterance per forward."""
    return _error_rates(utts, decode_points(model, utts, 1)[0])


def _evaluate(
    model: EncoderModel, utts: Sequence[Utterance], mix_weight: float, batch_size: int
) -> tuple[float, dict[tuple[str, int], float], dict]:
    """Mean total loss, per-point error rates, and mean per-part losses in one
    `decode_points` pass over `utts`, `batch_size` utterances per forward."""
    hyps, loss_sum, part_sums = decode_points(model, utts, batch_size, mix_weight)
    part_means = {key: val / len(utts) for key, val in part_sums.items()}
    return loss_sum / len(utts), _error_rates(utts, hyps), part_means


def _inter_points(placement) -> list[tuple[str, int]]:
    """Intermediate prediction points in metrics-column order: by layer,
    then level."""
    return sorted(
        [("char", n) for n in placement.char_layers] + [("syl", n) for n in placement.syl_layers],
        key=lambda kv: (kv[1], kv[0]),
    )


def metrics_columns(placement) -> list[str]:
    cols = ["step", "lr", "loss_total", "loss_final"]
    cols += [f"loss_layer_{n}_{level}" for level, n in _inter_points(placement)]
    cols += ["cer_valid"]
    cols += [f"ser_valid_{n}" for n in sorted(placement.syl_layers)]
    return cols


def write_metrics_csv(rows: Sequence[MetricsRow], placement, path: str | Path) -> None:
    """Fixed-header CSV: step, lr, losses per layer, then validation rates.
    Written to a temporary file beside `path` and renamed over it, so `path`
    holds either its old contents or the whole new file."""
    inter = _inter_points(placement)
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(metrics_columns(placement))
        for row in rows:
            record = [row.step, repr(row.lr), repr(row.loss_total), repr(row.loss_final)]
            record += [repr(row.inter_losses[key]) for key in inter]
            record += [repr(row.cer_valid)]
            record += [repr(row.ser_valid[n]) for n in sorted(placement.syl_layers)]
            writer.writerow(record)


def _step_gradients(
    model: EncoderModel, batch: Sequence[Utterance], mix_weight: float, step: int
) -> None:
    """Forward, loss and backward of one training batch, leaving the
    gradient of the batch's mean total loss in the parameters' `.grad`.  The
    forward output is dropped once the loss is built, so when backward
    starts the step holds only what its nodes' backward functions read, and
    backward frees each node's share as it passes the node: the CTC node's
    occupancies first.  What is left of the step's graph is freed when this
    returns, before clipping, Adam, evaluation and the next step's
    forward."""
    summed, _ = batch_loss(
        model.forward_batch([u.features for u in batch]),
        [u.char_ids for u in batch], [u.syl_ids for u in batch], mix_weight,
    )
    loss = dc.scale(summed, 1.0 / len(batch))
    if not np.isfinite(loss.value):
        raise NumericError(f"non-finite loss at step {step}")
    dc.backward(loss)


@functools.cache
def _retain_freed_pages() -> None:
    """Keep the pages that a training step frees mapped for the next step.

    A step allocates and frees the same few megabytes of arrays every time.
    With glibc's defaults, arrays above the dynamic mmap threshold are
    unmapped when freed and the top of the heap is trimmed, so each step
    page-faults its working set back in.  This raises glibc's mmap threshold
    to 32 MiB and its trim threshold to 128 MiB through `mallopt`.  The
    policy is process-wide and outlives the call and the run; it runs once
    per process, and does nothing where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 128 << 20)


@dataclass
class _Checkpoint:
    step: int
    valid_loss: float
    store: ParamStore


def train(
    model: EncoderModel,
    train_set: Sequence[Utterance],
    valid_set: Sequence[Utterance],
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
    checkpoint_meta: dict | None = None,
) -> TrainResult:
    """Run the optimization loop; deterministic given the model seed and cfg.seed.

    Each step runs one forward and one backward over the batch's frames
    stacked as rows, one segment per utterance (see
    `EncoderModel.forward_batch`), so no frame padding is needed; the batch
    loss is the mean of the utterances' total losses.  Evaluation, a
    `decode_points` pass of `batch_size` utterances per forward, runs every
    `eval_interval` steps and records a metrics row and a checkpoint candidate;
    the `average_k` best checkpoints by validation total loss are averaged
    into the final parameter set.  A non-finite loss or gradient aborts the
    run, returning the last finite parameters and the error's message in
    `abort_reason`.  An `out_dir` that is not an existing directory raises
    ContractError before the first step.  Training gives `model.store` its
    flat gradient vector (`ParamStore.arena`), and the first call in a
    process sets the heap policy of `_retain_freed_pages`.
    """
    if not train_set:
        raise ContractError("training set is empty")
    if not valid_set:
        raise ContractError("validation set is empty")
    if out_dir is not None and not Path(out_dir).is_dir():
        raise ContractError(f"output directory does not exist: {out_dir}")
    _retain_freed_pages()
    rng = np.random.default_rng(cfg.seed)
    n_train = len(train_set)
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    step_budget = cfg.max_steps if cfg.max_steps else cfg.epochs * steps_per_epoch

    moments = adam_moments(model.store)
    metrics: list[MetricsRow] = []
    best: list[_Checkpoint] = []
    aborted = False
    abort_reason = ""
    step = 0

    def evaluate_now(lr: float) -> float:
        valid_loss, valid_rates, _ = _evaluate(model, valid_set, cfg.mix_weight, cfg.batch_size)
        train_loss, train_rates, train_parts = _evaluate(
            model, train_set, cfg.mix_weight, cfg.batch_size
        )
        final = ("char", model.n_layers)
        row = MetricsRow(
            step=step,
            lr=lr,
            loss_total=train_loss,
            loss_final=train_parts.pop(final),
            inter_losses=train_parts,
            cer_train=train_rates[final],
            cer_valid=valid_rates[final],
            ser_valid={n: valid_rates[("syl", n)] for n in sorted(model.placement.syl_layers)},
        )
        metrics.append(row)
        best.append(_Checkpoint(step, valid_loss, model.store.clone()))
        best.sort(key=lambda c: (c.valid_loss, c.step))
        del best[cfg.average_k :]
        # The early-stop figure: the worse training error of the two outputs.
        tops = [final]
        if model.placement.syl_layers:
            tops.append(("syl", max(model.placement.syl_layers)))
        return max(train_rates[key] for key in tops)

    # Zeroed once: each step's `backward` resets the gradients of the
    # parameters it reaches, and the others stay zero.
    model.store.zero_grad()
    done = False
    while not done:
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            step += 1
            lr = noam_lr(step, model.cfg.d_model, cfg.warmup_steps, cfg.lr_factor)
            try:
                _step_gradients(model, batch, cfg.mix_weight, step)
                clip_global_norm(model.store, cfg.grad_clip)
                # Each step makes exactly one update or aborts the run.
                adam_step(model.store, moments, step, lr)
            except NumericError as exc:
                # Divergence: stop with the last finite parameters intact.
                aborted = True
                abort_reason = str(exc)
                done = True
                break
            if step % cfg.eval_interval == 0 or step >= step_budget:
                # The run ends only after an evaluation, or on abort.
                train_error = evaluate_now(lr)
                target = cfg.early_stop_train_cer
                if step >= step_budget or (target is not None and train_error <= target):
                    done = True
                    break

    if not best:
        # Aborted before the first evaluation: keep the last finite parameters.
        best.append(_Checkpoint(step, math.inf, model.store.clone()))
    averaged = average_checkpoints([c.store for c in best])

    if out_dir is not None:
        out = Path(out_dir)
        write_metrics_csv(metrics, model.placement, out / "metrics.csv")
        for cp in best:
            model.with_store(cp.store).save(
                out / f"checkpoint_{cp.step:06d}.ntc", extra_meta=checkpoint_meta
            )
        model.with_store(averaged).save(out / "model_avg.ntc", extra_meta=checkpoint_meta)

    return TrainResult(
        metrics=metrics,
        best_checkpoints=[(c.step, c.valid_loss) for c in best],
        averaged_store=averaged,
        aborted=aborted,
        steps_run=step,
        abort_reason=abort_reason,
    )
