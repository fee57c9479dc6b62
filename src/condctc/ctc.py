"""CTC loss via log-domain forward-backward: the batched loss on
log-probabilities that training uses, the per-utterance loss on probabilities
with its analytic gradient, greedy decoding, and an exhaustive
path-enumeration oracle for tests."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .labels import BLANK_ID, InvalidTokenError

# Probabilities are floored before the log so a softmax underflow cannot
# poison the lattice with -inf.
PROB_FLOOR = 1e-30
ORACLE_MAX_PATHS = 1_000_000


class InfeasibleAlignmentError(ValueError):
    """The target cannot be aligned within the frame count (loss would be +inf).

    `ctc_loss_batch` sets `point` to the index of the prediction point whose
    lattice failed; the message names the segment.
    """

    point: int | None = None


class OracleSizeError(ValueError):
    """Brute-force path enumeration would exceed the path budget."""


@dataclass
class CtcResult:
    """Loss in nats, gradient w.r.t. the probability matrix, and the
    log-domain DP tables over the blank-extended label lattice."""

    loss: float
    grad: np.ndarray
    log_alpha: np.ndarray
    log_beta: np.ndarray


def _check_probs(probs: np.ndarray) -> np.ndarray:
    z = np.asarray(probs, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got shape {z.shape}")
    if z.shape[0] < 1 or z.shape[1] < 2:
        raise ValueError(f"probability matrix needs >=1 frame and >=2 classes, got {z.shape}")
    return z


def _check_target(target: Sequence[int], n_classes: int) -> list[int]:
    out = []
    for idx in target:
        i = int(idx)
        if not 1 <= i < n_classes:
            raise InvalidTokenError(f"target id {i} not in [1, {n_classes - 1}]")
        out.append(i)
    return out


def min_frames(target: Sequence[int]) -> int:
    """Minimum frame count that can realize the target: length plus one forced
    blank per adjacent repeated label."""
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def extended_labels(target: Sequence[int]) -> np.ndarray:
    """Blank-interleaved label lattice: blank at both ends and between labels."""
    ext = np.full(2 * len(target) + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = target
    return ext


def ctc_loss(probs: np.ndarray, target: Sequence[int]) -> CtcResult:
    """Negative log-likelihood of `target` under per-frame posteriors `probs`.

    Marginalizes over every frame-level path that collapses to the target,
    using the standard forward-backward recursion over the blank-extended
    lattice.  The gradient w.r.t. each probability entry is recombined from
    the alpha/beta occupancies, so no graph framework is needed here.
    """
    z = _check_probs(probs)
    t_frames, n_classes = z.shape
    y = _check_target(target, n_classes)
    need = min_frames(y)
    if t_frames < need:
        raise InfeasibleAlignmentError(
            f"target of length {len(y)} needs at least {need} frames, got {t_frames}"
        )

    logz = np.log(np.maximum(z, PROB_FLOOR))
    ext = extended_labels(y)
    s_len = ext.size
    em = logz[:, ext]  # (T, S) per-frame log-prob of each lattice state

    allow_skip = np.zeros(s_len, dtype=bool)
    if s_len > 2:
        allow_skip[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])

    # alpha includes the emission at t; beta is the suffix mass from t+1 on.
    log_alpha = np.full((t_frames, s_len), -np.inf)
    log_alpha[0, 0] = em[0, 0]
    if s_len > 1:
        log_alpha[0, 1] = em[0, 1]
    for t in range(1, t_frames):
        prev = log_alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        if s_len > 2:
            acc[2:] = np.logaddexp(acc[2:], np.where(allow_skip[2:], prev[:-2], -np.inf))
        log_alpha[t] = acc + em[t]

    if s_len == 1:
        log_p = log_alpha[-1, -1]
    else:
        log_p = np.logaddexp(log_alpha[-1, -1], log_alpha[-1, -2])

    log_beta = np.full((t_frames, s_len), -np.inf)
    log_beta[-1, -1] = 0.0
    if s_len > 1:
        log_beta[-1, -2] = 0.0
    for t in range(t_frames - 2, -1, -1):
        nxt = log_beta[t + 1] + em[t + 1]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(acc[:-1], nxt[1:])
        if s_len > 2:
            acc[:-2] = np.logaddexp(acc[:-2], np.where(allow_skip[2:], nxt[2:], -np.inf))
        log_beta[t] = acc

    # alpha_t(s) * beta_t(s) is the probability of all paths through state s
    # at frame t; summing per emitted class and dividing by z gives the grad.
    # Normalizing by log_p first keeps the exponentials in [0, 1].
    occupancy = np.exp(log_alpha + log_beta - log_p)
    indicator = np.zeros((s_len, n_classes))
    indicator[np.arange(s_len), ext] = 1.0
    grad = -(occupancy @ indicator) / np.maximum(z, PROB_FLOOR)
    grad += 0.0  # normalize -0.0 entries

    return CtcResult(loss=float(-log_p), grad=grad, log_alpha=log_alpha, log_beta=log_beta)


@dataclass
class CtcBatchResult:
    """Loss of each (prediction point, segment) lattice, and per point the
    gradient of its summed loss w.r.t. its log-probabilities: minus the
    alpha/beta occupancy of each class at each frame.  `grads` is None when
    only the losses were asked for."""

    losses: np.ndarray  # (n_points, n_segments)
    grads: list[np.ndarray] | None  # one per point, shaped like its log-probabilities


# The most negative finite float64: raising a shift to it changes no finite
# shift.
_SHIFT_FLOOR = np.finfo(np.float64).min


def _logsumexp3(a: np.ndarray, b: np.ndarray, c: np.ndarray, out: np.ndarray,
                top: np.ndarray, term: np.ndarray) -> None:
    """log(exp(a) + exp(b) + exp(c)) into `out`, working in `top` and
    `term`, each of `out`'s size; `c` may be none of them."""
    np.maximum(a, b, out=top)
    np.maximum(top, c, out=top)
    # all three are -inf: a finite shift keeps exp() at 0, so log() gives -inf
    np.maximum(top, _SHIFT_FLOOR, out=top)
    np.exp(np.subtract(a, top, out=out), out=out)
    out += np.exp(np.subtract(b, top, out=term), out=term)
    out += np.exp(np.subtract(c, top, out=term), out=term)
    np.log(out, out=out)
    out += top


def _prefix_positions(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[0]-1, 0, 1, ..., counts[1]-1, ...: each element's
    position within its run, for consecutive runs of `counts` elements."""
    ends = np.cumsum(counts)
    positions = np.arange(ends[-1])
    positions -= np.repeat(ends - counts, counts)
    return positions


def _log_alpha(
    em: np.ndarray, ext: np.ndarray, state: np.ndarray, running: list[int], offsets: list[int]
) -> None:
    """Forward recursion of many lattices at once, one step per frame, in
    place: `em` goes in holding each cell's emission and comes out holding
    its log-alpha, which includes the emission at t.

    The lattices lie side by side along the columns: two guard columns, then
    one column per state.  At frame t only the first `running[t]` columns are
    still running (at frame 0, all of them), and only those are stored:
    frame t's row is the `running[t]` entries of `em` from `offsets[t]` on.
    `em` holds each cell's log-probability of its column's state, -inf on
    the guards, which so stay -inf and keep the one- and two-state moves,
    plain column shifts, inside a lattice.  `ext` and `state` give each
    column's label and state index.  Frame 0's cells past each lattice's
    first two states are set to -inf; each later frame adds its
    logsumexp over the previous frame's log-alpha into its emissions.
    """
    # The masks, and each frame's temporaries, live in buffers of the widest
    # frame, so a frame allocates nothing: numpy keeps small freed buffers
    # where they were allocated, and buffers of every running width would be
    # pinned all over the heap that later steps reuse.
    n = ext.size
    mask, flag = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    np.greater_equal(state, 2, out=mask)
    np.copyto(em[:n], -np.inf, where=mask)
    skip = np.full(n, -np.inf)
    mask[2:] &= np.not_equal(ext[2:], BLANK_ID, out=flag[2:])
    mask[2:] &= np.not_equal(ext[2:], ext[:-2], out=flag[2:])
    np.copyto(skip[2:], 0.0, where=mask[2:])
    c, lse, top, term = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for t in range(1, len(running)):
        w, start = running[t], offsets[t]
        prev = em[offsets[t - 1] :]
        m = w - 2
        np.add(prev[:m], skip[2:w], out=c[:m])
        _logsumexp3(prev[2:w], prev[1 : w - 1], c[:m], lse[:m], top[:m], term[:m])
        em[start + 2 : start + w] += lse[:m]


def ctc_loss_batch(
    log_probs: Sequence[np.ndarray],
    lengths: Sequence[int],
    targets: Sequence[Sequence[Sequence[int]]],
    with_grads: bool = True,
) -> CtcBatchResult:
    """CTC negative log-likelihoods of every (prediction point, segment)
    lattice in one log-domain forward-backward sweep.

    `log_probs[p]` is point p's (rows, classes) matrix of finite per-frame
    log-probabilities, its rows split into segments of `lengths`;
    `targets[p][i]` is segment i's target at point p.  The states of all
    lattices lie side by side in one row that advances one frame per step,
    each lattice stopping at its own last frame; only the cells of lattices
    still running are stored, so the sweep's memory follows the frames of
    each lattice, not the longest one's times the number of lattices.  The
    backward pass is the forward recursion over each lattice reversed in
    time and in state order, run in the same sweep.  The sweep holds one
    array of cells, the emissions that log-alpha overwrites, and with
    gradients each point's cell positions and matrix entries, as int32
    where they fit and each dropped once its point's gradient is made.  No
    probability floor applies.  Matches `ctc_loss` on `exp(log_probs)` rows
    wherever no probability falls below its floor.  An infeasible target
    raises InfeasibleAlignmentError with `point` set.  With `with_grads`
    False the sweep runs the forward lattices alone and returns no
    gradients; each lattice's columns are computed elementwise, so the
    losses are bitwise the same either way.
    """
    sizes = [int(n) for n in lengths]
    if not sizes or min(sizes) < 1:
        raise ValueError(f"segment lengths must be >= 1, got {sizes}")
    if len(log_probs) != len(targets):
        raise ValueError(f"{len(log_probs)} log-probability matrices but {len(targets)} target lists")
    rows = sum(sizes)
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    mats = [np.asarray(m, dtype=np.float64) for m in log_probs]

    # One entry per lattice, point-major: its point, extended labels, first
    # row and frames.  Each distinct (target, class count) is checked and
    # extended once, as points of one head share their targets.
    exts: list[np.ndarray] = []
    points, firsts, frames = [], [], []
    labelled: dict[tuple, tuple[np.ndarray, int]] = {}
    for p, (mat, point_targets) in enumerate(zip(mats, targets)):
        if mat.ndim != 2 or mat.shape[0] != rows or mat.shape[1] < 2:
            raise ValueError(
                f"log-probability matrix {p} must be ({rows}, >=2), got shape {mat.shape}"
            )
        if len(point_targets) != len(sizes):
            raise ValueError(f"point {p}: {len(point_targets)} targets for {len(sizes)} segments")
        n_classes = mat.shape[1]
        for i, (start, n, target) in enumerate(zip(starts, sizes, point_targets)):
            key = (tuple(target), n_classes)
            if key not in labelled:
                y = _check_target(target, n_classes)
                labelled[key] = extended_labels(y), min_frames(y)
            ext, need = labelled[key]
            if n < need:
                err = InfeasibleAlignmentError(f"segment {i}: target of length {ext.size // 2} "
                                               f"needs at least {need} frames, got {n}")
                err.point = p
                raise err
            exts.append(ext)
            points.append(p)
            firsts.append(start)
            frames.append(n)

    # The sweep: lattices longest first, each followed, when gradients are
    # asked for, by its reversal (labels and frames in reverse order), so the
    # lattices still running at a frame are a prefix of the columns.  A
    # reversal's log-alpha at (T-1-t, S-1-s) is its lattice's log-beta at
    # (t, s) plus the emission at t.
    order = np.argsort(-np.array(frames), kind="stable")
    lanes = 2 if with_grads else 1  # lanes per lattice
    lane_ext = [e for b in order for e in (exts[b], exts[b][::-1])[:lanes]]
    lane_t = np.repeat(np.array(frames)[order], lanes)
    widths = np.array([e.size + 2 for e in lane_ext])
    width = int(widths.sum())
    first_col = np.cumsum(widths) - widths
    lane = np.repeat(np.arange(widths.size), widths)
    state = np.arange(width) - first_col[lane] - 2  # -2 and -1 on the guards
    ext = np.zeros(width, dtype=np.int64)
    forward = np.greater_equal(state, 0)  # the state columns; below, of forward lanes only
    ext[forward] = np.concatenate(lane_ext)
    t_max = int(lane_t[0])
    running = np.append(first_col, width)[np.searchsorted(-lane_t, -np.arange(t_max))]
    offsets = np.cumsum(running) - running  # frame t's cells start at offsets[t]

    # Forward cell (t, c) reads entry base[c] + t * classes of its point's
    # flattened matrix.  Its mirror, the cell of the reversal at frame T-1-t
    # and state S-1-s, reads the same entry.  The cells are handled point by
    # point, frame by frame in column order: a point's forward columns still
    # running at frame t are a prefix of them too.
    lane_point = np.repeat(np.asarray(points)[order], lanes)
    base = np.repeat(np.asarray(firsts)[order], lanes)
    base *= np.array([m.shape[1] for m in mats])[lane_point]
    base = base[lane] + ext
    mask = np.empty(width, dtype=bool)  # each mask of one point's columns in turn
    forward &= np.equal(lane % lanes, 0, out=mask)
    col_point, point_cols = lane_point[lane], []
    for p in range(len(mats)):
        np.equal(col_point, p, out=mask)
        point_cols.append(np.flatnonzero(np.logical_and(mask, forward, out=mask)))
    if with_grads:
        last_frame = lane_t[lane] - 1
        mirror_col = first_col[lane ^ 1] + widths[lane] - 1 - state
    em = np.full(int(offsets[-1] + running[-1]), -np.inf)  # the emissions, then log-alpha
    # Each point's cells are kept for the gradients as int32 where every
    # position and entry fits, which halves what the sweep holds.
    kept = np.int32 if max(em.size, *(m.size for m in mats)) < 2**31 else np.intp

    def fill(p: int) -> tuple[np.ndarray, ...] | None:
        """Write point p's emissions into `em` at its running forward cells
        and, with gradients, at their mirrors.  With gradients, returns the
        point's forward columns running at each frame, and its running
        forward cells' sweep positions, matrix entries and mirrors' sweep
        positions, frame by frame in column order."""
        mat, cols = mats[p], point_cols[p]
        counts = np.searchsorted(cols, running)
        index = _prefix_positions(counts)  # of each cell's column in cols
        frame = np.repeat(np.arange(t_max), counts)
        cell = np.repeat(offsets, counts)
        cell += cols[index]
        src = frame * mat.shape[1]
        src += base[cols][index]
        em[cell] = emission = np.take(mat, src)
        if not with_grads:
            return None
        mirror = last_frame[cols][index]
        mirror -= frame
        mirror = offsets[mirror]
        mirror += mirror_col[cols][index]
        em[mirror] = emission
        return counts, cell.astype(kept), src.astype(kept), mirror.astype(kept)

    with np.errstate(divide="ignore"):
        point_cells = [fill(p) for p in range(len(mats))]
        _log_alpha(em, ext, state, running.tolist(), offsets.tolist())
        alpha = em  # in the emissions' buffer
        fwd = np.arange(0, widths.size, lanes)
        last_col = first_col[fwd] + widths[fwd] - 1  # the guard before a 1-state lattice is -inf
        last = offsets[lane_t[fwd] - 1] + last_col
        log_p = np.logaddexp(alpha[last], alpha[last - 1])
        losses = np.empty(order.size)
        losses[order] = -log_p
        losses = losses.reshape(len(mats), len(sizes))
        if not with_grads:
            return CtcBatchResult(losses=losses, grads=None)
        # Occupancy of each forward cell: its log-alpha plus its mirror's,
        # less the emission counted twice and the lattice's log-probability.
        log_p = log_p[lane // 2]
        grads = []
        for p, (mat, cols) in enumerate(zip(mats, point_cols)):
            # Each point's cells are dropped as soon as its gradient is made.
            (counts, cell, src, mirror), point_cells[p] = point_cells[p], None
            expo = np.take(alpha, cell)
            expo += np.take(alpha, mirror)
            expo -= np.take(mat, src)
            expo -= log_p[cols][_prefix_positions(counts)]
            occupancy = np.exp(expo, out=expo)
            grad = np.bincount(src, weights=occupancy, minlength=mat.size)
            np.subtract(0.0, grad, out=grad)  # negate, keeping zeros +0.0
            grads.append(grad.reshape(mat.shape))
    return CtcBatchResult(losses=losses, grads=grads)


def greedy_decode(probs: np.ndarray) -> list[int]:
    """Collapse of the per-frame argmax path; ties break toward the lowest id.

    Adjacent repeats of the path are merged, then blanks are removed, so
    (a, a, blank, a) decodes to (a, a): a frame's id is kept when it is not
    blank and differs from the previous frame's."""
    z = _check_probs(probs)
    best = np.argmax(z, axis=1)
    keep = best != BLANK_ID
    keep[1:] &= best[1:] != best[:-1]
    return best[keep].tolist()


def brute_force_loss(probs: np.ndarray, target: Sequence[int]) -> float:
    """Direct evaluation of the CTC objective by enumerating every path.

    Sums the product of per-frame probabilities over each path whose collapse
    equals the target.  Independent of the forward-backward recursion; used
    as the test oracle.  Returns +inf when no path realizes the target.
    """
    z = _check_probs(probs)
    t_frames, n_classes = z.shape
    y = np.asarray(_check_target(target, n_classes), dtype=np.int64)
    n_paths = n_classes**t_frames
    if n_paths > ORACLE_MAX_PATHS:
        raise OracleSizeError(f"{n_classes}^{t_frames} paths exceed budget {ORACLE_MAX_PATHS}")

    paths = np.stack(
        np.unravel_index(np.arange(n_paths), (n_classes,) * t_frames), axis=1
    )  # (n_paths, T)
    path_prob = z[np.arange(t_frames), paths].prod(axis=1)

    changed = np.ones_like(paths, dtype=bool)
    changed[:, 1:] = paths[:, 1:] != paths[:, :-1]
    keep = changed & (paths != BLANK_ID)
    hits = keep.sum(axis=1) == y.size
    if y.size:
        cand = paths[hits]
        collapsed = cand[keep[hits]].reshape(-1, y.size)
        hit_prob = path_prob[hits][(collapsed == y).all(axis=1)]
    else:
        hit_prob = path_prob[hits]
    total = hit_prob.sum()
    if total <= 0.0:
        return math.inf
    return float(-np.log(total))
