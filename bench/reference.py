"""Reference computation kept apart from the program, and the output checks.

A plain-numpy encoder forward that reads parameters by name, a
probability-space CTC forward recursion with per-frame scaling, and a
Levenshtein distance.  Nothing here imports `condctc.encoder`,
`condctc.diffcore` or `condctc.ctc`, so a fault in the program's tape, ops or
log-domain CTC cannot hide in the reference that checks it.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

Params = Mapping[str, np.ndarray]

# The N=6, 4-head encoder of every workload (`ModelConfig()` defaults), and
# its placements, expanded by hand from the paper's 18-layer layouts
# (alternate: char 6,12 and syllable 3,9,15, scaled by 6/18).
N_LAYERS = 6
N_HEADS = 4
LN_EPS = 1e-5
PLACEMENTS = {
    "alternate": {"char": (2, 4), "syl": (1, 3, 5), "condition": True},
    "baseline": {"char": (), "syl": (), "condition": False},
}


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    centred = x - x.mean(axis=1, keepdims=True)
    var = (centred * centred).mean(axis=1, keepdims=True)
    return centred / np.sqrt(var + LN_EPS) * gain + bias


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _swish(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _positions(n_rows: int, dim: int) -> np.ndarray:
    pe = np.zeros((n_rows, dim))
    for pos in range(n_rows):
        for i in range(0, dim, 2):
            angle = pos / 10000.0 ** (i / dim)
            pe[pos, i] = math.sin(angle)
            if i + 1 < dim:
                pe[pos, i + 1] = math.cos(angle)
    return pe


def _block(x: np.ndarray, p: Params, layer: int) -> np.ndarray:
    b = f"block{layer:02d}"
    h = _layer_norm(x, p[f"{b}.attn_ln.gain"], p[f"{b}.attn_ln.bias"])
    q = h @ p[f"{b}.attn.wq"] + p[f"{b}.attn.bq"]
    k = h @ p[f"{b}.attn.wk"] + p[f"{b}.attn.bk"]
    v = h @ p[f"{b}.attn.wv"] + p[f"{b}.attn.bv"]
    d_head = q.shape[1] // N_HEADS
    heads = []
    for i in range(N_HEADS):
        cols = slice(i * d_head, (i + 1) * d_head)
        weights = _softmax(q[:, cols] @ k[:, cols].T / math.sqrt(d_head))
        heads.append(weights @ v[:, cols])
    x = x + np.concatenate(heads, axis=1) @ p[f"{b}.attn.wo"] + p[f"{b}.attn.bo"]

    h = _layer_norm(x, p[f"{b}.conv_ln.gain"], p[f"{b}.conv_ln.bias"])
    kernel = p[f"{b}.conv.depth"]
    half = kernel.shape[0] // 2
    padded = np.vstack([np.zeros((half, h.shape[1])), h, np.zeros((half, h.shape[1]))])
    mixed = sum(kernel[j] * padded[j : j + h.shape[0]] for j in range(kernel.shape[0]))
    x = x + _swish(mixed) @ p[f"{b}.conv.point.w"] + p[f"{b}.conv.point.b"]

    h = _layer_norm(x, p[f"{b}.ffn_ln.gain"], p[f"{b}.ffn_ln.bias"])
    hidden = _swish(h @ p[f"{b}.ffn.w1"] + p[f"{b}.ffn.b1"])
    return x + hidden @ p[f"{b}.ffn.w2"] + p[f"{b}.ffn.b2"]


def forward(p: Params, features: np.ndarray, strategy: str) -> dict:
    """Final and intermediate posteriors of the `strategy` placement:
    {"final": (T, C), ("char", n): ..., ("syl", n): ...}.  Posteriors of
    layer n feed block n+1 when the placement conditions; the final head
    reads the last block directly."""
    placement = PLACEMENTS[strategy]
    x = features @ p["input.w"] + p["input.b"]
    x = x + _positions(features.shape[0], x.shape[1])
    out: dict = {}
    for layer in range(1, N_LAYERS + 1):
        x = _block(x, p, layer)
        feedback = []
        if layer in placement["char"]:
            out[("char", layer)] = _softmax(x @ p["char_head.w"] + p["char_head.b"])
            feedback.append(out[("char", layer)] @ p["char_cond.w"] + p["char_cond.b"])
        if layer in placement["syl"]:
            out[("syl", layer)] = _softmax(x @ p["syl_head.w"] + p["syl_head.b"])
            feedback.append(out[("syl", layer)] @ p["syl_cond.w"] + p["syl_cond.b"])
        if placement["condition"] and layer < N_LAYERS:
            for f in feedback:
                x = x + f
    out["final"] = _softmax(x @ p["char_head.w"] + p["char_head.b"])
    return out


def ctc_nll(probs: np.ndarray, target: Sequence[int]) -> float:
    """-log P(target | probs) by the forward recursion in probability space,
    rescaling alpha to sum 1 at every frame (blank is class 0)."""
    ext = [0]
    for label in target:
        ext += [int(label), 0]
    ext = np.asarray(ext)
    skip = np.zeros(len(ext), dtype=bool)
    skip[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    alpha = np.zeros(len(ext))
    alpha[:2] = probs[0, ext[:2]]
    log_scale = 0.0
    for t in range(probs.shape[0]):
        if t > 0:
            prev = alpha
            alpha = prev.copy()
            alpha[1:] += prev[:-1]
            alpha[2:] += np.where(skip[2:], prev[:-2], 0.0)
            alpha *= probs[t, ext]
        total = alpha.sum()
        if total <= 0.0:
            return math.inf
        alpha /= total
        log_scale += math.log(total)
    end = alpha[-1] + (alpha[-2] if len(ext) > 1 else 0.0)
    return -(log_scale + math.log(end)) if end > 0.0 else math.inf


def total_loss(post: dict, char_ids: Sequence[int], syl_ids: Sequence[int], mix: float) -> float:
    """(1 - mix) * final loss + mix * mean of the intermediate losses."""
    final = ctc_nll(post["final"], char_ids)
    inter = [ctc_nll(z, char_ids if key[0] == "char" else syl_ids)
             for key, z in post.items() if key != "final"]
    if mix == 0.0 or not inter:
        return final
    return (1.0 - mix) * final + mix * sum(inter) / len(inter)


def mean_loss(p: Params, utts: Sequence, strategy: str, mix: float) -> float:
    """Mean total loss over utterances (anything with features/char_ids/syl_ids)."""
    losses = [total_loss(forward(p, u.features, strategy), u.char_ids, u.syl_ids, mix)
              for u in utts]
    return sum(losses) / len(losses)


def greedy(probs: np.ndarray) -> list[int]:
    out, prev = [], None
    for idx in np.argmax(probs, axis=1).tolist():
        if idx != prev and idx != 0:
            out.append(idx)
        prev = idx
    return out


def levenshtein(ref: Sequence, hyp: Sequence) -> int:
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        prev_diag, row[0] = row[0], i
        for j, h in enumerate(hyp, 1):
            prev_diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev_diag + (r != h))
    return row[-1]


def corpus_error_rate(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    return sum(levenshtein(r, h) for r, h in pairs) / sum(len(r) for r, _ in pairs)


# -- output checks -------------------------------------------------------------
# Each returns a list of failure messages; an empty list means the check held.


def check_close(name: str, got: float, want: float, rel: float) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= rel * max(abs(want), 1e-300):
        return []
    return [f"{name}: program {got!r} vs reference {want!r} (rel tol {rel:g})"]


def check_gradient(p: dict, grads: Params, loss_fn, n_entries: int, rng: np.random.Generator,
                   eps: float = 1e-5, tol: float = 1e-6) -> list[str]:
    """Central differences of the reference loss `loss_fn(p)` against the
    program's gradient on `n_entries` sampled (parameter, index) pairs."""
    names = sorted(grads)
    failures = []
    for _ in range(n_entries):
        name = names[int(rng.integers(len(names)))]
        flat = p[name].reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn(p)
        flat[i] = orig - eps
        lo = loss_fn(p)
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * eps)
        analytic = float(grads[name].reshape(-1)[i])
        if abs(analytic - numeric) > tol * max(1.0, abs(analytic), abs(numeric)):
            failures.append(f"gradient {name}[{i}]: program {analytic!r} vs central "
                            f"difference {numeric!r}")
    return failures


def check_posteriors(got: dict, want: dict, tol: float) -> list[str]:
    if sorted(map(str, got)) != sorted(map(str, want)):
        return [f"prediction points differ: {sorted(map(str, got))} vs {sorted(map(str, want))}"]
    return [f"posteriors {key}: max abs difference {np.abs(got[key] - want[key]).max():.3e}"
            for key in want if not np.abs(got[key] - want[key]).max() <= tol]


def check_hypothesis(hyp: Sequence[int], probs: np.ndarray, tol: float) -> list[str]:
    """The hypothesis must be the collapsed argmax path of the reference
    posteriors; a difference is excused only when some frame's two best
    classes lie within `tol` of each other."""
    if list(hyp) == greedy(probs):
        return []
    top2 = np.sort(probs, axis=1)[:, -2:]
    if (top2[:, 1] - top2[:, 0] <= tol).any():
        return []
    return [f"hypothesis {list(hyp)} != collapsed reference argmax {greedy(probs)}"]


def check_printed_rate(name: str, printed: float, pairs, decimals: int = 6) -> list[str]:
    """A rate printed with `decimals` digits must round from our own rate."""
    own = corpus_error_rate(pairs)
    if abs(printed - own) <= 0.5 * 10.0**-decimals + 1e-12:
        return []
    return [f"{name}: printed {printed} vs own edit-distance rate {own!r}"]
