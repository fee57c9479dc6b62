"""Stacked pre-norm encoder blocks with shared character/syllable prediction
heads and additive feedback of intermediate posteriors into the next block."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ContractError, FormatError, NumericError, ParamStore, ShapeError, Tensor

# Reference placements at the 18-layer depth, per strategy:
# (char layers, syllable layers, feedback on).  The final layer always carries
# the main character output and never appears in the char set.
_REFERENCE_DEPTH = 18
_STRATEGIES: dict[str, tuple[tuple[int, ...], tuple[int, ...], bool]] = {
    "baseline": ((), (), False),
    "multitask": ((), (15,), False),
    "interctc": ((3, 6, 9, 12, 15), (), False),
    "selfcond": ((3, 6, 9, 12, 15), (), True),
    "parallel": ((6, 12), (6, 12, 18), True),
    "hierarchical": ((12, 15), (3, 6, 9), True),
    "alternate": ((6, 12), (3, 9, 15), True),
}


def strategy_names() -> list[str]:
    return sorted(_STRATEGIES)


def _scale_layers(layers: tuple[int, ...], n_layers: int, top: int) -> frozenset[int]:
    # Rescale reference indices to another depth: multiply by n/18, round to
    # nearest, clamp into [1, top], dedupe.
    out = set()
    for idx in layers:
        scaled = math.floor(idx * n_layers / _REFERENCE_DEPTH + 0.5)
        if top >= 1:
            out.add(min(max(scaled, 1), top))
    return frozenset(out)


@dataclass(frozen=True)
class PlacementConfig:
    """Which layers carry intermediate predictions and whether they feed back."""

    n_layers: int
    char_layers: frozenset[int] = frozenset()
    syl_layers: frozenset[int] = frozenset()
    condition: bool = False
    strategy: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "char_layers", frozenset(self.char_layers))
        object.__setattr__(self, "syl_layers", frozenset(self.syl_layers))
        if self.n_layers < 1:
            raise ContractError(f"n_layers must be >= 1, got {self.n_layers}")
        bad = [n for n in self.char_layers | self.syl_layers if not 1 <= n <= self.n_layers]
        if bad:
            raise ContractError(f"layer indices {sorted(bad)} outside [1, {self.n_layers}]")
        if self.n_layers in self.char_layers:
            raise ContractError(
                f"layer {self.n_layers} carries the main character output and "
                "cannot also be an intermediate character layer"
            )

    @classmethod
    def from_strategy(cls, strategy: str, n_layers: int = _REFERENCE_DEPTH) -> "PlacementConfig":
        """Expand a named strategy to its exact layer sets at depth `n_layers`."""
        try:
            chars, syls, condition = _STRATEGIES[strategy]
        except KeyError:
            raise ContractError(
                f"unknown strategy {strategy!r}; expected one of {strategy_names()}"
            ) from None
        return cls(
            n_layers=n_layers,
            char_layers=_scale_layers(chars, n_layers, n_layers - 1),
            syl_layers=_scale_layers(syls, n_layers, n_layers),
            condition=condition,
            strategy=strategy,
        )

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "char_layers": sorted(self.char_layers),
            "syl_layers": sorted(self.syl_layers),
            "condition": self.condition,
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PlacementConfig":
        """Inverse of `to_dict`.  Each field must have the JSON type that
        `to_dict` writes: an int (not a bool) for `n_layers`, lists of such
        ints for the layer sets, a bool for `condition` and a string for
        `strategy` (which may be absent); anything else raises ContractError."""
        fields = {key: d[key] for key in ("n_layers", "char_layers", "syl_layers", "condition")}
        fields["strategy"] = d.get("strategy", "custom")

        def int_list(v) -> bool:
            return type(v) is list and all(type(i) is int for i in v)

        valid = {
            "n_layers": type(fields["n_layers"]) is int,
            "char_layers": int_list(fields["char_layers"]),
            "syl_layers": int_list(fields["syl_layers"]),
            "condition": type(fields["condition"]) is bool,
            "strategy": type(fields["strategy"]) is str,
        }
        wrong = {key: fields[key] for key, ok in valid.items() if not ok}
        if wrong:
            raise ContractError(f"placement fields of the wrong JSON type: {wrong}")
        return cls(**fields)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the encoder stack."""

    d_in: int = 16
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    conv_kernel: int = 7

    def __post_init__(self) -> None:
        not_ints = {key: v for key, v in asdict(self).items() if type(v) is not int}
        if not_ints:
            raise ContractError(f"sizes must be ints, got {not_ints}")
        if min(self.d_in, self.d_ff) < 1:
            raise ContractError(f"d_in and d_ff must be >= 1, got {self.d_in} and {self.d_ff}")
        if min(self.d_model, self.n_heads) < 1 or self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model {self.d_model} must be a positive multiple of n_heads {self.n_heads}"
            )
        if self.conv_kernel % 2 != 1 or self.conv_kernel < 1:
            raise ContractError(f"conv_kernel must be odd and >= 1, got {self.conv_kernel}")


# Keys that checkpoints of earlier versions carry in the header's `model`
# block, each with the one value the encoder still implements.
_RETIRED_MODEL_KEYS = {"use_pos_enc": True, "cond_layer_norm": False, "ln_eps": dc.LN_EPS}


def _model_config(header: Mapping) -> ModelConfig:
    fields = dict(header)
    for key, kept in _RETIRED_MODEL_KEYS.items():
        value = fields.pop(key, kept)
        if type(value) is not type(kept) or value != kept:
            raise ValueError(f"retired key {key!r} is {value!r}; only {kept!r} still loads")
    return ModelConfig(**fields)


@dataclass
class ForwardOutput:
    """Head logits at every prediction point, and the posteriors that feed
    later blocks.

    Each matrix stacks the rows of the input segments in order; `lengths`
    holds the segments' frame counts.  `logits` is keyed (level, layer) for
    every prediction point, the final output included as the character point
    of the last layer (`final_key`).  `char_inters` and `syl_inters` hold the
    softmax of each intermediate point's logits by layer, as the next block
    reads them.  The final posteriors feed nothing: `final` makes them the
    first time it is read (the loss and greedy decoding read the logits).
    """

    char_inters: dict[int, Tensor]
    syl_inters: dict[int, Tensor]
    lengths: tuple[int, ...]
    logits: dict[tuple[str, int], Tensor]

    @property
    def final_key(self) -> tuple[str, int]:
        """The top character point: no intermediate one sits on the last block."""
        return max(key for key in self.logits if key[0] == "char")

    @functools.cached_property
    def final(self) -> Tensor:
        return dc.softmax_rows(self.logits[self.final_key])

    def segments(self) -> list[slice]:
        """Row range of each segment, in input order."""
        bounds = itertools.pairwise(itertools.accumulate(self.lengths, initial=0))
        return [slice(start, stop) for start, stop in bounds]


def sinusoidal_positions(n_rows: int, dim: int) -> np.ndarray:
    """Absolute sine/cosine position code added to the projected input."""
    pos = np.arange(n_rows, dtype=np.float64)[:, None]
    i = np.arange(0, dim, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, i / dim)
    pe = np.zeros((n_rows, dim))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)[:, : dim // 2]
    return pe


class EncoderModel:
    """N residual blocks (attention, depthwise conv mixing, feed-forward, each
    pre-normalized) plus the shared output heads and conditioning projections."""

    def __init__(
        self,
        cfg: ModelConfig,
        placement: PlacementConfig,
        char_vocab_size: int,
        syl_vocab_size: int,
        seed: int = 0,
        store: ParamStore | None = None,
    ):
        if char_vocab_size < 2 or syl_vocab_size < 2:
            raise ContractError("vocabulary sizes must include the blank and one label")
        self.cfg = cfg
        self.placement = placement
        self.char_vocab_size = char_vocab_size
        self.syl_vocab_size = syl_vocab_size
        self.store = store if store is not None else self._init_store(seed)
        # Read-only position table, grown to the longest segment seen so far.
        self._positions = np.empty((0, cfg.d_model))

    # -- parameters ---------------------------------------------------------

    def _param_spec(self) -> Iterator[tuple[str, tuple[int, ...], float | None]]:
        """(name, shape, fill) of every parameter, in the order `_init_store`
        draws them; a fill of None means a Glorot-uniform draw."""
        cfg = self.cfg
        d = cfg.d_model
        yield "input.w", (cfg.d_in, d), None
        yield "input.b", (d,), 0.0
        for layer in range(1, self.placement.n_layers + 1):
            p = f"block{layer:02d}"
            yield f"{p}.attn_ln.gain", (d,), 1.0
            yield f"{p}.attn_ln.bias", (d,), 0.0
            for proj in ("wq", "wk", "wv", "wo"):
                yield f"{p}.attn.{proj}", (d, d), None
            for b in ("bq", "bk", "bv", "bo"):
                yield f"{p}.attn.{b}", (d,), 0.0
            yield f"{p}.conv_ln.gain", (d,), 1.0
            yield f"{p}.conv_ln.bias", (d,), 0.0
            yield f"{p}.conv.depth", (cfg.conv_kernel, d), None
            yield f"{p}.conv.point.w", (d, d), None
            yield f"{p}.conv.point.b", (d,), 0.0
            yield f"{p}.ffn_ln.gain", (d,), 1.0
            yield f"{p}.ffn_ln.bias", (d,), 0.0
            yield f"{p}.ffn.w1", (d, cfg.d_ff), None
            yield f"{p}.ffn.b1", (cfg.d_ff,), 0.0
            yield f"{p}.ffn.w2", (cfg.d_ff, d), None
            yield f"{p}.ffn.b2", (d,), 0.0
        for level, size in (("char", self.char_vocab_size), ("syl", self.syl_vocab_size)):
            yield f"{level}_head.w", (d, size), None
            yield f"{level}_head.b", (size,), 0.0
        for level, size in (("char", self.char_vocab_size), ("syl", self.syl_vocab_size)):
            yield f"{level}_cond.w", (size, d), None
            yield f"{level}_cond.b", (d,), 0.0

    def _init_store(self, seed: int) -> ParamStore:
        rng = np.random.default_rng(seed)
        spec = list(self._param_spec())
        store = ParamStore({name: shape for name, shape, _ in spec})
        for name, shape, fill in spec:
            store[name].value[...] = dc.glorot_uniform(rng, shape) if fill is None else fill
        return store

    @property
    def n_layers(self) -> int:
        return self.placement.n_layers

    @property
    def parameter_count(self) -> int:
        return self.store.flat.size

    # -- forward pieces -----------------------------------------------------

    def _normed(self, x: Tensor, prefix: str) -> Tensor:
        return dc.layer_norm_affine(x, self.store[f"{prefix}.gain"], self.store[f"{prefix}.bias"])

    def _attention(self, x: Tensor, layer: int, lengths: Sequence[int]) -> Tensor:
        p = self.store
        pre = f"block{layer:02d}.attn"
        q = dc.linear(x, p[f"{pre}.wq"], p[f"{pre}.bq"])
        k = dc.linear(x, p[f"{pre}.wk"], p[f"{pre}.bk"])
        v = dc.linear(x, p[f"{pre}.wv"], p[f"{pre}.bv"])
        mixed = dc.multi_head_attention(q, k, v, self.cfg.n_heads, lengths)
        return dc.linear(mixed, p[f"{pre}.wo"], p[f"{pre}.bo"])

    def _conv_mix(self, x: Tensor, layer: int, lengths: Sequence[int]) -> Tensor:
        p = self.store
        pre = f"block{layer:02d}.conv"
        mixed = dc.depthwise_conv_rows(x, p[f"{pre}.depth"], lengths)
        return dc.linear(dc.swish(mixed), p[f"{pre}.point.w"], p[f"{pre}.point.b"])

    def _ffn(self, x: Tensor, layer: int) -> Tensor:
        p = self.store
        pre = f"block{layer:02d}.ffn"
        hidden = dc.swish(dc.linear(x, p[f"{pre}.w1"], p[f"{pre}.b1"]))
        return dc.linear(hidden, p[f"{pre}.w2"], p[f"{pre}.b2"])

    def block_forward(self, x: Tensor, layer: int, lengths: Sequence[int]) -> Tensor:
        """One residual block; the (T, d_model) shape is preserved.

        `lengths` splits the rows into segments that attention and the
        convolution keep apart.
        """
        name = f"block{layer:02d}"
        x = dc.add(x, self._attention(self._normed(x, f"{name}.attn_ln"), layer, lengths))
        x = dc.add(x, self._conv_mix(self._normed(x, f"{name}.conv_ln"), layer, lengths))
        x = dc.add(x, self._ffn(self._normed(x, f"{name}.ffn_ln"), layer))
        if not np.isfinite(x.value).all():
            raise NumericError(f"block {layer} produced non-finite values")
        return x

    def head_logits(self, x: Tensor, level: str) -> Tensor:
        """Unnormalized scores of the shared head for `level`."""
        if level not in ("char", "syl"):
            raise ContractError(f"unknown head level {level!r}")
        p = self.store
        return dc.linear(x, p[f"{level}_head.w"], p[f"{level}_head.b"])

    def predict_head(self, x: Tensor, level: str) -> Tensor:
        """Row-stochastic posteriors from the shared head for `level`."""
        return dc.softmax_rows(self.head_logits(x, level))

    def condition(self, x: Tensor, z: Tensor | None, r: Tensor | None, layer: int) -> Tensor:
        """Add the projected posteriors for the next block's input.

        The four membership cases: char-only layers add the character
        projection, syllable-only layers the syllable projection, layers in
        both add both, all other layers pass through.  With feedback disabled
        the input is returned unchanged.
        """
        in_char = layer in self.placement.char_layers
        in_syl = layer in self.placement.syl_layers
        if (z is not None) != in_char:
            raise ContractError(f"layer {layer}: character posteriors {'missing' if in_char else 'unexpected'}")
        if (r is not None) != in_syl:
            raise ContractError(f"layer {layer}: syllable posteriors {'missing' if in_syl else 'unexpected'}")
        if not self.placement.condition:
            return x
        out = x
        p = self.store
        if z is not None:
            out = dc.add(out, dc.linear(z, p["char_cond.w"], p["char_cond.b"]))
        if r is not None:
            out = dc.add(out, dc.linear(r, p["syl_cond.w"], p["syl_cond.b"]))
        return out

    def _position_code(self, lengths: Sequence[int]) -> np.ndarray:
        """Each segment's rows of the position table, stacked; one segment
        gets a read-only view of the table."""
        if self._positions.shape[0] < max(lengths):
            table = sinusoidal_positions(max(lengths), self.cfg.d_model)
            table.flags.writeable = False
            self._positions = table
        table = self._positions
        if len(lengths) == 1:
            return table[: lengths[0]]
        return np.concatenate([table[:n] for n in lengths])

    def forward(self, features: np.ndarray) -> ForwardOutput:
        """Run the full stack over one utterance: `forward_batch` of one segment."""
        return self.forward_batch([features])

    def forward_batch(self, features: Sequence[np.ndarray]) -> ForwardOutput:
        """Run the full stack once over several utterances and collect the
        head logits of every prediction point and the intermediate
        posteriors (see `ForwardOutput`).

        The utterances' frames are stacked as rows, one segment each.  Every
        row-wise op runs once for the whole batch; positions restart at each
        segment, and attention and the convolution never cross a segment
        edge, so each segment's posteriors are those of its utterance alone.
        Feedback computed at a layer feeds the next block, so conditioning at
        the last layer is never applied; the final head reads the last block's
        output directly.
        """
        feats = [np.asarray(f, dtype=np.float64) for f in features]
        if not feats:
            raise ShapeError("forward_batch needs at least one utterance")
        for f in feats:
            if f.ndim != 2 or f.shape[1] != self.cfg.d_in:
                raise ShapeError(f"features must be (T, {self.cfg.d_in}), got {f.shape}")
            if f.shape[0] < 1:
                raise ShapeError("features need at least one frame")
            if not np.isfinite(f).all():
                raise NumericError("input features contain non-finite values")
        lengths = tuple(f.shape[0] for f in feats)

        x = dc.linear(Tensor(np.concatenate(feats)), self.store["input.w"], self.store["input.b"])
        x = dc.add(x, Tensor(self._position_code(lengths)))

        inters: dict[str, dict[int, Tensor]] = {"char": {}, "syl": {}}
        logits: dict[tuple[str, int], Tensor] = {}
        last = self.placement.n_layers
        for layer in range(1, last + 1):
            x = self.block_forward(x, layer, lengths)
            for level, layers in (("char", self.placement.char_layers),
                                  ("syl", self.placement.syl_layers)):
                if layer in layers:
                    logits[(level, layer)] = self.head_logits(x, level)
                    inters[level][layer] = dc.softmax_rows(logits[(level, layer)])
            if layer < last:
                x = self.condition(x, inters["char"].get(layer), inters["syl"].get(layer), layer)
        logits[("char", last)] = self.head_logits(x, "char")
        return ForwardOutput(inters["char"], inters["syl"], lengths, logits)

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path, extra_meta: dict | None = None) -> None:
        """Checkpoint: the parameter container with the configuration header."""
        meta = {
            "model": asdict(self.cfg),
            "placement": self.placement.to_dict(),
            "char_vocab_size": self.char_vocab_size,
            "syl_vocab_size": self.syl_vocab_size,
        }
        if extra_meta:
            meta["extra"] = extra_meta
        self.store.save(path, meta)

    @classmethod
    def load(cls, path: str | Path) -> tuple["EncoderModel", dict]:
        """Read a checkpoint written by `save`.  A header whose `model` or
        `placement` block does not construct, or whose vocabulary size is not
        the column count of its stored head, raises FormatError naming the
        file and the block or field; so does a stored tensor that is missing,
        extra or shaped unlike the one the header's architecture makes,
        naming the tensor.  A `model` block of an earlier version loads when
        its retired keys hold the values the encoder implements."""
        store, meta = ParamStore.load(path)

        def block(key: str, build):
            try:
                return build(meta[key])
            except (ArithmeticError, ContractError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(
                    f"{path}: header block {key!r} does not construct ({exc})"
                ) from None

        def vocab_size(field: str, head: str) -> int:
            size = meta.get(field)
            weight = store[head].value if head in store else None
            if type(size) is not int or size < 2 or weight is None or weight.shape[1:] != (size,):
                raise FormatError(
                    f"{path}: header field {field!r} is {size!r}, not an int >= 2 "
                    f"equal to the column count of {head!r}"
                )
            return size

        model = cls(
            cfg=block("model", _model_config),
            placement=block("placement", PlacementConfig.from_dict),
            char_vocab_size=vocab_size("char_vocab_size", "char_head.w"),
            syl_vocab_size=vocab_size("syl_vocab_size", "syl_head.w"),
            store=store,
        )
        # Checked as the spec is walked, so a header that claims far more
        # layers than the file holds stops at the first missing tensor.
        expected = set()
        for name, shape, _ in model._param_spec():
            expected.add(name)
            if name not in store:
                raise FormatError(f"{path}: tensor {name!r} is missing")
            if store[name].value.shape != shape:
                raise FormatError(
                    f"{path}: tensor {name!r} has shape {store[name].value.shape}, "
                    f"the header's architecture needs {shape}"
                )
        for name in store.names():
            if name not in expected:
                raise FormatError(f"{path}: tensor {name!r} is not part of the header's architecture")
        return model, meta.get("extra", {})

    def with_store(self, store: ParamStore) -> "EncoderModel":
        """Same architecture bound to another parameter store (e.g. an average)."""
        if store.names() != self.store.names():
            raise ContractError("store parameter names do not match the architecture")
        return EncoderModel(
            cfg=self.cfg,
            placement=self.placement,
            char_vocab_size=self.char_vocab_size,
            syl_vocab_size=self.syl_vocab_size,
            store=store,
        )
