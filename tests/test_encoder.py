from __future__ import annotations

import numpy as np
import pytest

from condctc import diffcore as dc
from condctc.diffcore import ContractError, NumericError, ShapeError, Tensor
from condctc.encoder import (
    EncoderModel,
    ModelConfig,
    PlacementConfig,
    _parameter_count,
    sinusoidal_positions,
    strategy_names,
)
from condctc import trainer


SMALL = ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=3)


def small_model(placement=None, seed=0, cfg=SMALL, chars=5, syls=4):
    if placement is None:
        placement = PlacementConfig(
            n_layers=2, char_layers={1}, syl_layers={1}, condition=True
        )
    return EncoderModel(cfg, placement, chars, syls, seed=seed)


def zero_all(model):
    for name in model.store.names():
        model.store[name].value[...] = 0.0


class TestPlacementConfig:
    def test_reference_depth_presets(self):
        cases = {
            "baseline": (set(), set(), False),
            "multitask": (set(), {15}, False),
            "interctc": ({3, 6, 9, 12, 15}, set(), False),
            "selfcond": ({3, 6, 9, 12, 15}, set(), True),
            "parallel": ({6, 12}, {6, 12, 18}, True),
            "hierarchical": ({12, 15}, {3, 6, 9}, True),
            "alternate": ({6, 12}, {3, 9, 15}, True),
        }
        for name, (chars, syls, cond) in cases.items():
            pl = PlacementConfig.from_strategy(name, 18)
            assert pl.char_layers == frozenset(chars), name
            assert pl.syl_layers == frozenset(syls), name
            assert pl.condition is cond, name

    def test_desk_scale_presets(self):
        pl = PlacementConfig.from_strategy("alternate", 6)
        assert pl.char_layers == frozenset({2, 4})
        assert pl.syl_layers == frozenset({1, 3, 5})
        pl = PlacementConfig.from_strategy("parallel", 6)
        assert pl.char_layers == frozenset({2, 4})
        assert pl.syl_layers == frozenset({2, 4, 6})
        pl = PlacementConfig.from_strategy("selfcond", 6)
        assert pl.char_layers == frozenset({1, 2, 3, 4, 5})
        pl = PlacementConfig.from_strategy("multitask", 6)
        assert pl.syl_layers == frozenset({5}) and not pl.condition

    def test_final_layer_cannot_carry_intermediate_char(self):
        with pytest.raises(ContractError):
            PlacementConfig(n_layers=4, char_layers={4})
        # ... but the final layer may carry a syllable prediction
        PlacementConfig(n_layers=4, syl_layers={4})

    def test_bounds_validated(self):
        with pytest.raises(ContractError):
            PlacementConfig(n_layers=4, char_layers={0})
        with pytest.raises(ContractError):
            PlacementConfig(n_layers=4, syl_layers={5})
        with pytest.raises(ContractError):
            PlacementConfig.from_strategy("nope", 6)

    def test_dict_roundtrip(self):
        for name in strategy_names():
            for n_layers in (1, 2, 6, 18):
                pl = PlacementConfig.from_strategy(name, n_layers)
                assert PlacementConfig.from_dict(pl.to_dict()) == pl

    @pytest.mark.parametrize("field,value", [
        ("n_layers", 6.9), ("n_layers", True), ("char_layers", [2.0, 4]),
        ("char_layers", [True, 4]), ("syl_layers", "135"), ("syl_layers", {1: 3}),
        ("condition", "false"), ("condition", 0), ("strategy", 7),
    ])
    def test_dict_of_other_json_types_rejected(self, field, value):
        # Each of these once loaded through int(), bool() or str().
        d = PlacementConfig.from_strategy("alternate", 6).to_dict()
        d[field] = value
        with pytest.raises(ContractError, match=field):
            PlacementConfig.from_dict(d)


class TestBlocks:
    def test_zero_weights_make_identity_block(self):
        model = small_model()
        zero_all(model)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
        out = model.block_forward(x, 1, [5])
        assert np.array_equal(out.value, x.value)

    def test_shape_preserved(self):
        model = small_model()
        x = Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        assert model.block_forward(x, 2, [5]).value.shape == (5, 8)

    def test_swapping_identical_frames_keeps_outputs_equal(self):
        model = small_model()
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(6, 8))
        frames[4] = frames[1]  # two identical frames
        swapped = frames.copy()
        swapped[[1, 4]] = swapped[[4, 1]]
        out_a = model.block_forward(Tensor(frames), 1, [6]).value
        out_b = model.block_forward(Tensor(swapped), 1, [6]).value
        assert np.array_equal(out_a, out_b)
        assert np.array_equal(out_a[1], out_a[4]) is False  # conv sees context

    def test_attention_rows_with_equal_queries_match_without_positions(self):
        # pure content attention: identical frames attend identically
        model = small_model()
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(5, 8))
        frames[3] = frames[0]
        att = model._attention(Tensor(frames), 1, [5]).value
        assert np.allclose(att[0], att[3], atol=1e-12)

    def test_nonfinite_output_names_layer(self):
        model = small_model()
        model.store["block02.ffn.w2"].value[...] = np.inf
        x = Tensor(np.random.default_rng(4).normal(size=(3, 8)))
        x = model.block_forward(x, 1, [3])
        with pytest.raises(NumericError, match="block 2"):
            model.block_forward(x, 2, [3])


class TestHeads:
    def test_zero_weights_give_uniform_rows(self):
        model = small_model()
        zero_all(model)
        x = Tensor(np.zeros((4, 8)))
        probs = model.predict_head(x, "char").value
        assert np.allclose(probs, 1.0 / model.char_vocab_size)

    def test_rows_sum_to_one(self):
        model = small_model(seed=3)
        x = Tensor(np.random.default_rng(5).normal(size=(6, 8)))
        for level in ("char", "syl"):
            probs = model.predict_head(x, level).value
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_identity_like_head_tracks_input_argmax(self):
        cfg = ModelConfig(d_in=3, d_model=3, n_heads=1, d_ff=4, conv_kernel=3)
        placement = PlacementConfig(n_layers=1)
        model = EncoderModel(cfg, placement, char_vocab_size=3, syl_vocab_size=2, seed=0)
        model.store["char_head.w"].value[...] = np.eye(3) * 10.0
        model.store["char_head.b"].value[...] = 0.0
        x = np.array([[0.0, 2.0, -1.0], [3.0, 0.0, 1.0]])
        probs = model.predict_head(Tensor(x), "char").value
        assert np.array_equal(probs.argmax(axis=1), x.argmax(axis=1))

    def test_unknown_level_rejected(self):
        model = small_model()
        with pytest.raises(ContractError):
            model.predict_head(Tensor(np.zeros((2, 8))), "word")


class TestConditioning:
    def test_pass_through_outside_both_sets(self):
        placement = PlacementConfig(n_layers=3, char_layers={1}, syl_layers={2}, condition=True)
        model = small_model(placement)
        x = Tensor(np.ones((3, 8)))
        assert model.condition(x, None, None, 3) is x

    def test_condition_flag_off_returns_input_unchanged(self):
        placement = PlacementConfig(n_layers=3, char_layers={1}, syl_layers=set(), condition=False)
        model = small_model(placement)
        x = Tensor(np.ones((3, 8)))
        z = model.predict_head(x, "char")
        assert model.condition(x, z, None, 1) is x

    def test_zeroed_projections_add_nothing(self):
        model = small_model()
        for name in ("char_cond.w", "char_cond.b", "syl_cond.w", "syl_cond.b"):
            model.store[name].value[...] = 0.0
        x = Tensor(np.random.default_rng(6).normal(size=(3, 8)))
        z = model.predict_head(x, "char")
        r = model.predict_head(x, "syl")
        out = model.condition(x, z, r, 1)
        assert np.array_equal(out.value, x.value)

    def test_both_levels_add_elementwise(self):
        cfg = ModelConfig(d_in=1, d_model=1, n_heads=1, d_ff=2, conv_kernel=1)
        placement = PlacementConfig(n_layers=2, char_layers={1}, syl_layers={1}, condition=True)
        model = EncoderModel(cfg, placement, char_vocab_size=2, syl_vocab_size=2, seed=0)
        model.store["char_cond.w"].value[...] = [[2.0], [4.0]]
        model.store["char_cond.b"].value[...] = 0.5
        model.store["syl_cond.w"].value[...] = [[-1.0], [3.0]]
        model.store["syl_cond.b"].value[...] = 0.25
        x = Tensor(np.array([[1.5]]))
        z = Tensor(np.array([[0.3, 0.7]]))
        r = Tensor(np.array([[0.9, 0.1]]))
        out = model.condition(x, z, r, 1)
        expect = 1.5 + (0.3 * 2.0 + 0.7 * 4.0 + 0.5) + (0.9 * -1.0 + 0.1 * 3.0 + 0.25)
        assert out.value[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_membership_mismatch_rejected(self):
        model = small_model()  # layer 1 in both sets
        x = Tensor(np.ones((2, 8)))
        z = model.predict_head(x, "char")
        r = model.predict_head(x, "syl")
        with pytest.raises(ContractError):
            model.condition(x, None, r, 1)  # char posterior missing
        with pytest.raises(ContractError):
            model.condition(x, z, r, 2)  # layer 2 in neither set


class TestForward:
    def test_placement_keys_selfcond_18(self):
        cfg = ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=3)
        model = EncoderModel(cfg, PlacementConfig.from_strategy("selfcond", 18), 5, 4, seed=0)
        out = model.forward(np.random.default_rng(8).normal(size=(4, 4)))
        assert sorted(out.char_inters) == [3, 6, 9, 12, 15]
        assert not out.syl_inters

    def test_placement_keys_alternate_18(self):
        cfg = ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=3)
        model = EncoderModel(cfg, PlacementConfig.from_strategy("alternate", 18), 5, 4, seed=0)
        out = model.forward(np.random.default_rng(9).normal(size=(4, 4)))
        assert sorted(out.char_inters) == [6, 12]
        assert sorted(out.syl_inters) == [3, 9, 15]

    def test_placement_keys_hierarchical_18(self):
        cfg = ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=3)
        model = EncoderModel(cfg, PlacementConfig.from_strategy("hierarchical", 18), 5, 4, seed=0)
        out = model.forward(np.random.default_rng(10).normal(size=(4, 4)))
        assert sorted(out.char_inters) == [12, 15]
        assert sorted(out.syl_inters) == [3, 6, 9]

    @pytest.mark.parametrize("n_layers", [1, 2, 6])
    def test_logits_keyed_by_point_with_the_final_at_the_top_char_layer(self, n_layers):
        feats = np.random.default_rng(14).normal(size=(5, 4))
        for strategy in ("baseline", "selfcond", "parallel", "alternate"):
            placement = PlacementConfig.from_strategy(strategy, n_layers)
            out = small_model(placement).forward(feats)
            assert out.final_key == ("char", n_layers)
            assert set(out.logits) == {("char", n_layers),
                                       *[("char", n) for n in placement.char_layers],
                                       *[("syl", n) for n in placement.syl_layers]}
            assert np.array_equal(out.final.value,
                                  dc.softmax_rows(out.logits[("char", n_layers)]).value)

    def test_every_matrix_row_stochastic_and_t_rows(self):
        model = small_model(seed=1)
        feats = np.random.default_rng(11).normal(size=(7, 4))
        out = model.forward(feats)
        for probs in [out.final, *out.char_inters.values(), *out.syl_inters.values()]:
            assert probs.value.shape[0] == 7
            assert np.abs(probs.value.sum(axis=1) - 1.0).max() < 1e-9

    def test_zero_conditioning_equivalence_bitwise(self):
        placement_on = PlacementConfig(n_layers=3, char_layers={1}, syl_layers={2}, condition=True)
        cfg = SMALL
        model_on = EncoderModel(cfg, placement_on, 5, 4, seed=2)
        for name in ("char_cond.w", "char_cond.b", "syl_cond.w", "syl_cond.b"):
            model_on.store[name].value[...] = 0.0
        placement_off = PlacementConfig(n_layers=3, char_layers={1}, syl_layers={2}, condition=False)
        model_off = EncoderModel(cfg, placement_off, 5, 4, store=model_on.store)
        feats = np.random.default_rng(12).normal(size=(6, 4))
        out_on = model_on.forward(feats)
        out_off = model_off.forward(feats)
        assert np.array_equal(out_on.final.value, out_off.final.value)
        for layer in out_on.char_inters:
            assert np.array_equal(out_on.char_inters[layer].value, out_off.char_inters[layer].value)
        for layer in out_on.syl_inters:
            assert np.array_equal(out_on.syl_inters[layer].value, out_off.syl_inters[layer].value)

    def test_head_sharing_mutation_reaches_every_level(self):
        model = small_model(
            PlacementConfig(n_layers=3, char_layers={1, 2}, syl_layers={1}, condition=True), seed=4
        )
        feats = np.random.default_rng(13).normal(size=(5, 4))
        before = model.forward(feats)
        model.store["char_head.w"].value += 0.25
        after = model.forward(feats)
        assert not np.array_equal(before.final.value, after.final.value)
        for layer in before.char_inters:
            assert not np.array_equal(
                before.char_inters[layer].value, after.char_inters[layer].value
            )

    def test_intermediate_layers_add_no_parameters(self):
        cfg = SMALL
        counts = set()
        for strategy in ("baseline", "multitask", "interctc", "selfcond", "alternate",
                         "parallel", "hierarchical"):
            model = EncoderModel(cfg, PlacementConfig.from_strategy(strategy, 6), 5, 4, seed=0)
            counts.add(model.parameter_count)
        assert len(counts) == 1

    @pytest.mark.parametrize("n_layers", [1, 2, 7])
    @pytest.mark.parametrize("cfg", [
        SMALL, ModelConfig(), ModelConfig(d_in=3, d_model=6, n_heads=3, d_ff=5, conv_kernel=9),
    ], ids=["small", "default", "odd-sizes"])
    def test_parameter_count_without_a_model_is_the_models(self, cfg, n_layers):
        model = EncoderModel(cfg, PlacementConfig.from_strategy("alternate", n_layers), 5, 4)
        assert _parameter_count(cfg, n_layers, 5, 4) == model.parameter_count

    def test_head_parameter_count_fixed(self):
        a = small_model(PlacementConfig(n_layers=2, char_layers={1}, syl_layers={1}, condition=True))
        b = small_model(PlacementConfig(n_layers=2))

        def outside_blocks(model):
            return {name: model.store[name].value.shape
                    for name in model.store.names() if not name.startswith("block")}

        assert outside_blocks(a) == outside_blocks(b)
        assert set(outside_blocks(a)) == {
            "input.w", "input.b", "char_head.w", "char_head.b", "syl_head.w", "syl_head.b",
            "char_cond.w", "char_cond.b", "syl_cond.w", "syl_cond.b",
        }

    def test_input_validation(self):
        model = small_model()
        with pytest.raises(ShapeError):
            model.forward(np.zeros((3, 7)))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((0, 4)))
        with pytest.raises(NumericError):
            model.forward(np.full((3, 4), np.nan))
        with pytest.raises(ShapeError):
            model.forward_batch([])
        with pytest.raises(ShapeError):
            model.forward_batch([np.zeros((3, 4)), np.zeros((0, 4))])

    def test_full_model_gradient_check(self):
        model = small_model(seed=7)
        feats = np.random.default_rng(15).normal(size=(5, 4))

        def loss():
            out = model.forward(feats)
            node, _ = trainer.total_loss(out, [1, 2], [1], 0.5)
            return node

        params = [model.store[n] for n in model.store.names()]
        err = dc.grad_check(loss, params, eps=1e-5, max_entries=4, rng=np.random.default_rng(0))
        assert err < 1e-3


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = small_model(seed=9)
        feats = np.random.default_rng(16).normal(size=(4, 4))
        expected = model.forward(feats).final.value
        path = tmp_path / "model.ntc"
        model.save(path, extra_meta={"char_tokens": ["<blank>", "a"]})
        loaded, extra = EncoderModel.load(path)
        assert extra == {"char_tokens": ["<blank>", "a"]}
        assert loaded.placement == model.placement
        assert loaded.cfg == model.cfg
        assert np.array_equal(loaded.forward(feats).final.value, expected)

    def test_with_store_requires_matching_names(self):
        model = small_model()
        other = small_model(PlacementConfig(n_layers=3))
        with pytest.raises(ContractError):
            model.with_store(other.store)


def test_sinusoidal_positions_shape_and_range():
    pe = sinusoidal_positions(10, 8)
    assert pe.shape == (10, 8)
    assert np.abs(pe).max() <= 1.0
    assert not np.array_equal(pe[0], pe[1])
    pe_odd = sinusoidal_positions(4, 7)
    assert pe_odd.shape == (4, 7)


def test_sinusoidal_positions_prefix_is_the_shorter_table():
    # forward_batch slices every segment's positions from one table, grown
    # to the longest segment seen so far.
    for dim in (7, 64):
        table = sinusoidal_positions(300, dim)
        for n in (1, 2, 29, 77, 170, 299, 300):
            assert np.array_equal(table[:n], sinusoidal_positions(n, dim))


def test_forward_cannot_write_the_shared_position_table(monkeypatch):
    model = small_model()
    rng = np.random.default_rng(4)
    feats = [rng.normal(size=(n, SMALL.d_in)) for n in (6, 3)]
    with dc.no_grad():
        want = [model.forward(f).final.value for f in feats]
    codes = []
    init = Tensor.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.op == "leaf" and self.shape[1] == SMALL.d_model:
            codes.append(self.value)

    monkeypatch.setattr(Tensor, "__init__", spy)
    with dc.no_grad():
        model.forward(feats[1])  # one segment: a view of the table
        model.forward_batch(feats)  # several: a stacked copy
    monkeypatch.undo()
    assert len(codes) == 2 and not codes[0].flags.writeable and codes[1].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        codes[0][0, 0] = 5.0
    codes[1][...] = 5.0
    with dc.no_grad():
        assert all(np.array_equal(model.forward(f).final.value, w) for f, w in zip(feats, want))
