import numpy as np
import pytest

from sdmkit.config import parse_config
from sdmkit.engine import AdamW, weighted_bce_logits, weighted_bce_logits_grad
from sdmkit.errors import RegistryError, ShapeError, SurgeryError
from sdmkit.nn import (
    FusionModel,
    SinusoidalLocationEncoder,
    build_encoder,
    modify_first_layer,
    modify_last_layer,
    strip_head,
)
from sdmkit.nn.layers import Conv2d, Dropout, Linear, ReLU, Sequential
from sdmkit.pipeline import build_model
from sdmkit.synthetic import CUBE_SHAPE, default_config_yaml


def rng():
    return np.random.default_rng(0)


def param_count(module) -> int:
    return sum(param.size for _, param, _ in module.named_params())


class TestBuildEncoder:
    def test_micro_conv2d_shape(self):
        enc = build_encoder("builtin", "micro_conv2d", (4, 32, 32), 64, rng())
        out = enc.forward(np.zeros((2, 4, 32, 32)))
        assert out.shape == (2, 64)

    def test_micro_conv3d_shape(self):
        enc = build_encoder("builtin", "micro_conv3d", (6, 4, 21), 64, rng())
        out = enc.forward(np.zeros((2, 6, 4, 21)))
        assert out.shape == (2, 64)

    def test_micro_mlp_shape(self):
        enc = build_encoder("builtin", "micro_mlp", (10,), 32, rng())
        out = enc.forward(np.zeros((3, 10)))
        assert out.shape == (3, 32)

    def test_unknown_name_lists_registry(self):
        with pytest.raises(RegistryError, match="micro_conv2d"):
            build_encoder("builtin", "resnet999", (3, 32, 32), 64, rng())

    def test_finite_parameter_count(self):
        enc = build_encoder("builtin", "micro_conv2d", (4, 32, 32), 64, rng())
        assert param_count(enc) > 0


class TestModifyFirstLayer:
    def test_identity_when_unchanged(self):
        enc = build_encoder("builtin", "micro_conv2d", (3, 32, 32), 16, rng())
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16))
        before = enc.forward(x)
        modify_first_layer(enc, 3)
        np.testing.assert_array_equal(enc.forward(x), before)

    def test_mean_replication_closed_form(self):
        # 1-filter toy layer: constant input replicated across channels keeps
        # the pre-activation identical after widening 3 -> 6
        r = rng()
        conv = Conv2d(3, 1, 3, 1, r)
        model = Sequential([conv])
        x3 = np.full((1, 3, 5, 5), 1.7)
        pre3 = conv.forward(x3)
        modify_first_layer(model, 6)
        x6 = np.full((1, 6, 5, 5), 1.7)
        pre6 = conv.forward(x6)
        np.testing.assert_allclose(pre6, pre3, atol=1e-12)

    def test_adapted_forward_shape(self):
        enc = build_encoder("builtin", "micro_conv2d", (3, 32, 32), 32, rng())
        modify_first_layer(enc, 6)
        out = enc.forward(np.zeros((2, 6, 32, 32)))
        assert out.shape == (2, 32)

    def test_param_count_delta(self):
        enc = build_encoder("builtin", "micro_conv2d", (3, 32, 32), 32, rng())
        before = param_count(enc)
        modify_first_layer(enc, 6)
        # (new - old) * per-channel filter size * num filters
        assert param_count(enc) - before == (6 - 3) * 9 * 8

    def test_no_spatial_layer(self):
        mlp = build_encoder("builtin", "micro_mlp", (10,), 8, rng())
        with pytest.raises(SurgeryError):
            modify_first_layer(mlp, 4)


class TestModifyLastLayer:
    def test_widen_head(self):
        enc = build_encoder("builtin", "micro_conv2d", (3, 32, 32), 64, rng())
        modify_last_layer(enc, 11255, rng())
        out = enc.forward(np.zeros((2, 3, 16, 16)))
        assert out.shape == (2, 11255)

    def test_same_dim_reinitializes(self):
        enc = build_encoder("builtin", "micro_conv2d", (3, 32, 32), 64, rng())
        old_w = enc.layers[-1].params["w"].copy()
        modify_last_layer(enc, 64, np.random.default_rng(99))
        assert enc.layers[-1].params["w"].shape == old_w.shape
        assert not np.array_equal(enc.layers[-1].params["w"], old_w)

    def test_binary_head(self):
        enc = build_encoder("builtin", "micro_mlp", (10,), 16, rng())
        modify_last_layer(enc, 1, rng())
        assert enc.forward(np.zeros((4, 10))).shape == (4, 1)

    def test_init_within_fanin_bound(self):
        enc = build_encoder("builtin", "micro_mlp", (10,), 16, rng())
        modify_last_layer(enc, 5, rng())
        head = enc.layers[-1]
        bound = 1 / np.sqrt(head.in_dim)
        assert np.all(np.abs(head.params["w"]) <= bound)


class TestStripHead:
    def test_exposes_penultimate_width(self):
        r = rng()
        model = Sequential([Linear(20, 512, r), ReLU(), Linear(512, 100, r)])
        strip_head(model)
        assert model.embedding_dim == 512
        assert model.forward(np.zeros((2, 20))).shape == (2, 512)

    def test_strip_then_rebuild_restores_shape(self):
        enc = build_encoder("builtin", "micro_mlp", (10,), 16, rng())
        strip_head(enc)
        assert enc.embedding_dim == 128
        enc.layers.append(Linear(128, 16, rng()))
        assert enc.forward(np.zeros((2, 10))).shape == (2, 16)

    def test_headless_noop_warning(self, caplog):
        model = Sequential([Linear(4, 8, rng()), ReLU()])
        import logging

        with caplog.at_level(logging.WARNING):
            strip_head(model)
        assert "headless" in caplog.text

    def test_stripped_encoder_feeds_fusion(self):
        r = rng()
        enc = build_encoder("builtin", "micro_mlp", (10,), 16, r)
        strip_head(enc)
        enc.embedding_dim = 128
        model = FusionModel({"flat": enc}, num_classes=5, hidden_dim=32, dropout_p=0.0, rng=r)
        out = model.forward({"flat": np.zeros((3, 10))})
        assert out.shape == (3, 5)


class TestMme:
    def build(self, dropout=0.0, classes=20):
        r = rng()
        encoders = {
            "a": build_encoder("builtin", "micro_mlp", (10,), 64, r),
            "b": build_encoder("builtin", "micro_mlp", (10,), 64, r),
            "c": build_encoder("builtin", "micro_mlp", (10,), 128, r),
        }
        return FusionModel(encoders, num_classes=classes, hidden_dim=256,
                           dropout_p=dropout, rng=r)

    def batch(self, n=2):
        g = np.random.default_rng(5)
        return {k: g.normal(size=(n, 10)) for k in "abc"}

    def test_logits_shape(self):
        model = self.build()
        assert model.forward(self.batch(2)).shape == (2, 20)

    def test_eval_mode_deterministic_with_dropout(self):
        model = self.build(dropout=0.5)
        batch = self.batch()
        np.testing.assert_array_equal(
            model.forward(batch, training=False), model.forward(batch, training=False)
        )

    def test_training_deterministic_when_dropout_zero(self):
        model = self.build(dropout=0.0)
        batch = self.batch()
        np.testing.assert_array_equal(
            model.forward(batch, training=True), model.forward(batch, training=True)
        )

    def test_modality_sensitivity(self):
        model = self.build()
        batch = self.batch()
        base = model.forward(batch)
        zeroed = dict(batch)
        zeroed["b"] = np.zeros_like(batch["b"])
        assert not np.allclose(model.forward(zeroed), base)

    def test_dim_mismatch_error(self):
        model = self.build()
        bad = self.batch()
        bad["a"] = np.zeros((2, 7))
        with pytest.raises(ShapeError):
            model.forward(bad)

    def test_logits_width_for_batch_sizes(self):
        model = self.build(classes=20)
        for n in (1, 2, 7):
            assert model.forward(self.batch(n)).shape == (n, 20)

    def test_gradient_flow_every_modality(self):
        # one optimizer step must move at least one parameter per encoder
        model = self.build()
        batch = self.batch(4)
        labels = (np.random.default_rng(6).random((4, 20)) < 0.3).astype(float)
        before = {name: p.copy() for name, p, _ in model.named_params()}
        logits = model.forward(batch, training=True)
        model.backward(weighted_bce_logits_grad(logits, labels, 10.0))
        AdamW().step(model.named_params(), lr=1e-3)
        for modality in "abc":
            moved = any(
                not np.array_equal(p, before[name])
                for name, p, _ in model.named_params()
                if name.startswith(f"enc.{modality}.")
            )
            assert moved, modality


class TestFirstConvSkipsInputGrad:
    """The encoders' first conv computes only dw and db; nothing reads its dx."""

    ENCODERS = {  # name -> input shape of one sample
        "micro_conv2d": (4, 16, 16),
        "micro_conv3d": (6, 4, 21),
    }

    @pytest.mark.parametrize("new_channels", [None, 7])
    @pytest.mark.parametrize("name", ENCODERS)
    def test_first_conv_returns_no_input_grad(self, name, new_channels):
        shape = self.ENCODERS[name]
        enc = build_encoder("builtin", name, shape, 16, rng())
        if new_channels is not None:  # surgery swaps the weights, not the layer
            modify_first_layer(enc, new_channels)
            shape = (new_channels, *shape[1:])
        convs = [layer for layer in enc.layers if isinstance(layer, Conv2d)]
        assert [conv.input_grad for conv in convs] == [False] + [True] * (len(convs) - 1)
        out = enc.forward(np.random.default_rng(1).normal(size=(3, *shape)), training=True)
        assert enc.backward(np.ones_like(out)) is None
        assert convs[0].grads["w"].shape == (8, shape[0], *convs[0].kernel_size)
        assert np.any(convs[0].grads["w"])

    def test_fusion_grads_equal_with_every_input_grad(self):
        """Every FusionModel gradient is bit-identical to the same model's with
        every conv computing dx."""

        def build():
            r = rng()
            encoders = {
                "patch": build_encoder("builtin", "micro_conv2d", (4, 32, 32), 16, r),
                "cube": build_encoder("builtin", "micro_conv3d", (3, 4, 5), 16, r),
                "vector": build_encoder("builtin", "micro_mlp", (10,), 16, r),
            }
            return FusionModel(encoders, num_classes=6, hidden_dim=32, dropout_p=0.1, rng=r)

        skipping, full = build(), build()
        forced = [layer for enc in full.encoders.values() for layer in enc.layers
                  if isinstance(layer, Conv2d) and not layer.input_grad]
        assert len(forced) == 2
        for conv in forced:
            conv.input_grad = True
        g = np.random.default_rng(3)
        batch = {"patch": g.normal(size=(5, 4, 16, 16)), "cube": g.normal(size=(5, 3, 4, 5)),
                 "vector": g.normal(size=(5, 10))}
        labels = (g.random((5, 6)) < 0.3).astype(float)
        for model in (skipping, full):
            model.set_dropout_rng(np.random.default_rng(9))
            logits = model.forward(batch, training=True)
            model.backward(weighted_bce_logits_grad(logits, labels, 10.0))
        pairs = list(zip(skipping.named_params(), full.named_params()))
        assert len(pairs) == 18
        for (name, _, grad), (full_name, _, full_grad) in pairs:
            assert name == full_name
            assert np.any(grad), name
            np.testing.assert_array_equal(grad, full_grad, err_msg=name)


class TestModelTree:
    """Parameter names, dropout seeding and the first-conv lookup all follow
    Module.children."""

    def default_mme(self):
        cfg = parse_config(default_config_yaml("data"))
        return build_model(cfg, {"patch": (4, 32, 32), "cube_a": CUBE_SHAPE, "cube_b": CUBE_SHAPE})

    def test_default_mme_param_names_in_order(self):
        expected = [f"{part}.{i}.{p}"
                    for part, layers in [("enc.patch", (0, 2, 5)), ("enc.cube_a", (0, 3)),
                                         ("enc.cube_b", (0, 3)), ("head", (1, 3))]
                    for i in layers for p in ("w", "b")]
        assert len(expected) == 18
        assert [name for name, _, _ in self.default_mme().named_params()] == expected

    def test_set_dropout_rng_reaches_every_dropout(self):
        model = self.default_mme()
        model.encoders["patch"].layers.insert(1, Dropout(0.2))
        dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
        assert dropouts == [model.encoders["patch"].layers[1], model.head.layers[0]]
        g = np.random.default_rng(11)
        model.set_dropout_rng(g)
        assert all(d.rng is g for d in dropouts)

    def test_modify_first_layer_finds_nested_conv(self):
        r = rng()
        inner = Conv2d(3, 2, 3, 1, r)
        model = Sequential([Sequential([ReLU(), Sequential([]), inner]), Conv2d(2, 2, 1, 1, r)])
        modify_first_layer(model, 5)
        assert inner.in_channels == 5
        assert inner.params["w"].shape == (2, 5, 3, 3)
        assert model.forward(np.ones((1, 5, 4, 4))).shape == (1, 2, 2, 2)
        with pytest.raises(SurgeryError, match="no identifiable first spatial layer"):
            modify_first_layer(Sequential([Sequential([Linear(2, 2, r)])]), 5)


class TestLocationEncoder:
    def test_zero_point_features(self):
        enc = SinusoidalLocationEncoder(8, 3, seed=0)
        feats = enc.features(np.array([[0.0, 0.0]]))[0]
        np.testing.assert_allclose(feats, np.tile([0, 1, 0, 1], 3), atol=1e-15)

    def test_determinism(self):
        enc = SinusoidalLocationEncoder(16, 4, seed=3)
        a = enc.forward(np.array([[3.05, 43.61]]))[0]
        b = enc.forward(np.array([[3.05, 43.61]]))[0]
        np.testing.assert_array_equal(a, b)

    def test_injectivity_probe(self):
        enc = SinusoidalLocationEncoder(16, 6, seed=1)
        g = np.random.default_rng(2)
        for _ in range(20):
            lon, lat = g.uniform(-90, 90, size=2)
            assert not np.allclose(enc.forward(np.array([[lon, lat]]))[0],
                                   enc.forward(np.array([[lon, lat + 0.01]]))[0])

    def test_same_seed_same_encoder(self):
        a = SinusoidalLocationEncoder(8, 2, seed=5)
        b = SinusoidalLocationEncoder(8, 2, seed=5)
        np.testing.assert_array_equal(a.forward(np.array([[1.0, 2.0]]))[0],
                                      b.forward(np.array([[1.0, 2.0]]))[0])

    def test_usable_as_mme_modality(self):
        enc = SinusoidalLocationEncoder(32, 4, seed=0)
        model = FusionModel({"location": enc}, num_classes=6, hidden_dim=16,
                            dropout_p=0.0, rng=rng())
        coords = np.array([[3.05, 43.61], [0.0, 0.0]])
        assert model.forward({"location": coords}).shape == (2, 6)

    def test_backward_skips_feature_grad(self, monkeypatch):
        """w and b gradients are bit-identical to those of Linear.backward with
        the same weights, and no dout @ w runs: only the (N, 2) coordinate
        zeros come back."""
        enc = SinusoidalLocationEncoder(8, 3, seed=4)
        full = Linear(enc.in_dim, enc.out_dim, rng())
        full.params = {k: v.copy() for k, v in enc.params.items()}
        coords = np.random.default_rng(5).uniform(-60, 60, size=(7, 2))
        dout = np.random.default_rng(6).normal(size=(7, 8))
        enc.forward(coords, training=True)
        full.forward(enc.features(coords), training=True)
        assert full.backward(dout).shape == (7, enc.in_dim)

        def no_input_grad(self, dout):
            raise AssertionError("the location encoder computed its feature gradient")

        monkeypatch.setattr(Linear, "backward", no_input_grad)
        np.testing.assert_array_equal(enc.backward(dout), np.zeros((7, 2)))
        for name in ("w", "b"):
            assert enc.grads[name].tobytes() == full.grads[name].tobytes()
