import numpy as np
import pytest

from patrolsim import gan
from patrolsim.gan import (DTYPE, LATENT_DIM, GanModel, TrainConfig,
                           denormalize_coords, normalize_coords,
                           rebalance_training_set, sample_patrol, train_gan)
from patrolsim.geodata import BoundingBox, LatLon
from patrolsim.ingest import RACE_GROUPS
from patrolsim.neuralnet import Adam, BatchNorm

BBOX = BoundingBox(39.20, 39.37, -76.71, -76.53)


def gaussian_points(center_uv, sigma, n, seed):
    rng = np.random.default_rng(seed)
    uv = np.clip(rng.normal(center_uv, sigma, size=(n, 2)), -0.99, 0.99)
    return [denormalize_coords(u, v, BBOX) for u, v in uv]


class TestCoordinateMap:
    def test_center_maps_to_origin(self):
        u, v = normalize_coords(BBOX.center, BBOX)
        assert (u, v) == pytest.approx((0.0, 0.0))

    def test_corner_maps_to_minus_one(self):
        u, v = normalize_coords(LatLon(BBOX.lat_min, BBOX.lon_min), BBOX)
        assert (u, v) == (-1.0, -1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = LatLon(rng.uniform(BBOX.lat_min, BBOX.lat_max),
                       rng.uniform(BBOX.lon_min, BBOX.lon_max))
            u, v = normalize_coords(p, BBOX)
            q = denormalize_coords(u, v, BBOX)
            assert abs(q.lat - p.lat) < 1e-12
            assert abs(q.lon - p.lon) < 1e-12


class TestTraining:
    def test_zero_epochs_returns_initialized_model(self):
        pts = gaussian_points((0.0, 0.0), 0.1, 50, 1)
        model, history = train_gan(pts, TrainConfig(epochs=0, seed=3), BBOX)
        assert history.g_loss == []
        out = model.generate_normalized(100, np.random.default_rng(0))
        assert np.all(np.abs(out) <= 1.0)

    def test_empty_data_fatal(self):
        with pytest.raises(ValueError):
            train_gan([], TrainConfig(epochs=1, seed=0), BBOX)

    def test_one_point_fatal(self):
        # Batch norm needs two rows per batch: one point would train no
        # step and return the model at its random initial weights.
        pts = gaussian_points((0.0, 0.0), 0.1, 1, 2)
        with pytest.raises(ValueError, match="1 point"):
            train_gan(pts, TrainConfig(epochs=3, seed=4), BBOX)

    def test_two_points_train(self):
        pts = gaussian_points((0.0, 0.0), 0.1, 2, 2)
        _, history = train_gan(pts, TrainConfig(epochs=2, seed=4), BBOX)
        assert all(np.isfinite(v) for v in history.g_loss + history.d_loss)

    def test_small_data_shrinks_batch(self):
        pts = gaussian_points((0.0, 0.0), 0.1, 20, 2)
        model, history = train_gan(pts, TrainConfig(epochs=3, seed=4), BBOX)
        assert len(history.g_loss) == 3
        assert all(np.isfinite(v) for v in history.g_loss + history.d_loss)

    def test_training_deterministic(self):
        pts = gaussian_points((0.2, -0.1), 0.1, 80, 5)
        m1, h1 = train_gan(pts, TrainConfig(epochs=4, seed=6), BBOX)
        m2, h2 = train_gan(pts, TrainConfig(epochs=4, seed=6), BBOX)
        for p1, p2 in zip(m1.generator.parameters(), m2.generator.parameters()):
            assert np.array_equal(p1, p2)
        for p1, p2 in zip(m1.discriminator.parameters(),
                          m2.discriminator.parameters()):
            assert np.array_equal(p1, p2)
        assert h1.g_loss == h2.g_loss

    def test_discriminator_output_in_unit_interval(self):
        pts = gaussian_points((0.0, 0.0), 0.2, 60, 7)
        model, _ = train_gan(pts, TrainConfig(epochs=2, seed=8), BBOX)
        x = np.random.default_rng(1).uniform(-50, 50, (20, 2)).astype(DTYPE)
        p = model.discriminator.forward(x, training=False)
        assert np.all((p > 0.0) & (p < 1.0))


@pytest.fixture(scope="module")
def patrol_model():
    pts = gaussian_points((0.1, 0.1), 0.1, 100, 9)
    model, _ = train_gan(pts, TrainConfig(epochs=3, seed=10), BBOX)
    return model


class TestSamplePatrol:

    def test_sixty_points_inside_bbox(self, patrol_model):
        pts = sample_patrol(patrol_model, 60, np.random.default_rng(11))
        assert len(pts) == 60
        assert all(BBOX.contains(p) for p in pts)

    def test_same_seed_identical(self, patrol_model):
        a = sample_patrol(patrol_model, 10, np.random.default_rng(12))
        b = sample_patrol(patrol_model, 10, np.random.default_rng(12))
        assert a == b

    def test_single_point(self, patrol_model):
        pts = sample_patrol(patrol_model, 1, np.random.default_rng(13))
        assert len(pts) == 1 and BBOX.contains(pts[0])

    def test_zero_officers_fatal(self, patrol_model):
        with pytest.raises(ValueError):
            sample_patrol(patrol_model, 0, np.random.default_rng(0))

    def test_containment_for_untrained_model(self):
        model = GanModel(BBOX, seed=123)
        for seed in range(5):
            pts = sample_patrol(model, 50, np.random.default_rng(seed))
            assert all(BBOX.contains(p) for p in pts)


def labeled_two_cluster(n_per, seed, n_neither=10):
    rng = np.random.default_rng(seed)
    out = []
    for center, label, count in (((-0.5, 0.0), "Black", n_per),
                                 ((0.5, 0.0), "White", n_per),
                                 ((0.0, 0.5), "Neither", n_neither)):
        uv = np.clip(rng.normal(center, 0.06, size=(count, 2)), -0.99, 0.99)
        out.extend((denormalize_coords(u, v, BBOX), label) for u, v in uv)
    return out


def train_conditional(data, cfg):
    return train_gan([p for p, _ in data], cfg, BBOX,
                     [lab for _, lab in data])


class TestConditional:
    def test_single_label_fatal(self):
        data = [(p, "Black") for p, _ in labeled_two_cluster(10, 1)]
        with pytest.raises(ValueError):
            train_conditional(data, TrainConfig(epochs=1, seed=0))

    def test_unknown_label_fatal(self):
        data = labeled_two_cluster(5, 2) + [(BBOX.center, "Martian")]
        with pytest.raises(ValueError):
            train_conditional(data, TrainConfig(epochs=1, seed=0))

    def test_sample_conditional_in_bbox(self):
        model, _ = train_conditional(labeled_two_cluster(20, 3),
                                     TrainConfig(epochs=2, seed=14))
        pts = sample_patrol(model, 10, np.random.default_rng(15), "Black")
        assert len(pts) == 10
        assert all(BBOX.contains(p) for p in pts)

    def test_sample_conditional_requires_conditional_model(self):
        model = GanModel(BBOX, conditional=False)
        with pytest.raises(ValueError):
            sample_patrol(model, 5, np.random.default_rng(0), "Black")

    def test_conditional_model_requires_a_label(self):
        model = GanModel(BBOX, conditional=True)
        with pytest.raises(ValueError):
            sample_patrol(model, 5, np.random.default_rng(0))


@pytest.fixture(scope="module")
def cond_model():
    model, _ = train_conditional(labeled_two_cluster(20, 4),
                                 TrainConfig(epochs=2, seed=16))
    return model


class TestRebalance:

    def test_thirty_percent_of_hundred(self, cond_model):
        real = labeled_two_cluster(45, 5)  # 45+45+10 = 100
        out = rebalance_training_set(real, cond_model,
                                     np.random.default_rng(17), 0.30)
        assert len(out) == 100
        synth = out[70:]
        counts = {lab: sum(1 for _, l in synth if l == lab)
                  for lab in RACE_GROUPS}
        assert counts == {"Black": 10, "White": 10, "Neither": 10}

    def test_zero_fraction_identity(self, cond_model):
        real = labeled_two_cluster(5, 6)
        out = rebalance_training_set(real, cond_model,
                                     np.random.default_rng(18), 0.0)
        assert out == real

    def test_small_n_round_robin(self, cond_model):
        real = labeled_two_cluster(4, 7, n_neither=2)  # n = 10
        out = rebalance_training_set(real, cond_model,
                                     np.random.default_rng(19), 0.30)
        assert len(out) == 10
        synth = out[7:]
        labels = sorted(lab for _, lab in synth)
        assert labels == ["Black", "Neither", "White"]

    def test_label_counts_within_one_of_equal(self, cond_model):
        rng = np.random.default_rng(20)
        for n in (10, 33, 100, 101):
            real = [(BBOX.center, "Black")] * n
            out = rebalance_training_set(real, cond_model, rng, 0.30)
            assert len(out) == n
            n_synth = int(0.30 * n)
            synth = out[n - n_synth:]
            counts = [sum(1 for _, l in synth if l == lab)
                      for lab in RACE_GROUPS]
            assert max(counts) - min(counts) <= 1
            assert sum(counts) == n_synth

    def test_unconditional_model_fatal(self):
        model = GanModel(BBOX, conditional=False)
        with pytest.raises(ValueError):
            rebalance_training_set([(BBOX.center, "Black")] * 10, model,
                                   np.random.default_rng(0))


def max_rel_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


class TestFloat32:
    """The GAN trains in float32; float64 is the reference it must match."""

    @pytest.mark.parametrize("conditional", [False, True])
    def test_matches_float64_reference(self, monkeypatch, conditional):
        model = GanModel(BBOX, conditional, seed=21)
        monkeypatch.setattr(gan, "DTYPE", np.float64)
        ref = GanModel(BBOX, conditional, seed=21)
        for net, ref_net in ((model.generator, ref.generator),
                             (model.discriminator, ref.discriminator)):
            for p, p64 in zip(net.parameters(), ref_net.parameters()):
                assert p.dtype == np.float32 and p64.dtype == np.float64
                p64[...] = p  # the same weights, widened
        rng = np.random.default_rng(22)
        n_labels = 3 if conditional else 0
        onehot = np.eye(3)[rng.integers(0, 3, 64)][:, :n_labels]
        g_in = np.hstack([rng.standard_normal((64, LATENT_DIM)), onehot])
        d_in = np.hstack([rng.uniform(-1, 1, (64, 2)), onehot])
        for net, ref_net, x in ((model.generator, ref.generator, g_in),
                                (model.discriminator, ref.discriminator,
                                 d_in)):
            x = x.astype(np.float32)
            # Batch statistics and dropout on; equal seeds draw equal masks.
            out = net.forward(x, True, np.random.default_rng(23))
            out64 = ref_net.forward(x.astype(np.float64), True,
                                    np.random.default_rng(23))
            assert out.dtype == np.float32
            assert max_rel_error(out, out64) < 1e-4
            g = rng.standard_normal(out.shape)
            grad_in = net.backward(g.astype(np.float32))
            assert max_rel_error(grad_in, ref_net.backward(g)) < 1e-4
            for grad, grad64 in zip(net.gradients(), ref_net.gradients()):
                assert grad.dtype == np.float32
                assert max_rel_error(grad, grad64) < 1e-4

    @pytest.mark.parametrize("labeled", [False, True])
    def test_training_state_is_float32(self, monkeypatch, labeled):
        optimizers = []

        class RecordingAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)
        monkeypatch.setattr(gan, "Adam", RecordingAdam)
        data = labeled_two_cluster(20, 24)
        labels = [lab for _, lab in data] if labeled else None
        model, history = train_gan([p for p, _ in data],
                                   TrainConfig(epochs=2, seed=25), BBOX,
                                   labels)
        assert len(optimizers) == 2
        arrays = [a for opt in optimizers for a in opt.params + opt.m + opt.v]
        for net in (model.generator, model.discriminator):
            arrays += net.parameters() + net.gradients()
            arrays += [a for layer in net.layers
                       if isinstance(layer, BatchNorm)
                       for a in (layer.running_mean, layer.running_var)]
        # 22 parameters, each with a gradient and two moments; 3 batch norms.
        assert len(arrays) == 5 * 22 + 2 * 3
        assert all(a.dtype == np.float32 for a in arrays)
        assert all(np.isfinite(v) for v in history.g_loss + history.d_loss)

    def test_sample_patrol_coordinates_are_float64(self, patrol_model):
        pts = sample_patrol(patrol_model, 5, np.random.default_rng(26))
        uv = patrol_model.generate_normalized(5, np.random.default_rng(26))
        assert uv.dtype == np.float32
        for p, (u, v) in zip(pts, uv):
            assert type(p.lat) is np.float64 and type(p.lon) is np.float64
            assert p == denormalize_coords(float(u), float(v), BBOX)
