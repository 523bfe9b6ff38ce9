import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim import gan
from patrolsim.gan import (DTYPE, LATENT_DIM, GanModel, TrainConfig,
                           denormalize_coords, normalize_coords,
                           rebalance_training_set, sample_patrol, train_gan)
from patrolsim.geodata import BoundingBox
from patrolsim.ingest import RACE_GROUPS
from patrolsim.neuralnet import Adam, BatchNorm, Dense
from test_geodata import LatLon, bbox_center

BBOX = BoundingBox(39.20, 39.37, -76.71, -76.53)


def to_points(uv, bbox=BBOX):
    """(n, 2) (lat, lon) rows of normalized (u, v) rows."""
    return np.column_stack(denormalize_coords(uv[:, 0], uv[:, 1], bbox))


def gaussian_points(center_uv, sigma, n, seed):
    rng = np.random.default_rng(seed)
    uv = np.clip(rng.normal(center_uv, sigma, size=(n, 2)), -0.99, 0.99)
    return to_points(uv)


def in_box(points, bbox=BBOX):
    return all(bbox.contains(LatLon(lat, lon)) for lat, lon in points.tolist())


# The per-point formulas the array forms replace, kept as their oracle.
def oracle_normalize(p: LatLon, bbox):
    u = 2.0 * (p.lat - bbox.lat_min) / (bbox.lat_max - bbox.lat_min) - 1.0
    v = 2.0 * (p.lon - bbox.lon_min) / (bbox.lon_max - bbox.lon_min) - 1.0
    return u, v


def oracle_denormalize(u, v, bbox):
    lat = bbox.lat_min + (u + 1.0) / 2.0 * (bbox.lat_max - bbox.lat_min)
    lon = bbox.lon_min + (v + 1.0) / 2.0 * (bbox.lon_max - bbox.lon_min)
    return lat, lon


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    uint = {4: np.uint32, 8: np.uint64}[a.itemsize]
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(uint), b.view(uint)))


@st.composite
def boxes_and_points(draw):
    """A bounding box and up to 40 points in it, as Python floats."""
    lat_min = draw(st.floats(-90.0, 89.0))
    lon_min = draw(st.floats(-180.0, 179.0))
    lat_max = draw(st.floats(lat_min + 1e-6, min(90.0, lat_min + 1.0)))
    lon_max = draw(st.floats(lon_min + 1e-6, min(180.0, lon_min + 1.0)))
    bbox = BoundingBox(lat_min, lat_max, lon_min, lon_max)
    points = draw(st.lists(st.tuples(st.floats(lat_min, lat_max),
                                     st.floats(lon_min, lon_max)),
                           max_size=40))
    return bbox, points


class TestCoordinateMap:
    def test_center_maps_to_origin(self):
        u, v = normalize_coords(bbox_center(BBOX).lat, bbox_center(BBOX).lon,
                                BBOX)
        assert (u, v) == pytest.approx((0.0, 0.0))

    def test_corner_maps_to_minus_one(self):
        u, v = normalize_coords(BBOX.lat_min, BBOX.lon_min, BBOX)
        assert (u, v) == (-1.0, -1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = LatLon(rng.uniform(BBOX.lat_min, BBOX.lat_max),
                       rng.uniform(BBOX.lon_min, BBOX.lon_max))
            u, v = normalize_coords(p.lat, p.lon, BBOX)
            lat, lon = denormalize_coords(u, v, BBOX)
            assert abs(lat - p.lat) < 1e-12
            assert abs(lon - p.lon) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(boxes_and_points(), st.integers(0, 2 ** 32 - 1))
    def test_arrays_match_the_per_point_formulas(self, box_points, seed):
        # Bit for bit, in float64 and after the cast to the GAN's float32.
        bbox, points = box_points
        xy = np.array(points, dtype=float).reshape(-1, 2)
        uv = np.column_stack(normalize_coords(xy[:, 0], xy[:, 1], bbox))
        want = np.array([oracle_normalize(LatLon(*p), bbox) for p in points],
                        dtype=float).reshape(-1, 2)
        assert same_bits(uv, want)
        assert same_bits(uv.astype(DTYPE), want.astype(DTYPE))
        # Generator outputs: float32 in [-1, 1], widened before mapping back.
        out = np.random.default_rng(seed).uniform(-1, 1, (len(points), 2))
        out = np.vstack([out, [[-1.0, 1.0]]]).astype(DTYPE).astype(float)
        back = to_points(out, bbox)
        want = np.array([oracle_denormalize(u, v, bbox) for u, v in out])
        assert same_bits(back, want)
        assert same_bits(back.astype(DTYPE), want.astype(DTYPE))


class TestTraining:
    def test_zero_epochs_returns_initialized_model(self):
        pts = gaussian_points((0.0, 0.0), 0.1, 50, 1)
        model, collapsed = train_gan(pts, TrainConfig(epochs=0), BBOX, 3)
        assert collapsed is False
        assert same_bits(model.generator.parameters()[0],
                         GanModel(BBOX, seed=3).generator.parameters()[0])
        out = model.generate_normalized(100, np.random.default_rng(0))
        assert np.all(np.abs(out) <= 1.0)

    def test_empty_data_fatal(self):
        with pytest.raises(ValueError):
            train_gan(np.empty((0, 2)), TrainConfig(epochs=1), BBOX, 0)

    def test_one_point_fatal(self):
        # Batch norm needs two rows per batch: one point would train no
        # step and return the model at its random initial weights.
        pts = gaussian_points((0.0, 0.0), 0.1, 1, 2)
        with pytest.raises(ValueError, match="1 point"):
            train_gan(pts, TrainConfig(epochs=3), BBOX, 4)

    def test_two_points_train(self):
        pts = gaussian_points((0.0, 0.0), 0.1, 2, 2)
        model, collapsed = train_gan(pts, TrainConfig(epochs=2), BBOX, 4)
        assert type(collapsed) is bool
        assert all(np.isfinite(p).all() for p in model.generator.parameters()
                   + model.discriminator.parameters())

    def test_small_data_shrinks_batch(self, monkeypatch):
        # 20 points fill no batch of 64: the batch shrinks to 10, so each
        # epoch takes two steps of a discriminator and a generator update.
        steps = []

        class CountingAdam(Adam):
            def step(self, grads):
                steps.append(len(grads))
                super().step(grads)
        monkeypatch.setattr(gan, "Adam", CountingAdam)
        pts = gaussian_points((0.0, 0.0), 0.1, 20, 2)
        train_gan(pts, TrainConfig(epochs=3), BBOX, 4)
        assert len(steps) == 3 * 2 * 2

    def test_divergence_raises(self, monkeypatch):
        # A weight turned NaN after the first update spreads to the next
        # forward pass, which raises on its non-finite activations.
        class PoisoningAdam(Adam):
            def step(self, grads):
                super().step(grads)
                self.params[0][0, 0] = np.nan
        monkeypatch.setattr(gan, "Adam", PoisoningAdam)
        pts = gaussian_points((0.0, 0.0), 0.1, 20, 2)
        with pytest.raises(FloatingPointError, match="non-finite activations"):
            train_gan(pts, TrainConfig(epochs=3), BBOX, 4)

    def test_training_deterministic(self):
        pts = gaussian_points((0.2, -0.1), 0.1, 80, 5)
        m1, c1 = train_gan(pts, TrainConfig(epochs=4), BBOX, 6)
        m2, c2 = train_gan(pts, TrainConfig(epochs=4), BBOX, 6)
        for p1, p2 in zip(m1.generator.parameters(), m2.generator.parameters()):
            assert np.array_equal(p1, p2)
        for p1, p2 in zip(m1.discriminator.parameters(),
                          m2.discriminator.parameters()):
            assert np.array_equal(p1, p2)
        assert c1 == c2

    def test_discriminator_output_in_unit_interval(self):
        pts = gaussian_points((0.0, 0.0), 0.2, 60, 7)
        model, _ = train_gan(pts, TrainConfig(epochs=2), BBOX, 8)
        x = np.random.default_rng(1).uniform(-50, 50, (20, 2)).astype(DTYPE)
        p = model.discriminator.forward(x, training=False)
        assert np.all((p > 0.0) & (p < 1.0))

    @pytest.mark.parametrize("labeled", [False, True])
    def test_training_rows_are_the_per_point_formulas(self, monkeypatch,
                                                      labeled):
        # The rows the networks train on: each point normalized in float64
        # by the per-point formulas, then rounded to float32.
        seen = []
        monkeypatch.setattr(gan, "_train_loop",
                            lambda model, real, groups, cfg, seed:
                            seen.append((real, groups)) or False)
        points, groups = labeled_two_cluster(20, 27)
        train_gan(points, TrainConfig(epochs=1), BBOX, 28,
                  groups if labeled else None)
        [(real, got_groups)] = seen
        want = np.array([oracle_normalize(LatLon(*p), BBOX)
                         for p in points.tolist()], dtype=DTYPE)
        assert same_bits(real, want)
        assert real.flags.c_contiguous
        assert got_groups is (groups if labeled else None)


@pytest.fixture(scope="module")
def patrol_model():
    pts = gaussian_points((0.1, 0.1), 0.1, 100, 9)
    model, _ = train_gan(pts, TrainConfig(epochs=3), BBOX, 10)
    return model


class TestSamplePatrol:

    def test_sixty_points_inside_bbox(self, patrol_model):
        pts = sample_patrol(patrol_model, 60, np.random.default_rng(11))
        assert pts.shape == (60, 2)
        assert in_box(pts)

    def test_same_seed_identical(self, patrol_model):
        a = sample_patrol(patrol_model, 10, np.random.default_rng(12))
        b = sample_patrol(patrol_model, 10, np.random.default_rng(12))
        assert same_bits(a, b)

    def test_single_point(self, patrol_model):
        pts = sample_patrol(patrol_model, 1, np.random.default_rng(13))
        assert pts.shape == (1, 2) and in_box(pts)

    def test_zero_officers_fatal(self, patrol_model):
        with pytest.raises(ValueError):
            sample_patrol(patrol_model, 0, np.random.default_rng(0))

    def test_containment_for_untrained_model(self):
        model = GanModel(BBOX, seed=123)
        for seed in range(5):
            pts = sample_patrol(model, 50, np.random.default_rng(seed))
            assert in_box(pts)


BLACK, WHITE, NEITHER = range(3)  # indices into RACE_GROUPS
CENTER = np.array([[bbox_center(BBOX).lat, bbox_center(BBOX).lon]])


def labeled_two_cluster(n_per, seed, n_neither=10):
    """(points, groups): two large clusters and a small third group."""
    rng = np.random.default_rng(seed)
    uv, groups = [], []
    for center, group, count in (((-0.5, 0.0), BLACK, n_per),
                                 ((0.5, 0.0), WHITE, n_per),
                                 ((0.0, 0.5), NEITHER, n_neither)):
        uv.append(np.clip(rng.normal(center, 0.06, size=(count, 2)),
                          -0.99, 0.99))
        groups += [group] * count
    return to_points(np.vstack(uv)), np.array(groups)


def train_conditional(data, cfg, seed):
    points, groups = data
    return train_gan(points, cfg, BBOX, seed, groups)


class TestConditional:
    def test_single_label_fatal(self):
        points, _ = labeled_two_cluster(10, 1)
        with pytest.raises(ValueError, match="White"):
            train_conditional((points, np.zeros(len(points), int)),
                              TrainConfig(epochs=1), 0)

    def test_unknown_label_fatal(self):
        points, groups = labeled_two_cluster(5, 2)
        points = np.vstack([points, CENTER])
        for unknown in (len(RACE_GROUPS), -1):
            with pytest.raises(ValueError):
                train_conditional((points, np.append(groups, unknown)),
                                  TrainConfig(epochs=1), 0)
        with pytest.raises(ValueError):  # one group short
            train_conditional((points, groups), TrainConfig(epochs=1), 0)

    def test_sample_conditional_in_bbox(self):
        model, _ = train_conditional(labeled_two_cluster(20, 3),
                                     TrainConfig(epochs=2), 14)
        pts = sample_patrol(model, 10, np.random.default_rng(15), BLACK)
        assert pts.shape == (10, 2)
        assert in_box(pts)

    def test_sample_conditional_requires_conditional_model(self):
        model = GanModel(BBOX, conditional=False)
        with pytest.raises(ValueError):
            sample_patrol(model, 5, np.random.default_rng(0), BLACK)

    def test_conditional_model_requires_a_label(self):
        model = GanModel(BBOX, conditional=True)
        with pytest.raises(ValueError):
            sample_patrol(model, 5, np.random.default_rng(0))


@pytest.fixture(scope="module")
def cond_model():
    model, _ = train_conditional(labeled_two_cluster(20, 4),
                                 TrainConfig(epochs=2), 16)
    return model


@pytest.fixture
def sampled(monkeypatch):
    """The (group, rows) of each sample_patrol call, in call order."""
    calls = []
    real = gan.sample_patrol

    def recording(model, n, rng, group=None):
        rows = real(model, n, rng, group)
        calls.append((group, rows))
        return rows
    monkeypatch.setattr(gan, "sample_patrol", recording)
    return calls


def group_counts(calls):
    counts = [0] * len(RACE_GROUPS)
    for group, rows in calls:
        counts[group] += len(rows)
    return counts


def is_kept_subsequence(kept, real):
    """Whether the rows of `kept` are rows of `real`, in `real`'s order."""
    rows = iter(real.tolist())
    return all(row in rows for row in kept.tolist())


class TestRebalance:

    def test_thirty_percent_of_hundred(self, cond_model, sampled):
        real, _ = labeled_two_cluster(45, 5)  # 45+45+10 = 100
        out = rebalance_training_set(real, cond_model,
                                     np.random.default_rng(17), 0.30)
        assert out.shape == (100, 2)
        assert group_counts(sampled) == [10, 10, 10]
        assert [g for g, _ in sampled] == [BLACK, WHITE, NEITHER]
        assert same_bits(out[70:], np.vstack([rows for _, rows in sampled]))
        assert is_kept_subsequence(out[:70], real)

    def test_zero_fraction_identity(self, cond_model, sampled):
        real, _ = labeled_two_cluster(5, 6)
        rng = np.random.default_rng(18)
        state = rng.bit_generator.state
        out = rebalance_training_set(real, cond_model, rng, 0.0)
        assert same_bits(out, real)
        assert rng.bit_generator.state == state
        assert sampled == []

    def test_small_n_round_robin(self, cond_model, sampled):
        real, _ = labeled_two_cluster(4, 7, n_neither=2)  # n = 10
        out = rebalance_training_set(real, cond_model,
                                     np.random.default_rng(19), 0.30)
        assert out.shape == (10, 2)
        assert group_counts(sampled) == [1, 1, 1]

    @pytest.mark.parametrize("n_synth,counts", [
        (1, [1, 0, 0]), (2, [1, 1, 0]), (3, [1, 1, 1]), (4, [2, 1, 1])])
    def test_few_synthetic_rows_follow_round_robin(self, cond_model, sampled,
                                                   n_synth, counts):
        real, _ = labeled_two_cluster(4, 8, n_neither=2)  # n = 10
        out = rebalance_training_set(real, cond_model,
                                     np.random.default_rng(21), n_synth / 10)
        assert out.shape == (10, 2)
        assert group_counts(sampled) == counts
        # Groups that get no row are not sampled at all.
        assert [g for g, _ in sampled] == [g for g in range(3) if counts[g]]
        assert is_kept_subsequence(out[:10 - n_synth], real)

    def test_label_counts_within_one_of_equal(self, cond_model, sampled):
        rng = np.random.default_rng(20)
        for n in (10, 33, 100, 101):
            sampled.clear()
            real = np.repeat(CENTER, n, axis=0)
            out = rebalance_training_set(real, cond_model, rng, 0.30)
            assert out.shape == (n, 2)
            n_synth = int(0.30 * n)
            counts = group_counts(sampled)
            assert max(counts) - min(counts) <= 1
            assert sum(counts) == n_synth

    def test_unconditional_model_fatal(self):
        model = GanModel(BBOX, conditional=False)
        with pytest.raises(ValueError):
            rebalance_training_set(np.repeat(CENTER, 10, axis=0), model,
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

            def step(self, grads):
                # A trained model drops its gradients, and `step` consumes
                # the list it is given: keep the last ones.
                self.grads = list(grads)
                super().step(grads)
        monkeypatch.setattr(gan, "Adam", RecordingAdam)
        points, groups = labeled_two_cluster(20, 24)
        model, _ = train_gan(points, TrainConfig(epochs=2), BBOX, 25,
                             groups if labeled else None)
        assert len(optimizers) == 2
        arrays = [a for opt in optimizers
                  for a in opt.params + opt.grads + opt.m + opt.v]
        for net in (model.generator, model.discriminator):
            arrays += net.parameters()
            arrays += [a for layer in net.layers
                       if isinstance(layer, BatchNorm)
                       for a in (layer.running_mean, layer.running_var)]
        # 22 parameters, each with a gradient and two moments; 3 batch norms.
        assert len(arrays) == 5 * 22 + 2 * 3
        assert all(a.dtype == np.float32 for a in arrays)
        assert all(np.isfinite(a).all() for a in arrays)

    def test_sample_patrol_coordinates_are_float64(self, patrol_model):
        pts = sample_patrol(patrol_model, 5, np.random.default_rng(26))
        uv = patrol_model.generate_normalized(5, np.random.default_rng(26))
        assert uv.dtype == np.float32
        assert pts.dtype == np.float64 and pts.shape == (5, 2)
        assert in_box(pts)
        assert same_bits(pts, np.array([oracle_denormalize(u, v, BBOX)
                                        for u, v in uv.tolist()]))


def held_arrays(layer):
    """Every array a layer holds, inside its lists and tuples too."""
    held = []
    for value in vars(layer).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        held += [a for a in items if isinstance(a, np.ndarray)]
    return held


class TestTrainedModelMemory:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_trained_model_keeps_only_its_weights(self, labeled):
        # Two clusters, so the patrol GAN's collapse check samples 500 rows.
        points, groups = labeled_two_cluster(20, 27)
        model, _ = train_gan(points, TrainConfig(epochs=2), BBOX, 28,
                             groups if labeled else None)
        weights = 0
        for net in (model.generator, model.discriminator):
            for layer in net.layers:
                if not isinstance(layer, (Dense, BatchNorm)):
                    continue
                kept = list(layer.params)
                if isinstance(layer, BatchNorm):
                    kept += [layer.running_mean, layer.running_var]
                assert layer.grads == []
                assert all(any(a is k for k in kept)
                           for a in held_arrays(layer))
                weights += sum(a.nbytes for a in kept)
        assert len(pickle.dumps(model)) <= 1.3 * weights


class TestStepLifetimes:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_no_network_holds_state_while_adam_steps(self, monkeypatch,
                                                     labeled):
        # Each Adam update runs with both networks released: no forward
        # cache and no gradient list, only the list the step consumes.
        models, seen = [], []

        class RecordingModel(GanModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        class CheckingAdam(Adam):
            def step(self, grads):
                (model,) = models
                layers = (model.generator.layers
                          + model.discriminator.layers)
                seen.append([(type(layer).__name__, "_cache")
                             for layer in layers
                             if layer._cache is not None]
                            + [(type(layer).__name__, "grads")
                               for layer in layers if layer.grads])
                super().step(grads)
        monkeypatch.setattr(gan, "GanModel", RecordingModel)
        monkeypatch.setattr(gan, "Adam", CheckingAdam)
        points, groups = labeled_two_cluster(20, 29)
        train_gan(points, TrainConfig(epochs=2), BBOX, 30,
                  groups if labeled else None)
        # 50 points at batch 25 (n < 2 * 64): two steps per epoch, each
        # with a discriminator and a generator update.
        assert seen == [[]] * 8


def oracle_two_means(points, rng):
    """2-means at a fixed 20 Lloyd iterations, which `_two_means` may stop
    early."""
    centers = points[rng.choice(points.shape[0], 2, replace=False)]
    for _ in range(20):
        d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        assign = d.argmin(axis=1)
        for k in (0, 1):
            if np.any(assign == k):
                centers[k] = points[assign == k].mean(axis=0)
    return centers


class TestTwoMeans:
    def test_matches_twenty_iterations(self):
        rng = np.random.default_rng(29)
        for trial in range(300):
            n = int(rng.integers(4, 400))
            kind = trial % 3
            if kind == 0:  # unimodal
                points = rng.normal(0.0, 0.3, (n, 2))
            elif kind == 1:  # bimodal
                points = rng.normal(0.0, 0.1, (n, 2))
                points[: n // 3] += rng.uniform(-1, 1, 2)
            else:  # a coarse lattice: repeated points and equal distances
                points = rng.integers(-3, 4, (n, 2)) / 4
            points = points.astype(DTYPE)
            seed = int(rng.integers(2 ** 32))
            got_rng, want_rng = (np.random.default_rng(seed),
                                 np.random.default_rng(seed))
            assert same_bits(gan._two_means(points, got_rng),
                             oracle_two_means(points, want_rng))
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state)
