"""Patrol-placement GAN and its label-conditioned variant, which is the
same GAN with one-hot group label columns appended to the inputs of both
networks; the patrol GAN has zero label columns.

Generator: 100-d latent -> 256 -> 512 -> 256 -> 2, batch norm + LeakyReLU
between dense blocks, tanh output. Discriminator: 2 -> 512 -> 256 -> 128
-> 1 with LeakyReLU and dropout 0.3, sigmoid output. Coordinates are
normalized affinely into [-1, 1]^2 from the run's bounding box, so every
generated point lands inside the box by construction.

Points come in and go out as (n, 2) float64 arrays of (lat, lon) rows, and
groups as indices into RACE_GROUPS. Both networks, their training data,
label columns and latent draws are float32 (`DTYPE`); sampled patrols are
widened to float64 before they are mapped back to latitude and longitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .geodata import BoundingBox
from .ingest import RACE_GROUPS
from .neuralnet import (Adam, BatchNorm, Dense, Dropout, LeakyReLU, Network,
                        Sigmoid, Tanh, bce_loss)
from .ranges import check_ranges

LATENT_DIM = 100
# The dtype the GAN trains and samples in.
DTYPE = np.float32

# Fraction of generated mass a mode must attract before the run is flagged
# as collapsed onto the other mode.
MODE_COLLAPSE_MIN_SHARE = 0.05


@dataclass(frozen=True)
class TrainConfig:
    epochs: Annotated[int, "[0, 1e4]"] = 200
    batch_size: Annotated[int, "[2, 1e5]"] = 64  # batch norm needs 2 rows
    lr: Annotated[float, "(0, 1]"] = 2e-4
    beta1: Annotated[float, "[0, 1)"] = 0.5
    beta2: Annotated[float, "[0, 1)"] = 0.999
    __post_init__ = check_ranges


def normalize_coords(lat, lon, bbox: BoundingBox):
    """(u, v) in [-1, 1]^2 of points in the box; floats or arrays."""
    u = 2.0 * (lat - bbox.lat_min) / (bbox.lat_max - bbox.lat_min) - 1.0
    v = 2.0 * (lon - bbox.lon_min) / (bbox.lon_max - bbox.lon_min) - 1.0
    return u, v


def denormalize_coords(u, v, bbox: BoundingBox):
    """(lat, lon) of normalized (u, v); floats or arrays."""
    lat = bbox.lat_min + (u + 1.0) / 2.0 * (bbox.lat_max - bbox.lat_min)
    lon = bbox.lon_min + (v + 1.0) / 2.0 * (bbox.lon_max - bbox.lon_min)
    return lat, lon


def _one_hot(groups: np.ndarray | None, n: int) -> np.ndarray:
    """The label columns appended to the n rows of a network input: one-hot
    over RACE_GROUPS, or none at all for the patrol GAN (groups None)."""
    if groups is None:
        return np.empty((n, 0), DTYPE)
    return np.eye(len(RACE_GROUPS), dtype=DTYPE)[groups]


def _latent(rng: np.random.Generator, n: int) -> np.ndarray:
    """n latent rows, drawn in float64 and rounded to DTYPE."""
    return rng.standard_normal((n, LATENT_DIM)).astype(DTYPE)


class GanModel:
    def __init__(self, bbox: BoundingBox, conditional: bool = False,
                 seed: int = 0):
        self.bbox = bbox
        self.conditional = conditional
        n_labels = len(RACE_GROUPS) if conditional else 0  # label columns
        g_in = LATENT_DIM + n_labels
        rng = np.random.default_rng(seed)

        def dense(n_in, n_out):
            return Dense(n_in, n_out, rng, DTYPE)

        self.generator = Network([
            dense(g_in, 256), BatchNorm(256, DTYPE), LeakyReLU(0.2),
            dense(256, 512), BatchNorm(512, DTYPE), LeakyReLU(0.2),
            dense(512, 256), BatchNorm(256, DTYPE), LeakyReLU(0.2),
            dense(256, 2), Tanh(),
        ])
        self.discriminator = Network([
            dense(2 + n_labels, 512), LeakyReLU(0.2), Dropout(0.3),
            dense(512, 256), LeakyReLU(0.2), Dropout(0.3),
            dense(256, 128), LeakyReLU(0.2),
            dense(128, 1), Sigmoid(),
        ])

    def generate_normalized(self, n: int, rng: np.random.Generator,
                            groups: np.ndarray | None = None) -> np.ndarray:
        """Inference-mode generator pass: running BN stats, no dropout. A
        conditional model needs one group per sample, the patrol GAN none.
        Returns DTYPE rows; the generator keeps no activation caches."""
        if (groups is not None) != self.conditional:
            raise ValueError("a conditional model needs groups, the patrol "
                             "GAN takes none")
        out = self.generator.forward(
            np.hstack([_latent(rng, n), _one_hot(groups, n)]), training=False)
        self.generator.release()
        return out


def _train_loop(model: GanModel, real: np.ndarray, groups: np.ndarray | None,
                cfg: TrainConfig, seed: int) -> bool:
    """Train `model` on the normalized rows `real` for `cfg.epochs` epochs
    with the stream of `seed`; returns the mode-collapse flag."""
    n = real.shape[0]
    if n < 2:
        # Batch norm needs batches of >= 2 rows, so fewer points would
        # train zero steps and leave the model at its random weights.
        raise ValueError(f"cannot train GAN on {n} point(s), need >= 2")
    batch = cfg.batch_size
    if n < 2 * batch:
        batch = max(2, n // 2)

    rng = np.random.default_rng(seed)
    gen, disc = model.generator, model.discriminator
    g_opt = Adam(gen.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    d_opt = Adam(disc.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    # The patrol GAN has no label columns: each hstack copies its input.
    onehot = _one_hot(groups, n)
    # Training-by-sampling for the conditional variant: groups are drawn
    # uniformly and real rows resampled within the drawn group (train_gan
    # checked each has some), so minority groups are not drowned out.
    if groups is not None:
        label_pools = [np.flatnonzero(groups == g)
                       for g in range(len(RACE_GROUPS))]
    # Discriminator targets: the real rows (1) stacked over the fake (0).
    d_targets = np.repeat(np.array([1, 0], DTYPE), batch)[:, None]
    g_targets = np.ones((batch, 1), DTYPE)

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        # Last partial batch dropped: batch norm needs >= 2 rows.
        for start in range(0, n - batch + 1, batch):
            if groups is not None:
                pools = [label_pools[k] for k in
                         rng.integers(0, len(label_pools), batch)]
                idx = np.array([pool[rng.integers(0, len(pool))]
                                for pool in pools])
            else:
                idx = order[start:start + batch]
            x_real = real[idx]
            cond = onehot[idx]

            # Discriminator step: one pass over the real batch (target 1)
            # stacked on a generated one (target 0). The discriminator has
            # no batch norm, so the halves do not interact. The mean over
            # both halves, doubled, is the real loss plus the fake loss.
            # Each forward cache ends at its last read: the generator's
            # here right after the pass, every other one inside the
            # backward that reads it. Each gradient lives from its backward
            # until `Adam.step` has consumed it.
            fake = gen.forward(np.hstack([_latent(rng, batch), cond]),
                               training=True)
            gen.release()  # no backward reads this pass
            p = disc.forward(
                np.hstack([np.vstack([x_real, fake]), np.vstack([cond, cond])]),
                training=True, rng=rng)
            _, grad_p = bce_loss(p, d_targets)
            disc.backward(2.0 * grad_p)
            _update(disc, d_opt)

            # Generator step: non-saturating loss, maximize log D(G(z)).
            fake = gen.forward(np.hstack([_latent(rng, batch), cond]),
                               training=True)
            p = disc.forward(np.hstack([fake, cond]), training=True, rng=rng)
            _, grad_p = bce_loss(p, g_targets)
            # Input gradient only: the next discriminator step assigns
            # every discriminator gradient afresh.
            grad_in = disc.backward(grad_p, param_grads=False)
            gen.backward(grad_in[:, :2])
            _update(gen, g_opt)

    # Training is over: the model keeps only its weights and batch-norm
    # running statistics from here on, the collapse check included (each
    # step already left both networks released).
    del g_opt, d_opt
    return _detect_mode_collapse(model, real, seed)


def _update(net: Network, opt: Adam) -> None:
    """One Adam update of `net` from the gradients its last backward
    assigned. The network is released first, so the step's list holds the
    only reference to each gradient, and each is freed once consumed."""
    grads = net.gradients()
    net.release()
    opt.step(grads)


def _detect_mode_collapse(model: GanModel, real: np.ndarray, seed: int) -> bool:
    """Nearest-mode histogram check against a 2-means split of the data.

    Only meaningful when the data itself is bimodal; unimodal data never
    flags because both 'modes' sit close together.
    """
    if real.shape[0] < 4 or model.conditional:
        return False
    rng = np.random.default_rng(seed ^ 0x5EED)
    centers = _two_means(real, rng)
    if np.linalg.norm(centers[0] - centers[1]) < 0.2:
        return False  # effectively unimodal
    sample = model.generate_normalized(500, rng)
    d = np.linalg.norm(sample[:, None, :] - centers[None, :, :], axis=2)
    share = np.bincount(d.argmin(axis=1), minlength=2) / sample.shape[0]
    return bool(share.min() < MODE_COLLAPSE_MIN_SHARE)


def _two_means(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Cheap 2-means: the two centres, after at most 20 Lloyd iterations
    from two distinct points drawn with `rng`."""
    centers = points[rng.choice(points.shape[0], 2, replace=False)]
    previous = None
    for _ in range(20):
        d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        assign = d.argmin(axis=1)
        if np.array_equal(assign, previous):
            break  # the same means again: the centres are at a fixed point
        for k in (0, 1):
            if np.any(assign == k):
                centers[k] = points[assign == k].mean(axis=0)
        previous = assign
    return centers


def train_gan(points: np.ndarray, cfg: TrainConfig, bbox: BoundingBox,
              seed: int, groups: np.ndarray | None = None,
              ) -> tuple[GanModel, bool]:
    """Train the patrol GAN on (n, 2) incident coordinates or, given each
    point's group index, the label-conditioned GAN used for debias
    rebalancing; `seed` draws the weights and every training draw.

    Returns the model and whether it collapsed onto one mode of bimodal
    data (never for the conditional GAN, nor for zero epochs). A training
    that diverges raises the FloatingPointError of `Network.forward`."""
    if groups is not None:
        # np.bincount rejects a negative index with a ValueError.
        counts = np.bincount(groups, minlength=len(RACE_GROUPS))
        if len(groups) != len(points) or len(counts) > len(RACE_GROUPS):
            raise ValueError(f"need one group index in "
                             f"[0, {len(RACE_GROUPS)}) per point")
        missing = [g for g, c in zip(RACE_GROUPS, counts) if c < 2]
        if missing:
            raise ValueError(f"need >= 2 examples per group, "
                             f"missing: {missing}")
    model = GanModel(bbox, conditional=groups is not None, seed=seed)
    data = np.column_stack(normalize_coords(*points.T, bbox)).astype(DTYPE)
    if cfg.epochs == 0:
        return model, False
    return model, _train_loop(model, data, groups, cfg, seed)


def sample_patrol(model: GanModel, n: int, rng: np.random.Generator,
                  group: int | None = None) -> np.ndarray:
    """Draw n locations, an (n, 2) float64 array of (lat, lon) rows, from
    the generator in inference mode: patrols from the patrol GAN, or points
    of group index `group` from the conditional GAN."""
    if n < 1:
        raise ValueError("n must be >= 1")
    groups = None if group is None else np.full(n, group)
    # Widened first: float32 would round latitudes to about 0.3 m.
    out = model.generate_normalized(n, rng, groups).astype(np.float64)
    return np.column_stack(denormalize_coords(*out.T, model.bbox))


def rebalance_training_set(points: np.ndarray, model: GanModel,
                           rng: np.random.Generator,
                           replace_fraction: float = 0.30) -> np.ndarray:
    """Replace a fraction of real points with group-balanced synthetic ones.

    Output size equals input size; floor(fraction * n) uniformly chosen real
    rows are removed, the others keep their order, and synthetic rows split
    as equally as possible (round-robin) across the groups follow them.
    `replace_fraction` is in [0, 1), the range `DebiasSpec` declares.
    """
    if not model.conditional:
        raise ValueError("rebalancing requires a conditional model")
    n = len(points)
    n_synth = int(replace_fraction * n)
    if n_synth == 0:
        return points
    keep_idx = rng.choice(n, size=n - n_synth, replace=False)
    per_group = [n_synth // len(RACE_GROUPS)] * len(RACE_GROUPS)
    for i in range(n_synth % len(RACE_GROUPS)):
        per_group[i] += 1
    return np.vstack([points[np.sort(keep_idx)]]
                     + [sample_patrol(model, count, rng, g)
                        for g, count in enumerate(per_group) if count])
