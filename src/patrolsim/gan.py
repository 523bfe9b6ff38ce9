"""Patrol-placement GAN and its label-conditioned variant, which is the
same GAN with one-hot group label columns appended to the inputs of both
networks; the patrol GAN has zero label columns.

Generator: 100-d latent -> 256 -> 512 -> 256 -> 2, batch norm + LeakyReLU
between dense blocks, tanh output. Discriminator: 2 -> 512 -> 256 -> 128
-> 1 with LeakyReLU and dropout 0.3, sigmoid output. Coordinates are
normalized affinely into [-1, 1]^2 from the run's bounding box, so every
generated point lands inside the box by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geodata import BoundingBox, LatLon
from .ingest import RACE_GROUPS
from .neuralnet import (Adam, BatchNorm, Dense, Dropout, LeakyReLU, Network,
                        Sigmoid, Tanh, bce_loss)

LATENT_DIM = 100

# Fraction of generated mass a mode must attract before the run is flagged
# as collapsed onto the other mode.
MODE_COLLAPSE_MIN_SHARE = 0.05


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch norm)")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")


@dataclass
class LossHistory:
    g_loss: list[float] = field(default_factory=list)
    d_loss: list[float] = field(default_factory=list)
    mode_collapsed: bool = False


def normalize_coords(p: LatLon, bbox: BoundingBox) -> tuple[float, float]:
    u = 2.0 * (p.lat - bbox.lat_min) / (bbox.lat_max - bbox.lat_min) - 1.0
    v = 2.0 * (p.lon - bbox.lon_min) / (bbox.lon_max - bbox.lon_min) - 1.0
    return u, v


def denormalize_coords(u: float, v: float, bbox: BoundingBox) -> LatLon:
    lat = bbox.lat_min + (u + 1.0) / 2.0 * (bbox.lat_max - bbox.lat_min)
    lon = bbox.lon_min + (v + 1.0) / 2.0 * (bbox.lon_max - bbox.lon_min)
    return LatLon(lat, lon)


def _points_to_array(points, bbox: BoundingBox) -> np.ndarray:
    return np.array([normalize_coords(p, bbox) for p in points], dtype=float)


def _one_hot(labels: list[str] | None, n: int) -> np.ndarray:
    """The label columns appended to the n rows of a network input: one-hot
    over RACE_GROUPS, or none at all for the patrol GAN (labels None)."""
    if labels is None:
        return np.empty((n, 0))
    if len(labels) != n:
        raise ValueError(f"need one label per row, got {len(labels)} for {n}")
    out = np.zeros((n, len(RACE_GROUPS)))
    for row, lab in enumerate(labels):
        out[row, RACE_GROUPS.index(lab)] = 1.0
    return out


class GanModel:
    def __init__(self, bbox: BoundingBox, conditional: bool = False,
                 seed: int = 0):
        self.bbox = bbox
        self.conditional = conditional
        n_labels = len(RACE_GROUPS) if conditional else 0  # label columns
        g_in = LATENT_DIM + n_labels
        rng = np.random.default_rng(seed)
        self.generator = Network([
            Dense(g_in, 256, rng), BatchNorm(256), LeakyReLU(0.2),
            Dense(256, 512, rng), BatchNorm(512), LeakyReLU(0.2),
            Dense(512, 256, rng), BatchNorm(256), LeakyReLU(0.2),
            Dense(256, 2, rng), Tanh(),
        ])
        self.discriminator = Network([
            Dense(2 + n_labels, 512, rng), LeakyReLU(0.2), Dropout(0.3),
            Dense(512, 256, rng), LeakyReLU(0.2), Dropout(0.3),
            Dense(256, 128, rng), LeakyReLU(0.2),
            Dense(128, 1, rng), Sigmoid(),
        ])

    def generate_normalized(self, n: int, rng: np.random.Generator,
                            labels: list[str] | None = None) -> np.ndarray:
        """Inference-mode generator pass: running BN stats, no dropout. A
        conditional model needs one label per sample, the patrol GAN none."""
        if (labels is not None) != self.conditional:
            raise ValueError("a conditional model needs labels, the patrol "
                             "GAN takes none")
        z = rng.standard_normal((n, LATENT_DIM))
        return self.generator.forward(np.hstack([z, _one_hot(labels, n)]),
                                      training=False)


def _train_loop(model: GanModel, real: np.ndarray, labels: list[str] | None,
                cfg: TrainConfig) -> LossHistory:
    n = real.shape[0]
    if n < 2:
        # Batch norm needs batches of >= 2 rows, so fewer points would
        # train zero steps and leave the model at its random weights.
        raise ValueError(f"cannot train GAN on {n} point(s), need >= 2")
    batch = cfg.batch_size
    if n < 2 * batch:
        batch = max(2, n // 2)

    rng = np.random.default_rng(cfg.seed)
    g_opt = Adam(model.generator.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    d_opt = Adam(model.discriminator.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    # The patrol GAN has no label columns: each hstack copies its input.
    onehot = _one_hot(labels, n)
    # Training-by-sampling for the conditional variant: labels are drawn
    # uniformly over the present groups and real rows resampled within the
    # drawn label, so minority groups are not drowned out by class imbalance.
    if labels is not None:
        label_pools = [np.array([i for i, lab in enumerate(labels) if lab == g])
                       for g in RACE_GROUPS if g in set(labels)]
    history = LossHistory()

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        g_losses, d_losses = [], []
        # Last partial batch dropped: batch norm needs >= 2 rows.
        for start in range(0, n - batch + 1, batch):
            if labels is not None:
                pools = [label_pools[k] for k in
                         rng.integers(0, len(label_pools), batch)]
                idx = np.array([pool[rng.integers(0, len(pool))]
                                for pool in pools])
            else:
                idx = order[start:start + batch]
            x_real = real[idx]
            cond = onehot[idx]

            # Discriminator step: real batch (target 1) + generated (target 0).
            z = rng.standard_normal((batch, LATENT_DIM))
            fake = model.generator.forward(np.hstack([z, cond]), training=True)

            p_real = model.discriminator.forward(np.hstack([x_real, cond]),
                                                 training=True, rng=rng)
            loss_r, grad_r = bce_loss(p_real, np.ones_like(p_real))
            model.discriminator.backward(grad_r)
            grads_r = [g.copy() for g in model.discriminator.gradients()]

            p_fake = model.discriminator.forward(np.hstack([fake, cond]),
                                                 training=True, rng=rng)
            loss_f, grad_f = bce_loss(p_fake, np.zeros_like(p_fake))
            model.discriminator.backward(grad_f)
            for gr, gf in zip(grads_r, model.discriminator.gradients()):
                gr += gf
            d_opt.step(grads_r)
            d_losses.append(loss_r + loss_f)

            # Generator step: non-saturating loss, maximize log D(G(z)).
            z = rng.standard_normal((batch, LATENT_DIM))
            fake = model.generator.forward(np.hstack([z, cond]), training=True)
            p = model.discriminator.forward(np.hstack([fake, cond]),
                                            training=True, rng=rng)
            g_loss, grad_p = bce_loss(p, np.ones_like(p))
            # Input gradient only: the next discriminator step overwrites
            # every discriminator gradient before Adam reads one.
            grad_in = model.discriminator.backward(grad_p, param_grads=False)
            model.generator.backward(grad_in[:, :2])
            g_opt.step(model.generator.gradients())
            g_losses.append(g_loss)

        eg = float(np.mean(g_losses))
        ed = float(np.mean(d_losses))
        if not (np.isfinite(eg) and np.isfinite(ed)):
            raise FloatingPointError(f"non-finite GAN loss at epoch {epoch}")
        history.g_loss.append(eg)
        history.d_loss.append(ed)

    history.mode_collapsed = _detect_mode_collapse(model, real, cfg.seed)
    return history


def _detect_mode_collapse(model: GanModel, real: np.ndarray, seed: int) -> bool:
    """Nearest-mode histogram check against a 2-means split of the data.

    Only meaningful when the data itself is bimodal; unimodal data never
    flags because both 'modes' sit close together.
    """
    if real.shape[0] < 4 or model.conditional:
        return False
    rng = np.random.default_rng(seed ^ 0x5EED)
    # Cheap 2-means on the real data.
    centers = real[rng.choice(real.shape[0], 2, replace=False)]
    for _ in range(20):
        d = np.linalg.norm(real[:, None, :] - centers[None, :, :], axis=2)
        assign = d.argmin(axis=1)
        for k in (0, 1):
            if np.any(assign == k):
                centers[k] = real[assign == k].mean(axis=0)
    if np.linalg.norm(centers[0] - centers[1]) < 0.2:
        return False  # effectively unimodal
    sample = model.generate_normalized(500, rng)
    d = np.linalg.norm(sample[:, None, :] - centers[None, :, :], axis=2)
    share = np.bincount(d.argmin(axis=1), minlength=2) / sample.shape[0]
    return bool(share.min() < MODE_COLLAPSE_MIN_SHARE)


def train_gan(points, cfg: TrainConfig, bbox: BoundingBox,
              labels: list[str] | None = None,
              ) -> tuple[GanModel, LossHistory]:
    """Train the patrol GAN on incident coordinates or, given one group
    label per point, the label-conditioned GAN used for debias
    rebalancing."""
    if labels is not None:
        unknown = sorted(set(labels) - set(RACE_GROUPS))
        if unknown:
            raise ValueError(f"unknown group labels: {unknown}")
        missing = [g for g in RACE_GROUPS if labels.count(g) < 2]
        if missing:
            raise ValueError(f"need >= 2 examples per label, "
                             f"missing: {missing}")
    model = GanModel(bbox, conditional=labels is not None, seed=cfg.seed)
    data = _points_to_array(points, bbox)
    if cfg.epochs == 0:
        return model, LossHistory()
    return model, _train_loop(model, data, labels, cfg)


def sample_patrol(model: GanModel, n: int, rng: np.random.Generator,
                  label: str | None = None) -> list[LatLon]:
    """Draw n locations from the generator in inference mode: patrols from
    the patrol GAN, or points of one group from the conditional GAN."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = None if label is None else [label] * n
    out = model.generate_normalized(n, rng, labels)
    return [denormalize_coords(u, v, model.bbox) for u, v in out]


def rebalance_training_set(real: list[tuple[LatLon, str]], model: GanModel,
                           rng: np.random.Generator,
                           replace_fraction: float = 0.30,
                           ) -> list[tuple[LatLon, str]]:
    """Replace a fraction of real records with group-balanced synthetic ones.

    Output size equals input size; floor(fraction * n) uniformly chosen real
    records are removed and replaced by synthetic records split as equally
    as possible (round-robin) across the three group labels.
    """
    if not model.conditional:
        raise ValueError("rebalancing requires a conditional model")
    if not 0.0 <= replace_fraction < 1.0:
        raise ValueError("replace_fraction must be in [0, 1)")
    n = len(real)
    n_synth = int(replace_fraction * n)
    if n_synth == 0:
        return list(real)
    keep_idx = rng.choice(n, size=n - n_synth, replace=False)
    kept = [real[i] for i in sorted(keep_idx)]
    synth: list[tuple[LatLon, str]] = []
    per_label = [n_synth // len(RACE_GROUPS)] * len(RACE_GROUPS)
    for i in range(n_synth % len(RACE_GROUPS)):
        per_label[i] += 1
    for label, count in zip(RACE_GROUPS, per_label):
        for p in sample_patrol(model, count, rng, label) if count else []:
            synth.append((p, label))
    return kept + synth
