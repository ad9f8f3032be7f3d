"""Online multi-output neural surrogate: a small ensemble of single-hidden-
layer tanh networks, used to prescreen candidate designs before spending a
true evaluation.

All members share one z-score scaler and one seeded train/validation split;
they differ only in their init seeds. A single adaptive-moment (Adam) loop,
vectorized across members (weights carry a leading member axis), trains
them: fit() runs it from fresh weights with patience-based early stopping,
and update() runs it for a fixed number of epochs from an existing model,
remapped exactly to the grown dataset's scaler. Either way every member
returns the weights of its best validation score."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPS_STD = 1e-12


@dataclass(frozen=True)
class ScalerStats:
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    @classmethod
    def from_data(cls, x: np.ndarray, y: np.ndarray) -> "ScalerStats":
        return cls(
            x_mean=x.mean(axis=0),
            x_std=np.maximum(x.std(axis=0), EPS_STD),
            y_mean=y.mean(axis=0),
            y_std=np.maximum(y.std(axis=0), EPS_STD),
        )

    def scale_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_mean) / self.x_std

    def scale_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_mean) / self.y_std

    def unscale_y(self, y: np.ndarray) -> np.ndarray:
        return y * self.y_std + self.y_mean


LEARNING_RATE = 1e-3
VAL_FRACTION = 0.2  # share of rows held out for early stopping
N_MEMBERS = 5


@dataclass(frozen=True)
class MlpConfig:
    hidden_width: int | None = None  # None -> max(10, 2 * input dim)
    epochs: int = 2000
    patience: int = 100
    min_delta: float = 1e-6  # smallest val-loss drop that counts as progress

    def __post_init__(self):
        if self.epochs <= 0 or self.patience <= 0:
            raise ValueError("epochs and patience must be positive")

    def resolve_width(self, input_dim: int) -> int:
        return self.hidden_width if self.hidden_width else max(10, 2 * input_dim)


@dataclass
class EnsembleModel:
    w1: np.ndarray  # (members, d, h)
    b1: np.ndarray  # (members, h)
    w2: np.ndarray  # (members, h, k)
    b2: np.ndarray  # (members, k)
    scaler: ScalerStats
    train_log: dict = field(default_factory=dict)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w2.shape[2]


def _forward(w1, b1, w2, b2, x):
    # x: (n, d) -> (members, n, k)
    h = np.tanh(x[None, :, :] @ w1 + b1[:, None, :])
    return h @ w2 + b2[:, None, :], h


def fit(x: np.ndarray, y: np.ndarray, cfg: MlpConfig, seed: int) -> EnsembleModel:
    """Train a fresh ensemble on (x, y) with early stopping on a held-out split.

    Deterministic for a given seed; the returned weights are each member's
    best-validation-epoch snapshot.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
        raise ValueError("x and y must be 2-D with matching row counts")
    n, d = x.shape
    k = y.shape[1]
    if n < 10:
        raise ValueError(f"need at least 10 samples to fit, got {n}")

    m = N_MEMBERS
    h = cfg.resolve_width(d)
    w1 = np.empty((m, d, h))
    b1 = np.empty((m, h))
    w2 = np.empty((m, h, k))
    for i in range(m):
        init_rng = np.random.default_rng(np.random.SeedSequence([seed, 1 + i]))
        w1[i] = init_rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, h))
        # random hidden biases break odd symmetry (even targets stall otherwise)
        b1[i] = init_rng.uniform(-1.0, 1.0, size=h)
        w2[i] = init_rng.normal(0.0, 1.0 / math.sqrt(h), size=(h, k))
    b2 = np.zeros((m, k))
    return _train(w1, b1, w2, b2, ScalerStats.from_data(x, y), x, y, seed,
                  cfg.epochs, cfg.patience, cfg.min_delta)


def _remap_scaler(model: EnsembleModel, new: ScalerStats) -> tuple[np.ndarray, ...]:
    """Re-express the weights under a new z-score scaler. The scaler change
    is affine in both inputs and outputs, so the remap is exact."""
    old = model.scaler
    rx = new.x_std / old.x_std  # (d,)
    dx = (new.x_mean - old.x_mean) / old.x_std
    w1 = model.w1 * rx[None, :, None]
    b1 = model.b1 + np.einsum("mdh,d->mh", model.w1, dx)
    ry = old.y_std / new.y_std  # (k,)
    w2 = model.w2 * ry[None, None, :]
    b2 = (model.b2 * old.y_std + old.y_mean - new.y_mean) / new.y_std
    return w1, b1, w2, b2


def update(model: EnsembleModel, x: np.ndarray, y: np.ndarray, epochs: int,
           seed: int) -> EnsembleModel:
    """Continue training an existing ensemble on the (grown) dataset for
    exactly `epochs` epochs, with no early stop. The scaler is recomputed
    from the data and the inherited weights are remapped to it, so the warm
    start is exact.

    Keeps the best-validation snapshot semantics of fit(); deterministic for
    a given (model, data, seed).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scaler = ScalerStats.from_data(x, y)
    return _train(*_remap_scaler(model, scaler), scaler, x, y, seed,
                  epochs, math.inf, 0.0)


def _train(w1, b1, w2, b2, scaler: ScalerStats, x: np.ndarray, y: np.ndarray,
           seed: int, epochs: int, patience: float, min_delta: float) -> EnsembleModel:
    """Adam training of the members from the given weights (expressed under
    `scaler`) on a seeded train/validation split of (x, y).

    Each member keeps the weights of its best validation score. A member
    whose score has not dropped by more than min_delta for `patience` epochs
    is frozen, and training stops once every member is frozen. The loop is
    the per-step hot path of the optimizer, hence the flat parameter buffer,
    the fused train+val forward pass and an epoch that allocates nothing.
    """
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("training requires finite inputs and targets")
    xs, ys = scaler.scale_x(x), scaler.scale_y(y)
    n = len(xs)

    split_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    perm = split_rng.permutation(n)
    n_val = min(max(1, int(round(VAL_FRACTION * n))), n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    xt, yt = xs[train_idx], ys[train_idx]
    xv, yv = xs[val_idx], ys[val_idx]
    n_train = len(xt)
    m, d, h = w1.shape
    k = w2.shape[2]

    # all parameters live in one flat buffer so the adam update runs on one
    # vector instead of four arrays per moment
    shapes = ((m, d, h), (m, h), (m, h, k), (m, k))
    offs = np.cumsum([0] + [math.prod(s) for s in shapes])

    def views(buf: np.ndarray) -> list[np.ndarray]:
        return [buf[o:e].reshape(s) for o, e, s in zip(offs, offs[1:], shapes)]

    flat = np.concatenate([p.ravel() for p in (w1, b1, w2, b2)])
    params = views(flat)
    w1, b1, w2, b2 = params
    grad = np.empty_like(flat)
    g_w1, g_b1, g_w2, g_b2 = views(grad)
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best_snap = flat.copy()
    snaps = views(best_snap)
    # per-member bookkeeping in Python floats: five members are too few for
    # array ops to pay off
    best_val = [math.inf] * m
    # -1: the loop's first pass re-scores the starting weights, which is no
    # epoch of training
    stall = [-1] * m
    active = [True] * m
    vres = np.empty((m, len(xv), k))
    val_items = vres[0].size

    def keep_best(val_pred: np.ndarray) -> list[bool]:
        # np.mean's own sum-then-divide, without its Python wrapper
        np.subtract(val_pred, yv, out=vres)
        np.multiply(vres, vres, out=vres)
        val_loss = (np.add.reduce(vres, axis=(1, 2)) / val_items).tolist()
        improved = [a and v < b - min_delta for a, v, b in zip(active, val_loss, best_val)]
        for i, better in enumerate(improved):
            if better:
                for dst, src in zip(snaps, params):
                    dst[i] = src[i]
                best_val[i] = val_loss[i]
        return improved

    # the starting weights are a candidate too
    keep_best(_forward(w1, b1, w2, b2, xv)[0])
    x_all = np.concatenate([xt, xv], axis=0)[None, :, :]
    x_all_t = np.swapaxes(np.broadcast_to(xt, (m, n_train, d)), 1, 2)
    # every per-epoch array is allocated once and written in place below, in
    # the operation order of the allocating expressions (bit-identical to them)
    hidden = np.empty((m, x_all.shape[1], h))
    out = np.empty((m, x_all.shape[1], k))
    err = np.empty((m, n_train, k))
    g_hidden = np.empty((m, n_train, h))
    dtanh = np.empty((m, n_train, h))
    step_a = np.empty_like(flat)
    step_b = np.empty_like(flat)
    hidden_t = hidden[:, :n_train, :]
    pred, val_pred = out[:, :n_train, :], out[:, n_train:, :]
    # views of the buffers above and of the flat parameters, made once
    hidden_tt, w2_t = np.swapaxes(hidden_t, 1, 2), np.swapaxes(w2, 1, 2)
    b1_rows, b2_rows = b1[:, None, :], b2[:, None, :]
    lr = LEARNING_RATE
    epochs_run = 0
    for epoch in range(epochs):
        # forward pass over train and val rows: _forward, written in place
        np.matmul(x_all, w1, out=hidden)
        np.add(hidden, b1_rows, out=hidden)
        np.tanh(hidden, out=hidden)
        np.matmul(hidden, w2, out=out)
        np.add(out, b2_rows, out=out)

        # val loss belongs to the current weights: score before stepping
        improved = keep_best(val_pred)
        stall = [0 if better else s + 1 for better, s in zip(improved, stall)]
        active = [a and s < patience for a, s in zip(active, stall)]
        if not any(active):
            break

        np.subtract(pred, yt, out=err)
        np.multiply(err, 2.0 / (n_train * k), out=err)
        np.matmul(hidden_tt, err, out=g_w2)
        np.add.reduce(err, axis=1, out=g_b2)
        np.matmul(err, w2_t, out=g_hidden)
        np.multiply(hidden_t, hidden_t, out=dtanh)
        np.subtract(1.0, dtanh, out=dtanh)
        np.multiply(g_hidden, dtanh, out=g_hidden)
        np.matmul(x_all_t, g_hidden, out=g_w1)
        np.add.reduce(g_hidden, axis=1, out=g_b1)

        # adam: m += (1-b1)(g-m); v += (1-b2)(g*g-v);
        # w -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
        t = epoch + 1
        np.subtract(grad, adam_m, out=step_a)
        np.multiply(1.0 - beta1, step_a, out=step_a)
        adam_m += step_a
        np.multiply(grad, grad, out=step_a)
        np.subtract(step_a, adam_v, out=step_a)
        np.multiply(1.0 - beta2, step_a, out=step_a)
        adam_v += step_a
        np.divide(adam_m, 1.0 - beta1**t, out=step_a)
        np.multiply(lr, step_a, out=step_a)
        np.divide(adam_v, 1.0 - beta2**t, out=step_b)
        np.sqrt(step_b, out=step_b)
        np.add(step_b, eps, out=step_b)
        np.divide(step_a, step_b, out=step_a)
        flat -= step_a
        epochs_run = t

    # the final post-step weights have not been scored yet
    keep_best(_forward(w1, b1, w2, b2, xv)[0])
    return EnsembleModel(
        *snaps, scaler=scaler,
        train_log={
            "epochs_run": epochs_run,
            "best_val_loss": best_val,
            "n_train": int(n_train),
            "n_val": int(n_val),
        },
    )


def _member_predictions(model: EnsembleModel, x: np.ndarray) -> np.ndarray:
    """(members, n, k) predictions in original units."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.input_dim:
        raise ValueError(f"input has {x.shape[1]} dims, model expects {model.input_dim}")
    xs = model.scaler.scale_x(x)
    pred, _ = _forward(model.w1, model.b1, model.w2, model.b2, xs)
    return model.scaler.unscale_y(pred)


def predict(model: EnsembleModel, x: np.ndarray) -> np.ndarray:
    """Ensemble-mean prediction in original units; (k,) for a single input
    vector, (n, k) for a batch."""
    single = np.asarray(x).ndim == 1
    out = _member_predictions(model, x).mean(axis=0)
    return out[0] if single else out


def predict_conservative(
    model: EnsembleModel, x: np.ndarray, beta: float, senses: np.ndarray | None = None
) -> np.ndarray:
    """Per-output beta-quantile across members, oriented pessimistically.

    senses: +1 for outputs where larger is worse (upper-bounded metrics take
    the upper quantile), -1 where smaller is worse (lower-bounded metrics and
    the objective take the lower quantile). Default: all -1. beta = 0.5 is
    the member median either way.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    single = np.asarray(x).ndim == 1
    preds = _member_predictions(model, x)  # (m, n, k)
    if senses is None:
        senses = -np.ones(model.output_dim)
    senses = np.asarray(senses)
    if senses.shape != (model.output_dim,):
        raise ValueError("senses must have one entry per output")
    hi, lo = np.quantile(preds, [beta, 1.0 - beta], axis=0)
    out = np.where(senses > 0, hi, lo)
    return out[0] if single else out
