"""Model-dynamics diagnostics.

Three views of how the learner moves through weight space over a stream:
accuracy along the straight line between two checkpoints, per-block relative
weight distance from a reference (usually the initialization), and linear
centered kernel alignment between activation matrices.
"""

from dataclasses import dataclass

import numpy as np

from .learner import Checkpoint, ModelParams, accuracy, activations


@dataclass(frozen=True)
class InterpolationCurve:
    alphas: np.ndarray
    accuracies: np.ndarray
    endpoint_indices: tuple[int, int]  # (checkpoint a, checkpoint b)


@dataclass(frozen=True)
class BlockDistanceReport:
    block_names: tuple[str, ...]
    distances: tuple[float | None, ...]  # None where the reference block has zero norm


def _combine(a: ModelParams, b: ModelParams, alpha: float) -> ModelParams:
    return ModelParams(
        weights=[alpha * wa + (1.0 - alpha) * wb for wa, wb in zip(a.weights, b.weights)],
        biases=[alpha * ba + (1.0 - alpha) * bb for ba, bb in zip(a.biases, b.biases)],
        activation=a.activation,
    )


def _check_same_shape(a: ModelParams, b: ModelParams) -> None:
    shapes_a = [w.shape for w in a.weights] + [v.shape for v in a.biases]
    shapes_b = [w.shape for w in b.weights] + [v.shape for v in b.biases]
    if shapes_a != shapes_b:
        raise ValueError(f"architecture mismatch: {shapes_a} vs {shapes_b}")


def interpolate_checkpoints(
    ckpt_a: Checkpoint,
    ckpt_b: Checkpoint,
    n_points: int,
    eval_features: np.ndarray,
    eval_labels: np.ndarray,
) -> InterpolationCurve:
    """Accuracy of alpha * a + (1 - alpha) * b on a fixed evaluation set.

    The grid includes both endpoints: alpha = 1 reproduces checkpoint a
    exactly, alpha = 0 checkpoint b; n_points = 10 adds eight in-between
    models.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2 (both endpoints included)")
    _check_same_shape(ckpt_a.params, ckpt_b.params)
    alphas = np.linspace(0.0, 1.0, n_points)
    accs = np.array(
        [
            accuracy(_combine(ckpt_a.params, ckpt_b.params, float(al)), eval_features, eval_labels)
            for al in alphas
        ]
    )
    return InterpolationCurve(
        alphas=alphas,
        accuracies=accs,
        endpoint_indices=(ckpt_a.experience_index, ckpt_b.experience_index),
    )


def block_distance(theta_0: ModelParams, theta_j: ModelParams) -> BlockDistanceReport:
    """Per-block relative L2 distance ||theta_0^b - theta_j^b|| / ||theta_0^b||.

    A block is one layer's weight matrix and bias, flattened together.
    Blocks with zero reference norm are reported as undefined (None).
    """
    _check_same_shape(theta_0, theta_j)
    names, dists = [], []
    for (name, w0, b0), (_, wj, bj) in zip(theta_0.blocks(), theta_j.blocks()):
        ref = np.concatenate([w0.ravel(), b0.ravel()])
        cur = np.concatenate([wj.ravel(), bj.ravel()])
        ref_norm = np.linalg.norm(ref)
        names.append(name)
        if ref_norm == 0.0:
            dists.append(None)
        else:
            dists.append(float(np.linalg.norm(ref - cur) / ref_norm))
    return BlockDistanceReport(block_names=tuple(names), distances=tuple(dists))


def linear_cka(acts_x: np.ndarray, acts_y: np.ndarray) -> float:
    """Linear CKA between two activation matrices (rows: the same samples).

    Both matrices are column-centered internally; the result lies in [0, 1],
    is symmetric, and is invariant to orthogonal transforms and isotropic
    scaling of either argument.
    """
    x = np.asarray(acts_x, dtype=np.float64)
    y = np.asarray(acts_y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("activation matrices must be 2-D (samples x features)")
    if x.shape[0] != y.shape[0]:
        raise ValueError("activation matrices must have the same number of samples")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    return _cka(_centred(x), _centred(y))


def _centred(acts: np.ndarray) -> tuple[np.ndarray, np.float64]:
    """The column-centred matrix c and the Frobenius norm of its Gram matrix
    c.T @ c: the part of linear CKA that depends on one side only."""
    c = acts - acts.mean(axis=0, keepdims=True)
    return c, np.linalg.norm(c.T @ c)


def _cka(side_x, side_y) -> float:
    (x, norm_x), (y, norm_y) = side_x, side_y
    denom = norm_x * norm_y
    if denom == 0.0:
        raise ValueError("zero-variance activations")
    return float(np.linalg.norm(y.T @ x) ** 2 / denom)


def prepare_cka(params: ModelParams, probe_features: np.ndarray) -> list:
    """One model's side of ``cka_layer_matrix`` on a probe batch, per layer:
    the column-centred activations and the norm of their Gram matrix.
    Preparing each checkpoint once lets a sequence of pairs skip
    recomputing them."""
    layers = activations(params, probe_features)
    if layers[0].shape[0] < 2:
        raise ValueError("need at least 2 samples")
    return [_centred(acts) for acts in layers]


def cka_prepared_matrix(prepared_a: list, prepared_b: list) -> np.ndarray:
    """``cka_layer_matrix`` from two ``prepare_cka`` results; bitwise equal
    to it, since every entry runs the same operations as ``linear_cka``."""
    out = np.empty((len(prepared_a), len(prepared_b)))
    for i, side_x in enumerate(prepared_a):
        for j, side_y in enumerate(prepared_b):
            out[i, j] = _cka(side_x, side_y)
    return out


def cka_layer_matrix(
    params_a: ModelParams, params_b: ModelParams, probe_features: np.ndarray
) -> np.ndarray:
    """CKA between every layer pair of two models on a shared probe batch.

    Entry [i, j] compares layer i of ``params_a`` with layer j of
    ``params_b``; the diagonal tracks how much each layer's representation
    moved between the two parameter snapshots.
    """
    return cka_prepared_matrix(
        prepare_cka(params_a, probe_features), prepare_cka(params_b, probe_features)
    )
