"""Desk-scale continual learner.

A linear softmax classifier or one-hidden-layer-style MLP (any number of
hidden layers is supported) trained with mini-batch SGD on cross-entropy.
The output head covers all classes from the start (single-head, closed
world). Two strategies are expressed at the training-loop level: naive
fine-tuning trains on experience data only; experience replay mixes a
fixed fraction of each mini-batch in from a rehearsal buffer.

Parameters are grouped into named blocks (one per layer) so that per-block
weight diagnostics and layer-wise activation probes have stable handles.
"""

import functools
import hashlib
import io
import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import files

ACTIVATIONS = ("relu", "tanh")
CHECKPOINT_FORMAT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """A non-finite training loss; ``member`` is the diverged model's index
    in its ``train_group`` group (0 for a model trained alone)."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


class CheckpointError(ValueError):
    pass


@dataclass
class ModelParams:
    weights: list[np.ndarray]  # layer l: (fan_in, fan_out)
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need matching weight/bias lists")

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[-1]

    @property
    def dim_in(self) -> int:
        return self.weights[0].shape[-2]

    def blocks(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        return [
            (f"block{i}", w, b)
            for i, (w, b) in enumerate(zip(self.weights, self.biases))
        ]

    def copy(self) -> "ModelParams":
        return ModelParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activation=self.activation,
        )


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    epochs_per_experience: int = 2
    batch_size: int = 32
    replay_mix: float = 0.5  # fraction of each mini-batch drawn from the buffer

    def validate(self) -> None:
        if not self.lr >= 0:
            raise ValueError("lr must be >= 0")
        if self.epochs_per_experience < 0:
            raise ValueError("epochs_per_experience must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.replay_mix <= 1.0:
            raise ValueError("replay_mix must lie in [0, 1]")


def init_params(
    dim_in: int,
    hidden: tuple[int, ...],
    num_classes: int,
    activation: str,
    rng: np.random.Generator,
) -> ModelParams:
    sizes = [dim_in, *hidden, num_classes]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = math.sqrt(2.0 / fan_in)
        weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights=weights, biases=biases, activation=activation)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _forward(params: ModelParams, x: np.ndarray):
    """Returns (pre-activations, post-activations incl. input, logits).

    Stacked parameters, weights (S, fan_in, fan_out) and biases (S, fan_out),
    run S models at once on an (S, n, d) input."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    pre, post = [], [a]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = post[-1] @ w
        z += b[..., None, :]  # in place: the same additions, without a second logits-sized array
        pre.append(z)
        if i < len(params.weights) - 1:
            post.append(_act(z, params.activation))
    return pre, post, pre[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _model_input(params: ModelParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != params.dim_in:
        raise ValueError(
            f"feature dimension {features.shape[-1]} does not match model input {params.dim_in}"
        )
    return features


def predict(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax class ids and the full softmax probability matrix."""
    features = _model_input(params, features)
    _, _, logits = _forward(params, features)
    probs = softmax(logits)
    labels = probs.argmax(axis=1)
    if features.ndim == 1:
        return labels[0], probs[0]
    return labels, probs


# Logits this close to a row's top logit may share its softmax probability
# after rounding; farther ones cannot (see _block_labels).
_TIE_GAP = 1e-12
# Rows of a 2-D input that predict_labels scores per forward pass.
_LABEL_BLOCK_ROWS = 256


def predict_labels(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Argmax class ids, equal to ``predict(params, features)[0]``, without
    building the softmax of every row (see ``_block_labels``).

    A 2-D input of n rows is scored in blocks of ``_LABEL_BLOCK_ROWS`` (R)
    rows, the last block taking the remainder (R to 2R - 1 rows), so no
    block is a single row; an input of fewer than 2R rows is one block, as
    is a 1-D input. The logits alive at once are thus at most 2R - 1 rows of
    C, plus that block's hidden activations, whatever n is.

    The claim is labels equal, not logits equal: a block's logits may differ
    from the whole input's in their last bits (BLAS tiles each product by
    its shape), and a label can move only in a row whose top two logits lie
    within a few ulps of each other.

    Stacked parameters (see ``_forward``) on a shared 2-D input give (S, n)
    labels, each model's row equal to its own call; their blocks' (S, b)
    labels are joined along the last axis.
    """
    features = _model_input(params, features)
    if features.ndim != 2:
        return _block_labels(params, features)
    n, rows = len(features), _LABEL_BLOCK_ROWS
    edges = [*range(0, max(n // rows, 1) * rows, rows), n]
    blocks = [_block_labels(params, features[a:b]) for a, b in zip(edges, edges[1:])]
    return np.concatenate(blocks, axis=-1)


def _block_labels(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Argmax class ids of one forward pass over all of ``features``, equal
    to the argmax of ``softmax`` of its logits exactly.

    softmax's argmax is the first class of highest rounded probability. In a
    row whose top logit m is finite and whose other logits all lie more than
    ``_TIE_GAP`` below it, the top class has exp(0) = 1 and every other class
    exp(l - m) <= 1 - ~4000 ulp; dividing both by the same row sum keeps the
    top strictly ahead, so the softmax argmax is the logits' argmax. Only the
    other rows (near or exact ties, nan or infinite logits) go through the
    softmax itself.

    A row is near a tie when its second-largest logit (the row's max once its
    top is masked with -inf) lies within ``_TIE_GAP`` of the top. With a
    finite top that is exactly "more than one logit is >= top - _TIE_GAP":
    argmax stops at the first nan, so a finite top means a row without nan.
    """
    _, _, logits = _forward(params, features)
    # one row of C logits per (model, sample); a view of _forward's array
    flat = np.ascontiguousarray(logits).reshape(-1, logits.shape[-1])
    labels = flat.argmax(axis=1)
    cells = flat.reshape(-1)
    at = labels + np.arange(0, cells.size, flat.shape[1])  # each row's top, in cells
    top = cells.take(at)
    cells.put(at, -np.inf)
    second = flat.max(axis=1)
    cells.put(at, top)  # the logits are whole again
    rows = (second >= top - _TIE_GAP) | ~np.isfinite(top)
    if rows.any():
        labels[rows] = softmax(flat[rows]).argmax(axis=1)
    labels = labels.reshape(logits.shape[:-1])
    if features.ndim == 1:
        return np.take(labels, 0, axis=-1)
    return labels


def activations(params: ModelParams, features: np.ndarray) -> list[np.ndarray]:
    """Per-layer representations on a probe batch: each hidden layer's
    post-activation output, then the logits."""
    _, post, logits = _forward(params, features)
    return [*post[1:], logits]


def loss_and_grads(params: ModelParams, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its gradients w.r.t. every weight and bias.

    With stacked parameters (see ``_forward``), an (S, n, d) input and (S, n)
    labels, the loss is an array of S losses and every gradient has a leading
    axis of S; each model's slice equals its own 2-D call bit for bit.
    """
    y = np.asarray(y, dtype=np.int64)
    pre, post, logits = _forward(params, x)
    n = logits.shape[-2]
    # softmax in place: the backward pass never reads the logits (pre[-1]),
    # and these are softmax()'s operations in its order, so bitwise equal
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    # the true-class entries through a flat (rows, C) view, which for a 2-D
    # input is the probability matrix itself
    flat = logits.reshape(-1, logits.shape[-1])
    rows, cols = np.arange(flat.shape[0]), y.reshape(-1)
    eps = np.finfo(float).tiny
    loss = -(np.log(flat[rows, cols] + eps).reshape(y.shape).sum(axis=-1) / n)  # .mean()'s sum

    delta = logits  # the probabilities, turned into the output error in place
    flat[rows, cols] -= 1.0
    delta /= n
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = post[i].swapaxes(-1, -2) @ delta
        grads_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = delta @ params.weights[i].swapaxes(-1, -2)
            if params.activation == "relu":
                np.multiply(delta, pre[i - 1] > 0, out=delta)
            else:
                delta *= 1.0 - post[i] * post[i]
    return loss, grads_w, grads_b


def accuracy(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    labels = predict_labels(params, x)
    return float((labels == np.asarray(y)).mean())


def replay_rows(cfg: TrainConfig, buffer) -> int:
    """Rehearsal rows in each mini-batch: ceil(replay_mix * batch_size) with
    a non-empty buffer, else 0."""
    if buffer is None or buffer.total_stored() == 0:
        return 0
    return min(math.ceil(cfg.replay_mix * cfg.batch_size), cfg.batch_size)


def train_on_experience(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    buffer=None,
    dataset=None,
) -> ModelParams:
    """SGD over one experience; with a buffer, every mini-batch mixes in
    ``replay_rows`` rehearsal samples. The buffer itself is not modified here
    (storage updates happen once per experience, after training)."""
    train_group([params], x, y, cfg, [rng], [buffer], dataset)
    return params


def train_group(
    models: list[ModelParams],
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    rngs: list[np.random.Generator],
    buffers: list,
    dataset=None,
) -> None:
    """``train_on_experience`` for S models of one shape on the same
    experience, each with its own rng and buffer (None for naive), which
    must agree on ``replay_rows``.

    Each model draws as it would alone: per epoch its permutation, then one
    replay draw of the whole epoch's picks (the buffer is fixed during
    training, so that equals one draw per mini-batch). Two or more models
    then take every SGD step as one stacked model, which leaves each bitwise
    equal to its own run; a single model trains on plain 2-D arrays. A
    non-finite loss raises ``TrainingDivergedError`` naming the model.
    """
    cfg.validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("experience data must be nonempty")
    if dataset is None and any(buf is not None for buf in buffers):
        raise ValueError("replay training needs the source dataset for feature lookup")
    ks = {replay_rows(cfg, buf) for buf in buffers}
    if len(ks) != 1:
        raise ValueError(f"models of one group draw different replay rows {sorted(ks)}")
    replay_k = ks.pop()
    current_bs = max(cfg.batch_size - replay_k, 1)

    s = len(models)
    params = models[0] if s == 1 else ModelParams(
        weights=[np.stack(ws) for ws in zip(*(m.weights for m in models))],
        biases=[np.stack(bs) for bs in zip(*(m.biases for m in models))],
        activation=models[0].activation,
    )
    n = x.shape[0]
    n_batches = -(-n // current_bs)
    lead = slice(None) if s > 1 else 0  # keep the stack axis, or drop it
    for _ in range(cfg.epochs_per_experience):
        orders, picks = [], []
        for rng, buf in zip(rngs, buffers):
            orders.append(rng.permutation(n))
            if replay_k:
                picks.append(buf.sample((n_batches, replay_k), rng))
        order = np.stack(orders)[lead]
        xs, ys = x[order], y[order]
        if replay_k:
            inst, labs = (np.stack(drawn)[lead] for drawn in zip(*picks))
            replay_x = dataset.features[inst]
        for b in range(n_batches):
            bx = xs[..., b * current_bs : (b + 1) * current_bs, :]
            by = ys[..., b * current_bs : (b + 1) * current_bs]
            if replay_k:
                bx = np.concatenate([bx, replay_x[..., b, :, :]], axis=-2)
                by = np.concatenate([by, labs[..., b, :]], axis=-1)
            loss, gw, gb = loss_and_grads(params, bx, by)
            # each loss is at most -log(tiny), so only a non-finite one
            # makes the sum non-finite
            if not math.isfinite(loss if s == 1 else loss.sum()):
                losses = np.atleast_1d(loss)
                member = int(np.flatnonzero(~np.isfinite(losses))[0])
                raise TrainingDivergedError(
                    f"non-finite loss {losses[member]} (lr={cfg.lr}, "
                    f"batch={bx.shape[-2]}, experience_size={n}, model {member} of {s})",
                    member,
                )
            for i in range(len(params.weights)):
                params.weights[i] -= cfg.lr * gw[i]
                params.biases[i] -= cfg.lr * gb[i]
    if s > 1:
        for k, model in enumerate(models):
            for mine, stacked in zip(model.weights + model.biases, params.weights + params.biases):
                mine[...] = stacked[k]


# -- checkpoints ------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    params: ModelParams
    experience_index: int
    meta: dict = field(default_factory=dict)


def snapshot(params: ModelParams, experience_index: int, **meta) -> Checkpoint:
    return Checkpoint(params=params.copy(), experience_index=experience_index, meta=dict(meta))


def _params_digest(params: ModelParams) -> str:
    h = hashlib.sha256()
    for w, b in zip(params.weights, params.biases):
        h.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(b, dtype=np.float64).tobytes())
    return h.hexdigest()


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Single .npz holding the named blocks plus a JSON header with a
    content digest; ``load_checkpoint`` refuses files whose digest differs."""
    params = checkpoint.params
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "experience_index": checkpoint.experience_index,
        "activation": params.activation,
        "n_layers": len(params.weights),
        "digest": _params_digest(params),
        "meta": checkpoint.meta,
    }
    arrays = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    archive = io.BytesIO()
    np.savez(archive, **arrays)
    files.write_atomic(path, archive.getvalue())


# .npy magic and format version 1.0, which np.save writes for any header
# under 64 KiB
_NPY_MAGIC = b"\x93NUMPY\x01\x00"


@functools.lru_cache(maxsize=256)
def _npy_header(header: bytes) -> tuple[tuple[int, ...], bool, np.dtype]:
    """(shape, fortran_order, dtype) from the bytes after a version 1.0
    .npy magic: the 2-byte header length and the header dict. A run's
    checkpoints repeat a few headers."""
    return np.lib.format.read_array_header_1_0(io.BytesIO(header))


def _npy_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array of one uncompressed .npy member (``np.savez`` compresses
    none), writable, as ``np.load`` reads it; zipfile checks its CRC-32."""
    if archive.getinfo(name).compress_type != zipfile.ZIP_STORED:
        raise CheckpointError(f"member {name} is compressed")
    data = archive.read(name)
    if data[:8] != _NPY_MAGIC:
        raise CheckpointError(f"member {name} is not a version 1.0 .npy array")
    start = 10 + int.from_bytes(data[8:10], "little")
    shape, fortran_order, dtype = _npy_header(data[8:start])
    count = math.prod(shape)
    if len(data) != start + count * dtype.itemsize:
        raise CheckpointError(f"member {name} does not hold shape {shape}")
    array = np.frombuffer(data, dtype=dtype, count=count, offset=start).copy()
    return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


def load_checkpoint(path) -> Checkpoint:
    """Raises ``CheckpointError`` naming ``path`` when the file is torn,
    corrupt, of another format version, or fails its digest. The file is
    read once, and each member of the archive once."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            header = json.loads(_npy_member(archive, "header.npy").tobytes().decode())
            if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError("unsupported checkpoint format version")
            n = header["n_layers"]
            params = ModelParams(
                weights=[_npy_member(archive, f"w{i}.npy") for i in range(n)],
                biases=[_npy_member(archive, f"b{i}.npy") for i in range(n)],
                activation=header["activation"],
            )
            digest, index = header["digest"], header["experience_index"]
    # zipfile meets a damaged archive with any of these: RuntimeError for a
    # flag or version it does not support
    except (RuntimeError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if _params_digest(params) != digest:
        raise CheckpointError(f"checkpoint digest mismatch in {path}")
    return Checkpoint(params=params, experience_index=index, meta=header.get("meta", {}))
