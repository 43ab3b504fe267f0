"""Small fully connected residual network trained from scratch with numpy.

The network is x0 = relu(W_in x + b_in), x_{l+1} = x_l + relu(W_l x_l + b_l)
for L residual blocks at constant width, and logits = W_out x_L + b_out,
trained by mini-batch SGD with heavy-ball momentum, coupled weight decay,
and a step learning-rate schedule on the softmax cross entropy.

Training records per-epoch loss and accuracy on the full training set and,
at a configurable epoch stride, a snapshot of all post-activation layer
outputs [x0 .. xL] as a LayerStack together with collapse metrics per
layer.

An epoch does only the work its outputs read.  Each batch runs
``_gradient``, which fills the gradients and forms no loss or accuracy;
``resnet_backward`` is that kernel plus the loss and accuracy read from the
buffers it leaves.  The per-epoch pass over the full set runs forward only:
each layer's pre-activation is formed in that layer's feature buffer, in one
(L+1) x width x N block that a recorded epoch fills layer by layer and any
other epoch rolls through two layers of.  The full-set loss and accuracy are
formed once per epoch.

Training allocates nothing per batch: parameters, gradients and velocity
are three flat vectors (the parameter dict holds reshaped views into them),
the per-layer weights, transposes, bias columns and gradients are bound
once per run, and the batch passes write pre-activations, features, logits,
backward scratch (ReLU masks as float64 1.0/0.0) and gradients into a
workspace of buffers, one per batch width.  ReLUs and masks compare against
a zero array, not the scalar 0.0 that numpy would broadcast through a
slower loop.  Every in-place operation is the same floating-point operation
on the same operands as the allocating formula it replaces, so results are
bit-identical to it; called without a workspace, ``resnet_forward`` and
``resnet_backward`` return fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DivergenceError, FeatureSet, LayerStack
from .metrics import PfcReport, measure


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``lr_decay_epochs`` lists the 1-indexed epochs at which the learning
    rate is multiplied by ``lr_decay_factor`` (taking effect from that
    epoch on).  ``record_stride`` controls how often the per-layer metrics
    are recorded; the final epoch is always recorded.
    """

    num_blocks: int = 6
    width: int = 64
    input_dim: int = 16
    num_classes: int = 4
    per_class: int = 256
    epochs: int = 300
    batch_size: int = 128
    lr: float = 0.01
    lr_decay_factor: float = 0.1
    lr_decay_epochs: tuple[int, ...] = (100, 200)
    momentum: float = 0.9
    weight_decay: float = 5e-4
    decay_biases: bool = True
    seed: int = 0
    record_stride: int = 25

    def __post_init__(self):
        for name in ("num_blocks", "width", "input_dim", "per_class", "epochs",
                     "batch_size", "record_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_classes < 2:
            raise ValueError(f"need num_classes >= 2, got {self.num_classes}")
        if self.width < self.num_classes:
            raise ValueError(
                f"width must be >= num_classes, got width={self.width} < "
                f"K={self.num_classes}"
            )
        if self.lr < 0 or self.weight_decay < 0:
            raise ValueError("lr and weight_decay must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.lr_decay_factor <= 0:
            raise ValueError("lr_decay_factor must be positive")
        decays = tuple(int(e) for e in self.lr_decay_epochs)
        if any(b <= a for a, b in zip(decays, decays[1:])):
            raise ValueError("lr_decay_epochs must be strictly increasing")
        if decays and (decays[0] < 1 or decays[-1] > self.epochs):
            raise ValueError("lr_decay_epochs must lie within 1..epochs")
        object.__setattr__(self, "lr_decay_epochs", decays)

    def learning_rate(self, epoch: int) -> float:
        """Stepped learning rate in effect during a 1-indexed epoch."""
        drops = int(np.searchsorted(self.lr_decay_epochs, epoch, side="right"))
        return self.lr * self.lr_decay_factor**drops


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch history, per-layer metrics at each recorded epoch, the
    last recorded layer stack, and the final parameters."""

    config: TrainConfig
    losses: np.ndarray
    accuracies: np.ndarray
    snapshot_epochs: tuple[int, ...]
    final_stack: LayerStack
    reports: tuple[tuple[PfcReport, ...], ...]
    params: dict = field(repr=False, default_factory=dict)


def init_params(config: TrainConfig) -> dict:
    """Seeded parameter dictionary: Kaiming-scaled Gaussian weights
    (std = sqrt(2 / fan_in)) and zero biases."""
    rng = np.random.default_rng([config.seed, 0])
    w, d = config.width, config.input_dim
    params = {
        "w_in": rng.standard_normal((w, d)) * np.sqrt(2.0 / d),
        "b_in": np.zeros(w),
    }
    for l in range(config.num_blocks):
        params[f"w_block_{l}"] = rng.standard_normal((w, w)) * np.sqrt(2.0 / w)
        params[f"b_block_{l}"] = np.zeros(w)
    params["w_out"] = rng.standard_normal((config.num_classes, w)) * np.sqrt(2.0 / w)
    params["b_out"] = np.zeros(config.num_classes)
    return params


class _Workspace:
    """Buffers for forward and backward passes over batches of one column
    width: pre-activations, features, logits, softmax terms, the backward
    scratch with its float ReLU mask, a zero array for the ReLUs, and the
    gradient arrays (``grads`` if given, else fresh ones).

    A pass through a workspace overwrites what the previous pass returned.
    """

    def __init__(self, params: dict, columns: int, num_blocks: int,
                 grads: dict | None = None):
        width, classes = params["w_in"].shape[0], params["w_out"].shape[0]
        layer = (width, columns)
        self.preacts = [np.empty(layer) for _ in range(num_blocks + 1)]
        self.features = [np.empty(layer) for _ in range(num_blocks + 1)]
        self.logits = np.empty((classes, columns))
        self.shifted = np.empty((classes, columns))
        self.dz = np.empty((classes, columns))
        self.maxima = np.empty((1, columns))
        self.total = np.empty((1, columns))
        self.dx = np.empty(layer)
        self.da = np.empty(layer)
        self.product = np.empty(layer)
        self.mask = np.empty(layer)
        self.zeros = np.zeros(layer)
        self.columns = np.arange(columns)
        if grads is None:
            grads = {name: np.empty(value.shape) for name, value in params.items()}
        self.grads = grads


class _Net:
    """The per-layer arrays of one parameter dict and one gradient dict,
    looked up once: weights, their transposes, bias columns and gradients.

    The views follow in-place updates of the arrays, not the replacement of
    a dict entry.
    """

    def __init__(self, params: dict, grads: dict, num_blocks: int):
        blocks = range(num_blocks)
        self.w_in, self.b_in = params["w_in"], params["b_in"][:, None]
        self.w = [params[f"w_block_{l}"] for l in blocks]
        self.w_t = [w.T for w in self.w]
        self.b = [params[f"b_block_{l}"][:, None] for l in blocks]
        self.w_out, self.b_out = params["w_out"], params["b_out"][:, None]
        self.w_out_t = self.w_out.T
        self.dw_in, self.db_in = grads["w_in"], grads["b_in"]
        self.dw = [grads[f"w_block_{l}"] for l in blocks]
        self.db = [grads[f"b_block_{l}"] for l in blocks]
        self.dw_out, self.db_out = grads["w_out"], grads["b_out"]


def _forward(net: _Net, x: np.ndarray, preacts, features, logits: np.ndarray,
             zeros: np.ndarray):
    """Write layer l's pre-activation to ``preacts[l]`` and its features to
    ``features[l]``, then the logits.

    Consecutive layers need distinct feature buffers; ``preacts[l]`` may be
    ``features[l]`` itself when the pre-activations are not read later.
    ``zeros`` is a zero array of the layer shape: against it the ReLU runs
    numpy's contiguous loop, where a scalar 0.0 would take its slower
    broadcast loop, with the same result bits.
    """
    np.matmul(net.w_in, x, out=preacts[0])
    preacts[0] += net.b_in
    np.maximum(preacts[0], zeros, out=features[0])
    for l, (w, b) in enumerate(zip(net.w, net.b)):
        a, f = preacts[l + 1], features[l + 1]
        np.matmul(w, features[l], out=a)
        a += b
        np.maximum(a, zeros, out=f)
        f += features[l]
    np.matmul(net.w_out, features[-1], out=logits)
    logits += net.b_out
    return logits, features


def resnet_forward(params: dict, x: np.ndarray, num_blocks: int,
                   workspace: _Workspace | None = None):
    """Logits (K x B) and the post-activation features [x0 .. xL] for a
    batch of input columns.

    Without a workspace the results are fresh arrays; with one they live in
    its buffers until its next pass.  The values are the same either way.
    """
    ws = workspace if workspace is not None else _Workspace(params, x.shape[1], num_blocks)
    return _forward(_Net(params, ws.grads, num_blocks), x, ws.preacts, ws.features,
                    ws.logits, ws.zeros)


def ce_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross entropy over batch columns."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=0))
    true_logit = shifted[labels, np.arange(logits.shape[1])]
    return float(np.mean(logsumexp - true_logit))


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=0) == labels))


def _gradient(net: _Net, x: np.ndarray, labels: np.ndarray, ws: _Workspace) -> None:
    """Gradients of the batch's mean cross entropy, written to ``net``'s
    gradient arrays.

    Leaves in ``ws`` the logits, their column-shifted copy and the softmax
    normalizers, from which :func:`resnet_backward` reads the loss and
    accuracy.
    """
    logits, _ = _forward(net, x, ws.preacts, ws.features, ws.logits, ws.zeros)
    preacts, cols = ws.preacts, ws.columns
    # np.maximum.reduce and np.add.reduce are the reductions .max and .sum
    # run, minus their argument handling
    np.maximum.reduce(logits, axis=0, keepdims=True, out=ws.maxima)
    np.subtract(logits, ws.maxima, out=ws.shifted)
    e = np.exp(ws.shifted, out=ws.dz)
    total = np.add.reduce(e, axis=0, keepdims=True, out=ws.total)
    dz = np.divide(e, total, out=e)
    dz[labels, cols] -= 1.0
    dz /= x.shape[1]

    np.matmul(dz, ws.features[-1].T, out=net.dw_out)
    np.add.reduce(dz, axis=1, out=net.db_out)
    dx, da, mask = ws.dx, ws.da, ws.mask
    np.matmul(net.w_out_t, dz, out=dx)
    for l in range(len(net.w) - 1, -1, -1):
        # a float mask holds the 1.0/0.0 a bool one would be cast to
        np.multiply(dx, np.greater(preacts[l + 1], ws.zeros, out=mask), out=da)
        np.matmul(da, ws.features[l].T, out=net.dw[l])
        np.add.reduce(da, axis=1, out=net.db[l])
        dx += np.matmul(net.w_t[l], da, out=ws.product)
    np.multiply(dx, np.greater(preacts[0], ws.zeros, out=mask), out=da)
    np.matmul(da, x.T, out=net.dw_in)
    np.add.reduce(da, axis=1, out=net.db_in)


def resnet_backward(params: dict, x: np.ndarray, labels: np.ndarray, num_blocks: int,
                    workspace: _Workspace | None = None):
    """Loss, accuracy, and gradient dict for one batch of input columns.

    The workspace, if given, holds the returned gradients (as in
    :func:`resnet_forward`); the values do not depend on it.
    """
    ws = workspace if workspace is not None else _Workspace(params, x.shape[1], num_blocks)
    _gradient(_Net(params, ws.grads, num_blocks), x, labels, ws)
    loss = float(np.mean(np.log(ws.total[0]) - ws.shifted[labels, ws.columns]))
    acc = float(np.mean(np.argmax(ws.logits, axis=0) == labels))
    return loss, acc, ws.grads


def _views(flat: np.ndarray, like: dict, layout) -> dict:
    """Consecutive pieces of ``flat``, in ``layout`` order, shaped like the
    arrays of ``like`` and keyed in its order."""
    views, offset = {}, 0
    for name in layout:
        size = like[name].size
        views[name] = flat[offset : offset + size].reshape(like[name].shape)
        offset += size
    return {name: views[name] for name in like}


def train(
    config: TrainConfig,
    data: FeatureSet,
    labels: np.ndarray | None = None,
) -> TrainTrace:
    """Train on a class-contiguous feature set and record collapse metrics.

    Weight decay is added to the raw gradient before the momentum update
    (coupled decay); batches are drawn from a fresh per-epoch permutation
    seeded by (config.seed, epoch), so runs are reproducible.

    Raises:
        DivergenceError: if the full-set loss becomes non-finite.
    """
    if (data.num_classes, data.per_class, data.dim) != (
        config.num_classes,
        config.per_class,
        config.input_dim,
    ):
        raise ValueError(
            "data shape "
            f"(K={data.num_classes}, n={data.per_class}, d={data.dim}) does not "
            f"match config (K={config.num_classes}, n={config.per_class}, "
            f"d={config.input_dim})"
        )
    full_labels = data.labels()
    if labels is not None and not np.array_equal(labels, full_labels):
        raise ValueError("labels must be class-contiguous: 0..K-1 each repeated n times")

    x_full = data.features
    # Parameters, gradients and velocity are flat vectors, so one update is
    # a few whole-vector operations; the dicts hold views into them.  Weights
    # come first, so the entries that weight decay applies to are a prefix.
    init = init_params(config)
    layout = sorted(init, key=lambda name: name.startswith("b_"))
    size = sum(value.size for value in init.values())
    theta, grad, velocity, scratch = (np.empty(size), np.empty(size),
                                      np.zeros(size), np.empty(size))
    params, grads = _views(theta, init, layout), _views(grad, init, layout)
    for name, value in init.items():
        params[name][...] = value
    if config.weight_decay == 0.0:
        decayed = 0
    elif config.decay_biases:
        decayed = size
    else:
        decayed = sum(init[name].size for name in layout if not name.startswith("b_"))
    net = _Net(params, grads, config.num_blocks)

    workspaces: dict[int, _Workspace] = {}

    def workspace(columns: int) -> _Workspace:
        if columns not in workspaces:
            workspaces[columns] = _Workspace(params, columns, config.num_blocks, grads)
        return workspaces[columns]

    # The full-set pass only runs forward, so each layer's pre-activation is
    # formed in that layer's own feature buffer, in one (L+1) x width x N
    # block.  A recorded epoch writes layer l to block[l]; the others
    # alternate between block[0] and block[1], as only the last layer feeds
    # the logits.
    num_samples = data.num_samples
    block = np.empty((config.num_blocks + 1, config.width, num_samples))
    zeros = np.zeros((config.width, num_samples))
    recorded = list(block)
    rolling = [block[l % 2] for l in range(config.num_blocks + 1)]
    full_logits = np.empty((config.num_classes, num_samples))

    losses = np.empty(config.epochs)
    accuracies = np.empty(config.epochs)
    snapshot_epochs: list[int] = []
    reports: list[tuple[PfcReport, ...]] = []

    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate(epoch)
        record = epoch % config.record_stride == 0 or epoch == config.epochs
        order = np.random.default_rng([config.seed, epoch]).permutation(num_samples)
        # overflow here is the divergence case the isfinite check reports
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, num_samples, config.batch_size):
                batch_idx = order[start : start + config.batch_size]
                _gradient(net, x_full[:, batch_idx], full_labels[batch_idx],
                          workspace(len(batch_idx)))
                if decayed:
                    grad[:decayed] += np.multiply(
                        theta[:decayed], config.weight_decay, out=scratch[:decayed]
                    )
                velocity *= config.momentum
                velocity += grad
                theta -= np.multiply(velocity, lr, out=scratch)

            layers = recorded if record else rolling
            logits, features = _forward(net, x_full, layers, layers, full_logits, zeros)
            loss = ce_loss(logits, full_labels)
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
        losses[epoch - 1] = loss
        accuracies[epoch - 1] = accuracy(logits, full_labels)

        if record:
            layer_sets = tuple(
                FeatureSet(f, config.num_classes, config.per_class) for f in features
            )
            snapshot_epochs.append(epoch)
            reports.append(tuple(measure(fs) for fs in layer_sets))

    return TrainTrace(
        config=config,
        losses=losses,
        accuracies=accuracies,
        snapshot_epochs=tuple(snapshot_epochs),
        # the last epoch is always recorded
        final_stack=LayerStack(layer_sets, epoch=config.epochs),
        reports=tuple(reports),
        params=params,
    )
