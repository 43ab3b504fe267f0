"""Small fully connected residual network trained from scratch with numpy.

The network is x0 = relu(W_in x + b_in), x_{l+1} = x_l + relu(W_l x_l + b_l)
for L residual blocks at constant width, and logits = W_out x_L + b_out,
trained by mini-batch SGD with heavy-ball momentum, coupled weight decay,
and a step learning-rate schedule on the softmax cross entropy.

Training records per-epoch loss and accuracy on the full training set and,
at a configurable epoch stride, collapse metrics of every post-activation
layer output [x0 .. xL].  The final layers are formed again on demand
(``TrainTrace.final_layers``).

An epoch does only the work its outputs read.  Each batch runs
``_gradient``, which fills the gradients and forms no loss or accuracy;
``resnet_backward`` is that kernel plus the loss and accuracy read from the
buffers it leaves.  The per-epoch pass over the full set runs forward only,
forming each layer's pre-activation in that layer's feature buffer, and
every such pass, recorded or not, rolls through two buffers (``_layers``).
A recorded epoch measures each layer, through a feature set that copies
it, before the pass overwrites it.  The full-set loss and accuracy are
formed once per epoch.  The final layers' stream runs the same pass on the
final parameters in two buffers of its own, so it gives the bits the last
epoch, which is always recorded, measured.

Each layer's parameters are one (rows, cols + 1) block [W | b] with the bias
as its last column, and every feature buffer, the input included, carries a
constant ones row last, so ``W x + b`` is the one product ``[W | b] @ [x; 1]``
with no separate bias add.  This keeps the bits where the BLAS sums each dot
product in order: ``b * 1.0`` is exact, so the kernel's last accumulation
rounds ``acc + b`` once, which is the rounding the separate ``a += b`` makes.
Some BLAS kernels split the sum instead (matrix-vector products, and the
tails of the blocked product at some column counts); at such shapes the
bias is added separately.  ``_fold_is_exact`` decides per shape by sampling.

Training allocates nothing per batch: parameters, gradients and velocity
are three flat vectors of these blocks (the parameter dict holds weight
and bias views into them), the per-layer blocks, transposes and gradients
are bound once per run, and the batch passes write pre-activations,
features, logits, backward scratch (ReLU masks as float64 1.0/0.0) and
gradients into a workspace of buffers, one per batch width.  ReLUs and
masks compare against a zero array, not the scalar 0.0 that numpy would
broadcast through a slower loop.  Every in-place operation is the same
floating-point operation on the same operands as the allocating formula it
replaces, so results are bit-identical to it; ``resnet_forward`` and
``resnet_backward`` return fresh arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator

import numpy as np

from .core import DivergenceError, FeatureSet, check_domain, ge, gt, param
from .metrics import PfcReport, measure


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run: the ``pfc train-resnet``
    defaults, each number's domain beside it (``harness.KINDS`` reads both).

    ``lr_decay_epochs`` lists the 1-indexed epochs at which the learning
    rate is multiplied by ``lr_decay_factor`` (taking effect from that
    epoch on).  ``record_stride`` controls how often the per-layer metrics
    are recorded; the final epoch is always recorded.
    """

    num_blocks: int = param(6, ge(1))
    width: int = param(64, ge(2))
    input_dim: int = param(16, ge(1))
    num_classes: int = param(4, ge(2))
    per_class: int = param(256, ge(1))
    epochs: int = param(3000, ge(1))
    batch_size: int = param(128, ge(1))
    lr: float = param(0.02, ge(0))
    lr_decay_factor: float = param(0.1, gt(0))
    lr_decay_epochs: tuple[int, ...] = param((1000, 2000))  # each in 1..epochs: __post_init__
    momentum: float = param(0.9, ge(0))  # and < 1: __post_init__
    weight_decay: float = param(0.0025, ge(0))
    decay_biases: bool = True
    seed: int = 0
    record_stride: int = param(250, ge(1))

    def __post_init__(self):
        for f in fields(self):
            if "domain" in f.metadata:
                check_domain(f.name, getattr(self, f.name), f.metadata["domain"])
        if self.width < self.num_classes:
            raise ValueError(
                f"width must be >= num_classes, got width={self.width} < "
                f"K={self.num_classes}"
            )
        if not self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        decays = tuple(int(e) for e in self.lr_decay_epochs)
        if any(b <= a for a, b in zip(decays, decays[1:])):
            raise ValueError(f"lr_decay_epochs must be strictly increasing, got {list(decays)}")
        if decays and (decays[0] < 1 or decays[-1] > self.epochs):
            raise ValueError(
                f"lr_decay_epochs must lie within 1..{self.epochs}, got {list(decays)}"
            )
        object.__setattr__(self, "lr_decay_epochs", decays)

    def learning_rate(self, epoch: int) -> float:
        """Stepped learning rate in effect during a 1-indexed epoch."""
        drops = int(np.searchsorted(self.lr_decay_epochs, epoch, side="right"))
        return self.lr * self.lr_decay_factor**drops


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch history, per-layer metrics at each recorded epoch, the
    final params, and the final layers [x0 .. xL] on demand.

    No layer is held.  Each call of ``final_layers`` starts a stream that
    forms the layers again from the final params and the training inputs,
    with the bits the last epoch measured, in two buffers of its own; each
    feature set it yields is a copy, so no two streams or sets share
    memory.
    """

    losses: np.ndarray
    accuracies: np.ndarray
    snapshot_epochs: tuple[int, ...]
    reports: tuple[tuple[PfcReport, ...], ...]
    final_layers: Callable[[], Iterator[FeatureSet]] = field(repr=False)
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


def _layer_names(num_blocks: int) -> list[str]:
    """Parameter name suffixes in network order: input, residual blocks,
    output."""
    return ["in", *(f"block_{l}" for l in range(num_blocks)), "out"]


@functools.cache
def _fold_is_exact(rows: int, depth: int, columns: int) -> bool:
    """Whether the BLAS in use rounds ``[W | b] @ [X; 1]`` exactly as
    ``W @ X + b`` for W of shape (rows, depth) and X of (depth, columns).

    It does when its kernel for this shape sums each dot product in order,
    so that ``b * 1.0`` is the last term.  Some kernels (matrix-vector
    products, the tails of the blocked matrix product) split the sum, and
    the bias then rounds with part of it.  The answer is sampled, not
    derived: random cases of the shape, at least 1024 output entries of
    them, must all agree bit for bit.
    """
    rng = np.random.default_rng([rows, depth, columns])
    for _ in range(-(-1024 // (rows * columns))):
        w = rng.standard_normal((rows, depth))
        x = rng.standard_normal((depth, columns))
        b = rng.standard_normal((rows, 1))
        if not np.array_equal(np.hstack((w, b)) @ _with_ones(x), w @ x + b):
            return False
    return True


def _bias_folds(params: dict, num_blocks: int, columns: int) -> bool:
    """Whether every layer's bias may ride in its weight product at this
    column count (:func:`_fold_is_exact`)."""
    return all(_fold_is_exact(*params[f"w_{name}"].shape, columns)
               for name in _layer_names(num_blocks))


def _feature_block(layers: int, width: int, columns: int) -> np.ndarray:
    """``layers`` feature buffers of shape (width + 1, columns) whose last
    row is the constant ones row the weight blocks' bias columns meet."""
    block = np.empty((layers, width + 1, columns))
    block[:, -1] = 1.0
    return block


def _with_ones(x: np.ndarray) -> np.ndarray:
    return np.vstack((x, np.ones((1, x.shape[1]))))


class _Workspace:
    """Buffers for forward and backward passes over batches of one column
    width: pre-activations, features (each with a ones row last), logits,
    softmax terms, the backward scratch with its float ReLU mask, a zero
    array for the ReLUs, and the gradient arrays (``grads`` if given, else
    fresh ones).  ``fold`` says whether the biases ride in the weight
    products at this width (:func:`_bias_folds`).

    A pass through a workspace overwrites what the previous pass returned.
    """

    def __init__(self, params: dict, columns: int, num_blocks: int,
                 grads: dict | None = None):
        width, classes = params["w_in"].shape[0], params["w_out"].shape[0]
        layer = (width, columns)
        self.preacts = [np.empty(layer) for _ in range(num_blocks + 1)]
        self.features = list(_feature_block(num_blocks + 1, width, columns))
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
        self.fold = _bias_folds(params, num_blocks, columns)
        if grads is None:
            grads = {name: np.empty(value.shape) for name, value in params.items()}
        self.grads = grads


class _Net:
    """Per layer, in network order: the ``[W | b]`` parameter block, its
    weight and bias-column views, the weight's transpose, and the weight
    and bias gradients of one gradient dict.

    The views follow in-place updates of the blocks and of the gradient
    arrays, not the replacement of a dict entry.
    """

    def __init__(self, blocks: list, grads: dict):
        names = _layer_names(len(blocks) - 2)
        self.blocks = blocks
        self.w = [block[:, :-1] for block in blocks]
        self.b = [block[:, -1:] for block in blocks]
        self.w_t = [w.T for w in self.w]
        self.dw = [grads[f"w_{name}"] for name in names]
        self.db = [grads[f"b_{name}"] for name in names]


def _blocks(params: dict, num_blocks: int) -> list:
    """Fresh ``[W | b]`` blocks of a parameter dict, in network order."""
    return [np.hstack((params[f"w_{name}"], params[f"b_{name}"][:, None]))
            for name in _layer_names(num_blocks)]


def _affine(net: _Net, l: int, x: np.ndarray, out: np.ndarray, fold: bool) -> None:
    """Layer l's ``W x + b`` into ``out``, for features ``x`` with a ones
    row last: one product with the bias column riding against that row if
    ``fold``, else the product of the weights and the rows above it, then
    the bias added."""
    if fold:
        np.matmul(net.blocks[l], x, out=out)
    else:
        np.matmul(net.w[l], x[:-1], out=out)
        out += net.b[l]


def _layer(net: _Net, l: int, x: np.ndarray, a: np.ndarray, f: np.ndarray,
           zeros: np.ndarray, fold: bool) -> None:
    """Layer l from the features ``x`` before it (the input at l = 0): its
    pre-activation into ``a`` and its features into the rows of ``f`` above
    its ones row.

    ``x`` and ``f`` carry a ones row last and must be distinct buffers;
    ``a`` may be ``f[:-1]`` itself when the pre-activation is not read
    later.  ``zeros`` is a zero array of the layer shape: against it the
    ReLU runs numpy's contiguous loop, where a scalar 0.0 would take its
    slower broadcast loop, with the same result bits.
    """
    body = f[:-1]
    _affine(net, l, x, a, fold)
    np.maximum(a, zeros, out=body)
    if l:
        body += x[:-1]


def _forward(net: _Net, x: np.ndarray, preacts, features, logits: np.ndarray,
             zeros: np.ndarray, fold: bool) -> np.ndarray:
    """Write layer l's pre-activation to ``preacts[l]`` and its features to
    ``features[l]`` (:func:`_layer`), then the logits; ``x`` also carries a
    ones row last, and consecutive layers need distinct feature buffers."""
    for l, (a, f) in enumerate(zip(preacts, features)):
        _layer(net, l, x, a, f, zeros, fold)
        x = f
    _affine(net, -1, x, logits, fold)
    return logits


def _layers(net: _Net, x: np.ndarray, pair: np.ndarray, zeros: np.ndarray,
            fold: bool) -> Iterator[np.ndarray]:
    """The features [x0 .. xL] of the input columns ``x`` (ones row last),
    formed one at a time as they are asked for.

    Layer l is formed by :func:`_layer` in ``pair[l % 2]`` (``pair`` is a
    :func:`_feature_block` of two), its pre-activation in place, so each
    layer overwrites the one two before it: a caller that keeps a layer
    copies it.  Overflow is not reported here: a diverged layer holds a
    non-finite value, which its caller checks for.
    """
    for l in range(len(net.blocks) - 1):
        f = pair[l % 2]
        with np.errstate(over="ignore", invalid="ignore"):
            _layer(net, l, x, f[:-1], f, zeros, fold)
        x = f
        yield f


def resnet_forward(params: dict, x: np.ndarray, num_blocks: int):
    """Logits (K x B) and the post-activation features [x0 .. xL] for a
    batch of input columns, in fresh arrays."""
    ws = _Workspace(params, x.shape[1], num_blocks)
    logits = _forward(_Net(_blocks(params, num_blocks), ws.grads), _with_ones(x),
                      ws.preacts, ws.features, ws.logits, ws.zeros, ws.fold)
    return logits, [f[:-1] for f in ws.features]


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
    gradient arrays; ``x`` carries a ones row last.

    Leaves the batch's logits in ``ws.logits``, from which
    :func:`resnet_backward` reads the loss and accuracy.
    """
    preacts, features, cols = ws.preacts, ws.features, ws.columns
    logits = _forward(net, x, preacts, features, ws.logits, ws.zeros, ws.fold)
    # np.maximum.reduce and np.add.reduce are the reductions .max and .sum
    # run, minus their argument handling
    np.maximum.reduce(logits, axis=0, keepdims=True, out=ws.maxima)
    np.subtract(logits, ws.maxima, out=ws.shifted)
    e = np.exp(ws.shifted, out=ws.dz)
    total = np.add.reduce(e, axis=0, keepdims=True, out=ws.total)
    dz = np.divide(e, total, out=e)
    dz[labels, cols] -= 1.0
    dz /= x.shape[1]

    np.matmul(dz, features[-1][:-1].T, out=net.dw[-1])
    np.add.reduce(dz, axis=1, out=net.db[-1])
    dx, da, mask = ws.dx, ws.da, ws.mask
    np.matmul(net.w_t[-1], dz, out=dx)
    for l in range(len(preacts) - 1, 0, -1):
        # a float mask holds the 1.0/0.0 a bool one would be cast to
        np.multiply(dx, np.greater(preacts[l], ws.zeros, out=mask), out=da)
        np.matmul(da, features[l - 1][:-1].T, out=net.dw[l])
        np.add.reduce(da, axis=1, out=net.db[l])
        dx += np.matmul(net.w_t[l], da, out=ws.product)
    np.multiply(dx, np.greater(preacts[0], ws.zeros, out=mask), out=da)
    np.matmul(da, x[:-1].T, out=net.dw[0])
    np.add.reduce(da, axis=1, out=net.db[0])


def resnet_backward(params: dict, x: np.ndarray, labels: np.ndarray, num_blocks: int):
    """Loss, accuracy and a fresh gradient dict for one batch of input columns."""
    ws = _Workspace(params, x.shape[1], num_blocks)
    _gradient(_Net(_blocks(params, num_blocks), ws.grads), _with_ones(x), labels, ws)
    return ce_loss(ws.logits, labels), accuracy(ws.logits, labels), ws.grads


def _split(flat: np.ndarray, shapes) -> list:
    """Consecutive pieces of ``flat`` with the given 2-d shapes."""
    ends = np.cumsum([rows * cols for rows, cols in shapes])[:-1]
    return [piece.reshape(shape) for piece, shape in zip(np.split(flat, ends), shapes)]


def _named(blocks: list, names) -> dict:
    """The weight and bias views of each ``[W | b]`` block, keyed as
    :func:`init_params` keys them."""
    views = {}
    for name, block in zip(names, blocks):
        views[f"w_{name}"], views[f"b_{name}"] = block[:, :-1], block[:, -1]
    return views


def train(
    config: TrainConfig,
    data: FeatureSet,
) -> TrainTrace:
    """Train on a class-contiguous feature set and record collapse metrics.

    Weight decay is added to the raw gradient before the momentum update
    (coupled decay); batches are drawn from a fresh per-epoch permutation
    seeded by (config.seed, epoch), so runs are reproducible.

    Raises:
        DivergenceError: if the full-set loss, or a layer of a recorded
            epoch, becomes non-finite.
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

    # The input carries a ones row last, and each layer's parameters are one
    # [W | b] block, so that the bias rides in the weight product where that
    # rounds as the separate add would (_bias_folds).  Parameters, gradients
    # and velocity are flat vectors of these blocks, so one update is a few
    # whole-vector operations; the dicts hold views into them.
    x_full = _with_ones(data.features)
    names = _layer_names(config.num_blocks)
    init = _blocks(init_params(config), config.num_blocks)
    shapes = [block.shape for block in init]
    theta = np.concatenate([block.ravel() for block in init])
    del init  # copied into theta; the run holds no second set of weights
    grad, velocity, scratch = np.empty(theta.size), np.zeros(theta.size), np.empty(theta.size)
    blocks, grad_blocks = _split(theta, shapes), _split(grad, shapes)
    params, grads = _named(blocks, names), _named(grad_blocks, names)
    # (gradient, parameters, scratch) triples that weight decay applies to
    if config.weight_decay == 0.0:
        decayed = []
    elif config.decay_biases:
        decayed = [(grad, theta, scratch)]
    else:
        decayed = [(g[:, :-1], t[:, :-1], s[:, :-1]) for g, t, s in
                   zip(grad_blocks, blocks, _split(scratch, shapes))]
    net = _Net(blocks, grads)

    @functools.cache
    def workspace(columns: int) -> _Workspace:
        return _Workspace(params, columns, config.num_blocks, grads)

    # The full-set pass only runs forward, so each layer's pre-activation is
    # formed in its own feature buffer, and the layers alternate between two
    # buffers, as only the last one feeds the logits (_layers).
    num_samples = data.num_samples
    K, n = config.num_classes, config.per_class
    pair = _feature_block(2, config.width, num_samples)
    zeros = np.zeros((config.width, num_samples))
    full_fold = _bias_folds(params, config.num_blocks, num_samples)
    full_logits = np.empty((K, num_samples))

    def final_layers() -> Iterator[FeatureSet]:
        # nothing writes the parameters once train returns; each stream owns its pair
        own = _feature_block(2, config.width, num_samples)
        for f in _layers(net, x_full, own, zeros, full_fold):
            yield FeatureSet(f[:-1], K, n)

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
                for g, t, s in decayed:
                    g += np.multiply(t, config.weight_decay, out=s)
                velocity *= config.momentum
                velocity += grad
                theta -= np.multiply(velocity, lr, out=scratch)

        measured = []  # each recorded layer, before the pass overwrites it
        for l, last in enumerate(_layers(net, x_full, pair, zeros, full_fold)):
            if record:
                if not np.all(np.isfinite(last)):
                    raise DivergenceError(f"layer {l} became non-finite at epoch {epoch}")
                measured.append(measure(FeatureSet(last[:-1], K, n)))
        if record:
            snapshot_epochs.append(epoch)
            reports.append(tuple(measured))
        with np.errstate(over="ignore", invalid="ignore"):
            _affine(net, -1, last, full_logits, full_fold)
            loss = ce_loss(full_logits, full_labels)
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
        losses[epoch - 1] = loss
        accuracies[epoch - 1] = accuracy(full_logits, full_labels)

    return TrainTrace(
        losses=losses,
        accuracies=accuracies,
        snapshot_epochs=tuple(snapshot_epochs),
        reports=tuple(reports),
        final_layers=final_layers,
        params=params,
    )
