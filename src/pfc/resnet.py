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
buffers it leaves.  Every forward-only pass (the full set's each epoch,
recorded or not, and ``resnet_forward``'s) is one loop, ``_layers``, rolling
through two buffers with each pre-activation formed in its feature buffer.
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
Elsewhere the bias is added separately (``_fold_is_exact``).

Training allocates nothing per batch: parameters, gradients and velocity
are three flat vectors of these blocks (the parameter dict holds weight
and bias views into them), the per-layer blocks, transposes and gradients
are bound once per run, and each batch gathers its input columns and
labels into, and its passes write pre-activations, features, logits and
backward scratch (ReLU masks as float64 1.0/0.0) into, a workspace of
buffers, one per batch width.  ReLUs and masks compare against a zero
array, one per column count, not the scalar 0.0 that numpy would broadcast
through a slower loop.  Every in-place operation is the same
floating-point operation on the same operands as the allocating formula it
replaces, so results are bit-identical to it.  ``resnet_forward`` returns
fresh arrays, ``resnet_backward`` views of fresh gradient blocks.

The operands of training's products start on 64-byte boundaries
(``_aligned``): the flat vectors, the feature buffers, the workspace's
pre-activations and backward scratch, and the gathered batch input.
OpenBLAS's small-matrix kernels read their operands in place, and the
default batch's forward product takes about a quarter less time on aligned
ones, with the same bits.  The batch input is gathered column-major, as
rows of the input's transpose, which is the layout ``x[:, batch]``
indexing gives: a row-major batch sends layer 0's products down another
kernel path, which changes their bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .core import (DEPTH, DIM, NUM_CLASSES, PER_CLASS, DivergenceError, FeatureSet,
                   check_fields, check_frame, ge, gt, param)
from .metrics import PfcReport, measure


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run, each a :func:`~pfc.core.param`
    typed and bounded on construction: the ``pfc train-resnet`` knobs,
    defaults and domains (``harness.KINDS`` reads them), and the seed.

    ``lr_decay_epochs`` lists the 1-indexed epochs at which the learning
    rate is multiplied by ``lr_decay_factor`` (taking effect from that
    epoch on).  ``record_stride`` controls how often the per-layer metrics
    are recorded; the final epoch is always recorded.
    """

    num_blocks: int = param(6, DEPTH)
    width: int = param(64, NUM_CLASSES)  # a frame's d: K's domain, and >= num_classes
    input_dim: int = param(16, DIM)
    num_classes: int = param(4, NUM_CLASSES)
    per_class: int = param(256, PER_CLASS)
    epochs: int = param(3000, ge(1))
    batch_size: int = param(128, ge(1))
    lr: float = param(0.02, ge(0))
    lr_decay_factor: float = param(0.1, gt(0))
    lr_decay_epochs: tuple[int, ...] = param((1000, 2000))  # each in 1..epochs: __post_init__
    momentum: float = param(0.9, ge(0))  # and < 1: __post_init__
    weight_decay: float = param(0.0025, ge(0))
    decay_biases: bool = param(True)
    seed: int = param(0)
    record_stride: int = param(250, ge(1))

    def __post_init__(self):
        check_fields(self)
        check_frame("width", self.width, self.num_classes)
        if not self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        decays = self.lr_decay_epochs
        if any(b <= a for a, b in zip(decays, decays[1:])):
            raise ValueError(f"lr_decay_epochs must be strictly increasing, got {list(decays)}")
        if decays and (decays[0] < 1 or decays[-1] > self.epochs):
            raise ValueError(
                f"lr_decay_epochs must lie within 1..{self.epochs}, got {list(decays)}"
            )

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


def _aligned(*shape: int) -> np.ndarray:
    """An uninitialised C-ordered float64 array of ``shape`` whose first
    element sits on a 64-byte boundary: a slice of one 8 doubles longer."""
    size = int(np.prod(shape))
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def _feature_block(layers: int, width: int, columns: int) -> list:
    """``layers`` aligned feature buffers of shape (width + 1, columns)
    whose last row is the constant ones row the weight blocks' bias columns
    meet."""
    block = [_aligned(width + 1, columns) for _ in range(layers)]
    for f in block:
        f[-1] = 1.0
    return block


def _with_ones(x: np.ndarray) -> np.ndarray:
    return np.vstack((x, np.ones((1, x.shape[1]))))


class _Net:
    """Per layer, in network order: the ``[W | b]`` parameter block, its
    weight and bias-column views, the weight's transpose, and the views of
    its ``[dW | db]`` gradient block (none for a net that only runs
    forward).  The views follow in-place updates of the blocks.
    """

    def __init__(self, blocks: list, grads: list = ()):
        self.blocks = blocks
        self.w = [block[:, :-1] for block in blocks]
        self.b = [block[:, -1:] for block in blocks]
        self.w_t = [w.T for w in self.w]
        self.dw = [g[:, :-1] for g in grads]
        self.db = [g[:, -1] for g in grads]
        self._folds, self._zeros = {}, {}

    def folds(self, columns: int) -> bool:
        """Whether every layer's bias may ride in its weight product at this
        column count (:func:`_fold_is_exact`), worked out once per count."""
        if columns not in self._folds:
            self._folds[columns] = all(_fold_is_exact(*w.shape, columns) for w in self.w)
        return self._folds[columns]

    def zeros(self, columns: int) -> np.ndarray:
        """The zero array of the layer shape at this column count, made once,
        that the ReLUs and masks compare with: against it they run numpy's
        contiguous loop, where a scalar 0.0 would take its slower broadcast
        loop, with the same result bits."""
        if columns not in self._zeros:
            self._zeros[columns] = np.zeros((self.w[0].shape[0], columns))
        return self._zeros[columns]


class _Workspace:
    """Buffers for gradient passes (:func:`_gradient`) of ``net`` over
    batches of one column width: the rows and labels a batch's input
    columns and labels are gathered into (``rows`` with a ones column
    last), pre-activations, features (each with a ones row last), logits,
    softmax terms, and the backward scratch with its float ReLU mask; the
    gradients go to ``net``'s blocks.

    A pass through a workspace overwrites what the previous pass left.
    """

    def __init__(self, net: _Net, columns: int):
        width, classes, layers = net.w[0].shape[0], net.w[-1].shape[0], len(net.w) - 1
        layer = (width, columns)
        self.rows = _aligned(columns, net.blocks[0].shape[1])
        self.labels = np.empty(columns, np.intp)
        self.preacts = [_aligned(*layer) for _ in range(layers)]
        self.features = _feature_block(layers, width, columns)
        self.logits = np.empty((classes, columns))
        self.dz = np.empty((classes, columns))
        self.maxima = np.empty((1, columns))
        self.total = np.empty((1, columns))
        self.dx = _aligned(*layer)
        self.da = _aligned(*layer)
        self.product = _aligned(*layer)
        self.mask = _aligned(*layer)
        self.columns = np.arange(columns)


def _blocks(params: dict) -> list:
    """Fresh ``[W | b]`` blocks of a parameter dict, in network order; the
    dict must hold exactly the keys :func:`init_params` gives a network of
    some depth, which is the depth read."""
    names = _layer_names((len(params) - 4) // 2)
    if len(params) < 6 or set(params) != {f"{p}_{name}" for name in names for p in "wb"}:
        raise ValueError(f"parameter keys {sorted(params)} are not the init_params "
                         f"keys of a network of any depth")
    return [np.hstack((params[f"w_{name}"], params[f"b_{name}"][:, None])) for name in names]


def _affine(net: _Net, l: int, x: np.ndarray, out: np.ndarray) -> None:
    """Layer l's ``W x + b`` into ``out``, for features ``x`` with a ones
    row last: one product with the bias column riding against that row
    where it folds at this column count (:meth:`_Net.folds`), else the
    product of the weights and the rows above it, then the bias added."""
    if net.folds(x.shape[1]):
        np.matmul(net.blocks[l], x, out=out)
    else:
        np.matmul(net.w[l], x[:-1], out=out)
        out += net.b[l]


def _layer(net: _Net, l: int, x: np.ndarray, a: np.ndarray, f: np.ndarray) -> None:
    """Layer l from the features ``x`` before it (the input at l = 0): its
    pre-activation into ``a`` and its features into the rows of ``f`` above
    its ones row, the ReLU against :meth:`_Net.zeros`.

    ``x`` and ``f`` carry a ones row last and must be distinct buffers;
    ``a`` may be ``f[:-1]`` itself when the pre-activation is not read
    later.
    """
    body = f[:-1]
    _affine(net, l, x, a)
    np.maximum(a, net.zeros(x.shape[1]), out=body)
    if l:
        body += x[:-1]


def _layers(net: _Net, x: np.ndarray, pair: np.ndarray) -> Iterator[np.ndarray]:
    """The features [x0 .. xL] of the input columns ``x`` (ones row last),
    formed one at a time as they are asked for: every forward-only pass.

    Layer l is formed by :func:`_layer` in ``pair[l % 2]`` (``pair`` is a
    :func:`_feature_block` of two), its pre-activation in place, so each
    layer overwrites the one two before it: a caller that keeps a layer
    copies it.  Overflow is not reported here: a diverged layer holds a
    non-finite value, which its caller checks for.
    """
    for l in range(len(net.blocks) - 1):
        f = pair[l % 2]
        with np.errstate(over="ignore", invalid="ignore"):
            _layer(net, l, x, f[:-1], f)
        x = f
        yield f


def resnet_forward(params: dict, x: np.ndarray):
    """Logits (K x B) and the post-activation features [x0 .. xL] for a
    batch of input columns, in fresh arrays, copied from a forward-only pass
    (:func:`_layers`) of the parameters' depth L (:func:`_blocks`); a
    diverged network gives non-finite values unwarned."""
    net = _Net(_blocks(params))
    pair = _feature_block(2, net.w[0].shape[0], x.shape[1])
    features = [f[:-1].copy() for f in _layers(net, _with_ones(x), pair)]
    logits = np.empty((net.w[-1].shape[0], x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        _affine(net, -1, pair[(len(features) - 1) % 2], logits)  # layer L's buffer
    return logits, features


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
    gradient blocks; ``x`` carries a ones row last.

    Leaves the batch's layers (:func:`_layer`) and logits in ``ws``, from
    which :func:`resnet_backward` reads the loss and accuracy.
    """
    preacts, features, cols, logits = ws.preacts, ws.features, ws.columns, ws.logits
    for l, (a, f) in enumerate(zip(preacts, features)):
        _layer(net, l, features[l - 1] if l else x, a, f)
    _affine(net, -1, features[-1], logits)
    # np.maximum.reduce and np.add.reduce are the reductions .max and .sum
    # run, minus their argument handling
    np.maximum.reduce(logits, axis=0, keepdims=True, out=ws.maxima)
    e = np.exp(np.subtract(logits, ws.maxima, out=ws.dz), out=ws.dz)
    total = np.add.reduce(e, axis=0, keepdims=True, out=ws.total)
    dz = np.divide(e, total, out=e)
    dz[labels, cols] -= 1.0
    dz /= x.shape[1]

    np.matmul(dz, features[-1][:-1].T, out=net.dw[-1])
    np.add.reduce(dz, axis=1, out=net.db[-1])
    dx, da, mask, zeros = ws.dx, ws.da, ws.mask, net.zeros(x.shape[1])
    np.matmul(net.w_t[-1], dz, out=dx)
    for l in range(len(preacts) - 1, 0, -1):
        # a float mask holds the 1.0/0.0 a bool one would be cast to
        np.multiply(dx, np.greater(preacts[l], zeros, out=mask), out=da)
        np.matmul(da, features[l - 1][:-1].T, out=net.dw[l])
        np.add.reduce(da, axis=1, out=net.db[l])
        dx += np.matmul(net.w_t[l], da, out=ws.product)
    np.multiply(dx, np.greater(preacts[0], zeros, out=mask), out=da)
    np.matmul(da, x[:-1].T, out=net.dw[0])
    np.add.reduce(da, axis=1, out=net.db[0])


def resnet_backward(params: dict, x: np.ndarray, labels: np.ndarray):
    """Loss, accuracy and the gradients for one batch of input columns, keyed
    as :func:`init_params` keys the parameters: views of fresh ``[dW | db]``
    blocks, which no two calls share, at the parameters' depth (:func:`_blocks`)."""
    blocks = _blocks(params)
    grads = [np.empty(block.shape) for block in blocks]
    net = _Net(blocks, grads)
    ws = _Workspace(net, x.shape[1])
    _gradient(net, _with_ones(x), labels, ws)
    return (ce_loss(ws.logits, labels), accuracy(ws.logits, labels),
            _named(grads, _layer_names(len(blocks) - 2)))


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
        ValueError: naming the first knob of ``num_classes``, ``per_class``
            and ``input_dim`` that the data's shape (K, n, d) does not match.
        DivergenceError: if the full-set loss, or a layer of a recorded
            epoch, becomes non-finite.
    """
    expected = config.num_classes, config.per_class, config.input_dim
    for name, value, held in zip(("num_classes", "per_class", "input_dim"), expected, data.shape):
        if value != held:
            raise ValueError(f"{name}={value} does not match the data, which hold {held}")
    full_labels = data.labels()

    # A batch's input columns are gathered as rows of x_rows, the input's
    # transpose; params holds views into the flat vector theta.
    x_full = _with_ones(data.features)
    x_rows = np.ascontiguousarray(x_full.T)
    init = _blocks(init_params(config))
    shapes = [block.shape for block in init]
    size = sum(block.size for block in init)
    theta, grad, velocity, scratch = (_aligned(size) for _ in range(4))
    np.concatenate([block.ravel() for block in init], out=theta)
    del init  # copied into theta; the run holds no second set of weights
    velocity.fill(0.0)
    blocks, grad_blocks = _split(theta, shapes), _split(grad, shapes)
    params = _named(blocks, _layer_names(config.num_blocks))
    # (gradient, parameters, scratch) triples that weight decay applies to
    if config.weight_decay == 0.0:
        decayed = []
    elif config.decay_biases:
        decayed = [(grad, theta, scratch)]
    else:
        decayed = [(g[:, :-1], t[:, :-1], s[:, :-1]) for g, t, s in
                   zip(grad_blocks, blocks, _split(scratch, shapes))]
    net = _Net(blocks, grad_blocks)
    workspace = functools.cache(functools.partial(_Workspace, net))  # one per batch width

    # the full-set pass runs forward only, in two buffers (_layers)
    num_samples = data.num_samples
    K, n = config.num_classes, config.per_class
    pair = _feature_block(2, config.width, num_samples)
    full_logits = np.empty((K, num_samples))

    def final_layers() -> Iterator[FeatureSet]:
        # nothing writes the parameters once train returns; each stream owns its pair
        for f in _layers(net, x_full, _feature_block(2, config.width, num_samples)):
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
                ws = workspace(len(batch_idx))
                # mode="clip" writes straight into out, where the default
                # "raise" gathers into a temporary first; a permutation's
                # indices are all in range
                np.take(x_rows, batch_idx, axis=0, out=ws.rows, mode="clip")
                np.take(full_labels, batch_idx, out=ws.labels, mode="clip")
                _gradient(net, ws.rows.T, ws.labels, ws)
                for g, t, s in decayed:
                    g += np.multiply(t, config.weight_decay, out=s)
                velocity *= config.momentum
                velocity += grad
                theta -= np.multiply(velocity, lr, out=scratch)

        measured = []  # each recorded layer, before the pass overwrites it
        for l, last in enumerate(_layers(net, x_full, pair)):
            if record:
                if not np.all(np.isfinite(last)):
                    raise DivergenceError(f"layer {l} became non-finite at epoch {epoch}")
                measured.append(measure(FeatureSet(last[:-1], K, n)))
        if record:
            snapshot_epochs.append(epoch)
            reports.append(tuple(measured))
        with np.errstate(over="ignore", invalid="ignore"):
            _affine(net, -1, last, full_logits)
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
