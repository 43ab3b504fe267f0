"""Surrogate feature-model optimization.

Two related problems over a classifier W (K x d) and a feature matrix H
(d x K*n) with one-hot labels Y = I_K kron 1_n^T:

* the unconstrained feature model (UFM), which penalizes ||W||_F^2 and
  ||H||_F^2 and whose minimizers are collapsed configurations, and
* the multilayer unconstrained feature model (MUFM), which replaces the
  feature penalty by a transport term (lam / 2Kn) ||H - X||_F^2 tying the
  features to the input data X.  Minimizing the per-block transport sum of
  an L-block chain with fixed ends is equivalent to this collapsed form
  with the coefficient rescaled by 1/L, attained at equally spaced
  collinear intermediates.

Both problems are solved by plain full-batch gradient descent from a
seeded standard-normal initialization.  One value-and-gradient kernel
serves ``objective``, ``gradients`` and every solver epoch; it writes into
scratch buffers allocated once per solve, and the iterates are updated in
place, with the same floating-point operations as the allocating formulas.  For the MSE loss the optimal
classifier given H has the ridge closed form
W*(H) = Y H^T (H H^T + n * lambda_w * I)^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DegenerateInputError, DivergenceError, FeatureSet
from .etf import build_etf
from .metrics import alignment, measure

KINDS = ("ufm", "mufm")
LOSSES = ("ce", "mse")


@dataclass(frozen=True)
class SolveProblem:
    """One UFM or MUFM instance.

    ``lam`` is the coefficient on ||H||_F^2 for UFM and on the transport
    term ||H - X||_F^2 for MUFM.  ``data`` (the d x K*n matrix X) is
    required for MUFM and must be absent for UFM.
    """

    kind: str
    loss: str
    num_classes: int
    dim: int
    per_class: int
    lambda_w: float
    lam: float
    data: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if min(self.num_classes, self.dim, self.per_class) < 1 or self.num_classes < 2:
            raise ValueError("need num_classes >= 2, dim >= 1, per_class >= 1")
        if self.lambda_w <= 0 or self.lam <= 0:
            raise ValueError("lambda_w and lam must be positive")
        shape = (self.dim, self.num_classes * self.per_class)
        if self.kind == "mufm":
            if self.data is None:
                raise ValueError("mufm requires a data matrix X")
            data = np.asarray(self.data, dtype=np.float64).copy()
            if data.shape != shape:
                raise ValueError(f"data must be {shape}, got {data.shape}")
            data.setflags(write=False)
            object.__setattr__(self, "data", data)
        elif self.data is not None:
            raise ValueError("ufm takes no data matrix")
        # built once here: the solver reads it every epoch
        labels = label_matrix(self.num_classes, self.per_class)
        labels.setflags(write=False)
        object.__setattr__(self, "_labels", labels)

    def label_matrix(self) -> np.ndarray:
        """The read-only one-hot label matrix Y of this problem."""
        return self._labels


@dataclass(frozen=True)
class SolveResult:
    """Final state and objective trace of one gradient-descent solve."""

    W: np.ndarray
    H: np.ndarray
    objective_trace: np.ndarray
    trace_epochs: np.ndarray
    final_grad_norm: float
    epochs_run: int


@dataclass(frozen=True)
class SweepRow:
    """Collapse metrics of the solution at one transport coefficient."""

    lam: float
    epoch: int
    objective: float
    pfc1: float
    pfc2: float
    pfc3: float
    alignment: float


def label_matrix(num_classes: int, per_class: int) -> np.ndarray:
    """One-hot label matrix I_K kron 1_n^T, shape K x (K*n)."""
    return np.kron(np.eye(num_classes), np.ones((1, per_class)))


def _check_shapes(p: SolveProblem, W: np.ndarray, H: np.ndarray):
    if W.shape != (p.num_classes, p.dim):
        raise ValueError(f"W must be {(p.num_classes, p.dim)}, got {W.shape}")
    if H.shape != (p.dim, p.num_classes * p.per_class):
        raise ValueError(
            f"H must be {(p.dim, p.num_classes * p.per_class)}, got {H.shape}"
        )


class _Buffers:
    """Scratch arrays of :func:`_value_and_grad` for one (W, H) shape pair.

    Each call overwrites the gradients the previous call returned.
    """

    def __init__(self, W: np.ndarray, H: np.ndarray):
        logits = (W.shape[0], H.shape[1])
        self.z = np.empty(logits)
        self.exp = np.empty(logits)
        self.dz = np.empty(logits)
        self.columns = np.empty((4, H.shape[1]))
        # same memory order as the operands, so whole-array sums of squares
        # add in the order they would over a fresh product
        self.w = np.empty_like(W, dtype=np.float64)
        self.h = np.empty_like(H, dtype=np.float64)
        self.diff = np.empty_like(H, dtype=np.float64)
        self.dw = np.empty(W.shape)
        self.dh = np.empty(H.shape)


def _fit_terms(p: SolveProblem, W: np.ndarray, H: np.ndarray, buf: _Buffers) -> float:
    """Loss value at the logits Z = W H; writes dLoss/dZ to ``buf.dz``."""
    kn = p.num_classes * p.per_class
    y = p.label_matrix()
    z = np.matmul(W, H, out=buf.z)
    if p.loss == "mse":
        resid = np.subtract(z, y, out=z)
        value = float(np.sum(np.multiply(resid, resid, out=buf.exp))) / (2.0 * kn)
        np.divide(resid, kn, out=buf.dz)
        return value
    z_max, sums, logsumexp, true_logit = buf.columns
    np.max(z, axis=0, out=z_max)
    e = np.exp(np.subtract(z, z_max, out=buf.exp), out=buf.exp)
    np.sum(e, axis=0, out=sums)
    np.log(sums, out=logsumexp)
    logsumexp += z_max
    np.sum(np.multiply(z, y, out=buf.dz), axis=0, out=true_logit)
    value = float(np.sum(np.subtract(logsumexp, true_logit, out=logsumexp))) / kn
    dz = np.divide(e, sums, out=buf.dz)
    dz -= y
    dz /= kn
    return value


def _value_and_grad(p: SolveProblem, W: np.ndarray, H: np.ndarray, buf: _Buffers):
    """Objective value and gradients (dW, dH) at (W, H), computed in ``buf``."""
    fit = _fit_terms(p, W, H, buf)
    dw = np.matmul(buf.dz, H.T, out=buf.dw)
    dh = np.matmul(W.T, buf.dz, out=buf.dh)
    k, kn = p.num_classes, p.num_classes * p.per_class
    w2 = float(np.sum(np.multiply(W, W, out=buf.w)))
    if p.kind == "ufm":
        h2 = float(np.sum(np.multiply(H, H, out=buf.h)))
        obj = fit + 0.5 * p.lambda_w * w2 + 0.5 * p.lam * h2
        dw += np.multiply(W, p.lambda_w, out=buf.w)
        dh += np.multiply(H, p.lam, out=buf.h)
    else:
        diff = np.subtract(H, p.data, out=buf.diff)
        d2 = float(np.sum(np.multiply(diff, diff, out=buf.h)))
        obj = fit + p.lambda_w / (2.0 * k) * w2 + p.lam / (2.0 * kn) * d2
        dw += np.multiply(W, p.lambda_w / k, out=buf.w)
        dh += np.multiply(diff, p.lam / kn, out=buf.h)
    return obj, dw, dh


def objective(p: SolveProblem, W: np.ndarray, H: np.ndarray) -> float:
    """Full objective value at (W, H)."""
    _check_shapes(p, W, H)
    return _value_and_grad(p, W, H, _Buffers(W, H))[0]


def gradients(p: SolveProblem, W: np.ndarray, H: np.ndarray):
    """Analytic gradients (dW, dH) of :func:`objective`."""
    _check_shapes(p, W, H)
    _, dw, dh = _value_and_grad(p, W, H, _Buffers(W, H))
    return dw, dh


def closed_form_W(H: np.ndarray, Y: np.ndarray, lambda_w: float, per_class: int) -> np.ndarray:
    """Ridge minimizer of the MSE objective over the classifier at fixed H:
    W* = Y H^T (H H^T + n * lambda_w * I)^{-1}."""
    d = H.shape[0]
    system = H @ H.T + per_class * lambda_w * np.eye(d)
    return np.linalg.solve(system, H @ Y.T).T


def closed_form_H(W: np.ndarray, Y: np.ndarray, X: np.ndarray, lam: float) -> np.ndarray:
    """Minimizer of the MSE transport-regularized objective over the features
    at fixed W: H* = (W^T W + lam * I)^{-1} (W^T Y + lam * X)."""
    d = W.shape[1]
    return np.linalg.solve(W.T @ W + lam * np.eye(d), W.T @ Y + lam * X)


def solve(
    p: SolveProblem,
    lr: float = 0.1,
    epochs: int = 50_000,
    init_scale: float = 1.0,
    trace_stride: int = 1,
    grad_tol: float = 0.0,
) -> SolveResult:
    """Plain full-batch gradient descent on (W, H) from a seeded N(0, 1) init.

    The objective trace holds the value after every ``trace_stride``-th
    epoch (entry 0 is the initialization); set ``grad_tol`` > 0 to stop
    early once the joint gradient norm falls below it.

    Raises:
        DivergenceError: if the objective becomes non-finite, reporting the
            epoch at which it happened.
    """
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if trace_stride < 1:
        raise ValueError(f"trace_stride must be >= 1, got {trace_stride}")

    rng = np.random.default_rng(p.seed)
    W = init_scale * rng.standard_normal((p.num_classes, p.dim))
    H = init_scale * rng.standard_normal((p.dim, p.num_classes * p.per_class))

    buf = _Buffers(W, H)
    step_w, step_h = np.empty_like(W), np.empty_like(H)

    def evaluate():
        # overflow here is the divergence case the isfinite check reports
        with np.errstate(over="ignore", invalid="ignore"):
            return _value_and_grad(p, W, H, buf)

    obj, dw, dh = evaluate()
    trace = [obj]
    trace_epochs = [0]
    epochs_run = 0
    for epoch in range(1, epochs + 1):
        W -= np.multiply(dw, lr, out=step_w)
        H -= np.multiply(dh, lr, out=step_h)
        obj, dw, dh = evaluate()
        if not np.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at epoch {epoch}")
        epochs_run = epoch
        if epoch % trace_stride == 0 or epoch == epochs:
            trace.append(obj)
            trace_epochs.append(epoch)
        if grad_tol > 0.0:
            gnorm = np.sqrt(np.sum(dw * dw) + np.sum(dh * dh))
            if gnorm <= grad_tol:
                if trace_epochs[-1] != epoch:
                    trace.append(obj)
                    trace_epochs.append(epoch)
                break

    final_grad_norm = float(np.sqrt(np.sum(dw * dw) + np.sum(dh * dh)))
    return SolveResult(
        W=W,
        H=H,
        objective_trace=np.asarray(trace),
        trace_epochs=np.asarray(trace_epochs),
        final_grad_norm=final_grad_norm,
        epochs_run=epochs_run,
    )


def collapse_multilayer(X: np.ndarray, H_last: np.ndarray, num_blocks: int):
    """Equally spaced collinear chain from X to H_last and its transport sum.

    Returns (layers, value) where layers[l] = X + (l/L)(H_last - X) for
    l = 0..L and value = sum_l ||layers[l+1] - layers[l]||_F^2, the minimum
    of the transport sum over free intermediates, equal to
    (1/L) ||H_last - X||_F^2.
    """
    X = np.asarray(X, dtype=np.float64)
    H_last = np.asarray(H_last, dtype=np.float64)
    if X.shape != H_last.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {H_last.shape}")
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    layers = [X + (l / num_blocks) * (H_last - X) for l in range(num_blocks + 1)]
    value = transport_chain_cost(layers)
    return layers, value


def transport_chain_cost(layers) -> float:
    """Sum of squared Frobenius step norms along a chain of matrices."""
    return float(
        sum(np.sum((b - a) ** 2) for a, b in zip(layers[:-1], layers[1:]))
    )


def minimize_transport_chain(
    X: np.ndarray,
    H_last: np.ndarray,
    num_blocks: int,
    lr: float = 0.2,
    iters: int = 5_000,
    seed: int = 0,
):
    """Gradient descent on the transport sum over free intermediate layers.

    Serves as an independent check of :func:`collapse_multilayer`: from a
    seeded random initialization of the L-1 interior layers (ends fixed),
    descent converges to the equally spaced collinear chain.
    """
    X = np.asarray(X, dtype=np.float64)
    H_last = np.asarray(H_last, dtype=np.float64)
    if X.shape != H_last.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {H_last.shape}")
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    rng = np.random.default_rng(seed)
    interior = [rng.standard_normal(X.shape) for _ in range(num_blocks - 1)]
    for _ in range(iters):
        chain = [X, *interior, H_last]
        for l in range(1, num_blocks):
            grad = 2.0 * (2.0 * chain[l] - chain[l - 1] - chain[l + 1])
            interior[l - 1] = chain[l] - lr * grad
    layers = [X, *interior, H_last]
    return layers, transport_chain_cost(layers)


def multilayer_objective(p: SolveProblem, W: np.ndarray, layers) -> float:
    """Objective of the L-block chain form: loss at the last layer, classifier
    penalty, and the transport sum over consecutive layers.

    ``layers[0]`` must equal the problem's data matrix (the chain is pinned
    to the input).
    """
    if p.kind != "mufm":
        raise ValueError("multilayer objective is defined for mufm problems")
    if not np.array_equal(np.asarray(layers[0]), p.data):
        raise ValueError("layers[0] must equal the data matrix X")
    H_last = np.asarray(layers[-1], dtype=np.float64)
    _check_shapes(p, W, H_last)
    fit = _fit_terms(p, W, H_last, _Buffers(W, H_last))
    k, kn = p.num_classes, p.num_classes * p.per_class
    return (
        fit
        + p.lambda_w / (2.0 * k) * float(np.sum(W * W))
        + p.lam / (2.0 * kn) * transport_chain_cost(layers)
    )


def sweep_lambda(
    base: SolveProblem,
    lambdas,
    lr: float = 0.1,
    epochs: int = 50_000,
    init_scale: float = 1.0,
) -> list[SweepRow]:
    """Solve the MUFM at each transport coefficient and report final metrics.

    All solves share the base problem's data and seed, so rows differ only
    through ``lam``.  Solve failures are re-raised with the offending
    coefficient in the message.
    """
    if base.kind != "mufm":
        raise ValueError("sweep_lambda operates on mufm problems")
    target = build_etf(base.num_classes, base.dim, seed=base.seed)
    rows = []
    for lam in lambdas:
        if lam <= 0:
            raise ValueError(f"lambda values must be positive, got {lam}")
        problem = replace(base, lam=float(lam))
        try:
            result = solve(problem, lr=lr, epochs=epochs, init_scale=init_scale,
                           trace_stride=max(1, epochs // 100))
            fs = FeatureSet(result.H, base.num_classes, base.per_class)
            report = measure(fs, target)
            rows.append(
                SweepRow(
                    lam=float(lam),
                    epoch=result.epochs_run,
                    objective=float(result.objective_trace[-1]),
                    pfc1=report.pfc1,
                    pfc2=report.pfc2,
                    pfc3=report.pfc3,
                    alignment=alignment(result.H, base.data),
                )
            )
        except (DivergenceError, DegenerateInputError) as exc:
            raise type(exc)(f"lambda={lam}: {exc}") from exc
    return rows
