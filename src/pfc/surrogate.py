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
seeded standard-normal initialization.  One kernel in two halves serves
``objective``, ``gradients`` and every solver epoch: a gradient pass, which
every epoch runs, and a value pass, which reads the buffers the gradient
pass left and runs only where the objective is recorded; a non-finite value
there is traced back to its first epoch by re-running the descent with a
value every epoch (see ``solve``).  The kernel works on a stack of m
problems that share everything but ``lam``: classifiers (m, K, d), features
(m, d, r) and one coefficient per lane, with sums taken per lane, so
``solve`` is a stack of one and ``sweep_lambda`` runs all its coefficients
as one stack.  It writes into scratch buffers allocated once per stack, and
the iterates are updated in place; each lane takes the same floating-point
operations as the allocating single-problem formulas.  Both return each
lane's :class:`SolveResult` whole and measure nothing; callers do.

Under the MSE loss the descent runs in exact row-space coordinates.  The
feature gradient W^T (W H - Y) / Kn plus lam H (UFM) or (lam / Kn)(H - X)
(MUFM) is a combination of the rows of H, Y and X, so every iterate H_t
stays in the row space of [H_0; Y; X] ([H_0; Y] for UFM).  With Q (N x r)
an orthonormal basis of that space from one QR and C = H Q, the norms
||W H - Y||, ||H||, ||H - X|| and ||dH|| equal those of W C - Y Q, C,
C - X Q and dC, so descent on (W, C) is the same iteration in exact
arithmetic at r = 2d + K (d + K for UFM) columns instead of N = Kn.  H is
rebuilt once at the end as H_0 + (C - C_0) Q^T, so a zero learning rate
returns the initialization bit for bit; otherwise the result agrees with
the full-space iteration to rounding.  Softmax rows do not stay in that
span, so for cross-entropy, and whenever r >= N, Q is the identity: the
descent runs on H itself and no product with Q is formed.

For the MSE loss the optimal classifier given H has the ridge closed form
W*(H) = Y H^T (H H^T + n * lambda_w * I)^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DivergenceError, check_domain, ge

KINDS = ("ufm", "mufm")
LOSSES = ("ce", "mse")
# each descent knob's domain, in _solve_stack's order; each caller has its defaults
DESCENT = {"lr": ge(0), "epochs": ge(1), "init_scale": ge(0), "trace_stride": ge(1),
           "grad_tol": ge(0)}


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
        for name, low in (("num_classes", 2), ("per_class", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.dim < self.num_classes:
            raise ValueError(
                f"dim must be >= num_classes, got dim={self.dim} < K={self.num_classes}"
            )
        for name in ("lambda_w", "lam"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
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


def _row_space_basis(p: SolveProblem, H0: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis Q (N x r) of the row space of [H0; Y; X] ([H0; Y]
    for UFM), which the MSE iterates never leave, or None where the descent
    runs at full width: for cross-entropy, and when the r rows number at
    least N."""
    if p.loss != "mse":
        return None
    rows = np.vstack([H0, p.label_matrix()] + ([p.data] if p.kind == "mufm" else []))
    if rows.shape[0] >= rows.shape[1]:
        return None
    return np.linalg.qr(rows.T)[0]


class _Stack:
    """Problems that differ only in ``lam``, in the coordinates their descent
    runs in.

    ``basis`` is the Q of :func:`_row_space_basis` (None for the identity).
    ``labels`` and ``data`` are Y Q and X Q repeated per lane, and the
    feature-gradient coefficient ``h_grad`` is held at the stacked feature
    shape, so the elementwise operations of an epoch need no broadcasting,
    which at these sizes costs about as much as the operation itself.  The
    coefficients are computed in the association of the single-problem
    formulas.
    """

    def __init__(self, p: SolveProblem, lams, basis: np.ndarray | None = None):
        self.problem = p
        self.lams = np.asarray(lams, dtype=np.float64)
        m = len(self.lams)
        labels = p.label_matrix()
        data = p.data
        if basis is not None:
            labels = labels @ basis
            if data is not None:
                data = data @ basis
        self.labels = np.repeat(labels[None], m, axis=0)
        self.data = None if data is None else np.repeat(data[None], m, axis=0)
        k, kn = p.num_classes, p.num_classes * p.per_class
        if p.kind == "ufm":
            self.w_value, self.w_grad = 0.5 * p.lambda_w, p.lambda_w
            self.h_value, h_grad = 0.5 * self.lams, self.lams
        else:
            self.w_value, self.w_grad = p.lambda_w / (2.0 * k), p.lambda_w / k
            self.h_value, h_grad = self.lams / (2.0 * kn), self.lams / kn
        width = labels.shape[1]
        self.h_grad = np.repeat(h_grad, p.dim * width).reshape(m, p.dim, width)


class _Buffers:
    """Scratch arrays of :func:`_gradient` and :func:`_value` for stacked
    (W, C) of shapes (m, K, d) and (m, d, r).

    Each gradient call overwrites the gradients the previous call returned
    and leaves in place the parts of the fit that :func:`_value` reads.
    """

    def __init__(self, W: np.ndarray, C: np.ndarray):
        m, k, _ = W.shape
        width = C.shape[2]
        logits = (m, k, width)
        self.z = np.empty(logits)
        self.exp = np.empty(logits)
        self.dz = np.empty(logits)
        self.columns = np.empty((4, m, 1, width))
        # same memory order as the operands, so whole-lane sums of squares
        # add in the order they would over a fresh product
        self.w = np.empty_like(W, dtype=np.float64)
        self.h = np.empty_like(C, dtype=np.float64)
        self.diff = np.empty_like(C, dtype=np.float64)
        self.dw = np.empty(W.shape)
        self.dc = np.empty(C.shape)


def _fit_gradient(s: _Stack, W: np.ndarray, C: np.ndarray, buf: _Buffers) -> np.ndarray:
    """dLoss/dZ at the logits Z = W C, written to ``buf.dz``.

    Leaves in ``buf`` what :func:`_fit_value` reads: the residual Z - Y
    (MSE) or Z, its column maxima and the softmax normalizers (CE).
    """
    p = s.problem
    kn = p.num_classes * p.per_class
    y = s.labels
    z = np.matmul(W, C, out=buf.z)
    if p.loss == "mse":
        resid = np.subtract(z, y, out=z)
        return np.divide(resid, kn, out=buf.dz)
    z_max, sums = buf.columns[:2]
    np.maximum.reduce(z, axis=1, keepdims=True, out=z_max)
    e = np.exp(np.subtract(z, z_max, out=buf.exp), out=buf.exp)
    np.add.reduce(e, axis=1, keepdims=True, out=sums)
    dz = np.divide(e, sums, out=buf.dz)
    dz -= y
    dz /= kn
    return dz


def _fit_value(s: _Stack, buf: _Buffers) -> np.ndarray:
    """Per-lane loss values from the buffers :func:`_fit_gradient` left;
    overwrites ``buf.exp``."""
    p = s.problem
    kn = p.num_classes * p.per_class
    if p.loss == "mse":
        squares = np.multiply(buf.z, buf.z, out=buf.exp)
        return np.add.reduce(squares, axis=(1, 2)) / (2.0 * kn)
    z_max, sums, logsumexp, true_logit = buf.columns
    np.log(sums, out=logsumexp)
    logsumexp += z_max
    np.add.reduce(np.multiply(buf.z, s.labels, out=buf.exp), axis=1, keepdims=True,
                  out=true_logit)
    losses = np.subtract(logsumexp, true_logit, out=logsumexp)
    return np.add.reduce(losses, axis=(1, 2)) / kn


def _gradient(s: _Stack, W: np.ndarray, C: np.ndarray, buf: _Buffers):
    """Per-lane gradients (dW, dC) of the objective at the stacked (W, C),
    computed in ``buf``."""
    dz = _fit_gradient(s, W, C, buf)
    dw = np.matmul(dz, C.transpose(0, 2, 1), out=buf.dw)
    dc = np.matmul(W.transpose(0, 2, 1), dz, out=buf.dc)
    feat = C if s.problem.kind == "ufm" else np.subtract(C, s.data, out=buf.diff)
    dw += np.multiply(W, s.w_grad, out=buf.w)
    dc += np.multiply(feat, s.h_grad, out=buf.h)
    return dw, dc


def _value(s: _Stack, W: np.ndarray, C: np.ndarray, buf: _Buffers) -> np.ndarray:
    """Per-lane objective values at the (W, C) of the last :func:`_gradient`
    call, read from the buffers it left; the gradients stay intact."""
    fit = _fit_value(s, buf)
    w2 = np.add.reduce(np.multiply(W, W, out=buf.w), axis=(1, 2))
    feat = C if s.problem.kind == "ufm" else buf.diff
    f2 = np.add.reduce(np.multiply(feat, feat, out=buf.h), axis=(1, 2))
    return fit + s.w_value * w2 + s.h_value * f2


def _full_space(p: SolveProblem, W: np.ndarray, H: np.ndarray):
    _check_shapes(p, W, H)
    s, W, H = _Stack(p, [p.lam]), W[None], H[None]
    buf = _Buffers(W, H)
    dw, dh = _gradient(s, W, H, buf)
    return _value(s, W, H, buf), dw, dh


def objective(p: SolveProblem, W: np.ndarray, H: np.ndarray) -> float:
    """Full objective value at (W, H)."""
    return float(_full_space(p, W, H)[0][0])


def gradients(p: SolveProblem, W: np.ndarray, H: np.ndarray):
    """Analytic gradients (dW, dH) of :func:`objective`."""
    _, dw, dh = _full_space(p, W, H)
    return dw[0], dh[0]


def closed_form_W(H: np.ndarray, Y: np.ndarray, lambda_w: float, per_class: int) -> np.ndarray:
    """Ridge minimizer of the MSE objective over the classifier at fixed H:
    W* = Y H^T (H H^T + n * lambda_w * I)^{-1}."""
    d = H.shape[0]
    system = H @ H.T + per_class * lambda_w * np.eye(d)
    return np.linalg.solve(system, H @ Y.T).T


def _grad_norms(dw: np.ndarray, dc: np.ndarray, buf: _Buffers) -> np.ndarray:
    """Per-lane joint gradient norms; the squares go to ``buf.w`` and
    ``buf.h``, which :func:`_value` overwrites before it reads them."""
    w2 = np.add.reduce(np.multiply(dw, dw, out=buf.w), axis=(1, 2))
    c2 = np.add.reduce(np.multiply(dc, dc, out=buf.h), axis=(1, 2))
    return np.sqrt(w2 + c2)


def _solve_stack(p: SolveProblem, lams, lr: float, epochs: int, init_scale: float,
                 trace_stride: int, grad_tol: float) -> list[SolveResult]:
    """Solve ``replace(p, lam=lam)`` for every ``lam`` of ``lams`` as one
    stacked descent from the shared seeded initialization.

    All lanes run the same epochs; ``grad_tol`` stops the stack once every
    lane's gradient norm is at most it.
    """
    for (name, domain), value in zip(DESCENT.items(),
                                     (lr, epochs, init_scale, trace_stride, grad_tol)):
        check_domain(name, value, domain)

    rng = np.random.default_rng(p.seed)
    W0 = init_scale * rng.standard_normal((p.num_classes, p.dim))
    H0 = init_scale * rng.standard_normal((p.dim, p.num_classes * p.per_class))
    basis = _row_space_basis(p, H0)
    C0 = H0 if basis is None else H0 @ basis
    s = _Stack(p, lams, basis)
    m = len(s.lams)
    W = np.repeat(W0[None], m, axis=0)
    C = np.repeat(C0[None], m, axis=0)

    buf = _Buffers(W, C)
    step_w, step_c = np.empty_like(W), np.empty_like(C)
    # overflow here is the divergence case the isfinite check reports
    with np.errstate(over="ignore", invalid="ignore"):
        dw, dc = _gradient(s, W, C, buf)
        trace = [_value(s, W, C, buf)]
        trace_epochs = [0]
        for epoch in range(1, epochs + 1):
            W -= np.multiply(dw, lr, out=step_w)
            C -= np.multiply(dc, lr, out=step_c)
            dw, dc = _gradient(s, W, C, buf)
            stop = grad_tol > 0.0 and np.all(_grad_norms(dw, dc, buf) <= grad_tol)
            if not (stop or epoch % trace_stride == 0 or epoch == epochs):
                continue
            obj = _value(s, W, C, buf)
            finite = np.isfinite(obj)
            if not np.logical_and.reduce(finite):
                if trace_stride > 1:
                    # the same descent, valued every epoch, raises at the
                    # first non-finite one
                    _solve_stack(p, lams, lr, epoch, init_scale, 1, grad_tol)
                lam = s.lams[np.argmin(finite)]
                raise DivergenceError(
                    f"lambda={lam}: objective became non-finite at epoch {epoch}"
                )
            trace.append(obj)
            trace_epochs.append(epoch)
            if stop:
                break

    trace = np.asarray(trace)
    grad_norms = _grad_norms(dw, dc, buf)
    return [
        SolveResult(
            W=W[i],
            H=C[i] if basis is None else H0 + (C[i] - C0) @ basis.T,
            objective_trace=trace[:, i].copy(),
            trace_epochs=np.asarray(trace_epochs),
            final_grad_norm=float(grad_norms[i]),
            epochs_run=trace_epochs[-1],  # the last epoch run is always traced
        )
        for i in range(m)
    ]


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
    epoch (entry 0 is the initialization) and after the last epoch; set
    ``grad_tol`` > 0 to stop early once the joint gradient norm falls to
    it.  Under MSE the descent runs in the exact row-space coordinates of
    the module docstring.

    The objective is formed only where it is recorded: at epoch 0, at each
    trace epoch, at the last epoch and at a ``grad_tol`` stop.  The other
    epochs take the gradient alone, so the trace, W and H have the bits of
    a descent that forms the value every epoch.  When a formed value is
    non-finite, the same descent is re-run from its seeded start up to that
    epoch with ``trace_stride=1``, which finds the first non-finite epoch.
    This rests on one premise: a value that turns non-finite and is finite
    again by the next epoch where it is formed is not reported.  That needs
    iterates near 1e154 to shrink back within one stride.

    Raises:
        ValueError: for a knob outside its ``DESCENT`` domain.
        DivergenceError: if the objective becomes non-finite, reporting the
            coefficient and the first epoch at which it happened.
    """
    return _solve_stack(p, [p.lam], lr, epochs, init_scale, trace_stride, grad_tol)[0]


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
    check_domain("num_blocks", num_blocks, ge(1))
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

    Raises:
        DivergenceError: if the descent leaves the float range, naming the
            depth ``num_blocks``.
    """
    X = np.asarray(X, dtype=np.float64)
    H_last = np.asarray(H_last, dtype=np.float64)
    if X.shape != H_last.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {H_last.shape}")
    check_domain("num_blocks", num_blocks, ge(1))
    rng = np.random.default_rng(seed)
    chain = np.empty((num_blocks + 1, *X.shape))
    chain[0], chain[-1] = X, H_last
    for l in range(1, num_blocks):
        chain[l] = rng.standard_normal(X.shape)
    interior, prev, succ = chain[1:-1], chain[:-2], chain[2:]
    step = np.empty_like(interior)
    # a step size past the stable range overflows; the cost tells
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            # every interior layer steps along 2 (2 c_l - c_{l-1} - c_{l+1})
            # of the previous iterate, one whole-stack operation at a time
            np.multiply(interior, 2.0, out=step)
            step -= prev
            step -= succ
            step *= 2.0
            step *= lr
            interior -= step
        layers = list(chain)
        cost = transport_chain_cost(layers)
    if not np.isfinite(cost):
        raise DivergenceError(
            f"transport chain descent diverged at depth {num_blocks} (lr={lr}): cost {cost}"
        )
    return layers, cost


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
    s, W_stack, H_stack = _Stack(p, [p.lam]), W[None], H_last[None]
    buf = _Buffers(W_stack, H_stack)
    _fit_gradient(s, W_stack, H_stack, buf)
    fit = _fit_value(s, buf)[0]
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
) -> list[SolveResult]:
    """Solve the MUFM at each transport coefficient: one result per coefficient.

    All solves share the base problem's data and seed, so results differ
    only through ``lam``, and they run as one stacked descent whose lanes
    each match, bit for bit, a separate :func:`solve` traced every
    max(1, epochs // 100) epochs.  Every coefficient is validated before
    any descent; a divergence names the offending coefficient.
    """
    if base.kind != "mufm":
        raise ValueError("sweep_lambda operates on mufm problems")
    lams = [float(lam) for lam in lambdas]
    for lam in lams:
        if not 0 < lam < np.inf:
            raise ValueError(f"lambda values must be positive and finite, got {lam}")
    if not lams:
        return []
    return _solve_stack(base, lams, lr, epochs, init_scale,
                        trace_stride=max(1, epochs // 100), grad_tol=0.0)
