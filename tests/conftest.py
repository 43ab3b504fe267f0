"""Shared pytest hooks, helpers and brute-force oracles.

The acceptance tests register one verdict line each; replaying them in
the terminal summary keeps the lines visible even though output capture
swallows prints made while a test is running.  ``stack_positions`` is
the one way the tests place a stack's layers.  Each brute-force oracle
(``naive_*``, central differences) and builder that the unit and the
acceptance tests share lives here, once.
"""

import numpy as np

from pfc.data import gen_gaussian_mixture
from pfc.geodesic import positions_from_steps, step_length
from pfc.resnet import TrainConfig, init_params, resnet_backward
from pfc.surrogate import SolveProblem, objective

VERDICT_LINES = []

# exact shifts of the exponent, from inside the safe window to the edges
# of the float64 range
POWERS_OF_TWO = [2.0**e for e in (300, -300, 600, -600, 1000, -1000)]

# a two-block network small enough for central differences
TINY_NET = dict(num_blocks=2, width=5, input_dim=3, num_classes=2, per_class=4, epochs=2,
                batch_size=8, lr=0.05, lr_decay_epochs=(), momentum=0.0, weight_decay=0.0,
                record_stride=1)


def pytest_terminal_summary(terminalreporter):
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


def write_text_layer(path, fs):
    """Write ``fs`` in the text layer format ``load_featureset`` reads: a
    header line ``K n d``, then d rows of K*n values, each printed with 17
    significant digits, so that it parses back to the same bits."""
    np.savetxt(path, fs.features, fmt="%.17g", header=" ".join(map(str, fs.shape)),
               comments="")


def stack_positions(stack):
    """Positions on [0, 1] of a tuple of feature sets, one per layer: each
    consecutive pair's ``step_length``, placed by ``positions_from_steps``."""
    return positions_from_steps([step_length(a, b) for a, b in zip(stack, stack[1:])])


def naive_stats(features, num_classes, per_class):
    """Class means (one column per class), global mean, and the within- and
    between-class traces, from explicit loops over classes and samples."""
    means = np.zeros((features.shape[0], num_classes))
    for k in range(num_classes):
        means[:, k] = features[:, k * per_class : (k + 1) * per_class].mean(axis=1)
    gmean = means.mean(axis=1)
    within = sum(
        float(np.sum((features[:, k * per_class + i] - means[:, k]) ** 2))
        for k in range(num_classes)
        for i in range(per_class)
    ) / (num_classes * per_class)
    between = sum(
        float(np.sum((means[:, k] - gmean) ** 2)) for k in range(num_classes)
    ) / num_classes
    return means, gmean, within, between


def naive_pfc1(features, num_classes, per_class):
    _, _, within, between = naive_stats(features, num_classes, per_class)
    return within / between


def naive_pfc2(features, num_classes, per_class, target):
    means, gmean, _, _ = naive_stats(features, num_classes, per_class)
    centered = means - gmean[:, None]
    gram = centered.T @ centered
    return float(np.linalg.norm(gram / np.linalg.norm(gram) - target))


def naive_pfc3(features, num_classes, per_class):
    means = naive_stats(features, num_classes, per_class)[0]
    correct = 0
    for k in range(num_classes):
        for i in range(per_class):
            h = features[:, k * per_class + i]
            best, best_dist = 0, float("inf")
            for j in range(num_classes):
                dist = float(np.sum((h - means[:, j]) ** 2))
                if dist < best_dist:  # strict: ties keep the smaller index
                    best, best_dist = j, dist
            correct += best == k
    return correct / (num_classes * per_class)


def naive_alignment(h, x):
    value = 0.0
    hn = np.sqrt(float(np.sum(h * h)))
    xn = np.sqrt(float(np.sum(x * x)))
    for idx in np.ndindex(h.shape):
        value += (h[idx] / hn - x[idx] / xn) ** 2
    return float(np.sqrt(value))


def make_problem(kind="mufm", loss="mse", num_classes=3, dim=5, per_class=4,
                 lambda_w=0.05, lam=0.02, seed=0):
    data = None
    if kind == "mufm":
        data = gen_gaussian_mixture(num_classes, dim, per_class, seed=[seed, 9]).features
    return SolveProblem(
        loss=loss, num_classes=num_classes, dim=dim,
        per_class=per_class, lambda_w=lambda_w, lam=lam, data=data, seed=seed,
    )


def random_state(p: SolveProblem, seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((p.num_classes, p.dim))
    H = rng.standard_normal((p.dim, p.num_classes * p.per_class))
    return W, H


def fd_gradients(p: SolveProblem, W, H, step=1e-5):
    dW = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        up, down = W.copy(), W.copy()
        up[idx] += step
        down[idx] -= step
        dW[idx] = (objective(p, up, H) - objective(p, down, H)) / (2 * step)
    dH = np.zeros_like(H)
    for idx in np.ndindex(H.shape):
        up, down = H.copy(), H.copy()
        up[idx] += step
        down[idx] -= step
        dH[idx] = (objective(p, W, up) - objective(p, W, down)) / (2 * step)
    return dW, dH


def tiny_config(**overrides):
    return TrainConfig(**{**TINY_NET, **overrides})


def network_fd_gaps(config, seed, step=1e-6):
    """(name, analytic - central difference, central difference) of each
    parameter's loss gradient, for ``config``'s network with nonzero biases
    on a seeded batch of 5."""
    params = init_params(config)
    rng = np.random.default_rng(seed + 1000)
    # nonzero biases keep preactivations away from the relu kink,
    # where central differences straddle the nondifferentiable point.
    for name in params:
        if name.startswith("b_"):
            params[name] = 0.3 * rng.standard_normal(params[name].shape)
    x = rng.standard_normal((config.input_dim, 5))
    labels = rng.integers(0, config.num_classes, size=5)
    _, _, grads = resnet_backward(params, x, labels)
    for name, theta in params.items():
        fd = np.zeros_like(theta)
        for idx in np.ndindex(theta.shape):
            theta[idx] += step
            up = resnet_backward(params, x, labels)[0]
            theta[idx] -= 2 * step
            down = resnet_backward(params, x, labels)[0]
            theta[idx] += step
            fd[idx] = (up - down) / (2 * step)
        yield name, grads[name] - fd, fd
