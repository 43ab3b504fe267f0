#!/usr/bin/env python3
"""Train the toy residual net on an IDX image/label pair (MNIST format)
and write the per-layer collapse report.

Example:
    python3 scripts/train_mnist.py train-images-idx3-ubyte train-labels-idx1-ubyte \
        --per-class 500 --epochs 30 --out runs/mnist
"""

import argparse
from pathlib import Path

from pfc.data import load_mnist_idx
from pfc.geodesic import relative_positions
from pfc.harness import spearman, write_csv, write_json
from pfc.resnet import TrainConfig, train


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("images", type=Path, help="IDX image file")
    parser.add_argument("labels", type=Path, help="IDX label file")
    parser.add_argument("--per-class", type=int, default=500)
    parser.add_argument("--num-blocks", type=int, default=4)
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--momentum", type=float, default=0.9)
    parser.add_argument("--weight-decay", type=float, default=5e-4)
    parser.add_argument("--record-stride", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("runs/mnist"))
    args = parser.parse_args()

    data, labels = load_mnist_idx(args.images, args.labels, args.per_class)
    config = TrainConfig(
        num_blocks=args.num_blocks,
        width=args.width,
        input_dim=data.dim,
        num_classes=data.num_classes,
        per_class=data.per_class,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        lr_decay_epochs=(),
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        seed=args.seed,
        record_stride=args.record_stride,
    )
    trace = train(config, data, labels)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "train_log.csv",
        ("epoch", "loss", "accuracy"),
        [
            (e + 1, float(trace.losses[e]), float(trace.accuracies[e]))
            for e in range(config.epochs)
        ],
    )

    stack = trace.snapshots[-1]
    reports = trace.reports[-1]
    positions = relative_positions(stack)
    write_csv(
        out / "report.csv",
        ("layer", "relative_position", "pfc1", "pfc2", "pfc3"),
        [
            (layer, float(pos), rep.pfc1, rep.pfc2, rep.pfc3)
            for layer, (pos, rep) in enumerate(zip(positions, reports))
        ],
    )

    layer_index = list(range(len(reports)))
    summary = {
        "final_loss": float(trace.losses[-1]),
        "final_accuracy": float(trace.accuracies[-1]),
        "spearman_layer_pfc1": spearman(layer_index, [r.pfc1 for r in reports]),
        "spearman_layer_pfc2": spearman(layer_index, [r.pfc2 for r in reports]),
        "last_layer_pfc3": reports[-1].pfc3,
    }
    write_json(out / "summary.json", summary)
    for key, value in summary.items():
        print(f"{key}: {value}")


if __name__ == "__main__":
    main()
