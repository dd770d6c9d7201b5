"""Command-line front end.

Subcommands: ``ser`` (SNR sweep), ``bound`` (error-bound validation),
``ccdf`` (minimum-distance distribution), and ``demo`` (the noise-free
two-antenna walkthrough). Results go to stdout as CSV, or to ``--out``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import detection, harness, training
from .core import (
    QuantizerConfig, bpsk, enumerate_symbols, level_values, transmit_batch)


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", required=True, help="path to a key=value config file")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--out", default=None, help="write results as CSV to this path")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker processes for channel realizations")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantmimo",
        description="Monte Carlo experiments for MIMO detection with "
                    "low-resolution ADCs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("ser", "symbol-error-rate sweep over the configured SNR grid"),
        ("bound", "simulated vector-error probability vs the analytic bound"),
        ("ccdf", "minimum-distance distribution, analytic vs Monte Carlo"),
    ):
        _add_experiment_args(sub.add_parser(name, help=text))
    sub.add_parser("demo", help="run the noise-free 2x2 walkthrough example")
    return parser


def _demo() -> None:
    # the paper's real 2x2 toy channel as one complex antenna: BPSK symbols
    # are real, so its [Re; Im] outputs are the toy channel's two outputs
    h = np.array([[0.5 + 1j, 1.0]])
    cfg = QuantizerConfig(bits=1, step=2.0)
    book = enumerate_symbols(bpsk(), 2)
    levels = transmit_batch(
        h, training.build_implicit_pilots(book, 1), 0.0, cfg)
    model = training.learn_implicit(levels, book, 1, cfg)
    print("channel:")
    print(np.array2string(np.vstack([h.real, h.imag])))
    print("trained pairs (symbol vector -> one-bit observation):")
    # one noise-free sample per symbol: row k is symbol k's only one
    trained = level_values(model.levels[:, 0], cfg)
    for k in range(book.size):
        print(f"  x{k + 1} = {np.real(book.vectors[k])} -> y = {trained[k]}")
    target = np.array([[1, 0]])
    values = level_values(target, cfg)
    results = {
        "emld": detection.detect_emld_batch(target, model)[0],
        "mmd": detection.detect_mmd_batch(target, model)[0],
        "mcd": detection.detect_mcd_batch(values, detection.centroids(
            model.level_sums(), model.samples_per_symbol, cfg))[0],
    }
    print(f"detecting y = {values[0]}:")
    for name, k in results.items():
        print(f"  {name}: index {k + 1} (symbol vector "
              f"{np.real(book.vectors[k])})")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        _demo()
        return 0
    try:
        cfg = harness.load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)
        runner = {
            "ser": harness.run_ser_experiment,
            "bound": harness.run_bound_validation,
            "ccdf": harness.run_ccdf_experiment,
        }[args.command]
        records = runner(cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    csv_text = harness.render_csv(records)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
