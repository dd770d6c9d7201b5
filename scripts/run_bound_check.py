#!/usr/bin/env python3
"""Simulated vector-error probability of nearest-centroid detection against
the closed-form upper bound, on channels with a unit flip budget: the
``bound`` run of configs/bound_validation.cfg."""

import argparse
from dataclasses import replace
from pathlib import Path

from quantmimo import harness

CONFIG = (Path(__file__).resolve().parents[1] / "configs"
          / "bound_validation.cfg")


def main():
    cfg = harness.load_config(CONFIG)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=cfg.seed)
    ap.add_argument("--channels", type=int, default=cfg.channel_count)
    ap.add_argument("--vectors", type=int, default=cfg.vectors_per_channel)
    ap.add_argument("--trained", action="store_true",
                    help="use pilot-trained centroids instead of codewords")
    ap.add_argument("--out", default="bound_check.csv")
    args = ap.parse_args()

    cfg = replace(cfg, seed=args.seed, channel_count=args.channels,
                  vectors_per_channel=args.vectors)
    records = harness.run_bound_validation(
        cfg, use_trained_centroids=args.trained)
    harness.write_csv(records, args.out)
    for r in records:
        print(f"{r.snr_db:5.1f} dB  svep={r.svep:.5f}  bound={r.bound:.4f}  "
              f"gap={r.bound - r.svep:.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
