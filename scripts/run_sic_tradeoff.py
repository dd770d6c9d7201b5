#!/usr/bin/env python3
"""Performance/complexity tradeoff of two-stage detection on a large
receive array: the full search against splits of the transmit antennas,
the 5/1 split being configs/sic_tradeoff_nt1_5.cfg."""

import argparse
from dataclasses import replace
from pathlib import Path

from quantmimo import harness

CONFIG = (Path(__file__).resolve().parents[1] / "configs"
          / "sic_tradeoff_nt1_5.cfg")


def main():
    cfg = harness.load_config(CONFIG)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=cfg.seed)
    ap.add_argument("--channels", type=int, default=cfg.channel_count)
    ap.add_argument("--vectors", type=int, default=cfg.vectors_per_channel)
    ap.add_argument("--threads", type=int, default=cfg.threads)
    ap.add_argument("--out", default="sic_tradeoff.csv")
    args = ap.parse_args()

    split = replace(cfg, seed=args.seed, channel_count=args.channels,
                    vectors_per_channel=args.vectors, threads=args.threads)
    runs = [
        # the full search trains every candidate explicitly, 16 signals each
        ("full search",
         replace(split, framework="full", n_t1=None, artificial_count=16)),
        ("split n_t1=5", split),
        ("split n_t1=4", replace(split, n_t1=4)),
    ]
    all_records = []
    for label, run in runs:
        records = harness.run_ser_experiment(run)
        all_records.extend(records)
        evals = (4**run.n_t1 + 4 ** (run.n_t - run.n_t1)
                 if run.framework == "sic" else 4**run.n_t)
        for r in records:
            print(f"{label:14s} {r.snr_db:5.1f} dB  ser={r.ser:.5f}  "
                  f"candidates/vector={evals}")
    harness.write_csv(all_records, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
