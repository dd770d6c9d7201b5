#!/usr/bin/env python3
"""SER sweep comparing the trained detectors against quantized MLD on a
small receive array (downlink-style setting, one-bit ADCs, implicit
training): configs/detector_comparison.cfg."""

import argparse
from dataclasses import replace
from pathlib import Path

from quantmimo import harness

CONFIG = (Path(__file__).resolve().parents[1] / "configs"
          / "detector_comparison.cfg")


def main():
    cfg = harness.load_config(CONFIG)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=cfg.seed)
    ap.add_argument("--channels", type=int, default=cfg.channel_count)
    ap.add_argument("--vectors", type=int, default=cfg.vectors_per_channel)
    ap.add_argument("--threads", type=int, default=cfg.threads)
    ap.add_argument("--out", default="detector_comparison.csv")
    args = ap.parse_args()

    cfg = replace(cfg, seed=args.seed, channel_count=args.channels,
                  vectors_per_channel=args.vectors, threads=args.threads)
    records = harness.run_ser_experiment(cfg)
    harness.write_csv(records, args.out)
    for r in records:
        print(f"{r.snr_db:5.1f} dB  {r.detector:5s}  ser={r.ser:.5f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
