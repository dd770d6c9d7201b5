#!/usr/bin/env python3
"""SER vs ADC resolution with least-squares channel estimation: trained
nearest-centroid detection against zero-forcing, for 1 to 3 bit ADCs, the
2-bit run being configs/multibit_downlink_b2.cfg."""

import argparse
from dataclasses import replace
from pathlib import Path

from quantmimo import harness

CONFIG = (Path(__file__).resolve().parents[1] / "configs"
          / "multibit_downlink_b2.cfg")


def main():
    cfg = harness.load_config(CONFIG)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=cfg.seed)
    ap.add_argument("--channels", type=int, default=cfg.channel_count)
    ap.add_argument("--vectors", type=int, default=cfg.vectors_per_channel)
    ap.add_argument("--threads", type=int, default=cfg.threads)
    ap.add_argument("--out", default="multibit_downlink.csv")
    args = ap.parse_args()

    cfg = replace(cfg, seed=args.seed, channel_count=args.channels,
                  vectors_per_channel=args.vectors, threads=args.threads)
    all_records = []
    for bits in (1, 2, 3):
        records = harness.run_ser_experiment(replace(cfg, bits=bits))
        all_records.extend(records)
        for r in records:
            print(f"B={bits}  {r.snr_db:5.1f} dB  {r.detector:3s}  "
                  f"ser={r.ser:.5f}")
    harness.write_csv(all_records, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
