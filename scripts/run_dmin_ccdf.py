#!/usr/bin/env python3
"""Distribution of the codebook minimum distance over Rayleigh channels:
closed-form CCDF against Monte Carlo, for several antenna setups, the last
of them configs/dmin_ccdf.cfg's."""

import argparse
from dataclasses import replace
from pathlib import Path

from quantmimo import harness

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "dmin_ccdf.cfg"


def main():
    cfg = harness.load_config(CONFIG)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=cfg.seed)
    ap.add_argument("--channels", type=int, default=cfg.channel_count)
    ap.add_argument("--out", default="dmin_ccdf.csv")
    args = ap.parse_args()

    cfg = replace(cfg, seed=args.seed, channel_count=args.channels)
    all_records = []
    for n_t, n_r in ((2, 2), (2, 4), (4, 4)):
        records = harness.run_ccdf_experiment(replace(cfg, n_t=n_t, n_r=n_r))
        all_records.extend(records)
        kind = "exact" if n_t == 2 else "approx"
        for r in records:
            print(f"n_t={n_t} n_r={n_r}  {r.detector:9s}  "
                  f"mc={r.ser:.4f}  {kind}={r.bound:.4f}")
    harness.write_csv(all_records, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
