"""Traced run of the quantmimo CLI.

Wraps each layer's public functions with a span recorder, runs
``quantmimo.cli.main`` in this process, and writes the spans to a JSON file
when the CLI returns::

    python3 perfbench/tracer.py SPANS.json ser --config CFG --seed 7 --out OUT.csv

Each span is ``[name, start, end, parent, counts]``: ``parent`` is the index
of the enclosing span (or ``null``) and ``counts`` holds the work counts the
benchmark records for that call, taken after the span closes so that their
cost lands outside every layer's time.

The wrapper replaces every binding of the original function in every loaded
``quantmimo`` module, because ``from .core import transmit_batch`` gives the
importing module its own name for the function: wrapping ``core`` alone would
miss those calls.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# The public functions traced per layer (module of ``quantmimo``).
LAYER_FUNCTIONS = {
    "core": ("transmit_batch", "quantize_levels", "vectors_from_levels",
             "sample_channel", "enumerate_symbols"),
    "training": ("learn_implicit", "learn_explicit"),
    "detection": ("centroids", "detect_emld_batch", "detect_mmd_batch",
                  "detect_mcd_batch"),
    "sic": ("build_plan", "learn_first_stage", "detect_sic_batch"),
    "baselines": ("detect_mld_batch", "estimate_channel_ls", "detect_zf_batch"),
    "analysis": ("geometry", "build_codebook", "svep_upper_bound"),
    "harness": ("sample_dmin",),
}

TRACED = tuple(
    f"{layer}.{name}" for layer, names in LAYER_FUNCTIONS.items()
    for name in names)

# Bytes per element of the N x S x d (eMLD, int64 level differences) and
# N x K x d (MLD, float64 cell probabilities) temporaries.
_INT64_BYTES = 8
_FLOAT64_BYTES = 8


def _rows(matrix) -> int:
    return len(matrix) if getattr(matrix, "ndim", 2) == 2 else 1


def _distinct_trained(model) -> int:
    # counted from the dict keys, not ``model.trained_vectors``, so the
    # detectors still pay for building that cached property themselves
    return len(set().union(*model.counts))


def _training(samples):
    def count(a, model):
        return {"samples": samples(a), "support_rows": _distinct_trained(model)}
    return count


def _emld(a, _):
    n = _rows(a["levels"])
    s, d = a["model"].support_arrays[0].shape
    return {"candidate_evals": n * s, "computed_bytes": n * s * d * _INT64_BYTES}


def _mmd(a, _):
    return {"candidate_evals": _rows(a["levels"])
            * a["model"].support_arrays[0].shape[0]}


def _mcd(a, _):
    return {"candidate_evals": _rows(a["values"]) * a["book"].size}


def _mld(a, _):
    n, k = _rows(a["levels"]), a["book"].size
    d = a["levels"].shape[-1]
    return {"candidate_evals": n * k, "computed_bytes": n * k * d * _FLOAT64_BYTES}


def _sic(a, _):
    return {"candidate_evals": _rows(a["values"])
            * (a["book1"].size + a["book2"].size)}


def _geometry(_, geom):
    # the unit flip budget is the channel filter of bound validation
    return {"kept": int(geom.half_flips == 1)}


COUNTERS = {
    "training.learn_implicit": _training(
        lambda a: a["repetitions"] * a["book"].size),
    "training.learn_explicit": _training(
        lambda a: a["artificial_count"] * a["book"].size),
    "detection.detect_emld_batch": _emld,
    "detection.detect_mmd_batch": _mmd,
    "detection.detect_mcd_batch": _mcd,
    "baselines.detect_mld_batch": _mld,
    "sic.detect_sic_batch": _sic,
    "analysis.geometry": _geometry,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every ``quantmimo`` binding of each traced function."""
        import quantmimo.cli  # noqa: F401  (loads every layer module)

        modules = [m for key, m in sys.modules.items()
                   if key == "quantmimo" or key.startswith("quantmimo.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"quantmimo.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json CLI_ARG...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from quantmimo import cli

    status = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
