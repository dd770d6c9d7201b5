"""The library surface that the benchmark's tracer wraps.

``perfbench/tracer.py`` replaces each function it lists by name, reads the
arguments of some calls by parameter name and reads attributes of their
arguments and results, so a rename in the library would silently break
traced runs. It is loaded here by path, without running its CLI.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from quantmimo import core, detection, sic, training

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _traced_function(name):
    layer, attr = name.split(".")
    return getattr(importlib.import_module(f"quantmimo.{layer}"), attr)


def _argument_names(counter):
    """Names the counter reads from its bound-arguments mapping, in its own
    body and in the functions it closes over."""
    names = set()
    functions = [counter]
    while functions:
        fn = functions.pop()
        arguments = next(iter(inspect.signature(fn).parameters))
        names |= set(re.findall(
            rf"\b{arguments}\[\"(\w+)\"\]", inspect.getsource(fn)))
        functions += [cell.cell_contents for cell in fn.__closure__ or ()
                      if inspect.isfunction(cell.cell_contents)]
    return names


@pytest.mark.parametrize("name", tracer.TRACED)
def test_every_traced_function_exists(name):
    assert callable(_traced_function(name))


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counter_reads_only_parameters_of_its_function(name):
    assert name in tracer.TRACED
    parameters = inspect.signature(_traced_function(name)).parameters
    assert _argument_names(tracer.COUNTERS[name]) <= set(parameters)


def test_counters_read_the_arguments_they_count():
    # the parser above finds what the counters read, so the subset check
    # cannot pass vacuously
    assert _argument_names(tracer.COUNTERS["training.learn_implicit"]) == {
        "repetitions", "book"}
    assert _argument_names(tracer.COUNTERS["sic.detect_sic_batch"]) == {
        "values", "book1", "book2"}


# The work counts each counter reports.
_COUNT_KEYS = {
    "training.learn_implicit": {"samples", "support_rows"},
    "training.learn_explicit": {"samples", "support_rows"},
    "detection.detect_emld_batch": {"candidate_evals", "computed_bytes"},
    "detection.detect_mmd_batch": {"candidate_evals"},
    "detection.detect_mcd_batch": {"candidate_evals"},
    "baselines.detect_mld_batch": {"candidate_evals", "computed_bytes"},
    "sic.detect_sic_batch": {"candidate_evals"},
    "analysis.geometry": {"kept"},
}


def _probe_arguments():
    """Arguments of one tiny real call of every counted function."""
    cfg = core.QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    half = core.enumerate_symbols(core.bpsk(), 1)
    rng = np.random.default_rng(0)
    h = core.sample_channel(3, 2, rng)
    pilots = training.build_implicit_pilots(book, 2)
    pilot_levels = core.transmit_batch(h, pilots, 0.5, cfg, rng)
    model = training.learn_explicit(h, 0.5, 3, book, cfg, rng)
    levels = core.transmit_batch(h, book.vectors, 0.5, cfg, rng)
    values = core.level_values(levels, cfg)
    plan = sic.build_plan(h, 1)
    first_stage = sic.learn_first_stage(plan, 0.5, 1, half, half, cfg)
    return {
        "training.learn_implicit": (pilot_levels, book, 2, cfg),
        "training.learn_explicit": (h, 0.5, 3, book, cfg, rng),
        "detection.detect_emld_batch": (levels, model),
        "detection.detect_mmd_batch": (levels, model),
        "detection.detect_mcd_batch": (values, detection.centroids(
            model.level_sums(), 3, cfg)),
        "baselines.detect_mld_batch": (levels, h, 0.5, book, cfg),
        "sic.detect_sic_batch": (values, plan, first_stage, half, half),
        "analysis.geometry": (h, book, cfg),
    }


def test_every_counter_is_probed():
    assert set(_COUNT_KEYS) == set(tracer.COUNTERS)


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counter_reads_a_real_call(name):
    # the counters read attributes of models, books and results, which the
    # parameter check above cannot see
    recorder = tracer.Tracer()
    recorder.wrap(name, _traced_function(name))(*_probe_arguments()[name])
    (span,) = recorder.spans
    assert span[0] == name
    counts = span[4]
    assert set(counts) == _COUNT_KEYS[name]
    assert all(isinstance(v, int) and v >= 0 for v in counts.values())
