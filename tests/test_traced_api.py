"""The library surface that the benchmark's tracer wraps.

``perfbench/tracer.py`` replaces each function it lists by name and reads
the arguments of some calls by parameter name, so a rename in the library
would silently break traced runs. It is loaded here by path, without
running it.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

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
