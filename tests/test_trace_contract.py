"""The names that the traced bench run wraps must exist in flowseg.

``perfbench/spans.py`` wraps public functions where their callers look them
up (``pipeline.forward``, ``pipeline.sde_girsanov_sample_field``,
``cli.fit``, ...).  Renaming or removing one of them breaks the traced run,
so entering its instrumentation is checked here.
"""

import importlib.util
from pathlib import Path

import flowseg.cli as cli
import flowseg.pipeline as pl

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_every_name_and_restores_it():
    spans = _load_spans()
    before = {name: getattr(pl, name) for name in dir(pl)}
    fit = cli.fit
    with spans.instrument(spans.Tracer()):
        assert pl.forward is not before["forward"]
        assert cli.fit is not fit
    assert {name: getattr(pl, name) for name in dir(pl)} == before
    assert cli.fit is fit
