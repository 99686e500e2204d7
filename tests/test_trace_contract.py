"""The names that the traced bench run wraps must exist in flowseg, and run.

``perfbench/spans.py`` wraps public functions where their callers look them
up (``pipeline.forward``, ``pipeline.sde_girsanov_sample_field``,
``cli.fit``, ...).  Renaming or removing one of them breaks the traced run,
so entering its instrumentation is checked here.  A name that still exists
but that ``pipeline`` no longer calls through would make its layer read 0,
so a traced step and evaluation must record a span for every layer.  The
bench scores its checkpoints with ``workloads.predicted_dice``, which must
read a checkpoint as ``evaluate`` scores the model that wrote it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import flowseg.cli as cli
import flowseg.data as fd
import flowseg.pipeline as pl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


LAYER_SPANS = ("diffcore.conv2d", "diffcore.conv2d.bwd", "diffcore.backward",
               "sde.sample_field", "flows.flow_push", "ncvi.mc_kl", "ncvi.refresh_state",
               "ncvi.kl_terms", "spatial.grad_sqnorm", "spatial.gumbel_softmax",
               "spatial.dice_ce_loss_per_item", "pipeline.Adam.step",
               "pipeline.train_step", "pipeline.evaluate")


def test_a_traced_step_and_evaluation_record_every_layer():
    spans = _load_spans()
    cfg = pl.config_for_version(
        pl.ModelConfig(image_size=(32, 32), channels=2, flow_kl_samples=8,
                       batch_size=2), "ver5")
    samples = fd.gen_dataset(fd.DOMAINS["A"], 2, image_size=(32, 32))
    model = pl.Model(cfg)
    opt = pl.Adam(model.named_params(), cfg.learning_rate)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        pl.train_step(samples, model, opt, np.random.default_rng(0))
        pl.evaluate(samples, model)
    recorded = {span.name for span in tracer.spans}
    assert [name for name in LAYER_SPANS if name not in recorded] == []


def test_the_bench_reads_a_checkpoint_as_evaluate_scores_it(tmp_path, monkeypatch):
    # perfbench/workloads.py scores the eval and ablate checkpoints with
    # predicted_dice, which unpacks what checkpoint_load returns.
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules as they are built.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cfg = pl.ModelConfig(image_size=(32, 32), channels=2, flow_layers=1,
                         flow_hidden=4, flow_kl_samples=8, batch_size=2, epochs=1)
    samples = fd.gen_dataset(fd.DOMAINS["A"], 6, image_size=(32, 32))
    train, val = samples[:4], samples[4:]
    model, _ = pl.fit(train, val, cfg, out_dir=tmp_path)
    dice = workloads.predicted_dice(tmp_path / "ckpt-best.dbfc", val)
    assert dice == pl.evaluate(val, model)
