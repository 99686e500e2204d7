#!/usr/bin/env python3
"""Train the full segmentation pipeline on synthetic blobs, inspect a
prediction, and read back the best checkpoint that training wrote.

Runs at 32x32 with a slim network so the whole story fits in about a minute
of CPU time.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from flowseg.data import DOMAINS, gen_dataset
from flowseg.pipeline import ModelConfig, checkpoint_load, evaluate, fit, predict

print("=" * 70)
print("1. data: soft-boundary blobs, domain A (mild)")
print("=" * 70)

size = (32, 32)
train = gen_dataset(DOMAINS["A"], 96, image_size=size)
val = gen_dataset(DOMAINS["A"], 24, rng=np.random.default_rng(5),
                  image_size=size)
print(f"train {len(train)} samples, val {len(val)}, image {size[0]}x{size[1]}")

print()
print("=" * 70)
print("2. fit: every component on (flow posterior, closed-form updates,")
print("   diffusion latent sampling with importance weights)")
print("=" * 70)

cfg = ModelConfig(image_size=size, channels=8, flow_layers=2, flow_hidden=16,
                  flow_kl_samples=32, batch_size=8, epochs=3, seed=42)
# fit writes ckpt-last.dbfc every epoch and ckpt-best.dbfc at the best
# validation Dice; section 4 reads the best one back.
run_dir = tempfile.TemporaryDirectory()
t0 = time.perf_counter()
model, history = fit(train, val, cfg, out_dir=run_dir.name,
                     progress=lambda row: print(
                         f"epoch {row['epoch']}: loss {row['loss']:.3f} "
                         f"val dice {row['dice_val']:.4f}"))
print(f"trained in {time.perf_counter() - t0:.1f}s; "
      f"best val dice {max(r['dice_val'] for r in history):.4f}")

print()
print("=" * 70)
print("3. a prediction, rendered")
print("=" * 70)

sample = val[0]
labels, conf = predict(sample.image, model)
truth = sample.mask

pred_rows = ["".join("#" if v else "." for v in row) for row in labels]
true_rows = ["".join("#" if v else "." for v in row) for row in truth]
print(f"{'prediction':<34}{'ground truth'}")
for p, t in zip(pred_rows, true_rows):
    print(f"{p:<34}{t}")
inter = np.logical_and(labels == 1, truth == 1).sum()
dice = 2.0 * inter / ((labels == 1).sum() + (truth == 1).sum())
print(f"dice on this sample: {dice:.4f}; "
      f"mean foreground confidence {conf[1][labels == 1].mean():.3f}")

print()
print("=" * 70)
print("4. the best checkpoint, read back")
print("=" * 70)

path = Path(run_dir.name) / "ckpt-best.dbfc"
loaded, opt, epoch = checkpoint_load(path)
same = all(np.array_equal(a.data, b.data)
           for (_, a), (_, b) in zip(model.named_params(), loaded.named_params()))
print(f"{path.name}: {path.stat().st_size} bytes after {epoch} epochs, with the "
      f"Adam moments of step {opt.t}, so --resume continues the run")
print(f"parameters identical to the model fit returned: {same}")
assert same, "ckpt-best.dbfc does not hold the parameters fit returned"
print(f"val dice from reloaded model: {evaluate(val, loaded):.4f}")
run_dir.cleanup()

print()
print("done.")
