"""Train a small flow-matching model on a 2D toy density and sample it.

Trains a rectified-flow model (linear schedule) on the two-moons dataset,
integrates the learned ODE from noise back to data, and compares the
generated cloud to held-out points with energy distance and sliced
Wasserstein. Takes about five seconds on one CPU core.

    python3 demos/train_and_sample.py
"""

import os

from curveflow import (DatasetSpec, LinearSchedule, SolverConfig,
                       TrainConfig, VelocityField, energy_distance,
                       generate_split, sample_batch, sliced_wasserstein,
                       svgplot, train)

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    spec = DatasetSpec(kind="two_moons", count=2000, seed=0)
    train_set, held_out = generate_split(spec)

    config = TrainConfig(epochs=25, batch_size=80, base_lr=4e-3, lam=0.0,
                         seed=0, train_schedule=False)
    model = VelocityField(2, seed=0)
    result = train(config, train_set, LinearSchedule(), model)
    print("trained %d steps; final flow-matching loss %.4f"
          % (len(result.history), result.history[-1].fm_loss))

    samples = sample_batch(model, 2000, 2, seed=1,
                           config=SolverConfig("heun", 100))
    ed = energy_distance(samples, held_out)
    sw = sliced_wasserstein(samples, held_out)
    print("energy distance vs held-out: %.4f" % ed)
    print("sliced Wasserstein vs held-out: %.4f" % sw)

    path = os.path.join(OUT, "two_moons_samples.svg")
    svgplot.scatter(path, [("held-out", held_out), ("generated", samples)],
                    title="two moons: generated vs held-out")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
