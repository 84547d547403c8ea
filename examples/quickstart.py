"""Quickstart: train a BNN, ship it to the VIBNN accelerator model, compare.

This walks the paper's full pipeline end to end:

1. train a Bayesian neural network offline (Bayes-by-Backprop, §2.2);
2. export the variational parameters ``(mu, sigma)``;
3. run Monte-Carlo inference on the software BNN (eq. 6);
4. run the same inference on the 8-bit VIBNN accelerator model with the
   RLF-GRNG supplying the Gaussian noise, and compare accuracy,
   throughput and energy.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.bnn import Adam, Trainer, accuracy
from repro.datasets import load_digits_split
from repro.experiments.training import make_bnn
from repro.grng import BnnWallaceGrng, GrngStream
from repro.hw.accelerator import VibnnAccelerator
from repro.hw.config import ArchitectureConfig


def main() -> None:
    print("== 1. data: synthetic 28x28 digits (MNIST substitute)")
    x_train, y_train, x_test, y_test = load_digits_split(
        n_train=1500, n_test=400, seed=0
    )
    print(f"   train {x_train.shape}, test {x_test.shape}")

    print("== 2. offline training: Bayes-by-Backprop BNN 784-100-10")
    bnn = make_bnn((784, 100, 10), seed=0)
    history = Trainer(bnn, Adam(3e-3), batch_size=32, epochs=20, seed=0).fit(
        x_train, y_train, x_test, y_test, eval_samples=20
    )
    print(f"   final train loss {history.train_loss[-1]:.3f}, "
          f"test accuracy {history.final_test_accuracy():.3f}")

    print("== 3. software MC inference (eq. 6, 30 samples)")
    # The 30 MC passes sample each row's pre-activations (local
    # reparameterization); the epsilons come from the paper's BNNWallace
    # GRNG through the block-sampling seam (GrngStream buffers the
    # generator into large block draws).
    probs = bnn.predict_proba(x_test, 30, grng=GrngStream(BnnWallaceGrng(seed=0)))
    software_acc = accuracy(probs.argmax(axis=1), y_test)
    print(f"   software BNN accuracy: {software_acc:.4f}")

    print("== 4. VIBNN accelerator model (8-bit datapath, RLF-GRNG)")
    config = ArchitectureConfig(
        pe_sets=2, pes_per_set=8, pe_inputs=8, bit_length=8, grng_kind="rlf"
    )
    accelerator = VibnnAccelerator(config, bnn.posterior_parameters(), seed=0)
    result = accelerator.infer(x_test, n_samples=30)
    hardware_acc = accuracy(result.predictions, y_test)
    print(f"   VIBNN accuracy:        {hardware_acc:.4f} "
          f"(degradation {100 * (software_acc - hardware_acc):.2f} pp)")
    print(f"   modelled throughput:   {accelerator.images_per_second(1):,.0f} images/s "
          f"(single MC sample)")
    print(f"   modelled efficiency:   {accelerator.images_per_joule(1):,.0f} images/J")
    report = accelerator.resource_report()
    print(f"   modelled resources:    {report.alms:,} ALMs "
          f"({report.alm_utilization:.0%} of Cyclone V), "
          f"{report.memory_bits:,} memory bits")


if __name__ == "__main__":
    main()
