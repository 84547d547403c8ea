"""Benchmark: vectorized training layer vs. the seed per-position loops.

Four bit-exactness gates (enforced in every mode, including ``--quick``)
and three speedup measurements:

1. **im2col / col2im vs. the loop references** — the strided-gather
   :func:`~repro.bnn.convolution.im2col` and block-add
   :func:`~repro.bnn.convolution.col2im` must match
   ``im2col_loop``/``col2im_loop`` bit for bit over a battery of shapes,
   strides, kernels and paddings.
2. **Stacked eq.(6) vs. the per-sample loop** — ``predict_proba`` (the
   stacked fast path) must equal ``predict_proba_loop`` bit for bit for
   dense and convolutional BNNs on identically seeded twins, and the
   seed-replica evaluation (per-pass softplus, loop im2col, mask pooling)
   must agree too — proving the replica used as the speedup baseline
   computes exactly what the stacked path computes.
3. **Parallel run-all vs. sequential** — the process-pool runner's
   rendered output must be string-identical to the sequential run's.
4. **Cache-hit vs. cold-run artifacts** — training through the artifact
   cache twice must yield bit-identical posteriors and histories, with
   the expected hit/miss counts.

Speedups (asserted in full mode only; CI machines are noisy, so
``--quick`` just prints them):

* conv training epoch (two-stage 56x56 net, batch 4, precomputed
  stage-1 patches) vs. the seed replica — target >= 5x;
* conv MC evaluation sweep (28x28 net, 256 images, N=30) vs. the seed
  replica — target >= 3x;
* dense MC evaluation sweep — reported for the record (the dense path's
  GEMMs already dominated, so the win there is memory, not wall-clock).

The seed replica reproduces PR 4's training/eval arithmetic term for term
(per-pass softplus, loop im2col/col2im, einsum weight gradients, mask
pooling with full-resolution division, layer-0 input gradients) — it was
validated bit-for-bit against a checkout of the seed revision.

Run:  PYTHONPATH=src python benchmarks/bench_training.py [--quick]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
import time

import numpy as np

from repro.bnn.activations import relu, relu_grad, sigmoid, softmax, softplus
from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.conv_network import BayesianConvNetwork
from repro.bnn.convolution import (
    MaxPool2dLayer,
    col2im,
    col2im_loop,
    im2col,
    im2col_loop,
    maxpool_positions,
)
from repro.bnn.losses import cross_entropy_loss
from repro.bnn.optimizers import Adam
from repro.experiments.artifacts import ArtifactCache, set_active_cache
from repro.experiments.runner import run_experiments
from repro.experiments.training import train_bnn
from repro.obs import BenchRecorder

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# ----------------------------------------------------------------------
# Seed replica: PR 4's conv training/eval arithmetic, term for term.
# ----------------------------------------------------------------------


def _seed_conv_forward(layer, x):
    x = np.asarray(x, dtype=np.float64)
    out_channels, out_h, out_w = layer.output_shape(x.shape[1:])
    eps_w = layer._eps_rng.standard_normal(layer.mu_weights.shape)
    eps_b = layer._eps_rng.standard_normal(layer.mu_bias.shape)
    weights = layer.mu_weights + softplus(layer.rho_weights) * eps_w
    bias = layer.mu_bias + softplus(layer.rho_bias) * eps_b
    patches = im2col_loop(x, layer.kernel_size, layer.stride, layer.padding)
    out = patches @ weights + bias
    cache = {
        "patches": patches,
        "eps_w": eps_w,
        "eps_b": eps_b,
        "weights": weights,
        "input_shape": x.shape,
    }
    return out.transpose(0, 2, 1).reshape(-1, out_channels, out_h, out_w), cache


def _seed_conv_backward(layer, cache, grad_output, kl_scale, prior):
    batch, out_channels, _, _ = grad_output.shape
    grad_flat = grad_output.reshape(batch, out_channels, -1).transpose(0, 2, 1)
    grad_w = np.einsum("bpf,bpo->fo", cache["patches"], grad_flat)
    grad_b = grad_flat.sum(axis=(0, 1))
    sig_rho_w = sigmoid(layer.rho_weights)
    sig_rho_b = sigmoid(layer.rho_bias)
    grads = [
        grad_w.copy(),
        grad_w * cache["eps_w"] * sig_rho_w,
        grad_b.copy(),
        grad_b * cache["eps_b"] * sig_rho_b,
    ]
    if kl_scale > 0.0 and prior.closed_form:
        sigma_w, sigma_b = softplus(layer.rho_weights), softplus(layer.rho_bias)
        kl_mu_w, kl_sig_w = prior.kl_grad(layer.mu_weights, sigma_w)
        kl_mu_b, kl_sig_b = prior.kl_grad(layer.mu_bias, sigma_b)
        grads[0] += kl_scale * kl_mu_w
        grads[1] += kl_scale * kl_sig_w * sig_rho_w
        grads[2] += kl_scale * kl_mu_b
        grads[3] += kl_scale * kl_sig_b * sig_rho_b
    grad_patches = grad_flat @ cache["weights"].T
    grad_x = col2im_loop(
        grad_patches,
        cache["input_shape"],
        layer.kernel_size,
        layer.stride,
        layer.padding,
    )
    return grad_x, grads


def _seed_pool_forward(x, p):
    batch, channels, height, width = x.shape
    view = x.reshape(batch, channels, height // p, p, width // p, p)
    out = view.max(axis=(3, 5))
    mask = view == out[:, :, :, None, :, None]
    return out, {"mask": mask, "shape": x.shape}


def _seed_pool_backward(cache, grad_output):
    mask = cache["mask"]
    grad = mask * grad_output[:, :, :, None, :, None]
    counts = mask.sum(axis=(3, 5), keepdims=True)
    return (grad / counts).reshape(cache["shape"])


def _seed_dense_forward(layer, x):
    eps_w = layer._eps_rng.standard_normal(layer.mu_weights.shape)
    eps_b = layer._eps_rng.standard_normal(layer.mu_bias.shape)
    sampled_w = layer.mu_weights + softplus(layer.rho_weights) * eps_w
    sampled_b = layer.mu_bias + softplus(layer.rho_bias) * eps_b
    cache = {"input": x, "eps_w": eps_w, "eps_b": eps_b, "w": sampled_w}
    return x @ sampled_w + sampled_b, cache


def _seed_dense_backward(layer, cache, grad_output, kl_scale, prior):
    grad_w = cache["input"].T @ grad_output
    grad_b = grad_output.sum(axis=0)
    sig_rho_w = sigmoid(layer.rho_weights)
    sig_rho_b = sigmoid(layer.rho_bias)
    grads = [
        grad_w.copy(),
        grad_w * cache["eps_w"] * sig_rho_w,
        grad_b.copy(),
        grad_b * cache["eps_b"] * sig_rho_b,
    ]
    if kl_scale > 0.0 and prior.closed_form:
        sigma_w, sigma_b = softplus(layer.rho_weights), softplus(layer.rho_bias)
        kl_mu_w, kl_sig_w = prior.kl_grad(layer.mu_weights, sigma_w)
        kl_mu_b, kl_sig_b = prior.kl_grad(layer.mu_bias, sigma_b)
        grads[0] += kl_scale * kl_mu_w
        grads[1] += kl_scale * kl_sig_w * sig_rho_w
        grads[2] += kl_scale * kl_mu_b
        grads[3] += kl_scale * kl_sig_b * sig_rho_b
    return grad_output @ cache["w"].T, grads


def seed_conv_train_step(net, x, labels, optimizer, kl_scale):
    """The seed's per-position-loop ELBO step on ``net``'s parameters."""
    hidden = np.asarray(x, dtype=np.float64)
    conv_caches, pool_caches, pre_list = [], [], []
    for conv, pool in zip(net.conv_layers, net.pools):
        pre, cache = _seed_conv_forward(conv, hidden)
        conv_caches.append(cache)
        pre_list.append(pre)
        hidden, pool_cache = _seed_pool_forward(relu(pre), pool.pool_size)
        pool_caches.append(pool_cache)
    flat_shape = hidden.shape
    logits, head_cache = _seed_dense_forward(net.head, hidden.reshape(len(x), -1))
    nll, grad = cross_entropy_loss(logits, labels)
    grad, head_grads = _seed_dense_backward(
        net.head, head_cache, grad, kl_scale, net.prior
    )
    grad = grad.reshape(flat_shape)
    layer_grads = [None] * len(net.conv_layers)
    for index in range(len(net.conv_layers) - 1, -1, -1):
        grad = _seed_pool_backward(pool_caches[index], grad)
        grad = grad * relu_grad(pre_list[index])
        grad, layer_grads[index] = _seed_conv_backward(
            net.conv_layers[index], conv_caches[index], grad, kl_scale, net.prior
        )
    params, grads = [], []
    for conv, conv_grads in zip(net.conv_layers, layer_grads):
        params.extend(conv.parameters())
        grads.extend(conv_grads)
    params.extend(net.head.parameters())
    grads.extend(head_grads)
    optimizer.update(params, grads)
    return nll


def seed_conv_predict_proba(net, x, n_samples):
    """The seed's eq.(6): per-sample loop, loop im2col, per-pass softplus."""
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros((x.shape[0], net.head.out_features))
    for _ in range(n_samples):
        hidden = x
        for conv, pool in zip(net.conv_layers, net.pools):
            pre, _ = _seed_conv_forward(conv, hidden)
            hidden, _ = _seed_pool_forward(relu(pre), pool.pool_size)
        logits, _ = _seed_dense_forward(net.head, hidden.reshape(len(x), -1))
        total += softmax(logits)
    return total / n_samples


def seed_dense_predict_proba(net, x, n_samples):
    """The seed's dense eq.(6): per-pass softplus + per-pass GEMMs."""
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros((x.shape[0], net.layer_sizes[-1]))
    last = len(net.layers) - 1
    for _ in range(n_samples):
        hidden = x
        for index, layer in enumerate(net.layers):
            eps_w = layer._eps_rng.standard_normal(layer.mu_weights.shape)
            eps_b = layer._eps_rng.standard_normal(layer.mu_bias.shape)
            sampled_w = layer.mu_weights + softplus(layer.rho_weights) * eps_w
            sampled_b = layer.mu_bias + softplus(layer.rho_bias) * eps_b
            pre = hidden @ sampled_w + sampled_b
            hidden = relu(pre) if index < last else pre
        total += softmax(hidden)
    return total / n_samples


# ----------------------------------------------------------------------
# Gate 1: im2col / col2im bit-exactness
# ----------------------------------------------------------------------
def check_im2col_equivalence() -> None:
    print("== im2col/col2im: bit-for-bit equivalence vs the loop references")
    rng = np.random.default_rng(0)
    shapes = [
        (2, 1, 8, 8, 3, 1, 1),
        (3, 4, 10, 7, 3, 1, 0),
        (1, 2, 12, 12, 5, 2, 2),
        (4, 3, 9, 9, 2, 2, 0),
        (2, 2, 6, 11, 4, 3, 1),
    ]
    for batch, channels, height, width, kernel, stride, padding in shapes:
        x = rng.standard_normal((batch, channels, height, width))
        fast = im2col(x, kernel, stride, padding)
        loop = im2col_loop(x, kernel, stride, padding)
        if not np.array_equal(fast, loop):
            raise SystemExit(f"FAIL: im2col != loop for {x.shape} k{kernel}")
        grads = rng.standard_normal(fast.shape)
        back = col2im(grads, x.shape, kernel, stride, padding)
        back_loop = col2im_loop(grads, x.shape, kernel, stride, padding)
        if not np.array_equal(back, back_loop):
            raise SystemExit(f"FAIL: col2im != loop for {x.shape} k{kernel}")
    print(f"  {len(shapes)} shape/stride/padding points exactly equal\n")


# ----------------------------------------------------------------------
# Gate 2: stacked eq.(6) bit-exactness (dense + conv + seed replica)
# ----------------------------------------------------------------------
def check_stacked_equivalence(quick: bool) -> None:
    n_samples = 4 if quick else 10
    print("== Stacked predict_proba: bit-for-bit vs per-sample loop + seed replica")
    x = np.random.default_rng(1).random((24, 30))
    dense = [BayesianNetwork((30, 16, 5), seed=3) for _ in range(3)]
    stacked = dense[0].predict_proba(x, n_samples=n_samples)
    loop = dense[1].predict_proba_loop(x, n_samples=n_samples)
    replica = seed_dense_predict_proba(dense[2], x, n_samples)
    if not (np.array_equal(stacked, loop) and np.array_equal(stacked, replica)):
        raise SystemExit("FAIL: dense stacked != loop/replica")
    print(f"  dense  (30-16-5):    stacked == loop == seed replica ({n_samples} passes)")
    cx = np.random.default_rng(2).random((10, 1, 12, 12))
    convs = [
        BayesianConvNetwork((1, 12, 12), conv_channels=(4, 3), n_classes=5, seed=5)
        for _ in range(3)
    ]
    stacked = convs[0].predict_proba(cx, n_samples=n_samples)
    loop = convs[1].predict_proba_loop(cx, n_samples=n_samples)
    replica = seed_conv_predict_proba(convs[2], cx, n_samples)
    if not (np.array_equal(stacked, loop) and np.array_equal(stacked, replica)):
        raise SystemExit("FAIL: conv stacked != loop/replica")
    print(f"  conv   (12x12, 2 stages): stacked == loop == seed replica")
    # The mask-free pooling kernel against the training pool layer.
    pre = np.random.default_rng(3).standard_normal((6, 36, 7))
    pooled = maxpool_positions(pre, 6, 6, 2)
    channel_major = np.ascontiguousarray(
        pre.reshape(6, 6, 6, 7).transpose(0, 3, 1, 2)
    )
    reference = MaxPool2dLayer(2).forward(channel_major)
    if not np.array_equal(pooled, reference):
        raise SystemExit("FAIL: maxpool_positions != MaxPool2dLayer.forward")
    print("  mask-free position-major pooling == MaxPool2dLayer.forward\n")


# ----------------------------------------------------------------------
# Gate 3: parallel run-all == sequential
# ----------------------------------------------------------------------
def check_runner_equivalence() -> None:
    print("== run-all: parallel results == sequential results")
    names = ["table2", "table3"]
    sequential = run_experiments(names, jobs=1)
    parallel = run_experiments(names, jobs=2)
    for seq, par in zip(sequential, parallel):
        if seq.failed or par.failed:
            raise SystemExit(f"FAIL: {seq.name} errored: {seq.error or par.error}")
        if seq.rendered != par.rendered:
            raise SystemExit(f"FAIL: {seq.name} parallel output != sequential")
    print(f"  {names}: --jobs 2 output string-identical to sequential\n")


# ----------------------------------------------------------------------
# Gate 4: cache-hit == cold-run artifacts
# ----------------------------------------------------------------------
def check_cache_equivalence() -> None:
    print("== Artifact cache: cache-hit run == cold run, bit for bit")
    rng = np.random.default_rng(4)
    x_train, y_train = rng.random((48, 12)), rng.integers(0, 3, 48)
    x_test, y_test = rng.random((16, 12)), rng.integers(0, 3, 16)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as directory:
        cache = ArtifactCache(directory)
        previous = set_active_cache(cache)
        try:
            cold_net, cold_history, cold_hit = train_bnn(
                (12, 6, 3), x_train, y_train, x_test, y_test, epochs=2, seed=2
            )
            hit_net, hit_history, hit_hit = train_bnn(
                (12, 6, 3), x_train, y_train, x_test, y_test, epochs=2, seed=2
            )
        finally:
            set_active_cache(previous)
        if cold_hit or not hit_hit:
            raise SystemExit(f"FAIL: expected miss-then-hit, got {cold_hit}/{hit_hit}")
        for cold, warm in zip(
            cold_net.posterior_parameters(), hit_net.posterior_parameters()
        ):
            for key in cold:
                if not np.array_equal(cold[key], warm[key]):
                    raise SystemExit(f"FAIL: cached posterior differs in {key}")
        if cold_history != hit_history:
            raise SystemExit("FAIL: cached history differs from cold run")
        if cache.stats() != {"hits": 1, "misses": 1}:
            raise SystemExit(f"FAIL: unexpected cache stats {cache.stats()}")
    print("  cold-run and cache-hit posteriors + histories identical (1 hit / 1 miss)\n")


# ----------------------------------------------------------------------
# Speedups
# ----------------------------------------------------------------------
def _best(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def bench_conv_epoch(quick: bool) -> float:
    """Conv training epoch: vectorized + patch-cached vs the seed replica."""
    shape, channels = ((1, 16, 16), (4,)) if quick else ((1, 56, 56), (4, 4))
    n_train, batch = (32, 8) if quick else (64, 4)
    reps = 2 if quick else 4
    rng = np.random.default_rng(5)
    x = rng.random((n_train,) + shape)
    labels = rng.integers(0, 10, n_train)
    print(
        f"== Conv training epoch ({shape[1]}x{shape[2]}, stages {channels}, "
        f"batch {batch}, n={n_train})"
    )
    new_net = BayesianConvNetwork(shape, conv_channels=channels, n_classes=10, seed=0)
    patches = new_net.precompute_patches(x)
    optimizer = Adam(1e-3)

    def new_epoch() -> None:
        for start in range(0, n_train, batch):
            new_net.train_step(
                x[start : start + batch],
                labels[start : start + batch],
                optimizer,
                1.0 / n_train,
                patches=patches[start : start + batch],
            )

    new_seconds = _best(new_epoch, reps)
    seed_net = BayesianConvNetwork(shape, conv_channels=channels, n_classes=10, seed=0)
    seed_optimizer = Adam(1e-3)

    def seed_epoch() -> None:
        for start in range(0, n_train, batch):
            seed_conv_train_step(
                seed_net,
                x[start : start + batch],
                labels[start : start + batch],
                seed_optimizer,
                1.0 / n_train,
            )

    seed_seconds = _best(seed_epoch, max(2, reps // 2))
    speedup = seed_seconds / new_seconds
    print(f"{'seed per-position loops':<40}{seed_seconds * 1e3:>10.1f} ms/epoch")
    print(f"{'vectorized + cached patches':<40}{new_seconds * 1e3:>10.1f} ms/epoch")
    print(f"conv-training-epoch speedup: {speedup:.1f}x  (target >= 5x)\n")
    return speedup


def bench_mc_eval(quick: bool) -> float:
    """Conv MC evaluation sweep: stacked fast path vs the seed replica."""
    batch = 48 if quick else 256
    n_samples = 6 if quick else 30
    reps = 2 if quick else 3
    print(f"== Conv MC evaluation sweep (28x28, 8 channels, {batch} images, N={n_samples})")
    net = BayesianConvNetwork((1, 28, 28), conv_channels=(8,), n_classes=10, seed=0)
    x = np.random.default_rng(6).random((batch, 1, 28, 28))
    new_seconds = _best(lambda: net.predict_proba(x, n_samples=n_samples), reps)
    seed_seconds = _best(
        lambda: seed_conv_predict_proba(net, x, n_samples), max(2, reps // 2)
    )
    speedup = seed_seconds / new_seconds
    print(f"{'seed per-sample loop':<40}{seed_seconds * 1e3:>10.1f} ms/sweep")
    print(f"{'stacked fast path':<40}{new_seconds * 1e3:>10.1f} ms/sweep")
    print(f"mc-evaluation-sweep speedup: {speedup:.1f}x  (target >= 3x)\n")
    return speedup


def bench_dense_eval(quick: bool) -> float:
    """Dense MC evaluation sweep — reported, not gated (GEMM-bound)."""
    batch = 128 if quick else 1024
    n_samples = 5 if quick else 10
    print(f"== Dense MC evaluation sweep (784-100-10, {batch} images, N={n_samples})")
    net = BayesianNetwork((784, 100, 10), seed=0)
    x = np.random.default_rng(7).random((batch, 784))
    new_seconds = _best(lambda: net.predict_proba(x, n_samples=n_samples), 3)
    seed_seconds = _best(lambda: seed_dense_predict_proba(net, x, n_samples), 2)
    speedup = seed_seconds / new_seconds
    print(f"{'seed per-sample loop':<40}{seed_seconds * 1e3:>10.1f} ms/sweep")
    print(f"{'stacked fast path':<40}{new_seconds * 1e3:>10.1f} ms/sweep")
    print(f"dense-evaluation speedup: {speedup:.1f}x  (reported; GEMM-bound)\n")
    return speedup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: tiny workloads, no absolute-speedup enforcement",
    )
    args = parser.parse_args(argv)
    recorder = BenchRecorder(
        "bench_training",
        mode="quick" if args.quick else "full",
        config={"quick": args.quick},
    )
    check_im2col_equivalence()  # each check raises SystemExit on mismatch
    check_stacked_equivalence(args.quick)
    check_runner_equivalence()
    check_cache_equivalence()
    recorder.record("training_bit_exact", 1.0, unit="bool")
    epoch_speedup = bench_conv_epoch(args.quick)
    eval_speedup = bench_mc_eval(args.quick)
    bench_dense_eval(args.quick)
    recorder.record("conv_epoch_speedup", epoch_speedup, unit="x")
    recorder.record("mc_eval_speedup", eval_speedup, unit="x")
    print(f"results written to {recorder.write(RESULTS_DIR)}")
    if not args.quick:
        if epoch_speedup < 5.0:
            print(f"FAIL: conv epoch speedup {epoch_speedup:.1f}x below the 5x target")
            return 1
        if eval_speedup < 3.0:
            print(f"FAIL: MC eval speedup {eval_speedup:.1f}x below the 3x target")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
