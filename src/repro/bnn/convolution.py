"""Bayesian convolutional layers — the paper's claimed CNN extension.

§1: "the design principles of VIBNN are orthogonal to the optimization
techniques on convolutional layers ... and can be applied to CNNs as
well".  This module substantiates that claim: a Bayesian Conv2D layer is a
Bayesian dense layer applied to im2col patches, so sampling, the ELBO
gradients, the fixed-point datapath and the PE-array mapping all carry
over (the accelerator computes convolutions as GEMMs over patch vectors —
see :func:`repro.hw.controller.schedule_conv_layer`).

Layout convention: activations are ``(batch, channels, height, width)``;
kernels are ``(out_channels, in_channels, k, k)``.
"""

from __future__ import annotations

import numpy as np

from repro.bnn.activations import inverse_softplus, sigmoid, softplus
from repro.errors import ConfigurationError
from repro.utils.seeding import spawn_generator
from repro.utils.validation import check_positive


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ConfigurationError(
            f"kernel {kernel} / stride {stride} / padding {padding} "
            f"do not fit input size {size}"
        )
    return out


def im2col_loop(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Extract convolution patches, one output position at a time.

    ``x``: ``(batch, channels, H, W)`` -> ``(batch, out_h * out_w,
    channels * kernel * kernel)``.  Kept as the semantic reference for the
    vectorised :func:`im2col`; the equivalence tests and
    ``benchmarks/bench_training.py`` assert they match bit for bit.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    patches = np.empty((batch, out_h * out_w, channels * kernel * kernel))
    index = 0
    for row in range(out_h):
        for col in range(out_w):
            r0, c0 = row * stride, col * stride
            patch = x[:, :, r0 : r0 + kernel, c0 : c0 + kernel]
            patches[:, index, :] = patch.reshape(batch, -1)
            index += 1
    return patches


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Extract convolution patches as one strided gather (no Python loops).

    ``x``: ``(batch, channels, H, W)`` -> ``(batch, out_h * out_w,
    channels * kernel * kernel)``.  A strided window view exposes every
    ``kernel x kernel`` patch without copying; one transpose + reshape
    then materialises them in the ``(position, channel-major patch)``
    layout of :func:`im2col_loop`.  Pure data movement, so the result is
    bit-for-bit identical to the loop reference.
    """
    x = np.asarray(x, dtype=np.float64)
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, channels * kernel * kernel
    )


def col2im_loop(
    grad_patches: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add patch gradients back to the input layout (im2col adjoint).

    One output position at a time — the semantic reference for the
    vectorised :func:`col2im`, which must reproduce not just the sums but
    the exact floating-point accumulation order.
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    index = 0
    for row in range(out_h):
        for col in range(out_w):
            r0, c0 = row * stride, col * stride
            padded[:, :, r0 : r0 + kernel, c0 : c0 + kernel] += grad_patches[
                :, index, :
            ].reshape(batch, channels, kernel, kernel)
            index += 1
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def col2im(
    grad_patches: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """im2col adjoint as ``kernel**2`` strided block adds (no per-pixel loop).

    Iterates over kernel offsets instead of output positions —
    ``kernel**2`` strided ``+=`` operations instead of ``out_h * out_w``
    Python iterations.  Offsets run in *descending* ``(i, j)`` order: a
    target pixel ``(r, s)`` receives the offset-``(i, j)`` contribution
    from output position ``(oh, ow) = ((r - i) / stride, (s - j) / stride)``,
    so descending offsets visit contributing positions in ascending
    ``(oh, ow)`` order — exactly the accumulation order of
    :func:`col2im_loop`, making the two bit-for-bit identical.  Within one offset
    every target pixel is written at most once, so the block ``+=`` adds
    no ordering freedom.
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    grads = np.asarray(grad_patches, dtype=np.float64).reshape(
        batch, out_h, out_w, channels, kernel, kernel
    )
    # One contiguous copy with the offset axes leading, so every (i, j)
    # slice below is a contiguous (batch, C, out_h, out_w) block.
    grads = np.ascontiguousarray(grads.transpose(4, 5, 0, 3, 1, 2))
    for i in range(kernel - 1, -1, -1):
        rows = slice(i, i + (out_h - 1) * stride + 1, stride)
        for j in range(kernel - 1, -1, -1):
            cols = slice(j, j + (out_w - 1) * stride + 1, stride)
            padded[:, :, rows, cols] += grads[i, j]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class BayesianConv2dLayer:
    """2-D convolution with factorised Gaussian kernel posteriors.

    Internally a Bayesian dense layer over im2col patches: the flattened
    kernel matrix has shape ``(in_channels * k * k, out_channels)`` with
    per-element ``(mu, rho)``, sampled once per forward pass (the same
    weight-generator workload pattern as a dense layer — ``k*k*C_in``
    Gaussian numbers per output channel per pass).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        seed: int = 0,
        initial_sigma: float = 0.05,
    ) -> None:
        check_positive("in_channels", in_channels)
        check_positive("out_channels", out_channels)
        check_positive("kernel_size", kernel_size)
        check_positive("stride", stride)
        if padding < 0:
            raise ConfigurationError(f"padding must be >= 0, got {padding}")
        check_positive("initial_sigma", initial_sigma)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        rng = spawn_generator(seed, "bayes-conv", in_channels, out_channels, kernel_size)
        self.mu_weights = rng.standard_normal((fan_in, out_channels)) * np.sqrt(2.0 / fan_in)
        rho_init = float(inverse_softplus(np.array(initial_sigma)))
        self.rho_weights = np.full((fan_in, out_channels), rho_init)
        self.mu_bias = np.zeros(out_channels)
        self.rho_bias = np.full(out_channels, rho_init)
        self._eps_rng = spawn_generator(seed, "bayes-conv-eps", in_channels, out_channels)
        self._cache: dict | None = None
        self.grad_mu_weights = np.zeros_like(self.mu_weights)
        self.grad_rho_weights = np.zeros_like(self.rho_weights)
        self.grad_mu_bias = np.zeros_like(self.mu_bias)
        self.grad_rho_bias = np.zeros_like(self.rho_bias)

    # ------------------------------------------------------------------
    def sigma_weights(self) -> np.ndarray:
        return softplus(self.rho_weights)

    def sigma_bias(self) -> np.ndarray:
        return softplus(self.rho_bias)

    def weight_count(self) -> int:
        """Stochastic parameters — Gaussian numbers needed per pass."""
        return self.mu_weights.size + self.mu_bias.size

    def output_shape(self, input_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        """``(C_in, H, W) -> (C_out, H', W')``."""
        channels, height, width = input_shape
        if channels != self.in_channels:
            raise ConfigurationError(
                f"expected {self.in_channels} input channels, got {channels}"
            )
        return (
            self.out_channels,
            conv_output_size(height, self.kernel_size, self.stride, self.padding),
            conv_output_size(width, self.kernel_size, self.stride, self.padding),
        )

    def forward(
        self,
        x: np.ndarray,
        *,
        sample: bool = True,
        patches: np.ndarray | None = None,
    ) -> np.ndarray:
        """Convolve with freshly sampled kernels.

        ``x``: ``(batch, C_in, H, W)`` -> ``(batch, C_out, H', W')``.

        ``patches`` may carry a precomputed ``im2col(x, ...)`` — patch
        extraction depends only on the input, never on the sampled
        weights, so a training loop that revisits the same images every
        epoch can extract patches once per dataset instead of once per
        step (see
        :meth:`~repro.bnn.conv_network.BayesianConvNetwork.precompute_patches`).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ConfigurationError(
                f"expected (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        out_channels, out_h, out_w = self.output_shape(x.shape[1:])
        if sample:
            eps_w = self._eps_rng.standard_normal(self.mu_weights.shape)
            eps_b = self._eps_rng.standard_normal(self.mu_bias.shape)
        else:
            eps_w = np.zeros_like(self.mu_weights)
            eps_b = np.zeros_like(self.mu_bias)
        sigma_w = self.sigma_weights()
        sigma_b = self.sigma_bias()
        weights = self.mu_weights + sigma_w * eps_w
        bias = self.mu_bias + sigma_b * eps_b
        if patches is None:
            patches = im2col(x, self.kernel_size, self.stride, self.padding)
        out = patches @ weights + bias  # (batch, positions, C_out)
        self._cache = {
            "patches": patches,
            "eps_w": eps_w,
            "eps_b": eps_b,
            "weights": weights,
            "input_shape": x.shape,
            # softplus(rho) is unchanged until the optimizer step, so
            # backward reuses the forward pass's sigmas instead of
            # recomputing the (comparatively expensive) softplus.
            "sigma_w": sigma_w,
            "sigma_b": sigma_b,
        }
        return out.transpose(0, 2, 1).reshape(-1, out_channels, out_h, out_w)

    def backward(
        self,
        grad_output: np.ndarray,
        kl_scale: float,
        prior,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Backprop through the sampled convolution; add prior gradients.

        ``need_input_grad=False`` skips the col2im scatter-add entirely
        and returns ``None`` — the right call for the first layer of a
        network, whose input gradient nobody consumes (the scatter-add is
        the single most expensive part of the backward pass).
        """
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        cache = self._cache
        batch, out_channels, out_h, out_w = grad_output.shape
        grad_flat = np.ascontiguousarray(
            grad_output.reshape(batch, out_channels, -1).transpose(0, 2, 1)
        )
        patches = cache["patches"]
        # Weight gradient as one 2-D GEMM over the flattened (batch x
        # position) axis — the same contraction einsum("bpf,bpo->fo")
        # expresses, but running on the BLAS fast path.
        fan_in = patches.shape[2]
        grad_w = patches.reshape(-1, fan_in).T @ grad_flat.reshape(-1, out_channels)
        grad_b = grad_flat.reshape(-1, out_channels).sum(axis=0)
        sig_rho_w = sigmoid(self.rho_weights)
        sig_rho_b = sigmoid(self.rho_bias)
        self.grad_mu_weights = grad_w.copy()
        self.grad_rho_weights = grad_w * cache["eps_w"] * sig_rho_w
        self.grad_mu_bias = grad_b.copy()
        self.grad_rho_bias = grad_b * cache["eps_b"] * sig_rho_b
        if kl_scale > 0.0:
            if prior.closed_form:
                sigma_w, sigma_b = cache["sigma_w"], cache["sigma_b"]
                kl_mu_w, kl_sig_w = prior.kl_grad(self.mu_weights, sigma_w)
                kl_mu_b, kl_sig_b = prior.kl_grad(self.mu_bias, sigma_b)
                self.grad_mu_weights += kl_scale * kl_mu_w
                self.grad_rho_weights += kl_scale * kl_sig_w * sig_rho_w
                self.grad_mu_bias += kl_scale * kl_mu_b
                self.grad_rho_bias += kl_scale * kl_sig_b * sig_rho_b
            else:
                sigma_w, sigma_b = cache["sigma_w"], cache["sigma_b"]
                sampled_b = self.mu_bias + sigma_b * cache["eps_b"]
                neg_dlogp_w = -prior.grad_log_prob(cache["weights"])
                neg_dlogp_b = -prior.grad_log_prob(sampled_b)
                self.grad_mu_weights += kl_scale * neg_dlogp_w
                self.grad_rho_weights += kl_scale * (
                    neg_dlogp_w * cache["eps_w"] * sig_rho_w - sig_rho_w / sigma_w
                )
                self.grad_mu_bias += kl_scale * neg_dlogp_b
                self.grad_rho_bias += kl_scale * (
                    neg_dlogp_b * cache["eps_b"] * sig_rho_b - sig_rho_b / sigma_b
                )
        if not need_input_grad:
            return None
        grad_patches = grad_flat @ cache["weights"].T
        return col2im(
            grad_patches,
            cache["input_shape"],
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def kl_divergence(self, prior, *, use_cache: bool = False) -> float:
        """KL of the layer posterior from the prior.

        Exact for closed-form priors; otherwise the sampled estimate at
        the most recent forward pass's weights — the same contract as
        :meth:`repro.bnn.bayesian.BayesianDenseLayer.kl_divergence`,
        including the ``use_cache`` sigma reuse (valid between a forward
        pass and the next optimizer step).
        """
        if use_cache and self._cache is not None:
            sigma_w, sigma_b = self._cache["sigma_w"], self._cache["sigma_b"]
        else:
            sigma_w, sigma_b = self.sigma_weights(), self.sigma_bias()
        if prior.closed_form:
            return prior.kl_divergence(self.mu_weights, sigma_w) + prior.kl_divergence(
                self.mu_bias, sigma_b
            )
        if self._cache is None:
            raise ConfigurationError("sampled KL requires a forward pass first")
        from repro.bnn.bayesian import BayesianDenseLayer

        sampled_b = self.mu_bias + sigma_b * self._cache["eps_b"]
        return (
            BayesianDenseLayer._log_q(
                self._cache["weights"], self.mu_weights, sigma_w
            )
            + BayesianDenseLayer._log_q(sampled_b, self.mu_bias, sigma_b)
            - prior.log_prob(self._cache["weights"])
            - prior.log_prob(sampled_b)
        )

    def parameters(self) -> list[np.ndarray]:
        return [self.mu_weights, self.rho_weights, self.mu_bias, self.rho_bias]

    def gradients(self) -> list[np.ndarray]:
        return [
            self.grad_mu_weights,
            self.grad_rho_weights,
            self.grad_mu_bias,
            self.grad_rho_bias,
        ]


def maxpool_positions(
    pre: np.ndarray, out_h: int, out_w: int, pool_size: int
) -> np.ndarray:
    """Mask-free 2-D max pooling of a ``(batch, out_h * out_w, C)`` tensor.

    Prediction-only counterpart of :class:`MaxPool2dLayer.forward` for
    activations still in the convolution GEMM's position-major layout:
    pools the ``pool_size x pool_size`` spatial blocks with pairwise
    ``np.maximum`` (exact — max is order-free) and skips the argmax mask
    nobody will backprop through, then emits the pooled map in the
    channel-major ``(batch, C, out_h / p, out_w / p)`` layout the next
    stage and the flatten-for-head step expect.  Bit-for-bit equal to
    ``pool.forward(pre_channel_major)``.
    """
    batch, positions, channels = pre.shape
    p = pool_size
    if positions != out_h * out_w:
        raise ConfigurationError(
            f"{positions} positions inconsistent with {out_h}x{out_w} output"
        )
    if out_h % p or out_w % p:
        raise ConfigurationError(
            f"spatial size {out_h}x{out_w} not divisible by pool {p}"
        )
    view = pre.reshape(batch, out_h // p, p, out_w // p, p, channels)
    pooled = view[:, :, 0, :, 0]
    for row in range(p):
        for col in range(p):
            if row or col:
                pooled = np.maximum(pooled, view[:, :, row, :, col])
    return np.ascontiguousarray(pooled.transpose(0, 3, 1, 2))


class MaxPool2dLayer:
    """Non-overlapping max pooling with exact backward routing.

    Operates on the trailing ``(channels, height, width)`` axes, so a
    stacked Monte-Carlo evaluation can feed ``(n_samples, batch, C, H, W)``
    tensors through the same (purely element-wise) kernel the per-sample
    path uses for ``(batch, C, H, W)``.
    """

    def __init__(self, pool_size: int = 2) -> None:
        check_positive("pool_size", pool_size)
        self.pool_size = pool_size
        self._cache: dict | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 4:
            raise ConfigurationError(
                f"expected (batch, C, H, W) with optional leading axes, got {x.shape}"
            )
        *lead, channels, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ConfigurationError(
                f"spatial size {height}x{width} not divisible by pool {p}"
            )
        view = x.reshape(*lead, channels, height // p, p, width // p, p)
        # Reduce the two pool axes as p explicit np.maximum passes instead
        # of one multi-axis .max() — identical result (max is order-free),
        # far cheaper than NumPy's strided reduction over tiny axes.
        rows = view[..., 0]
        for offset in range(1, p):
            rows = np.maximum(rows, view[..., offset])
        out = rows[..., 0, :]
        for offset in range(1, p):
            out = np.maximum(out, rows[..., offset, :])
        mask = view == out[..., :, None, :, None]
        self._cache = {"mask": mask, "shape": x.shape}
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        mask = self._cache["mask"]
        p = self.pool_size
        # If several positions tie for the max, split the gradient.  The
        # tie counts are summed one pool axis at a time (exact integer
        # sums) and the division happens at pooled resolution before the
        # mask broadcast — element-wise the same ``mask * grad / counts``
        # as the naive formulation, with p**2 times less division work.
        counts = mask[..., 0].astype(np.uint8)
        for offset in range(1, p):
            counts = np.add(counts, mask[..., offset], dtype=np.uint8)
        tie_counts = counts[..., 0, :].astype(np.int64)
        for offset in range(1, p):
            tie_counts = np.add(tie_counts, counts[..., offset, :], dtype=np.int64)
        scaled = grad_output / tie_counts
        grad = mask * scaled[..., :, None, :, None]
        return grad.reshape(self._cache["shape"])
