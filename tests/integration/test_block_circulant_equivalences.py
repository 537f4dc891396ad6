"""Cross-module equivalence checks tying the paper's algebra together.

These tests close the loop between the four representations of the same
linear map: the structured-matrix class, the FFT kernels, the autograd
layer, and the deployed engine — plus the Fig. 3 CONV reformulation chain
(tensor convolution == im2col matmul == block-circulant FFT path).
"""

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.fft import circular_convolve, use_backend
from repro.nn import (
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    Sequential,
    Tensor,
)
from repro.nn.functional import im2col
from repro.runtime import InferenceSession
from repro.structured import BlockCirculantMatrix, CirculantMatrix


class TestFourWayFcEquivalence:
    def test_matrix_layer_engine_agree(self, rng):
        layer = BlockCirculantLinear(12, 8, 4, rng=rng)
        matrix = layer.as_matrix()
        deployed = DeployedModel.from_model(Sequential(layer))
        x = rng.normal(size=(3, 12))

        from_layer = layer(Tensor(x)).data
        from_matrix = np.stack(
            [matrix.matvec(row) + layer.bias.data for row in x]
        )
        with InferenceSession.from_deployed(deployed) as session:
            from_engine = session.forward(x)

        assert np.allclose(from_layer, from_matrix, atol=1e-9)
        assert np.allclose(from_layer, from_engine, atol=1e-4)

    def test_eqn3_expansion_of_paper_layout(self, rng):
        # Paper Eqn. 3 with W = [C_1 | C_2]^T (m = 2n case): the product
        # W^T x equals sum of circulant matvecs, FFT-computed.
        n = 8
        w1, w2 = rng.normal(size=n), rng.normal(size=n)
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        w_stack = np.vstack(
            [CirculantMatrix(w1).to_dense(), CirculantMatrix(w2).to_dense()]
        )  # (2n, n) -> W^T is (n, 2n)
        direct = w_stack.T @ np.concatenate([x1, x2])
        via_fft = circular_convolve(
            np.concatenate([w1[:1], w1[1:][::-1]]), x1
        ) + circular_convolve(np.concatenate([w2[:1], w2[1:][::-1]]), x2)
        assert np.allclose(direct, via_fft)

    def test_pure_backend_end_to_end(self, rng):
        # The entire layer stack must work on the pure FFT kernels too.
        layer = BlockCirculantLinear(8, 8, 4, rng=rng)
        x = rng.normal(size=(2, 8))
        with use_backend("numpy"):
            expected = layer(Tensor(x)).data
        with use_backend("pure"):
            ours = layer(Tensor(x)).data
        assert np.allclose(ours, expected, atol=1e-10)


class TestFig3ConvReformulation:
    def test_tensor_conv_equals_im2col_matmul(self, rng):
        # Y = X F with X the im2col matrix (paper Fig. 3).
        conv = Conv2d(3, 5, 3, rng=rng)
        x = rng.normal(size=(2, 3, 7, 7))
        direct = conv(Tensor(x)).data
        cols = im2col(x, 3)  # (batch, L, C r^2)
        flat = cols @ conv.weight.data.reshape(5, -1).T + conv.bias.data
        reformulated = flat.transpose(0, 2, 1).reshape(direct.shape)
        assert np.allclose(direct, reformulated, atol=1e-10)

    def test_bc_conv_equals_bc_matmul_on_patches(self, rng):
        # The BC CONV layer is exactly a block-circulant matrix applied to
        # every (permuted) im2col row.
        bcc = BlockCirculantConv2d(4, 6, 3, block_size=2, rng=rng)
        x = rng.normal(size=(1, 4, 6, 6))
        direct = bcc(Tensor(x)).data

        matrix = BlockCirculantMatrix(
            bcc.weight.data.copy(),
            rows=bcc.filter_blocks * bcc.block_size,
            cols=bcc.block_cols * bcc.block_size,
        )
        cols = im2col(x, 3)  # channel-major columns
        positions = cols.shape[1]
        by_pos = cols.reshape(1, positions, 4, 9).transpose(0, 1, 3, 2)
        patches = by_pos.reshape(positions, 36)
        outputs = np.stack(
            [matrix.matvec(p)[:6] + bcc.bias.data for p in patches]
        )
        reformulated = outputs.T.reshape(1, 6, 4, 4)
        assert np.allclose(direct, reformulated, atol=1e-9)

    def test_frequency_and_spatial_conv_agree(self, rng):
        # FFT-based 2-D convolution (repro.fft.convolve2d) agrees with the
        # CONV layer on a single channel/filter.
        from repro.fft import convolve2d

        conv = Conv2d(1, 1, 3, bias=False, rng=rng)
        x = rng.normal(size=(1, 1, 9, 8))
        layer_out = conv(Tensor(x)).data[0, 0]
        fft_out = convolve2d(x[0, 0], conv.weight.data[0, 0])
        assert np.allclose(layer_out, fft_out, atol=1e-10)


class TestStorageClaims:
    def test_spectra_storage_is_o_n(self, rng):
        # Deployed spectra per block: b//2+1 complex numbers, i.e. O(b)
        # reals — matching the paper's O(n) storage claim per layer.
        layer = BlockCirculantLinear(256, 256, 64, bias=False, rng=rng)
        deployed = DeployedModel.from_model(Sequential(layer))
        record = deployed.records[0]
        spectra_reals = record["spectra"].size * 2
        dense_reals = 256 * 256
        assert spectra_reals < dense_reals / 20

    def test_quantize_then_deploy(self, rng):
        # Composition of the two compression axes (extension feature).
        from repro.quantize import quantize_model

        layer = BlockCirculantLinear(32, 16, 8, rng=rng)
        model = Sequential(layer)
        x = rng.normal(size=(4, 32))
        model.eval()
        before = model(Tensor(x)).data
        quantize_model(model, 12)
        deployed = DeployedModel.from_model(model)
        with InferenceSession.from_deployed(deployed) as session:
            assert np.abs(session.forward(x) - before).max() < 0.2
