"""fp32 sessions: end-to-end complex64 parity, no silent upcast, memory."""

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.embedded.memory import estimate_memory
from repro.precision import FP32, FP64, PrecisionPolicy
from repro.runtime import InferenceSession
from repro.testing import reference_proba
from repro.zoo import build_arch1, build_arch3_reduced


@pytest.fixture(scope="module")
def mnist_model():
    return build_arch1(rng=np.random.default_rng(0)).eval()


@pytest.fixture(scope="module")
def cifar_model():
    return build_arch3_reduced(
        width=12, block_size=4, rng=np.random.default_rng(1)
    ).eval()


class TestPolicyResolve:
    def test_names_and_none(self):
        assert PrecisionPolicy.resolve(None) is FP64
        assert PrecisionPolicy.resolve("fp64") is FP64
        assert PrecisionPolicy.resolve("fp32") is FP32
        assert PrecisionPolicy.resolve(FP32) is FP32

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            PrecisionPolicy.resolve("fp16")

    def test_dtypes(self):
        assert FP32.real_dtype == np.float32
        assert FP32.complex_dtype == np.complex64
        assert FP32.complex_itemsize == 8
        assert FP64.complex_itemsize == 16


class TestFp32Parity:
    def test_mnist_zoo_within_1e5(self, mnist_model, rng):
        x = rng.normal(size=(16, 256))
        fp64 = InferenceSession.freeze(mnist_model)
        fp32 = InferenceSession.freeze(mnist_model, precision="fp32")
        p64 = fp64.predict_proba(x)
        p32 = fp32.predict_proba(x)
        assert np.abs(p64 - p32.astype(np.float64)).max() < 1e-5
        assert np.array_equal(fp64.predict(x), fp32.predict(x))

    def test_cifar_zoo_within_1e5(self, cifar_model, rng):
        x = rng.normal(size=(4, 3, 32, 32))
        fp64 = InferenceSession.freeze(cifar_model)
        fp32 = InferenceSession.freeze(cifar_model, precision="fp32")
        p64 = fp64.predict_proba(x)
        p32 = fp32.predict_proba(x)
        assert np.abs(p64 - p32.astype(np.float64)).max() < 1e-5

    def test_precision_property(self, mnist_model):
        assert InferenceSession.freeze(mnist_model).precision == "fp64"
        assert (
            InferenceSession.freeze(mnist_model, precision="fp32").precision
            == "fp32"
        )


class TestNoSilentUpcast:
    """Every intermediate activation stays float32 in an fp32 session.

    The kernels contain no narrowing casts, so a float32 output from
    every op proves the FFT -> GEMM -> IFFT pipeline ran in
    complex64/float32 throughout — a float64 leak anywhere would
    propagate to the op output.
    """

    def _assert_all_float32(self, session, x):
        x = np.asarray(x, dtype=np.float32)
        for op in session.ops:
            x = op(x)
            assert x.dtype == np.float32, f"{op.name} produced {x.dtype}"

    def test_fc_ops_stay_float32(self, mnist_model, rng):
        session = InferenceSession.freeze(mnist_model, precision="fp32")
        self._assert_all_float32(session, rng.normal(size=(3, 256)))

    def test_conv_ops_stay_float32(self, cifar_model, rng):
        session = InferenceSession.freeze(cifar_model, precision="fp32")
        self._assert_all_float32(session, rng.normal(size=(2, 3, 32, 32)))

    def test_forward_output_dtype_matches_policy(self, mnist_model, rng):
        x = rng.normal(size=(2, 256))
        assert InferenceSession.freeze(mnist_model).forward(x).dtype == np.float64
        assert (
            InferenceSession.freeze(mnist_model, precision="fp32")
            .forward(x)
            .dtype
            == np.float32
        )


class TestFromDeployedPrecision:
    def test_fp32_session_matches_record_oracle(self, mnist_model, rng):
        deployed = DeployedModel.from_model(mnist_model)
        session = InferenceSession.from_deployed(deployed, precision="fp32")
        x = rng.normal(size=(5, 256))
        # The artifact itself stores complex64 spectra, so the fp32
        # session and the (widening, fp64) record oracle agree to ~1e-6.
        assert np.allclose(
            session.predict_proba(x),
            reference_proba(deployed.records, x),
            atol=1e-5,
        )

    def test_fp32_artifact_spectra_not_widened(self, mnist_model, rng):
        deployed = DeployedModel.from_model(mnist_model)
        fp32 = InferenceSession.from_deployed(deployed, precision="fp32")
        fp64 = InferenceSession.from_deployed(deployed, precision="fp64")
        x = rng.normal(size=(4, 256))
        assert fp32.forward(x).dtype == np.float32
        assert fp64.forward(x).dtype == np.float64
        assert np.array_equal(fp32.predict(x), fp64.predict(x))


class TestMemoryEstimates:
    def test_fp64_doubles_fp32_footprint(self, mnist_model):
        fp32 = estimate_memory(mnist_model, (256,), precision="fp32")
        fp64 = estimate_memory(mnist_model, (256,), precision="fp64")
        default = estimate_memory(mnist_model, (256,))
        assert fp64.weight_bytes == 2 * fp32.weight_bytes
        assert fp64.peak_activation_bytes == 2 * fp32.peak_activation_bytes
        # The default reports the artifact (fp32) numbers — the complex64
        # spectra are half the widened fp64 spectrum footprint.
        assert default.weight_bytes == fp32.weight_bytes
