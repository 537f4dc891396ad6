"""Paper Fig. 4 end to end: parse -> train -> deploy -> infer -> profile.

Walks the complete software pipeline of the paper's section V:

1. the architecture parser reads the network description string,
2. the model trains on the synthetic MNIST stand-in,
3. the parameters are exported in FFT form (section IV-A) and the whole
   model frozen into a deployment artifact,
4. the inputs parser loads a test batch from a file,
5. the artifact is compiled into a frozen InferenceSession (flat op
   plan, precomputed spectra, fused bias+activation) that streams the
   test batch through the standalone inference engine,
6. the platform simulator prices the engine on the Table I devices,
   including battery mode.

Run:  python examples/deploy_embedded.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data import (
    ArrayDataset,
    DataLoader,
    bilinear_resize,
    flatten_images,
    load_synthetic_mnist,
)
from repro.embedded import DeployedModel, InferenceProfiler
from repro.engine import Engine
from repro.io import build_model_from_string, load_inputs, save_inputs
from repro.nn import Adam, CrossEntropyLoss, Trainer

ARCHITECTURE = "256-128CFb64-128CFb64-10F"  # paper Arch. 1


def host_latency_us(session, inputs, repeats=3):
    """Best-of-``repeats`` wall-clock microseconds per image of one
    ``session.forward`` over ``inputs`` — this machine, complementing the
    Table I platform predictions below."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        session.forward(inputs)
        best = min(best, time.perf_counter() - start)
    return best / len(inputs) * 1e6


def main():
    with tempfile.TemporaryDirectory(prefix="repro_deploy_") as tmp:
        run(Path(tmp))


def run(workdir):
    # 1. Architecture parser (Fig. 4, module 1).
    print(f"architecture: {ARCHITECTURE}")
    model = build_model_from_string(ARCHITECTURE, rng=np.random.default_rng(1))

    # 2. Training on synthetic MNIST resized to 16x16.
    train, test = load_synthetic_mnist(
        train_size=2000, test_size=400, seed=0, noise=0.15
    )

    def preprocess(images):
        return flatten_images(bilinear_resize(images, 16, 16))

    loader = DataLoader(
        ArrayDataset(preprocess(train.inputs), train.labels),
        batch_size=64, shuffle=True, seed=0,
    )
    trainer = Trainer(model, CrossEntropyLoss(), Adam(model.parameters(), lr=0.003))
    history = trainer.fit(loader, epochs=8)
    print(f"trained: final train accuracy {history.final.train_accuracy:.3f}")

    # 3. Freeze to the FFT-domain deployment artifact (Fig. 4, module 2).
    model.eval()
    deployed = DeployedModel.from_model(model)
    model_path = workdir / "arch1_deployed.npz"
    deployed.save(model_path)
    print(f"deployed artifact: {model_path} "
          f"({deployed.storage_bytes() / 1024:.1f} KB, FFT-domain weights)")

    # 4. Inputs parser (Fig. 4, module 3).
    inputs_path = workdir / "test_inputs.npz"
    save_inputs(inputs_path, preprocess(test.inputs), test.labels)
    inputs, labels = load_inputs(inputs_path)

    # 5. Standalone inference engine (Fig. 4, module 4), behind the
    # declarative Engine facade: one object pools a lazily-frozen
    # session per precision (spectra materialized once, bias+activation
    # fused) and routes each call to the right one.
    #
    # PrecisionPolicy guidance: the artifact stores complex64 spectra, so
    # precision="fp32" runs them exactly as stored — half the resident
    # spectrum memory and memory traffic of the default fp64 session,
    # with ~1e-6 agreement.  Use fp32 on RAM/bandwidth-constrained
    # targets (the paper's embedded setting); keep fp64 when chaining
    # further numerical analysis off the logits.  For multi-core hosts,
    # EngineConfig(executor="threaded") additionally spreads large
    # predict batches, chunk by chunk, over a thread pool.
    artifact = DeployedModel.load(model_path)
    engine = Engine(model=artifact, precisions=("fp32", "fp64"))
    print("frozen plan: " + " -> ".join(engine.session().describe()))
    predictions = engine.predict(inputs, batch_size=256)
    test_accuracy = (predictions == labels).mean()
    fp64_predictions = engine.predict(
        inputs, precision="fp64", batch_size=256
    )
    agreement = (predictions == fp64_predictions).mean()
    host_us = host_latency_us(engine.session(precision="fp32"), inputs[:200])
    engine.close()
    print(f"inference engine (fp32): accuracy {100 * test_accuracy:.2f}%, "
          f"fp64 label agreement {100 * agreement:.2f}%, "
          f"host latency {host_us:.1f} us/image")

    # 6. Embedded platform predictions (Tables I/II).
    profiler = InferenceProfiler(model, (256,))
    print("\npredicted on-device latency (us/image):")
    print(f"{'platform':10s} {'Java':>8s} {'C++':>8s} {'Java+battery':>13s}")
    for platform in ("nexus5", "xu3", "honor6x"):
        java = profiler.runtime_us(platform, "java")
        cpp = profiler.runtime_us(platform, "cpp")
        battery = profiler.runtime_us(platform, "java", battery=True)
        print(f"{platform:10s} {java:8.1f} {cpp:8.1f} {battery:13.1f}")


if __name__ == "__main__":
    main()
