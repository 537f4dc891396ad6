"""Deployment artifacts (paper Fig. 4).

The paper's deployment flow stores, for every block-circulant layer, the
*FFT of the defining vectors* rather than the weights themselves
("we can simply keep the FFT result FFT(w_i)", section IV-A).  This module
implements that flow:

* :meth:`DeployedModel.from_model` converts a trained
  :class:`~repro.nn.module.Sequential` into a flat list of layer records
  whose block-circulant weights are ``rfft`` half-spectra (complex64) —
  the records of :func:`~repro.runtime.plan.model_records`, the one
  layer walker the frozen runtime also compiles, cast to storage dtypes,
* :meth:`DeployedModel.save` / :meth:`DeployedModel.load` round-trip the
  artifact through a single ``.npz`` file (the "Parameters" file of
  Fig. 4).  The on-disk layout is **format v2**: alongside the layer
  arrays, the header carries compression metadata (per-layer block
  size, projection error), quantization metadata (per-layer Q-format,
  with weights stored as fixed-point integer code points and
  dequantized at load), and provenance (pipeline config hash, training
  summary) — see ``docs/pipeline.md``.  v2 is the one format written;
  version-1 files written by earlier releases still load bitwise,
* inference runs the records compiled into a frozen plan —
  :meth:`InferenceSession.from_deployed
  <repro.runtime.session.InferenceSession.from_deployed>`, straight from
  the spectra on the same spectral kernel training uses, or the
  :class:`~repro.engine.Engine` facade, which pools such sessions per
  precision and serves several named artifacts from one TCP port.  The
  operation counts the runtime simulator prices are those of the same
  records (:mod:`repro.embedded.cost_model`).

Dropout layers vanish at deployment; batch-norm folds into a per-feature
affine transform.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..exceptions import DeploymentError
from ..fft import rfft
from ..nn.module import Sequential
from ..runtime.plan import model_records

__all__ = ["DeployedModel", "FORMAT_VERSION", "LEGACY_FORMAT_VERSION"]

FORMAT_VERSION = 2
LEGACY_FORMAT_VERSION = 1

#: Record keys whose float arrays are *derived* from the fixed-point
#: code points when a record is quantized: the artifact stores only the
#: integer arrays and the loader rebuilds these (spectra via ``rfft``).
_DERIVED_WHEN_QUANTIZED = {
    "spectra": "weight_q",
    "weight": "weight_q",
    "bias": "bias_q",
}


def _quantize_weight(values: np.ndarray, total_bits: int):
    """(codes, qformat-as-list, relative error, dequantized float64)."""
    from ..quantize.fixed_point import (  # local: avoid a package cycle
        choose_qformat,
        dequantize_ints,
        quantization_error,
        quantize_to_ints,
    )

    fmt = choose_qformat(values, total_bits)
    codes = quantize_to_ints(values, fmt)
    dequantized = dequantize_ints(codes, fmt)
    return (
        codes,
        [fmt.integer_bits, fmt.fraction_bits],
        quantization_error(values, fmt),
        dequantized,
    )


class DeployedModel:
    """Deployment artifact: one layer record per inference-time layer.

    Each record is a dict with a ``kind`` plus kind-specific arrays and
    scalars; construct via :meth:`from_model` or :meth:`load`, and run
    it through :meth:`InferenceSession.from_deployed
    <repro.runtime.session.InferenceSession.from_deployed>`.
    Quantized records additionally carry ``weight_q`` / ``bias_q``
    integer code points with their ``qformat`` — the float arrays the
    runtime executes (``spectra`` / ``weight`` / ``bias``) are derived
    from them, and only the integers persist on disk.

    ``metadata`` is the JSON-able format-v2 header payload
    (compression / quantization / provenance sections, see
    ``docs/pipeline.md``); it round-trips through :meth:`save` /
    :meth:`load` and never affects inference.
    """

    def __init__(self, records: list[dict], metadata: dict | None = None):
        if not records:
            raise DeploymentError("deployed model has no layers")
        self.records = records
        self.metadata = dict(metadata or {})
        #: Format version of the file this model was loaded from
        #: (``None`` for models built in memory).
        self.source_version: int | None = None

    # ------------------------------------------------------------------
    # Conversion from a trained model
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls, model: Sequential, quantize_bits: int | None = None
    ) -> "DeployedModel":
        """Freeze a trained Sequential into deployment records.

        The records are :func:`~repro.runtime.plan.model_records` — the
        walk :meth:`InferenceSession.freeze
        <repro.runtime.session.InferenceSession.freeze>` compiles — cast
        to the artifact's storage dtypes: block-circulant layers keep
        only their ``rfft`` half-spectra (complex64), every other array
        is float32.  With ``quantize_bits`` set, every weight and bias
        of the compute layers (dense and block-circulant, linear and
        conv) is quantized to that fixed-point width with a per-tensor
        Q-format — the same dynamic-range rule as
        :func:`~repro.quantize.quantize_model` — and the records keep
        the integer code points for format-v2 storage.  Spectra are
        computed *from the quantized weights*, so artifact inference
        matches a model quantized in place.  Batch-norm folds to a float
        affine either way (its per-feature scale/shift are small and
        precision-critical).
        """
        if quantize_bits is not None and quantize_bits < 2:
            raise DeploymentError(
                f"quantize_bits must be >= 2, got {quantize_bits}"
            )

        def weight_fields(weight, bias, spectral):
            """Shared weight/bias capture, optionally fixed-point.

            ``q_error`` is the layer's *worst* relative quantization
            error across weight and bias — it feeds the documented
            ``10 x max_weight_error`` serving parity bound, so a bias
            that quantizes worse than the weights must not be hidden.
            """
            fields: dict = {}
            if quantize_bits is None:
                weight_f = weight
                bias_f = bias
            else:
                codes, qformat, q_error, weight_f = _quantize_weight(
                    weight, quantize_bits
                )
                fields.update(
                    weight_q=codes, qformat=qformat, q_error=q_error
                )
                bias_f = bias
                if bias is not None:
                    bcodes, bformat, bias_error, bias_f = _quantize_weight(
                        bias, quantize_bits
                    )
                    fields.update(
                        bias_q=bcodes,
                        bias_qformat=bformat,
                        q_error=max(q_error, bias_error),
                    )
            if spectral:
                fields["spectra"] = rfft(weight_f).astype(np.complex64)
            else:
                fields["weight"] = weight_f.astype(np.float32)
            fields["bias"] = (
                None if bias_f is None else bias_f.astype(np.float32)
            )
            return fields

        records: list[dict] = []
        for record in model_records(model):
            if "weight" in record:  # a compute layer: cast or quantize
                kind = record.pop("kind")
                weight, bias = record.pop("weight"), record.pop("bias")
                spectral = record.pop("spectra", None) is not None
                record = {
                    "kind": kind,
                    **weight_fields(weight, bias, spectral),
                    **record,
                }
            elif record["kind"] == "affine":
                record["scale"] = record["scale"].astype(np.float32)
                record["shift"] = record["shift"].astype(np.float32)
            records.append(record)
        return cls(records)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def _persisted_items(self, record: dict):
        """``(key, array)`` pairs :meth:`save` writes for one record.

        Quantized records persist their integer code points only; the
        float arrays the runtime executes are derived at load time
        (``spectra = rfft(dequantize(weight_q))``), which is both the
        format's size win and its exactness guarantee — integers
        round-trip bitwise, so the rebuilt floats do too.
        """
        for key, value in record.items():
            if not isinstance(value, np.ndarray):
                continue
            source = _DERIVED_WHEN_QUANTIZED.get(key)
            if source is not None and source in record:
                continue
            yield key, value

    def storage_bytes(self) -> int:
        """Total bytes of the arrays :meth:`save` persists (the deployed
        model size — integer code points, not derived floats, for
        quantized records)."""
        return sum(
            value.nbytes
            for record in self.records
            for _, value in self._persisted_items(record)
        )

    @property
    def quantized(self) -> bool:
        """Whether any record stores fixed-point code points."""
        return any("weight_q" in record for record in self.records)

    def save(self, path: str | Path) -> None:
        """Write the artifact to a single ``.npz`` file, format v2
        (:data:`FORMAT_VERSION`) — the only format written; v1 files
        still load."""
        header = []
        arrays: dict[str, np.ndarray] = {}
        for index, record in enumerate(self.records):
            meta = {}
            persisted = set()
            for key, value in self._persisted_items(record):
                arrays[f"layer{index}_{key}"] = value
                meta[key] = f"@layer{index}_{key}"
                persisted.add(key)
            for key, value in record.items():
                if isinstance(value, np.ndarray) or key in persisted:
                    continue
                meta[key] = value
            header.append(meta)
        payload = {
            "version": FORMAT_VERSION,
            "layers": header,
            "meta": self.metadata,
        }
        arrays["__header__"] = np.frombuffer(
            json.dumps(payload).encode(), dtype=np.uint8
        )
        np.savez(Path(path), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "DeployedModel":
        """Read an artifact written by :meth:`save` (format v1 or v2).

        v1 files load exactly as before (float arrays straight from the
        file).  v2 files rebuild the derived float arrays of quantized
        records from their integer code points: ``weight = codes *
        2**-fraction_bits`` and, for block-circulant layers, ``spectra =
        rfft(weight)`` — the identical computation :meth:`from_model`
        ran, so a save/load round trip is bitwise.
        """
        from ..quantize.fixed_point import QFormat, dequantize_ints

        path = Path(path)
        with np.load(path) as data:
            if "__header__" not in data:
                raise DeploymentError(f"{path} is not a deployed-model file")
            header = json.loads(bytes(data["__header__"].tobytes()).decode())
            version = header.get("version")
            if version not in (LEGACY_FORMAT_VERSION, FORMAT_VERSION):
                raise DeploymentError(
                    f"unsupported format version {version}"
                )
            records = []
            for meta in header["layers"]:
                record = {}
                for key, value in meta.items():
                    if isinstance(value, str) and value.startswith("@"):
                        record[key] = data[value[1:]]
                    else:
                        record[key] = value
                if "weight_q" in record:
                    weight = dequantize_ints(
                        record["weight_q"], QFormat(*record["qformat"])
                    )
                    if record["kind"] in ("bc_linear", "bc_conv"):
                        record["spectra"] = rfft(weight).astype(np.complex64)
                    else:
                        record["weight"] = weight.astype(np.float32)
                if "bias_q" in record:
                    record["bias"] = dequantize_ints(
                        record["bias_q"], QFormat(*record["bias_qformat"])
                    ).astype(np.float32)
                elif "bias" not in record:
                    record["bias"] = None
                records.append(record)
            metadata = header.get("meta") or {}
        model = cls(records, metadata=metadata)
        model.source_version = version
        return model

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-able artifact summary (the CLI's ``repro inspect``).

        Per layer: kind, structural scalars, persisted bytes, and the
        quantization Q-format/error when present; plus the metadata
        sections and total size.
        """
        layers = []
        for index, record in enumerate(self.records):
            info: dict = {"index": index, "kind": record["kind"]}
            for key in (
                "in_features", "out_features", "block_size",
                "in_channels", "out_channels", "kernel_size",
                "stride", "padding",
            ):
                if key in record:
                    info[key] = record[key]
            arrays = {
                key: {
                    "shape": list(value.shape),
                    "dtype": str(value.dtype),
                    "bytes": int(value.nbytes),
                }
                for key, value in self._persisted_items(record)
            }
            if arrays:
                info["arrays"] = arrays
            if "qformat" in record:
                integer_bits, fraction_bits = record["qformat"]
                info["qformat"] = f"Q{integer_bits}.{fraction_bits}"
                info["quantization_error"] = float(record["q_error"])
            layers.append(info)
        return {
            "version": self.source_version or FORMAT_VERSION,
            "quantized": self.quantized,
            "storage_bytes": self.storage_bytes(),
            "layers": layers,
            "metadata": self.metadata,
        }

    def quantization_summary(self) -> list[dict]:
        """Per-quantized-record digest for the v2 metadata header.

        ``error`` is the record's worst relative quantization error
        across its weight and bias.
        """
        rows = []
        for index, record in enumerate(self.records):
            if "qformat" not in record:
                continue
            integer_bits, fraction_bits = record["qformat"]
            rows.append(
                {
                    "index": index,
                    "kind": record["kind"],
                    "qformat": [int(integer_bits), int(fraction_bits)],
                    "error": float(record["q_error"]),
                }
            )
        return rows
