"""Model-storage analysis (the paper's O(n) weight-storage claim).

Reports, per weight layer and in total, the dense parameter count, the
stored (structured) parameter count, the deployed FFT-domain bytes, and
the compression ratio — the numbers behind the paper's "significant
reduction in storage requirement" conclusion and the E8 benchmark.  The
rows are a view over the per-record table of
:mod:`repro.embedded.cost_model`, so a live model and its
:class:`~repro.embedded.DeployedModel` report the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..embedded.cost_model import _FLOAT_BYTES, model_weights

__all__ = ["StorageRow", "StorageReport", "storage_report"]


@dataclass(frozen=True)
class StorageRow:
    """Storage accounting for one weight layer."""

    layer: str
    dense_params: int
    stored_params: int
    deployed_bytes: int

    @property
    def compression(self) -> float:
        return self.dense_params / self.stored_params


@dataclass
class StorageReport:
    """Aggregate storage accounting for a model."""

    rows: list[StorageRow]

    @property
    def dense_params(self) -> int:
        return sum(row.dense_params for row in self.rows)

    @property
    def stored_params(self) -> int:
        return sum(row.stored_params for row in self.rows)

    @property
    def deployed_bytes(self) -> int:
        return sum(row.deployed_bytes for row in self.rows)

    @property
    def dense_bytes(self) -> int:
        return self.dense_params * _FLOAT_BYTES

    @property
    def compression(self) -> float:
        return self.dense_params / self.stored_params


def storage_report(model) -> StorageReport:
    """Per-layer and total storage accounting for ``model`` (a
    :class:`~repro.nn.module.Sequential` or a
    :class:`~repro.embedded.DeployedModel`)."""
    rows = [StorageRow(*row) for row in model_weights(model)]
    if not rows:
        raise ValueError("model contains no weight layers")
    return StorageReport(rows)
