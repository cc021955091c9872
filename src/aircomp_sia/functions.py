"""Nomographic function layer.

The air interface only ever delivers sums, so target functions are
decomposed into a per-device pre-processing step applied before
transmission and a post-processing step applied to the recovered sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

FUNCTIONS = ("sum", "mean", "geomean")


@dataclass(frozen=True)
class FunctionSpec:
    kind: str      # sum | mean | geomean
    devices: int   # K, needed by post-processing

    def __post_init__(self):
        if self.kind not in FUNCTIONS:
            raise DomainError(f"kind must be one of {'/'.join(FUNCTIONS)}, got {self.kind!r}")
        if self.devices < 1:
            raise DomainError("devices must be positive")


def preprocess(spec, data):
    """Map one device's real data vector to transmit symbols.

    sum and mean transmit the data unchanged (the mean divides after
    aggregation); geomean transmits logarithms, so the sum of the
    transmitted values is the log of the product.
    """
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite")
    if spec.kind == "geomean":
        if np.any(data <= 0):
            raise DomainError("geomean needs strictly positive data")
        return np.log(data).astype(np.complex128)
    return data.astype(np.complex128)


def postprocess(spec, aggregate):
    """Map the recovered aggregate back to the target function value.

    The imaginary part of the aggregate carries no data (pre-processed
    symbols are real) and is discarded.
    """
    real = np.asarray(aggregate).real.astype(np.float64)
    if spec.kind == "sum":
        return real
    if spec.kind == "mean":
        return real / spec.devices
    return np.exp(real / spec.devices)
