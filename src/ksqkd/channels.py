"""Transmission noise: a one-parameter depolarizing channel.

Two equivalent realizations exist.  The sampling form, which the round
kernel (``kernel.simulate_rounds``) applies, marks a round as
"depolarized" with probability p, after which the measurement outcome is
uniform over the four detectors regardless of basis; the density form
here applies rho -> (1-p) rho + p I/4.  For the depolarizing channel
these give identical outcome statistics, which keeps the Monte Carlo
round loop pure-state.

The single error figure the protocol cares about is w, the probability
of a wrong state identification given a correct-basis measurement.  For
depolarizing noise w = 3p/4 and the transmission fidelity is F = 1 - w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE_KINDS = ("none", "depolarizing")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "none"
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class DensityOperator:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError("density operator must be 4x4")
        if not np.allclose(m, m.conj().T, atol=1e-12):
            raise ValueError("density operator not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("density operator trace != 1")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("density operator has negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def from_pure(ray) -> "DensityOperator":
        v = ray.amps.reshape(4, 1)
        return DensityOperator(v @ v.conj().T)


def apply_noise_density(rho: DensityOperator, spec: NoiseSpec) -> DensityOperator:
    """Density form: rho -> (1-p) rho + p I/4."""
    if spec.kind == "none":
        return rho
    mixed = np.eye(4, dtype=np.complex128) / 4.0
    return DensityOperator((1.0 - spec.p) * rho.matrix + spec.p * mixed)


def analytic_w(spec: NoiseSpec) -> tuple[float, float]:
    """Exact (w, F) for a noise spec.

    A depolarized round still lands on the correct detector with
    probability 1/4, so w = p - p/4 = 3p/4.
    """
    if spec.kind == "none":
        return 0.0, 1.0
    w = 0.75 * spec.p
    return w, 1.0 - w
