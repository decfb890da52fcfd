"""Bounds and tolerances for spectra scans and convergence verdicts.

Everything a verdict depends on lives in one frozen record so runs are
reproducible and auditable: load a config from JSON, override single fields
from CLI flags, and the same inputs give the same outputs (the only
randomness in the package is behind the explicit ``seed``).
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from pathlib import Path


# Field kinds by annotation (a string under postponed evaluation), and the
# lower bounds of the count fields; one point has no spread, so window >= 2.
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}
_MINIMA = {"scan_bound": 2, "k_max": 1, "Q": 1, "window": 2, "we_r_bound": 1, "we_k_bound": 1}


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class EngineConfig:
    # Spectrum scans
    scan_bound: int = 1000        # primes p <= scan_bound are examined
    k_max: int = 16               # exponent bound for transparency valuations
    one_tol: float = 1e-12        # floating proxy for "equals 1"

    # Series truncation
    Q: int = 1_000_000            # truncation for floating partial sums

    # Convergence verdicts
    window: int = 32              # final-window size for spread measurement
    conv_tol: float = 0.02        # spread tolerance for "converges_to"
    divergence_threshold: float = 10.0   # |S| must exceed this to call divergence
    growth_exponent_min: float = 0.1     # and the fitted exponent must exceed this
    slow_growth_tol: float = 0.05        # last-decade increase that flags slow divergence

    # Sampled hypotheses
    sample_a: tuple[int, ...] = tuple(range(1, 51))
    we_r_bound: int = 100         # r grid for the weakly-exotic certificate
    we_k_bound: int = 6           # K grid for the weakly-exotic certificate

    seed: int = 0                 # seed for randomized sweeps

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if f.type in _KINDS and not _is_number(getattr(self, f.name), _KINDS[f.type][0]):
                raise ValueError(f"{f.name} must be {_KINDS[f.type][1]}, got {getattr(self, f.name)!r}")
        for name, least in _MINIMA.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        sample_ok = isinstance(self.sample_a, tuple) and self.sample_a and all(_is_number(a, numbers.Integral) and a >= 1 for a in self.sample_a)
        if not sample_ok:
            raise ValueError(f"sample_a must be a nonempty tuple of integers a >= 1, got {self.sample_a!r}")

    def replace(self, **kwargs) -> "EngineConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sample_a"] = list(d["sample_a"])
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(data.get("sample_a"), list):
            data = {**data, "sample_a": tuple(data["sample_a"])}
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
