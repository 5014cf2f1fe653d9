"""Discrete distributions over experience indices.

A stream of N experiences needs two kinds of probabilities: where each class
first occurs (a PMF over indices 0..N-1) and how likely it is to repeat
afterwards (plain Bernoulli rates, handled by the sampling generator).
This module materializes the first-occurrence PMFs.

Infinite-support families (poisson, geometric) are truncated to the first N
support points and renormalized. Indexing is 0-based: formulas defined on
i >= 1 (zipf, geometric) are shifted so index 0 carries the i=1 mass. In
particular geometric(p=1) puts all mass on index 0.
"""

import math
from dataclasses import dataclass

import numpy as np

PARAMETRIC_KINDS = ("zipf", "poisson", "geometric")  # the kinds that take ``param``
PMF_KINDS = (*PARAMETRIC_KINDS, "uniform", "custom")


@dataclass(frozen=True)
class PmfSpec:
    """Specification of a PMF over ``support_len`` experience indices.

    ``param`` holds the single scalar parameter of the parametric kinds:
    the exponent for zipf, the mean for poisson, the success probability
    for geometric. ``weights`` is only used by the custom kind.
    """

    kind: str
    support_len: int
    param: float | None = None
    weights: tuple[float, ...] | None = None

    @classmethod
    def zipf(cls, exponent: float, support_len: int) -> "PmfSpec":
        return cls("zipf", support_len, param=exponent)

    @classmethod
    def poisson(cls, mu: float, support_len: int) -> "PmfSpec":
        return cls("poisson", support_len, param=mu)

    @classmethod
    def geometric(cls, p: float, support_len: int) -> "PmfSpec":
        return cls("geometric", support_len, param=p)

    @classmethod
    def uniform(cls, support_len: int) -> "PmfSpec":
        return cls("uniform", support_len)

    @classmethod
    def custom(cls, weights, support_len: int | None = None) -> "PmfSpec":
        weights = tuple(float(w) for w in weights)
        if support_len is None:
            support_len = len(weights)
        return cls("custom", support_len, weights=weights)

    def validate(self) -> None:
        if self.kind not in PMF_KINDS:
            raise ValueError(f"unknown pmf kind {self.kind!r}")
        if self.support_len <= 0:
            raise ValueError("pmf support_len must be >= 1")
        if self.kind in PARAMETRIC_KINDS:
            if self.param is None or not math.isfinite(self.param):
                raise ValueError(f"{self.kind} pmf needs a finite parameter")
        if self.kind in ("zipf", "poisson") and self.param < 0:
            raise ValueError(f"{self.kind} parameter must be >= 0")
        if self.kind == "geometric" and not 0.0 < self.param <= 1.0:
            raise ValueError("geometric parameter must be in (0, 1]")
        if self.kind == "custom":
            if self.weights is None or len(self.weights) != self.support_len:
                raise ValueError("custom weights must have support_len entries")
            w = np.asarray(self.weights, dtype=float)
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("custom weights must be finite and >= 0")
            if not np.any(w > 0):
                raise ValueError("custom weights must have a positive entry")

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "support_len": self.support_len}
        if self.param is not None:
            cfg["param"] = self.param
        if self.weights is not None:
            cfg["weights"] = list(self.weights)
        return cfg


def materialize_pmf(spec: PmfSpec) -> np.ndarray:
    """Evaluate ``spec`` into a length-N probability vector summing to 1."""
    spec.validate()
    n = spec.support_len
    if spec.kind == "uniform":
        probs = np.full(n, 1.0 / n)
    elif spec.kind == "zipf":
        # f(index) proportional to 1 / (index+1)^e
        terms = 1.0 / np.arange(1, n + 1, dtype=float) ** spec.param
        probs = terms / terms.sum()
    elif spec.kind == "poisson":
        if spec.param == 0.0:
            probs = np.zeros(n)
            probs[0] = 1.0
        else:
            # log-space keeps the factorial finite for large supports
            i = np.arange(n, dtype=float)
            logp = i * math.log(spec.param) - spec.param
            logp -= np.array([math.lgamma(k + 1) for k in range(n)])
            probs = np.exp(logp - logp.max())
            probs /= probs.sum()
    elif spec.kind == "geometric":
        p = spec.param
        if p == 1.0:
            probs = np.zeros(n)
            probs[0] = 1.0
        else:
            probs = p * (1.0 - p) ** np.arange(n, dtype=float)
            probs /= probs.sum()
    else:  # custom
        w = np.asarray(spec.weights, dtype=float)
        probs = w / w.sum()
    assert abs(probs.sum() - 1.0) < 1e-9
    return probs


def sample_index(pmf: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one index distributed according to ``pmf`` (inverse CDF)."""
    pmf = np.asarray(pmf, dtype=float)
    if pmf.ndim != 1 or pmf.size == 0:
        raise ValueError("pmf must be a non-empty vector")
    if np.any(pmf < 0) or abs(pmf.sum() - 1.0) > 1e-6:
        raise ValueError("pmf entries must be >= 0 and sum to 1")
    cdf = np.cumsum(pmf)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, pmf.size - 1)
