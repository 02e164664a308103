"""Batch-wise packet loss models.

A batch-wise model is a row-stochastic table q(r|m): the probability that
r packets arrive when m are sent on a link. Closed form for independent
loss, empirical estimation for the two-state bursty channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-9
CHANNEL_BLOCK = 1024  # packets a Channel draws its doubles for at a time


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class GEParams:
    """Two-state channel: per-packet success probabilities and transitions."""

    s_good: float
    s_bad: float
    p_gb: float
    p_bg: float

    def __post_init__(self):
        for name in ("s_good", "s_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name}={v} outside [0,1]")
        for name in ("p_gb", "p_bg"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ParameterError(f"{name}={v} outside (0,1]")

    def steady_state(self):
        pi_g = self.p_bg / (self.p_gb + self.p_bg)
        return pi_g, 1.0 - pi_g

    def average_loss_rate(self):
        pi_g, pi_b = self.steady_state()
        return 1.0 - pi_g * self.s_good - pi_b * self.s_bad


@dataclass(frozen=True)
class LossSpec:
    """Link loss description: independent(epsilon) or gilbert_elliott(params)."""

    kind: str
    epsilon: float = 0.0
    ge: GEParams | None = None

    def __post_init__(self):
        if self.kind == "independent":
            if not 0.0 <= self.epsilon < 1.0:
                raise ParameterError(f"epsilon={self.epsilon} outside [0,1)")
        elif self.kind == "gilbert_elliott":
            if self.ge is None:
                raise ParameterError("gilbert_elliott spec needs GE parameters")
        else:
            raise ParameterError(f"unknown loss kind {self.kind!r}")

    @property
    def average_loss_rate(self):
        if self.kind == "independent":
            return self.epsilon
        return self.ge.average_loss_rate()

    @staticmethod
    def independent(epsilon):
        return LossSpec(kind="independent", epsilon=epsilon)

    @staticmethod
    def gilbert_elliott(s_good, s_bad, p_gb, p_bg):
        return LossSpec(kind="gilbert_elliott",
                        ge=GEParams(s_good, s_bad, p_gb, p_bg))


class Channel:
    """A link's loss process: iterating yields one arrival flag per packet.

    Independent loss compares one uniform double per packet with the
    success probability. A bursty link starts in a steady-state draw, then
    takes two doubles per packet, in this order: it receives from its
    current state, then transitions. The doubles come CHANNEL_BLOCK packets
    at a time from `rng.random`, which returns the same doubles as the same
    number of scalar draws; drawing ahead is exact only because no one else
    draws from `rng`, so every link must own its generator (the simulator
    spawns one per link).
    """

    def __init__(self, spec, rng):
        self.spec, self.rng = spec, rng

    def __iter__(self):
        rng, block, ge = self.rng, CHANNEL_BLOCK, self.spec.ge
        if ge is None:
            p_recv = 1.0 - self.spec.epsilon
            while True:
                yield from (rng.random(block) < p_recv).tolist()
        good = rng.random() < ge.steady_state()[0]
        recv, leave = (ge.s_bad, ge.s_good), (ge.p_bg, ge.p_gb)
        while True:
            u = rng.random(2 * block).tolist()
            for t in range(0, 2 * block, 2):
                yield u[t] < recv[good]
                if u[t + 1] < leave[good]:
                    good = not good


@dataclass
class BatchLossModel:
    """q(r|m) table for m,r in 0..m_max; rows sum to one."""

    m_max: int
    q_table: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self.q_table = np.array(self.q_table, dtype=float)  # private copy
        self.q_table.flags.writeable = False  # shared through solver caches
        if self.q_table.shape != (self.m_max + 1, self.m_max + 1):
            raise ParameterError(
                f"q_table shape {self.q_table.shape} != {(self.m_max + 1,) * 2}")
        sums = self.q_table.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ParameterError(f"row {bad} sums to {sums[bad]}, not 1")
        upper = np.triu(self.q_table, k=1)
        if np.any(upper > 0):
            raise ParameterError("q(r|m) > 0 for r > m")

    def derived(self, key, build):
        """The table `build()` makes, built once per key and kept on this
        model read-only: every solver layer shares it."""
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build()
            got.flags.writeable = False
        return got


def independent_loss_model(epsilon, m_max):
    """Binomial arrivals: q(r|m) = C(m,r)(1-eps)^r eps^(m-r)."""
    if not 0.0 <= epsilon < 1.0:
        raise ParameterError(f"epsilon={epsilon} outside [0,1)")
    if m_max < 1:
        raise ParameterError("m_max must be >= 1")
    tab = np.zeros((m_max + 1, m_max + 1))
    for m in range(m_max + 1):
        for r in range(m + 1):
            tab[m, r] = math.comb(m, r) * (1 - epsilon) ** r * epsilon ** (m - r)
        tab[m, :m + 1] /= tab[m, :m + 1].sum()
    return BatchLossModel(m_max=m_max, q_table=tab)


def _ge_paths(params, n, length, rng):
    """n arrival paths of `length` packets each, states carried within a path."""
    pi_g, _ = params.steady_state()
    Z = np.zeros((n, length), dtype=np.int8)
    for s in range(n):
        good = rng.random() < pi_g
        pos = 0
        while pos < length:
            p_leave = params.p_gb if good else params.p_bg
            run = min(int(rng.geometric(p_leave)), length - pos)
            succ = params.s_good if good else params.s_bad
            if succ >= 1.0:
                Z[s, pos:pos + run] = 1
            elif succ > 0.0:
                Z[s, pos:pos + run] = rng.random(run) < succ
            pos += run
            good = not good
    return Z


def empirical_loss_model(spec, m_max=100, samples=10000, rng_seed=0):
    """Estimate q(r|m) from the cyclic windows of simulated packet paths.

    Samples `samples` paths of m_max packets each (channel state carried
    within a path, drawn from the steady state across paths) and counts
    every cyclic window of length m per path, paths where every packet
    arrives in closed form. The empirical process is shift-invariant by
    construction, so the per-hop expected-rank curves it yields are
    exactly monotone and concave, as the per-hop recoding optimizer needs.
    """
    if spec.ge is None:
        raise ParameterError("only gilbert_elliott loss is estimated")
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if m_max < 1:
        raise ParameterError("m_max must be >= 1")
    Z = _ge_paths(spec.ge, samples, m_max, np.random.default_rng(rng_seed))
    whole = Z.all(axis=1)
    ZZ = np.tile(Z[~whole], 2)
    # the narrowest signed type holding -2*m_max - 1 also holds +2*m_max
    C = np.zeros((len(ZZ), 2 * m_max + 1),
                 dtype=np.min_scalar_type(-2 * m_max - 1))
    np.cumsum(ZZ, axis=1, dtype=C.dtype, out=C[:, 1:])
    # counts[t, r]: windows of length t with r arrivals, every t per offset
    base = np.arange(1, m_max + 1, dtype=np.intp) * (m_max + 1)
    counts = np.zeros((m_max + 1) ** 2, dtype=np.intp)
    for o in range(m_max):
        sums = base + (C[:, o + 1:o + m_max + 1] - C[:, o:o + 1])
        counts += np.bincount(sums.ravel(), minlength=counts.size)
    # a whole path has window sum t at each of its m_max offsets: (t, t)
    counts[m_max + 2::m_max + 2] += m_max * int(whole.sum())
    tab = counts.reshape(m_max + 1, m_max + 1) / (samples * m_max)
    tab[0, 0] = 1.0
    return BatchLossModel(m_max=m_max, q_table=tab)
