"""Per-shard backend decisions: traced sampling and the batch bypass.

This module is the decision point every sharded or chunked entry point
consults before tokenizing:

* :func:`probe_shard` — a cheap statistical probe (O(sample), not
  O(shard)): the stored-bypass entropy/trigram sniff of
  :mod:`repro.deflate.sniff`, kept as a record so the decision can be
  surfaced in stats without sniffing the shard twice.
* :func:`should_trace` — a deterministic, seedable sampling policy that
  diverts a configurable fraction of shards through the instrumented
  ``traced`` backend. Sampled shards produce the
  :class:`~repro.lzss.trace.MatchTrace` the hardware cycle model
  consumes, which the parallel engine folds into
  :mod:`repro.estimator.calibration` as live calibration points.
* :func:`route_shard` — traced sampling first, then the static
  registry resolution of :func:`repro.lzss.backends.resolve`.
* :func:`route_batch` — one decision for a whole packed batch: the
  stored bypass (with ``sniff``) and the packed-kernel choice.

Routing never changes output bytes: ``traced`` and ``fast`` are
bit-identical by the differential-test contract, so sampling moves only
wall-clock. A shard that *requests* ``backend="sa"`` (the exact
suffix-array matcher, which is deliberately not bit-identical) always
runs ``sa``: it is exempt from traced sampling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.deflate.sniff import (
    SNIFF_SAMPLE_BYTES,
    incompressible_from_signals,
    sampled_entropy_bits,
    trigram_repeat_fraction,
)
from repro.errors import ConfigError


@dataclass(frozen=True)
class ShardProbe:
    """One shard's stored-bypass signals, computed once and shared."""

    input_bytes: int
    entropy_bits: float
    trigram_repeat: float

    @property
    def incompressible(self) -> bool:
        """The stored-bypass verdict, from the shared signals."""
        return incompressible_from_signals(
            self.input_bytes, self.entropy_bits, self.trigram_repeat
        )


def probe_shard(data) -> ShardProbe:
    """Probe one shard: sampled entropy and trigram repeats.

    O(sample) regardless of shard size (strided entropy sample plus a
    handful of short contiguous windows).
    """
    view = memoryview(data)
    return ShardProbe(
        input_bytes=len(view),
        entropy_bits=sampled_entropy_bits(view, SNIFF_SAMPLE_BYTES),
        trigram_repeat=trigram_repeat_fraction(view),
    )


@dataclass(frozen=True)
class RouterConfig:
    """Traced-sampling policy (frozen, picklable).

    ``trace_fraction``/``trace_seed`` drive the deterministic
    traced-sampling policy (see :func:`should_trace`).

    >>> RouterConfig(trace_fraction=0.25).active
    True
    >>> RouterConfig(trace_fraction=1.5)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigError: trace_fraction must be in [0, 1]: 1.5
    """

    trace_fraction: float = 0.0
    trace_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_fraction <= 1.0:
            raise ConfigError(
                f"trace_fraction must be in [0, 1]: {self.trace_fraction}"
            )

    @property
    def active(self) -> bool:
        """Whether any shard may be diverted through ``traced``."""
        return self.trace_fraction > 0.0


@dataclass(frozen=True)
class RoutingDecision:
    """One shard's routing outcome, surfaced in shard stats.

    ``backend`` is the concrete backend the shard ran (``"stored"``
    when the stored bypass skipped tokenization entirely, ``"packed"``
    for the batch engine's packed numpy kernel); ``requested`` is what
    the caller configured; ``reason`` is a short machine-greppable tag
    explaining the choice.
    """

    backend: str
    requested: str
    reason: str
    traced_sample: bool = False
    probe: Optional[ShardProbe] = None


def should_trace(index: int, fraction: float, seed: int = 0) -> bool:
    """Deterministic, seedable shard-sampling predicate.

    Each shard index hashes (with the seed) to a point on [0, 1); the
    shard is sampled when that point falls below ``fraction``. The
    selection is therefore reproducible run to run and independent of
    worker scheduling, and the two degenerate fractions behave exactly
    as expected:

    >>> [should_trace(i, 0.0) for i in range(4)]
    [False, False, False, False]
    >>> [should_trace(i, 1.0) for i in range(4)]
    [True, True, True, True]
    >>> should_trace(5, 0.25, seed=1) == should_trace(5, 0.25, seed=1)
    True
    """
    if fraction <= 0.0:
        return False
    if fraction >= 1.0:
        return True
    digest = hashlib.blake2b(
        f"{seed}:{index}".encode(), digest_size=8
    ).digest()
    point = int.from_bytes(digest, "big") / float(1 << 64)
    return point < fraction


def route_shard(
    backend: str = "auto",
    policy=None,
    config: Optional[RouterConfig] = None,
    index: int = 0,
    probe: Optional[ShardProbe] = None,
) -> RoutingDecision:
    """Decide which concrete backend one shard runs.

    A shard the traced-sampling policy selects runs ``traced``
    (telemetry wins, bytes are identical); every other shard runs the
    static registry resolution of :func:`repro.lzss.backends.resolve`.
    ``probe`` (taken earlier by the stored bypass) is carried into the
    decision record.

    >>> from repro.lzss.policy import MatchPolicy
    >>> route_shard(backend="fast", policy=MatchPolicy()).backend
    'fast'
    """
    from repro.lzss.backends import resolve

    config = config or RouterConfig()
    # Never trace-sample a shard that asked for the suffix-array
    # matcher: sa is not bit-identical to traced (it finds matches hash
    # chains miss), so diverting it would change output bytes — and its
    # chain-free search has no MatchTrace for the cycle models anyway.
    if backend != "sa" and should_trace(
            index, config.trace_fraction, config.trace_seed):
        return RoutingDecision(
            backend="traced",
            requested=backend,
            reason="trace-sample",
            traced_sample=True,
            probe=probe,
        )
    return RoutingDecision(
        backend=resolve(backend, policy),
        requested=backend,
        reason="static",
        probe=probe,
    )


def route_batch(
    packed,
    backend: str = "auto",
    policy=None,
    sniff: bool = False,
) -> RoutingDecision:
    """One routing decision for a whole packed batch of small payloads.

    With ``sniff``, one probe over the *packed* buffer (amortised across
    every payload) catches the all-incompressible batch, which routes to
    ``"stored"`` (the caller skips tokenization and stores every payload
    verbatim). Otherwise ``auto`` picks the packed numpy kernel
    (``"packed"``) when numpy is usable and the policy is insert-all,
    and per-payload ``fast`` when not; an explicit backend resolves
    statically.

    ``packed`` is the concatenated payload bytes (a sample is fine; the
    probe subsamples anyway).
    """
    from repro.lzss.backends import resolve
    from repro.lzss.batch import packed_kernel_usable

    probe = None
    if sniff:
        probe = probe_shard(packed)
        if probe.incompressible:
            return RoutingDecision(
                backend="stored",
                requested=backend,
                reason="batch-incompressible",
                probe=probe,
            )
    if backend == "auto":
        if packed_kernel_usable(policy):
            return RoutingDecision(
                backend="packed",
                requested=backend,
                reason="batch-packed",
                probe=probe,
            )
        return RoutingDecision(
            backend="fast",
            requested=backend,
            reason="packed-unavailable",
            probe=probe,
        )
    return RoutingDecision(
        backend=resolve(backend, policy),
        requested=backend,
        reason="static",
        probe=probe,
    )


def config_from_profile(
    prof,
    trace_fraction: Optional[float] = None,
    trace_seed: Optional[int] = None,
    router: Optional[RouterConfig] = None,
) -> RouterConfig:
    """Build the effective :class:`RouterConfig` for an entry point.

    A whole ``router`` object wins outright; otherwise each knob
    resolves with the library-wide precedence (explicit kwarg > profile
    field > default). ``prof`` is a
    :class:`repro.profile.CompressionProfile`.
    """
    if router is not None:
        return router
    return RouterConfig(
        trace_fraction=prof.pick("trace_fraction", trace_fraction, 0.0),
        trace_seed=prof.pick("trace_seed", trace_seed, 0),
    )
