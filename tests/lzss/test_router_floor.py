"""The batch routing decision.

The batch router amortises one probe over N payloads: unset ``sniff``
it never probes and ``auto`` takes the packed numpy kernel of
:mod:`repro.lzss.vector` outright; with ``sniff`` it probes the packed
buffer once, only to catch the all-incompressible stored bypass.
"""

import random

import pytest

from repro.lzss.batch import packed_kernel_usable
from repro.lzss.policy import HW_MAX_POLICY
from repro.lzss.router import route_batch

needs_packed = pytest.mark.skipif(
    not packed_kernel_usable(HW_MAX_POLICY),
    reason="packed vector kernel unavailable (no numpy)",
)

TEXT = (b"probe floor regression text, wordy enough to be worth "
        b"compressing either way ") * 200


class TestRouteBatch:
    @needs_packed
    def test_static_batch_prefers_vector(self):
        decision = route_batch(TEXT, backend="auto",
                               policy=HW_MAX_POLICY)
        assert decision.backend == "packed"
        assert decision.reason == "batch-packed"
        assert decision.probe is None  # unset sniff never probes

    @needs_packed
    def test_probe_mode_stores_incompressible_batches(self):
        rng = random.Random(6)
        noise = bytes(rng.randrange(256) for _ in range(8192))
        decision = route_batch(noise, backend="auto",
                               policy=HW_MAX_POLICY, sniff=True)
        assert decision.backend == "stored"
        assert decision.reason == "batch-incompressible"
        assert decision.probe is not None

    @needs_packed
    def test_probe_mode_keeps_compressible_batches(self):
        decision = route_batch(TEXT, backend="auto",
                               policy=HW_MAX_POLICY, sniff=True)
        assert decision.backend == "packed"
        assert decision.reason == "batch-packed"
        assert decision.probe is not None

    def test_explicit_backend_resolves_statically(self):
        decision = route_batch(TEXT, backend="fast",
                               policy=HW_MAX_POLICY)
        assert decision.backend == "fast"
        assert decision.reason == "static"

    def test_auto_degrades_without_vector(self, monkeypatch):
        monkeypatch.setattr(
            "repro.lzss.batch._numpy_usable", lambda: False
        )
        decision = route_batch(TEXT, backend="auto",
                               policy=HW_MAX_POLICY)
        assert decision.backend == "fast"
        assert decision.reason == "packed-unavailable"
