"""Seeded workload inputs for the pipeline benchmark.

Each workload is a list of *calls* (the payloads handed one at a time
to ``repro.api.compress``) plus a list of *batch* payloads (handed
together to ``repro.compress_batch``). Both lists slice the same bytes.
The parent process builds them here from ``--seed``; the child that
measures them receives only the bytes.

Every workload is a fixed corpus (generated from :data:`CORPUS_SEED`)
that ``--seed`` *rotates*: it picks which article, log chunk or message
comes first, or where the random bytes start. Different seeds give
different bytes, but the same content, so the ratio of every profile
moves by less than 0.03% from seed to seed and a 0.1% ratio bound can
hold. Drawing fresh content per seed moved ratios by 0.1-0.4% (quartile
spread over ten seeds); shuffling the pieces, or rotating the
heterogeneous runs, moved the cut search's blocks and ratios by up to
2%.

Why each workload is in the set (the layer it stresses, and the layers
it leaves idle so a change to them should not move it) is stated in
:data:`WHY` and in the README.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, TypeVar

KIB = 1024

#: The seed every corpus is generated from; ``--seed`` only rotates it.
CORPUS_SEED = 2012

#: Payload size of the messages workload, and the slice size the big
#: buffers are cut into for the batch engine.
MESSAGE_BYTES = 1 * KIB

#: Workload name -> input size in bytes (full run).
SIZES = {
    "heterogeneous": 256 * KIB,
    "wiki": 512 * KIB,
    "syslog": 1024 * KIB,
    "incompressible": 1024 * KIB,
    "messages": 512 * MESSAGE_BYTES,
}

#: ``--quick`` input size for every workload.
QUICK_BYTES = 16 * KIB

#: The heterogeneous buffer is this many equal runs, cycling families.
HETEROGENEOUS_RUNS = 16

#: The wiki buffer is this many articles, each from its own generator
#: seed (one generator seed fixes a vocabulary), and the syslog buffer
#: this many log chunks. The seed rotates whole pieces.
PIECES = 16

WHY = {
    "heterogeneous": (
        "16 KiB runs of log/JSON/prose/messages/noise: the cut search "
        "keeps cuts, blocks mix stored and dynamic, and best spends most "
        "of its time in refine"
    ),
    "wiki": (
        "16 prose articles: tokenize dominates compress, literal-heavy "
        "dynamic blocks dominate decode, and refine gains almost nothing"
    ),
    "syslog": (
        "repetitive logs: long matches exercise the tokenizer's compare "
        "ladder and make decode copy-bound"
    ),
    "incompressible": (
        "random bytes: balanced/best take the stored bypass, so "
        "tokenize/cut search/refine are idle; fastest runs the vector "
        "matcher and expands"
    ),
    "messages": (
        "512 independent 1 KiB JSON/HTML payloads: per-call fixed costs "
        "(config, decoder table builds) dominate; also the batch engine"
    ),
}

T = TypeVar("T", bytes, list)


@dataclass(frozen=True)
class Workload:
    """One workload's inputs: per-call payloads and batch payloads."""

    name: str
    calls: List[bytes]
    batch: List[bytes]

    @property
    def data(self) -> bytes:
        """All input bytes, in order (both lists slice these)."""
        return b"".join(self.calls)


def _rotate(items: T, seed: int) -> T:
    """``items`` rotated to start at a seed-chosen position."""
    start = random.Random(seed).randrange(len(items))
    return items[start:] + items[:start]


def _slices(data: bytes, size: int) -> List[bytes]:
    return [data[i:i + size] for i in range(0, len(data), size)]


def _pieces(make: Callable[[int, int], bytes], size: int) -> List[bytes]:
    """:data:`PIECES` equal pieces of the corpus, one generator seed each."""
    return [make(size // PIECES, CORPUS_SEED * 1000 + i)
            for i in range(PIECES)]


def _heterogeneous(size: int, seed: int) -> bytes:
    """Fixed text runs; the seed rotates the bytes of the noise runs.

    Moving the text runs moves the cut search's blocks, so only the
    noise, which is stored wherever it lands, carries the seed.
    """
    from repro.workloads.logs import json_telemetry, syslog_text
    from repro.workloads.messages import packed_messages
    from repro.workloads.synthetic import incompressible
    from repro.workloads.wiki import wiki_text

    makers = (
        lambda n, s: syslog_text(n, seed=s),
        lambda n, s: json_telemetry(n, seed=s),
        lambda n, s: wiki_text(n, seed=s),
        lambda n, s: packed_messages("json", n, seed=s),
    )
    run = size // HETEROGENEOUS_RUNS
    families = len(makers) + 1
    noise_slots = range(families - 1, HETEROGENEOUS_RUNS, families)
    noise = _rotate(incompressible(run * len(noise_slots), seed=CORPUS_SEED),
                    seed)
    runs = []
    for i in range(HETEROGENEOUS_RUNS):
        if i % families == families - 1:
            runs.append(noise[:run])
            noise = noise[run:]
        else:
            runs.append(makers[i % families](run, CORPUS_SEED * 1000 + i))
    return b"".join(runs)


def _messages(count: int, seed: int) -> List[bytes]:
    from repro.workloads.messages import html_messages, json_messages

    half = count // 2
    return _rotate(
        json_messages(half, MESSAGE_BYTES, seed=CORPUS_SEED)
        + html_messages(count - half, MESSAGE_BYTES, seed=CORPUS_SEED),
        seed)


def _wiki(size: int, seed: int) -> bytes:
    from repro.workloads.wiki import wiki_text

    return b"".join(_rotate(_pieces(lambda n, s: wiki_text(n, seed=s),
                                    size), seed))


def _syslog(size: int, seed: int) -> bytes:
    from repro.workloads.logs import syslog_text

    return b"".join(_rotate(_pieces(lambda n, s: syslog_text(n, seed=s),
                                    size), seed))


def _noise(size: int, seed: int) -> bytes:
    from repro.workloads.synthetic import incompressible

    return _rotate(incompressible(size, seed=CORPUS_SEED), seed)


#: Single-buffer workloads: one ``compress`` call on the whole buffer.
_BUFFERS: Dict[str, Callable[[int, int], bytes]] = {
    "heterogeneous": _heterogeneous,
    "wiki": _wiki,
    "syslog": _syslog,
    "incompressible": _noise,
}

NAMES = tuple(SIZES)


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The workload's inputs for ``seed`` (same seed, same bytes)."""
    size = QUICK_BYTES if quick else SIZES[name]
    if name == "messages":
        payloads = _messages(size // MESSAGE_BYTES, seed)
        return Workload(name, payloads, payloads)
    data = _BUFFERS[name](size, seed)
    return Workload(name, [data], _slices(data, MESSAGE_BYTES))
