"""Traced replay of the compress/decompress pipeline, layer by layer.

``repro.api.compress`` is one call; to see where its time goes this
module re-runs the same pipeline from the layers' public functions and
times each call from outside, as a span. The replayed stream must be
byte-identical to ``api.compress``'s output (the caller checks), which
is what makes the per-layer numbers describe the real pipeline.

Compress stages (span names): ``config`` (request resolution),
``sniff`` (stored-bypass test), ``tokenize`` (LZSS matcher),
``cut_search`` (block boundaries, histograms and dynamic plans),
``refine`` (price-aware re-parse, ``best`` only), ``emit`` (block
writers) and ``checksum`` (Adler-32 and zlib framing). Decode stages:
``decode.header``, ``decode.inflate`` and ``decode.checksum``. A
separate ``table_build`` span replays the Huffman decoder table builds
of every dynamic block, an estimate of that part of inflate's time.

The replay calls each layer once and skips the argument checks the
entry points repeat (a second request resolution, the token-count
validation of the adaptive writer), so its wall time is slightly below
the untraced call's; ``trace.overhead_pct`` shows the net difference.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from statistics import median
from time import perf_counter_ns
from typing import Dict, List, Optional

from repro.api import CompressRequest
from repro.bitio.writer import BitWriter
from repro.checksums.adler32 import adler32
from repro.deflate.block_writer import (
    STORED_CHUNK_MAX,
    BlockStrategy,
    deflate_tokens,
    stored_block_cost_bits,
    write_fixed_block,
    write_stored_block,
)
from repro.deflate.dynamic import write_dynamic_block
from repro.deflate.inflate import inflate_with_tail
from repro.deflate.sniff import looks_incompressible
from repro.deflate.splitter import (
    DEFAULT_CUT_EVERY,
    RefineConfig,
    refine_searched_blocks,
    search_cut_points,
)
from repro.deflate.zlib_container import make_header, parse_header_info
from repro.huffman.decoder import LITLEN_FAST_BITS, HuffmanDecoder
from repro.lzss.compressor import LZSSCompressor
from repro.lzss.tokens import TokenArray


#: Column order of a span in :meth:`Recorder.rows` and the trace file.
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op")


class Recorder:
    """Spans held in memory, one column per field of :data:`SPAN_FIELDS`.

    ``parent`` is the index of the enclosing span (-1 for a root); a
    child span inherits its root's op id. Columns rather than one list
    per span keep the garbage collector from walking every span while
    the replay allocates.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops: List[str] = []
        self._open: List[int] = []

    def span(self, name: str, op: Optional[str] = None) -> "_Span":
        return _Span(self, name, op)

    def rows(self) -> List[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.ops))

    def self_times(self) -> List[int]:
        """Each span's duration minus the durations of its children."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own


class _Span:
    __slots__ = ("rec", "name", "op", "index")

    def __init__(self, rec: Recorder, name: str, op: Optional[str]) -> None:
        self.rec = rec
        self.name = name
        self.op = op

    def __enter__(self) -> None:
        rec = self.rec
        parent = rec._open[-1] if rec._open else -1
        self.index = len(rec.names)
        rec._open.append(self.index)
        rec.names.append(self.name)
        rec.ops.append(self.op if parent < 0 else rec.ops[parent])
        rec.parents.append(parent)
        rec.ends.append(0)
        rec.starts.append(perf_counter_ns())

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        rec = self.rec
        rec.ends[self.index] = end
        rec._open.pop()


class CompressStats:
    """What one replayed compress decided, beyond its timings."""

    def __init__(self) -> None:
        self.tokens = 0
        self.match_bytes = 0
        self.blocks: Dict[str, int] = {"stored": 0, "fixed": 0, "dynamic": 0}
        self.refine_offered = 0
        self.refine_accepted = 0
        self.refine_pre_bits = 0
        self.refine_saved_bits = 0
        #: Plans of the emitted dynamic blocks, for the table-build replay.
        self.plans: list = []

    def count_tokens(self, tokens: TokenArray) -> None:
        self.tokens += len(tokens)
        self.match_bytes += sum(tokens.lengths)


def compress(data: bytes, profile: str, rec: Recorder, op: str,
             stats: CompressStats) -> bytes:
    """Replay ``repro.api.compress(data, profile=profile)`` under spans."""
    with rec.span("compress", op):
        with rec.span("config"):
            resolved = CompressRequest(profile=profile).resolve()
        if resolved.zdict:
            raise ValueError("the replay covers plain (non-FDICT) streams")
        if resolved.strategy is BlockStrategy.ADAPTIVE:
            body = _adaptive_body(data, resolved, rec, stats)
        else:
            with rec.span("tokenize"):
                tokens = LZSSCompressor(
                    resolved.window_size, resolved.hash_spec,
                    resolved.policy, backend=resolved.backend,
                ).compress(data).tokens
            stats.count_tokens(tokens)
            with rec.span("emit"):
                body = deflate_tokens(tokens, resolved.strategy)
        with rec.span("checksum"):
            return (make_header(resolved.window_size) + body
                    + adler32(data).to_bytes(4, "big"))


def _adaptive_body(data: bytes, resolved, rec: Recorder,
                   stats: CompressStats) -> bytes:
    """The sniff -> tokenize -> cut search -> refine -> emit path."""
    if not resolved.cut_search:
        raise ValueError("the replay covers the cut-search adaptive path")
    with rec.span("sniff"):
        bypass = resolved.sniff and looks_incompressible(data)
    if bypass:
        with rec.span("emit"):
            writer = BitWriter()
            write_stored_block(writer, data, final=True)
            body = writer.flush()
        stats.blocks["stored"] += max(1, -(-len(data) // STORED_CHUNK_MAX))
        # The stages the bypass skips get empty spans, so every stage
        # has a measured time on every workload.
        skipped = ("tokenize", "cut_search") + (
            ("refine",) if resolved.refine else ())
        for stage in skipped:
            with rec.span(stage):
                pass
        return body
    with rec.span("tokenize"):
        tokens = LZSSCompressor(
            resolved.window_size, resolved.hash_spec, resolved.policy,
            backend=resolved.backend,
        ).compress(data).tokens
    stats.count_tokens(tokens)
    with rec.span("cut_search"):
        blocks = search_cut_points(
            tokens, min(DEFAULT_CUT_EVERY, resolved.tokens_per_block)
        )
    view = memoryview(data)
    refined = [None] * len(blocks)
    if resolved.refine:
        with rec.span("refine"):
            refined = refine_searched_blocks(
                view, blocks, RefineConfig(window_size=resolved.window_size)
            )
        stats.refine_offered += len(blocks)
        for searched, better in zip(blocks, refined):
            stats.refine_pre_bits += searched.search_bits
            if better is not None:
                stats.refine_accepted += 1
                stats.refine_saved_bits += (
                    min(searched.fixed_bits, searched.dynamic_bits)
                    - min(better[1], better[2])
                )
    with rec.span("emit"):
        return _emit_searched(view, tokens, blocks, refined, stats)


def _emit_searched(view, tokens, blocks, refined, stats) -> bytes:
    """Each searched block as its cheapest coding, the splitter's rule.

    Ties go to the first of fixed, dynamic, stored; the stored price is
    taken at the writer's current bit offset.

    This copies the block-choice rule of
    ``repro.deflate.splitter._emit_searched_blocks`` (and
    :func:`_adaptive_body` copies its cut spacing), because the library
    has no hook to time its stages from inside. The byte-identity op
    catches any drift. Delete the replay once the library records its
    own stage spans.
    """
    writer = BitWriter()
    consumed = 0
    last = len(blocks) - 1
    for index, (searched, better) in enumerate(zip(blocks, refined)):
        if better is None:
            block = TokenArray()
            block.lengths = tokens.lengths[searched.start:searched.stop]
            block.values = tokens.values[searched.start:searched.stop]
            fixed_bits = searched.fixed_bits
            dynamic_bits = searched.dynamic_bits
            plan = searched.plan
        else:
            block, fixed_bits, dynamic_bits, plan = better
        raw = view[consumed:consumed + searched.raw_len]
        consumed += searched.raw_len
        stored_bits = stored_block_cost_bits(
            searched.raw_len, writer.bit_length & 7
        )
        final = index == last
        if fixed_bits <= dynamic_bits and fixed_bits <= stored_bits:
            write_fixed_block(writer, block, final=final)
            stats.blocks["fixed"] += 1
        elif dynamic_bits <= stored_bits:
            write_dynamic_block(writer, block, final=final, plan=plan)
            stats.blocks["dynamic"] += 1
            stats.plans.append(plan)
        else:
            write_stored_block(writer, raw, final=final)
            stats.blocks["stored"] += 1
    return writer.flush()


def decompress(stream: bytes, rec: Recorder, op: str) -> Optional[bytes]:
    """Replay ``zlib_container.decompress``; ``None`` on a bad checksum."""
    with rec.span("decompress", op):
        with rec.span("decode.header"):
            header = parse_header_info(stream)
        with rec.span("decode.inflate"):
            payload, consumed = inflate_with_tail(stream[header.size:])
        with rec.span("decode.checksum"):
            end = header.size + consumed
            expected = int.from_bytes(stream[end:end + 4], "big")
            good = len(stream) >= end + 4 and adler32(payload) == expected
    return payload if good else None


def table_builds(plans, rec: Recorder, op: str) -> None:
    """Rebuild the decoder tables inflate builds for these dynamic plans.

    Mirrors inflate's per-block work before the hot loop: the
    code-length decoder, the literal/length decoder and (when the block
    has distance codes) the distance decoder.
    """
    with rec.span("table_build", op):
        for plan in plans:
            HuffmanDecoder(plan.cl_lengths, max_bits=7)
            HuffmanDecoder(plan.litlen_lengths[:plan.hlit],
                           allow_incomplete=True, role="litlen",
                           fast_bits=LITLEN_FAST_BITS)
            dist = plan.dist_lengths[:plan.hdist]
            if any(dist):
                HuffmanDecoder(dist, allow_incomplete=True, role="dist")


#: Compress stages each profile's pipeline runs, in order.
STAGES = {
    "fastest": ("tokenize", "emit", "checksum"),
    "balanced": ("sniff", "tokenize", "cut_search", "emit", "checksum"),
    "best": ("sniff", "tokenize", "cut_search", "refine", "emit",
             "checksum"),
}

#: Decode stages (span names) of every profile.
DECODE_STAGES = ("decode.header", "decode.inflate", "decode.checksum")


def traced_pass(pipe, workload: str, times) -> tuple:
    """Replay every call of every profile, and the batch, under spans.

    ``pipe`` is the child's :class:`~benchmarks.pipeline.child.Pipeline`
    after its timed loop (its verified reference streams are what the
    replay must reproduce byte for byte) and ``times`` the timed loop's
    samples per unit. Returns ``(per_layer metrics, spans)``.
    """
    import repro
    from benchmarks.pipeline.child import reference_mops

    rec = Recorder()
    ops = pipe.ops
    stats = {profile: CompressStats() for profile in STAGES}
    for profile, st in stats.items():
        reference = pipe.reference[f"{profile}.compress"]
        for index, payload in enumerate(pipe.calls):
            op = f"{workload}/{profile}/{index}"
            first_plan = len(st.plans)
            try:
                stream = compress(payload, profile, rec, op, st)
            except Exception as exc:  # counted, the pass goes on
                ops.record(False, f"replay {op} raised {exc!r}")
                continue
            ops.record(stream == reference[index],
                       f"replay {op} differs from api.compress")
            try:
                out = decompress(stream, rec, op)
            except Exception as exc:  # counted, the pass goes on
                out = exc
            ops.record(out == payload, f"replayed decode {op} failed")
            table_builds(st.plans[first_plan:], rec, op)
    with rec.span("batch", f"{workload}/batch/0"):
        try:
            result = repro.compress_batch(pipe.batch)
        except Exception as exc:  # counted below
            result = exc
    batch_ok = (not isinstance(result, Exception)
                and list(result.streams) == pipe.reference["batch.compress"])
    ops.record(batch_ok, "replayed batch differs from the timed batch")
    choices = result.stats.choice_counts if batch_ok else {}
    metrics = _layer_metrics(rec, stats, pipe, times, choices,
                             reference_mops())
    return metrics, rec.rows()


def _layer_metrics(rec: Recorder, stats, pipe, times, choices,
                   ref_mops: float) -> dict:
    own = defaultdict(int)    # (profile, span name) -> self time, ns
    wall = defaultdict(int)   # (profile, root span name) -> duration, ns
    config_spans = 0
    for (name, start, end, parent, op), self_ns in zip(
            rec.rows(), rec.self_times()):
        group = op.split("/")[1]
        own[group, name] += self_ns
        if parent < 0:
            wall[group, name] += end - start
        config_spans += name == "config"

    metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    in_bytes = sum(len(p) for p in pipe.calls)
    attributed = []
    traced_ns = untraced_s = 0.0
    for profile, stages in STAGES.items():
        compress_ns = wall[profile, "compress"] or 1
        decompress_ns = wall[profile, "decompress"] or 1
        for stage in stages:
            put(f"{profile}.{stage}.s", own[profile, stage] / 1e9, "s")
            put(f"{profile}.{stage}.share",
                100 * own[profile, stage] / compress_ns, "%")
        st = stats[profile]
        put(f"{profile}.tokens", st.tokens, "count")
        put(f"{profile}.match_frac", st.match_bytes / in_bytes, "B/B")
        for stage in DECODE_STAGES:
            put(f"{profile}.{stage}.s", own[profile, stage] / 1e9, "s")
        if "cut_search" in stages:
            for kind, count in st.blocks.items():
                put(f"{profile}.blocks.{kind}", count, "count")
            build_ns = wall[profile, "table_build"]
            put(f"{profile}.decode.table_build.s", build_ns / 1e9, "s")
            put(f"{profile}.decode.table_build.share",
                100 * build_ns / decompress_ns, "%")
        if "refine" in stages:
            put(f"{profile}.refine.accepted_frac",
                st.refine_accepted / max(st.refine_offered, 1), "blocks/block")
            put(f"{profile}.refine.saved_pct",
                100 * st.refine_saved_bits / max(st.refine_pre_bits, 1), "%")
        compress_times = times[f"{profile}.compress"]
        decompress_times = times[f"{profile}.decompress"]
        if compress_times:
            put(f"{profile}.compress_norm",
                in_bytes / median(compress_times) / 1e6 / ref_mops,
                "MB/Mop")
        for root, root_ns in (("compress", compress_ns),
                              ("decompress", decompress_ns)):
            attributed.append(100 * (1 - own[profile, root] / root_ns))
        if compress_times and decompress_times:
            traced_ns += compress_ns + decompress_ns
            untraced_s += median(compress_times) + median(decompress_times)

    put("api.resolve_us",
        sum(own[p, "config"] for p in STAGES) / max(config_spans, 1) / 1e3,
        "us")
    put("batch.s", wall["batch", "batch"] / 1e9, "s")
    for kind in ("shared", "fixed", "stored"):
        put(f"batch.choices.{kind}", choices.get(kind, 0), "count")
    put("host.ref_mops", ref_mops, "Mop/s")
    if untraced_s:
        put("trace.overhead_pct", 100 * (traced_ns / 1e9 / untraced_s - 1),
            "%")
    put("trace.attributed_pct", min(attributed), "%")
    return metrics
