"""Delta exchange: tuples as line-JSON frames between coordinator and
shards.

Both legs of a scatter-gather round travel as the service's existing
line-JSON message framing (:mod:`repro.service.protocol`): the
coordinator *scatters* each shard its delta partition as ``delta``
frames, shards *gather* their produced tuples back as ``result``
frames.  Every frame is a real ``protocol.encode``/``decode``
round-trip — the bytes the counters report are exactly the bytes that
would cross a socket, and oversized payloads are chunked to respect
``protocol.MAX_LINE_BYTES`` just as a socket writer would have to.

Value codec: normalized fixpoint tuples contain only atoms, oids and
tuples (``normalize_binding`` collapses records to oids before
insertion), so the wire form needs one marker — ``{"__oid__": n}`` —
to keep object identifiers distinguishable from plain integers; arrays
map back to tuples.  Anything else is rejected loudly rather than
silently stringified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.errors import ProtocolError
from repro.physical.storage import Oid
from repro.service import protocol

__all__ = [
    "encode_value",
    "decode_value",
    "encode_tuples",
    "decode_tuples",
    "ExchangeStats",
]

#: Tuples per frame before size-based splitting kicks in.  Small enough
#: that a typical frame stays far below ``MAX_LINE_BYTES``, large
#: enough that framing overhead is negligible.
FRAME_TUPLES = 2048


def encode_value(value):
    """Wire form of one normalized tuple value."""
    if isinstance(value, Oid):
        return {"__oid__": int(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return [encode_value(item) for item in value]
    raise ProtocolError(
        f"value of type {type(value).__name__!r} cannot cross the "
        f"shard exchange (normalized tuples hold atoms, oids and tuples)"
    )


def decode_value(value):
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        try:
            return Oid(value["__oid__"])
        except KeyError:
            raise ProtocolError(
                f"malformed oid marker in exchange frame: {value!r}"
            ) from None
    if isinstance(value, list):
        return tuple(decode_value(item) for item in value)
    return value


def _encode_tuple(values: Dict[str, object]) -> dict:
    return {key: encode_value(value) for key, value in values.items()}


def _decode_tuple(payload: dict) -> Dict[str, object]:
    return {key: decode_value(value) for key, value in payload.items()}


def _runs_equal(a, b) -> bool:
    """Type-strict wire-value equality for run-length merging.  Plain
    ``==`` would merge ``True`` with ``1`` (and ``1`` with ``1.0``) —
    the decoded column would then silently change a stored value's
    type, so runs only merge when the encoded forms match exactly."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(
            _runs_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


def _encode_column_runs(column: Sequence[object]) -> List[list]:
    """One column as ``[[wire_value, run_length], ...]`` runs.  Delta
    columns are highly repetitive (invariant fields repeat across every
    tuple of a partition), so run-length framing is where the columnar
    exchange's byte savings come from."""
    runs: List[list] = []
    for value in column:
        encoded = encode_value(value)
        if runs and _runs_equal(runs[-1][0], encoded):
            runs[-1][1] += 1
        else:
            runs.append([encoded, 1])
    return runs


def _decode_column_runs(runs, count: int, field: str) -> List[object]:
    """Inverse of :func:`_encode_column_runs`, validated against the
    frame's tuple count."""
    if not isinstance(runs, list):
        raise ProtocolError(f"malformed column runs for field {field!r}")
    column: List[object] = []
    for entry in runs:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or isinstance(entry[1], bool)
            or not isinstance(entry[1], int)
            or entry[1] < 1
        ):
            raise ProtocolError(
                f"malformed column run for field {field!r}: {entry!r}"
            )
        value = decode_value(entry[0])
        column.extend([value] * entry[1])
    if len(column) != count:
        raise ProtocolError(
            f"column {field!r} decodes to {len(column)} values "
            f"in a frame of {count} tuples"
        )
    return column


def encode_tuples(
    op: str,
    fix_name: str,
    round_index: int,
    shard: int,
    tuples: Sequence[Dict[str, object]],
    trace_id: str = "",
    layout: str = "row",
) -> List[bytes]:
    """Frame a tuple batch as one or more line-JSON messages.

    A frame that would exceed ``protocol.MAX_LINE_BYTES`` is split in
    half recursively; a single tuple too large for a frame raises (it
    could never cross the real wire either).  Sequence numbers are
    assigned when a frame is *finally* encoded — a chunk that splits
    never occupies a seq, so numbering stays dense and each emitted
    frame is counted exactly once however many splits produced it.
    When ``trace_id`` is set it rides in every frame header, tying the
    wire bytes back to the request's stitched trace.

    ``layout="row"`` (the default) frames each chunk as a ``tuples``
    array of per-tuple objects — the compatibility wire form, byte
    identical to what earlier revisions sent.  ``layout="columnar"``
    frames a chunk as ``{"n": count, "cols": {field: runs}}`` with each
    column run-length encoded; a chunk whose tuples do not all share
    one ordered field list falls back to the row form (the decoder
    accepts both, so the forms may mix within one sequence).
    """
    frames: List[bytes] = []
    columnar = layout == "columnar"

    def payload_of(chunk: Sequence[Dict[str, object]]) -> dict:
        if columnar and chunk:
            keys = tuple(chunk[0])
            if all(tuple(values) == keys for values in chunk):
                return {
                    "n": len(chunk),
                    "cols": {
                        key: _encode_column_runs(
                            [values[key] for values in chunk]
                        )
                        for key in keys
                    },
                }
        return {"tuples": [_encode_tuple(values) for values in chunk]}

    def header(seq: int, chunk: Sequence[Dict[str, object]]) -> dict:
        message = {
            "op": op,
            "fix": fix_name,
            "round": round_index,
            "shard": shard,
            "seq": seq,
        }
        message.update(payload_of(chunk))
        if trace_id:
            message["trace"] = trace_id
        return message

    def emit(chunk: Sequence[Dict[str, object]]) -> None:
        line = protocol.encode(header(len(frames), chunk))
        if len(line) <= protocol.MAX_LINE_BYTES:
            frames.append(line)
            return
        if len(chunk) <= 1:
            raise ProtocolError(
                f"one exchange tuple exceeds the {protocol.MAX_LINE_BYTES}"
                f"-byte frame limit"
            )
        middle = len(chunk) // 2
        emit(chunk[:middle])
        emit(chunk[middle:])

    if not tuples:
        return [protocol.encode(header(0, []))]
    for start in range(0, len(tuples), FRAME_TUPLES):
        emit(tuples[start : start + FRAME_TUPLES])
    return frames


def decode_tuples(frames: Iterable[bytes]) -> List[Dict[str, object]]:
    """Decode the tuple payloads of a frame sequence (order-preserving)."""
    tuples: List[Dict[str, object]] = []
    for line in frames:
        message = protocol.decode(line)
        cols = message.get("cols")
        if cols is not None:
            count = message.get("n")
            if (
                not isinstance(cols, dict)
                or isinstance(count, bool)
                or not isinstance(count, int)
                or count < 0
            ):
                raise ProtocolError(
                    f"malformed columnar exchange frame: "
                    f"{message.get('op')!r}"
                )
            columns = {
                field: _decode_column_runs(runs, count, field)
                for field, runs in cols.items()
            }
            names = list(columns)
            tuples.extend(
                {name: columns[name][index] for name in names}
                for index in range(count)
            )
            continue
        payload = message.get("tuples")
        if not isinstance(payload, list):
            raise ProtocolError(
                f"exchange frame without a tuples array: {message.get('op')!r}"
            )
        tuples.extend(_decode_tuple(entry) for entry in payload)
    return tuples


@dataclass
class ExchangeStats:
    """Volume counters for one exchange leg or round (both directions
    are counted: a tuple scattered and its result gathered are two
    exchanged tuples, exactly as they would be two sends)."""

    tuples: int = 0
    bytes: int = 0
    frames: int = 0

    def count(self, frames: Sequence[bytes], tuple_count: int) -> None:
        self.frames += len(frames)
        self.bytes += sum(len(frame) for frame in frames)
        self.tuples += tuple_count
