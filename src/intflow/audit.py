"""Append-only log of executed kernel operations.

Each record notes which lane did the work: "payload" for integer arithmetic
on tensor values, "scale" for the cheap FP32 bookkeeping on scales, and
"fp32" for rational arithmetic on tensor values.  Only de-quantizes produce
those: the canonical quantize/de-quantize baseline's, a hybrid forward's at
each exit from the integer path, and `intflow infer --dequantize-output`'s
of its result.

The attention runs a group of heads, stacked along the rows, per step: the
group makes one record per step, its `rescaled` flag set when any head was
shrunk, and its `rescale` record counts the scale elements of only the
heads the shrink moved.  So the elements summed per op are the same for
any group size, and so are the op shares built from them.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

PAYLOAD = "payload"
SCALE = "scale"
FP32 = "fp32"

_LANES = (PAYLOAD, SCALE, FP32)


class AuditRecord(namedtuple("AuditRecord", "kind lane elements rescaled module")):
    """One executed operation: an immutable tuple of its fields, built in one
    call, as a forward makes hundreds."""

    __slots__ = ()

    def __new__(cls, kind: str, lane: str, elements: int, rescaled: bool = False, module: str = ""):
        if lane not in _LANES:
            raise ValueError(f"unknown lane {lane!r}")
        return tuple.__new__(cls, (kind, lane, elements, rescaled, module))


@dataclass
class OpAuditLog:
    records: list[AuditRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def payload_records(self) -> list[AuditRecord]:
        return [r for r in self.records if r.lane == PAYLOAD]

    def fp32_records(self) -> list[AuditRecord]:
        return [r for r in self.records if r.lane == FP32]

    def dequantize_records(self) -> list[AuditRecord]:
        return [r for r in self.records if r.kind == "dequantize"]

    def integer_pure(self) -> bool:
        """True when no de-quantize and no FP32 work on tensor values occurred."""
        return not self.dequantize_records() and not self.fp32_records()
