"""Unit helpers and conversions used throughout the library.

All internal quantities use SI base units: bytes, seconds, hertz, watts,
joules.  These helpers exist so call sites read like the paper's text
(``GB(64)``, ``MHZ(1301)``) instead of sprinkling powers of ten/two.

The paper (and nvidia-smi/jtop) report memory in *decimal-ish* "GB" that are
actually GiB in most tools; we standardise on binary GiB for memory because
that is what ``jtop``/``tegrastats`` display and what the appendix tables
record.
"""

from __future__ import annotations

KIB = 2**10
MIB = 2**20
GIB = 2**30

MHZ = 1e6
GHZ = 1e9

MS = 1e-3
US = 1e-6


def gib(n: float) -> int:
    """Gibibytes to bytes (rounded to an integer byte count)."""
    return int(round(n * GIB))


def mib(n: float) -> int:
    """Mebibytes to bytes."""
    return int(round(n * MIB))


def kib(n: float) -> int:
    """Kibibytes to bytes."""
    return int(round(n * KIB))


def to_gib(nbytes: float) -> float:
    """Bytes to gibibytes as a float (for reporting)."""
    return nbytes / GIB


def to_mib(nbytes: float) -> float:
    """Bytes to mebibytes as a float (for reporting)."""
    return nbytes / MIB


def mhz(f: float) -> float:
    """Megahertz to hertz."""
    return f * MHZ


def ghz(f: float) -> float:
    """Gigahertz to hertz."""
    return f * GHZ


def to_mhz(hz: float) -> float:
    """Hertz to megahertz."""
    return hz / MHZ


def gb_per_s(x: float) -> float:
    """Decimal GB/s to bytes/s (bandwidths are conventionally decimal)."""
    return x * 1e9


def to_gb_per_s(bytes_per_s: float) -> float:
    """Bytes/s to decimal GB/s."""
    return bytes_per_s / 1e9


def tflops(x: float) -> float:
    """TFLOP/s to FLOP/s."""
    return x * 1e12


def to_tflops(flops: float) -> float:
    """FLOP/s to TFLOP/s."""
    return flops / 1e12


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, e.g. ``'5.60 GiB'``."""
    n = float(nbytes)
    for unit, div in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if abs(n) >= div:
            return f"{n / div:.2f} {unit}"
    return f"{n:.0f} B"


def fmt_duration(seconds: float) -> str:
    """Human-readable duration, e.g. ``'12.85 s'`` or ``'3.7 ms'``."""
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"
