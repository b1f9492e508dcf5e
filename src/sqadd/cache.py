"""On-disk cache for expressibility sieve tables.

Binary format: magic, version, k, N, sha256 of the payload, then one
length-prefixed little-endian bitmap per level j <= k.  Any mismatch
(magic, version, parameters, checksum, truncation) falls back to a rebuild;
a corrupt cache can cost time, never correctness.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .squares import expressibility_sieve

MAGIC = b"SQSV"
VERSION = 1
_HEADER = struct.Struct(">4sIIQ32s")


@dataclass(frozen=True)
class CacheFile:
    version: int
    k: int
    bound: int
    checksum: bytes
    levels: tuple[int, ...]
    loaded_from_disk: bool = False


def cache_path(directory: Path, k: int, bound: int) -> Path:
    return Path(directory) / f"sieve-k{k}-n{bound}.bin"


def _payload(levels: list[int], bound: int) -> bytes:
    nbytes = bound // 8 + 1
    chunks = []
    for level in levels:
        raw = level.to_bytes(nbytes, "little")
        chunks.append(struct.pack(">Q", len(raw)) + raw)
    return b"".join(chunks)


def describe_sieve(k: int, bound: int, levels: list[int]) -> CacheFile:
    payload = _payload(levels, bound)
    digest = hashlib.sha256(payload).digest()
    return CacheFile(VERSION, k, bound, digest, tuple(levels))


def save_sieve(path: Path, k: int, bound: int, levels: list[int]) -> CacheFile:
    payload = _payload(levels, bound)
    digest = hashlib.sha256(payload).digest()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, k, bound, digest))
        fh.write(payload)
    return CacheFile(VERSION, k, bound, digest, tuple(levels))


def load_sieve(path: Path, k: int, bound: int) -> Optional[CacheFile]:
    """Parsed cache file, or None whenever it cannot be trusted."""
    try:
        blob = Path(path).read_bytes()
    except OSError:
        return None
    if len(blob) < _HEADER.size:
        _warn(f"cache {path} truncated; rebuilding")
        return None
    magic, version, got_k, got_bound, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC or version != VERSION:
        return None
    if got_k != k or got_bound != bound:
        return None
    payload = blob[_HEADER.size :]
    if hashlib.sha256(payload).digest() != digest:
        _warn(f"cache {path} failed checksum; rebuilding")
        return None
    levels: list[int] = []
    offset = 0
    for _ in range(k + 1):
        if offset + 8 > len(payload):
            _warn(f"cache {path} truncated; rebuilding")
            return None
        (length,) = struct.unpack_from(">Q", payload, offset)
        offset += 8
        if offset + length > len(payload):
            _warn(f"cache {path} truncated; rebuilding")
            return None
        levels.append(int.from_bytes(payload[offset : offset + length], "little"))
        offset += length
    return CacheFile(version, k, bound, digest, tuple(levels), loaded_from_disk=True)


def sieve_with_cache(
    k: int, bound: int, cache_dir: Optional[Path]
) -> tuple[list[int], CacheFile]:
    """Sieve levels, served from cache when possible and valid."""
    if cache_dir is None:
        levels = expressibility_sieve(k, bound)
        return levels, describe_sieve(k, bound, levels)
    path = cache_path(cache_dir, k, bound)
    cached = load_sieve(path, k, bound)
    if cached is not None:
        return list(cached.levels), cached
    levels = expressibility_sieve(k, bound)
    try:
        return levels, save_sieve(path, k, bound, levels)
    except OSError as exc:
        _warn(f"cannot write cache {path}: {exc}")
        return levels, describe_sieve(k, bound, levels)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)
