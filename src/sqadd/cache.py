"""On-disk cache for one level of the expressibility sieve.

A file holds the one level a run reads: level k for `exceptions K N`, and
level 2 for `exceptions 3 N --hurwitz`.  Binary format: magic, version,
the level's k, N, sha256 of the payload, then the level as one
little-endian bitmap of N // 8 + 1 bytes.  Any mismatch (magic, version,
parameters, length, checksum) falls back to a rebuild; a corrupt cache can
cost time, never correctness.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path
from typing import Optional

from .squares import expressibility_sieve

MAGIC = b"SQSV"
VERSION = 2
_HEADER = struct.Struct(">4sIIQ32s")


def cache_path(directory: Path, k: int, bound: int) -> Path:
    return Path(directory) / f"sieve-k{k}-n{bound}.bin"


def save_sieve(path: Path, k: int, bound: int, level: int) -> None:
    payload = level.to_bytes(bound // 8 + 1, "little")
    digest = hashlib.sha256(payload).digest()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, k, bound, digest))
        fh.write(payload)


def load_sieve(path: Path, k: int, bound: int) -> Optional[int]:
    """Level k read from the cache file, or None whenever it cannot be trusted."""
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
    if len(payload) != bound // 8 + 1:
        _warn(f"cache {path} has the wrong length; rebuilding")
        return None
    if hashlib.sha256(payload).digest() != digest:
        _warn(f"cache {path} failed checksum; rebuilding")
        return None
    return int.from_bytes(payload, "little")


def sieve_with_cache(k: int, bound: int, cache_dir: Optional[Path]) -> int:
    """Level k of the sieve, served from the cache when possible and valid."""
    if cache_dir is None:
        return expressibility_sieve(k, bound)
    path = cache_path(cache_dir, k, bound)
    level = load_sieve(path, k, bound)
    if level is None:
        level = expressibility_sieve(k, bound)
        try:
            save_sieve(path, k, bound, level)
        except OSError as exc:
            _warn(f"cannot write cache {path}: {exc}")
    return level


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)
