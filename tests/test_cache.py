"""Sieve cache: round trips, corruption recovery, never a wrong answer."""

import hashlib
import struct

import pytest

import sqadd.cache
from sqadd.cache import (
    MAGIC,
    VERSION,
    cache_path,
    load_sieve,
    save_sieve,
    sieve_with_cache,
)
from sqadd.squares import exceptional_set, expressibility_sieve


def _no_rebuild(monkeypatch):
    def rebuild(k, bound):
        raise AssertionError(f"sieve rebuilt for k={k} N={bound}")

    monkeypatch.setattr(sqadd.cache, "expressibility_sieve", rebuild)


def test_round_trip_identical_effect(tmp_path, monkeypatch):
    fresh = sieve_with_cache(4, 2000, tmp_path)
    assert fresh == expressibility_sieve(4, 2000)
    assert sieve_with_cache(4, 2000, None) == fresh
    _no_rebuild(monkeypatch)
    loaded = sieve_with_cache(4, 2000, tmp_path)
    assert loaded == fresh
    assert exceptional_set(4, 2000, loaded) == exceptional_set(4, 2000, fresh)


def test_truncated_file_rebuilds(tmp_path, capsys):
    sieve_with_cache(4, 500, tmp_path)
    path = cache_path(tmp_path, 4, 500)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 3])
    level = sieve_with_cache(4, 500, tmp_path)
    assert level == expressibility_sieve(4, 500)
    assert "rebuilding" in capsys.readouterr().err
    assert load_sieve(path, 4, 500) == level


def test_corrupt_payload_rebuilds(tmp_path, capsys):
    sieve_with_cache(3, 500, tmp_path)
    path = cache_path(tmp_path, 3, 500)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    level = sieve_with_cache(3, 500, tmp_path)
    assert level == expressibility_sieve(3, 500)
    assert "checksum" in capsys.readouterr().err
    assert load_sieve(path, 3, 500) == level


def test_wrong_length_rebuilds(tmp_path, capsys):
    # a bitmap one byte short, with a checksum that matches it, would drop
    # the top bits and report 496..500 as exceptions
    path = cache_path(tmp_path, 3, 500)
    level = expressibility_sieve(3, 500)
    payload = level.to_bytes(500 // 8 + 1, "little")[:-1]
    header = struct.pack(">4sIIQ32s", MAGIC, VERSION, 3, 500, hashlib.sha256(payload).digest())
    path.write_bytes(header + payload)
    assert load_sieve(path, 3, 500) is None
    assert "wrong length" in capsys.readouterr().err
    assert sieve_with_cache(3, 500, tmp_path) == level


@pytest.mark.parametrize("version", [1, 999])
def test_version_bump_rebuilds(tmp_path, version):
    path = cache_path(tmp_path, 3, 100)
    save_sieve(path, 3, 100, expressibility_sieve(3, 100))
    blob = bytearray(path.read_bytes())
    # header: magic, version u32, k u32, N u64, checksum
    struct.pack_into(">I", blob, 4, version)
    path.write_bytes(bytes(blob))
    assert load_sieve(path, 3, 100) is None
    level = sieve_with_cache(3, 100, tmp_path)
    assert level == expressibility_sieve(3, 100)
    assert struct.unpack_from(">I", path.read_bytes(), 4) == (VERSION,)
    assert load_sieve(path, 3, 100) == level


def test_wrong_parameters_ignored(tmp_path):
    path = cache_path(tmp_path, 3, 100)
    save_sieve(path, 3, 100, expressibility_sieve(3, 100))
    assert load_sieve(path, 4, 100) is None
    assert load_sieve(path, 3, 200) is None


def test_magic_checked(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + bytes(100))
    assert load_sieve(path, 3, 100) is None
    assert MAGIC == b"SQSV"
