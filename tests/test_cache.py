"""Sieve cache: round trips, corruption recovery, never a wrong answer."""

import struct

from sqadd.cache import (
    MAGIC,
    cache_path,
    load_sieve,
    save_sieve,
    sieve_with_cache,
)
from sqadd.squares import exceptional_set, expressibility_sieve


def test_round_trip_identical_effect(tmp_path):
    fresh, first = sieve_with_cache(4, 2000, tmp_path)
    assert not first.loaded_from_disk
    loaded, second = sieve_with_cache(4, 2000, tmp_path)
    assert second.loaded_from_disk
    assert loaded == fresh
    assert (
        exceptional_set(4, 2000, loaded).members
        == exceptional_set(4, 2000, fresh).members
    )


def test_config_level_roundtrip(tmp_path):
    _, built = sieve_with_cache(5, 800, tmp_path)
    _, reloaded = sieve_with_cache(5, 800, tmp_path)
    assert not built.loaded_from_disk
    assert reloaded.loaded_from_disk
    assert built.levels == reloaded.levels
    assert built.checksum == reloaded.checksum
    # without a cache directory the description matches but nothing is saved
    _, memory_only = sieve_with_cache(5, 800, None)
    assert memory_only.levels == built.levels
    assert memory_only.checksum == built.checksum


def test_truncated_file_rebuilds(tmp_path, capsys):
    sieve_with_cache(4, 500, tmp_path)
    path = cache_path(tmp_path, 4, 500)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 3])
    levels, cached = sieve_with_cache(4, 500, tmp_path)
    assert not cached.loaded_from_disk
    assert levels == expressibility_sieve(4, 500)
    assert "rebuilding" in capsys.readouterr().err


def test_corrupt_payload_rebuilds(tmp_path, capsys):
    sieve_with_cache(3, 500, tmp_path)
    path = cache_path(tmp_path, 3, 500)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    levels, cached = sieve_with_cache(3, 500, tmp_path)
    assert not cached.loaded_from_disk
    assert levels == expressibility_sieve(3, 500)
    assert "checksum" in capsys.readouterr().err


def test_version_bump_rebuilds(tmp_path):
    save_sieve(cache_path(tmp_path, 3, 100), 3, 100, expressibility_sieve(3, 100))
    path = cache_path(tmp_path, 3, 100)
    blob = bytearray(path.read_bytes())
    # header: magic, version u32, k u32, N u64, checksum
    struct.pack_into(">I", blob, 4, 999)
    path.write_bytes(bytes(blob))
    assert load_sieve(path, 3, 100) is None
    levels, cached = sieve_with_cache(3, 100, tmp_path)
    assert not cached.loaded_from_disk
    assert levels == expressibility_sieve(3, 100)


def test_wrong_parameters_ignored(tmp_path):
    save_sieve(cache_path(tmp_path, 3, 100), 3, 100, expressibility_sieve(3, 100))
    assert load_sieve(cache_path(tmp_path, 3, 100), 4, 100) is None
    assert load_sieve(cache_path(tmp_path, 3, 100), 3, 200) is None


def test_magic_checked(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + bytes(100))
    assert load_sieve(path, 3, 100) is None
    assert MAGIC == b"SQSV"
