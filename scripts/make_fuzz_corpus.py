#!/usr/bin/env python3
"""Regenerates the checked-in fuzz seed corpus under fuzz/corpus/.

The wire-decode seeds mirror src/common/codec.h's little-endian format
(u8 tag, u32 sender, then per-kind fields; blobs are u16-length-prefixed)
so every packet kind is represented by a structurally valid encoding,
plus a few malformed shapes (truncated, unknown tag, oversized length
prefix, a MAC or key blob one byte past the 32-byte field bound) that
exercise the rejection paths. The receiver-harness seeds
are op-streams for the ByteStream interpreters in fuzz_dap_receiver.cc /
fuzz_teslapp_receiver.cc: announce/forge/reveal interleavings with time
skips, reordered/duplicated deliveries, and pool-saturation floods.

Deterministic: running it twice produces identical files.
"""

import pathlib
import struct

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fuzz" / "corpus"


def u8(v):
    return struct.pack("<B", v)


def u16(v):
    return struct.pack("<H", v)


def u32(v):
    return struct.pack("<I", v)


def u64(v):
    return struct.pack("<Q", v)


def blob(data):
    return u16(len(data)) + data


def tesla_packet(sender=7, interval=42, message=b"hello sensors",
                 mac=b"\xab" * 10, disclosed_interval=40,
                 disclosed_key=b"\xcd" * 10):
    return (u8(1) + u32(sender) + u32(interval) + blob(message) + blob(mac) +
            u32(disclosed_interval) + blob(disclosed_key))


def mac_announce(sender=3, interval=9, mac=b"\x55" * 10):
    return u8(2) + u32(sender) + u32(interval) + blob(mac)


def message_reveal(sender=3, interval=9, message=b"reading=42",
                   key=b"\x66" * 10):
    return u8(3) + u32(sender) + u32(interval) + blob(message) + blob(key)


def key_disclosure(sender=1, interval=5, key=b"\x77" * 10):
    return u8(4) + u32(sender) + u32(interval) + blob(key)


def cdm_packet(sender=2, high_interval=6):
    return (u8(5) + u32(sender) + u32(high_interval) + blob(b"\x88" * 10) +
            blob(b"\x99" * 32) + blob(b"\xaa" * 10) + blob(b"\xbb" * 10))


def bootstrap_packet(sender=1, start_interval=1, duration_us=1_000_000):
    return (u8(6) + u32(sender) + u32(start_interval) + u64(duration_us) +
            blob(b"\x11" * 10) + blob(b"\x22" * 80) + blob(b"\x33" * 32))


def crc32(data):
    # Same CRC-32 (IEEE, reflected) as src/wire/crc32.cc.
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def framed(payload):
    return payload + u32(crc32(payload))


def wots_signature(chains):
    out = u16(len(chains))
    for chain in chains:
        out += blob(chain)
    return out


WIRE_SEEDS = {
    "tesla_packet": tesla_packet(),
    "mac_announce": mac_announce(),
    "message_reveal": message_reveal(),
    "key_disclosure": key_disclosure(),
    "cdm_packet": cdm_packet(),
    "bootstrap_packet": bootstrap_packet(),
    "empty_fields": tesla_packet(message=b"", mac=b"", disclosed_key=b""),
    "framed_announce": framed(mac_announce()),
    "framed_tesla": framed(tesla_packet()),
    "wots_sig": wots_signature([b"\x01" * 32, b"\x02" * 32, b"\x03" * 32]),
    "truncated_tesla": tesla_packet()[:-3],
    "unknown_tag": u8(0xEE) + u32(1),
    "oversized_length_prefix": u8(2) + u32(1) + u32(9) + u16(0xFFFF) + b"xx",
    "empty": b"",
    "single_byte": u8(2),
    # MAC and key fields decode into 32-byte inline buffers: a 32-byte
    # blob is the longest accepted, a 33-byte one is rejected.
    "mac_announce_mac32": mac_announce(mac=b"\x55" * 32),
    "mac_announce_mac33": mac_announce(mac=b"\x55" * 33),
    "framed_announce_mac33": framed(mac_announce(mac=b"\x55" * 33)),
    "message_reveal_key32": message_reveal(key=b"\x66" * 32),
    "message_reveal_key33": message_reveal(key=b"\x66" * 33),
    "key_disclosure_key33": key_disclosure(key=b"\x77" * 33),
    "tesla_mac32_key32": tesla_packet(mac=b"\xab" * 32,
                                      disclosed_key=b"\xcd" * 32),
    "tesla_key33": tesla_packet(disclosed_key=b"\xcd" * 33),
}


def op(kind, interval, *payload):
    """One interpreter step: opcode byte, interval byte, payload bytes."""
    out = u8(kind) + u8(interval)
    for part in payload:
        out += part
    return out


def dap_seeds():
    # Stream prefix: d selector, m selector, policy selector, record-pool
    # selector (odd = tight cap), rng seed u32.
    prefix = u8(0) + u8(1) + u8(0) + u8(0) + u32(1234)
    pool_prefix = u8(1) + u8(3) + u8(0) + u8(1) + u32(1234)
    announce = op(0, 2, u8(5), b"hello")          # authentic announce, 5-byte msg
    reveal = op(2, 2, u8(0))                      # reveal slot 0
    forge_announce = op(1, 2, b"\xde\xad\xbe\xef\x00\x11\x22\x33\x44\x55")
    forge_reveal = op(3, 2, u8(4), b"fake", b"\x00" * 10)
    flip_replay = op(4, 2, u8(0), u8(3))
    skip_time = op(5, 1, u8(200))
    defer = op(6, 2, u8(5), b"later")             # hold an authentic announce
    deliver_deferred = op(7, 0)                   # release it late, twice
    return {
        "announce_reveal": prefix + announce + skip_time + reveal,
        # The authentic announce first: it moves the clock to its
        # interval, so the forged copies after it are admissible.
        "forge_flood": prefix + announce + forge_announce * 8 + skip_time +
                       reveal,
        "forged_reveal": prefix + announce + forge_reveal + reveal,
        "bitflip_replay": prefix + announce + skip_time + flip_replay,
        "mixed": prefix + announce + forge_announce * 3 + skip_time + reveal +
                 forge_reveal + flip_replay,
        # Reordering fault: a deferred announce arrives after newer traffic.
        "reordered": prefix + defer + announce + deliver_deferred +
                     skip_time + reveal,
        # Duplication fault: the deferred announce is delivered twice.
        "duplicated": prefix + defer + deliver_deferred + skip_time + reveal,
        # Pool saturation: d=2, m=4, tight cap -> shed + shrink path.
        "pool_shed": pool_prefix +
                     b"".join(op(0, i, u8(0)) * 4 for i in (2, 3)) + reveal,
        # Forged announces for intervals the sender cannot have reached
        # (16, and 4 one past the clock bound) beside an authentic round
        # in 3: they are unsafe, open no round and prune none.
        "far_future_forge": prefix + announce + far_forge(15) * 4 +
                            far_forge(3) + skip_time + reveal,
        # The same at d=2, m=4 under the tight pool cap.
        "far_future_pool": pool_prefix + announce * 3 + far_forge(15) * 6 +
                           announce + skip_time + reveal + reveal,
        "empty": b"",
    }


def far_forge(interval_selector):
    """A forged announce for interval 1 + selector, sent at the current time."""
    return op(1, interval_selector, b"\xfa" * 10)


def teslapp_seeds():
    # Prefix: record cap selector, pool selector (odd = tight cap), then ops.
    prefix = u8(2) + u8(0) + u32(99)
    pool_prefix = u8(2) + u8(1) + u32(99)
    announce = op(0, 3, u8(6), b"sensor")
    reveal = op(2, 3)
    forge_announce = op(1, 3, b"\x99" * 10)
    forge_reveal = op(3, 3, u8(4), b"fake", b"\x00" * 10)
    anchor_ok = op(4, 3, u8(1))
    anchor_mut = op(4, 3, u8(0), u8(2), u8(5))
    skip_time = op(5, 1, u8(180))
    defer = op(6, 3, u8(6), b"offset")
    deliver_deferred = op(7, 0)
    return {
        "announce_reveal": prefix + announce + skip_time + reveal,
        "record_cap_flood": prefix + forge_announce * 10 + announce + reveal,
        "anchors": prefix + anchor_ok + anchor_mut + announce + reveal,
        "forged_reveal": prefix + announce + forge_reveal + reveal,
        "reordered": prefix + defer + announce + deliver_deferred +
                     skip_time + reveal,
        "duplicated": prefix + defer + deliver_deferred + skip_time + reveal,
        "pool_shed": pool_prefix +
                     b"".join(op(0, i, u8(0)) * 2 for i in range(2, 8)) +
                     reveal,
        "empty": b"",
    }


def sha256_batch_seeds():
    # Stream layout (see fuzz_sha256_batch.cc): u8 message count (mod 17),
    # then per message u8 length + bytes; u8 chain key-size selector;
    # per-message u8 step counts; then up to 8 x (32 state + 64 block)
    # bytes for the 8-lane kernel check (short input is padded). Seeds pin
    # the interesting block-boundary lengths (55/56/64 with the 9-byte pad
    # edge) and walk batches around the 8-lane width.
    def msg(length, fill):
        return u8(length) + bytes([fill]) * length

    boundary = (u8(6) + msg(0, 0) + msg(55, 1) + msg(56, 2) + msg(64, 3) +
                msg(119, 4) + msg(120, 5) +
                u8(9) + u8(3) * 6)           # key_size 10, short walks
    lanes = (u8(9) + b"".join(msg(16 + i, 0x40 + i) for i in range(9)) +
             u8(31) + u8(1) * 9)              # key_size 32
    # Every lane of the kernel check fed from the input, none padded.
    full_lanes = (u8(2) + msg(200, 0xAA) + msg(1, 0xBB) +
                  u8(0) + u8(8) + u8(8) +
                  bytes((37 * i + 11) & 0xFF for i in range(8 * 96)))
    walk_heavy = (u8(4) + msg(10, 1) + msg(10, 2) + msg(10, 3) + msg(10, 4) +
                  u8(9) + u8(8) + u8(0) + u8(5) + u8(1))
    # Multi-block messages: full-block runs go to the SHA-NI kernel in one
    # call, so lengths of 2..3 whole blocks plus ragged tails cover it.
    multi_block = (u8(3) + msg(255, 0x61) + msg(128, 0x62) + msg(192, 0x63) +
                   u8(19) + u8(4) + u8(2) + u8(7))
    return {
        "block_boundaries": boundary,
        "nine_lanes": lanes,
        "full_lanes": full_lanes,
        "walk_heavy": walk_heavy,
        "multi_block": multi_block,
        "single_empty": u8(1) + u8(0) + u8(0) + u8(0),
        "empty": b"",
    }


def write_corpus(subdir, seeds):
    directory = CORPUS / subdir
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in sorted(seeds.items()):
        (directory / name).write_bytes(data)
    print(f"{subdir}: {len(seeds)} seed(s)")


def main():
    write_corpus("fuzz_wire_decode", WIRE_SEEDS)
    write_corpus("fuzz_dap_receiver", dap_seeds())
    write_corpus("fuzz_teslapp_receiver", teslapp_seeds())
    write_corpus("fuzz_sha256_batch", sha256_batch_seeds())


if __name__ == "__main__":
    main()
