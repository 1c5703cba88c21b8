//! Byte-identity goldens for every wire encoder.
//!
//! Fixed-seed inputs — a `ParallelTopK` with 13-byte keys and an
//! expansion policy, a W = 4 `SlidingTopK` after 6 rotations, and that
//! window's dirty export — are encoded through `to_wire`,
//! `export_frame`, `export_delta`, `export_dirty` and
//! `encode_checkpoint`, and each output's length and CRC-32 are pinned.
//! The digest is a bit-at-a-time CRC-32C written out here, so a change
//! to the codec or to `hk_common::crc` cannot move both sides of the
//! comparison at once. It is deliberately *not* the wire's own CRC-32
//! (IEEE): every frame record ends in the IEEE CRC of its payload, and
//! an IEEE CRC run over `payload || crc(payload)` lands on a constant
//! residue, so an IEEE digest of a frame would not see its payload
//! bytes at all. Any edit to an encoder that changes a single byte
//! fails this suite.

use heavykeeper::{ExpansionPolicy, HkConfig, ParallelTopK, SlidingTopK};
use hk_common::algorithm::TopKAlgorithm;
use hk_common::prng::XorShift64;
use hk_common::ShardCheckpoint;

/// CRC-32C (Castagnoli), one bit per step: reflected polynomial
/// `0x82F63B78`, initial and final XOR `!0`.
fn crc32c_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn assert_golden(what: &str, bytes: &[u8], len: usize, digest: u32) {
    let got = (bytes.len(), crc32c_bitwise(bytes));
    assert_eq!(
        got,
        (len, digest),
        "{what}: got (len {}, digest {:#010x})",
        got.0,
        got.1
    );
}

#[test]
fn digest_matches_catalogue() {
    assert_eq!(crc32c_bitwise(b"123456789"), 0xE306_9283);
    assert_eq!(crc32c_bitwise(b""), 0);
}

/// A 2 × 1000 sketch with 13-byte keys fed a skewed, seeded stream
/// that blocks often enough for Section III-F expansion to add a row.
fn golden_sketch() -> ParallelTopK<[u8; 13]> {
    let cfg = HkConfig::builder()
        .arrays(2)
        .width(1000)
        .k(32)
        .seed(0x5eed_0001)
        .expansion(ExpansionPolicy {
            large_counter: 20,
            blocked_threshold: 100,
            max_arrays: 3,
        })
        .build();
    let mut hk = ParallelTopK::new(cfg);
    let mut rng = XorShift64::new(11);
    for _ in 0..60_000 {
        let r = rng.next_u64_raw();
        let flow = if r.is_multiple_of(2) {
            r % 1_500
        } else {
            10_000 + r % 20_000
        };
        let mut key = [0u8; 13];
        key[..8].copy_from_slice(&flow.to_le_bytes());
        key[12] = 6;
        hk.insert(&key);
    }
    hk
}

/// Feeds one epoch of skewed traffic: stable elephants plus churning
/// mice that differ per epoch.
fn feed_epoch(win: &mut SlidingTopK<u64>, rng: &mut XorShift64, epoch: u64) {
    let mut batch = Vec::with_capacity(6_000);
    for f in 0..30u64 {
        batch.extend(std::iter::repeat_n(f, 20 + 5 * f as usize));
    }
    while batch.len() < 6_000 {
        batch.push(50_000 + epoch * 10_000 + rng.next_u64_raw() % 3_000);
    }
    win.insert_batch(&batch);
}

/// A W = 4 window after 6 rotations, exported dirty after every
/// rotation; returns the window and the dirty frame of rotation 6.
fn golden_window() -> (SlidingTopK<u64>, Vec<u8>) {
    let cfg = HkConfig::builder()
        .arrays(2)
        .width(512)
        .k(16)
        .seed(0x5eed_0002)
        .build();
    let mut win = SlidingTopK::new(cfg, 4);
    let mut rng = XorShift64::new(23);
    let mut dirty = None;
    for epoch in 0..6 {
        feed_epoch(&mut win, &mut rng, epoch);
        win.rotate();
        dirty = win.export_dirty(7, 6_000);
    }
    // The accumulating epoch is part of the full frame and checkpoint.
    feed_epoch(&mut win, &mut rng, 6);
    (
        win,
        dirty.expect("shadow primed at rotation 1 is fresh by 6"),
    )
}

#[test]
fn sketch_to_wire_is_byte_identical() {
    let hk = golden_sketch();
    assert_eq!(hk.sketch().arrays(), 3, "expansion grew a row");
    assert_golden("to_wire", &hk.to_wire(), 36_731, 0x1107_9d31);
    assert_golden(
        "encode_checkpoint (sketch)",
        &hk.encode_checkpoint(),
        36_731,
        0x1107_9d31,
    );
}

#[test]
fn window_exports_are_byte_identical() {
    let (win, dirty) = golden_window();
    assert_eq!(win.rotations(), 6);
    assert_golden(
        "export_frame",
        &win.export_frame(7, 6_000),
        50_403,
        0x346d_ec34,
    );
    let delta = win.export_delta(7, 6_000).expect("closed epoch");
    assert_golden("export_delta", &delta, 12_624, 0xb056_78a3);
    assert_golden("export_dirty", &dirty, 7_084, 0xb021_e79f);
    assert_golden(
        "encode_checkpoint (window)",
        &win.encode_checkpoint(),
        50_403,
        0x21ff_1673,
    );
}
