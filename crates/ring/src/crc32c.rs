//! CRC32C (Castagnoli, polynomial `0x1EDC6F41`, reflected `0x82F63B78`) —
//! the checksum guarding every journal frame, every kernel checkpoint and
//! delta link, and the signed publish lane's [`Event::signature`].
//!
//! The journal's durability story (docs/DURABILITY.md) needs a checksum
//! that has good burst-error detection and matches a widely deployed
//! standard, so on-disk segments remain checkable by external tooling.
//! CRC32C is what iSCSI, ext4 and Btrfs settled on for the same job.  It
//! also sits on the leader's syscall path: the leader appends (and so
//! checksums) every captured event's frame before it publishes the event,
//! so its cost is paid once per syscall.
//!
//! [`extend`] picks one of two implementations at run time:
//!
//! * **SSE4.2** (`x86_64` hosts that report the feature): the `crc32`
//!   instruction, 8 bytes per `_mm_crc32_u64` plus `_mm_crc32_u8` for the
//!   tail.  Calling it is the workspace's one `unsafe` operation outside
//!   tests: the function is compiled with `sse4.2` enabled, so it may only
//!   run after `is_x86_feature_detected!("sse4.2")` returned true.  The standard
//!   library caches the detection, so every call after the first costs
//!   one relaxed load.
//! * **Slice-by-8** (every other host, aarch64 included): eight 256-entry
//!   tables built by a `const fn` at compile time, consuming 8 bytes per
//!   step in safe code.
//!
//! Measured on a 2-vCPU x86-64 host over 4 KiB buffers: SSE4.2 about
//! 0.13 ns/B, slice-by-8 about 0.8 ns/B, and a byte-at-a-time table walk
//! about 3.3 ns/B.  On the same host a journal append of a 600-byte
//! payload takes about 0.7 µs with the SSE4.2 path; at the byte-at-a-time
//! rate the checksum alone took about 2.2 µs of a 3.2 µs append.
//!
//! Both produce the standard CRC32C value, pinned below against the
//! catalogue check value and cross-checked against each other and a
//! bit-at-a-time reference.  `BENCH_ring.json` tracks the measured cost on
//! the spill path (`spill_crc_append_per_sec` vs
//! `spill_nocrc_append_per_sec`, gated by `figures --check-ring`).
//!
//! [`Event::signature`]: crate::Event::signature

/// Reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC32C of `bytes`, with the standard init (`!0`) and final xor (`!0`).
///
/// Matches the value every other CRC32C implementation (iSCSI, SSE4.2
/// `crc32` instruction, the `crc32c` crates) produces for the same input.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    !extend(!0, bytes)
}

/// Streams more `bytes` into an in-progress CRC state.
///
/// The state is the *raw* (pre-final-xor) register: start from `!0`, call
/// `extend` per chunk, and finish with a final `!state`.  [`crc32c`] is the
/// one-shot composition of exactly that.
#[must_use]
#[allow(unsafe_code)]
pub fn extend(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `extend_sse42` is safe apart from its `sse4.2` target
        // feature, and the check above just confirmed the running CPU
        // supports it.
        return unsafe { extend_sse42(state, bytes) };
    }
    extend_slice8(state, bytes)
}

/// The hardware path: one `crc32` instruction per 8 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut crc = u64::from(state);
    for word in &mut words {
        crc = _mm_crc32_u64(
            crc,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    // The u64 form zero-extends its 32-bit result, so this never truncates.
    let mut crc = crc as u32;
    for &byte in words.remainder() {
        crc = _mm_crc32_u8(crc, byte);
    }
    crc
}

/// The portable path: slice-by-8 over [`TABLES`].
fn extend_slice8(state: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut words = bytes.chunks_exact(8);
    let mut crc = state;
    for word in &mut words {
        let lo = u32::from_le_bytes(word[..4].try_into().expect("4-byte half")) ^ crc;
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4-byte half"));
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[(hi & 0xFF) as usize]
            ^ t2[((hi >> 8) & 0xFF) as usize]
            ^ t1[((hi >> 16) & 0xFF) as usize]
            ^ t0[(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = t0[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time reference: the polynomial division itself, sharing no
    /// table with either implementation under test.
    fn extend_bitwise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    type Extend = fn(u32, &[u8]) -> u32;

    /// Every implementation, by name: the run-time dispatch, the portable
    /// fallback called directly (so it runs on an SSE4.2 host too), and
    /// the bitwise reference.
    fn paths() -> [(&'static str, Extend); 3] {
        [
            ("dispatched", extend),
            ("slice8", extend_slice8),
            ("bitwise", extend_bitwise),
        ]
    }

    #[test]
    fn matches_the_published_check_value() {
        // The standard CRC catalogue check value for CRC-32C("123456789").
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        for (name, path) in paths() {
            assert_eq!(!path(!0, b"123456789"), 0xE306_9283, "{name}");
        }
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let state = extend(!0, &data[..split]);
            let state = extend(state, &data[split..]);
            assert_eq!(!state, crc32c(data));
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data = vec![0xA5u8; 64];
        for (name, path) in paths() {
            let base = path(!0, &data);
            for byte in 0..data.len() {
                for bit in 0..8 {
                    let mut flipped = data.clone();
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(
                        path(!0, &flipped),
                        base,
                        "{name}: flip at {byte}:{bit} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn every_length_and_alignment_agrees_with_the_reference() {
        // Lengths 0..=300 from each of the 8 start offsets cover every
        // head/tail split of the 8-byte inner loops.
        let buffer: Vec<u8> = (0..308u32)
            .map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let bytes = &buffer[offset..offset + len];
                let want = extend_bitwise(!0, bytes);
                for (name, path) in paths() {
                    assert_eq!(path(!0, bytes), want, "{name}: offset {offset}, len {len}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn implementations_agree_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..301usize),
            offset in 0usize..8,
            state in any::<u32>(),
            split in any::<usize>(),
        ) {
            let bytes = &data[offset.min(data.len())..];
            let want = extend_bitwise(state, bytes);
            let split = split % (bytes.len() + 1);
            for (name, path) in paths() {
                prop_assert_eq!(path(state, bytes), want, "{} one-shot", name);
                let streamed = path(path(state, &bytes[..split]), &bytes[split..]);
                prop_assert_eq!(streamed, want, "{} split at {}", name, split);
            }
        }
    }
}
