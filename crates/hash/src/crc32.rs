//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the integrity
//! footer shared by every on-disk and on-wire format in this workspace.
//!
//! Six formats close with this checksum, through the two envelopes of
//! [`crate::envelope`], so truncation and bit-rot are *detected* instead
//! of silently decoding garbage: the sketch wire format (`SCDSKT02`), the
//! binary trace format (`SCDTRC02`), the archive dump (`SCDARCH1`),
//! detector checkpoints (`SCDCKPT2`), the fan-in frames (`SCDN`) and the
//! query protocol (`SCDQ`); the canonical report digests the distributed
//! plane compares carry it too. The checksum
//! lives in this crate because it is the one crate every other crate
//! already depends on — and because every byte any of those formats moves
//! passes through [`Crc32::update`], so this is the one place to make them
//! all fast.
//!
//! This is the same CRC as zlib/PNG/Ethernet; `crc32(b"123456789")` is the
//! classic check value `0xCBF43926`.
//!
//! # Kernels and dispatch
//!
//! One kernel family, two members, one answer:
//!
//! * **Table kernel** (portable, the [`Variant::Scalar`] path): slice-by-16
//!   — sixteen 256-entry tables built at compile time let one step retire
//!   16 input bytes with 16 independent lookups instead of 16 dependent
//!   ones.
//! * **Carry-less-multiply kernel** (x86_64 with `pclmulqdq` + `sse4.1`,
//!   in [`crate::simd`] beside the AVX2 gathers): four 128-bit lanes
//!   folded 64 bytes a step, reduced to 128 bits, then to 32 by Barrett
//!   reduction. Runs when the process variant is [`Variant::Avx2`] and the
//!   input holds at least [`CLMUL_MIN_LEN`] bytes; the table kernel
//!   finishes the sub-16-byte tail. `SCD_SIMD=scalar` forces the table
//!   kernel, like every other dispatched kernel.
//!
//! A CRC is a remainder in GF(2)\[x\]: there is exactly one right value
//! per input, so kernel identity holds by definition, not by tolerance —
//! any kernel that is not bit-identical to the bitwise shift register is
//! simply wrong, and `tests/crc32_identity.rs` forces both kernels against
//! that reference at every length and alignment around the fold
//! boundaries. The state is the raw (pre-final-XOR) register, so any
//! split of the input across [`Crc32::update`] calls — and across kernels
//! — composes.

use crate::simd::{self, Variant};

/// Shortest input the carry-less-multiply kernel is dispatched for: below
/// two 64-byte fold blocks its set-up and reduction cost more than the
/// table kernel's whole pass.
pub const CLMUL_MIN_LEN: usize = 128;

/// Slice-by-16 lookup tables, built at compile time. `TABLES[0]` is the
/// classic one-byte table; `TABLES[k][b]` is the CRC register after byte
/// `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// The table kernel: advances the raw register `state` over `data`.
fn update_table(mut state: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let block: &[u8; 16] = block.try_into().expect("chunks_exact(16) yields 16 bytes");
        // The register only reaches the first four bytes; the other
        // twelve are looked up on their own, so all 16 loads are
        // independent of each other.
        let mut next = 0;
        for (i, &byte) in block.iter().enumerate() {
            let reg = if i < 4 { (state >> (8 * i)) as u8 } else { 0 };
            next ^= TABLES[15 - i][(byte ^ reg) as usize];
        }
        state = next;
    }
    for &byte in blocks.remainder() {
        state = TABLES[0][((state ^ byte as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Computes the CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

/// Incremental CRC-32 state, for writers that stream bytes out.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds more bytes into the checksum, with the kernel the process
    /// dispatches to ([`simd::active`]).
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(simd::active(), data);
    }

    /// [`update`](Self::update) with an explicit kernel choice — the hook
    /// the identity tests use to force both kernels in one process.
    /// [`Variant::Avx2`] silently falls back to the table kernel on hosts
    /// without carry-less multiply and on inputs shorter than
    /// [`CLMUL_MIN_LEN`].
    pub fn update_with(&mut self, variant: Variant, data: &[u8]) {
        let mut rest = data;
        if variant == Variant::Avx2 && data.len() >= CLMUL_MIN_LEN {
            let (lanes, tail) = data.split_at(data.len() & !15);
            if let Some(state) = simd::crc32_fold(self.state, lanes) {
                self.state = state;
                rest = tail;
            }
        }
        self.state = update_table(self.state, rest);
    }

    /// The checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"sketch-based change detection";
        let mut inc = Crc32::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.finalize(), crc32(data));
    }

    #[test]
    fn detects_any_single_byte_flip() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for pos in 0..data.len() {
            let mut corrupt = data.clone();
            corrupt[pos] ^= 0x01;
            assert_ne!(crc32(&corrupt), clean, "flip at {pos} undetected");
        }
    }
}
