//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8, implemented from scratch.
//!
//! Used to checksum journal entries, the pager header and posting-block
//! entries so that torn writes and bit rot are detected during crash
//! recovery and lookups. Posting-block decodes checksum every probed
//! block, so the hot loop processes eight bytes per step against eight
//! compile-time tables instead of one byte against one.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k]` advances a byte `k` positions
/// further through the register.
const TABLES: [[u32; 256]; 8] = build_tables();

/// `TABLES[k][i]` is byte `i` shifted through the register one bit at a
/// time, `8 (k + 1)` bits. That equals the classic recurrence
/// `(prev >> 8) ^ TABLES[0][prev & 0xff]`, because the bits above the low
/// byte only move down during a byte's eight steps.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let (mut i, mut byte) = (0, 0u32);
    while i < 256 {
        let (mut crc, mut bit) = (byte, 0);
        while bit < 64 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
            if bit % 8 == 0 {
                tables[bit / 8 - 1][i] = crc;
            }
        }
        i += 1;
        byte += 1;
    }
    tables
}

/// One table lookup. The `& 0xff` mask keeps the index below 256 by
/// construction, so the lookup is total even without the bound encoded in
/// the type.
#[inline(always)]
fn tab(k: usize, i: u32) -> u32 {
    TABLES
        .get(k)
        .and_then(|t| t.get(usize::try_from(i & 0xff).unwrap_or(0)))
        .copied()
        .unwrap_or(0)
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Streaming update (state is the raw register, start from `0xffff_ffff`).
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c.get(..4).and_then(|s| s.try_into().ok()).unwrap_or([0; 4]))
            ^ state;
        let hi = u32::from_le_bytes(c.get(4..).and_then(|s| s.try_into().ok()).unwrap_or([0; 4]));
        state = tab(7, lo)
            ^ tab(6, lo >> 8)
            ^ tab(5, lo >> 16)
            ^ tab(4, lo >> 24)
            ^ tab(3, hi)
            ^ tab(2, hi >> 8)
            ^ tab(1, hi >> 16)
            ^ tab(0, hi >> 24);
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ tab(0, state ^ u32::from(b));
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 4096];
        data[100] = 7;
        let base = crc32(&data);
        for bit in [0usize, 1, 4095 * 8 + 7, 2048 * 8] {
            let mut corrupted = data.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupted), base, "flip at bit {bit} undetected");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oneshot = crc32(&data);
        let mut state = 0xffff_ffff;
        for chunk in data.chunks(117) {
            state = update(state, chunk);
        }
        assert_eq!(state ^ 0xffff_ffff, oneshot);
    }
}
