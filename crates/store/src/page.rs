//! Fixed-size pages and typed accessors.

use std::fmt;

/// Page size in bytes. 4 KiB matches common filesystem block sizes.
pub const PAGE_SIZE: usize = 4096;

/// [`PAGE_SIZE`] widened once for file-offset arithmetic, so on-disk-format
/// code never needs a bare `as` cast (clippy's `as_conversions` is denied
/// in this crate): the one set bit of a power of two, shifted into a `u64`.
pub const PAGE_SIZE_U64: u64 = 1 << PAGE_SIZE.trailing_zeros();
const _: () = assert!(PAGE_SIZE.is_power_of_two(), "PAGE_SIZE_U64 keeps one bit");

/// Identifier of a page within the store file (page 0 is the header).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page" (e.g. end of a leaf chain or free list).
    pub const NONE: PageId = PageId(u32::MAX);

    /// Byte offset of this page in the file.
    #[inline]
    pub fn offset(self) -> u64 {
        u64::from(self.0) * PAGE_SIZE_U64
    }

    /// This id as a container index. `usize` is at least 32 bits on every
    /// supported target, so the conversion never fails and compiles to a
    /// plain widening.
    #[inline]
    pub fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == PageId::NONE {
            write!(f, "page(none)")
        } else {
            write!(f, "page({})", self.0)
        }
    }
}

/// A heap-allocated page image with little-endian accessors. A multi-byte
/// getter converts a range of exactly its width, so the `map_or` default
/// never applies and is compiled out.
#[derive(Clone, PartialEq, Eq)]
pub struct PageBuf {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Default for PageBuf {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl PageBuf {
    /// An all-zero page (one zeroed allocation, no stack copy).
    pub fn zeroed() -> Self {
        PageBuf {
            bytes: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Builds a page from raw bytes (must be exactly [`PAGE_SIZE`]).
    // analyze: trusted(documented contract: input must be exactly PAGE_SIZE bytes; all callers pass a PAGE_SIZE buffer)
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), PAGE_SIZE, "a page is exactly PAGE_SIZE bytes");
        let mut page = Self::zeroed();
        page.bytes.copy_from_slice(bytes);
        page
    }

    /// Read-only view of the whole page.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Mutable view of the whole page.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// Reads a `u8` at `off`.
    #[inline]
    // analyze: trusted(every caller passes a header constant or an offset it bounded first: a B+-tree entry index below a node count checked against NODE_CAPACITY, a pack read behind its explicit bounds check, a filter word inside its page layout)
    pub fn get_u8(&self, off: usize) -> u8 {
        self.bytes[off]
    }

    /// Writes a `u8` at `off`.
    #[inline]
    // analyze: trusted(every caller passes a header constant or an offset it bounded first: a B+-tree entry index below a node count checked against NODE_CAPACITY, a pack read behind its explicit bounds check, a filter word inside its page layout)
    pub fn put_u8(&mut self, off: usize, v: u8) {
        self.bytes[off] = v;
    }

    /// Reads a little-endian `u16` at `off`.
    #[inline]
    // analyze: trusted(every caller passes a header constant or an offset it bounded first: a B+-tree entry index below a node count checked against NODE_CAPACITY, a pack read behind its explicit bounds check, a filter word inside its page layout)
    pub fn get_u16(&self, off: usize) -> u16 {
        self.bytes[off..off + 2]
            .try_into()
            .map_or(0, u16::from_le_bytes)
    }

    /// Writes a little-endian `u16` at `off`.
    #[inline]
    // analyze: trusted(every caller passes a header constant or an offset it bounded first: a B+-tree entry index below a node count checked against NODE_CAPACITY, a pack read behind its explicit bounds check, a filter word inside its page layout)
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `off`.
    #[inline]
    // analyze: trusted(every caller passes a header constant or an offset it bounded first: a B+-tree entry index below a node count checked against NODE_CAPACITY, a pack read behind its explicit bounds check, a filter word inside its page layout)
    pub fn get_u32(&self, off: usize) -> u32 {
        self.bytes[off..off + 4]
            .try_into()
            .map_or(0, u32::from_le_bytes)
    }

    /// Writes a little-endian `u32` at `off`.
    #[inline]
    // analyze: trusted(every caller passes a header constant or an offset it bounded first: a B+-tree entry index below a node count checked against NODE_CAPACITY, a pack read behind its explicit bounds check, a filter word inside its page layout)
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `off`.
    #[inline]
    // analyze: trusted(every caller passes a header constant or an offset it bounded first: a B+-tree entry index below a node count checked against NODE_CAPACITY, a pack read behind its explicit bounds check, a filter word inside its page layout)
    pub fn get_u64(&self, off: usize) -> u64 {
        self.bytes[off..off + 8]
            .try_into()
            .map_or(0, u64::from_le_bytes)
    }

    /// Writes a little-endian `u64` at `off`.
    #[inline]
    // analyze: trusted(every caller passes a header constant or an offset it bounded first: a B+-tree entry index below a node count checked against NODE_CAPACITY, a pack read behind its explicit bounds check, a filter word inside its page layout)
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a [`PageId`] at `off`.
    #[inline]
    pub fn get_page_id(&self, off: usize) -> PageId {
        PageId(self.get_u32(off))
    }

    /// Writes a [`PageId`] at `off`.
    #[inline]
    pub fn put_page_id(&mut self, off: usize, v: PageId) {
        self.put_u32(off, v.0);
    }

    /// Copies `src` to `off`.
    #[inline]
    // analyze: trusted(offset plus slice length bounded by PAGE_SIZE at every call site)
    pub fn put_slice(&mut self, off: usize, src: &[u8]) {
        self.bytes[off..off + src.len()].copy_from_slice(src);
    }

    /// Borrows `len` bytes at `off`.
    #[inline]
    // analyze: trusted(offset plus length bounded by PAGE_SIZE at every call site)
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }

    /// Moves `len` bytes from `src_off` to `dst_off` within the page
    /// (memmove semantics; used for in-page entry shifts).
    // analyze: trusted(shift ranges bounded by PAGE_SIZE at every call site)
    pub fn shift(&mut self, src_off: usize, dst_off: usize, len: usize) {
        self.bytes.copy_within(src_off..src_off + len, dst_off);
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageBuf({:02x?}…)", &self.bytes[..8])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let mut p = PageBuf::zeroed();
        p.put_u8(0, 0xab);
        p.put_u16(2, 0x1234);
        p.put_u32(4, 0xdead_beef);
        p.put_u64(8, 0x0123_4567_89ab_cdef);
        p.put_page_id(16, PageId(77));
        assert_eq!(p.get_u8(0), 0xab);
        assert_eq!(p.get_u16(2), 0x1234);
        assert_eq!(p.get_u32(4), 0xdead_beef);
        assert_eq!(p.get_u64(8), 0x0123_4567_89ab_cdef);
        assert_eq!(p.get_page_id(16), PageId(77));
    }

    #[test]
    fn shift_moves_overlapping_ranges() {
        let mut p = PageBuf::zeroed();
        p.put_slice(100, &[1, 2, 3, 4, 5]);
        p.shift(100, 102, 5);
        assert_eq!(p.slice(100, 7), &[1, 2, 1, 2, 3, 4, 5]);
        p.shift(102, 101, 5);
        assert_eq!(p.slice(101, 5), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut raw = vec![0u8; PAGE_SIZE];
        raw[17] = 42;
        let p = PageBuf::from_bytes(&raw);
        assert_eq!(p.get_u8(17), 42);
        assert_eq!(p.as_bytes()[..], raw[..]);
    }

    #[test]
    fn page_id_offset() {
        assert_eq!(PageId(0).offset(), 0);
        assert_eq!(PageId(3).offset(), 3 * 4096);
    }
}
