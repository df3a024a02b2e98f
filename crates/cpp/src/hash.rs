//! Content hashing for the incremental pipeline.
//!
//! Everything the session layer memoizes is keyed by 64-bit FNV-1a
//! content hashes: file texts, define sets, include closures, usage
//! fingerprints. FNV is std-only, deterministic across platforms and
//! processes (no random seed), and fast enough that hashing an entire
//! virtual file tree is negligible next to one parse.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// # Example
///
/// ```
/// use yalla_cpp::hash::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_str("kernel.cpp");
/// h.write_u64(7);
/// assert_eq!(h.finish(), {
///     let mut h2 = Fnv64::new();
///     h2.write_str("kernel.cpp");
///     h2.write_u64(7);
///     h2.finish()
/// });
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a string, terminated so `"ab" + "c"` and `"a" + "bc"`
    /// produce different hashes.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Feeds a 64-bit value (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes one byte slice.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Hashes one string.
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Scrambles a hash (the splitmix64 finalizer) so that wrapping sums of
/// scrambled member hashes digest a set independently of its order.
pub fn mix(v: u64) -> u64 {
    let v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    v ^ (v >> 31)
}

/// Hashes a define set (order-sensitive, like a compiler command line).
pub fn hash_defines(defines: &[(String, String)]) -> u64 {
    let mut h = Fnv64::new();
    for (k, v) in defines {
        h.write_str(k);
        h.write_str(v);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(hash_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b""), FNV_OFFSET);
    }

    #[test]
    fn str_framing_prevents_concatenation_collisions() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn defines_are_order_and_value_sensitive() {
        let d1 = vec![("A".to_string(), "1".to_string())];
        let d2 = vec![("A".to_string(), "2".to_string())];
        let d3 = vec![
            ("A".to_string(), "1".to_string()),
            ("B".to_string(), "1".to_string()),
        ];
        assert_ne!(hash_defines(&d1), hash_defines(&d2));
        assert_ne!(hash_defines(&d1), hash_defines(&d3));
        assert_eq!(hash_defines(&d1), hash_defines(&d1.clone()));
    }
}
