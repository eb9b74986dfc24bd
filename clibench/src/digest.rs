//! A fast 64-bit content digest (FNV-1a over little-endian words). It
//! detects changed bytes; it is not a cryptographic hash. Feeding the same
//! slices in the same order always gives the same digest.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
            self.0 = (self.0 ^ w).wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self.0 = (self.0 ^ bytes.len() as u64).wrapping_mul(PRIME);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
pub fn of(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn any_changed_byte_changes_the_digest() {
        let a = b"0,2,main,2:1,0,28,0,\n1,64,0,0,,\n".to_vec();
        for i in 0..a.len() {
            let mut b = a.clone();
            b[i] ^= 1;
            assert_ne!(super::of(&a), super::of(&b), "byte {i}");
        }
        assert_ne!(super::of(&a), super::of(&a[..a.len() - 1]));
    }
}
