//! Seeded input generation: payload sizes, destination rotation and
//! which messages carry the lagging `Q.LATE` leaf all come from one
//! SplitMix64 stream, so a seed fixes every input the program receives.

/// SplitMix64: tiny, dependency-free, and good enough to spread sizes.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Smallest and largest payload, in bytes; sizes are log-uniform between.
pub const MIN_PAYLOAD: usize = 16;
pub const MAX_PAYLOAD: usize = 4096;

/// One generated conditional message.
pub struct MsgSpec {
    pub payload: Vec<u8>,
    /// Offset into the workload's destination pools.
    pub rotation: usize,
    /// Carries the extra lagging leaf, so it must fail.
    pub late: bool,
}

pub struct Generator {
    rng: SplitMix64,
    /// One message in `late_one_in` gets the lagging leaf (0 = none).
    late_one_in: u64,
}

impl Generator {
    pub fn new(seed: u64, late_one_in: u64) -> Generator {
        Generator {
            rng: SplitMix64::new(seed),
            late_one_in,
        }
    }

    pub fn next_msg(&mut self) -> MsgSpec {
        let span = (MAX_PAYLOAD as f64 / MIN_PAYLOAD as f64).ln();
        let len = (MIN_PAYLOAD as f64 * (span * self.rng.unit()).exp()) as usize;
        let payload = make_payload(len.clamp(MIN_PAYLOAD, MAX_PAYLOAD));
        let rotation = self.rng.below(1 << 20) as usize;
        let late = self.late_one_in > 0 && self.rng.below(self.late_one_in) == 0;
        MsgSpec {
            payload,
            rotation,
            late,
        }
    }
}

fn fill_byte(len: usize) -> u8 {
    b'a' + (len % 26) as u8
}

/// A self-describing payload: its length as a 4-byte little-endian
/// header, then a fill byte derived from that length. The receiver checks
/// both, so truncation or corruption anywhere on the path is caught.
pub fn make_payload(len: usize) -> Vec<u8> {
    let mut p = vec![fill_byte(len); len];
    p[..4].copy_from_slice(&(len as u32).to_le_bytes());
    p
}

pub fn payload_ok(p: &[u8]) -> bool {
    if p.len() < 4 {
        return false;
    }
    let header = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
    header == p.len() && p[4..].iter().all(|&b| b == fill_byte(p.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut a = Generator::new(7, 4);
        let mut b = Generator::new(7, 4);
        for _ in 0..100 {
            let (x, y) = (a.next_msg(), b.next_msg());
            assert_eq!(x.payload, y.payload);
            assert_eq!((x.rotation, x.late), (y.rotation, y.late));
        }
    }

    #[test]
    fn payloads_spread_and_verify() {
        let mut g = Generator::new(1, 4);
        let msgs: Vec<MsgSpec> = (0..4000).map(|_| g.next_msg()).collect();
        assert!(msgs.iter().all(|m| payload_ok(&m.payload)));
        assert!(msgs.iter().any(|m| m.payload.len() < 64));
        assert!(msgs.iter().any(|m| m.payload.len() > 2048));
        let late = msgs.iter().filter(|m| m.late).count();
        assert!((800..1200).contains(&late), "{late}");
        let mut bad = make_payload(100);
        bad[50] ^= 1;
        assert!(!payload_ok(&bad));
    }
}
