//! Seeded inputs. Everything the program under test sees is made here from
//! `--seed`: pixel contents, payload bytes, the Zipf request stream and the
//! open-loop arrival schedule. The same seed gives the same inputs.

use bf_fpga::Payload;
use bf_simkit::{SimRng, ZipfSampler};
use bf_workloads::sobel;

/// Stream keys, one per kind of input, so drawing more of one kind never
/// shifts another.
const STREAM_PIXELS: u64 = 1;
const STREAM_BYTES: u64 = 2;
const STREAM_ZIPF: u64 = 3;
const STREAM_ARRIVALS: u64 = 4;

/// Popularity exponent of every Zipf stream (the repo's cache and
/// federation benches use 1.1 to 1.2; the head is a few hot items).
pub const ZIPF_EXPONENT: f64 = 1.2;

fn stream(seed: u64, key: u64) -> SimRng {
    SimRng::seed_from_u64(seed).split(key)
}

fn draw_u64(rng: &mut SimRng) -> u64 {
    ((rng.index(1 << 32) as u64) << 32) | rng.index(1 << 32) as u64
}

/// splitmix64: fills megabytes from one seeded draw far faster than one
/// `SimRng` call per byte would.
struct Fill(u64);

impl Fill {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `count` distinct payloads of `len` random bytes.
pub fn blobs(seed: u64, len: usize, count: usize) -> Vec<Payload> {
    let mut rng = stream(seed, STREAM_BYTES);
    (0..count)
        .map(|_| {
            let mut fill = Fill(draw_u64(&mut rng));
            let mut bytes = Vec::with_capacity(len + 8);
            while bytes.len() < len {
                bytes.extend_from_slice(&fill.next().to_le_bytes());
            }
            bytes.truncate(len);
            Payload::from(bytes)
        })
        .collect()
}

/// One Sobel input with the output the host reference gives for it.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Packed RGBA pixels, ready to write.
    pub input: Payload,
    /// Packed `sobel::reference` output.
    pub expected: Vec<u8>,
}

/// A grey ramp with seeded noise: edges of every strength, so a kernel
/// that returned a constant or the input would not pass.
pub fn pixels(rng: &mut SimRng, width: u32, height: u32) -> Vec<u32> {
    let mut fill = Fill(draw_u64(rng));
    let mut out = Vec::with_capacity((width * height) as usize);
    for y in 0..height {
        for x in 0..width {
            let ramp = (x * 255 / width + y * 255 / height) / 2;
            let noise = (fill.next() % 49) as u32;
            let l = (ramp + noise).saturating_sub(24).min(255);
            out.push(0xff00_0000 | (l << 16) | (l << 8) | l);
        }
    }
    out
}

/// `count` distinct frames of `width × height`.
pub fn frames(seed: u64, width: u32, height: u32, count: usize) -> Vec<Frame> {
    let mut rng = stream(seed, STREAM_PIXELS);
    (0..count)
        .map(|_| {
            let px = pixels(&mut rng, width, height);
            Frame {
                input: Payload::from(sobel::pack_pixels(&px)),
                expected: sobel::pack_pixels(&sobel::reference(&px, width, height)),
            }
        })
        .collect()
}

/// An endless seeded Zipf stream over `n` ranks.
#[derive(Debug)]
pub struct ZipfStream {
    rng: SimRng,
    zipf: ZipfSampler,
}

impl ZipfStream {
    /// The stream for `seed`; `lane` separates concurrent users of one seed.
    pub fn new(seed: u64, lane: u64, n: usize) -> ZipfStream {
        ZipfStream {
            rng: stream(seed, STREAM_ZIPF).split(lane),
            zipf: ZipfSampler::new(n, ZIPF_EXPONENT),
        }
    }

    /// The next rank, most popular first.
    pub fn next_rank(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

/// Due times in seconds from the start, exponential gaps at `rate` per
/// second, covering at least `horizon_s`.
pub fn arrival_offsets(seed: u64, rate: f64, horizon_s: f64) -> Vec<f64> {
    let mut rng = stream(seed, STREAM_ARRIVALS);
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate * horizon_s * 1.2) as usize + 16);
    while at < horizon_s {
        at += rng.exponential(rate);
        out.push(at);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pixels_and_bytes() {
        let a = frames(7, 16, 12, 2);
        let b = frames(7, 16, 12, 2);
        let c = frames(8, 16, 12, 2);
        assert_eq!(a[1].input, b[1].input);
        assert_eq!(a[1].expected, b[1].expected);
        assert_ne!(a[0].input, a[1].input);
        assert_ne!(a[0].input, c[0].input);
        assert_eq!(blobs(3, 1000, 2), blobs(3, 1000, 2));
        assert_ne!(blobs(3, 1000, 1), blobs(4, 1000, 1));
        assert_eq!(blobs(3, 1001, 1)[0].len(), 1001);
    }

    #[test]
    fn frames_have_edges_of_many_strengths() {
        let f = &frames(1, 64, 64, 1)[0];
        let mut seen = std::collections::BTreeSet::new();
        for px in f.expected.chunks_exact(4) {
            seen.insert(px[0]);
        }
        assert!(seen.len() > 20, "only {} gradient levels", seen.len());
    }

    #[test]
    fn same_seed_same_zipf_stream() {
        let draw = |seed, lane| {
            let mut z = ZipfStream::new(seed, lane, 256);
            (0..500).map(|_| z.next_rank()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11, 0), draw(11, 0));
        assert_ne!(draw(11, 0), draw(12, 0));
        assert_ne!(draw(11, 0), draw(11, 1));
        let head = draw(11, 0).iter().filter(|&&r| r < 8).count();
        assert!(head > 250, "zipf head too light: {head}/500");
    }

    #[test]
    fn same_seed_same_arrival_schedule() {
        let a = arrival_offsets(5, 500.0, 2.0);
        assert_eq!(a, arrival_offsets(5, 500.0, 2.0));
        assert_ne!(a, arrival_offsets(6, 500.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.last().is_some_and(|&t| t >= 2.0));
        // About rate × horizon arrivals.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
    }
}
