//! Seeded workload inputs. Every key the program sees is drawn here,
//! before any timing starts, from `ZipfKeys` streams keyed by the
//! `--seed` argument: the same seed gives byte-identical inputs.

use ac_randkit::{mix64, SplitMix64};
use ac_sim::ZipfKeys;

/// Shape of one workload's key streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamShape {
    /// Size of the key space.
    pub keys: u64,
    /// Zipf exponent.
    pub zipf_s: f64,
    /// Number of generator streams (one per generator thread).
    pub streams: usize,
    /// Events pre-drawn per generator stream.
    pub events_per_stream: usize,
    /// Keys pre-drawn for point reads.
    pub read_keys: usize,
}

/// The pre-drawn inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub shape: StreamShape,
    /// One key per event, one vector per generator thread.
    pub streams: Vec<Vec<u64>>,
    /// Keys for point reads, from the same distribution.
    pub read_keys: Vec<u64>,
}

/// Stream tags keep generator and read streams independent of each
/// other under one seed.
const READ_TAG: u64 = 0x5EAD_0000_0000_0001;
const GEN_TAG: u64 = 0x6E17_0000_0000_0000;

impl Inputs {
    /// Draws every stream of `shape` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not a valid Zipf workload (a bug in the
    /// benchmark's fixed shapes).
    #[must_use]
    pub fn draw(shape: StreamShape, seed: u64) -> Inputs {
        let zipf = ZipfKeys::new(shape.keys, shape.zipf_s, mix64(seed)).expect("valid zipf shape");
        let draw = |tag: u64, len: usize| -> Vec<u64> {
            let mut rng = SplitMix64::new(mix64(seed ^ tag));
            (0..len).map(|_| zipf.sample_key(&mut rng)).collect()
        };
        let streams = (0..shape.streams)
            .map(|g| draw(GEN_TAG + g as u64, shape.events_per_stream))
            .collect();
        Inputs {
            shape,
            streams,
            read_keys: draw(READ_TAG, shape.read_keys),
        }
    }

    /// Distinct keys across all generator streams.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        let mut all: Vec<u64> = self.streams.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }

    /// An order-sensitive digest of every drawn key (for provenance).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.streams
            .iter()
            .chain(std::iter::once(&self.read_keys))
            .flatten()
            .fold(0x1234_5678_9ABC_DEF0, |h, &k| mix64(h ^ k))
    }
}

/// Turns a slice of per-event keys into `(key, delta)` pairs the way a
/// writer coalesces them (adjacent repeats fold into one pair).
#[must_use]
pub fn coalesce(keys: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(keys.len());
    for &k in keys {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 += 1,
            _ => out.push((k, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: StreamShape = StreamShape {
        keys: 10_000,
        zipf_s: 1.1,
        streams: 2,
        events_per_stream: 5_000,
        read_keys: 500,
    };

    fn bytes(inputs: &Inputs) -> Vec<u8> {
        inputs
            .streams
            .iter()
            .chain(std::iter::once(&inputs.read_keys))
            .flatten()
            .flat_map(|k| k.to_le_bytes())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let a = Inputs::draw(SHAPE, 7);
        let b = Inputs::draw(SHAPE, 7);
        assert_eq!(bytes(&a), bytes(&b));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = Inputs::draw(SHAPE, 7);
        let b = Inputs::draw(SHAPE, 8);
        assert_ne!(bytes(&a), bytes(&b));
        assert_ne!(a.digest(), b.digest());
        // The generator streams of one run differ from each other too.
        assert_ne!(a.streams[0], a.streams[1]);
        assert_ne!(a.streams[0][..500], a.read_keys[..]);
    }

    #[test]
    fn streams_are_skewed_and_sized() {
        let a = Inputs::draw(SHAPE, 1);
        assert_eq!(a.streams.len(), 2);
        assert!(a.streams.iter().all(|s| s.len() == 5_000));
        assert_eq!(a.read_keys.len(), 500);
        // Zipf(1.1) concentrates mass: far fewer distinct keys than draws.
        assert!(a.distinct_keys() < 10_000 / 2);
    }

    #[test]
    fn coalesce_folds_adjacent_repeats_only() {
        assert_eq!(
            coalesce(&[1, 1, 2, 1, 3, 3, 3]),
            vec![(1, 2), (2, 1), (1, 1), (3, 3)]
        );
        assert!(coalesce(&[]).is_empty());
    }
}
