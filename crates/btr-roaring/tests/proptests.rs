//! Randomized model tests: RoaringBitmap must behave like a `BTreeSet<u32>`
//! model and serialization must round-trip. Deterministic (seeded xorshift)
//! so runs are reproducible offline.

use btr_corrupt::rng::Xorshift;
use btr_roaring::RoaringBitmap;
use std::collections::BTreeSet;

fn vec_u32(rng: &mut Xorshift, max_len: usize, bound: u32) -> Vec<u32> {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| if bound == u32::MAX { rng.next_u32() } else { rng.gen_range(0..bound) })
        .collect()
}

#[test]
fn behaves_like_btreeset() {
    let mut rng = Xorshift::new(0x41);
    for _ in 0..200 {
        let values = vec_u32(&mut rng, 300, u32::MAX);
        let model: BTreeSet<u32> = values.iter().copied().collect();
        let bm: RoaringBitmap = values.iter().copied().collect();
        assert_eq!(bm.cardinality() as usize, model.len());
        assert_eq!(bm.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        for &v in values.iter().take(20) {
            assert!(bm.contains(v));
            assert_eq!(bm.rank(v) as usize, model.range(..v).count());
        }
    }
}

#[test]
fn from_sorted_equals_inserted() {
    let mut rng = Xorshift::new(0x42);
    for _ in 0..200 {
        let set: BTreeSet<u32> = vec_u32(&mut rng, 300, u32::MAX).into_iter().collect();
        let sorted: Vec<u32> = set.iter().copied().collect();
        let a = RoaringBitmap::from_sorted_iter(sorted.iter().copied());
        let b: RoaringBitmap = sorted.iter().copied().collect();
        assert_eq!(&a, &b);
    }
}

#[test]
fn serialize_roundtrips() {
    let mut rng = Xorshift::new(0x43);
    for case in 0..200 {
        let values = vec_u32(&mut rng, 300, u32::MAX);
        let mut bm: RoaringBitmap = values.iter().copied().collect();
        if case % 2 == 0 {
            bm.run_optimize();
        }
        let bytes = bm.serialize();
        let back = RoaringBitmap::deserialize(&bytes).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), bm.iter().collect::<Vec<_>>());
    }
}

/// The container kind one chunk of a test bitmap is built as.
#[derive(Clone, Copy)]
enum Kind {
    Array,
    Bitmap,
    Run,
}

/// A test bitmap's chunks: each one's kind and its sorted values.
type Chunks = Vec<(Kind, Vec<u32>)>;

/// Builds a bitmap with each chunk in its kind: `Run` chunks through one
/// `from_sorted_ranges` call, then every `Array` and `Bitmap` value through
/// `insert`, which keeps a chunk an Array up to 4,096 values and converts it
/// to a Bitmap past that (so their values must number at most / more than
/// 4,096). Chunks have distinct keys, so the inserts never touch a Run.
fn build(chunks: &Chunks) -> RoaringBitmap {
    let mut ranges: Vec<std::ops::Range<u32>> = Vec::new();
    for (_, values) in chunks.iter().filter(|(kind, _)| matches!(kind, Kind::Run)) {
        for &v in values {
            match ranges.last_mut() {
                Some(r) if r.end == v => r.end += 1,
                _ => ranges.push(v..v + 1),
            }
        }
    }
    let mut bm = RoaringBitmap::from_sorted_ranges(ranges);
    for (_, values) in chunks.iter().filter(|(kind, _)| !matches!(kind, Kind::Run)) {
        for &v in values {
            bm.insert(v);
        }
    }
    bm
}

/// Random values for chunk `key` shaped for `kind`.
fn chunk_values(rng: &mut Xorshift, key: u32, kind: Kind) -> Vec<u32> {
    let base = key << 16;
    let lows: BTreeSet<u32> = match kind {
        Kind::Array => {
            let n = rng.gen_range(1..=4_096);
            (0..n).map(|_| rng.gen_range(0..65_536)).collect()
        }
        Kind::Bitmap => {
            let eighths = rng.gen_range(1..=7);
            (0..65_536).filter(|_| rng.gen_range(0..8) < eighths).collect()
        }
        Kind::Run => {
            let bounds: BTreeSet<u32> =
                (0..2 * rng.gen_range(1..=6)).map(|_| rng.gen_range(0..=65_536)).collect();
            let bounds: Vec<u32> = bounds.into_iter().collect();
            bounds.chunks_exact(2).flat_map(|b| b[0]..b[1]).collect()
        }
    };
    lows.into_iter().map(|low| base | low).collect()
}

/// `a ∩ b` against the `BTreeSet` model, in both orders. An
/// intersection is canonical: an Array container at 4,096 values or fewer,
/// a Bitmap above, no empty chunk — exactly what `from_sorted_iter` builds.
fn check_pair(a: &Chunks, b: &Chunks) -> usize {
    let model = |chunks: &Chunks| -> BTreeSet<u32> {
        chunks.iter().flat_map(|(_, v)| v.iter().copied()).collect()
    };
    let (ma, mb) = (model(a), model(b));
    let (ra, rb) = (build(a), build(b));
    let inter_model = RoaringBitmap::from_sorted_iter(ma.intersection(&mb).copied());
    for (x, y) in [(&ra, &rb), (&rb, &ra)] {
        let inter = x.intersection(y);
        assert_eq!(inter.iter().collect::<Vec<_>>(), inter_model.iter().collect::<Vec<_>>());
        assert_eq!(inter.cardinality(), inter_model.cardinality());
        assert_eq!(inter, inter_model, "intersection is not canonical");
    }
    inter_model.cardinality() as usize
}

#[test]
fn intersection_model() {
    // Every container pair, with values in two chunks (keys 0 and 1).
    let mut rng = Xorshift::new(0x44);
    let kinds = [None, Some(Kind::Array), Some(Kind::Bitmap), Some(Kind::Run)];
    for _ in 0..60 {
        let side = |rng: &mut Xorshift| -> Chunks {
            (0..2u32)
                .filter_map(|key| {
                    kinds[rng.gen_range(0..4usize)].map(|k| (k, chunk_values(rng, key, k)))
                })
                .filter(|(_, v)| !v.is_empty())
                .collect()
        };
        let (a, b) = (side(&mut rng), side(&mut rng));
        check_pair(&a, &b);
    }

    // Results of exactly 0, 4,096 and 4,097 values (the Array/Bitmap
    // break-even), some of them ending in a chunk's last word.
    let evens = |key: u32| -> Vec<u32> { (0..32_768).map(|i| (key << 16) | (2 * i)).collect() };
    let odds = |key: u32| -> Vec<u32> { evens(key).iter().map(|v| v + 1).collect() };
    let span = |r: std::ops::Range<u32>| -> Vec<u32> { r.collect() };
    let (a, b, r) = (Kind::Array, Kind::Bitmap, Kind::Run);
    let top = 2 << 16;
    let cases: Vec<(Chunks, Chunks, usize)> = vec![
        (vec![(b, evens(0))], vec![(b, odds(0))], 0),
        (vec![(b, span(0..8_192))], vec![(b, evens(0))], 4_096),
        (vec![(b, span(0..8_193))], vec![(b, evens(0))], 4_097),
        (vec![(b, span(top - 8_192..top))], vec![(b, evens(1))], 4_096),
        (vec![(b, span(top - 8_194..top))], vec![(b, evens(1))], 4_097),
        (vec![(b, span(0..65_536))], vec![(b, span(0..65_536))], 65_536),
        (vec![(r, span(0..8_193))], vec![(b, evens(0))], 4_097),
        (
            vec![(r, span(0..8_192)), (r, span(65_536..73_728))],
            vec![(b, evens(0)), (b, evens(1))],
            8_192,
        ),
        (vec![(r, span(top - 8_194..top))], vec![(b, evens(1))], 4_097),
        (vec![(r, span(0..4_097))], vec![(r, span(0..65_536))], 4_097),
        (vec![(r, span(0..4_096))], vec![(r, span(0..65_536))], 4_096),
        (vec![(r, span(0..100))], vec![(r, span(100..200))], 0),
        (vec![(a, evens(0)[..4_096].to_vec())], vec![(b, span(0..65_536))], 4_096),
        (vec![(a, evens(1)[28_672..].to_vec())], vec![(r, span(65_536..top))], 4_096),
        (vec![(a, evens(0)[..100].to_vec())], vec![(a, odds(0)[..100].to_vec())], 0),
    ];
    for (a, b, expect) in &cases {
        assert_eq!(check_pair(a, b), *expect);
    }
}

#[test]
fn remove_matches_model() {
    let mut rng = Xorshift::new(0x45);
    for _ in 0..200 {
        let values = vec_u32(&mut rng, 200, 5_000);
        let removals = vec_u32(&mut rng, 100, 5_000);
        let mut model: BTreeSet<u32> = values.iter().copied().collect();
        let mut bm: RoaringBitmap = values.iter().copied().collect();
        for &r in &removals {
            assert_eq!(bm.remove(r), model.remove(&r));
        }
        assert_eq!(bm.iter().collect::<Vec<_>>(), model.into_iter().collect::<Vec<_>>());
    }
}
