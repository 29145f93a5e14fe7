//! The packed sketch blob (`SCDSKP01`) against the dense one (`SCDSKT02`).
//!
//! The packed body exists to be shorter, never to be different: whatever
//! `to_bytes_packed` writes decodes to the encoder's table **bit for
//! bit**, a table it cannot carry exactly is written dense, and it is
//! never longer than dense. A receiver that only sums blobs reads them
//! without decoding, and must see what the decoder sees. Cases come from
//! a seeded `SplitMix64`, so a failure names the case that produced it.

use scd_hash::{envelope, SplitMix64};
use scd_sketch::wire::{
    add_into, from_bytes, from_bytes_with_rows, to_bytes, to_bytes_packed, to_bytes_packed_sum,
    validate_with_rows,
};
use scd_sketch::{KarySketch, SketchConfig};
use std::sync::Arc;

const CASES: u64 = 24;
const TWO_53: f64 = 9_007_199_254_740_992.0;

fn empty(h: usize) -> KarySketch {
    KarySketch::new(SketchConfig { h, k: 64, seed: 0xFEED + h as u64 })
}

/// An integer table with roughly `fill_pct` % of its cells non-zero:
/// both signs, small and huge magnitudes, the two ends of the range.
fn integer_table(rng: &mut SplitMix64, h: usize, fill_pct: u64) -> KarySketch {
    let mut s = empty(h);
    for cell in s.table_mut() {
        if rng.next_below(100) >= fill_pct {
            continue;
        }
        let magnitude = match rng.next_below(4) {
            0 => rng.next_below(128) as f64,
            1 => rng.next_below(1 << 20) as f64,
            2 => rng.next_below(1 << 53) as f64,
            _ => TWO_53,
        };
        *cell = if rng.next_below(2) == 0 { magnitude } else { -magnitude };
        if *cell == 0.0 {
            *cell = 0.0; // a drawn zero is a plain `+0.0`, never `-0.0`
        }
    }
    s
}

fn bits(s: &KarySketch) -> Vec<u64> {
    s.table().iter().map(|c| c.to_bits()).collect()
}

fn is_packed(blob: &[u8]) -> bool {
    blob.starts_with(b"SCDSKP01")
}

#[test]
fn packed_decodes_to_the_dense_table_bit_for_bit() {
    let mut rng = SplitMix64::new(0x9AC4ED);
    for h in [1, 5, 9] {
        for case in 0..CASES {
            // Empty, sparse, the node's ~7 %, half, and completely full.
            let fill = [0, 1, 7, 50, 100][(case % 5) as usize];
            let s = integer_table(&mut rng, h, fill);
            let (packed, dense) = (to_bytes_packed(&s), to_bytes(&s));
            assert!(packed.len() <= dense.len(), "H={h} case {case}: packed is longer");
            let back = from_bytes_with_rows(&packed, s.rows()).expect("own blob decodes");
            assert_eq!(bits(&back), bits(&s), "H={h} case {case} (fill {fill} %)");
            let via_dense = from_bytes_with_rows(&dense, s.rows()).expect("dense decodes");
            assert_eq!(bits(&back), bits(&via_dense));
            if fill <= 7 {
                assert!(is_packed(&packed), "H={h} case {case}: a sparse table must pack");
            }
        }
    }
}

/// One cell the packed body cannot carry sends the whole table dense —
/// byte for byte what `to_bytes` writes.
#[test]
fn every_non_representable_cell_forces_the_dense_blob() {
    let mut rng = SplitMix64::new(0xD0E5);
    let hostile = [
        -0.0,
        0.5,
        -1.5,
        TWO_53 + 2.0,
        -(TWO_53 + 2.0),
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for h in [1, 5, 9] {
        for (case, &value) in hostile.iter().enumerate() {
            let mut s = integer_table(&mut rng, h, 7);
            assert!(is_packed(&to_bytes_packed(&s)));
            let at = rng.next_below(s.table().len() as u64) as usize;
            s.table_mut()[at] = value;
            let blob = to_bytes_packed(&s);
            assert_eq!(blob, to_bytes(&s), "H={h} case {case}: {value} must go dense");
            let back = from_bytes_with_rows(&blob, s.rows()).expect("dense decodes");
            assert_eq!(bits(&back), bits(&s), "H={h} case {case}: {value}");
        }
    }
}

/// Large cells cost nine packed bytes against eight dense ones: a full
/// table of them is not shrunk by packing, so it goes dense.
#[test]
fn a_table_packing_would_not_shrink_goes_dense() {
    let mut s = empty(5);
    s.table_mut().fill(TWO_53);
    assert_eq!(to_bytes_packed(&s), to_bytes(&s));
    s.table_mut().fill(3.0);
    assert!(is_packed(&to_bytes_packed(&s)), "small cells pack even when every cell is set");
}

/// The sum variant writes `a + b` without building it: the same bytes as
/// packing the COMBINE, with the fallback decided on the *sums*.
#[test]
fn the_packed_sum_is_the_packed_combine() {
    let mut rng = SplitMix64::new(0x5A11);
    for h in [1, 5, 9] {
        for case in 0..CASES {
            let fill = [1, 7, 50][(case % 3) as usize];
            // Magnitudes up to 2^52, so every sum is an integer within 2^53.
            let halved = |mut s: KarySketch| {
                s.table_mut().iter_mut().for_each(|c| *c = c.clamp(-TWO_53 / 2.0, TWO_53 / 2.0));
                s
            };
            let mut a = halved(integer_table(&mut rng, h, fill));
            let mut b = halved(integer_table(&mut rng, h, fill));
            // Halves that sum to an integer pack; 2^53 + 2^53 does not.
            (a.table_mut()[0], b.table_mut()[0]) = (0.5, 2.5);
            let too_big = case % 2 == 1;
            if too_big {
                (a.table_mut()[1], b.table_mut()[1]) = (TWO_53, TWO_53);
            }
            let sum = a.combine(&[(1.0, &a), (1.0, &b)]).unwrap();
            let blob = to_bytes_packed_sum(&a, &b).unwrap();
            assert_eq!(blob, to_bytes_packed(&sum), "H={h} case {case}");
            assert_eq!(is_packed(&blob), !too_big, "H={h} case {case} (fill {fill} %)");
        }
    }
    assert!(to_bytes_packed_sum(&empty(1), &empty(5)).is_err(), "families must match");
}

/// A packed blob only ever fills a table the receiver already had the
/// rows for: the header-only decoder refuses it, a foreign family is a
/// mismatch.
#[test]
fn packed_blobs_need_the_receivers_own_family() {
    let s = integer_table(&mut SplitMix64::new(1), 5, 7);
    let blob = to_bytes_packed(&s);
    assert!(is_packed(&blob));
    assert!(format!("{:?}", from_bytes(&blob).unwrap_err()).contains("BadMagic"));
    let other = Arc::clone(empty(9).rows());
    assert!(format!("{:?}", from_bytes_with_rows(&blob, &other).unwrap_err())
        .contains("FamilyMismatch"));
}

/// The receiver's two readers agree with the decoder: COMBINE straight from
/// the blobs is the COMBINE of the decoded tables, bit for bit, packed and
/// dense alike; and validation rejects exactly what decoding rejects, with
/// the same error, for flipped bits under the original checksum and under
/// a recomputed one.
#[test]
fn combine_from_blobs_and_validation_agree_with_decoding() {
    let verdict = |r: Result<(), scd_sketch::WireError>| r.map_err(|e| format!("{e:?}"));
    let mut rng = SplitMix64::new(0xC0B1);
    for h in [1, 5, 9] {
        let rows = Arc::clone(empty(h).rows());
        let mut decoded = KarySketch::with_rows(Arc::clone(&rows));
        let mut direct = KarySketch::with_rows(Arc::clone(&rows));
        for case in 0..CASES {
            let mut s = integer_table(&mut rng, h, [0, 1, 7, 50, 100][(case % 5) as usize]);
            if case % 4 == 3 {
                s.table_mut()[case as usize] = case as f64 + 0.5; // ships dense
            }
            let blob = to_bytes_packed(&s);
            decoded.add_scaled(&from_bytes_with_rows(&blob, &rows).unwrap(), 1.0).unwrap();
            add_into(&blob, &mut direct).unwrap();
            assert_eq!(bits(&direct), bits(&decoded), "H={h} case {case}");
            assert_eq!(verdict(validate_with_rows(&blob, &rows)), Ok(()));
            for _ in 0..32 {
                let mut bad = blob.clone();
                let at = rng.next_below(bad.len() as u64) as usize;
                bad[at] ^= 1 << rng.next_below(8);
                if rng.next_below(2) == 0 {
                    bad.truncate(bad.len() - envelope::FOOTER_LEN);
                    envelope::seal(&mut bad);
                }
                let decodes = verdict(from_bytes_with_rows(&bad, &rows).map(drop));
                assert_eq!(verdict(validate_with_rows(&bad, &rows)), decodes, "H={h} at {at}");
            }
        }
    }
}
