//! Buckets pinned across `K` and kernels: the values below were recorded
//! from tabulation tables of 64-bit entries, before they were narrowed to
//! the 32 bits a bucket of `K ≤ 2^32` reads. Golden bytes pin only the
//! shapes they encode; this pins the hash itself, at every `K` from 2 to
//! 2^26, on both sides of the tabulation / polynomial domain boundary, and
//! through every kernel: the per-key path, and the batch kernels under both
//! variants at block lengths that run the 8-key groups, their scalar tail
//! and the mixed-domain fallback.

use scd_hash::{HashRows, Hasher4, Variant};

const SEEDS: [u64; 2] = [0x5CD, 7];
const KS: [usize; 5] = [2, 1024, 65536, 1 << 20, 1 << 26];
const KEYS: [u64; 7] = [0, 0xFFFF, 0x1_0000, 0x0A00_1234, u32::MAX as u64, 1 << 32, u64::MAX];

/// Indices into [`KEYS`] of the tabulation-domain keys.
const TAB_KEYS: [usize; 5] = [0, 1, 2, 3, 4];

#[rustfmt::skip]
/// `Hasher4::new(seed).bucket(key, k)`, by seed, then `K`, then key.
const HASHER: [[[usize; 7]; 5]; 2] = [
    [
        [1, 0, 0, 1, 1, 1, 1],
        [807, 456, 558, 859, 75, 699, 285],
        [39719, 36296, 28206, 14171, 45131, 46779, 61725],
        [39719, 232904, 552494, 603995, 45131, 636603, 1044765],
        [18914087, 15961544, 4746798, 49887067, 52473931, 31045307, 1044765],
    ],
    [
        [0, 1, 0, 1, 0, 0, 1],
        [882, 999, 364, 923, 738, 760, 625],
        [51058, 39911, 41324, 29595, 20194, 61176, 25201],
        [509810, 105447, 565612, 29595, 675554, 651000, 1008241],
        [47695730, 20028391, 14197100, 27292571, 32132834, 35254008, 39805553],
    ],
];
/// `HashRows::new(2, k, seed).bucket(row, key)`, by seed, then `K`, then row,
/// then key.
#[rustfmt::skip]
const ROWS: [[[[usize; 7]; 2]; 5]; 2] = [
    [
        [
            [1, 1, 0, 0, 0, 1, 1],
            [0, 1, 1, 1, 1, 0, 0],
        ],
        [
            [495, 437, 468, 690, 22, 535, 129],
            [846, 979, 973, 877, 87, 882, 464],
        ],
        [
            [3567, 41397, 1492, 51890, 60438, 60951, 25729],
            [57166, 50131, 16333, 877, 33879, 50034, 22992],
        ],
        [
            [658927, 41397, 591316, 772786, 388118, 716311, 1008769],
            [450382, 312275, 540621, 131949, 296023, 508786, 154064],
        ],
        [
            [38407663, 8430005, 32048596, 8112818, 44428310, 18542103, 56583297],
            [42393422, 9749459, 62406605, 27394925, 27558999, 62374770, 55728592],
        ],
    ],
    [
        [
            [0, 0, 0, 1, 0, 1, 0],
            [0, 0, 1, 1, 0, 1, 1],
        ],
        [
            [26, 212, 942, 1023, 266, 41, 226],
            [300, 934, 909, 175, 178, 37, 507],
        ],
        [
            [29722, 35028, 22446, 31743, 2314, 44073, 6370],
            [49452, 50086, 51085, 51375, 1202, 9253, 56827],
        ],
        [
            [947226, 1018068, 939950, 31743, 526602, 502825, 202978],
            [966956, 181158, 51085, 706735, 459954, 271397, 646651],
        ],
        [
            [54424602, 28281044, 63854510, 60849151, 18352394, 5745705, 29563106],
            [45007148, 9618342, 56674189, 12241071, 34014386, 43263013, 19521019],
        ],
    ],
];

#[test]
fn hasher_buckets_are_pinned() {
    for (s, seed) in SEEDS.into_iter().enumerate() {
        let hasher = Hasher4::new(seed);
        for (j, k) in KS.into_iter().enumerate() {
            for (i, key) in KEYS.into_iter().enumerate() {
                assert_eq!(
                    hasher.bucket(key, k),
                    HASHER[s][j][i],
                    "seed {seed:#x} K {k} key {key:#x}"
                );
            }
        }
    }
}

#[test]
fn row_buckets_are_pinned() {
    for (s, seed) in SEEDS.into_iter().enumerate() {
        for (j, k) in KS.into_iter().enumerate() {
            let rows = HashRows::shared(2, k, seed);
            for (row, pinned) in ROWS[s][j].iter().enumerate() {
                for (key, &bucket) in KEYS.into_iter().zip(pinned) {
                    assert_eq!(
                        rows.bucket(row, key),
                        bucket,
                        "seed {seed:#x} K {k} row {row} key {key:#x}"
                    );
                }
            }
            // The batched form, through whichever kernel the process runs.
            let keys: Vec<u64> = (0..17).map(|n| KEYS[n % KEYS.len()]).collect();
            let mut out = vec![usize::MAX; 2 * keys.len()];
            rows.buckets_batch(&keys, &mut out);
            for (n, bucket) in out.into_iter().enumerate() {
                let (row, at) = (n / keys.len(), n % keys.len());
                assert_eq!(
                    bucket,
                    ROWS[s][j][row][at % KEYS.len()],
                    "seed {seed:#x} K {k} batch {n}"
                );
            }
        }
    }
}

#[test]
fn batch_kernels_are_pinned() {
    // Cycling all seven keys puts a polynomial-domain key in every 8-key
    // group; cycling the tabulation-domain keys alone makes whole groups.
    let mixed: Vec<usize> = (0..KEYS.len()).collect();
    for (s, seed) in SEEDS.into_iter().enumerate() {
        let hasher = Hasher4::new(seed);
        for (j, k) in KS.into_iter().enumerate() {
            for pool in [&mixed[..], &TAB_KEYS[..]] {
                for len in [1usize, 7, 8, 9, 17] {
                    let picks: Vec<usize> = (0..len).map(|n| pool[n % pool.len()]).collect();
                    let keys: Vec<u64> = picks.iter().map(|&i| KEYS[i]).collect();
                    let pinned: Vec<usize> = picks.iter().map(|&i| HASHER[s][j][i]).collect();
                    for variant in [Variant::Scalar, Variant::Avx2] {
                        let mut out = vec![usize::MAX; len];
                        hasher.bucket_batch_with(variant, &keys, k, &mut out);
                        assert_eq!(out, pinned, "seed {seed:#x} K {k} {variant:?} len {len}");
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "K must be at most 2^32")]
fn a_family_past_the_entry_width_is_refused() {
    let _ = HashRows::new(1, 1 << 33, 0x5CD);
}
