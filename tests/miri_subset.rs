//! Miri target suite: the unsafe-heavy paths, kept small enough that
//! `cargo +nightly miri test --test miri_subset` finishes in CI minutes.
//!
//! Covers exactly the code whose soundness rests on manual argument rather
//! than the type system: `SharedSlice`'s `UnsafeCell` slice and its
//! disjointness contract, `RedMap`'s open-addressed storage, `smart-wire`
//! encode/decode round trips, the byte parsers that walk untrusted buffers
//! in place (`EntriesCursor`, the stream's `BatchFrame`), and the
//! `memtrack` counting allocator. The
//! loom suites check *schedules*; this suite checks *pointer discipline*
//! under Miri's aliasing and validity rules.

use smart_insitu::comm::stream::BatchFrame;
use smart_insitu::comm::CommError;
use smart_insitu::core::{fold_entries_view, Analytics, Chunk, Key, RedMap, RedObj, SharedSlice};
use smart_insitu::wire::EntriesCursor;
use smart_insitu::{memtrack, wire};

// Register the counting allocator so Miri also exercises the GlobalAlloc
// wrapper for every allocation this test binary makes.
#[global_allocator]
static ALLOC: memtrack::TrackingAlloc = memtrack::TrackingAlloc::new();

#[test]
fn shared_slice_single_thread_writes() {
    let mut buf = vec![0u64; 16];
    {
        let shared = SharedSlice::new(&mut buf);
        for i in 0..16 {
            // SAFETY: single thread, distinct indices.
            unsafe { shared.write(i, (i * i) as u64) };
        }
        // SAFETY: single thread.
        let v = unsafe { shared.with_mut(3, |v| *v) };
        assert_eq!(v, 9);
    }
    assert_eq!(buf[15], 225);
}

#[test]
fn shared_slice_cross_thread_disjoint_writes() {
    let mut buf = vec![0usize; 64];
    {
        let shared = SharedSlice::new(&mut buf);
        let shared = &shared;
        std::thread::scope(|s| {
            for t in 0..2 {
                s.spawn(move || {
                    for i in (t..64).step_by(2) {
                        // SAFETY: threads own interleaved, disjoint indices.
                        unsafe { shared.write(i, i + 1) };
                    }
                });
            }
        });
    }
    assert!(buf.iter().enumerate().all(|(i, &v)| v == i + 1));
}

#[test]
fn redmap_insert_get_remove_drain() {
    let mut map: RedMap<u64> = RedMap::new();
    for k in 0..200 {
        map.insert(k, k as u64 * 3);
    }
    assert_eq!(map.len(), 200);
    assert_eq!(map.get(77), Some(&231));
    *map.slot_mut(77) = Some(232);
    assert_eq!(map.remove(13), Some(39));
    assert!(!map.contains_key(13));
    let mut entries = map.drain_entries();
    entries.sort_unstable_by_key(|&(k, _)| k);
    assert_eq!(entries.len(), 199);
    assert_eq!(entries.iter().find(|&&(k, _)| k == 77), Some(&(77, 232)));
    assert!(map.is_empty());
}

#[test]
fn redmap_grows_through_collisions() {
    let mut map: RedMap<Vec<u8>> = RedMap::with_capacity(4);
    for k in (0..64).rev() {
        map.insert(k, vec![k as u8; 3]);
    }
    for k in 0..64 {
        assert_eq!(map.get(k), Some(&vec![k as u8; 3]));
    }
}

#[test]
fn wire_roundtrips_preserve_values() {
    let floats: Vec<f64> = (0..50).map(|i| i as f64 * 0.5 - 3.0).collect();
    let bytes = wire::to_bytes(&floats).unwrap();
    assert_eq!(bytes.len() as u64, wire::encoded_len(&floats).unwrap());
    let back: Vec<f64> = wire::from_bytes(&bytes).unwrap();
    assert_eq!(back, floats);

    let entries: Vec<(u64, Vec<u32>)> = (0..20).map(|k| (k, (0..k as u32).collect())).collect();
    let bytes = wire::to_bytes(&entries).unwrap();
    let back: Vec<(u64, Vec<u32>)> = wire::from_bytes(&bytes).unwrap();
    assert_eq!(back, entries);
}

/// Heap-bearing reduction object, so the wire view's borrowed reads and
/// the owned-decode fallback both run under Miri's aliasing rules.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct VecSum(Vec<u64>);
impl RedObj for VecSum {}

struct VecAdd;
impl Analytics for VecAdd {
    type In = u64;
    type Red = VecSum;
    type Out = ();
    type Extra = ();

    fn accumulate(&self, _c: &Chunk, _d: &[u64], _k: Key, obj: &mut Option<VecSum>) {
        obj.get_or_insert_with(|| VecSum(Vec::new()));
    }

    fn merge(&self, red: &VecSum, com: &mut VecSum) {
        if com.0.len() < red.0.len() {
            com.0.resize(red.0.len(), 0);
        }
        for (a, b) in com.0.iter_mut().zip(&red.0) {
            *a += b;
        }
    }

    /// Zero-copy override: fold the encoded `Vec<u64>` into `com` straight
    /// off the wire buffer — the borrowed path `fold_entries_view` exists
    /// for, and exactly one encoded `Self::Red` consumed per contract.
    fn merge_wire(
        &self,
        de: &mut smart_insitu::wire::Deserializer<'_>,
        com: &mut VecSum,
    ) -> smart_insitu::wire::Result<()> {
        use serde::Deserialize;
        let n = u64::deserialize(&mut *de)? as usize;
        if com.0.len() < n {
            com.0.resize(n, 0);
        }
        for slot in com.0.iter_mut().take(n) {
            *slot += u64::deserialize(&mut *de)?;
        }
        Ok(())
    }
}

#[test]
fn entries_cursor_zero_entry_payload() {
    let bytes = wire::to_bytes(&Vec::<(i64, VecSum)>::new()).unwrap();
    let mut cur = EntriesCursor::new(&bytes).unwrap();
    assert_eq!(cur.remaining(), 0);
    assert_eq!(cur.next_key().unwrap(), None);
    cur.finish().unwrap();

    // The view fold over an empty payload passes the accumulator through.
    let acc = vec![(3i64, VecSum(vec![1, 2]))];
    let out = fold_entries_view(&VecAdd, acc.clone(), &bytes).unwrap();
    assert_eq!(out, acc);
}

#[test]
fn entries_cursor_truncated_buffers_error_not_panic() {
    let entries = vec![(1i64, VecSum(vec![5, 6, 7])), (4, VecSum(vec![])), (9, VecSum(vec![8]))];
    let bytes = wire::to_bytes(&entries).unwrap();
    // Every strict prefix — cuts inside the count, a key, a value length,
    // and value payloads — must surface as a typed error somewhere in the
    // walk (never an out-of-bounds read, which Miri would flag).
    for cut in 0..bytes.len() {
        let walk = || -> wire::Result<Vec<(i64, VecSum)>> {
            let mut cur = EntriesCursor::new(&bytes[..cut])?;
            let mut got = Vec::new();
            while let Some(key) = cur.next_key()? {
                got.push((key, cur.value::<VecSum>()?));
            }
            cur.finish()?;
            Ok(got)
        };
        assert!(walk().is_err(), "truncation at {cut} went undetected");
        // The same prefix through the merge-join fold must also error.
        assert!(fold_entries_view(&VecAdd, Vec::new(), &bytes[..cut]).is_err());
    }
}

#[test]
fn entries_cursor_max_count_prefixes_are_rejected() {
    let mut bytes = wire::to_bytes(&vec![(1i64, 2u64), (3, 4)]).unwrap();
    // An absurd count fails the at-least-8-bytes-per-entry plausibility
    // check at construction.
    let good_prefix: [u8; 8] = bytes[..8].try_into().unwrap();
    bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(EntriesCursor::new(&bytes).is_err());

    // A plausible-but-wrong count (one extra entry) survives construction
    // and must then die as EOF mid-walk, not walk off the buffer.
    bytes[..8].copy_from_slice(&3u64.to_le_bytes());
    let mut cur = EntriesCursor::new(&bytes).unwrap();
    let mut err = None;
    loop {
        match cur.next_key() {
            Ok(Some(_)) => match cur.value::<u64>() {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            },
            Ok(None) => break,
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    assert!(err.is_some(), "over-count prefix went undetected");

    // Restore the true count: the full walk must succeed again.
    bytes[..8].copy_from_slice(&good_prefix);
    let mut cur = EntriesCursor::new(&bytes).unwrap();
    while let Some(_k) = cur.next_key().unwrap() {
        let _: u64 = cur.value().unwrap();
    }
    cur.finish().unwrap();
}

/// A 3-chunk in-transit batch frame laid out by hand, as `comm::stream`
/// documents it: `[n_chunks u64][eos u8]`, then per chunk
/// `[step u64][offset u64][payload_len u64][payload]`. Returns the frame,
/// the chunks' data and the byte position of each chunk's `payload_len`.
fn three_chunk_frame() -> (Vec<u8>, [Vec<u64>; 3], [usize; 3]) {
    let chunks = [vec![5u64, 6, 7], vec![], vec![8]];
    let mut frame = 3u64.to_le_bytes().to_vec();
    frame.push(1);
    let mut len_at = [0usize; 3];
    for (i, data) in chunks.iter().enumerate() {
        let payload = wire::to_bytes(data).unwrap();
        frame.extend_from_slice(&(i as u64).to_le_bytes());
        frame.extend_from_slice(&(i as u64 * 100).to_le_bytes());
        len_at[i] = frame.len();
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&payload);
    }
    (frame, chunks, len_at)
}

fn is_codec_error(result: Result<BatchFrame, CommError>) -> bool {
    matches!(result, Err(CommError::Codec(_)))
}

#[test]
fn batch_frame_walks_chunks_in_place() {
    let (frame, chunks, _) = three_chunk_frame();
    let mut cur = BatchFrame::parse(frame).unwrap();
    assert!(cur.eos());
    for (i, want) in chunks.iter().enumerate() {
        assert_eq!(cur.chunks_left(), 3 - i);
        let chunk = cur.next_chunk().unwrap();
        assert_eq!((chunk.step, chunk.offset), (i as u64, i * 100));
        assert_eq!(&wire::vec_from_bytes::<u64>(chunk.payload).unwrap(), want);
    }
    assert!(cur.next_chunk().is_none());
}

#[test]
fn batch_frame_malformed_input_errors_not_panic() {
    let (frame, _, len_at) = three_chunk_frame();
    // Every strict prefix: cuts inside the batch header, a chunk header and
    // a payload all surface as a typed error (never an out-of-bounds read,
    // which Miri would flag).
    for cut in 0..frame.len() {
        assert!(is_codec_error(BatchFrame::parse(frame[..cut].to_vec())), "prefix of {cut}");
    }
    // One chunk too many, and an absurd count.
    for count in [4u64, u64::MAX] {
        let mut bad = frame.clone();
        bad[..8].copy_from_slice(&count.to_le_bytes());
        assert!(is_codec_error(BatchFrame::parse(bad)), "n_chunks {count}");
    }
    // A payload length one past what is there, and an absurd one, on every
    // chunk — including the last, where one more byte is simply missing.
    for at in len_at {
        let declared = u64::from_le_bytes(frame[at..at + 8].try_into().unwrap());
        for len in [declared + 1, u64::MAX] {
            let mut bad = frame.clone();
            bad[at..at + 8].copy_from_slice(&len.to_le_bytes());
            assert!(is_codec_error(BatchFrame::parse(bad)), "payload_len {len} at {at}");
        }
    }
    // The end-of-stream byte is 0 or 1.
    for eos in [2u8, 0xFF] {
        let mut bad = frame.clone();
        bad[8] = eos;
        assert!(is_codec_error(BatchFrame::parse(bad)), "eos byte {eos}");
    }
    // Bytes behind the last chunk.
    let mut bad = frame.clone();
    bad.push(0);
    assert!(is_codec_error(BatchFrame::parse(bad)));
    // And the untouched frame still parses.
    assert_eq!(BatchFrame::parse(frame).unwrap().chunks_left(), 3);
}

#[test]
fn merge_wire_view_fold_matches_owned_merge() {
    // Overlapping, disjoint-low and disjoint-high keys, so the merge-join
    // exercises all three arms: copy-from-acc, in-place merge_wire, and
    // owned decode of a new key.
    let acc = vec![(1i64, VecSum(vec![10])), (5, VecSum(vec![1, 1])), (9, VecSum(vec![7]))];
    let incoming = vec![(0i64, VecSum(vec![2])), (5, VecSum(vec![3, 4, 5])), (12, VecSum(vec![6]))];
    let bytes = wire::to_bytes(&incoming).unwrap();

    let got = fold_entries_view(&VecAdd, acc.clone(), &bytes).unwrap();

    // Reference: owned decode + merge through the same operator.
    let mut expect = acc;
    for (k, red) in wire::from_bytes::<Vec<(i64, VecSum)>>(&bytes).unwrap() {
        match expect.iter_mut().find(|(ka, _)| *ka == k) {
            Some((_, com)) => VecAdd.merge(&red, com),
            None => expect.push((k, red)),
        }
    }
    expect.sort_by_key(|&(k, _)| k);
    assert_eq!(got, expect);
}

#[test]
fn memtrack_counts_through_the_wrapper() {
    let before_calls = memtrack::alloc_calls();
    let v = vec![0u8; 1 << 16];
    assert!(memtrack::is_tracking());
    assert!(memtrack::alloc_calls() > before_calls);
    assert!(memtrack::current_bytes() >= 1 << 16);
    drop(v);
    let scope = memtrack::MemScope::begin();
    let w = vec![1u8; 4096];
    drop(w);
    let stats = scope.finish();
    assert!(stats.peak_above_entry >= 4096);
}
