//! Copy budget of the in-transit data plane, counted with `memtrack`: a
//! time-step is encoded once, written once, read once and decoded once, so
//! a reintroduced intermediate copy fails here and not only in a benchmark.
//!
//! The counters are process-wide, so the tests of this binary take turns
//! behind one lock and each drives both ends of its stream from its own
//! thread. Runs on whichever backend `SMART_TRANSPORT` selects.

use smart_insitu::comm::stream::BatchFrame;
use smart_insitu::comm::{
    universe, CommConfig, StreamConfig, StreamReceiver, StreamSender, TransportKind,
};
use smart_insitu::{memtrack, wire};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: memtrack::TrackingAlloc = memtrack::TrackingAlloc::new();

static COUNTERS: Mutex<()> = Mutex::new(());

/// 1 MiB of `f64` per step: any extra copy of a payload is 256 times the
/// allowance below.
const ELEMS: usize = 1 << 17;
/// The stream's own framing allowance per step, as the issue states it.
const FRAMING: usize = 64;
/// What the fabric underneath may allocate per measured round on top of the
/// stream's budget: a mailbox queue for a credit or a frame that arrived
/// early, a channel block, the 4-byte credit payloads.
const FABRIC: usize = 4096;
/// A socket reader reserves this much before it trusts a frame header with
/// the full length (`transport::mesh`), and the counting allocator books the
/// growth to the full length as a second allocation.
const READER_PROBE: usize = 64 << 10;

/// Take this binary's turn at the process-wide counters; a failed test must
/// not fail the other one through the lock.
fn turn() -> std::sync::MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn a_step_costs_one_frame_and_one_decoded_vector() {
    let _turn = turn();
    let data: Vec<f64> = (0..ELEMS).map(|i| i as f64).collect();
    let encoded = wire::encoded_len(&data).unwrap() as usize;
    let decoded = ELEMS * std::mem::size_of::<f64>();
    let sockets = TransportKind::from_env() != TransportKind::InProcess;

    for batch_steps in [1usize, 2] {
        let mut comms = universe(2, CommConfig::default());
        let mut stager = comms.pop().unwrap();
        let mut producer = comms.pop().unwrap();
        let cfg = StreamConfig::with_window(4).with_batch(batch_steps, usize::MAX);
        let mut tx = StreamSender::<f64>::new(1, cfg);
        let mut rx = StreamReceiver::<f64>::new(0);

        // Round 0 warms the fabric up (lazy connects, mailbox tables); rounds
        // 1 and 2 are measured. A round is one full batch.
        for round in 0..3 {
            let before = memtrack::total_allocated_bytes();
            for _ in 0..batch_steps {
                tx.feed(&mut producer, 0, &data).unwrap();
            }
            let fed = memtrack::total_allocated_bytes();
            for _ in 0..batch_steps {
                let (_, _, got) = rx.recv(&mut stager).unwrap().unwrap();
                assert_eq!(got.len(), ELEMS);
            }
            let done = memtrack::total_allocated_bytes();
            if round == 0 {
                continue;
            }

            let send_budget = batch_steps * (encoded + FRAMING);
            let frame = 9 + batch_steps * (24 + encoded);
            let recv_budget = batch_steps * (decoded + FRAMING);
            if sockets {
                // The reader thread allocates the frame while `feed` is
                // still writing it, so only the sum can be pinned.
                let total = done - before;
                let budget = send_budget + READER_PROBE + frame + recv_budget + FABRIC;
                assert!(
                    total <= budget,
                    "batch_steps {batch_steps}: {total} bytes allocated, budget {budget}"
                );
            } else {
                let (sent, received) = (fed - before, done - fed);
                assert!(
                    sent <= send_budget + FABRIC,
                    "batch_steps {batch_steps}: sender allocated {sent}, budget {send_budget}"
                );
                assert!(
                    received <= recv_budget + FABRIC,
                    "batch_steps {batch_steps}: receiver allocated {received}, budget {recv_budget}"
                );
            }
        }
        tx.finish(&mut producer).unwrap();
        assert!(rx.recv(&mut stager).unwrap().is_none());
    }
}

/// The frame parser allocates nothing for a frame it rejects — least of all
/// what a corrupt count or length claims.
#[test]
fn rejected_frames_cost_no_allocation() {
    let _turn = turn();
    let mut frame = 3u64.to_le_bytes().to_vec();
    frame.push(0);
    for step in 0..3u64 {
        let payload = wire::to_bytes(&vec![step; 4]).unwrap();
        for word in [step, step * 10, payload.len() as u64] {
            frame.extend_from_slice(&word.to_le_bytes());
        }
        frame.extend_from_slice(&payload);
    }
    let mut inputs: Vec<Vec<u8>> = (0..frame.len()).map(|cut| frame[..cut].to_vec()).collect();
    for (at, claim) in [(0, u64::MAX), (0, 4), (9 + 16, u64::MAX), (9 + 16, 1 << 40)] {
        let mut bad = frame.clone();
        bad[at..at + 8].copy_from_slice(&claim.to_le_bytes());
        inputs.push(bad);
    }
    for input in inputs {
        let len = input.len();
        let before = memtrack::total_allocated_bytes();
        let result = BatchFrame::parse(input);
        let allocated = memtrack::total_allocated_bytes() - before;
        assert!(result.is_err());
        assert!(allocated <= len, "a {len}-byte bad frame made the parser allocate {allocated}");
    }
}
