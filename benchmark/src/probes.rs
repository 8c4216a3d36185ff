//! Direct timed probes of single layers' public functions, run after the
//! timed region of a traced run. They put a number on a layer in isolation;
//! the workloads show what that layer costs inside a step.

use crate::gen::Rng;
use crate::measure::MIB;
use crate::metrics::Layers;
use smart_comm::{CommConfig, Communicator, TransportKind};
use smart_core::RedMap;
use smart_spill::{LoserTree, SpillStore};
use smart_wire::EntriesCursor;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Input of the probes that depend on the workload.
pub struct ProbeInput {
    /// Worker threads of the workload's pool.
    pub threads: usize,
    /// Encoded `Vec<(i64, u64)>`: the workload's final map as counts, or a
    /// stand-in of the same shape where the map holds other objects.
    pub entries: Vec<u8>,
    /// The workload's key stream and the bound of its dense map, if any.
    pub keys: Vec<i64>,
    pub key_bound: usize,
    /// One step of input.
    pub step: Vec<f64>,
}

/// Keys the upsert probe replays: enough to leave the caches of a small map.
pub const PROBE_KEYS: usize = 1 << 16;

impl ProbeInput {
    pub fn new(
        threads: usize,
        entries: &[(i64, u64)],
        keys: Vec<i64>,
        key_bound: usize,
        step: &[f64],
    ) -> Self {
        ProbeInput {
            threads,
            entries: smart_wire::to_bytes(entries).expect("plain integers encode"),
            keys,
            key_bound,
            step: step.to_vec(),
        }
    }

    /// A uniform key stream over `0..bound` and one entry per key — for a
    /// workload whose map does not hold counts.
    pub fn uniform(seed: u64, threads: usize, bound: usize, step: &[f64]) -> Self {
        let mut rng = Rng::fork(seed, 0x5eed);
        let keys = (0..PROBE_KEYS).map(|_| (rng.next_u64() % bound as u64) as i64).collect();
        let entries: Vec<(i64, u64)> = (0..bound as i64).map(|k| (k, 1)).collect();
        ProbeInput::new(threads, &entries, keys, bound, step)
    }
}

/// Nanoseconds per call of `f` over `iterations` calls.
fn ns_per(iterations: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        f();
    }
    started.elapsed().as_secs_f64() * 1e9 / iterations as f64
}

pub fn run_all(input: &ProbeInput, scratch: &Path, smoke: bool) -> Result<Layers, String> {
    let mut layers = Layers::default();
    // (fork-joins, round trips and collectives, one-way megabytes)
    let (forkjoins, rounds, megabytes) = if smoke { (200, 40, 4) } else { (10_000, 2_000, 64) };
    pool(&mut layers, input.threads, forkjoins);
    redmap(&mut layers, input);
    wire(&mut layers, input)?;
    for kind in [TransportKind::InProcess, TransportKind::Uds, TransportKind::Tcp] {
        transport(&mut layers, kind, rounds, megabytes)?;
    }
    collectives(&mut layers, rounds)?;
    spill(&mut layers, input, scratch)?;
    Ok(layers)
}

fn pool(layers: &mut Layers, threads: usize, rounds: usize) {
    let pool = smart_pool::ThreadPool::new(threads).expect("a pool of the workload's size");
    let ns = ns_per(rounds, || {
        black_box(pool.run_on_workers(threads, |tid| tid));
    });
    layers.set("pool.forkjoin_us", ns / 1e3);
}

fn redmap(layers: &mut Layers, input: &ProbeInput) {
    let rounds = 8;
    let upsert = |map: &mut RedMap<u64>| {
        ns_per(rounds, || {
            map.clear();
            for &key in &input.keys {
                *map.slot_mut(key).get_or_insert(0) += 1;
            }
        }) / input.keys.len() as f64
    };
    layers.set("redmap.hash_upsert_ns", upsert(&mut RedMap::new()));
    layers.set("redmap.dense_upsert_ns", upsert(&mut RedMap::with_key_bound(input.key_bound)));
}

fn wire(layers: &mut Layers, input: &ProbeInput) -> Result<(), String> {
    let err = |e: smart_wire::Error| format!("wire probe: {e}");
    let entries: Vec<(i64, u64)> = smart_wire::from_bytes(&input.entries).map_err(err)?;
    let n = entries.len().max(1) as f64;
    let rounds = (200_000 / entries.len().max(1)).clamp(3, 1000);
    layers.set("wire.bytes_per_entry", input.entries.len() as f64 / n);
    layers.set(
        "wire.encode_ns_per_entry",
        ns_per(rounds, || {
            black_box(smart_wire::to_bytes(black_box(&entries)).expect("encodes"));
        }) / n,
    );
    layers.set(
        "wire.decode_ns_per_entry",
        ns_per(rounds, || {
            let decoded: Vec<(i64, u64)> =
                smart_wire::from_bytes(black_box(&input.entries)).expect("decodes");
            black_box(decoded);
        }) / n,
    );
    layers.set(
        "wire.view_ns_per_entry",
        ns_per(rounds, || {
            let mut cursor = EntriesCursor::new(black_box(&input.entries)).expect("valid prefix");
            let mut sum = 0u64;
            while let Some(key) = cursor.next_key().expect("valid key") {
                sum = sum
                    .wrapping_add(key as u64)
                    .wrapping_add(cursor.value::<u64>().expect("valid value"));
            }
            black_box(sum);
        }) / n,
    );

    // A raw step, as the in-transit stream encodes and decodes it.
    let step_mib = (input.step.len() * std::mem::size_of::<f64>()) as f64 / MIB;
    let rounds = 3;
    let encoded = smart_wire::to_bytes(&input.step).map_err(err)?;
    let encode_ns = ns_per(rounds, || {
        black_box(smart_wire::to_bytes(black_box(&input.step)).expect("encodes"));
    });
    let decode_ns = ns_per(rounds, || {
        let decoded: Vec<f64> = smart_wire::from_bytes(black_box(&encoded)).expect("decodes");
        black_box(decoded);
    });
    layers.set("wire.raw_encode_mib_s", step_mib / (encode_ns / 1e9));
    layers.set("wire.raw_decode_mib_s", step_mib / (decode_ns / 1e9));
    Ok(())
}

/// Run `rank0` and `rank1` on the two ranks of a fresh universe; returns what
/// rank 0 returned.
fn two_ranks<R: Send>(
    kind: TransportKind,
    rank0: impl FnOnce(&mut Communicator) -> Result<R, String> + Send,
    rank1: impl FnOnce(&mut Communicator) -> Result<(), String> + Send,
) -> Result<R, String> {
    let config = CommConfig { transport: Some(kind), ..CommConfig::default() };
    let mut comms = smart_comm::universe(2, config).into_iter();
    let (mut c0, mut c1) = (comms.next().expect("rank 0"), comms.next().expect("rank 1"));
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || rank1(&mut c1));
        let result = rank0(&mut c0);
        peer.join().expect("probe rank panicked")?;
        result
    })
}

const PROBE_TAG: u64 = 7;

fn transport(
    layers: &mut Layers,
    kind: TransportKind,
    pings: usize,
    megabytes: usize,
) -> Result<(), String> {
    let err = |e: smart_comm::CommError| format!("{kind:?} transport probe: {e}");
    let big = 1 << 20;
    let (rtt_us, mib_s) = two_ranks(
        kind,
        |comm| {
            // Connections open lazily: one untimed round trip first.
            comm.send_bytes(1, PROBE_TAG, vec![0; 64]).map_err(err)?;
            comm.recv_bytes(1, PROBE_TAG).map_err(err)?;
            let started = Instant::now();
            for _ in 0..pings {
                comm.send_bytes(1, PROBE_TAG, vec![0; 64]).map_err(err)?;
                comm.recv_bytes(1, PROBE_TAG).map_err(err)?;
            }
            let rtt_us = started.elapsed().as_secs_f64() * 1e6 / pings as f64;
            // One-way: stream the payloads, then wait for one acknowledgement.
            let started = Instant::now();
            for _ in 0..megabytes {
                comm.send_bytes(1, PROBE_TAG, vec![0; big]).map_err(err)?;
            }
            comm.recv_bytes(1, PROBE_TAG).map_err(err)?;
            Ok((rtt_us, megabytes as f64 / started.elapsed().as_secs_f64()))
        },
        |comm| {
            for _ in 0..pings + 1 {
                let ping = comm.recv_bytes(0, PROBE_TAG).map_err(err)?;
                comm.send_bytes(0, PROBE_TAG, ping).map_err(err)?;
            }
            for _ in 0..megabytes {
                black_box(comm.recv_bytes(0, PROBE_TAG).map_err(err)?);
            }
            comm.send_bytes(0, PROBE_TAG, vec![1]).map_err(err)
        },
    )?;
    // The names are spelled out so that each is a literal the metric table
    // can be checked against.
    let (rtt, rate) = match kind {
        TransportKind::InProcess => ("transport.inproc.rtt_us", "transport.inproc.mib_s"),
        TransportKind::Uds => ("transport.uds.rtt_us", "transport.uds.mib_s"),
        TransportKind::Tcp => ("transport.tcp.rtt_us", "transport.tcp.mib_s"),
    };
    layers.set(rtt, rtt_us);
    layers.set(rate, mib_s);
    Ok(())
}

fn collectives(layers: &mut Layers, rounds: usize) -> Result<(), String> {
    let err = |e: smart_comm::CommError| format!("collective probe: {e}");
    let both = |comm: &mut Communicator| -> Result<(f64, f64), String> {
        let started = Instant::now();
        for _ in 0..rounds {
            comm.barrier().map_err(err)?;
        }
        let barrier_us = started.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        let started = Instant::now();
        for i in 0..rounds {
            black_box(comm.allreduce(i as u64, |a, b| a + b).map_err(err)?);
        }
        Ok((barrier_us, started.elapsed().as_secs_f64() * 1e6 / rounds as f64))
    };
    let (barrier_us, allreduce_us) =
        two_ranks(TransportKind::InProcess, both, |comm| both(comm).map(|_| ()))?;
    layers.set("collective.barrier_us", barrier_us);
    layers.set("collective.allreduce_u64_us", allreduce_us);
    Ok(())
}

/// Sorted runs the size of the workload's map: write and commit, read back,
/// and merge four of them through the loser tree.
fn spill(layers: &mut Layers, input: &ProbeInput, scratch: &Path) -> Result<(), String> {
    let err = |e: smart_spill::RunError| format!("spill probe: {e}");
    let store =
        SpillStore::create(scratch.join(format!("probe-{}", std::process::id()))).map_err(err)?;
    let entries: Vec<(i64, u64)> =
        smart_wire::from_bytes(&input.entries).map_err(|e| format!("spill probe: {e}"))?;
    let value = 1u64.to_le_bytes();
    const RUNS: usize = 4;

    let result = (|| {
        let mut write_s = 0.0;
        let mut commit_s = 0.0;
        let mut bytes = 0u64;
        for run in 0..RUNS {
            let started = Instant::now();
            let mut writer = store.writer(&format!("probe-{run}.smrn")).map_err(err)?;
            for (key, _) in &entries {
                writer.record(*key, &value).map_err(err)?;
            }
            let written = Instant::now();
            bytes += writer.finish().map_err(err)?.file_len;
            commit_s += written.elapsed().as_secs_f64();
            write_s += started.elapsed().as_secs_f64();
        }
        layers.set("spill.run_write_mib_s", bytes as f64 / MIB / write_s);
        layers.set("spill.commit_us", commit_s * 1e6 / RUNS as f64);

        let started = Instant::now();
        let mut cursors = Vec::with_capacity(RUNS);
        for run in 0..RUNS {
            let mut cursor = store.open(&format!("probe-{run}.smrn")).map_err(err)?;
            cursor.advance().map_err(err)?;
            cursors.push(cursor);
        }
        // Merge: the tree names the run holding the smallest key; take its
        // record and advance it.
        let mut failed = None;
        let mut records = 0u64;
        let mut tree = LoserTree::new(RUNS, &mut |s| cursors[s].key());
        loop {
            let winner = tree.winner();
            if cursors[winner].key().is_none() {
                break;
            }
            black_box(cursors[winner].value());
            records += 1;
            if let Err(e) = cursors[winner].advance() {
                failed = Some(err(e));
                break;
            }
            tree.replay(&mut |s| cursors[s].key());
        }
        if let Some(e) = failed {
            return Err(e);
        }
        let merge_s = started.elapsed().as_secs_f64();
        layers.set("spill.run_read_mib_s", bytes as f64 / MIB / merge_s);
        layers.set("spill.merge_ns_per_record", merge_s * 1e9 / records.max(1) as f64);
        Ok(())
    })();
    store.cleanup();
    result
}
