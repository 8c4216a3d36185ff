//! Credit-based streaming transport for in-transit analytics.
//!
//! In-transit placement partitions the cluster: simulation ranks stream
//! time-step chunks to a smaller set of *staging* ranks that run the
//! analytics. The transport here is the producer↔stager wire:
//!
//! * **One-copy data plane** — a time-step is encoded once, written once,
//!   read once and decoded once. [`StreamSender::feed`] sizes the batch
//!   frame exactly ([`smart_wire::encoded_len`]) and encodes the step
//!   straight behind its chunk header, so with `batch_steps = 1` that
//!   buffer *is* the transport frame. [`StreamReceiver`] keeps each received
//!   frame as a validated [`BatchFrame`] cursor and decodes a chunk's
//!   `Vec<T>` straight from the frame slice when it is consumed.
//! * **Double-buffered async sends** — the frame is handed to the (queued,
//!   non-blocking) transport, so the simulation resumes immediately while
//!   the previous chunk is still in flight. The only blocking point is flow
//!   control.
//! * **Bounded credit window** — a producer may have at most
//!   [`StreamConfig::window`] un-consumed time-step chunks outstanding. The
//!   stager returns one credit per chunk *as it consumes it*, so a slow
//!   stager throttles its producers to `window` steps of lookahead instead
//!   of letting them flood its mailbox and OOM the staging node. The
//!   stager-side buffered payload is therefore bounded by `window ×
//!   max-chunk-bytes` per producer ([`StreamRecvStats::buffered_bytes_peak`]
//!   observes the bound).
//! * **Batching/coalescing knobs** — up to [`StreamConfig::batch_steps`]
//!   chunks ride in one frame (flushed early past
//!   [`StreamConfig::max_batch_bytes`]), trading per-message overhead
//!   against latency. A multi-chunk frame is freed when its last chunk is
//!   consumed.
//! * **Clean termination** — [`StreamSender::finish`] flushes the tail and
//!   marks end-of-stream; [`StreamReceiver::recv`] then yields `None`. A
//!   stager that dies mid-stream surfaces to its producers as
//!   [`CommError::PeerGone`] (on the next credit wait or data send), never
//!   a hang; a producer that dies surfaces the same way on the stager's
//!   next data receive.
//!
//! ## Batch frame
//!
//! Flat and versionless, every integer a little-endian `u64`:
//!
//! ```text
//! [n_chunks u64][eos u8]                        batch header, 9 bytes
//! n_chunks × [step u64][offset u64][payload_len u64][payload]
//! ```
//!
//! `payload` is the `smart_wire` encoding of the step's `[T]`. The receiver
//! checks every count and length against the bytes actually present before
//! it allocates anything; a malformed frame is a [`CommError::Codec`].
//!
//! ## Copies per step
//!
//! | | producer | stager |
//! |---|---|---|
//! | before | encode → serde re-encode of the payload bytes → socket write | zero-fill → socket read → serde re-decode → decode |
//! | now | encode → write | read → decode |
//!
//! (The in-process transport moves the frame by ownership, so there the
//! write and the read are no copies at all.)
//!
//! Tags in [`STREAM_BASE`]`..STREAM_LIMIT` are reserved for this transport
//! (the claim is recorded in [`tags`](crate::tags)); user point-to-point
//! traffic should stay in the `USER` range.

use crate::communicator::{Communicator, Tag};
use crate::error::{CommError, CommResult};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use smart_wire::Deserializer;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// First tag value reserved for streaming transport traffic (the claim is
/// recorded in [`tags`](crate::tags)).
pub use crate::tags::STREAM_BASE;
/// Producer → stager data batches.
const DATA_TAG: Tag = STREAM_BASE | 1;
/// Stager → producer credit grants.
const CREDIT_TAG: Tag = STREAM_BASE | 2;

/// Bytes of the batch header `[n_chunks u64][eos u8]`.
const BATCH_HEADER_LEN: usize = 9;
/// Bytes of a chunk header `[step u64][offset u64][payload_len u64]`.
const CHUNK_HEADER_LEN: usize = 24;

/// Flow-control and coalescing knobs for one producer→stager stream.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Maximum un-consumed time-step chunks in flight. Backpressure bound:
    /// the stager buffers at most this many steps of this producer's data.
    pub window: usize,
    /// Coalesce up to this many time-step chunks per wire message. Must not
    /// exceed `window` (a full batch needs that many credits to depart).
    pub batch_steps: usize,
    /// Flush the current batch early once its serialized payload reaches
    /// this many bytes.
    pub max_batch_bytes: usize,
    /// Keep sent chunks buffered until their credit comes back (TCP-style
    /// retransmission queue). Under this mode a credit is an
    /// *acknowledgement*: the receiver grants it only once the chunk's data
    /// is durably combined, and [`StreamSender::failover`] can replay the
    /// unacknowledged window to a replacement receiver after the original
    /// dies. Costs one buffered copy of at most `window` chunks.
    pub retain_unacked: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { window: 4, batch_steps: 1, max_batch_bytes: 1 << 20, retain_unacked: false }
    }
}

impl StreamConfig {
    /// A window of `window` steps, one step per message.
    pub fn with_window(window: usize) -> Self {
        StreamConfig { window, ..Default::default() }
    }

    /// Set the per-message coalescing limit.
    pub fn with_batch(mut self, batch_steps: usize, max_batch_bytes: usize) -> Self {
        self.batch_steps = batch_steps;
        self.max_batch_bytes = max_batch_bytes;
        self
    }

    /// Enable the unacknowledged-chunk retransmission buffer (see
    /// [`retain_unacked`](Self::retain_unacked)).
    pub fn with_retain_unacked(mut self, retain: bool) -> Self {
        self.retain_unacked = retain;
        self
    }

    fn validate(&self) {
        assert!(self.window > 0, "stream window must be positive");
        assert!(self.batch_steps > 0, "batch_steps must be positive");
        assert!(
            self.batch_steps <= self.window,
            "batch_steps ({}) must not exceed the credit window ({})",
            self.batch_steps,
            self.window
        );
        assert!(self.max_batch_bytes > 0, "max_batch_bytes must be positive");
    }
}

/// One chunk of a [`BatchFrame`], borrowed from the frame's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef<'a> {
    /// Time-step sequence number (0-based, per stream).
    pub step: u64,
    /// First global element index of the partition this chunk carries.
    pub offset: usize,
    /// `smart_wire`-encoded `[T]` payload.
    pub payload: &'a [u8],
}

/// Read one chunk record at the cursor, checking its declared payload
/// length against the bytes actually present.
fn read_chunk<'a>(de: &mut Deserializer<'a>) -> smart_wire::Result<ChunkRef<'a>> {
    let step = u64::deserialize(&mut *de)?;
    let offset = u64::deserialize(&mut *de)?;
    let declared = u64::deserialize(&mut *de)?;
    let possible = de.remaining() as u64;
    if declared > possible {
        return Err(smart_wire::Error::LengthOverrun { declared, possible });
    }
    let offset = usize::try_from(offset).map_err(|_| {
        smart_wire::Error::Message(format!("chunk offset {offset} exceeds the address space"))
    })?;
    Ok(ChunkRef { step, offset, payload: de.take_bytes(declared as usize)? })
}

/// Split the first chunk record (header + payload) off `records`.
fn split_record(records: &[u8]) -> smart_wire::Result<(&[u8], &[u8])> {
    let mut de = Deserializer::new(records);
    read_chunk(&mut de)?;
    let len = records.len() - de.remaining();
    records
        .split_at_checked(len)
        .ok_or(smart_wire::Error::UnexpectedEof { needed: len, remaining: records.len() })
}

/// Overwrite a frame's batch header. `frame` starts with the
/// [`BATCH_HEADER_LEN`]-byte placeholder `push_chunk`/`flush` put there.
fn seal(frame: &mut [u8], n_chunks: usize, eos: bool) {
    let header = (n_chunks as u64).to_le_bytes().into_iter().chain([u8::from(eos)]);
    for (slot, byte) in frame.iter_mut().zip(header) {
        *slot = byte;
    }
}

/// The chunk records of a sealed or under-construction frame: everything
/// behind the batch header.
fn records(frame: &[u8]) -> &[u8] {
    frame.get(BATCH_HEADER_LEN..).unwrap_or_default()
}

fn alloc_error(e: std::collections::TryReserveError) -> CommError {
    CommError::Codec(smart_wire::Error::Message(format!("stream frame buffer: {e}")))
}

/// A received batch frame, validated once, and a cursor over its chunks.
///
/// [`parse`](Self::parse) walks every chunk header against the bytes
/// actually present and allocates nothing, so a truncated frame, an
/// over-count `n_chunks`, an over-long `payload_len`, trailing bytes or a
/// non-0/1 `eos` byte is a [`CommError::Codec`] before any chunk is
/// delivered. [`next_chunk`](Self::next_chunk) then re-reads one header at a
/// time, in place (the `EntriesCursor` idea applied to the stream).
#[derive(Debug)]
pub struct BatchFrame {
    bytes: Vec<u8>,
    /// Offset of the next unread chunk header.
    pos: usize,
    /// Chunks not yet yielded.
    left: usize,
    eos: bool,
    /// Payload bytes of all chunks, read or not.
    payload_bytes: u64,
}

impl BatchFrame {
    /// Validate `bytes` as one batch frame and position the cursor on its
    /// first chunk.
    pub fn parse(bytes: Vec<u8>) -> CommResult<BatchFrame> {
        let mut de = Deserializer::new(&bytes);
        let declared = u64::deserialize(&mut de)?;
        let eos = bool::deserialize(&mut de)?;
        let possible = (de.remaining() / CHUNK_HEADER_LEN) as u64;
        if declared > possible {
            return Err(smart_wire::Error::LengthOverrun { declared, possible }.into());
        }
        let mut payload_bytes = 0u64;
        for _ in 0..declared {
            payload_bytes += read_chunk(&mut de)?.payload.len() as u64;
        }
        if de.remaining() != 0 {
            return Err(smart_wire::Error::TrailingBytes(de.remaining()).into());
        }
        Ok(BatchFrame { bytes, pos: BATCH_HEADER_LEN, left: declared as usize, eos, payload_bytes })
    }

    /// Whether this frame carries the end-of-stream marker.
    pub fn eos(&self) -> bool {
        self.eos
    }

    /// Chunks not yet yielded by [`next_chunk`](Self::next_chunk).
    pub fn chunks_left(&self) -> usize {
        self.left
    }

    /// The next chunk in frame order, or `None` after the last.
    pub fn next_chunk(&mut self) -> Option<ChunkRef<'_>> {
        if self.left == 0 {
            return None;
        }
        let mut de = Deserializer::new(self.bytes.get(self.pos..)?);
        // `parse` already walked this header; the error arm is unreachable.
        let chunk = read_chunk(&mut de).ok()?;
        self.pos = self.bytes.len() - de.remaining();
        self.left -= 1;
        Some(chunk)
    }
}

/// Producer-side stream counters.
#[derive(Debug, Clone, Default)]
pub struct StreamSendStats {
    /// Total time inside [`StreamSender::feed`]/[`StreamSender::finish`]
    /// (encode + credit waits + transport write) — the time-step latency
    /// the *simulation* observes from analytics.
    pub send_busy: Duration,
    /// Portion of [`send_busy`](Self::send_busy) spent blocked waiting for
    /// credits — pure backpressure from a slower stager.
    pub credit_wait: Duration,
    /// Portion of [`send_busy`](Self::send_busy) spent sizing and encoding
    /// time-steps into the batch frame. What remains after this and
    /// [`credit_wait`](Self::credit_wait) is the transport write.
    pub encode_busy: Duration,
    /// Serialized bytes shipped (batch framing included).
    pub bytes: u64,
    /// Time-step chunks sent.
    pub steps: u64,
    /// Wire messages sent (≤ steps when coalescing).
    pub batches: u64,
    /// Times the stream was re-pointed at a replacement receiver after the
    /// original died ([`StreamSender::failover`]).
    pub reroutes: u64,
    /// Chunks retransmitted out of the unacknowledged buffer on failover.
    pub replayed: u64,
}

/// The producer (simulation-side) end of a stream.
///
/// Owned by exactly one rank; every call takes the rank's communicator.
pub struct StreamSender<T> {
    peer: usize,
    cfg: StreamConfig,
    credits: usize,
    next_step: u64,
    /// The batch frame under construction: a header placeholder (sealed at
    /// flush) followed by the chunk records fed since the last flush.
    /// Empty, or header-only, between batches.
    batch: Vec<u8>,
    /// Chunk records in [`batch`](Self::batch).
    batch_chunks: usize,
    /// Payload bytes in [`batch`](Self::batch), for
    /// [`StreamConfig::max_batch_bytes`].
    batch_bytes: usize,
    /// Sent-but-unacknowledged chunk records (header + payload), oldest
    /// first. Populated only under [`StreamConfig::retain_unacked`]; each
    /// incoming credit retires the oldest entry.
    unacked: VecDeque<Vec<u8>>,
    finished: bool,
    eos_sent: bool,
    stats: StreamSendStats,
    _elem: PhantomData<fn(&T)>,
}

impl<T: Serialize> StreamSender<T> {
    /// A stream from this rank to staging rank `peer`.
    ///
    /// # Panics
    /// Panics on an invalid [`StreamConfig`] (zero window, batch larger
    /// than window).
    pub fn new(peer: usize, cfg: StreamConfig) -> Self {
        cfg.validate();
        StreamSender {
            peer,
            credits: cfg.window,
            cfg,
            next_step: 0,
            batch: Vec::new(),
            batch_chunks: 0,
            batch_bytes: 0,
            unacked: VecDeque::new(),
            finished: false,
            eos_sent: false,
            stats: StreamSendStats::default(),
            _elem: PhantomData,
        }
    }

    /// The stream's counters so far.
    pub fn stats(&self) -> &StreamSendStats {
        &self.stats
    }

    /// Credits currently held (diagnostic).
    pub fn credits(&self) -> usize {
        self.credits
    }

    /// The receiver rank this stream currently points at.
    pub fn peer(&self) -> usize {
        self.peer
    }

    /// Sent-but-unacknowledged chunk count (0 unless
    /// [`StreamConfig::retain_unacked`] is on).
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Absorb `granted` incoming credits, retiring the oldest
    /// unacknowledged chunks under `retain_unacked`.
    fn grant(&mut self, granted: usize) {
        self.credits += granted;
        for _ in 0..granted.min(self.unacked.len()) {
            self.unacked.pop_front();
        }
    }

    /// Stream one time-step partition (`offset` = its first global element
    /// index). Encodes immediately — the caller's buffer can be reused as
    /// soon as this returns — and blocks only when the credit window is
    /// exhausted.
    pub fn feed(&mut self, comm: &mut Communicator, offset: usize, step: &[T]) -> CommResult<()> {
        assert!(!self.finished, "feed after finish");
        let started = Instant::now();
        let result = self.push_chunk(offset, step).and_then(|()| {
            if self.batch_chunks >= self.cfg.batch_steps
                || self.batch_bytes >= self.cfg.max_batch_bytes
            {
                self.flush(comm, false)
            } else {
                Ok(())
            }
        });
        self.stats.send_busy += started.elapsed();
        result
    }

    /// Encode `step` as one chunk record onto the end of the batch frame.
    ///
    /// The frame is reserved exactly, never grown by doubling: a fresh batch
    /// reserves room for as many steps of this length as will ride in it
    /// (so with `batch_steps = 1` the one allocation is the transport
    /// frame), and a step longer than its predecessors adds its own bytes.
    fn push_chunk(&mut self, offset: usize, step: &[T]) -> CommResult<()> {
        let encoding = Instant::now();
        let payload_len = smart_wire::encoded_len(step)?;
        let payload_bytes = usize::try_from(payload_len).unwrap_or(usize::MAX);
        let chunk_len = payload_bytes.saturating_add(CHUNK_HEADER_LEN);
        let mark = self.batch.len();
        if self.batch.is_empty() {
            let expected =
                self.cfg.batch_steps.min(self.cfg.max_batch_bytes.div_ceil(payload_bytes.max(1)));
            let frame_len =
                chunk_len.saturating_mul(expected.max(1)).saturating_add(BATCH_HEADER_LEN);
            self.batch.try_reserve_exact(frame_len).map_err(alloc_error)?;
            self.batch.resize(BATCH_HEADER_LEN, 0);
        } else {
            self.batch.try_reserve_exact(chunk_len).map_err(alloc_error)?;
        }
        self.batch.extend_from_slice(&self.next_step.to_le_bytes());
        self.batch.extend_from_slice(&(offset as u64).to_le_bytes());
        self.batch.extend_from_slice(&payload_len.to_le_bytes());
        if let Err(e) = smart_wire::to_writer(&mut self.batch, step) {
            self.batch.truncate(mark);
            return Err(e.into());
        }
        self.batch_chunks += 1;
        self.batch_bytes += payload_bytes;
        self.next_step += 1;
        self.stats.encode_busy += encoding.elapsed();
        Ok(())
    }

    /// Harvest already-arrived credits without blocking, then block until
    /// at least `need` are held.
    fn acquire_credits(&mut self, comm: &mut Communicator, need: usize) -> CommResult<()> {
        loop {
            match comm.try_recv::<u32>(self.peer, CREDIT_TAG) {
                Ok(Some(granted)) => self.grant(granted as usize),
                Ok(None) => break,
                // Credits granted before the receiver died are still good
                // (they acknowledged durable chunks); its death surfaces
                // below, or at the send, only once progress requires it.
                Err(CommError::PeerGone { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        while self.credits < need {
            let waited = Instant::now();
            let granted: u32 = comm.recv(self.peer, CREDIT_TAG)?;
            self.stats.credit_wait += waited.elapsed();
            self.grant(granted as usize);
        }
        Ok(())
    }

    /// Split the first `take` chunk records off the batch into a frame of
    /// their own, leaving the rest (behind a fresh header placeholder) as
    /// the batch. Only a replayed backlog is ever larger than the window.
    fn split_batch(&mut self, take: usize) -> CommResult<Vec<u8>> {
        let mut tail = records(&self.batch);
        let mut head_bytes = 0usize;
        for _ in 0..take {
            let (record, rest) = split_record(tail)?;
            head_bytes += record.len().saturating_sub(CHUNK_HEADER_LEN);
            tail = rest;
        }
        let mut rest = Vec::new();
        rest.try_reserve_exact(BATCH_HEADER_LEN + tail.len()).map_err(alloc_error)?;
        rest.resize(BATCH_HEADER_LEN, 0);
        rest.extend_from_slice(tail);
        self.batch.truncate(self.batch.len() - tail.len());
        self.batch_bytes -= head_bytes;
        Ok(std::mem::replace(&mut self.batch, rest))
    }

    /// Copy each chunk record of a departing frame into the replay buffer.
    fn retain(&mut self, frame: &[u8]) -> CommResult<()> {
        let mut rest = records(frame);
        while !rest.is_empty() {
            let (record, tail) = split_record(rest)?;
            self.unacked.push_back(record.to_vec());
            rest = tail;
        }
        Ok(())
    }

    fn flush(&mut self, comm: &mut Communicator, eos: bool) -> CommResult<()> {
        if self.batch_chunks == 0 && !eos {
            return Ok(());
        }
        loop {
            // Normally the whole batch fits the window (batch_steps ≤ window,
            // enforced at construction) and this loop runs once. After a
            // failover the replayed backlog can exceed the fresh window; it
            // goes out in window-sized sub-batches, later ones departing as
            // the replacement receiver returns credits.
            let take = self.batch_chunks.min(self.cfg.window);
            self.acquire_credits(comm, take)?;
            self.credits -= take;
            let last = take == self.batch_chunks;
            let mut frame = if last {
                self.batch_bytes = 0;
                std::mem::take(&mut self.batch)
            } else {
                self.split_batch(take)?
            };
            self.batch_chunks -= take;
            if frame.is_empty() {
                // A bare end-of-stream marker: no batch was under way.
                frame.resize(BATCH_HEADER_LEN, 0);
            }
            seal(&mut frame, take, eos && last);
            if self.cfg.retain_unacked {
                // Before the send: even when the send itself fails the
                // chunks must survive, so the failover path can replay them
                // to the replacement receiver.
                self.retain(&frame)?;
            }
            self.stats.bytes += frame.len() as u64;
            self.stats.steps += take as u64;
            self.stats.batches += 1;
            comm.send_bytes(self.peer, DATA_TAG, frame)?;
            if last {
                self.eos_sent = eos;
                return Ok(());
            }
        }
    }

    /// Flush any coalesced tail and mark end-of-stream. Consumes the
    /// sender; returns the final counters.
    pub fn finish(mut self, comm: &mut Communicator) -> CommResult<StreamSendStats> {
        let started = Instant::now();
        self.flush(comm, true)?;
        self.finished = true;
        self.stats.send_busy += started.elapsed();
        Ok(self.stats)
    }

    /// Like [`finish`](Self::finish) but borrows the sender and additionally
    /// blocks until *every* sent chunk has been acknowledged — the
    /// fault-tolerant termination: only acknowledged chunks are durably
    /// combined, so a producer must not exit while any are outstanding.
    /// On [`CommError::PeerGone`] the caller can
    /// [`failover`](Self::failover) and call this again; the unacknowledged
    /// tail (and end-of-stream marker) is replayed to the new receiver.
    ///
    /// Meaningful only with [`StreamConfig::retain_unacked`] (without it the
    /// unacked buffer is always empty and this degenerates to a flush).
    pub fn finish_wait_acked(&mut self, comm: &mut Communicator) -> CommResult<()> {
        let started = Instant::now();
        let result = (|| {
            if !self.eos_sent {
                self.flush(comm, true)?;
            }
            self.finished = true;
            while !self.unacked.is_empty() {
                let waited = Instant::now();
                let granted: u32 = comm.recv(self.peer, CREDIT_TAG)?;
                self.stats.credit_wait += waited.elapsed();
                self.grant(granted as usize);
            }
            Ok(())
        })();
        self.stats.send_busy += started.elapsed();
        result
    }

    /// Re-point the stream at `new_peer` after the current receiver died:
    /// reset the credit window to full, queue every unacknowledged chunk for
    /// retransmission (oldest first, ahead of any coalesced-but-unsent
    /// tail), and clear the end-of-stream marker so it is re-flushed. The
    /// replacement receiver deduplicates replayed chunks by their step
    /// number.
    ///
    /// Requires [`StreamConfig::retain_unacked`]; chunks sent without it are
    /// simply gone when the receiver dies.
    pub fn failover(&mut self, new_peer: usize) {
        assert!(
            self.cfg.retain_unacked,
            "failover requires StreamConfig::retain_unacked (nothing buffered to replay)"
        );
        self.peer = new_peer;
        self.credits = self.cfg.window;
        self.stats.reroutes += 1;
        self.stats.replayed += self.unacked.len() as u64;
        let tail = records(&self.batch);
        let replay_len: usize = self.unacked.iter().map(Vec::len).sum();
        let mut batch = Vec::with_capacity(BATCH_HEADER_LEN + replay_len + tail.len());
        batch.resize(BATCH_HEADER_LEN, 0);
        for record in self.unacked.drain(..) {
            batch.extend_from_slice(&record);
            self.batch_chunks += 1;
            self.batch_bytes += record.len().saturating_sub(CHUNK_HEADER_LEN);
        }
        batch.extend_from_slice(tail);
        self.batch = batch;
        self.eos_sent = false;
        if self.finished {
            // finish_wait_acked will re-flush the replayed tail + EOS.
            self.finished = false;
        }
    }
}

/// Stager-side stream counters.
#[derive(Debug, Clone, Default)]
pub struct StreamRecvStats {
    /// Time blocked waiting for data from this producer.
    pub recv_busy: Duration,
    /// Time decoding consumed chunks from their frame into `Vec<T>`.
    pub decode_busy: Duration,
    /// Serialized bytes received (batch framing included).
    pub bytes: u64,
    /// Time-step chunks delivered.
    pub steps: u64,
    /// High-water mark of received-but-unconsumed chunk payload bytes —
    /// the staging-side buffer the credit window bounds.
    pub buffered_bytes_peak: u64,
}

/// The stager (analytics-side) end of a stream from one producer.
pub struct StreamReceiver<T> {
    peer: usize,
    /// Received frames that still hold unconsumed chunks, oldest first.
    frames: VecDeque<BatchFrame>,
    buffered_bytes: u64,
    eos: bool,
    stats: StreamRecvStats,
    _elem: PhantomData<fn() -> T>,
}

impl<T: DeserializeOwned> StreamReceiver<T> {
    /// A receiver for the stream arriving from producer rank `peer`.
    pub fn new(peer: usize) -> Self {
        StreamReceiver {
            peer,
            frames: VecDeque::new(),
            buffered_bytes: 0,
            eos: false,
            stats: StreamRecvStats::default(),
            _elem: PhantomData,
        }
    }

    /// The stream's counters so far.
    pub fn stats(&self) -> &StreamRecvStats {
        &self.stats
    }

    /// `true` once end-of-stream has been received *and* drained.
    pub fn is_finished(&self) -> bool {
        self.eos && self.frames.is_empty()
    }

    /// Validate one received frame and queue it behind the earlier ones.
    fn ingest(&mut self, bytes: Vec<u8>) -> CommResult<()> {
        self.stats.bytes += bytes.len() as u64;
        let frame = BatchFrame::parse(bytes)?;
        self.eos |= frame.eos;
        self.buffered_bytes += frame.payload_bytes;
        self.stats.buffered_bytes_peak = self.stats.buffered_bytes_peak.max(self.buffered_bytes);
        if frame.left > 0 {
            self.frames.push_back(frame);
        }
        Ok(())
    }

    /// The next time-step chunk in order, decoded straight from its frame;
    /// `Ok(None)` at end-of-stream. Returns no credit.
    fn next_chunk(&mut self, comm: &mut Communicator) -> CommResult<Option<(u64, usize, Vec<T>)>> {
        while self.frames.is_empty() && !self.eos {
            let waited = Instant::now();
            let bytes = comm.recv_bytes(self.peer, DATA_TAG)?;
            self.stats.recv_busy += waited.elapsed();
            self.ingest(bytes)?;
        }
        // Drain whatever else has already arrived, so
        // `buffered_bytes_peak` observes the true staging-side lookahead
        // the credit window admitted (not just one batch at a time).
        while !self.eos {
            match comm.try_recv_bytes(self.peer, DATA_TAG) {
                Ok(Some(bytes)) => self.ingest(bytes)?,
                Ok(None) => break,
                // A death notice queued behind already-delivered data must
                // not discard that data: serve the queue first, and let the
                // death surface on a later receive once the queue is empty.
                Err(CommError::PeerGone { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        let Some(frame) = self.frames.front_mut() else {
            return Ok(None);
        };
        let Some(chunk) = frame.next_chunk() else {
            return Ok(None);
        };
        let decoding = Instant::now();
        let decoded = smart_wire::vec_from_bytes::<T>(chunk.payload);
        self.stats.decode_busy += decoding.elapsed();
        let (step, offset) = (chunk.step, chunk.offset);
        self.buffered_bytes -= chunk.payload.len() as u64;
        if frame.left == 0 {
            self.frames.pop_front();
        }
        let data = decoded?;
        self.stats.steps += 1;
        Ok(Some((step, offset, data)))
    }

    /// Receive the next time-step chunk in order: `(step, offset, data)`.
    /// Returns `Ok(None)` at end-of-stream. Consuming a chunk returns one
    /// credit to the producer, opening its window.
    pub fn recv(&mut self, comm: &mut Communicator) -> CommResult<Option<(u64, usize, Vec<T>)>> {
        let chunk = self.next_chunk(comm)?;
        if chunk.is_some() {
            self.ack(comm, 1)?;
        }
        Ok(chunk)
    }

    /// The producer rank this receiver is paired with.
    pub fn peer(&self) -> usize {
        self.peer
    }

    /// Like [`recv`](Self::recv) but *without* returning the credit: the
    /// consumer acknowledges explicitly with [`ack`](Self::ack) once the
    /// chunk's contribution is durable (e.g. globally combined). Paired with
    /// [`StreamConfig::retain_unacked`] this turns the credit window into a
    /// commit protocol — an unacknowledged chunk survives in the producer's
    /// replay buffer, so a receiver death between consume and commit loses
    /// nothing.
    pub fn recv_deferred(
        &mut self,
        comm: &mut Communicator,
    ) -> CommResult<Option<(u64, usize, Vec<T>)>> {
        self.next_chunk(comm)
    }

    /// Acknowledge `n` consumed chunks: grants `n` credits, which under
    /// [`StreamConfig::retain_unacked`] also retires the oldest `n` entries
    /// of the producer's replay buffer. Best-effort — after end-of-stream
    /// the producer may already have exited, and a vanished producer needs
    /// no flow control; its death would surface on the next *data* receive.
    pub fn ack(&mut self, comm: &mut Communicator, n: usize) -> CommResult<()> {
        if n == 0 {
            return Ok(());
        }
        match comm.send(self.peer, CREDIT_TAG, &(n as u32)) {
            Ok(()) | Err(CommError::PeerGone { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_cluster, CommError};

    /// Producer on rank 0 streams `steps` f64 partitions to a stager on
    /// rank 1 with the given config; the stager consumes them all.
    fn roundtrip(cfg: StreamConfig, steps: usize) -> (StreamSendStats, StreamRecvStats, Vec<f64>) {
        let results = run_cluster(2, move |mut comm| {
            if comm.rank() == 0 {
                let mut tx = StreamSender::<f64>::new(1, cfg.clone());
                for t in 0..steps {
                    let data: Vec<f64> = (0..16).map(|i| (t * 16 + i) as f64).collect();
                    tx.feed(&mut comm, t * 16, &data).unwrap();
                }
                let stats = tx.finish(&mut comm).unwrap();
                (Some(stats), None, Vec::new())
            } else {
                let mut rx = StreamReceiver::<f64>::new(0);
                let mut sums = Vec::new();
                let mut expect_step = 0u64;
                while let Some((step, offset, data)) = rx.recv(&mut comm).unwrap() {
                    assert_eq!(step, expect_step, "steps arrive in order");
                    assert_eq!(offset as u64, step * 16);
                    sums.push(data.iter().sum::<f64>());
                    expect_step += 1;
                }
                assert!(rx.is_finished());
                (None, Some(rx.stats().clone()), sums)
            }
        });
        let mut it = results.into_iter();
        let (send, _, _) = it.next().unwrap();
        let (_, recv, sums) = it.next().unwrap();
        (send.unwrap(), recv.unwrap(), sums)
    }

    #[test]
    fn stream_delivers_all_steps_in_order() {
        let (send, recv, sums) = roundtrip(StreamConfig::with_window(3), 20);
        assert_eq!(send.steps, 20);
        assert_eq!(recv.steps, 20);
        assert_eq!(send.bytes, recv.bytes);
        assert_eq!(sums.len(), 20);
        for (t, sum) in sums.iter().enumerate() {
            let expected: f64 = (0..16).map(|i| (t * 16 + i) as f64).sum();
            assert_eq!(*sum, expected, "step {t}");
        }
    }

    /// The frame on the wire is exactly the documented layout: the test
    /// lays one out by hand and compares it with what `feed` sent.
    #[test]
    fn frame_layout_matches_the_documented_bytes() {
        let results = run_cluster(2, |mut comm| {
            if comm.rank() == 0 {
                let mut tx = StreamSender::<u32>::new(1, StreamConfig::with_window(2));
                tx.feed(&mut comm, 7, &[10, 20, 30]).unwrap();
                tx.finish(&mut comm).unwrap();
                Vec::new()
            } else {
                let data = comm.recv_bytes(0, DATA_TAG).unwrap();
                let eos = comm.recv_bytes(0, DATA_TAG).unwrap();
                vec![data, eos]
            }
        });
        let payload = smart_wire::to_bytes(&[10u32, 20, 30][..]).unwrap();
        let mut want = Vec::new();
        want.extend_from_slice(&1u64.to_le_bytes()); // n_chunks
        want.push(0); // eos
        want.extend_from_slice(&0u64.to_le_bytes()); // step
        want.extend_from_slice(&7u64.to_le_bytes()); // offset
        want.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        want.extend_from_slice(&payload);
        assert_eq!(results[1][0], want);
        assert_eq!(results[1][0].capacity(), want.len(), "the frame is sized exactly");
        let mut bare_eos = 0u64.to_le_bytes().to_vec();
        bare_eos.push(1);
        assert_eq!(results[1][1], bare_eos);
    }

    #[test]
    fn busy_counters_decompose_send_and_recv_time() {
        let (send, recv, _) = roundtrip(StreamConfig::with_window(2), 8);
        assert!(send.encode_busy > Duration::ZERO);
        assert!(send.encode_busy + send.credit_wait <= send.send_busy);
        assert!(recv.decode_busy > Duration::ZERO);
    }

    #[test]
    fn batching_coalesces_messages() {
        let one_per_msg = roundtrip(StreamConfig::with_window(8), 24).0;
        let coalesced = roundtrip(StreamConfig::with_window(8).with_batch(4, 1 << 20), 24).0;
        assert_eq!(one_per_msg.batches, 25, "24 data messages + EOS");
        assert_eq!(coalesced.batches, 7, "6 batches of 4 + EOS");
        assert_eq!(coalesced.steps, 24);
        assert!(coalesced.bytes < one_per_msg.bytes, "framing amortized across the batch");
    }

    #[test]
    fn byte_cap_flushes_batches_early() {
        // Each step's payload is 16 f64 = 128 bytes (+ framing); a 200-byte
        // cap forces a flush on every second step even with batch_steps=8.
        let stats = roundtrip(StreamConfig::with_window(8).with_batch(8, 200), 8).0;
        assert_eq!(stats.steps, 8);
        assert!(stats.batches >= 4, "byte cap must split the batches: {}", stats.batches);
    }

    #[test]
    fn credit_window_bounds_stager_buffered_bytes() {
        // A fast producer against a slow stager: the credit window — not
        // the stager's consumption rate — must bound how many bytes sit
        // buffered on the staging side.
        let step_elems = 64usize;
        let payload_bytes = smart_wire::encoded_len(&vec![0.0f64; step_elems]).unwrap();
        let mut peaks = Vec::new();
        for window in [1usize, 2, 8] {
            let results = run_cluster(2, move |mut comm| {
                if comm.rank() == 0 {
                    let mut tx = StreamSender::<f64>::new(1, StreamConfig::with_window(window));
                    for t in 0..24 {
                        let data = vec![t as f64; step_elems];
                        tx.feed(&mut comm, 0, &data).unwrap();
                    }
                    tx.finish(&mut comm).unwrap();
                    0
                } else {
                    let mut rx = StreamReceiver::<f64>::new(0);
                    while let Some(_chunk) = rx.recv(&mut comm).unwrap() {
                        // Slow consumer: let the producer run ahead as far
                        // as its credits allow.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    rx.stats().buffered_bytes_peak
                }
            });
            let peak = results[1];
            assert!(peak > 0, "window={window}: stager must have buffered something");
            assert!(
                peak <= (window as u64) * payload_bytes,
                "window={window}: buffered peak {peak} exceeds window bound {}",
                (window as u64) * payload_bytes
            );
            peaks.push(peak);
        }
        assert!(peaks[0] < peaks[2], "a wider window must admit more lookahead: {peaks:?}");
    }

    #[test]
    fn dead_stager_surfaces_as_peer_gone_to_producer() {
        let results = run_cluster(2, |mut comm| {
            if comm.rank() == 0 {
                let mut tx = StreamSender::<u64>::new(1, StreamConfig::with_window(2));
                let mut outcome = Ok(());
                for t in 0..100u64 {
                    if let Err(e) = tx.feed(&mut comm, 0, &[t; 32]) {
                        outcome = Err(e);
                        break;
                    }
                }
                outcome
            } else {
                // Consume one chunk, then die mid-stream.
                let mut rx = StreamReceiver::<u64>::new(0);
                rx.recv(&mut comm).unwrap();
                Ok(())
            }
        });
        assert_eq!(results[0], Err(CommError::PeerGone { peer: 1 }));
        assert!(results[1].is_ok());
    }

    #[test]
    fn dead_producer_surfaces_as_peer_gone_to_stager() {
        let results = run_cluster(2, |mut comm| {
            if comm.rank() == 0 {
                // Stream two steps, then vanish without finish().
                let mut tx = StreamSender::<u64>::new(1, StreamConfig::with_window(4));
                tx.feed(&mut comm, 0, &[1, 2, 3]).unwrap();
                tx.feed(&mut comm, 0, &[4, 5, 6]).unwrap();
                Ok(())
            } else {
                let mut rx = StreamReceiver::<u64>::new(0);
                loop {
                    match rx.recv(&mut comm) {
                        Ok(Some(_)) => continue,
                        Ok(None) => break Ok(()),
                        Err(e) => break Err(e),
                    }
                }
            }
        });
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(CommError::PeerGone { peer: 0 }));
    }

    #[test]
    fn empty_stream_delivers_clean_eos() {
        let results = run_cluster(2, |mut comm| {
            if comm.rank() == 0 {
                let tx = StreamSender::<f64>::new(1, StreamConfig::default());
                tx.finish(&mut comm).unwrap().steps
            } else {
                let mut rx = StreamReceiver::<f64>::new(0);
                assert!(rx.recv(&mut comm).unwrap().is_none());
                assert!(rx.is_finished());
                0
            }
        });
        assert_eq!(results[0], 0);
    }

    #[test]
    #[should_panic(expected = "batch_steps")]
    fn batch_larger_than_window_is_rejected() {
        let _ = StreamSender::<f64>::new(1, StreamConfig::with_window(2).with_batch(4, 1 << 20));
    }

    #[test]
    fn deferred_acks_retire_the_replay_buffer() {
        let results = run_cluster(2, |mut comm| {
            if comm.rank() == 0 {
                let cfg = StreamConfig::with_window(2).with_retain_unacked(true);
                let mut tx = StreamSender::<u64>::new(1, cfg);
                for t in 0..4u64 {
                    tx.feed(&mut comm, t as usize, &[t; 4]).unwrap();
                }
                tx.finish_wait_acked(&mut comm).unwrap();
                assert_eq!(tx.unacked_len(), 0, "every chunk acknowledged at exit");
                tx.stats().steps
            } else {
                let mut rx = StreamReceiver::<u64>::new(0);
                let mut seen = 0;
                while let Some((step, _, data)) = rx.recv_deferred(&mut comm).unwrap() {
                    assert_eq!(data, vec![step; 4]);
                    rx.ack(&mut comm, 1).unwrap();
                    seen += 1;
                }
                seen
            }
        });
        assert_eq!(results, vec![4, 4]);
    }

    #[test]
    fn failover_replays_unacked_chunks_to_replacement_receiver() {
        // Producer rank 0 streams to stager rank 1, which consumes two
        // chunks, commits (acks) only the first, and dies. The producer
        // fails over to rank 2 and must replay exactly the unacknowledged
        // suffix: step 0 (acked ⇒ durable) is never resent, steps 1..6
        // (consumed-but-unacked and never-sent alike) all arrive.
        let steps = 6u64;
        let results = run_cluster(3, move |mut comm| {
            match comm.rank() {
                0 => {
                    let cfg = StreamConfig::with_window(2).with_retain_unacked(true);
                    let mut tx = StreamSender::<u64>::new(1, cfg);
                    for t in 0..steps {
                        if let Err(CommError::PeerGone { .. }) =
                            tx.feed(&mut comm, t as usize, &[t; 4])
                        {
                            tx.failover(2);
                        }
                    }
                    while let Err(CommError::PeerGone { .. }) = tx.finish_wait_acked(&mut comm) {
                        tx.failover(2);
                    }
                    assert_eq!(tx.unacked_len(), 0);
                    assert!(tx.stats().reroutes >= 1, "the dying stager must have been noticed");
                    Vec::new()
                }
                1 => {
                    let mut rx = StreamReceiver::<u64>::new(0);
                    rx.recv_deferred(&mut comm).unwrap().unwrap();
                    rx.recv_deferred(&mut comm).unwrap().unwrap();
                    rx.ack(&mut comm, 1).unwrap(); // commit only the first chunk
                    Vec::new() // die: communicator drops here
                }
                _ => {
                    let mut rx = StreamReceiver::<u64>::new(0);
                    let mut got = Vec::new();
                    while let Some((step, offset, data)) = rx.recv_deferred(&mut comm).unwrap() {
                        assert_eq!(data, vec![step; 4]);
                        assert_eq!(offset as u64, step);
                        got.push(step);
                        rx.ack(&mut comm, 1).unwrap();
                    }
                    got
                }
            }
        });
        assert_eq!(results[2], (1..steps).collect::<Vec<_>>());
    }

    /// A replayed backlog larger than the fresh window (two unacknowledged
    /// chunks plus the one being fed, window 2) must leave in window-sized
    /// sub-batches and still arrive complete and in order.
    #[test]
    fn failover_backlog_larger_than_window_departs_in_sub_batches() {
        let results = run_cluster(3, |mut comm| match comm.rank() {
            0 => {
                let cfg = StreamConfig::with_window(2).with_retain_unacked(true);
                let mut tx = StreamSender::<u64>::new(1, cfg);
                for t in 0..3u64 {
                    if let Err(CommError::PeerGone { .. }) = tx.feed(&mut comm, t as usize, &[t; 4])
                    {
                        tx.failover(2);
                    }
                }
                while let Err(CommError::PeerGone { .. }) = tx.finish_wait_acked(&mut comm) {
                    tx.failover(2);
                }
                assert_eq!(tx.stats().replayed, 2);
                assert_eq!(tx.unacked_len(), 0);
                Vec::new()
            }
            1 => {
                // Consume both chunks of the window, commit neither, die.
                let mut rx = StreamReceiver::<u64>::new(0);
                rx.recv_deferred(&mut comm).unwrap().unwrap();
                rx.recv_deferred(&mut comm).unwrap().unwrap();
                Vec::new()
            }
            _ => {
                let mut rx = StreamReceiver::<u64>::new(0);
                let mut got = Vec::new();
                while let Some((step, offset, data)) = rx.recv_deferred(&mut comm).unwrap() {
                    assert_eq!(data, vec![step; 4]);
                    assert_eq!(offset as u64, step);
                    got.push(step);
                    rx.ack(&mut comm, 1).unwrap();
                }
                got
            }
        });
        assert_eq!(results[2], vec![0, 1, 2]);
    }

    #[test]
    fn many_producers_one_stager_interleave_cleanly() {
        let producers = 4usize;
        let steps = 6usize;
        let results = run_cluster(producers + 1, move |mut comm| {
            if comm.rank() < producers {
                let rank = comm.rank();
                let mut tx = StreamSender::<u64>::new(producers, StreamConfig::with_window(2));
                for t in 0..steps {
                    let v = vec![(rank * 100 + t) as u64; 8];
                    tx.feed(&mut comm, rank * 8, &v).unwrap();
                }
                tx.finish(&mut comm).unwrap();
                0u64
            } else {
                let mut rxs: Vec<StreamReceiver<u64>> =
                    (0..producers).map(StreamReceiver::new).collect();
                let mut total = 0u64;
                for t in 0..steps {
                    for (p, rx) in rxs.iter_mut().enumerate() {
                        let (step, offset, data) = rx.recv(&mut comm).unwrap().unwrap();
                        assert_eq!(step as usize, t);
                        assert_eq!(offset, p * 8);
                        total += data.iter().sum::<u64>();
                    }
                }
                for rx in &mut rxs {
                    assert!(rx.recv(&mut comm).unwrap().is_none());
                }
                total
            }
        });
        let expected: u64 =
            (0..producers).flat_map(|p| (0..steps).map(move |t| 8 * (p * 100 + t) as u64)).sum();
        assert_eq!(results[producers], expected);
    }
}
