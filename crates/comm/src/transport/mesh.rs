//! Generic socket mesh shared by the TCP and Unix-domain backends.
//!
//! Topology: every rank owns one listener; connections are **unidirectional**
//! (rank a's traffic to rank b flows over a stream a opened to b's listener,
//! b's traffic to a over a separate stream). Outgoing connections are opened
//! lazily on first send. An accepted connection starts with an 8-byte
//! little-endian *hello* carrying the sender's rank; after that it carries
//! frames:
//!
//! ```text
//! [tag: u64 LE][payload len: u64 LE][payload bytes]
//! ```
//!
//! Each accepted connection gets a dedicated reader thread that decodes
//! frames and pushes them into the endpoint's unbounded event queue. Readers
//! drain their sockets eagerly, so a sender's `write` never blocks on the
//! receiving *protocol* being slow — the no-blocking-send contract ring
//! collectives rely on. On EOF or a read error the reader synthesizes a
//! death notice from its peer, which is how an abrupt disconnect surfaces as
//! [`PeerGone`](crate::CommError::PeerGone) rather than a hang.
//!
//! A frame costs one vectored write (header and payload together — under
//! `TCP_NODELAY` two writes would be two packets for a 4-byte credit) and
//! one exactly-sized, never zero-filled buffer on the reading side. The
//! length prefix is not trusted with memory: the reader commits to the
//! claimed length only after the first [`PROBE_LEN`] payload bytes have
//! actually arrived, and a refused reservation is a death notice, not an
//! abort.
//!
//! Death protocol: `notify_death` writes a [`DEATH_TAG`] frame on every
//! established outgoing stream, *connects out* to every peer it never talked
//! to just to deliver hello + death (so a rank that dies silently still
//! wakes receivers that never heard from it), then wakes its own acceptor
//! with a self-connection so the listener shuts down.

use super::{Frame, Polled, Transport, DEATH_TAG};
use crate::error::{CommError, CommResult};
use crate::Tag;
use smart_sync::atomic::{AtomicBool, Ordering};
use smart_sync::channel::{self, Receiver, Sender};
use smart_sync::Arc;
use std::io::{self, IoSlice, Read, Write};
use std::time::Duration;

/// Sanity cap on a decoded frame length. Far above any real reduction map.
const MAX_FRAME_LEN: u64 = 1 << 32;

/// Payload bytes a peer must deliver before the reader reserves the rest of
/// the length its header claims: a header alone buys at most this much.
const PROBE_LEN: usize = 64 << 10;

/// The socket flavour a mesh runs over: how to bind, accept, and connect.
pub(crate) trait Fabric: Send + Sync + 'static {
    type Addr: Clone + Send + Sync + 'static;
    type Stream: Read + Write + Send + 'static;
    type Listener: Send + 'static;

    /// Bind a fresh listener for `rank` and return it with its address.
    fn bind(rank: usize) -> io::Result<(Self::Listener, Self::Addr)>;
    /// Block for the next inbound connection.
    fn accept(listener: &Self::Listener) -> io::Result<Self::Stream>;
    /// Open a connection to `addr`.
    fn connect(addr: &Self::Addr) -> io::Result<Self::Stream>;
    /// Release any on-disk resource behind `addr` (socket files).
    fn cleanup(_addr: &Self::Addr) {}
}

pub(crate) struct MeshTransport<F: Fabric> {
    rank: usize,
    addrs: Arc<Vec<F::Addr>>,
    /// Lazily opened outgoing streams, one per peer.
    outgoing: Vec<Option<F::Stream>>,
    events_rx: Receiver<Frame>,
    /// Kept alive so the event queue never disconnects while the endpoint
    /// exists ([`Polled::Closed`] is defensive, not expected).
    _events_tx: Sender<Frame>,
    shutdown: Arc<AtomicBool>,
}

/// Build the `n` endpoints of a socket mesh over fabric `F`.
///
/// All listeners are bound before any endpoint is handed out, so a lazy
/// connect from any rank always finds its peer listening.
pub(crate) fn build<F: Fabric>(n: usize) -> Vec<Box<dyn Transport>> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for rank in 0..n {
        // PANIC-FREE: loopback bind at cluster launch; no ranks are running yet, so failing fast is safe and the only useful behavior.
        let (listener, addr) = F::bind(rank).expect("transport: failed to bind listener");
        listeners.push(listener);
        addrs.push(addr);
    }
    let addrs = Arc::new(addrs);
    listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let (events_tx, events_rx) = channel::unbounded();
            let shutdown = Arc::new(AtomicBool::new(false));
            spawn_acceptor::<F>(listener, n, Sender::clone(&events_tx), Arc::clone(&shutdown));
            Box::new(MeshTransport::<F> {
                rank,
                addrs: Arc::clone(&addrs),
                outgoing: (0..n).map(|_| None).collect(),
                events_rx,
                _events_tx: events_tx,
                shutdown,
            }) as Box<dyn Transport>
        })
        .collect()
}

/// Accept loop: one detached thread per endpoint. Exits when the shutdown
/// flag is set and a (self-)connection wakes it.
fn spawn_acceptor<F: Fabric>(
    listener: F::Listener,
    size: usize,
    events_tx: Sender<Frame>,
    shutdown: Arc<AtomicBool>,
) {
    smart_sync::thread::spawn(move || loop {
        let stream = match F::accept(&listener) {
            Ok(s) => s,
            Err(_) => break,
        };
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let tx = Sender::clone(&events_tx);
        smart_sync::thread::spawn(move || reader_loop(stream, size, tx));
    });
}

/// Per-connection reader: hello, then frames until death / EOF / error.
fn reader_loop<S: Read>(mut stream: S, size: usize, events_tx: Sender<Frame>) {
    let mut hello = [0u8; 8];
    if stream.read_exact(&mut hello).is_err() {
        return; // never identified itself: nothing to report
    }
    let src = u64::from_le_bytes(hello) as usize;
    if src >= size {
        return; // not a rank of this universe
    }
    loop {
        let mut header = [0u8; 16];
        if stream.read_exact(&mut header).is_err() {
            // Abrupt disconnect: surface as a death notice so receivers get
            // PeerGone instead of hanging.
            let _ = events_tx.send(Frame { src, tag: DEATH_TAG, payload: Vec::new() });
            return;
        }
        // PANIC-FREE: constant split of a fixed 16-byte header; both halves are exactly 8 bytes.
        let tag = Tag::from_le_bytes(header[..8].try_into().expect("8-byte slice"));
        // PANIC-FREE: constant split of a fixed 16-byte header; both halves are exactly 8 bytes.
        let len = u64::from_le_bytes(header[8..].try_into().expect("8-byte slice"));
        let payload = match usize::try_from(len) {
            Ok(n) if len <= MAX_FRAME_LEN => read_payload(&mut stream, n),
            _ => Err(io::ErrorKind::InvalidData.into()),
        };
        let Ok(payload) = payload else {
            let _ = events_tx.send(Frame { src, tag: DEATH_TAG, payload: Vec::new() });
            return;
        };
        let done = tag == DEATH_TAG;
        let _ = events_tx.send(Frame { src, tag, payload });
        if done {
            return;
        }
    }
}

/// Read exactly `len` payload bytes into a buffer reserved exactly and never
/// zero-filled: first up to [`PROBE_LEN`] bytes, and only once those have
/// arrived the remainder the header claims.
fn read_payload<S: Read>(stream: &mut S, len: usize) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    let probe = len.min(PROBE_LEN);
    read_more(stream, &mut payload, probe)?;
    read_more(stream, &mut payload, len - probe)?;
    Ok(payload)
}

/// Append exactly `n` bytes from `stream` to `buf`, reading straight into
/// freshly reserved capacity.
fn read_more<S: Read>(stream: &mut S, buf: &mut Vec<u8>, n: usize) -> io::Result<()> {
    buf.try_reserve_exact(n).map_err(|_| io::ErrorKind::OutOfMemory)?;
    if stream.by_ref().take(n as u64).read_to_end(buf)? == n {
        Ok(())
    } else {
        Err(io::ErrorKind::UnexpectedEof.into())
    }
}

impl<F: Fabric> MeshTransport<F> {
    /// The established outgoing stream to `dest`, connecting (hello
    /// included) on first use.
    // PANIC-FREE: dest is a communicator-validated rank < size, and outgoing/addrs have one slot per rank.
    fn stream_to(&mut self, dest: usize) -> CommResult<&mut F::Stream> {
        if self.outgoing[dest].is_none() {
            let mut stream =
                F::connect(&self.addrs[dest]).map_err(|_| CommError::PeerGone { peer: dest })?;
            stream
                .write_all(&(self.rank as u64).to_le_bytes())
                .map_err(|_| CommError::PeerGone { peer: dest })?;
            self.outgoing[dest] = Some(stream);
        }
        // PANIC-FREE: the branch above filled the slot if it was empty.
        Ok(self.outgoing[dest].as_mut().expect("just connected"))
    }
}

/// Write one frame, header and payload in a single vectored write (a second
/// write happens only when the socket buffer takes less than the frame).
// PANIC-FREE: constant ranges into a fixed 16-byte header; `sent < 16` guards `header[sent..]`.
fn write_frame<S: Write>(stream: &mut S, tag: Tag, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(&tag.to_le_bytes());
    header[8..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut sent = 0;
    while sent < header.len() {
        let bufs = [IoSlice::new(&header[sent..]), IoSlice::new(payload)];
        match stream.write_vectored(&bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.write_all(payload.get(sent - header.len()..).unwrap_or_default())
}

impl<F: Fabric> Transport for MeshTransport<F> {
    // PANIC-FREE: dest is a communicator-validated rank; outgoing has one slot per rank.
    fn send(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) -> CommResult<()> {
        let stream = self.stream_to(dest)?;
        if write_frame(stream, tag, &payload).is_err() {
            // Connection reset: drop the stream so a later send re-connects
            // (and re-discovers the death) instead of reusing a broken pipe.
            self.outgoing[dest] = None;
            return Err(CommError::PeerGone { peer: dest });
        }
        Ok(())
    }

    fn recv(&mut self) -> Option<Frame> {
        self.events_rx.recv().ok()
    }

    fn try_recv(&mut self) -> Polled {
        match self.events_rx.try_recv() {
            Ok(frame) => Polled::Frame(frame),
            Err(channel::TryRecvError::Empty) => Polled::Empty,
            Err(channel::TryRecvError::Disconnected) => Polled::Closed,
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Polled {
        match self.events_rx.recv_timeout(timeout) {
            Ok(frame) => Polled::Frame(frame),
            Err(channel::RecvTimeoutError::Timeout) => Polled::Empty,
            Err(channel::RecvTimeoutError::Disconnected) => Polled::Closed,
        }
    }

    // PANIC-FREE: dest ranges over 0..size = addrs.len() = outgoing.len(), and rank < size.
    fn notify_death(&mut self) {
        let size = self.addrs.len();
        for dest in 0..size {
            if dest == self.rank {
                continue;
            }
            match self.outgoing[dest].as_mut() {
                Some(stream) => {
                    let _ = write_frame(stream, DEATH_TAG, &[]);
                    let _ = stream.flush();
                }
                None => {
                    // Never talked to this peer: connect out just to deliver
                    // hello + death, so a receiver blocked on us wakes with
                    // PeerGone even though we never sent it data.
                    if let Ok(mut stream) = F::connect(&self.addrs[dest]) {
                        let _ = stream.write_all(&(self.rank as u64).to_le_bytes());
                        let _ = write_frame(&mut stream, DEATH_TAG, &[]);
                        let _ = stream.flush();
                    }
                }
            }
        }
        // Wake our own acceptor so it drops the listener and exits.
        self.shutdown.store(true, Ordering::Release);
        drop(F::connect(&self.addrs[self.rank]));
        F::cleanup(&self.addrs[self.rank]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_memtrack::{MemScope, TrackingAlloc};
    use std::io::Cursor;

    // Counts this test binary's heap, so a test can bound what a lying
    // length prefix makes the reader allocate.
    #[global_allocator]
    static ALLOC: TrackingAlloc = TrackingAlloc::new();

    /// A sink that accepts at most `cap` bytes per call and logs each call.
    struct Recorder {
        cap: usize,
        calls: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let before = self.bytes.len();
            for buf in bufs {
                let room = self.cap - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            self.calls.push(self.bytes.len() - before);
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn wire_frame(tag: Tag, payload: &[u8]) -> Vec<u8> {
        let mut out = tag.to_le_bytes().to_vec();
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Run a reader over `input` (a whole connection's bytes) and collect
    /// what it reported.
    fn read_all(input: Vec<u8>) -> Vec<Frame> {
        let (tx, rx) = channel::unbounded();
        reader_loop(Cursor::new(input), 4, tx);
        std::iter::from_fn(|| rx.try_recv().ok()).collect()
    }

    #[test]
    fn a_frame_is_one_vectored_write() {
        let mut sink = Recorder { cap: usize::MAX, calls: Vec::new(), bytes: Vec::new() };
        write_frame(&mut sink, 9, &[1, 2, 3, 4]).unwrap();
        assert_eq!(sink.calls, vec![20], "header and payload leave together");
        assert_eq!(sink.bytes, wire_frame(9, &[1, 2, 3, 4]));

        // A sink that takes 5 bytes at a time still gets every byte in order.
        let mut slow = Recorder { cap: 5, calls: Vec::new(), bytes: Vec::new() };
        let payload: Vec<u8> = (0..40).collect();
        write_frame(&mut slow, 9, &payload).unwrap();
        assert_eq!(slow.bytes, wire_frame(9, &payload));
    }

    #[test]
    fn reader_sizes_payload_buffers_exactly() {
        let payload: Vec<u8> = (0..PROBE_LEN + 5).map(|i| i as u8).collect();
        let mut input = 2u64.to_le_bytes().to_vec(); // hello from rank 2
        input.extend(wire_frame(7, &payload));
        input.extend(wire_frame(8, &[]));
        let frames = read_all(input);
        assert_eq!(frames.len(), 3);
        assert_eq!((frames[0].src, frames[0].tag), (2, 7));
        assert_eq!(frames[0].payload, payload);
        assert_eq!(frames[0].payload.capacity(), payload.len());
        assert_eq!((frames[1].tag, frames[1].payload.len()), (8, 0));
        assert_eq!(frames[2].tag, DEATH_TAG, "end of input is a death notice");
    }

    /// A connection that says hello, claims a 2 GiB frame and closes: the
    /// receiver gets a death notice, and the claim alone allocates nothing
    /// to speak of. (At the parent commit the reader allocated and
    /// zero-filled the claimed 2 GiB before reading a byte.)
    #[test]
    fn oversize_header_is_a_death_notice_not_an_allocation() {
        let mut input = 1u64.to_le_bytes().to_vec();
        input.extend_from_slice(&7u64.to_le_bytes());
        input.extend_from_slice(&(2u64 << 30).to_le_bytes());
        let scope = MemScope::begin();
        let frames = read_all(input);
        let grown = scope.finish().peak_above_entry;
        assert_eq!(frames.len(), 1);
        assert_eq!((frames[0].src, frames[0].tag), (1, DEATH_TAG));
        assert!(grown < 1 << 20, "a lying header cost {grown} bytes of heap");

        // Beyond the sanity cap the header is rejected outright.
        let mut input = 1u64.to_le_bytes().to_vec();
        input.extend_from_slice(&7u64.to_le_bytes());
        input.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        input.extend_from_slice(&[0; 64]);
        let frames = read_all(input);
        assert_eq!((frames.len(), frames[0].tag), (1, DEATH_TAG));
    }
}
