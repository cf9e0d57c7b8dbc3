//! A closed-loop client around an in-process `park_serve::serve` session.
//!
//! The client sends a request line and waits for its frame before it sends
//! the next: a PARK transaction is evaluated against the previous commit,
//! so a caller needs the delta before it can go on. When a session holds
//! several tenants, the client takes turns between them.

use crate::gen::{OpKind, Tenant};
use park_serve::{serve, ServeOptions};
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// The session's input: the client's request lines.
struct Inbox {
    lines: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for Inbox {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Inbox {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            // The client hung up: end of input.
            let Ok(line) = self.lines.recv() else {
                return Ok(&[]);
            };
            self.buf = line.into_bytes();
            self.buf.push(b'\n');
            self.pos = 0;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The session's output: complete frame lines, passed to the client.
struct Outbox {
    frames: Sender<String>,
    partial: Vec<u8>,
}

/// The `seq` member of a frame line (frames lead with `frame` and `seq`).
pub fn frame_seq(line: &str) -> Option<usize> {
    let rest = &line[line.find("\"seq\":")? + 6..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

impl Write for Outbox {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.partial.extend_from_slice(bytes);
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]).into_owned();
            // hello and bye frames answer no request.
            if !line.starts_with(r#"{"frame":"hello""#) && !line.starts_with(r#"{"frame":"bye""#) {
                let _ = self.frames.send(line);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The op's kind.
    pub kind: OpKind,
    /// Request-to-frame latency.
    pub latency: Duration,
    /// Whether the answer was an `error` frame.
    pub failed: bool,
}

/// What the client saw of one tenant.
#[derive(Debug, Default)]
pub struct TenantRun {
    /// The frames answering create, settle and every timed op, in order.
    pub frames: Vec<String>,
    /// One sample per timed op.
    pub samples: Vec<Sample>,
    /// The `state` frame read after the timed phase.
    pub state: String,
}

/// What one session measured.
#[derive(Debug)]
pub struct SessionRun {
    /// One entry per tenant, in tenant order.
    pub tenants: Vec<TenantRun>,
    /// From sending the first `create` to receiving the last tenant's
    /// first `settle` delta.
    pub setup: Duration,
    /// Wall time of the timed phase, pauses excluded.
    pub timed: Duration,
}

fn is_error(frame: &str) -> bool {
    frame.starts_with(r#"{"frame":"error""#)
}

/// Serve one session to a closed-loop client: create and settle every
/// tenant, then send ops, taking turns between the tenants (each tenant's
/// `turns` in a row), for `timed`; finally read each tenant's full state
/// (untimed). The timed phase is cut into `pauses + 1` equal slices, and
/// `pause` runs between two slices, outside the timed phase.
pub fn run_session(
    tenants: Vec<Tenant>,
    timed: Duration,
    pauses: u32,
    mut pause: impl FnMut(),
) -> SessionRun {
    let (line_tx, line_rx) = channel::<String>();
    let (frame_tx, frame_rx) = channel::<String>();
    let inbox = Inbox {
        lines: line_rx,
        buf: Vec::new(),
        pos: 0,
    };
    let outbox = Outbox {
        frames: frame_tx,
        partial: Vec::new(),
    };
    let opts = ServeOptions::default();
    std::thread::scope(|s| {
        let server = s.spawn(|| serve(inbox, outbox, &opts));
        let ask = |line: String| -> String {
            line_tx.send(line).expect("the session reads input");
            frame_rx.recv().expect("the session answers every request")
        };
        let mut runs: Vec<TenantRun> = tenants.iter().map(|_| TenantRun::default()).collect();
        let started = Instant::now();
        for (t, run) in tenants.iter().zip(&mut runs) {
            run.frames.push(ask(t.create_line()));
            run.frames.push(ask(t.settle_line()));
        }
        let setup = started.elapsed();
        let state_lines: Vec<String> = tenants.iter().map(Tenant::state_line).collect();
        let schedule: Vec<usize> = (0..tenants.len())
            .flat_map(|i| std::iter::repeat_n(i, tenants[i].turns))
            .collect();
        let mut streams: Vec<_> = tenants.into_iter().map(|t| t.ops).collect();
        let slice = timed / (pauses + 1);
        let mut measured = Duration::ZERO;
        let mut turn = 0;
        for k in 0..=pauses {
            if k > 0 {
                pause();
            }
            let slice_start = Instant::now();
            let deadline = slice_start + slice;
            while Instant::now() < deadline {
                let i = schedule[turn % schedule.len()];
                turn += 1;
                let op = streams[i].next_op();
                let t = Instant::now();
                let frame = ask(op.line);
                runs[i].samples.push(Sample {
                    kind: op.kind,
                    latency: t.elapsed(),
                    failed: is_error(&frame),
                });
                runs[i].frames.push(frame);
            }
            measured += slice_start.elapsed();
        }
        for (line, run) in state_lines.into_iter().zip(&mut runs) {
            run.state = ask(line);
        }
        drop(line_tx);
        server
            .join()
            .expect("serve thread panicked")
            .expect("in-memory session I/O cannot fail");
        SessionRun {
            tenants: runs,
            setup,
            timed: measured,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_seq_reads_the_leading_sequence_number() {
        assert_eq!(
            frame_seq(r#"{"frame":"delta","seq":12,"db":"a"}"#),
            Some(12)
        );
        assert_eq!(frame_seq(r#"{"frame":"hello","seq":0}"#), Some(0));
        assert_eq!(frame_seq("garbage"), None);
    }
}
