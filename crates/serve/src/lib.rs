//! # park-serve
//!
//! A resident `park` process: rule programs are compiled once, databases
//! stay hot in memory, and transaction update streams arrive as ndjson —
//! over stdin or a TCP socket — each answered with per-transaction
//! result deltas (added / removed / blocked), optional trace events, and
//! park-metrics/v1 documents. One session can hold many named databases
//! (each an [`park::db::ActiveDatabase`] with its own vocabulary, policy
//! and journal), reload rule programs without losing state, and shut
//! down cleanly with a final snapshot per database.
//!
//! The wire protocol is **`park-serve/v1`**, specified in docs/serve.md
//! and implemented in [`protocol`]. The execution model — receiver →
//! scheduler → per-database worker → sequence-ordered sink — lives in
//! [`pipeline`]; per-database behavior in [`session`].
//!
//! Determinism: frames carry no timestamps (metrics documents are the
//! opt-in exception), output order is the request order, and every
//! transaction runs under a fresh policy instance, so a served session
//! transcript is byte-reproducible and transaction deltas byte-match
//! the same updates applied by chained one-shot `park run` processes.
//!
//! ```
//! use park_serve::{serve, ServeOptions};
//!
//! let input = concat!(
//!     r#"{"op":"create","db":"hr","program":"onleave: -active(X) -> +offboard(X).","facts":"active(ann)."}"#, "\n",
//!     r#"{"op":"transact","db":"hr","updates":"-active(ann)."}"#, "\n",
//!     r#"{"op":"shutdown"}"#, "\n",
//! );
//! let mut out = Vec::new();
//! serve(input.as_bytes(), &mut out, &ServeOptions::default()).unwrap();
//! let out = String::from_utf8(out).unwrap();
//! assert!(out.lines().any(|l| l.contains(r#""added":["offboard(ann)"]"#)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod protocol;
pub mod session;

pub use pipeline::serve;
pub use protocol::SCHEMA;
pub use session::{resolve_policy, DbSession};

use park::engine::ResolutionScope;
use std::io::{BufReader, Write};
use std::net::TcpListener;

/// Session-level defaults, overridable per database at `create`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Default `SELECT` policy name (never `interactive`; see
    /// [`resolve_policy`]).
    pub policy: String,
    /// Default conflict-resolution scope.
    pub scope: ResolutionScope,
    /// Open databases with cross-transaction incremental evaluation by
    /// default (see docs/incremental.md). Committed results are
    /// byte-identical either way; certified insert-only transactions skip
    /// the cold from-`D` run.
    pub incremental: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            policy: "inertia".into(),
            scope: ResolutionScope::default(),
            incremental: false,
        }
    }
}

/// Bind `addr` and serve connections: each connection is one full
/// session (its own databases, its own sequence numbers), handled one
/// at a time in accept order. The bound address is reported on `status`
/// as `park-serve listening on <addr>` — with port 0 this is how the
/// caller learns the real port. With `once`, returns after the first
/// session ends; otherwise accepts forever.
pub fn serve_tcp(
    addr: &str,
    once: bool,
    opts: &ServeOptions,
    status: &mut dyn Write,
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    writeln!(status, "park-serve listening on {}", listener.local_addr()?)?;
    status.flush()?;
    loop {
        let (stream, _) = listener.accept()?;
        let reader = BufReader::new(stream.try_clone()?);
        // A dropped connection mid-session is that session's problem,
        // not the server's: keep accepting.
        let result = serve(reader, stream, opts);
        if once {
            return result;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpStream;

    #[test]
    fn tcp_session_round_trips_over_a_socket() {
        let opts = ServeOptions::default();
        std::thread::scope(|s| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            s.spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let reader = BufReader::new(stream.try_clone().unwrap());
                serve(reader, stream, &opts).unwrap();
            });
            let mut client = TcpStream::connect(addr).unwrap();
            writeln!(
                client,
                r#"{{"op":"create","db":"hr","program":"p -> +q.","facts":"p."}}"#
            )
            .unwrap();
            writeln!(client, r#"{{"op":"settle","db":"hr"}}"#).unwrap();
            writeln!(client, r#"{{"op":"shutdown"}}"#).unwrap();
            let reader = BufReader::new(client);
            let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 4, "hello, created, delta, bye: {lines:?}");
            assert!(lines[0].contains("park-serve/v1"));
            assert!(lines[2].contains(r#""added":["q"]"#), "{}", lines[2]);
            assert!(lines[3].contains(r#""frame":"bye""#));
        });
    }

    #[test]
    fn serve_options_defaults_are_the_cli_defaults() {
        let o = ServeOptions::default();
        assert_eq!(o.policy, "inertia");
        assert_eq!(o.scope, ResolutionScope::All);
        assert!(!o.incremental);
    }
}
