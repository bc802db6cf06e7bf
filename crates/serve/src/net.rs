//! The TCP front end: a thread per connection, newline-delimited JSON
//! ([`Request`] in, [`Response`] out) over `std::net`, all funnelling
//! into the same [`ServeHandle`] the in-process API uses.

use crate::proto::{Request, Response};
use crate::ServeHandle;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Longest request line the front end reads, its `\n` excluded (1 MiB).
///
/// The longest legitimate request is a `restore`, whose snapshot travels
/// as hex at two characters per byte. The largest snapshot the serve
/// tests produce is 18,994 bytes, a 37,988-character hex string inside a
/// short JSON object, so the cap leaves about 27× headroom for longer
/// episodes and bigger scenarios while bounding what one connection can
/// make the server buffer.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Serves NDJSON requests on `listener` until the engine shuts down.
///
/// Each accepted connection gets its own thread reading one request per
/// line and writing one response per line. A malformed line yields a
/// failure response (the connection survives); a line longer than
/// [`MAX_REQUEST_LINE`] yields a failure response and closes that
/// connection. The loop ends when the client disconnects or the engine
/// goes away.
///
/// # Errors
///
/// Propagates `accept` errors from the listener.
pub fn run_server(listener: TcpListener, handle: ServeHandle) -> std::io::Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        let handle = handle.clone();
        std::thread::Builder::new()
            .name("icoil-serve-conn".to_string())
            .spawn(move || serve_connection(stream, handle))
            .map_err(std::io::Error::other)?;
    }
}

fn serve_connection(stream: TcpStream, handle: ServeHandle) {
    let mut reader = match stream.try_clone() {
        Ok(read_half) => BufReader::new(read_half),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // one byte past the cap is enough to tell an over-long line
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        if line.len() > MAX_REQUEST_LINE {
            let refusal =
                Response::failure(format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
            // returning drops both halves, which closes the connection
            let _ = send(&mut writer, &refusal);
            break;
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        let response = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => handle_line(text, &handle),
            Err(err) => Response::failure(format!("request line is not UTF-8: {err}")),
        };
        if send(&mut writer, &response).is_err() {
            break;
        }
    }
}

/// Writes one response line.
fn send(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut encoded = serde_json::to_string(response).map_err(std::io::Error::other)?;
    encoded.push('\n');
    writer.write_all(encoded.as_bytes())?;
    writer.flush()
}

/// Dispatches one request line; pure with respect to the connection, so
/// tests can drive it without a socket.
pub(crate) fn handle_line(line: &str, handle: &ServeHandle) -> Response {
    let request: Request = match serde_json::from_str(line) {
        Ok(req) => req,
        Err(err) => return Response::failure(format!("malformed request: {err}")),
    };
    match request.op.as_str() {
        "create" => match request.session_config() {
            Some(spec) => match handle.create(spec) {
                Ok(id) => Response::created(id),
                Err(err) => err.into(),
            },
            None => Response::failure("create needs difficulty and seed"),
        },
        "step" => match request.session {
            Some(id) => match handle.step(id) {
                Ok(frame) => Response::stepped(frame),
                Err(err) => err.into(),
            },
            None => Response::failure("step needs a session id"),
        },
        "close" => match request.session {
            Some(id) => match handle.close(id) {
                Ok(()) => Response::closed(),
                Err(err) => err.into(),
            },
            None => Response::failure("close needs a session id"),
        },
        "snapshot" => match request.session {
            Some(id) => match handle.snapshot(id) {
                Ok(bytes) => Response::with_snapshot(&bytes),
                Err(err) => err.into(),
            },
            None => Response::failure("snapshot needs a session id"),
        },
        "evict" => match request.session {
            Some(id) => match handle.evict(id) {
                Ok(bytes) => Response::with_snapshot(&bytes),
                Err(err) => err.into(),
            },
            None => Response::failure("evict needs a session id"),
        },
        "restore" => match request.snapshot_bytes() {
            Some(bytes) => match handle.restore(&bytes) {
                Ok(id) => Response::restored(id),
                Err(err) => err.into(),
            },
            None => Response::failure("restore needs hex snapshot bytes"),
        },
        "metrics" => match handle.metrics() {
            Ok(metrics) => Response::with_metrics(metrics, icoil_nn::simd::dispatch_target()),
            Err(err) => err.into(),
        },
        other => Response::failure(format!("unknown op {other:?}")),
    }
}
