//! The closed-loop serve client: `conns` callers share one request plan
//! and each sends its next request only after the previous reply. A
//! minimal HTTP/1.1 client of its own keeps the measuring side
//! independent of the service's code.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One answered (or failed) request, in client time.
pub struct Record {
    /// Position in the plan.
    pub index: usize,
    pub conn: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// HTTP status; 0 when the transport failed or timed out.
    pub status: u16,
    /// The service's own time (`X-D16-Wall-Ns`), when reported.
    pub service_ns: u64,
    /// `X-D16-Cache` (`hit`/`miss`), or `-`.
    pub cache: String,
    pub body: Vec<u8>,
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// Status, lower-cased headers and body of one response.
type Response = (u16, Vec<(String, String)>, Vec<u8>);

/// Splits a raw response into status, headers and body; `None` when it
/// is not HTTP or its body is shorter than its `Content-Length`.
fn parse_response(raw: &[u8]) -> Option<Response> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect::<Vec<_>>();
    let body = raw[end + 4..].to_vec();
    let declared = headers.iter().find(|(k, _)| k == "content-length");
    match declared.map(|(_, v)| v.parse::<usize>()) {
        Some(Ok(n)) if n != body.len() => None,
        Some(Err(_)) => None,
        _ => Some((status, headers, body)),
    }
}

fn post(addr: &str, body: &[u8], timeout: Duration) -> std::io::Result<Vec<u8>> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(timeout))?;
    s.set_write_timeout(Some(timeout))?;
    let head = format!(
        "POST /v1/run HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())?;
    s.write_all(body)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    Ok(raw)
}

/// Replays `plan` over `conns` closed-loop callers. Returns the records
/// in plan order and the wall time from the first send to the last
/// reply.
pub fn replay(addr: &str, plan: &[Vec<u8>], conns: usize, timeout: Duration) -> (Vec<Record>, u64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(plan.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for conn in 0..conns.max(1) {
            let (next, out) = (&next, &out);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(body) = plan.get(index) else { break };
                    let start_ns = ns_since(t0);
                    let parsed =
                        post(addr, body, timeout).ok().and_then(|raw| parse_response(&raw));
                    let end_ns = ns_since(t0);
                    let (status, headers, body) = parsed.unwrap_or((0, Vec::new(), Vec::new()));
                    let header = |name: &str| {
                        headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
                    };
                    local.push(Record {
                        index,
                        conn,
                        start_ns,
                        end_ns,
                        status,
                        service_ns: header("x-d16-wall-ns")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0),
                        cache: header("x-d16-cache").unwrap_or_else(|| "-".to_string()),
                        body,
                    });
                }
                out.lock().expect("a client thread panicked while recording").extend(local);
            });
        }
    });
    let wall = ns_since(t0);
    let mut records = out.into_inner().expect("a client thread panicked while recording");
    records.sort_by_key(|r| r.index);
    (records, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_and_truncation_is_rejected() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX-D16-Cache: hit\r\n\r\nabc";
        let (status, headers, body) = parse_response(raw).unwrap();
        assert_eq!(status, 200);
        assert!(headers.contains(&("x-d16-cache".to_string(), "hit".to_string())));
        assert_eq!(body, b"abc");
        assert!(parse_response(&raw[..raw.len() - 1]).is_none());
        assert!(parse_response(b"garbage").is_none());
    }
}
