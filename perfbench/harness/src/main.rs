//! `perfbench-harness` — the compiled half of the repository benchmark
//! (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench-harness trace --workload repro-cold --jobs 2 --out spans.json
//! perfbench-harness checksums --out checksums.json
//! perfbench-harness client --addr 127.0.0.1:8016 --plan plan.txt --conns 2 --out records.bin
//! ```
//!
//! `trace` redoes a batch workload through each layer's entry points and
//! writes its spans, counters and per-operation verdicts as JSON.
//! `checksums` writes the registry's pinned checksum of every workload
//! as one JSON object, name to value, in registry order.
//! `client` replays a request plan (one JSON body per line) and writes
//! one record per request: a header line
//! `index conn start_ns end_ns status service_ns cache body_len`, then
//! the body bytes and a newline, after a first line `wall_ns N`.
//! Exit codes: 0 ok, 1 failure, 2 usage error.

mod client;
mod spans;
mod trace;

use std::io::Write;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench-harness: {msg}");
    eprintln!("usage: perfbench-harness trace --workload W --jobs N --out FILE");
    eprintln!("       perfbench-harness checksums --out FILE");
    eprintln!("       perfbench-harness client --addr HOST:PORT --plan FILE --conns N --out FILE");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-harness: {msg}");
    std::process::exit(1);
}

/// `--flag value` pairs after the subcommand.
fn flags(args: &[String]) -> std::collections::BTreeMap<&str, &str> {
    if !args.len().is_multiple_of(2) {
        usage("flags come in `--name value` pairs");
    }
    args.chunks(2)
        .map(|p| match p[0].strip_prefix("--") {
            Some(name) => (name, p[1].as_str()),
            None => usage(&format!("unexpected argument `{}`", p[0])),
        })
        .collect()
}

/// `{"name": expected, ...}` over every registered workload with a
/// pinned checksum, suite then extras.
fn checksums_json() -> String {
    let pairs: Vec<String> = d16_workloads::SUITE
        .iter()
        .chain(d16_workloads::EXTRAS)
        .filter_map(|w| w.expected.map(|e| format!("{}: {e}", spans::json_str(w.name))))
        .collect();
    format!("{{{}}}\n", pairs.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage("missing subcommand") };
    let f = flags(&args[1..]);
    let get =
        |name: &str| f.get(name).copied().unwrap_or_else(|| usage(&format!("missing --{name}")));
    let count = |name: &str| match get(name).parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => usage(&format!("--{name} must be a positive integer")),
    };
    let out_path = get("out");
    let doc: Vec<u8> = match cmd.as_str() {
        "trace" => match trace::run(get("workload"), count("jobs")) {
            Ok(doc) => doc.into_bytes(),
            Err(e) => fail(&e),
        },
        "checksums" => checksums_json().into_bytes(),
        "client" => {
            let plan_text = std::fs::read(get("plan"))
                .unwrap_or_else(|e| fail(&format!("--plan {}: {e}", get("plan"))));
            let plan: Vec<Vec<u8>> = plan_text
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .map(<[u8]>::to_vec)
                .collect();
            let timeout = Duration::from_millis(30_000);
            let (records, wall_ns) = client::replay(get("addr"), &plan, count("conns"), timeout);
            let mut out = format!("wall_ns {wall_ns}\n").into_bytes();
            for r in records {
                out.extend_from_slice(
                    format!(
                        "{} {} {} {} {} {} {} {}\n",
                        r.index,
                        r.conn,
                        r.start_ns,
                        r.end_ns,
                        r.status,
                        r.service_ns,
                        r.cache,
                        r.body.len()
                    )
                    .as_bytes(),
                );
                out.extend_from_slice(&r.body);
                out.push(b'\n');
            }
            out
        }
        other => usage(&format!("unknown subcommand `{other}`")),
    };
    let written = std::fs::File::create(out_path).and_then(|mut file| {
        file.write_all(&doc)?;
        file.flush()
    });
    if let Err(e) = written {
        fail(&format!("--out {out_path}: {e}"));
    }
}
