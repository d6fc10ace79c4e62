//! The traced pass's span log: kept in memory, written out at exit.
//!
//! Every traced batch is a `bench.batch` root with three children -
//! `bench.enqueue`, `net.run` (the transport running: `run_until_quiet`,
//! or the window in which the node threads work) and `bench.drain` - and
//! the handler spans the [`crate::cluster::Timed`] nodes recorded hang
//! under `net.run`. A layer's self time is its span minus its children.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::cluster::RawSpan;

/// One traced batch: its start, its run window and its end in nanoseconds
/// since the log's epoch, and the handler calls made during it.
struct Batch {
    start_ns: u64,
    run_ns: (u64, u64),
    end_ns: u64,
    handlers: Vec<RawSpan>,
}

pub struct SpanLog {
    epoch: Instant,
    batches: Vec<Batch>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            batches: Vec::new(),
        }
    }

    /// Files one traced batch.
    pub fn batch(
        &mut self,
        start: Instant,
        run: (Instant, Instant),
        end: Instant,
        handlers: Vec<RawSpan>,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.batches.push(Batch {
            start_ns: ns(start),
            run_ns: (ns(run.0), ns(run.1)),
            end_ns: ns(end),
            handlers,
        });
    }

    /// The node handler calls of every batch filed so far.
    pub fn handler_spans(&self) -> impl Iterator<Item = &RawSpan> {
        self.batches.iter().flat_map(|b| &b.handlers)
    }

    /// Spans the log will write.
    pub fn len(&self) -> usize {
        self.batches.iter().map(|b| 4 + b.handlers.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Writes `<dir>/<workload>.spans.jsonl`, one span per line:
    /// `{id, parent, req, layer, name, start_ns, end_ns}`.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{workload}.spans.jsonl"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let mut next_id = 0u64;
        let mut line = |parent: u64, req: u64, layer: &str, name: &str, from: u64, to: u64| {
            next_id += 1;
            writeln!(
                file,
                "{{\"id\":{next_id},\"parent\":{parent},\"req\":{req},\"layer\":\"{layer}\",\"name\":\"{name}\",\"start_ns\":{from},\"end_ns\":{to}}}"
            )
            .map(|()| next_id)
        };
        for b in &self.batches {
            let root = line(0, 0, "bench", "bench.batch", b.start_ns, b.end_ns)?;
            line(root, 0, "bench", "bench.enqueue", b.start_ns, b.run_ns.0)?;
            let run = line(root, 0, "net", "net.run", b.run_ns.0, b.run_ns.1)?;
            line(root, 0, "bench", "bench.drain", b.run_ns.1, b.end_ns)?;
            for h in &b.handlers {
                line(run, h.req, h.layer(), h.call.name(), h.start_ns, h.end_ns())?;
            }
        }
        file.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Call;
    use std::time::Duration;

    #[test]
    fn writes_a_tree_of_spans() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut log = SpanLog::new(epoch);
        let handler = RawSpan {
            req: 7 << 16,
            start_ns: 12_000,
            dur_ns: 500,
            call: Call::Prepare,
            server: true,
        };
        log.batch(at(10), (at(11), at(20)), at(21), vec![handler]);
        assert_eq!(log.len(), 5);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test-spans");
        let path = log.write(&dir, "unit").expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads back");
        std::fs::remove_dir_all(&dir).expect("cleans up");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"name\":\"bench.batch\"") && lines[0].contains("\"parent\":0"));
        assert_eq!(
            lines[4],
            "{\"id\":5,\"parent\":3,\"req\":458752,\"layer\":\"core.server\",\"name\":\"Prepare\",\"start_ns\":12000,\"end_ns\":12500}"
        );
        for l in lines {
            crate::json::parse(l).expect("every line is JSON");
        }
    }
}
