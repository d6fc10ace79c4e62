//! The write-ahead log with an explicit durability horizon.
//!
//! The log is the container's source of truth: container state is always
//! reconstructible by replaying the durable prefix. Appends go into a
//! buffered tail; [`Wal::flush`] moves the durability horizon to the end;
//! [`Wal::crash`] discards the unflushed tail — exactly the failure model
//! of a disk with a volatile write cache and explicit fsync.
//!
//! The log stands for the *byte image* its records would occupy on a real
//! platter, framed and checksummed by [`crate::frame`]. The image is what
//! disk faults damage: a torn write persists a partial prefix of the
//! volatile tail, a bit flip corrupts a durable byte. Damage is reconciled
//! by `Wal::rescan`, which accepts the longest valid frame prefix, reports
//! what was lost, and hands back the records it decoded — the scanning
//! recovery `Container::recover_from` replays.
//!
//! Nothing reads those bytes but a crash and a scan, so the log frames a
//! record only when one of them comes: until then it keeps the records
//! appended since the image was last built as values (a `Put` shares its
//! contents with the container); a tear sizes them when it needs to.
//! Encoding is canonical, so the image a crash builds is byte for byte
//! the one framing every record at its append would have built.
//!
//! Property tests in `crate::container` crash the log at *every* record
//! boundary and assert recovery yields a prefix-consistent state.

use bytes::Bytes;

use crate::container::TxId;
use crate::frame::{self, ScanEnd};
use crate::object::{ObjectId, Version};

/// One log record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A compaction point: the complete committed state as of this record.
    /// Replay starts from the latest durable checkpoint. Carries no
    /// transaction id.
    Checkpoint {
        /// Every committed `(object, version, contents)` triple.
        state: Vec<(ObjectId, Version, Bytes)>,
        /// The transaction-id counter at checkpoint time, so recovery
        /// never reissues an id used before the compaction.
        next_tx: u64,
    },
    /// A transaction began.
    Begin {
        /// The transaction.
        tx: TxId,
    },
    /// A staged write of `(object, version, value)` by `tx`. Takes effect
    /// only if a matching `Commit` follows.
    Put {
        /// The staging transaction.
        tx: TxId,
        /// Target object.
        object: ObjectId,
        /// Version to install.
        version: Version,
        /// Contents to install.
        value: Bytes,
    },
    /// The participant promised to commit `tx` if told to (two-phase
    /// commit's prepared state). After a crash, a prepared transaction is
    /// *in doubt* and must be resolved by its coordinator. `note` is an
    /// opaque caller tag (the suite servers store the coordinating request
    /// id here so recovery knows whom to ask).
    Prepare {
        /// The promising transaction.
        tx: TxId,
        /// Opaque caller tag reported back by recovery.
        note: u64,
    },
    /// `tx`'s staged writes take effect atomically.
    Commit {
        /// The committing transaction.
        tx: TxId,
    },
    /// `tx`'s staged writes are discarded.
    Abort {
        /// The aborting transaction.
        tx: TxId,
    },
}

impl Record {
    /// The transaction this record belongs to, if any (checkpoints belong
    /// to none).
    pub fn tx(&self) -> Option<TxId> {
        match self {
            Record::Checkpoint { .. } => None,
            Record::Begin { tx }
            | Record::Put { tx, .. }
            | Record::Prepare { tx, .. }
            | Record::Commit { tx }
            | Record::Abort { tx } => Some(*tx),
        }
    }
}

/// What `Wal::rescan` found while reconciling the byte image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Records accepted by the scan (the new log length).
    pub recovered: usize,
    /// Durable records dropped because a complete frame failed its
    /// checksum. Non-zero only under interior corruption.
    pub lost_durable: usize,
    /// Volatile records a torn write happened to persist completely —
    /// work that was in flight at the crash but never acknowledged.
    pub recovered_volatile: usize,
    /// The image ended in an incomplete frame (normal torn tail).
    pub torn_tail: bool,
    /// A complete frame was damaged — acknowledged bytes are gone.
    pub corrupt: bool,
    /// Bytes examined by the scan.
    pub bytes_scanned: usize,
    /// True if the scan accepted bytes at or past a fault-injected
    /// corruption point — a checksum collision. Must never happen; the
    /// chaos oracle turns this into an invariant violation.
    pub poison_escaped: bool,
}

/// An in-memory write-ahead log with fsync semantics.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    /// Records below this index are durable.
    durable_len: usize,
    flushes: u64,
    /// The framed byte image of the records framed so far, damage and all.
    image: Vec<u8>,
    /// Byte offset where each framed record's frame starts in `image`.
    offsets: Vec<usize>,
    /// The records appended since the image was last built, in order: the
    /// log's last `unframed.len()` records.
    unframed: Vec<Record>,
    /// Bytes framed into the image over the log's life.
    framed_bytes: u64,
    /// Lowest image byte damaged by fault injection since the last
    /// rescan/replace — the poison line for the escape tripwire.
    corrupted_from: Option<usize>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Appends a record to the volatile tail.
    pub fn append(&mut self, r: Record) {
        self.unframed.push(r);
    }

    /// Frames the first `n` unframed records into the image.
    fn frame(&mut self, n: usize) {
        for r in self.unframed.drain(..n) {
            self.offsets.push(self.image.len());
            let len = frame::encode_into(&mut self.image, &r);
            self.framed_bytes += len as u64;
        }
    }

    /// Makes everything appended so far durable (fsync).
    pub fn flush(&mut self) {
        if self.durable_len != self.len() {
            self.durable_len = self.len();
            self.flushes += 1;
        }
    }

    /// Simulates a clean crash: the volatile tail is lost.
    pub fn crash(&mut self) {
        self.crash_with_faults(None, &[]);
    }

    /// Simulates a crash with disk faults applied.
    ///
    /// * `tear` — if set, a prefix of the volatile tail's *bytes* persists
    ///   (the write in flight at power-cut made it partway to the
    ///   platter), usually ending mid-frame. The draw picks how many.
    /// * `flips` — each draw flips one bit inside a durable frame's
    ///   crc/payload region, so the damage always fails the checksum
    ///   instead of masquerading as a short frame.
    ///
    /// The durable records are framed first, and the volatile tail too
    /// when a tear keeps some of it. The frame offsets still show the
    /// pre-damage durable prefix; only [`Wal::rescan`] reconciles them
    /// with the image.
    pub(crate) fn crash_with_faults(&mut self, tear: Option<u64>, flips: &[u64]) {
        self.frame(self.durable_len.saturating_sub(self.offsets.len()));
        for &draw in flips {
            self.flip_durable_bit(draw);
        }
        let durable_bytes = self.frame_start(self.durable_len);
        let keep = tear.map_or(0, |draw| {
            let volatile_bytes = self.image.len() - durable_bytes + self.unframed_len();
            (draw as usize).checked_rem(volatile_bytes).unwrap_or(0)
        });
        if keep > 0 {
            self.frame(self.unframed.len());
        }
        self.unframed.clear();
        self.image.truncate(durable_bytes + keep);
        self.offsets.truncate(self.durable_len);
    }

    /// Byte offset where frame `n` starts (== total image length for the
    /// one-past-the-end index when no damage is outstanding).
    fn frame_start(&self, n: usize) -> usize {
        self.offsets.get(n).copied().unwrap_or(self.image.len())
    }

    /// Flips one bit in the checksummed region of a durable frame.
    fn flip_durable_bit(&mut self, draw: u64) {
        if self.durable_len == 0 {
            return;
        }
        let idx = (draw as usize) % self.durable_len;
        let start = self.offsets[idx];
        let end = self.frame_start(idx + 1);
        // Skip magic/version/len (6 bytes): damage lands in crc or payload
        // where the checksum is guaranteed to catch it.
        let region = end - start - 6;
        debug_assert!(region > 0, "frame too small to damage");
        let bit = ((draw >> 16) as usize) % (region * 8);
        let byte = start + 6 + bit / 8;
        self.image[byte] ^= 1 << (bit % 8);
        self.corrupted_from = Some(self.corrupted_from.map_or(byte, |c| c.min(byte)));
    }

    /// Scanning recovery over the byte image: accepts the longest valid
    /// frame prefix, truncates the log to it, and reports what was lost and
    /// why, with the accepted records for replay. After a rescan the log is
    /// clean (all accepted records durable, damage markers cleared).
    pub(crate) fn rescan(&mut self) -> (ScanReport, Vec<Record>) {
        self.frame(self.unframed.len());
        let pre_durable = self.durable_len;
        let bytes_scanned = self.image.len();
        let scan = frame::scan(&self.image);
        let recovered = scan.records.len();
        let report = ScanReport {
            recovered,
            lost_durable: pre_durable.saturating_sub(recovered),
            recovered_volatile: recovered.saturating_sub(pre_durable),
            torn_tail: scan.end == ScanEnd::Torn,
            corrupt: scan.end == ScanEnd::Corrupt,
            bytes_scanned,
            poison_escaped: self.corrupted_from.is_some_and(|c| scan.accepted_bytes > c),
        };
        // Frame encoding is canonical, so the accepted prefix of the image
        // already is the image of the accepted records.
        self.image.truncate(scan.accepted_bytes);
        self.offsets = scan.offsets;
        self.durable_len = self.len();
        self.corrupted_from = None;
        (report, scan.records)
    }

    /// Total records appended (including the volatile tail).
    pub fn len(&self) -> usize {
        self.offsets.len() + self.unframed.len()
    }

    /// True if no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the framed byte image, damage included, with the records
    /// not framed yet counted at the size they will take.
    pub fn image_bytes(&self) -> usize {
        self.image.len() + self.unframed_len()
    }

    /// The bytes the records not framed yet will take in the image.
    fn unframed_len(&self) -> usize {
        self.unframed.iter().map(frame::encoded_len).sum()
    }

    /// Bytes framed and checksummed into the image over the log's life:
    /// zero until a crash or a scan reads it. ([`Wal::durable_prefix`]
    /// frames its copy, and counts there.)
    pub fn framed_bytes(&self) -> u64 {
        self.framed_bytes
    }

    /// How many times the durability horizon advanced — the "fsync count",
    /// the dominant cost of a commit on 1979 hardware and still the number
    /// a storage benchmark cares about.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Empties the log for a compaction: what is appended next, and made
    /// durable by the next [`Wal::flush`], is the whole log. Records never
    /// framed go unframed, and the image's buffers are freed: only the
    /// next crash or scan builds an image again.
    pub(crate) fn restart(&mut self) {
        self.image = Vec::new();
        self.offsets = Vec::new();
        self.unframed.clear();
        self.durable_len = 0;
        self.corrupted_from = None;
    }

    /// A copy of the log truncated to its first `n` records, all durable
    /// and framed — the state an independent observer would recover from if
    /// the machine died right after record `n` hit the disk. Used by
    /// crash-point property tests.
    pub fn durable_prefix(&self, n: usize) -> Wal {
        let n = n.min(self.len());
        let framed = n.min(self.offsets.len());
        let mut prefix = Wal {
            durable_len: n,
            image: self.image[..self.frame_start(framed)].to_vec(),
            offsets: self.offsets[..framed].to_vec(),
            ..Wal::default()
        };
        for r in &self.unframed[..n - framed] {
            prefix.append(r.clone());
        }
        prefix.frame(n - framed);
        prefix
    }
}

#[cfg(test)]
impl Wal {
    /// Appends `r` and frames it at once, as the log did before framing
    /// waited for a crash: the reference a lazily built image must equal.
    pub(crate) fn append_framed(&mut self, r: Record) {
        self.append(r);
        self.frame(self.unframed.len());
    }

    /// The image built so far and where each of its frames starts.
    pub(crate) fn image(&self) -> (&[u8], &[usize]) {
        (&self.image, &self.offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record the log holds, framed and decoded the way recovery
    /// does, on a copy: reading leaves the log as lazy as it was.
    fn decoded(w: &Wal) -> Vec<Record> {
        let mut w = w.clone();
        w.frame(w.unframed.len());
        frame::scan(&w.image).records
    }

    fn put(tx: u64, obj: u64, ver: u64) -> Record {
        Record::Put {
            tx: TxId(tx),
            object: ObjectId(obj),
            version: Version(ver),
            value: Bytes::from_static(b"x"),
        }
    }

    #[test]
    fn crash_discards_unflushed_tail() {
        let mut w = Wal::new();
        w.append(Record::Begin { tx: TxId(1) });
        w.append(put(1, 7, 1));
        w.flush();
        w.append(Record::Commit { tx: TxId(1) });
        assert_eq!(w.len(), 3);
        assert_eq!(w.durable_len, 2);
        w.crash();
        assert_eq!(w.len(), 2);
        assert_eq!(decoded(&w).last(), Some(&put(1, 7, 1)));
    }

    #[test]
    fn flush_counts_only_real_advances() {
        let mut w = Wal::new();
        w.flush();
        assert_eq!(w.flushes(), 0);
        w.append(Record::Begin { tx: TxId(1) });
        w.flush();
        w.flush();
        assert_eq!(w.flushes(), 1);
    }

    #[test]
    fn durable_prefix_is_independent() {
        let mut w = Wal::new();
        for i in 0..5 {
            w.append(Record::Begin { tx: TxId(i) });
        }
        w.flush();
        let p = w.durable_prefix(3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.durable_len, 3);
        assert_eq!(decoded(&p), decoded(&w)[..3]);
        // The prefix is framed; the log it was taken from is not.
        assert_eq!(p.framed_bytes(), p.image_bytes() as u64);
        assert_eq!(p.image().0.len(), p.image_bytes());
        assert_eq!(w.framed_bytes(), 0);
        // Prefix longer than the log clamps.
        assert_eq!(w.durable_prefix(99).len(), 5);
    }

    #[test]
    fn a_prefix_across_framed_and_unframed_records_is_the_one_an_eager_log_gives() {
        let mut lazy = Wal::new();
        let mut eager = Wal::new();
        for i in 0..3 {
            lazy.append(put(i, 7, i + 1));
            eager.append_framed(put(i, 7, i + 1));
        }
        lazy.flush();
        eager.flush();
        lazy.crash();
        lazy.rescan();
        for i in 3..6 {
            lazy.append(Record::Begin { tx: TxId(i) });
            eager.append_framed(Record::Begin { tx: TxId(i) });
        }
        for n in 0..=6 {
            let (l, e) = (lazy.durable_prefix(n), eager.durable_prefix(n));
            assert_eq!(l.image(), e.image(), "prefix {n}");
            assert_eq!((l.len(), l.durable_len), (n, n));
        }
    }

    #[test]
    fn record_tx_accessor() {
        assert_eq!(put(9, 1, 1).tx(), Some(TxId(9)));
        assert_eq!(Record::Abort { tx: TxId(2) }.tx(), Some(TxId(2)));
        assert_eq!(
            Record::Prepare {
                tx: TxId(3),
                note: 0
            }
            .tx(),
            Some(TxId(3))
        );
        assert_eq!(
            Record::Checkpoint {
                state: Vec::new(),
                next_tx: 0
            }
            .tx(),
            None
        );
    }

    #[test]
    fn a_restarted_log_is_what_is_appended_after() {
        let mut w = Wal::new();
        for i in 0..5 {
            w.append(Record::Begin { tx: TxId(i) });
        }
        w.flush();
        w.restart();
        let checkpoint = Record::Checkpoint {
            state: Vec::new(),
            next_tx: 5,
        };
        w.append(checkpoint.clone());
        w.flush();
        assert_eq!((w.len(), w.durable_len, w.flushes()), (1, 1, 2));
        // The volatile tail rule still applies after a restart.
        w.append(Record::Begin { tx: TxId(9) });
        w.crash();
        assert_eq!(decoded(&w), [checkpoint]);
    }

    #[test]
    fn empty_log() {
        let w = Wal::new();
        assert!(w.is_empty());
        assert_eq!(w.durable_len, 0);
        assert_eq!(w.image_bytes(), 0);
    }

    #[test]
    fn clean_rescan_is_a_no_op() {
        let mut w = Wal::new();
        w.append(Record::Begin { tx: TxId(1) });
        w.append(put(1, 7, 1));
        w.flush();
        let before = decoded(&w);
        let bytes = w.image_bytes();
        assert_eq!(w.framed_bytes(), 0, "nothing has read the image yet");
        w.crash();
        assert_eq!(w.framed_bytes(), bytes as u64, "the crash framed it all");
        let (report, records) = w.rescan();
        assert_eq!(records, before);
        assert_eq!(
            report,
            ScanReport {
                recovered: 2,
                bytes_scanned: bytes,
                ..ScanReport::default()
            }
        );
        assert_eq!(w.image_bytes(), bytes);
    }

    #[test]
    fn torn_crash_persists_a_partial_tail_and_rescan_truncates_it() {
        let mut w = Wal::new();
        w.append(Record::Begin { tx: TxId(1) });
        w.flush();
        let durable_bytes = w.image_bytes();
        w.append(put(1, 7, 1));
        w.append(Record::Commit { tx: TxId(1) });
        // A draw landing mid-frame: keep a handful of volatile bytes.
        w.crash_with_faults(Some(durable_bytes as u64 + 5), &[]);
        assert!(w.image_bytes() > durable_bytes, "some torn bytes persisted");
        let (report, _) = w.rescan();
        assert!(report.torn_tail);
        assert!(!report.corrupt);
        assert_eq!(report.lost_durable, 0, "torn tails never lose acked data");
        assert!(!w.is_empty(), "durable prefix survives");
        assert_eq!(decoded(&w).first(), Some(&Record::Begin { tx: TxId(1) }));
    }

    #[test]
    fn a_tear_can_persist_whole_volatile_records() {
        let mut w = Wal::new();
        w.append(Record::Begin { tx: TxId(1) });
        w.flush();
        w.append(put(1, 7, 1));
        let full = w.image_bytes();
        w.append(Record::Commit { tx: TxId(1) });
        // Keep exactly through the end of the Put frame plus 3 bytes of
        // the Commit frame: the Put becomes durable, the Commit is torn.
        let durable_bytes = {
            let p = w.durable_prefix(1);
            p.image_bytes()
        };
        let volatile = w.image_bytes() - durable_bytes;
        let keep = full - durable_bytes + 3;
        assert!(keep < volatile);
        w.crash_with_faults(Some(keep as u64), &[]);
        let (report, _) = w.rescan();
        assert!(report.torn_tail);
        assert_eq!(report.recovered_volatile, 1, "the Put frame persisted");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn a_bit_flip_corrupts_a_durable_record_and_rescan_detects_it() {
        let mut w = Wal::new();
        for i in 0..4 {
            w.append(Record::Begin { tx: TxId(i) });
        }
        w.flush();
        // Draw 1 targets frame 1 of 4; the scan must stop there.
        w.crash_with_faults(None, &[1]);
        let (report, _) = w.rescan();
        assert!(report.corrupt);
        assert!(!report.poison_escaped, "checksum must catch the flip");
        assert_eq!(report.recovered, 1);
        assert_eq!(report.lost_durable, 3, "everything after the damage goes");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn rescan_keeps_exactly_the_image_a_re_encode_would_build() {
        let build = || {
            let mut w = Wal::new();
            for i in 0..4 {
                w.append(Record::Begin { tx: TxId(i) });
                w.append(put(i, 7, i + 1));
            }
            w.flush();
            w.append(Record::Commit { tx: TxId(3) });
            w
        };
        // Clean, torn mid-frame, and a flip in durable frame 5.
        let damage: [(Option<u64>, &[u64]); 3] = [(None, &[]), (Some(4), &[]), (None, &[5])];
        for (tear, flips) in damage {
            let mut w = build();
            w.crash_with_faults(tear, flips);
            let (_, records) = w.rescan();
            let mut fresh = Wal::new();
            for r in records {
                fresh.append_framed(r);
            }
            assert_eq!(w.image(), fresh.image());
            // Appends land on a frame boundary of the truncated image.
            w.append(Record::Abort { tx: TxId(9) });
            w.flush();
            w.crash();
            let (report, records) = w.rescan();
            assert!(!report.corrupt);
            assert_eq!(records.last(), Some(&Record::Abort { tx: TxId(9) }));
        }
    }

    #[test]
    fn rescan_leaves_a_clean_log_behind() {
        let mut w = Wal::new();
        for i in 0..4 {
            w.append(Record::Begin { tx: TxId(i) });
        }
        w.flush();
        w.crash_with_faults(None, &[2]);
        let (first, _) = w.rescan();
        assert!(first.corrupt);
        // A second crash/rescan cycle sees no damage at all.
        w.crash();
        let (second, _) = w.rescan();
        assert!(!second.corrupt && !second.torn_tail);
        assert_eq!(second.recovered, first.recovered);
        assert_eq!(second.lost_durable, 0);
    }
}
