//! The recoverable object container.
//!
//! A [`Container`] is the paper's *container*: the stable home of
//! representatives at one site. It supports local atomic transactions and
//! the participant half of two-phase commit:
//!
//! ```text
//! begin -> stage_put* -> commit            (local atomic update)
//! begin -> stage_put* -> prepare -> commit (participant in 2PC)
//!                                \-> abort
//! ```
//!
//! All mutations go through the write-ahead log; committed state is always
//! reconstructible by replay, and [`Container::crash`] +
//! [`Container::recover`] exercise exactly that path.
//!
//! Committed objects and live transactions are found by hash: a version
//! inquiry is one lookup. What a caller or the log can see in order —
//! [`Container::objects`], [`Container::in_doubt_notes`], the checkpoint
//! record and the transactions journalled behind it — is sorted by id as
//! it is built.

use std::fmt;

use bytes::Bytes;

use crate::error::StorageError;
use crate::faults::DiskFaults;
use crate::hash::IdHashMap;
use crate::object::{ObjectId, Version, VersionedValue};
use crate::wal::{Record, Wal};

/// A container-local transaction id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// Where a live transaction stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxPhase {
    /// Accepting staged writes; will vanish on crash.
    Active,
    /// Promised to commit; survives crashes as an in-doubt transaction.
    Prepared,
}

#[derive(Clone, Debug)]
struct TxState {
    phase: TxPhase,
    // In object order, one entry per object (see `stage`). A transaction
    // stages one or two objects.
    writes: Vec<(ObjectId, VersionedValue)>,
    // Caller tag recorded at prepare time (0 until prepared).
    note: u64,
}

/// The most emptied staging lists a [`Container`] keeps for reuse.
const SPARE_LISTS: usize = 64;

impl TxState {
    /// An active transaction staging into `writes`, an empty list.
    fn new(writes: Vec<(ObjectId, VersionedValue)>) -> Self {
        TxState {
            phase: TxPhase::Active,
            writes,
            note: 0,
        }
    }

    /// Stages `vv` for `object`; a later write to an object replaces the
    /// earlier one.
    fn stage(&mut self, object: ObjectId, vv: VersionedValue) {
        match self.writes.binary_search_by_key(&object, |(o, _)| *o) {
            Ok(i) => self.writes[i].1 = vv,
            Err(i) => self.writes.insert(i, (object, vv)),
        }
    }
}

/// What a scanning recovery found and decided.
///
/// The caller (a suite server) uses this to distinguish the two damage
/// classes: a torn tail is business as usual, interior corruption means
/// acknowledged state regressed and the replica must be quarantined until
/// repair restores it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Records replayed into the recovered state.
    pub replayed_records: u64,
    /// The log ended in an incomplete frame (torn write) — truncated,
    /// nothing acknowledged was lost.
    pub torn_tail: bool,
    /// A complete, acknowledged record failed its checksum — the log was
    /// truncated at the damage and the suffix (`lost_records` of them) is
    /// gone. The replica's committed state may have regressed.
    pub corrupt_interior: bool,
    /// Durable records lost to interior corruption.
    pub lost_records: u64,
    /// In-flight (never-flushed) records a torn write happened to persist;
    /// they replay normally — prepares among them surface as in-doubt.
    pub recovered_volatile: u64,
    /// Bytes the recovery scan examined.
    pub bytes_scanned: u64,
    /// The scan accepted bytes past a fault-injected corruption point (a
    /// checksum collision). Must never be true; the chaos oracle turns it
    /// into an invariant violation.
    pub poison_escaped: bool,
    /// Prepared-but-undecided transactions restored by the scan, with the
    /// notes recorded at prepare time — the coordinator request ids the
    /// decision-probe path must resolve.
    pub in_doubt: Vec<(TxId, u64)>,
}

/// A crash-recoverable versioned object store.
#[derive(Clone, Debug, Default)]
pub struct Container {
    wal: Wal,
    committed: IdHashMap<ObjectId, VersionedValue>,
    live: IdHashMap<TxId, TxState>,
    next_tx: u64,
    crashed: bool,
    faults: DiskFaults,
    /// Staging lists of finished transactions, emptied, at most
    /// [`SPARE_LISTS`]: the next transaction stages without an allocation.
    spare: Vec<Vec<(ObjectId, VersionedValue)>>,
}

impl Container {
    /// An empty container with an empty log.
    pub fn new() -> Self {
        Container::default()
    }

    /// Rebuilds a container from a log — the recovery procedure.
    ///
    /// Only the durable prefix of `wal` is replayed (anything after the
    /// durability horizon did not survive the crash by definition).
    /// Transactions with a durable `Prepare` but no outcome record are
    /// restored as in-doubt ([`TxPhase::Prepared`]); everything else that
    /// didn't commit is implicitly aborted.
    pub fn recover_from(wal: Wal) -> Self {
        Container::recover_from_scan(wal).0
    }

    /// Scanning recovery: like [`Container::recover_from`], but first
    /// reconciles the log's byte image — truncating at the first torn or
    /// bad-checksum frame — and reports what the scan found alongside the
    /// recovered container.
    pub fn recover_from_scan(mut wal: Wal) -> (Self, RecoveryOutcome) {
        wal.crash(); // drop any volatile tail (keeps injected damage)
        let (report, records) = wal.rescan();
        let mut committed = IdHashMap::default();
        let mut live: IdHashMap<TxId, TxState> = IdHashMap::default();
        let mut next_tx = 0u64;
        for r in records {
            if let Some(tx) = r.tx() {
                next_tx = next_tx.max(tx.0 + 1);
            }
            match r {
                Record::Checkpoint {
                    state,
                    next_tx: hint,
                } => {
                    // A checkpoint is the full committed state at that
                    // point; anything replayed earlier is superseded.
                    committed = state
                        .into_iter()
                        .map(|(o, v, val)| (o, VersionedValue::new(v, val)))
                        .collect();
                    next_tx = next_tx.max(hint);
                }
                Record::Begin { tx } => {
                    live.insert(tx, TxState::new(Vec::new()));
                }
                Record::Put {
                    tx,
                    object,
                    version,
                    value,
                } => {
                    if let Some(st) = live.get_mut(&tx) {
                        st.stage(object, VersionedValue::new(version, value));
                    }
                }
                Record::Prepare { tx, note } => {
                    if let Some(st) = live.get_mut(&tx) {
                        st.phase = TxPhase::Prepared;
                        st.note = note;
                    }
                }
                Record::Commit { tx } => {
                    if let Some(st) = live.remove(&tx) {
                        for (obj, vv) in st.writes {
                            committed.insert(obj, vv);
                        }
                    }
                }
                Record::Abort { tx } => {
                    live.remove(&tx);
                }
            }
        }
        // Unprepared work does not survive a crash.
        live.retain(|_, st| st.phase == TxPhase::Prepared);
        let container = Container {
            wal,
            committed,
            live,
            next_tx,
            crashed: false,
            faults: DiskFaults::default(),
            spare: Vec::new(),
        };
        let outcome = RecoveryOutcome {
            replayed_records: report.recovered as u64,
            torn_tail: report.torn_tail,
            corrupt_interior: report.corrupt,
            lost_records: report.lost_durable as u64,
            recovered_volatile: report.recovered_volatile as u64,
            bytes_scanned: report.bytes_scanned as u64,
            poison_escaped: report.poison_escaped,
            in_doubt: container.in_doubt_notes(),
        };
        (container, outcome)
    }

    fn check_up(&self) -> Result<(), StorageError> {
        if self.crashed {
            Err(StorageError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Starts a transaction.
    ///
    /// This is where injected transient I/O errors surface: new work is
    /// refused at admission with [`StorageError::Io`], while decided
    /// outcomes (commit/abort of an already-prepared transaction) always
    /// apply — a participant never half-fails a promise it made.
    pub fn begin(&mut self) -> Result<TxId, StorageError> {
        self.check_up()?;
        if self.faults.take_io_error() {
            return Err(StorageError::Io);
        }
        let tx = TxId(self.next_tx);
        self.next_tx += 1;
        self.wal.append(&Record::Begin { tx });
        let writes = self.spare.pop().unwrap_or_default();
        self.live.insert(tx, TxState::new(writes));
        Ok(tx)
    }

    /// Stages a write of `(object, version, value)` into `tx`.
    ///
    /// The write is invisible to reads until `tx` commits. A second staged
    /// write to the same object replaces the first.
    pub fn stage_put(
        &mut self,
        tx: TxId,
        object: ObjectId,
        version: Version,
        value: impl Into<Bytes>,
    ) -> Result<(), StorageError> {
        self.check_up()?;
        let st = self.live.get_mut(&tx).ok_or(StorageError::UnknownTx(tx))?;
        if st.phase != TxPhase::Active {
            return Err(StorageError::WrongPhase {
                tx,
                op: "stage_put",
            });
        }
        let value = value.into();
        st.stage(object, VersionedValue::new(version, value.clone()));
        self.wal.append(&Record::Put {
            tx,
            object,
            version,
            value,
        });
        Ok(())
    }

    /// Moves `tx` to the prepared state (participant vote in 2PC).
    ///
    /// The promise is flushed: after this returns, a crash leaves `tx`
    /// in doubt rather than aborted.
    pub fn prepare(&mut self, tx: TxId) -> Result<(), StorageError> {
        self.prepare_with_note(tx, 0)
    }

    /// Like [`Container::prepare`], tagging the promise with an opaque
    /// `note` that recovery reports back via [`Container::in_doubt_notes`]
    /// (suite servers store the coordinating request id there).
    pub fn prepare_with_note(&mut self, tx: TxId, note: u64) -> Result<(), StorageError> {
        self.prepare_with_note_unflushed(tx, note)?;
        self.wal.flush();
        Ok(())
    }

    /// Like [`Container::prepare_with_note`] but *without* the durability
    /// flush: the promise sits in the volatile log tail until the caller
    /// flushes (group commit). Until then a crash aborts the transaction —
    /// which is safe exactly as long as no vote has left the site.
    pub fn prepare_with_note_unflushed(&mut self, tx: TxId, note: u64) -> Result<(), StorageError> {
        self.check_up()?;
        let st = self.live.get_mut(&tx).ok_or(StorageError::UnknownTx(tx))?;
        if st.phase != TxPhase::Active {
            return Err(StorageError::WrongPhase { tx, op: "prepare" });
        }
        st.phase = TxPhase::Prepared;
        st.note = note;
        self.wal.append(&Record::Prepare { tx, note });
        Ok(())
    }

    /// Commits `tx`: its staged writes become visible atomically and
    /// durably (the log is flushed through the commit record).
    ///
    /// Works from both phases — committing an unprepared transaction is the
    /// local one-phase path.
    pub fn commit(&mut self, tx: TxId) -> Result<(), StorageError> {
        self.commit_unflushed(tx)?;
        self.wal.flush();
        Ok(())
    }

    /// Like [`Container::commit`] but *without* the durability flush: the
    /// commit record sits in the volatile tail until the caller flushes
    /// (group commit), and many such records can ride one [`Container::
    /// flush`]. The in-memory state is installed immediately; the caller
    /// must not acknowledge the commit until after the flush.
    pub fn commit_unflushed(&mut self, tx: TxId) -> Result<(), StorageError> {
        self.check_up()?;
        let mut st = self.live.remove(&tx).ok_or(StorageError::UnknownTx(tx))?;
        self.wal.append(&Record::Commit { tx });
        for (obj, vv) in st.writes.drain(..) {
            self.committed.insert(obj, vv);
        }
        self.recycle(st.writes);
        Ok(())
    }

    /// Advances the log's durability horizon over everything appended so
    /// far — the single durable write a group-commit batch rides on.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.check_up()?;
        self.wal.flush();
        Ok(())
    }

    /// Re-stamps the write `tx` staged for `object` with `version`,
    /// keeping its contents: a second `Put` on a prepared transaction,
    /// which replay applies last-wins. A 2PC participant calls this when
    /// the decision names a higher version than it staged, just before
    /// the commit whose flush carries both records; a crash in between
    /// recovers the transaction in doubt at whichever version was
    /// durable, and the decision re-stamps it again. Deliberately not
    /// routed through [`Container::begin`]: an injected I/O error may
    /// refuse new work, never a decided outcome. An object `tx` never
    /// staged is [`StorageError::WrongPhase`].
    pub fn restamp(
        &mut self,
        tx: TxId,
        object: ObjectId,
        version: Version,
    ) -> Result<(), StorageError> {
        self.check_up()?;
        let st = self.live.get_mut(&tx).ok_or(StorageError::UnknownTx(tx))?;
        let Some((_, vv)) = st.writes.iter_mut().find(|(o, _)| *o == object) else {
            return Err(StorageError::WrongPhase { tx, op: "restamp" });
        };
        vv.version = version;
        self.wal.append(&Record::Put {
            tx,
            object,
            version,
            value: vv.value.clone(),
        });
        Ok(())
    }

    /// Aborts `tx`: staged writes are discarded.
    pub fn abort(&mut self, tx: TxId) -> Result<(), StorageError> {
        self.check_up()?;
        let st = self.live.remove(&tx).ok_or(StorageError::UnknownTx(tx))?;
        self.recycle(st.writes);
        self.wal.append(&Record::Abort { tx });
        self.wal.flush();
        Ok(())
    }

    /// Keeps a finished transaction's staging list, emptied, for the next
    /// one — while fewer than [`SPARE_LISTS`] wait.
    fn recycle(&mut self, mut writes: Vec<(ObjectId, VersionedValue)>) {
        if self.spare.len() < SPARE_LISTS && writes.capacity() > 0 {
            writes.clear();
            self.spare.push(writes);
        }
    }

    /// The committed state of `object`; [`VersionedValue::initial`] if it
    /// has never been written.
    pub fn read(&self, object: ObjectId) -> Result<VersionedValue, StorageError> {
        self.check_up()?;
        Ok(self
            .committed
            .get(&object)
            .cloned()
            .unwrap_or_else(VersionedValue::initial))
    }

    /// Just the committed version number of `object` — the paper's
    /// *version number inquiry*, much cheaper than shipping contents.
    pub fn read_version(&self, object: ObjectId) -> Result<Version, StorageError> {
        self.check_up()?;
        Ok(self
            .committed
            .get(&object)
            .map_or(Version::INITIAL, |vv| vv.version))
    }

    /// The phase of a live transaction, if it is live.
    pub fn phase(&self, tx: TxId) -> Option<TxPhase> {
        self.live.get(&tx).map(|st| st.phase)
    }

    /// Transactions that are prepared but unresolved — after recovery,
    /// these are the in-doubt transactions the coordinator must decide.
    /// In id order.
    pub fn in_doubt(&self) -> Vec<TxId> {
        self.in_doubt_notes()
            .into_iter()
            .map(|(tx, _)| tx)
            .collect()
    }

    /// In-doubt transactions with the notes recorded at prepare time, in
    /// id order.
    pub fn in_doubt_notes(&self) -> Vec<(TxId, u64)> {
        let mut notes: Vec<(TxId, u64)> = (self.live.iter())
            .filter(|(_, st)| st.phase == TxPhase::Prepared)
            .map(|(tx, st)| (*tx, st.note))
            .collect();
        notes.sort_unstable();
        notes
    }

    /// The objects a live transaction staged, each with the version it
    /// would install (for recovery inspection).
    pub fn staged(&self, tx: TxId) -> Vec<(ObjectId, Version)> {
        self.live
            .get(&tx)
            .map(|st| st.writes.iter().map(|(o, vv)| (*o, vv.version)).collect())
            .unwrap_or_default()
    }

    /// Ids of all committed objects, in id order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> {
        let mut ids: Vec<ObjectId> = self.committed.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Number of committed objects.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// True if nothing has ever committed.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Simulates a machine crash: the volatile log tail and all unprepared
    /// transaction state are lost; every operation fails until
    /// [`Container::recover`] runs. Any armed disk damage (torn write,
    /// bit flips) materializes now — this is the instant the write cache
    /// and the platter part ways.
    pub fn crash(&mut self) {
        let (tear, flips) = self.faults.take_crash_damage();
        self.wal.crash_with_faults(tear, &flips);
        self.crashed = true;
    }

    /// Recovers from a crash by scanning and replaying the durable log,
    /// reporting what the scan found. The fault injector (with its seed
    /// and any pending I/O errors) survives recovery.
    pub fn recover(&mut self) -> RecoveryOutcome {
        let wal = std::mem::take(&mut self.wal);
        let faults = std::mem::take(&mut self.faults);
        let (mut fresh, outcome) = Container::recover_from_scan(wal);
        fresh.faults = faults;
        *self = fresh;
        outcome
    }

    /// The disk-fault injector for this container.
    pub fn disk_faults(&mut self) -> &mut DiskFaults {
        &mut self.faults
    }

    /// Whether injected disk damage or I/O errors are still pending (see
    /// [`DiskFaults::is_armed`]).
    pub fn disk_faults_armed(&self) -> bool {
        self.faults.is_armed()
    }

    /// True while crashed (between [`Container::crash`] and recovery).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Compacts the log: committed state collapses into one durable
    /// checkpoint record, prepared transactions are re-journalled durably
    /// (their promise must survive), and active transactions are
    /// re-journalled in the volatile tail (they would not survive a crash
    /// anyway). Recovery time becomes proportional to live state instead
    /// of history length.
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        self.checkpoint_retaining(|_| true)
    }

    /// [`Container::checkpoint`] that also *forgets*: committed objects
    /// for which `keep` answers false are dropped from the container and
    /// left out of the checkpoint record, so neither memory nor the log
    /// holds them afterwards. For logs whose entries stop mattering (a
    /// coordinator's acknowledged decisions); staged writes of live
    /// transactions are never dropped.
    pub fn checkpoint_retaining(
        &mut self,
        mut keep: impl FnMut(ObjectId) -> bool,
    ) -> Result<(), StorageError> {
        self.check_up()?;
        self.committed.retain(|object, _| keep(*object));
        self.wal.restart();
        let mut state: Vec<_> = (self.committed.iter())
            .map(|(o, vv)| (*o, vv.version, vv.value.clone()))
            .collect();
        state.sort_unstable_by_key(|(o, ..)| *o);
        let next_tx = self.next_tx;
        self.wal.append(&Record::Checkpoint { state, next_tx });
        let mut live: Vec<(TxId, &TxState)> = self.live.iter().map(|(tx, st)| (*tx, st)).collect();
        live.sort_unstable_by_key(|(tx, _)| *tx);
        let live = |phase| live.iter().filter(move |(_, st)| st.phase == phase);
        // Prepared first, promise and all: they belong in the durable prefix.
        for (tx, st) in live(TxPhase::Prepared) {
            journal(&mut self.wal, *tx, st);
            self.wal.append(&Record::Prepare {
                tx: *tx,
                note: st.note,
            });
        }
        self.wal.flush();
        for (tx, st) in live(TxPhase::Active) {
            journal(&mut self.wal, *tx, st);
        }
        Ok(())
    }

    /// Read-only access to the log (for tests and benches).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }
}

/// Appends `tx`'s begin and staged writes to `wal`: a live transaction
/// re-journalled behind a checkpoint.
fn journal(wal: &mut Wal, tx: TxId, st: &TxState) {
    wal.append(&Record::Begin { tx });
    for (object, vv) in &st.writes {
        wal.append(&Record::Put {
            tx,
            object: *object,
            version: vv.version,
            value: vv.value.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    // (Checkpoint tests below reuse `b` for payload literals.)

    #[test]
    fn commit_makes_writes_visible() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(1), b("alpha"))
            .expect("stage");
        // Invisible until commit.
        assert_eq!(
            c.read(ObjectId(1)).expect("read"),
            VersionedValue::initial()
        );
        c.commit(tx).expect("commit");
        let vv = c.read(ObjectId(1)).expect("read");
        assert_eq!(vv.version, Version(1));
        assert_eq!(vv.value, b("alpha"));
        assert_eq!(c.read_version(ObjectId(1)).expect("ver"), Version(1));
    }

    #[test]
    fn a_finished_transactions_staging_list_is_reused_and_the_pool_stays_bounded() {
        let mut c = Container::new();
        let staging = |c: &Container, tx: TxId| c.live[&tx].writes.as_ptr();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(1), b("a"))
            .expect("stage");
        let list = staging(&c, tx);
        c.commit(tx).expect("commit");
        let tx = c.begin().expect("begin");
        assert_eq!((staging(&c, tx), c.staged(tx).len()), (list, 0));
        c.abort(tx).expect("abort");
        let open: Vec<TxId> = (0..2 * SPARE_LISTS as u64)
            .map(|n| {
                let tx = c.begin().expect("begin");
                c.stage_put(tx, ObjectId(n), Version(1), b("v"))
                    .expect("stage");
                tx
            })
            .collect();
        for tx in open {
            c.commit(tx).expect("commit");
        }
        assert_eq!(c.spare.len(), SPARE_LISTS);
    }

    #[test]
    fn abort_discards_writes() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(1), b("alpha"))
            .expect("stage");
        c.abort(tx).expect("abort");
        assert_eq!(
            c.read(ObjectId(1)).expect("read"),
            VersionedValue::initial()
        );
        assert!(c.is_empty());
    }

    #[test]
    fn later_staged_write_wins() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(1), b("first"))
            .expect("stage");
        c.stage_put(tx, ObjectId(1), Version(2), b("second"))
            .expect("stage");
        c.commit(tx).expect("commit");
        let vv = c.read(ObjectId(1)).expect("read");
        assert_eq!(vv.version, Version(2));
        assert_eq!(vv.value, b("second"));
    }

    #[test]
    fn transactions_are_isolated_until_commit() {
        let mut c = Container::new();
        let t1 = c.begin().expect("begin");
        let t2 = c.begin().expect("begin");
        c.stage_put(t1, ObjectId(1), Version(1), b("one"))
            .expect("stage");
        c.stage_put(t2, ObjectId(2), Version(1), b("two"))
            .expect("stage");
        c.commit(t1).expect("commit");
        assert_eq!(c.read(ObjectId(1)).expect("r").value, b("one"));
        assert_eq!(c.read(ObjectId(2)).expect("r"), VersionedValue::initial());
        c.commit(t2).expect("commit");
        assert_eq!(c.read(ObjectId(2)).expect("r").value, b("two"));
    }

    #[test]
    fn unknown_tx_is_rejected() {
        let mut c = Container::new();
        assert_eq!(
            c.commit(TxId(9)).unwrap_err(),
            StorageError::UnknownTx(TxId(9))
        );
        assert_eq!(
            c.stage_put(TxId(9), ObjectId(1), Version(1), b("x"))
                .unwrap_err(),
            StorageError::UnknownTx(TxId(9))
        );
        assert_eq!(
            c.abort(TxId(9)).unwrap_err(),
            StorageError::UnknownTx(TxId(9))
        );
    }

    #[test]
    fn prepared_tx_rejects_new_writes_and_double_prepare() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(1), b("x"))
            .expect("stage");
        c.prepare(tx).expect("prepare");
        assert_eq!(c.phase(tx), Some(TxPhase::Prepared));
        assert!(matches!(
            c.stage_put(tx, ObjectId(2), Version(1), b("y")),
            Err(StorageError::WrongPhase { .. })
        ));
        assert!(matches!(
            c.prepare(tx),
            Err(StorageError::WrongPhase { .. })
        ));
        c.commit(tx).expect("commit");
        assert_eq!(c.read(ObjectId(1)).expect("r").value, b("x"));
    }

    #[test]
    fn crash_loses_uncommitted_and_unflushed() {
        let mut c = Container::new();
        let t1 = c.begin().expect("begin");
        c.stage_put(t1, ObjectId(1), Version(1), b("durable"))
            .expect("stage");
        c.commit(t1).expect("commit"); // flushed
        let t2 = c.begin().expect("begin");
        c.stage_put(t2, ObjectId(2), Version(1), b("volatile"))
            .expect("stage");
        // No commit for t2.
        c.crash();
        assert_eq!(c.read(ObjectId(1)).unwrap_err(), StorageError::Crashed);
        assert!(c.is_crashed());
        c.recover();
        assert!(!c.is_crashed());
        assert_eq!(c.read(ObjectId(1)).expect("r").value, b("durable"));
        assert_eq!(c.read(ObjectId(2)).expect("r"), VersionedValue::initial());
        assert!(c.in_doubt().is_empty());
    }

    #[test]
    fn prepared_survives_crash_as_in_doubt() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(3), b("promise"))
            .expect("stage");
        c.prepare(tx).expect("prepare");
        c.crash();
        c.recover();
        assert_eq!(c.in_doubt(), vec![tx]);
        // Still invisible until the coordinator resolves it...
        assert_eq!(c.read(ObjectId(1)).expect("r"), VersionedValue::initial());
        // ...and commits it.
        c.commit(tx).expect("commit");
        assert_eq!(c.read(ObjectId(1)).expect("r").version, Version(3));
        assert!(c.in_doubt().is_empty());
    }

    #[test]
    fn restamp_survives_crashes_and_ignores_injected_io_errors() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(3), b("promise"))
            .expect("stage");
        c.prepare(tx).expect("prepare");
        c.crash();
        c.recover();
        assert_eq!(c.staged(tx), vec![(ObjectId(1), Version(3))]);
        // The decision names version 5. New work is refused by the disk,
        // the decided outcome is not.
        c.disk_faults().inject_io_errors(1);
        c.restamp(tx, ObjectId(1), Version(5)).expect("restamp");
        assert_eq!(c.begin().unwrap_err(), StorageError::Io);
        // An unflushed re-stamp is lost with the crash; the decision
        // would re-stamp it again.
        c.crash();
        c.recover();
        assert_eq!(c.staged(tx), vec![(ObjectId(1), Version(3))]);
        c.restamp(tx, ObjectId(1), Version(5)).expect("restamp");
        c.flush().expect("flush");
        c.crash();
        c.recover();
        assert_eq!(c.in_doubt(), vec![tx]);
        assert_eq!(c.staged(tx), vec![(ObjectId(1), Version(5))]);
        assert!(matches!(
            c.restamp(tx, ObjectId(2), Version(5)),
            Err(StorageError::WrongPhase { .. })
        ));
        c.disk_faults().inject_io_errors(1);
        c.commit(tx)
            .expect("a decided commit never fails on an injected error");
        let vv = c.read(ObjectId(1)).expect("r");
        assert_eq!((vv.version, vv.value), (Version(5), b("promise")));
        // A checkpoint re-journals the last stamp only.
        let tx = c.begin().unwrap_err();
        assert_eq!(tx, StorageError::Io);
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(6), b("next"))
            .expect("stage");
        c.prepare(tx).expect("prepare");
        c.restamp(tx, ObjectId(1), Version(8)).expect("restamp");
        c.checkpoint().expect("checkpoint");
        c.crash();
        c.recover();
        assert_eq!(c.staged(tx), vec![(ObjectId(1), Version(8))]);
    }

    #[test]
    fn prepared_can_be_aborted_after_recovery() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(3), b("promise"))
            .expect("stage");
        c.prepare(tx).expect("prepare");
        c.crash();
        c.recover();
        c.abort(tx).expect("abort");
        assert_eq!(c.read(ObjectId(1)).expect("r"), VersionedValue::initial());
        assert!(c.in_doubt().is_empty());
    }

    #[test]
    fn operations_fail_while_crashed() {
        let mut c = Container::new();
        c.crash();
        assert_eq!(c.begin().unwrap_err(), StorageError::Crashed);
        assert_eq!(c.read(ObjectId(1)).unwrap_err(), StorageError::Crashed);
    }

    #[test]
    fn tx_ids_do_not_repeat_after_recovery() {
        let mut c = Container::new();
        let t1 = c.begin().expect("begin");
        c.commit(t1).expect("commit");
        c.crash();
        c.recover();
        let t2 = c.begin().expect("begin");
        assert!(t2.0 > t1.0, "recycled tx id {t2:?} after {t1:?}");
    }

    #[test]
    fn recovery_replays_multiple_objects_and_overwrites() {
        let mut c = Container::new();
        for (ver, val) in [(1u64, "a"), (2, "b"), (3, "c")] {
            let tx = c.begin().expect("begin");
            c.stage_put(tx, ObjectId(7), Version(ver), b(val))
                .expect("stage");
            c.stage_put(tx, ObjectId(ver), Version(1), b("side"))
                .expect("stage");
            c.commit(tx).expect("commit");
        }
        let recovered = Container::recover_from(c.wal().clone());
        assert_eq!(recovered.read(ObjectId(7)).expect("r").value, b("c"));
        assert_eq!(recovered.read(ObjectId(7)).expect("r").version, Version(3));
        assert_eq!(recovered.len(), 4); // obj7 + obj1..3
        assert_eq!(recovered.objects().count(), 4);
    }

    #[test]
    fn checkpoint_shrinks_the_log_and_preserves_state() {
        let mut c = Container::new();
        for i in 0..20u64 {
            let tx = c.begin().expect("begin");
            c.stage_put(tx, ObjectId(i % 3), Version(i + 1), b(&format!("v{i}")))
                .expect("stage");
            c.commit(tx).expect("commit");
        }
        let before_len = c.wal().len();
        let state_before: Vec<_> = c.objects().map(|o| (o, c.read(o).expect("read"))).collect();
        c.checkpoint().expect("checkpoint");
        assert!(c.wal().len() < before_len, "log must shrink");
        // State unchanged in place.
        for (o, vv) in &state_before {
            assert_eq!(&c.read(*o).expect("read"), vv);
        }
        // And after a crash + recovery from the compacted log.
        c.crash();
        c.recover();
        for (o, vv) in &state_before {
            assert_eq!(&c.read(*o).expect("read"), vv);
        }
    }

    #[test]
    fn checkpoint_preserves_prepared_transactions_across_crash() {
        let mut c = Container::new();
        let setup = c.begin().expect("begin");
        c.stage_put(setup, ObjectId(1), Version(1), b("base"))
            .expect("stage");
        c.commit(setup).expect("commit");
        let pending = c.begin().expect("begin");
        c.stage_put(pending, ObjectId(1), Version(2), b("promised"))
            .expect("stage");
        c.prepare_with_note(pending, 77).expect("prepare");
        c.checkpoint().expect("checkpoint");
        c.crash();
        c.recover();
        assert_eq!(c.in_doubt_notes(), vec![(pending, 77)]);
        assert_eq!(c.read(ObjectId(1)).expect("read").version, Version(1));
        c.commit(pending).expect("commit resolved in-doubt");
        assert_eq!(c.read(ObjectId(1)).expect("read").version, Version(2));
    }

    #[test]
    fn checkpoint_drops_active_transactions_on_crash_but_not_live() {
        let mut c = Container::new();
        let active = c.begin().expect("begin");
        c.stage_put(active, ObjectId(5), Version(1), b("maybe"))
            .expect("stage");
        c.checkpoint().expect("checkpoint");
        // Still usable while alive...
        c.commit(active)
            .expect("active tx survives checkpoint in memory");
        assert_eq!(c.read(ObjectId(5)).expect("read").version, Version(1));
        // ...but an *unresolved* active transaction would not survive a
        // crash, same as without checkpointing.
        let doomed = c.begin().expect("begin");
        c.stage_put(doomed, ObjectId(6), Version(1), b("gone"))
            .expect("stage");
        c.checkpoint().expect("checkpoint");
        c.crash();
        c.recover();
        assert_eq!(
            c.read(ObjectId(6)).expect("read"),
            VersionedValue::initial()
        );
        assert_eq!(c.read(ObjectId(5)).expect("read").version, Version(1));
    }

    #[test]
    fn tx_ids_do_not_repeat_after_checkpointed_recovery() {
        let mut c = Container::new();
        let t1 = c.begin().expect("begin");
        c.commit(t1).expect("commit");
        c.checkpoint().expect("checkpoint");
        c.crash();
        c.recover();
        let t2 = c.begin().expect("begin");
        assert!(t2.0 > t1.0, "tx id {t2:?} reused after checkpoint");
    }

    #[test]
    fn checkpoint_retaining_forgets_unkept_objects_in_memory_and_on_disk() {
        let mut c = Container::new();
        for i in 0..6u64 {
            let tx = c.begin().expect("begin");
            c.stage_put(tx, ObjectId(i), Version(1), b("decided"))
                .expect("stage");
            c.commit(tx).expect("commit");
        }
        // A prepared transaction's staged write is not committed state:
        // the filter must not touch it.
        let pending = c.begin().expect("begin");
        c.stage_put(pending, ObjectId(1), Version(2), b("promised"))
            .expect("stage");
        c.prepare(pending).expect("prepare");
        c.checkpoint_retaining(|o| o.0 % 2 == 0)
            .expect("checkpoint");
        let kept = |c: &Container| c.objects().collect::<Vec<_>>();
        assert_eq!(kept(&c), [ObjectId(0), ObjectId(2), ObjectId(4)]);
        assert_eq!(c.wal().len(), 1 + 3, "checkpoint + the prepared tx");
        c.crash();
        c.recover();
        assert_eq!(kept(&c), [ObjectId(0), ObjectId(2), ObjectId(4)]);
        assert_eq!(c.in_doubt(), vec![pending]);
        c.commit(pending).expect("commit resolved in-doubt");
        assert_eq!(c.read(ObjectId(1)).expect("read").version, Version(2));
        // The tx-id counter outlives the forgotten history.
        assert!(c.begin().expect("begin").0 > pending.0);
    }

    #[test]
    fn unflushed_commit_is_lost_to_a_crash_until_flushed() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(1), b("batched"))
            .expect("stage");
        c.commit_unflushed(tx).expect("commit");
        // Visible in memory immediately...
        assert_eq!(c.read(ObjectId(1)).expect("r").version, Version(1));
        // ...but a crash before the flush loses it.
        let mut lost = c.clone();
        lost.crash();
        lost.recover();
        assert_eq!(
            lost.read(ObjectId(1)).expect("r"),
            VersionedValue::initial()
        );
        // After the flush it survives.
        c.flush().expect("flush");
        c.crash();
        c.recover();
        assert_eq!(c.read(ObjectId(1)).expect("r").value, b("batched"));
    }

    #[test]
    fn unflushed_prepare_aborts_on_crash_until_flushed() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(1), Version(2), b("promise"))
            .expect("stage");
        c.prepare_with_note_unflushed(tx, 42).expect("prepare");
        assert_eq!(c.phase(tx), Some(TxPhase::Prepared));
        let mut lost = c.clone();
        lost.crash();
        lost.recover();
        assert!(
            lost.in_doubt().is_empty(),
            "unflushed promise must not bind"
        );
        c.flush().expect("flush");
        c.crash();
        c.recover();
        assert_eq!(c.in_doubt_notes(), vec![(tx, 42)]);
    }

    #[test]
    fn many_unflushed_commits_ride_one_flush() {
        let mut c = Container::new();
        for i in 0..8u64 {
            let tx = c.begin().expect("begin");
            c.stage_put(tx, ObjectId(i), Version(1), b("v"))
                .expect("stage");
            c.commit_unflushed(tx).expect("commit");
        }
        assert_eq!(c.wal().flushes(), 0);
        c.flush().expect("flush");
        assert_eq!(c.wal().flushes(), 1, "eight commits, one durable write");
        c.crash();
        c.recover();
        assert_eq!(c.len(), 8);
    }

    /// What a checkpointed log lists, each in log order: the checkpoint
    /// record's objects, then the transactions journalled behind it —
    /// the prepared ones, and the active ones.
    fn journalled(c: &Container) -> (Vec<ObjectId>, Vec<TxId>, Vec<TxId>) {
        let (_, records) = c.wal().clone().rescan();
        let mut records = records.into_iter();
        let Some(Record::Checkpoint { state, .. }) = records.next() else {
            panic!("a checkpointed log starts with its checkpoint");
        };
        let (mut prepared, mut active) = (Vec::new(), Vec::new());
        let mut began = None;
        for r in records {
            match r {
                Record::Begin { tx } => {
                    active.extend(began.replace(tx));
                }
                Record::Prepare { tx, .. } => {
                    assert_eq!(began.take(), Some(tx));
                    prepared.push(tx);
                }
                _ => {}
            }
        }
        active.extend(began);
        (
            state.into_iter().map(|(o, ..)| o).collect(),
            prepared,
            active,
        )
    }

    fn ascending<T: Ord>(ids: &[T]) -> bool {
        ids.windows(2).all(|w| w[0] < w[1])
    }

    /// Random commits against a `BTreeMap` reference. Each writes objects
    /// in random order and may write one twice; prepares left in doubt
    /// and later resolved, aborts, active transactions left open,
    /// checkpoints and crash/recover come between them. Whatever the
    /// container shows in order — its objects, its in-doubt notes, the
    /// checkpoint record and the transactions journalled behind it — is
    /// in id order, and a second container that reaches the same state
    /// in another order checkpoints and recovers it identically.
    #[test]
    fn order_visible_outputs_follow_the_ids_whatever_the_history() {
        for case in 0..48u64 {
            let mut draw = 0x0bde_u64 ^ (case << 20);
            let mut next = |n: u64| {
                draw = draw.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = draw;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let mut c = Container::new();
            let mut reference: BTreeMap<ObjectId, VersionedValue> = BTreeMap::new();
            // In-doubt transactions: note and staged writes, last wins.
            let mut in_doubt: BTreeMap<TxId, (u64, BTreeMap<ObjectId, VersionedValue>)> =
                BTreeMap::new();
            for step in 0..120u64 {
                let choice = next(12);
                match choice {
                    0..=6 => {
                        let tx = c.begin().expect("begin");
                        let mut staged = BTreeMap::new();
                        for _ in 0..1 + next(3) {
                            // Small ids and ids that differ in their high
                            // half alone.
                            let object = ObjectId(next(24) << (32 * next(2)));
                            let vv = VersionedValue::new(Version(step + 1), b(&format!("{step}")));
                            c.stage_put(tx, object, vv.version, vv.value.clone())
                                .expect("stage");
                            staged.insert(object, vv);
                        }
                        let staged_in_order: Vec<_> =
                            staged.iter().map(|(o, vv)| (*o, vv.version)).collect();
                        assert_eq!(c.staged(tx), staged_in_order, "case {case}");
                        match choice {
                            0..=3 => {
                                c.commit(tx).expect("commit");
                                reference.extend(staged);
                            }
                            4 => {
                                let note = next(1 << 20);
                                c.prepare_with_note(tx, note).expect("prepare");
                                in_doubt.insert(tx, (note, staged));
                            }
                            5 => c.abort(tx).expect("abort"),
                            _ => {} // left active: a crash takes it
                        }
                    }
                    7 | 8 => {
                        let Some(&tx) = in_doubt.keys().nth(next(4) as usize) else {
                            continue;
                        };
                        let (_, staged) = in_doubt.remove(&tx).expect("just found");
                        if choice == 7 {
                            c.commit(tx).expect("commit in doubt");
                            reference.extend(staged);
                        } else {
                            c.abort(tx).expect("abort in doubt");
                        }
                    }
                    9 | 10 => {
                        c.checkpoint().expect("checkpoint");
                        let (state, prepared, active) = journalled(&c);
                        assert!(ascending(&state), "case {case}: {state:?}");
                        assert!(state.iter().eq(reference.keys()), "case {case}");
                        assert!(prepared.iter().eq(in_doubt.keys()), "case {case}");
                        assert!(ascending(&active), "case {case}: {active:?}");
                    }
                    _ => {
                        c.crash();
                        c.recover();
                    }
                }
                assert!(c.objects().eq(reference.keys().copied()), "case {case}");
                for (o, vv) in &reference {
                    assert_eq!(&c.read(*o).expect("read"), vv, "case {case}");
                }
                let notes: Vec<(TxId, u64)> = in_doubt
                    .iter()
                    .map(|(tx, (note, _))| (*tx, *note))
                    .collect();
                assert_eq!(c.in_doubt_notes(), notes, "case {case} step {step}");
            }
            // The same committed state, reached one object at a time in
            // another order.
            let mut other = Container::new();
            let mut objects: Vec<_> = reference.iter().collect();
            objects.reverse();
            let turn = next(objects.len().max(1) as u64) as usize;
            objects.rotate_left(turn);
            for (o, vv) in objects {
                let tx = other.begin().expect("begin");
                other
                    .stage_put(tx, *o, vv.version, vv.value.clone())
                    .expect("stage");
                other.commit(tx).expect("commit");
            }
            for (tx, _) in std::mem::take(&mut in_doubt) {
                c.abort(tx).expect("abort in doubt");
            }
            c.checkpoint().expect("checkpoint");
            other.checkpoint().expect("checkpoint");
            let state = |c: &Container| match c.wal().clone().rescan().1.swap_remove(0) {
                Record::Checkpoint { state, .. } => state,
                other => panic!("{other:?}"),
            };
            assert_eq!(state(&c), state(&other), "case {case}");
            let (c, other) = (
                Container::recover_from(c.wal().clone()),
                Container::recover_from(other.wal().clone()),
            );
            assert!(c.objects().eq(other.objects()), "case {case}");
            assert!(c.objects().eq(reference.keys().copied()), "case {case}");
            for o in c.objects() {
                assert_eq!(c.read(o), other.read(o), "case {case}");
            }
        }
    }

    #[test]
    fn flush_counting_shows_group_commit() {
        let mut c = Container::new();
        let tx = c.begin().expect("begin");
        for i in 0..10 {
            c.stage_put(tx, ObjectId(i), Version(1), b("v"))
                .expect("stage");
        }
        c.commit(tx).expect("commit");
        // Begin and all ten puts ride on the single commit flush.
        assert_eq!(c.wal().flushes(), 1);
    }
}

#[cfg(test)]
mod disk_fault_tests {
    //! WAL framing and scan-recovery edge cases under injected faults:
    //! empty logs, checkpoint boundaries, corruption inside the
    //! checkpoint itself, and a seeded randomized
    //! append/flush/crash/recover round-trip.

    use super::*;
    use wv_sim::derive_seed;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn commit_one(c: &mut Container, obj: u64, ver: u64, val: &str) {
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(obj), Version(ver), b(val))
            .expect("stage");
        c.commit(tx).expect("commit");
    }

    #[test]
    fn empty_log_recovers_clean_even_with_faults_armed() {
        let mut c = Container::new();
        c.disk_faults().seed(derive_seed(0xD15C, 1));
        c.disk_faults().arm_torn_write();
        c.disk_faults().arm_bit_flip();
        c.crash();
        let outcome = c.recover();
        assert_eq!(outcome, RecoveryOutcome::default());
        assert!(c.is_empty());
        assert!(!c.is_crashed());
    }

    #[test]
    fn torn_tail_after_a_checkpoint_boundary_keeps_the_checkpoint() {
        let mut c = Container::new();
        commit_one(&mut c, 1, 1, "alpha");
        commit_one(&mut c, 2, 1, "beta");
        c.checkpoint().expect("checkpoint");
        // An in-flight (unflushed) commit rides the volatile tail when the
        // torn crash hits.
        let tx = c.begin().expect("begin");
        c.stage_put(tx, ObjectId(3), Version(1), b("inflight"))
            .expect("stage");
        c.commit_unflushed(tx).expect("commit");
        c.disk_faults().seed(derive_seed(0xD15C, 2));
        c.disk_faults().arm_torn_write();
        c.crash();
        let outcome = c.recover();
        assert!(!outcome.corrupt_interior, "a torn tail is not corruption");
        assert_eq!(outcome.lost_records, 0);
        // The checkpointed state is intact whatever the tear kept.
        assert_eq!(c.read(ObjectId(1)).expect("r").value, b("alpha"));
        assert_eq!(c.read(ObjectId(2)).expect("r").value, b("beta"));
    }

    #[test]
    fn corruption_inside_the_checkpoint_record_loses_everything_loudly() {
        let mut c = Container::new();
        commit_one(&mut c, 1, 1, "alpha");
        commit_one(&mut c, 2, 1, "beta");
        c.checkpoint().expect("checkpoint");
        // The compacted log is a single checkpoint frame; every bit flip
        // lands inside it.
        assert_eq!(c.wal().len(), 1);
        c.disk_faults().seed(derive_seed(0xD15C, 3));
        c.disk_faults().arm_bit_flip();
        c.crash();
        let outcome = c.recover();
        assert!(outcome.corrupt_interior, "damage must be detected");
        assert!(!outcome.poison_escaped);
        assert_eq!(outcome.lost_records, 1);
        assert_eq!(outcome.replayed_records, 0);
        assert!(c.is_empty(), "nothing valid precedes the checkpoint");
    }

    #[test]
    fn torn_tail_can_surface_new_in_doubt_transactions() {
        // A prepare that was appended but never flushed can persist via a
        // torn write — recovery must surface it as in-doubt so the
        // decision-probe path can resolve it (the PR 2 bug class).
        // Hunt a seed whose tear keeps the whole prepare frame.
        let mut found = false;
        for salt in 0..64u64 {
            let mut c = Container::new();
            commit_one(&mut c, 1, 1, "base");
            let tx = c.begin().expect("begin");
            c.stage_put(tx, ObjectId(1), Version(2), b("promised"))
                .expect("stage");
            c.prepare_with_note_unflushed(tx, 99).expect("prepare");
            // A later append gives the tear room to land *after* the
            // complete prepare frame (a tear always loses at least one
            // byte of the in-flight write).
            c.begin().expect("begin trailing");
            c.disk_faults().seed(derive_seed(0xD15C ^ salt, 4));
            c.disk_faults().arm_torn_write();
            c.crash();
            let outcome = c.recover();
            assert!(!outcome.corrupt_interior);
            if outcome.in_doubt == vec![(tx, 99)] {
                assert!(outcome.recovered_volatile >= 3, "begin+put+prepare");
                assert_eq!(c.in_doubt_notes(), vec![(tx, 99)]);
                // The coordinator's decision still resolves it.
                c.abort(tx).expect("abort in-doubt");
                assert_eq!(c.read(ObjectId(1)).expect("r").version, Version(1));
                found = true;
                break;
            }
            // Otherwise the tear cut the prepare frame short: the
            // transaction must have vanished entirely, never half-applied.
            assert!(outcome.in_doubt.is_empty());
        }
        assert!(found, "no tear in 64 seeds persisted the prepare frame");
    }

    #[test]
    fn randomized_append_flush_crash_recover_round_trip() {
        // Random mixed histories under random faults: recovery must always
        // terminate with a consistent, poison-free container whose
        // committed state is a prefix of the honest one.
        for case in 0..64u64 {
            let seed = derive_seed(0xF4417, case);
            let mut c = Container::new();
            c.disk_faults().seed(seed);
            let mut draw = seed | 1;
            let mut next = || {
                draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1);
                draw >> 33
            };
            for step in 0..40 {
                match next() % 10 {
                    0..=5 => {
                        let tx = match c.begin() {
                            Ok(tx) => tx,
                            Err(StorageError::Io) => continue,
                            Err(e) => panic!("case {case} step {step}: {e}"),
                        };
                        // Up to 2 KiB, so torn writes and bit flips land
                        // inside frames the folding CRC kernel checksums.
                        let value = vec![step as u8; (next() % 2049) as usize];
                        c.stage_put(tx, ObjectId(next() % 4), Version(step + 1), value)
                            .expect("stage");
                        if next() % 3 == 0 {
                            c.commit_unflushed(tx).expect("commit");
                        } else {
                            c.commit(tx).expect("commit");
                        }
                    }
                    6 => c.flush().expect("flush"),
                    7 => c.checkpoint().expect("checkpoint"),
                    8 => {
                        if next() % 2 == 0 {
                            c.disk_faults().arm_torn_write();
                        } else {
                            c.disk_faults().arm_bit_flip();
                        }
                        if next() % 4 == 0 {
                            c.disk_faults().inject_io_errors(2);
                        }
                    }
                    _ => {
                        c.crash();
                        let outcome = c.recover();
                        assert!(!outcome.poison_escaped, "case {case} step {step}");
                        assert!(
                            !outcome.corrupt_interior || outcome.lost_records > 0,
                            "case {case}: corruption must lose something"
                        );
                        // A recovered log always re-recovers cleanly.
                        let (again, second) = Container::recover_from_scan(c.wal().clone());
                        assert!(!second.torn_tail && !second.corrupt_interior);
                        assert_eq!(again.len(), c.len(), "case {case}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod crash_point_props {
    //! Crash-point property tests: for a random committed history, recovery
    //! from *any* durable prefix yields a state equal to replaying some
    //! prefix of the committed transactions, in order.

    use super::*;
    use std::collections::BTreeMap;

    /// A scripted transaction: object writes, and whether it commits.
    #[derive(Clone, Debug)]
    struct Script {
        writes: Vec<(u64, String)>,
        commits: bool,
        prepares: bool,
    }

    /// Tiny SplitMix64 stream for dependency-free randomized tests.
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn flip(&mut self) -> bool {
            self.next() & 1 == 1
        }
    }

    /// Generates a random history of 1..8 transactions, each with 1..4
    /// writes of short lowercase strings (the seeded stand-in for the old
    /// proptest strategy).
    fn random_scripts(seed: u64) -> Vec<Script> {
        let mut rng = TestRng(0x5c2197 ^ seed);
        let n_tx = 1 + rng.below(7) as usize;
        (0..n_tx)
            .map(|_| {
                let n_writes = 1 + rng.below(3) as usize;
                let writes = (0..n_writes)
                    .map(|_| {
                        let obj = rng.below(4);
                        let len = 1 + rng.below(6) as usize;
                        let val: String = (0..len)
                            .map(|_| (b'a' + rng.below(26) as u8) as char)
                            .collect();
                        (obj, val)
                    })
                    .collect();
                Script {
                    writes,
                    commits: rng.flip(),
                    prepares: rng.flip(),
                }
            })
            .collect()
    }

    fn run_scripts(scripts: &[Script]) -> Container {
        let mut c = Container::new();
        for s in scripts {
            let tx = c.begin().expect("begin");
            for (i, (obj, val)) in s.writes.iter().enumerate() {
                c.stage_put(
                    tx,
                    ObjectId(*obj),
                    Version(i as u64 + 1),
                    Bytes::copy_from_slice(val.as_bytes()),
                )
                .expect("stage");
            }
            if s.prepares {
                c.prepare(tx).expect("prepare");
            }
            if s.commits {
                c.commit(tx).expect("commit");
            } else if !s.prepares {
                c.abort(tx).expect("abort");
            }
            // Prepared-but-unresolved transactions are left dangling on
            // purpose: they model a coordinator that hasn't decided yet.
        }
        c
    }

    /// The expected committed map after the first `n_records` log records.
    fn expected_state(wal: &Wal) -> BTreeMap<ObjectId, VersionedValue> {
        Container::recover_from(wal.clone())
            .objects()
            .map(|o| {
                let vv = Container::recover_from(wal.clone()).read(o).expect("read");
                (o, vv)
            })
            .collect()
    }

    #[test]
    fn recovery_from_any_crash_point_is_prefix_consistent() {
        for seed in 0..48u64 {
            let scripts = random_scripts(seed);
            let full = run_scripts(&scripts);
            let wal = full.wal().clone();
            // Committed-transaction effects, in commit order, as successive
            // states; recovery from any prefix must equal one of them.
            let mut legal_states: Vec<BTreeMap<ObjectId, VersionedValue>> = Vec::new();
            {
                let mut c = Container::new();
                legal_states.push(BTreeMap::new());
                for s in &scripts {
                    let tx = c.begin().expect("begin");
                    for (i, (obj, val)) in s.writes.iter().enumerate() {
                        c.stage_put(
                            tx,
                            ObjectId(*obj),
                            Version(i as u64 + 1),
                            Bytes::copy_from_slice(val.as_bytes()),
                        )
                        .expect("stage");
                    }
                    if s.commits {
                        c.commit(tx).expect("commit");
                        legal_states
                            .push(c.objects().map(|o| (o, c.read(o).expect("read"))).collect());
                    } else {
                        c.abort(tx).expect("abort");
                    }
                }
            }
            for n in 0..=wal.len() {
                let recovered = Container::recover_from(wal.durable_prefix(n));
                let state: BTreeMap<ObjectId, VersionedValue> = recovered
                    .objects()
                    .map(|o| (o, recovered.read(o).expect("read")))
                    .collect();
                assert!(
                    legal_states.contains(&state),
                    "seed {seed}: crash at record {n} produced a non-prefix state {state:?}"
                );
            }
        }
    }

    #[test]
    fn committed_data_survives_any_later_crash() {
        for seed in 0..48u64 {
            let scripts = random_scripts(seed.wrapping_add(1000));
            let full = run_scripts(&scripts);
            let wal = full.wal().clone();
            // Recovery from the full durable log must show every committed
            // transaction's final effects.
            let recovered = Container::recover_from(wal);
            for o in full.objects() {
                assert_eq!(
                    recovered.read(o).expect("read"),
                    full.read(o).expect("read"),
                    "seed {seed}"
                );
            }
            assert_eq!(recovered.len(), full.len(), "seed {seed}");
        }
    }

    #[test]
    fn in_doubt_exactly_matches_unresolved_prepares() {
        for seed in 0..48u64 {
            let scripts = random_scripts(seed.wrapping_add(2000));
            let full = run_scripts(&scripts);
            let expected: Vec<TxId> = scripts
                .iter()
                .enumerate()
                .filter(|(_, s)| s.prepares && !s.commits)
                .map(|(i, _)| TxId(i as u64))
                .collect();
            let recovered = Container::recover_from(full.wal().clone());
            assert_eq!(recovered.in_doubt(), expected, "seed {seed}");
        }
    }

    #[test]
    fn recovery_reports_clean_scans_for_honest_crashes() {
        // The scanning recovery must be invisible on the fault-free path:
        // no torn tails, no corruption, no in-doubt surprises.
        for seed in 0..16u64 {
            let scripts = random_scripts(seed.wrapping_add(3000));
            let full = run_scripts(&scripts);
            let (recovered, outcome) = Container::recover_from_scan(full.wal().clone());
            assert!(!outcome.torn_tail, "seed {seed}");
            assert!(!outcome.corrupt_interior, "seed {seed}");
            assert!(!outcome.poison_escaped, "seed {seed}");
            assert_eq!(outcome.lost_records, 0, "seed {seed}");
            // A clean crash keeps exactly the durable prefix.
            let mut durable = full.wal().clone();
            durable.crash();
            assert_eq!(
                outcome.replayed_records,
                durable.len() as u64,
                "seed {seed}"
            );
            assert_eq!(outcome.in_doubt, recovered.in_doubt_notes(), "seed {seed}");
        }
    }

    #[test]
    fn expected_state_helper_compiles_out() {
        // Keep the helper exercised so it can't rot silently.
        let c = run_scripts(&[Script {
            writes: vec![(1, "x".into())],
            commits: true,
            prepares: false,
        }]);
        let st = expected_state(c.wal());
        assert_eq!(st.len(), 1);
    }
}
