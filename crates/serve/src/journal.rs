//! Crash-safe session journals: append-only logs of accepted transactions.
//!
//! When the server runs with `--journal-dir`, every session writes an append-only journal
//! file recording its `Open` payload and each **accepted** transaction (records are
//! appended only after the incremental checker accepted the step, so a journal never
//! contains a rejected or half-applied transaction). On boot the server replays every
//! journal in the directory through a fresh [`Session`], restoring the exact run spine,
//! interner and counters the crashed process held; clients re-attach with the wire
//! `Resume` request. See the crash-recovery runbook in `docs/OPERATIONS.md`.
//!
//! # File format
//!
//! A journal is the 4-byte magic `RDJ1` followed by frames. Each frame is:
//!
//! ```text
//! u32 BE payload length │ u32 BE CRC-32 (IEEE) of the payload │ payload (JSON)
//! ```
//!
//! The payload is a [`JournalRecord`] in serde's externally-tagged JSON form. A crash can
//! tear at most the **last** frame (appends go through one buffered writer and the kernel
//! appends `write(2)` data in order); recovery verifies every CRC and truncates the file
//! back to the last intact frame boundary, so a torn tail costs at most the final
//! transaction — never the session.
//!
//! # Durability vs. availability
//!
//! `flush` happens per record; `fsync` is batched (every [`Journal::fsync_every`] records,
//! plus on clean close), bounding the work lost to an OS-level crash to the batch window.
//! If an append fails (disk full, journal directory removed, …) the journal marks itself
//! [`broken`](Journal::broken) and the session **keeps serving** — availability wins over
//! durability for later transactions, and the operator sees one stderr line per session.

use crate::protocol::ErrorCode;
use crate::session::Session;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The journal file magic: "RDJ" + format version 1.
pub const JOURNAL_MAGIC: [u8; 4] = *b"RDJ1";

/// Default fsync batching: sync the file every this-many appended records.
pub const DEFAULT_FSYNC_EVERY: usize = 8;

/// One journal entry. The first record of every journal is `Open`; every later record is
/// a `Check` that the session **accepted** (`Ok` or `Violation` outcome — both extend the
/// run). Replaying the records through [`Session`] reproduces the session exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The session's `Open` payload.
    Open {
        /// The DMS, in `rdms_core::Dms`'s serde JSON form.
        dms: rdms_core::Dms,
        /// The recency bound `b`.
        bound: usize,
        /// The invariant φ, in concrete syntax.
        invariant: String,
        /// Whether the session emits violation certificates.
        emit_certificates: bool,
    },
    /// One accepted transaction.
    Check {
        /// The action's declared name.
        action: String,
        /// `σ`: variable name → data value index.
        bindings: BTreeMap<String, u64>,
    },
    /// One accepted in-place revision of the session's inputs (the wire `Revise`
    /// request); omitted fields kept their values. Appended only after the engine
    /// accepted the revision, so replaying it cannot fail where the original succeeded.
    Revise {
        /// Replacement DMS, if the revision changed it.
        #[serde(default)]
        dms: Option<rdms_core::Dms>,
        /// Replacement recency bound, if changed.
        #[serde(default)]
        bound: Option<usize>,
        /// Replacement invariant (concrete syntax), if changed.
        #[serde(default)]
        invariant: Option<String>,
    },
}

/// Where journal bytes go. [`File`] is the real sink; tests inject in-memory and
/// fault-injecting sinks (see [`SharedBuffer`] and `crate::faults`) through the same
/// seam, so the append/parse/recover path is exercised without touching a filesystem.
pub trait JournalSink: Write + Send {
    /// Make everything written so far durable (fsync for files, no-op for buffers).
    fn sync(&mut self) -> io::Result<()>;
}

impl JournalSink for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// An in-memory [`JournalSink`] the test can keep a handle on: the journal writes through
/// the `Arc`, the test parses the accumulated bytes with [`parse_journal`].
#[derive(Clone, Debug, Default)]
pub struct SharedBuffer(pub Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// A snapshot of everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("buffer poisoned").clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for SharedBuffer {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3, the zlib/`cksum -o 3` polynomial), table-driven, built at compile
/// time. Hand-rolled because the workspace vendors no checksum crate; the reference
/// vectors in the tests pin it to the standard definition.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Serialize one record as a journal frame (length + CRC + JSON payload).
pub fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let payload = serde_json::to_string(record).expect("journal records serialize");
    let payload = payload.as_bytes();
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// An open session journal. Created with the `Open` record already durable; call
/// [`append`](Journal::append) after each accepted transaction and
/// [`retire`](Journal::retire) on clean close.
pub struct Journal {
    sink: Box<dyn JournalSink>,
    path: Option<PathBuf>,
    fsync_every: usize,
    appended_since_sync: usize,
    broken: Option<String>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("fsync_every", &self.fsync_every)
            .field("broken", &self.broken)
            .finish_non_exhaustive()
    }
}

/// The journal filename for a session id.
pub fn journal_file_name(session: u64) -> String {
    format!("session-{session}.journal")
}

/// The file name [`write_snapshot`] gives a session's [`SessionSnapshot`].
pub fn checkpoint_file_name(session: u64) -> String {
    format!("session-{session}.checkpoint")
}

/// Fsync a directory, making its entry changes (create, rename, unlink) durable. On
/// POSIX, fsyncing a file persists its *contents* but not the directory entry naming it;
/// without this, a crash shortly after creating or unlinking a journal could lose the
/// file wholesale — or resurrect a retired one — even though the data was synced.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Parse a session id back out of a journal filename; `None` for foreign files.
pub fn parse_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("session-")?
        .strip_suffix(".journal")?
        .parse()
        .ok()
}

impl Journal {
    /// Create `dir/session-<id>.journal` and write (and fsync) the magic and the `Open`
    /// record, so a session that crashes after `Opened` was sent is always recoverable.
    /// Fails — and the caller should reject the `Open` with [`ErrorCode::JournalError`] —
    /// if the directory is unusable.
    pub fn create(
        dir: &Path,
        session: u64,
        open: &JournalRecord,
        fsync_every: usize,
    ) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(journal_file_name(session));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let mut journal = Journal {
            sink: Box::new(file),
            path: Some(path),
            fsync_every: fsync_every.max(1),
            appended_since_sync: 0,
            broken: None,
        };
        journal.sink.write_all(&JOURNAL_MAGIC)?;
        journal.sink.write_all(&encode_record(open))?;
        journal.sink.flush()?;
        journal.sink.sync()?;
        // crash consistency: the file's contents are durable, but its directory entry is
        // not until the directory itself is synced — without this, a crash right after
        // `Opened` was sent could lose the whole journal despite the fsync above
        sync_dir(dir)?;
        Ok(journal)
    }

    /// Re-open an existing journal for appending (the `Resume` path). The file must
    /// already have been through [`recover_file`], which truncated any torn tail.
    pub fn open_append(path: &Path, fsync_every: usize) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            sink: Box::new(file),
            path: Some(path.to_path_buf()),
            fsync_every: fsync_every.max(1),
            appended_since_sync: 0,
            broken: None,
        })
    }

    /// Build a journal over an arbitrary sink (in-memory buffers, fault-injecting
    /// wrappers). Writes the magic and the `Open` record like [`create`](Journal::create).
    pub fn with_sink(
        mut sink: Box<dyn JournalSink>,
        open: &JournalRecord,
        fsync_every: usize,
    ) -> io::Result<Journal> {
        sink.write_all(&JOURNAL_MAGIC)?;
        sink.write_all(&encode_record(open))?;
        sink.flush()?;
        sink.sync()?;
        Ok(Journal {
            sink,
            path: None,
            fsync_every: fsync_every.max(1),
            appended_since_sync: 0,
            broken: None,
        })
    }

    /// Append one accepted transaction. Flushes per record; fsyncs every
    /// [`fsync_every`](Self::fsync_every) records. On failure the journal goes
    /// [`broken`](Self::broken) (one stderr line) and later appends are no-ops — the
    /// session keeps serving, un-journaled.
    pub fn append(&mut self, record: &JournalRecord) {
        if self.broken.is_some() {
            return;
        }
        let result = (|| -> io::Result<()> {
            self.sink.write_all(&encode_record(record))?;
            self.sink.flush()?;
            self.appended_since_sync += 1;
            if self.appended_since_sync >= self.fsync_every {
                self.sink.sync()?;
                self.appended_since_sync = 0;
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!(
                "rdms-serve: journal {} broken, session continues un-journaled: {e}",
                self.path
                    .as_deref()
                    .map_or_else(|| "<in-memory>".to_string(), |p| p.display().to_string()),
            );
            self.broken = Some(e.to_string());
        }
    }

    /// Why appends stopped, if the journal is broken.
    pub fn broken(&self) -> Option<&str> {
        self.broken.as_deref()
    }

    /// The fsync batch size.
    pub fn fsync_every(&self) -> usize {
        self.fsync_every
    }

    /// The backing file, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Clean close: sync outstanding records and delete the file. A retired session needs
    /// no recovery, so keeping the journal would only resurrect it as a ghost at next
    /// boot.
    pub fn retire(mut self) -> io::Result<()> {
        let _ = self.sink.flush();
        let _ = self.sink.sync();
        if let Some(path) = self.path.take() {
            std::fs::remove_file(&path)?;
            // crash consistency: sync the unlink, or a crash now could resurrect the
            // retired session as a ghost at next boot
            if let Some(dir) = path.parent() {
                sync_dir(dir)?;
            }
        }
        Ok(())
    }
}

impl Drop for Journal {
    /// Best-effort durability for the batch window: eviction, drain and poison all drop
    /// the journal (keeping the file for recovery), so the tail records get one last
    /// flush+fsync on the way out.
    fn drop(&mut self) {
        if self.broken.is_none() {
            let _ = self.sink.flush();
            if self.appended_since_sync > 0 {
                let _ = self.sink.sync();
            }
        }
    }
}

/// The outcome of parsing journal bytes: the intact records, how many bytes of the file
/// they cover (magic included), and whether a torn/corrupt tail was cut off.
#[derive(Debug)]
pub struct ParsedJournal {
    /// Every record with an intact frame, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of valid prefix: truncating the file to this length removes exactly the
    /// torn tail.
    pub good_len: u64,
    /// Whether anything (a short header, a short payload, a CRC mismatch, undecodable
    /// JSON) followed the valid prefix.
    pub torn: bool,
}

/// Parse journal bytes, stopping at the first torn or corrupt frame. Pure — the
/// fault-injection tests drive it over in-memory buffers with every possible cut point.
/// Returns `None` when the magic itself is wrong (not a journal; do not truncate).
pub fn parse_journal(bytes: &[u8]) -> Option<ParsedJournal> {
    if bytes.len() < 4 || bytes[..4] != JOURNAL_MAGIC {
        return None;
    }
    let mut records = Vec::new();
    let mut offset = 4usize;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            return Some(ParsedJournal {
                records,
                good_len: offset as u64,
                torn: false,
            });
        }
        let Some(frame) = rest.get(..8) else {
            break; // short header
        };
        let len = u32::from_be_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let want_crc = u32::from_be_bytes(frame[4..8].try_into().expect("4 bytes"));
        let Some(payload) = rest.get(8..8 + len) else {
            break; // short payload
        };
        if crc32(payload) != want_crc {
            break;
        }
        let Ok(record) = std::str::from_utf8(payload)
            .map_err(|_| ())
            .and_then(|text| serde_json::from_str::<JournalRecord>(text).map_err(|_| ()))
        else {
            break; // intact CRC but undecodable content: treat as corrupt tail
        };
        records.push(record);
        offset += 8 + len;
    }
    Some(ParsedJournal {
        records,
        good_len: offset as u64,
        torn: true,
    })
}

/// A snapshot of a live session: the run spine plus the counters that cannot be
/// recomputed without re-evaluating the invariant per configuration.
///
/// [`Session::resume`] rebuilds a session from one without re-validating its transitions
/// ([`IncrementalChecker::resume`](rdms_checker::IncrementalChecker)), so a snapshot is
/// trusted input. The server therefore neither writes nor reads snapshots: drain leaves
/// only the journal behind, and boot recovery replays it, validating every transition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session's DMS.
    pub dms: rdms_core::Dms,
    /// The recency bound `b`.
    pub bound: usize,
    /// The invariant φ (parsed form; the journal's `Open` record keeps the concrete
    /// syntax, and recovery cross-checks the two).
    pub invariant: rdms_db::Query,
    /// Whether the session emits violation certificates.
    pub emit_certificates: bool,
    /// The run spine at snapshot time.
    pub run: rdms_core::ExtendedRun,
    /// Accepted transactions (plus possibly the initial configuration) that violated φ.
    pub violations: usize,
    /// Length of the first violating prefix, if one was observed.
    pub first_violation_len: Option<usize>,
}

/// Atomically write a session's snapshot to `dir/`[`checkpoint_file_name`]: temp file,
/// fsync, rename, directory fsync — a crash mid-write never leaves a half-written file.
pub fn write_snapshot(dir: &Path, session: u64, snapshot: &SessionSnapshot) -> io::Result<()> {
    let json = serde_json::to_string(snapshot).expect("snapshots serialize");
    let tmp = dir.join(format!("session-{session}.checkpoint.tmp"));
    let path = dir.join(checkpoint_file_name(session));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    Ok(())
}

/// Read a snapshot back; `None` for a missing or undecodable file.
pub fn read_snapshot(path: &Path) -> Option<SessionSnapshot> {
    let json = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&json).ok()
}

/// A session restored from a journal at boot, parked until a client `Resume`s it.
#[derive(Debug)]
pub struct RecoveredSession {
    /// The rebuilt session: same run spine, interner and counters as at the last
    /// journaled transaction.
    pub session: Session,
    /// The journal file, re-opened for appending when the session is resumed.
    pub path: PathBuf,
    /// Accepted transactions replayed (the `Check` records applied).
    pub replayed: usize,
    /// Whether a torn tail was truncated off the file during recovery.
    pub truncated: bool,
}

/// Recover one journal file: parse, truncate any torn tail in place, and replay the
/// records into a fresh [`Session`]. Nothing but the journal is read — a file beside it,
/// such as a snapshot, never shortcuts the replay that validates every transition.
/// `Ok(None)` means the file is not a journal (wrong magic) or its records cannot rebuild
/// a session (no leading `Open`, invariant no longer parses, a replay diverges); such
/// files are left untouched for inspection.
pub fn recover_file(path: &Path) -> io::Result<Option<RecoveredSession>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let Some(parsed) = parse_journal(&bytes) else {
        return Ok(None);
    };
    if parsed.torn {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(parsed.good_len)?;
        file.sync_data()?;
    }
    Ok(
        replay(&parsed.records).map(|(session, replayed)| RecoveredSession {
            session,
            path: path.to_path_buf(),
            replayed,
            truncated: parsed.torn,
        }),
    )
}

/// Replay parsed records into a fresh session. Replay stops — keeping the prefix — at the
/// first record the session no longer accepts or that panics the checker (each record is
/// applied under `catch_unwind`, so one poisoned record cannot take recovery down).
pub fn replay(records: &[JournalRecord]) -> Option<(Session, usize)> {
    let mut records = records.iter();
    let JournalRecord::Open {
        dms,
        bound,
        invariant,
        emit_certificates,
    } = records.next()?
    else {
        return None;
    };
    let mut session = Session::open(dms.clone(), *bound, invariant, *emit_certificates).ok()?;
    let mut replayed = 0;
    for record in records {
        match record {
            JournalRecord::Check { action, bindings } => {
                let accepted = catch_unwind(AssertUnwindSafe(|| {
                    use crate::session::CheckOutcome;
                    matches!(
                        session.check(action, bindings),
                        CheckOutcome::Ok { .. } | CheckOutcome::Violation { .. }
                    )
                }));
                match accepted {
                    Ok(true) => replayed += 1,
                    // a rejection or panic on a record the original session accepted
                    // means the journal diverged from the engine; the prefix up to
                    // here is still exact
                    Ok(false) | Err(_) => break,
                }
            }
            JournalRecord::Revise {
                dms,
                bound,
                invariant,
            } => {
                // Journaled only after the engine accepted it, so a failure here
                // means divergence — keep the prefix, same as a rejected Check.
                // Revisions are input edits, not transactions: `replayed` counts
                // only accepted `Check` records.
                let applied = catch_unwind(AssertUnwindSafe(|| {
                    session
                        .revise(dms.clone(), *bound, invariant.as_deref())
                        .is_ok()
                }));
                if !matches!(applied, Ok(true)) {
                    break;
                }
            }
            JournalRecord::Open { .. } => {
                break; // a second Open mid-journal is corruption; keep the prefix
            }
        }
    }
    Some((session, replayed))
}

/// Recover every `session-<id>.journal` in `dir` (created lazily if absent). Unreadable
/// or unrecoverable files are reported on stderr and skipped — one bad journal must not
/// stop the server from booting.
pub fn recover_dir(dir: &Path) -> io::Result<Vec<(u64, RecoveredSession)>> {
    std::fs::create_dir_all(dir)?;
    let mut recovered = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(id) = name.to_str().and_then(parse_file_name) else {
            continue;
        };
        match recover_file(&entry.path()) {
            Ok(Some(session)) => recovered.push((id, session)),
            Ok(None) => {
                eprintln!(
                    "rdms-serve: {} is not a recoverable journal, skipping",
                    entry.path().display()
                );
            }
            Err(e) => {
                eprintln!(
                    "rdms-serve: failed to recover {}: {e}, skipping",
                    entry.path().display()
                );
            }
        }
    }
    recovered.sort_by_key(|(id, _)| *id);
    Ok(recovered)
}

/// Build the `Open` journal record for a session about to be opened.
pub fn open_record(
    dms: &rdms_core::Dms,
    bound: usize,
    invariant: &str,
    emit_certificates: bool,
) -> JournalRecord {
    JournalRecord::Open {
        dms: dms.clone(),
        bound,
        invariant: invariant.to_string(),
        emit_certificates,
    }
}

/// Map a journal-creation failure to the wire rejection for `Open`/`Resume`.
pub fn journal_error(e: &io::Error) -> (ErrorCode, String) {
    (ErrorCode::JournalError, format!("journal unavailable: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::dms::example_3_1;

    fn alpha(base: u64) -> JournalRecord {
        JournalRecord::Check {
            action: "alpha".into(),
            bindings: BTreeMap::from([
                ("v1".to_string(), base),
                ("v2".to_string(), base + 1),
                ("v3".to_string(), base + 2),
            ]),
        }
    }

    fn open() -> JournalRecord {
        open_record(&example_3_1(), 2, "true", false)
    }

    #[test]
    fn crc32_matches_the_reference_vectors() {
        // the canonical IEEE 802.3 check value and two spot vectors
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn records_round_trip_through_frames() {
        let buffer = SharedBuffer::default();
        let mut journal =
            Journal::with_sink(Box::new(buffer.clone()), &open(), DEFAULT_FSYNC_EVERY).unwrap();
        journal.append(&alpha(1));
        journal.append(&alpha(4));
        assert!(journal.broken().is_none());
        drop(journal);

        let parsed = parse_journal(&buffer.contents()).unwrap();
        assert!(!parsed.torn);
        assert_eq!(parsed.records, vec![open(), alpha(1), alpha(4)]);
        assert_eq!(parsed.good_len, buffer.contents().len() as u64);
    }

    #[test]
    fn every_truncation_point_loses_at_most_the_torn_frame() {
        let buffer = SharedBuffer::default();
        let mut journal =
            Journal::with_sink(Box::new(buffer.clone()), &open(), DEFAULT_FSYNC_EVERY).unwrap();
        journal.append(&alpha(1));
        journal.append(&alpha(4));
        drop(journal);
        let full = buffer.contents();
        let whole = parse_journal(&full).unwrap();

        for cut in 4..full.len() {
            let parsed = parse_journal(&full[..cut]).unwrap();
            // the parse never loses an intact frame, never invents one, and flags
            // exactly the non-boundary cuts as torn
            assert!(parsed.records.len() <= whole.records.len());
            assert_eq!(
                parsed.records,
                whole.records[..parsed.records.len()],
                "cut at {cut}"
            );
            assert_eq!(parsed.torn, parsed.good_len != cut as u64, "cut at {cut}");
            assert!(parsed.good_len <= cut as u64);
        }
    }

    #[test]
    fn corrupt_bytes_mid_file_cut_the_tail_not_the_head() {
        let buffer = SharedBuffer::default();
        let mut journal =
            Journal::with_sink(Box::new(buffer.clone()), &open(), DEFAULT_FSYNC_EVERY).unwrap();
        journal.append(&alpha(1));
        let head_len = buffer.contents().len();
        journal.append(&alpha(4));
        drop(journal);

        let mut bytes = buffer.contents();
        bytes[head_len + 10] ^= 0xFF; // flip a byte inside the last frame's payload
        let parsed = parse_journal(&bytes).unwrap();
        assert!(parsed.torn);
        assert_eq!(parsed.records, vec![open(), alpha(1)]);
        assert_eq!(parsed.good_len, head_len as u64);
    }

    #[test]
    fn non_journal_bytes_are_not_a_journal() {
        assert!(parse_journal(b"").is_none());
        assert!(parse_journal(b"RDJ").is_none());
        assert!(parse_journal(b"not a journal at all").is_none());
    }

    #[test]
    fn replay_rebuilds_the_session_counters() {
        let records = vec![
            open_record(&example_3_1(), 2, "!exists u. Q(u)", false),
            alpha(1),
        ];
        let (session, replayed) = replay(&records).unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(session.transactions(), 1);
        assert_eq!(session.violations(), 1);
    }

    #[test]
    fn replay_without_a_leading_open_is_refused() {
        assert!(replay(&[]).is_none());
        assert!(replay(&[alpha(1)]).is_none());
    }

    #[test]
    fn replay_stops_at_a_diverging_record_keeping_the_prefix() {
        let records = vec![
            open(),
            alpha(1),
            JournalRecord::Check {
                action: "no-such-action".into(),
                bindings: BTreeMap::new(),
            },
            alpha(4),
        ];
        let (session, replayed) = replay(&records).unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(session.transactions(), 1);
    }

    #[test]
    fn replay_applies_revise_records() {
        // the session opens with a trivially-true invariant, accepts one transaction,
        // then revises the invariant; replay must re-check the spine under the new φ
        let records = vec![
            open(),
            alpha(1),
            JournalRecord::Revise {
                dms: None,
                bound: None,
                invariant: Some("!exists u. Q(u)".to_string()),
            },
        ];
        let (session, replayed) = replay(&records).unwrap();
        // revisions are input edits, not transactions
        assert_eq!(replayed, 1);
        assert_eq!(session.transactions(), 1);
        assert_eq!(session.violations(), 1);
    }

    #[test]
    fn replay_stops_at_a_failing_revise_keeping_the_prefix() {
        // an open invariant is rejected by `Session::revise`; since the original
        // session only journals accepted revisions, this means divergence — replay
        // keeps the prefix and ignores the rest
        let records = vec![
            open(),
            alpha(1),
            JournalRecord::Revise {
                dms: None,
                bound: None,
                invariant: Some("Q(u)".to_string()),
            },
            alpha(4),
        ];
        let (session, replayed) = replay(&records).unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(session.transactions(), 1);
    }

    #[test]
    fn file_backed_create_recover_and_retire() {
        let dir = std::env::temp_dir().join(format!("rdms-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut journal = Journal::create(&dir, 7, &open(), 2).unwrap();
        journal.append(&alpha(1));
        journal.append(&alpha(4));
        drop(journal);

        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        let (id, recovered) = &recovered[0];
        assert_eq!(*id, 7);
        assert_eq!(recovered.replayed, 2);
        assert!(!recovered.truncated);
        assert_eq!(recovered.session.transactions(), 2);

        // torn tail: append garbage, recovery truncates it off in place
        {
            let mut file = OpenOptions::new()
                .append(true)
                .open(&recovered.path)
                .unwrap();
            file.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        }
        let reparsed = recover_file(&recovered.path).unwrap().unwrap();
        assert!(reparsed.truncated);
        assert_eq!(reparsed.replayed, 2);

        Journal::open_append(&recovered.path, 2)
            .unwrap()
            .retire()
            .unwrap();
        assert!(recover_dir(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(parse_file_name(&journal_file_name(42)), Some(42));
        assert_eq!(parse_file_name("session-.journal"), None);
        assert_eq!(parse_file_name("other.txt"), None);
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rdms-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshots_round_trip_through_disk() {
        let dir = test_dir("snapshot-roundtrip");
        let (session, _) = replay(&[open(), alpha(1), alpha(4)]).unwrap();
        let snapshot = session.snapshot();
        write_snapshot(&dir, 7, &snapshot).unwrap();

        let back = read_snapshot(&dir.join(checkpoint_file_name(7))).unwrap();
        assert_eq!(back.bound, snapshot.bound);
        assert_eq!(back.run.len(), 2);
        assert_eq!(back.violations, snapshot.violations);
        assert_eq!(back.first_violation_len, snapshot.first_violation_len);
        // a missing or mangled file reads as None, never a panic
        assert!(read_snapshot(&dir.join("no-such.checkpoint")).is_none());
        std::fs::write(dir.join(checkpoint_file_name(8)), b"{not json").unwrap();
        assert!(read_snapshot(&dir.join(checkpoint_file_name(8))).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_inconsistent_checkpoint_falls_back_to_full_replay() {
        // recovery trusts only the journal: a parseable checkpoint beside it that claims
        // no violation must not override a journal whose replay finds one
        let dir = test_dir("checkpoint-tampered");
        let records = vec![
            open_record(&example_3_1(), 2, "!exists u. Q(u)", false),
            alpha(1),
        ];
        let mut journal = Journal::create(&dir, 7, &records[0], 2).unwrap();
        journal.append(&records[1]);
        drop(journal);

        let (replayed, n) = replay(&records).unwrap();
        assert_eq!((replayed.violations(), n), (1, 1));
        let mut tampered = replayed.snapshot();
        tampered.violations = 0;
        tampered.first_violation_len = None;
        write_snapshot(&dir, 7, &tampered).unwrap();
        assert!(read_snapshot(&dir.join(checkpoint_file_name(7))).is_some());

        let recovered = recover_file(&dir.join(journal_file_name(7)))
            .unwrap()
            .unwrap();
        assert_eq!(recovered.replayed, n);
        assert_eq!(recovered.session.violations(), 1);
        assert_eq!(recovered.session.stats(), replayed.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
