//! Durable daemon state: write-ahead journal + compacted snapshots.
//!
//! The daemon is the long-lived multi-user service on the quantum access
//! node (paper §3.3–§3.5); if its state dies with the process, the
//! second-level scheduler is the least reliable component in the stack.
//! This module makes every state transition durable the way `slurmctld`
//! does with its StateSaveLocation: an append-only write-ahead log of
//! [`JournalRecord`]s plus periodic compacted [`DaemonSnapshot`]s.
//!
//! On-disk layout inside the journal directory:
//!
//! ```text
//! wal.log        length-prefixed, checksummed JSON records (append-only)
//! snapshot.json  last compacted full-state snapshot (atomic rename)
//! wal.covered    the WAL a snapshot install set aside (mid-install only)
//! ```
//!
//! Each WAL record is framed as
//! `[len: u32 LE][fnv1a32(payload): u32 LE][payload: len JSON bytes]`, so a
//! torn tail (the crash happened mid-`write`) is detected by a short read or
//! a checksum mismatch and replay stops at the last intact record instead of
//! refusing to start. Recovery = load `snapshot.json` (if any), then replay
//! the WAL tail over it — see [`MiddlewareService::recover`].
//!
//! [`MiddlewareService::recover`]: crate::daemon::MiddlewareService::recover

use crate::session::{PriorityClass, Session};
use crate::taskqueue::QuantumTask;
use hpcqc_emulator::SampleResult;
use hpcqc_wire as wire;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// One durable state transition. Appended *after* the in-memory transition
/// succeeds; replay applies them in order over the latest snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A session was opened (the full session, so replay can restore it).
    SessionOpened { session: Session },
    /// A session was closed by its owner.
    SessionClosed { token: String },
    /// Sessions were expired by the idle TTL.
    SessionsExpired { tokens: Vec<String> },
    /// A task was admitted (queued, or completed instantly from the dev
    /// cache — in that case a `TaskCompleted` record follows immediately).
    TaskSubmitted {
        task: QuantumTask,
        idempotency_key: Option<String>,
        warnings: Vec<String>,
    },
    /// A task left the queue for the device. If no terminal/requeue record
    /// follows, the daemon died mid-dispatch and recovery requeues it.
    TaskDispatched { id: u64, resource: String, at: f64 },
    /// A preempted/sliced task went back to the queue with work remaining.
    TaskRequeued { id: u64 },
    /// An execution attempt failed and the task was requeued; `resource`
    /// joins the task's excluded set.
    TaskAttemptFailed {
        id: u64,
        resource: String,
        error: String,
    },
    /// Terminal: completed with a result. `at` carries the post-execution
    /// daemon clock so recovery does not rewind time.
    TaskCompleted {
        id: u64,
        result: SampleResult,
        at: f64,
    },
    /// Terminal: failed permanently (validation can't fail here — rejected
    /// tasks are never journaled — so this is the poison cap).
    TaskFailed { id: u64, error: String },
    /// Terminal: cancelled by the owner.
    TaskCancelled { id: u64 },
    /// Admin changed the device status (string form of `QpuStatus`).
    QpuStatusChanged { status: String },
    /// The daemon clock advanced (simulated idle time).
    ClockAdvanced { to: f64 },
}

/// Full daemon state at a point in time; written by compaction, loaded as
/// the replay base. Running tasks are normalized back to queued — a snapshot
/// never claims work that has not finished.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DaemonSnapshot {
    pub clock: f64,
    /// Task-id high-water mark: the next id to assign.
    pub next_task: u64,
    /// Session-token counter high-water mark (token uniqueness across
    /// restarts).
    pub session_counter: u64,
    pub sessions: Vec<Session>,
    /// Queued (and formerly running) tasks, arrival order.
    pub queued: Vec<QuantumTask>,
    pub completed: Vec<(u64, SampleResult)>,
    pub failed: Vec<(u64, String)>,
    pub cancelled: Vec<u64>,
    /// (task id, class, submitted_at) for every known task.
    pub task_meta: Vec<(u64, PriorityClass, f64)>,
    /// (task id, attempts, excluded resources) for tasks with failures.
    pub failures: Vec<(u64, u32, Vec<String>)>,
    /// Warning-level analyzer findings per task (job records).
    pub warnings: Vec<(u64, Vec<String>)>,
    /// Idempotency key → original task id.
    pub idempotency: Vec<(String, u64)>,
    /// Last admin-set device status, if any.
    pub qpu_status: Option<String>,
}

/// Journal tuning knobs (part of `DaemonConfig`).
///
/// Never persisted — lives only in `DaemonConfig` — so new knobs need no
/// on-disk compatibility story.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JournalConfig {
    /// fsync the WAL every N appended records (1 = every record, the
    /// default; 0 disables periodic fsync — drain/compaction still fsync).
    /// Also an **upper bound on the group-commit batch**: a batch never
    /// buffers more records than `fsync_every`, so the durability window
    /// promised by this knob is preserved under group commit.
    pub fsync_every: usize,
    /// Compact (snapshot + truncate the WAL) once the WAL holds N records
    /// *and* the last snapshot's size in bytes (0 = never): amortized O(1)
    /// per byte, N keeping a tiny snapshot from compacting on every record.
    pub compact_every: usize,
    /// Group commit: buffer appends and flush them as one `write` + one
    /// `fsync` once this many records are batched. 1 (the default) is
    /// write-through — every append hits the OS immediately, exactly the
    /// pre-group-commit behavior. Capped by `fsync_every` when that is
    /// non-zero.
    pub group_max_records: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            fsync_every: 1,
            compact_every: 256,
            group_max_records: 1,
        }
    }
}

/// What one append did (for metrics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendOutcome {
    /// Framed bytes appended (header + payload).
    pub bytes: usize,
    /// Whether this append flushed the group-commit buffer to the OS.
    pub flushed: bool,
    /// Whether this append fsynced the WAL.
    pub fsynced: bool,
    /// Whether the compaction policy wants a snapshot after this append.
    /// Computed while the buffer state is already held, so callers do not
    /// have to re-lock the journal just to ask (the lock audit measured
    /// that second acquisition doubling buffer-lock traffic).
    pub wants_compaction: bool,
}

/// Result of reading a journal directory back.
#[derive(Debug, Default)]
pub struct Replay {
    /// The compaction base, when `snapshot.json` exists.
    pub snapshot: Option<DaemonSnapshot>,
    /// Intact WAL records after the snapshot, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn/corrupt tail discarded (0 on a clean shutdown).
    pub truncated_bytes: usize,
}

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.json";
const SNAPSHOT_TMP: &str = "snapshot.json.tmp";
const COVERED_WAL: &str = "wal.covered";

/// The intact prefix of WAL `bytes`: the payload of every
/// `[len][crc][payload]` frame up to the first torn header, short body or
/// checksum mismatch, and the bytes those frames span.
fn wal_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + 8;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            break; // torn tail: frame header promises more than exists
        };
        if wire::checksum(&bytes[start..end]) != crc {
            break; // corrupt record: stop at the last intact prefix
        }
        payloads.push(&bytes[start..end]);
        pos = end;
    }
    (payloads, pos)
}

fn invalid_data(e: serde_json::Error) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Durably replace `dir/name` with `bytes`: write a temp file, fsync it,
/// rename it over the old one, and fsync the directory so the rename itself
/// is on stable storage. A crash leaves the old file or the new one, never
/// a torn one.
fn replace_durably(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, bytes)?;
    File::open(&tmp)?.sync_data()?;
    std::fs::rename(&tmp, dir.join(name))?;
    File::open(dir)?.sync_all()
}

/// Make `snap` the replay base and return a fresh WAL. The covered WAL is
/// set aside as `wal.covered` before the snapshot is renamed in and removed
/// after `then` (the follower's cursor write), so [`settle_install`] knows
/// at every crash point which snapshot it belongs to (DESIGN §9).
fn install_snapshot(
    dir: &Path,
    snap: &[u8],
    then: impl FnOnce() -> io::Result<()>,
) -> io::Result<File> {
    let (tmp, covered) = (dir.join(SNAPSHOT_TMP), dir.join(COVERED_WAL));
    let sync_dir = || File::open(dir)?.sync_all();
    std::fs::write(&tmp, snap)?;
    File::open(&tmp)?.sync_data()?;
    std::fs::rename(dir.join(WAL_FILE), &covered)?;
    sync_dir()?;
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    let wal = File::create(dir.join(WAL_FILE))?;
    sync_dir()?;
    then()?;
    std::fs::remove_file(&covered)?;
    sync_dir()?;
    Ok(wal)
}

/// Finish an install a crash or an error cut short — `wal.covered` beside
/// the temp file moves back to `wal.log`; without it, it is covered and
/// dropped (`true`) — and open the WAL for appending.
fn settle_install(dir: &Path) -> io::Result<(File, bool)> {
    let covered = dir.join(COVERED_WAL);
    let (set_aside, tmp) = (covered.exists(), dir.join(SNAPSHOT_TMP).exists());
    if set_aside {
        match tmp {
            true => std::fs::rename(&covered, dir.join(WAL_FILE))?,
            false => std::fs::remove_file(&covered)?,
        }
        File::open(dir)?.sync_all()?;
    }
    let mut wal = OpenOptions::new();
    let wal = wal.create(true).append(true).open(dir.join(WAL_FILE))?;
    Ok((wal, set_aside && !tmp))
}

/// Reader of a journal directory. The writer is [`SharedJournal`].
pub struct Journal;

impl Journal {
    /// Read a journal directory back: snapshot (if any) plus every intact
    /// WAL record. A torn or corrupt WAL tail is measured and discarded,
    /// never an error — crash recovery must always make it back up. An
    /// unparseable snapshot *is* an error (`InvalidData`): it is installed
    /// by an atomic rename, so it is never torn, and replaying the WAL over
    /// an empty base would hand out task ids clients still hold.
    pub fn load(dir: impl AsRef<Path>) -> std::io::Result<Replay> {
        let dir = dir.as_ref();
        let mut replay = Replay::default();
        let snap_path = dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            let body = std::fs::read(&snap_path)?;
            replay.snapshot = Some(serde_json::from_slice(&body).map_err(invalid_data)?);
        }
        // a crash before an install's rename left the live WAL set aside
        let covered = dir.join(COVERED_WAL);
        let cut = covered.exists() && dir.join(SNAPSHOT_TMP).exists();
        let wal_path = if cut { covered } else { dir.join(WAL_FILE) };
        if !wal_path.exists() {
            return Ok(replay);
        }
        let mut buf = Vec::new();
        File::open(&wal_path)?.read_to_end(&mut buf)?;
        let (payloads, mut intact) = wal_frames(&buf);
        for (i, payload) in payloads.iter().enumerate() {
            match serde_json::from_slice::<JournalRecord>(payload) {
                Ok(rec) => replay.records.push(rec),
                Err(_) => {
                    // checksummed but unparseable: same policy
                    intact = payloads[..i].iter().map(|p| 8 + p.len()).sum();
                    break;
                }
            }
        }
        replay.truncated_bytes = buf.len() - intact;
        Ok(replay)
    }
}

// ---------------------------------------------------------------------------
// SharedJournal: the concurrent group-commit front end
// ---------------------------------------------------------------------------

/// Group-commit buffer state — everything a submitter touches. Kept apart
/// from [`FileState`] so that the (cheap) encode-and-buffer step never waits
/// behind a `write`+`fsync` another thread is performing.
struct BufState {
    cfg: JournalConfig,
    /// Framed records awaiting the next commit.
    buf: Vec<u8>,
    buf_records: usize,
    appends_since_fsync: usize,
    records_since_compact: usize,
    /// Bytes in the WAL, buffered ones included.
    wal_bytes: u64,
    snapshot_bytes: u64,
}

impl BufState {
    /// The compaction rule (see [`JournalConfig::compact_every`]).
    fn wants_compaction(&self) -> bool {
        self.cfg.compact_every > 0
            && self.records_since_compact >= self.cfg.compact_every
            && self.wal_bytes >= self.snapshot_bytes
    }
}

/// WAL file state — only committers and compaction touch this.
struct FileState {
    wal: File,
}

/// Append-only writer over a journal directory, safe to append to from many
/// threads without a convoy.
///
/// Appends go through a group-commit buffer: frames accumulate in memory
/// and are committed to the WAL as one `write` (and at most one `fsync`) per
/// batch, per the [`JournalConfig`] policy. Dropping the journal does
/// **not** flush — an unflushed batch dies with the process, exactly like a
/// crash; callers that need durability call [`SharedJournal::sync`] (drain
/// and compaction do). The buffer and the file live under *separate* tracked
/// locks
/// ([`hpcqc_sync::rank::JOURNAL_BUF`] / [`JOURNAL_FILE`]), so a submitter
/// whose append merely lands in the batch pays a few hundred nanoseconds of
/// buffer-lock work, while the one-in-`group_max_records` append that trips
/// the batch carries the `write`+`fsync` alone.
///
/// WAL order is kept by lock coupling (the private `commit`): the thread
/// that takes the buffered bytes acquires the file lock *before* it releases
/// the buffer lock, so batches reach the file in the order they left the
/// buffer — WAL byte order equals append order by construction — and
/// concurrent appends keep buffering while the write is in flight.
///
/// `append` returns only after any batch it tripped is on disk (and fsynced
/// when the policy says so), and `sync` makes everything buffered durable.
///
/// [`append_deferred`](Self::append_deferred) additionally lets latency-
/// sensitive callers (the daemon's submit path) trip a batch without paying
/// its `write`+`fsync`: the bytes simply stay in the buffer, and the next
/// `append`/`sync` commits them together with its own. Durability is
/// unchanged in *kind* — group commit already defers the write — only the
/// thread that pays for it moves off the client path.
pub struct SharedJournal {
    dir: PathBuf,
    buf: hpcqc_sync::TrackedMutex<BufState>,
    file: hpcqc_sync::TrackedMutex<FileState>,
    /// Leader→follower shipping stream. `None` until
    /// [`enable_shipping`](Self::enable_shipping); appended right after a
    /// WAL write, still under the file lock, so the stream order always
    /// equals the WAL byte order.
    shipping: hpcqc_sync::TrackedMutex<Option<ShippingLog>>,
}

impl SharedJournal {
    /// Open (creating if needed) the journal in `dir`. Appends go to the end
    /// of any existing WAL — call [`Journal::load`] first when recovering.
    pub fn open(dir: impl AsRef<Path>, cfg: JournalConfig) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let (wal, _) = settle_install(&dir)?;
        let snapshot_bytes = std::fs::metadata(dir.join(SNAPSHOT_FILE)).map_or(0, |m| m.len());
        Ok(SharedJournal {
            dir,
            buf: hpcqc_sync::TrackedMutex::new(
                "middleware.journal.buf",
                hpcqc_sync::rank::JOURNAL_BUF,
                BufState {
                    cfg,
                    buf: Vec::new(),
                    buf_records: 0,
                    appends_since_fsync: 0,
                    records_since_compact: 0,
                    wal_bytes: wal.metadata()?.len(),
                    snapshot_bytes,
                },
            ),
            file: hpcqc_sync::TrackedMutex::new(
                "middleware.journal.file",
                hpcqc_sync::rank::JOURNAL_FILE,
                FileState { wal },
            ),
            shipping: hpcqc_sync::TrackedMutex::new(
                "middleware.journal.shiplog",
                hpcqc_sync::rank::SHIP_LOG,
                None,
            ),
        })
    }

    /// Records buffered but not yet flushed to the OS.
    pub fn pending_records(&self) -> usize {
        self.buf.lock().buf_records
    }

    /// Appends since the last fsync (buffered or flushed-but-unsynced);
    /// never below [`pending_records`](Self::pending_records).
    pub fn unsynced_appends(&self) -> usize {
        self.buf.lock().appends_since_fsync
    }

    /// Whether the compaction policy says it is time to snapshot.
    pub fn wants_compaction(&self) -> bool {
        self.buf.lock().wants_compaction()
    }

    /// Effective batch size: `group_max_records`, capped by `fsync_every`
    /// (which bounds how many appends may be un-durable), never below 1.
    fn batch_limit(cfg: &JournalConfig) -> usize {
        let g = cfg.group_max_records.max(1);
        if cfg.fsync_every > 0 {
            g.min(cfg.fsync_every)
        } else {
            g
        }
    }

    /// The one commit path. Take everything buffered, then acquire the file
    /// lock **before** releasing the buffer lock: whoever takes the next
    /// batch (or compacts) queues on the file lock behind this one, so WAL
    /// order equals buffer order and a batch taken before a compaction can
    /// never land in the WAL that compaction cut. The `write`, the `fsync`
    /// and the shipping-log push run under the file lock alone.
    fn commit(
        &self,
        mut b: hpcqc_sync::TrackedMutexGuard<'_, BufState>,
        fsync: bool,
    ) -> std::io::Result<()> {
        let bytes = std::mem::take(&mut b.buf);
        let records = std::mem::take(&mut b.buf_records);
        if fsync {
            b.appends_since_fsync = 0;
        }
        let mut f = self.file.lock();
        drop(b);
        if !bytes.is_empty() {
            f.wal.write_all(&bytes)?;
        }
        if fsync {
            f.wal.sync_data()?;
        }
        // Failed or empty writes ship nothing.
        if !bytes.is_empty() {
            if let Some(log) = self.shipping.lock().as_mut() {
                log.push_batch(records as u64, &bytes);
            }
        }
        Ok(())
    }

    /// Append one record into the group-commit buffer; commit the batch it
    /// completes, if any (one `write`, at most one `fsync`). Only the
    /// tripping thread pays for that — concurrent appends keep buffering
    /// meanwhile.
    pub fn append(&self, rec: &JournalRecord) -> std::io::Result<AppendOutcome> {
        self.append_inner(rec, false)
    }

    /// Append one record without ever paying for a WAL write: a batch this
    /// append trips stays in the buffer for the next `append`/`sync` caller
    /// (in practice the background dispatcher, which journals every
    /// dispatch) to commit along with its own record. This is the
    /// submit-path variant — the lock audit traced the daemon's submit p99
    /// to one-in-`group_max_records` submitters eating a multi-millisecond
    /// `write`+`fsync`.
    ///
    /// `flushed`/`fsynced` report `false` because nothing reached the OS on
    /// this call. Under a write-through config deferral is disabled (see
    /// `append_inner`) and this is `append`.
    pub fn append_deferred(&self, rec: &JournalRecord) -> std::io::Result<AppendOutcome> {
        self.append_inner(rec, true)
    }

    fn append_inner(&self, rec: &JournalRecord, defer: bool) -> std::io::Result<AppendOutcome> {
        let payload = serde_json::to_string(rec)
            .map_err(invalid_data)?
            .into_bytes();
        let frame_len = payload.len() + 8;

        let mut b = self.buf.lock();
        b.buf.reserve(frame_len);
        b.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        b.buf
            .extend_from_slice(&wire::checksum(&payload).to_le_bytes());
        b.buf.extend_from_slice(&payload);
        b.buf_records += 1;
        b.appends_since_fsync += 1;
        b.records_since_compact += 1;
        b.wal_bytes += frame_len as u64;
        let mut out = AppendOutcome {
            bytes: frame_len,
            flushed: false,
            fsynced: false,
            wants_compaction: b.wants_compaction(),
        };

        // Write-through (batch limit 1) is an explicit request for
        // per-append durability — honor it even on the deferred path.
        // Deferral only moves the payer when group commit already defers
        // durability to a batch boundary.
        let limit = Self::batch_limit(&b.cfg);
        if b.buf_records < limit || (defer && limit > 1) {
            return Ok(out);
        }
        let fsync = b.cfg.fsync_every > 0 && b.appends_since_fsync >= b.cfg.fsync_every;
        (out.flushed, out.fsynced) = (true, fsync);
        self.commit(b, fsync)?;
        Ok(out)
    }

    /// Commit anything buffered and force the WAL to stable storage.
    pub fn sync(&self) -> std::io::Result<()> {
        self.commit(self.buf.lock(), true)
    }

    /// Compact: atomically persist `snap` as the new replay base and start
    /// an empty WAL (crash-safe, see `install_snapshot`). Safe against
    /// concurrent appends: the buffer is cleared under the buffer lock, and
    /// the file lock taken next is granted only after every batch that ever
    /// left the buffer has finished its write (see `commit`)
    /// — a stale in-flight batch can never resurface in the fresh WAL.
    ///
    /// Note that an append racing this call may still land records in the
    /// cut WAL *after* the snapshot was taken but miss the snapshot itself;
    /// the daemon excludes that interleaving with its compaction gate
    /// (appends hold it shared, compaction exclusive — see
    /// `MiddlewareService::journal_append`).
    pub fn compact(&self, snap: &DaemonSnapshot) -> std::io::Result<()> {
        let body = serde_json::to_string(snap)
            .map_err(invalid_data)?
            .into_bytes();
        let mut b = self.buf.lock();
        // the snapshot covers everything the WAL (and the unflushed batch)
        // said: drop the buffer and start a fresh log
        b.buf.clear();
        b.buf_records = 0;
        b.appends_since_fsync = 0;
        b.records_since_compact = 0;
        b.wal_bytes = 0;
        b.snapshot_bytes = body.len() as u64;
        let mut f = self.file.lock();
        let installed = install_snapshot(&self.dir, &body, || Ok(()));
        if installed.is_err() {
            // settled as recovery would, and appends go to the WAL it reads
            f.wal = settle_install(&self.dir)?.0;
        }
        f.wal = installed?;
        // Ship the compaction as a snapshot event, still under the file
        // lock, so no batch event can interleave between the WAL cut and
        // this event. Earlier events are superseded (the snapshot carries
        // the full state), so the log is trimmed to it and a follower behind
        // the trim point resyncs from the snapshot.
        if let Some(log) = self.shipping.lock().as_mut() {
            log.push_snapshot(&body);
        }
        Ok(())
    }

    /// Turn on leader→follower shipping, emitting the journal's *current*
    /// durable state (snapshot + WAL bytes) as the stream's bootstrap events
    /// so a follower starting at sequence 0 reconstructs it exactly.
    ///
    /// Call right after [`open`](Self::open) / recovery, before concurrent
    /// appends begin — the bootstrap reads the files under the file lock but
    /// does not commit what is still buffered.
    pub fn enable_shipping(&self) -> std::io::Result<()> {
        let f = self.file.lock();
        let snap = match std::fs::read(self.dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let wal = std::fs::read(self.dir.join(WAL_FILE))?;
        drop(f);
        let mut s = self.shipping.lock();
        if s.is_some() {
            return Ok(());
        }
        let mut log = ShippingLog::default();
        if let Some(snap) = snap {
            log.push_snapshot(&snap);
        }
        if !wal.is_empty() {
            // the records recovery would replay from these bytes
            let records = wal_frames(&wal).0.len() as u64;
            log.push_batch(records, &wal);
        }
        *s = Some(log);
        Ok(())
    }

    /// Events with sequence ≥ `from_seq`, for (re)transmission to a
    /// follower. If `from_seq` predates the retained window (trimmed at the
    /// last snapshot event), the full retained tail is returned — it begins
    /// with a snapshot event, which followers accept as a forward resync.
    /// Empty when shipping is disabled or the follower is caught up.
    pub fn ship_fetch(&self, from_seq: u64) -> Vec<ShipEvent> {
        let s = self.shipping.lock();
        let Some(log) = s.as_ref() else {
            return Vec::new();
        };
        log.events
            .iter()
            .filter(|ev| ev.seq() >= from_seq)
            .cloned()
            .collect()
    }

    /// Record a follower's durable-apply acknowledgement. Events every
    /// follower has acked are dropped from the retained window — they can
    /// never be refetched (acks only move forward), and trimming keeps the
    /// fetch/lag scans O(pending) instead of O(history). A follower joining
    /// later than the trim waits for the next compaction's snapshot event,
    /// which resets the stream wholesale.
    pub fn ship_ack(&self, follower: &str, ack: ReplicaAck) {
        let mut s = self.shipping.lock();
        if let Some(log) = s.as_mut() {
            log.followers.insert(follower.to_string(), ack);
            if let Some(floor) = log.followers.values().map(|a| a.applied_seq).min() {
                while log.events.front().is_some_and(|ev| ev.seq() < floor) {
                    log.events.pop_front();
                }
            }
        }
    }

    /// The most advanced follower acknowledgement seen so far — the bar a
    /// promotion candidate must meet (`None`: no follower ever acked).
    pub fn ship_last_acked(&self) -> Option<ReplicaAck> {
        let s = self.shipping.lock();
        s.as_ref().and_then(|log| {
            log.followers
                .values()
                .max_by_key(|a| a.applied_seq)
                .copied()
        })
    }

    /// Shipped-but-unacked gap `(records, bytes)` relative to the most
    /// *behind* follower (every event counts while no follower has acked);
    /// `None` while shipping is off.
    pub fn ship_lag(&self) -> Option<(u64, u64)> {
        let s = self.shipping.lock();
        let log = s.as_ref()?;
        let floor = log
            .followers
            .values()
            .map(|a| a.applied_seq)
            .min()
            .unwrap_or(0);
        let unacked = log.events.iter().filter(|ev| ev.seq() >= floor);
        Some(unacked.fold((0, 0), |(r, b), ev| {
            (r + ev.records(), b + ev.payload_len() as u64)
        }))
    }
}

// ---------------------------------------------------------------------------
// Leader→follower journal shipping.
//
// The leader's group-commit batches double as the replication unit: every
// batch that lands on the leader's WAL is also appended — checksummed and
// sequence-numbered — to an in-memory shipping log, and compactions ship the
// snapshot itself. A follower applies events onto its own journal directory
// (bytes verbatim, so the follower's files are bit-identical to the state
// the leader persisted) and acknowledges how far it is durably applied.
// Promotion replays that directory through the ordinary recovery path.
// ---------------------------------------------------------------------------

/// One group-commit batch on the shipping stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShippedBatch {
    /// Position in the shipping stream (contiguous, per leader).
    pub seq: u64,
    /// Byte offset in the follower's WAL where `bytes` must land — the
    /// offset-based resume/validation cursor.
    pub offset: u64,
    /// Records framed into `bytes`.
    pub records: u64,
    /// FNV-1a over `bytes`; a torn or bit-flipped transfer fails this before
    /// anything touches the follower's journal.
    pub checksum: u32,
    /// The WAL bytes exactly as the leader wrote them (framing included).
    pub bytes: Vec<u8>,
}

/// A compaction snapshot on the shipping stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShippedSnapshot {
    /// Position in the shipping stream.
    pub seq: u64,
    /// FNV-1a over `bytes`.
    pub checksum: u32,
    /// The snapshot JSON exactly as the leader persisted it.
    pub bytes: Vec<u8>,
}

/// One event on the leader→follower shipping stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShipEvent {
    /// Append these WAL bytes at the stated offset.
    Batch(ShippedBatch),
    /// Replace the snapshot and truncate the WAL (full-state resync point).
    Snapshot(ShippedSnapshot),
}

impl ShipEvent {
    /// Stream sequence of this event.
    pub fn seq(&self) -> u64 {
        match self {
            ShipEvent::Batch(b) => b.seq,
            ShipEvent::Snapshot(s) => s.seq,
        }
    }

    /// Payload bytes carried.
    pub fn payload_len(&self) -> usize {
        match self {
            ShipEvent::Batch(b) => b.bytes.len(),
            ShipEvent::Snapshot(s) => s.bytes.len(),
        }
    }

    /// Journal records carried (snapshots count 0 — they *replace* state).
    pub fn records(&self) -> u64 {
        match self {
            ShipEvent::Batch(b) => b.records,
            ShipEvent::Snapshot(_) => 0,
        }
    }
}

/// A follower's durable-apply cursor: how many stream events it has applied
/// and how long its WAL is. Acks carry this; promotion is refused below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplicaAck {
    /// Events applied (also the next sequence the follower expects).
    pub applied_seq: u64,
    /// Bytes durably in the follower's WAL.
    pub wal_len: u64,
}

impl ReplicaAck {
    /// Whether a replica at `self` may be promoted when the cluster has
    /// acknowledged up to `bar` (snapshots reset `wal_len`, so the sequence
    /// dominates and the offset breaks ties).
    pub fn at_least(&self, bar: &ReplicaAck) -> bool {
        (self.applied_seq, self.wal_len) >= (bar.applied_seq, bar.wal_len)
    }
}

/// Leader-side shipping state: the retained event window plus follower acks.
#[derive(Default)]
struct ShippingLog {
    events: std::collections::VecDeque<ShipEvent>,
    next_seq: u64,
    /// Leader WAL length as of the last shipped event (assigns offsets).
    wal_offset: u64,
    followers: std::collections::BTreeMap<String, ReplicaAck>,
}

impl ShippingLog {
    fn push_batch(&mut self, records: u64, bytes: &[u8]) {
        let ev = ShippedBatch {
            seq: self.next_seq,
            offset: self.wal_offset,
            records,
            checksum: wire::checksum(bytes),
            bytes: bytes.to_vec(),
        };
        self.next_seq += 1;
        self.wal_offset += bytes.len() as u64;
        self.events.push_back(ShipEvent::Batch(ev));
    }

    fn push_snapshot(&mut self, bytes: &[u8]) {
        let ev = ShippedSnapshot {
            seq: self.next_seq,
            checksum: wire::checksum(bytes),
            bytes: bytes.to_vec(),
        };
        self.next_seq += 1;
        self.wal_offset = 0;
        // The snapshot supersedes everything before it: trim the window.
        self.events.clear();
        self.events.push_back(ShipEvent::Snapshot(ev));
    }
}

/// Why a follower refused a shipped event.
#[derive(Debug)]
pub enum ShipError {
    /// Payload failed its FNV check — torn or corrupted in transfer.
    Checksum { seq: u64 },
    /// Not the next expected sequence (reordered, replayed, or gapped).
    Sequence { expected: u64, got: u64 },
    /// Batch offset does not match the follower's WAL length.
    Offset { expected: u64, got: u64 },
    /// Local I/O failure while applying.
    Io(std::io::Error),
}

impl ShipError {
    /// Stable label for metrics (`replication_rejected_events_total`).
    pub fn reason(&self) -> &'static str {
        match self {
            ShipError::Checksum { .. } => "checksum",
            ShipError::Sequence { .. } => "sequence",
            ShipError::Offset { .. } => "offset",
            ShipError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for ShipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShipError::Checksum { seq } => write!(f, "checksum mismatch at seq {seq}"),
            ShipError::Sequence { expected, got } => {
                write!(f, "sequence gap: expected {expected}, got {got}")
            }
            ShipError::Offset { expected, got } => {
                write!(f, "offset mismatch: wal at {expected}, batch at {got}")
            }
            ShipError::Io(e) => write!(f, "apply failed: {e}"),
        }
    }
}

impl std::error::Error for ShipError {}

impl From<std::io::Error> for ShipError {
    fn from(e: std::io::Error) -> Self {
        ShipError::Io(e)
    }
}

/// Follower-side cursor metadata persisted next to the replicated journal.
const REPLICA_META_FILE: &str = "replica.json";

/// A warm-standby journal directory fed by a leader's shipping stream.
///
/// Applies [`ShipEvent`]s verbatim onto its own `wal.log` / `snapshot.json`
/// after validating checksum, sequence contiguity and WAL offset, then
/// fsyncs — an ack from a follower means the bytes are on *its* stable
/// storage. The directory is a valid journal at every point, so
/// promotion is exactly `MiddlewareService::recover` over it.
pub struct FollowerReplica {
    dir: PathBuf,
    wal: File,
    next_seq: u64,
    wal_len: u64,
}

impl FollowerReplica {
    /// Open (creating if needed) a replica in `dir`, resuming its cursor
    /// from the persisted metadata when present. A cursor that does not
    /// parse, or names more WAL than there is, is `InvalidData`: restarting
    /// at sequence 0 would re-apply the whole stream. WAL past the cursor
    /// is a round never acked (a crash beat its cursor): it is cut off. An
    /// old cursor beside a snapshot installed without it is re-based one
    /// sequence on, at or below the snapshot's, and saved.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let (wal, installed) = settle_install(&dir)?;
        let on_disk = wal.metadata()?.len();
        let (next_seq, wal_len) = match Self::peek_ack(&dir) {
            Ok(ack) if ack.wal_len <= on_disk => (ack.applied_seq, ack.wal_len),
            Ok(ack) if installed => (ack.applied_seq + 1, 0),
            Ok(_) => return Err(std::io::ErrorKind::InvalidData.into()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (0, on_disk),
            Err(e) => return Err(e),
        };
        wal.set_len(wal_len)?;
        wal.sync_data()?;
        let replica = FollowerReplica {
            dir,
            wal,
            next_seq,
            wal_len,
        };
        if installed {
            replica.write_cursor(replica.ack())?;
        }
        Ok(replica)
    }

    /// Current durable cursor — what this follower would ack.
    pub fn ack(&self) -> ReplicaAck {
        ReplicaAck {
            applied_seq: self.next_seq,
            wal_len: self.wal_len,
        }
    }

    /// Read a replica directory's persisted cursor without opening it (the
    /// promotion-refusal check reads this).
    pub fn peek_ack(dir: impl AsRef<Path>) -> std::io::Result<ReplicaAck> {
        let text = std::fs::read_to_string(dir.as_ref().join(REPLICA_META_FILE))?;
        serde_json::from_str(&text).map_err(invalid_data)
    }

    /// Validate and durably apply one shipped event; returns the new cursor
    /// (the ack to send). Rejected events leave the replica untouched, so a
    /// retransmission of the valid event still applies cleanly.
    pub fn apply(&mut self, ev: &ShipEvent) -> Result<ReplicaAck, ShipError> {
        self.apply_unsynced(ev)?;
        self.finish_round()?;
        Ok(self.ack())
    }

    /// Apply a run of events with one durability point: every batch is
    /// written in order, the WAL is fsynced once at the end of the run, and
    /// the cursor is persisted once — the follower-side mirror of the
    /// leader's group commit, and the reason acks are emitted per *round*,
    /// not per event. A validation failure stops the run; the already-
    /// written prefix is made durable and counted. Returns `(applied,
    /// rejection)`.
    pub fn apply_all(&mut self, events: &[ShipEvent]) -> (usize, Option<ShipError>) {
        let mut applied = 0;
        let mut err = None;
        for ev in events {
            match self.apply_unsynced(ev) {
                Ok(()) => applied += 1,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if let Err(e) = self.finish_round() {
            err.get_or_insert(e);
        }
        (applied, err)
    }

    /// Make the round's writes durable, then the cursor: an ack never
    /// names a cursor that is not on disk.
    fn finish_round(&mut self) -> Result<(), ShipError> {
        self.wal.sync_data()?;
        Ok(self.write_cursor(self.ack())?)
    }

    fn write_cursor(&self, ack: ReplicaAck) -> std::io::Result<()> {
        let ack = serde_json::to_string(&ack).map_err(invalid_data)?;
        replace_durably(&self.dir, REPLICA_META_FILE, ack.as_bytes())
    }

    /// Validate and write one event without the round-closing fsync.
    fn apply_unsynced(&mut self, ev: &ShipEvent) -> Result<(), ShipError> {
        match ev {
            ShipEvent::Batch(b) => {
                if wire::checksum(&b.bytes) != b.checksum {
                    return Err(ShipError::Checksum { seq: b.seq });
                }
                if b.seq != self.next_seq {
                    return Err(ShipError::Sequence {
                        expected: self.next_seq,
                        got: b.seq,
                    });
                }
                if b.offset != self.wal_len {
                    return Err(ShipError::Offset {
                        expected: self.wal_len,
                        got: b.offset,
                    });
                }
                self.wal.write_all(&b.bytes)?;
                self.wal_len += b.bytes.len() as u64;
                self.next_seq = b.seq + 1;
            }
            ShipEvent::Snapshot(s) => {
                if wire::checksum(&s.bytes) != s.checksum {
                    return Err(ShipError::Checksum { seq: s.seq });
                }
                // Forward jumps are allowed: a snapshot is a full-state
                // resync, so a follower behind the leader's retained window
                // re-bases on it. Replayed/reordered snapshots are not.
                if s.seq < self.next_seq {
                    return Err(ShipError::Sequence {
                        expected: self.next_seq,
                        got: s.seq,
                    });
                }
                // a crash inside leaves what `settle_install` and `open`
                // put right (DESIGN §9, *Install order*)
                let ack = ReplicaAck {
                    applied_seq: s.seq + 1,
                    wal_len: 0,
                };
                self.wal = install_snapshot(&self.dir, &s.bytes, || self.write_cursor(ack))?;
                (self.next_seq, self.wal_len) = (ack.applied_seq, 0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory, removed again when dropped.
    struct TmpDir(PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TmpDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(tag: &str) -> TmpDir {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/journal-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }

    fn rec(id: u64) -> JournalRecord {
        JournalRecord::TaskCancelled { id }
    }

    #[test]
    fn append_and_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        for i in 0..5 {
            let out = j.append(&rec(i)).unwrap();
            assert!(out.bytes > 8);
            assert!(out.flushed, "fsync_every=1 is write-through");
            assert!(out.fsynced, "fsync_every=1 syncs each append");
        }
        j.append(&JournalRecord::ClockAdvanced { to: 12.5 })
            .unwrap();
        let replay = Journal::load(&dir).unwrap();
        assert!(replay.snapshot.is_none());
        assert_eq!(replay.records.len(), 6);
        assert_eq!(replay.records[2], rec(2));
        assert_eq!(replay.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = tmpdir("torn");
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        for i in 0..4 {
            j.append(&rec(i)).unwrap();
        }
        // simulate a crash mid-write: chop bytes off the last frame
        let wal = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let replay = Journal::load(&dir).unwrap();
        assert_eq!(replay.records.len(), 3, "last record torn away");
        assert!(replay.truncated_bytes > 0);
    }

    #[test]
    fn corrupt_record_stops_replay_at_last_intact_prefix() {
        let dir = tmpdir("corrupt");
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        for i in 0..3 {
            j.append(&rec(i)).unwrap();
        }
        let wal = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal).unwrap();
        // flip a payload bit in the middle record
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&wal, &bytes).unwrap();
        let replay = Journal::load(&dir).unwrap();
        assert!(replay.records.len() < 3);
        assert!(replay.truncated_bytes > 0);
    }

    #[test]
    fn compaction_truncates_wal_and_persists_snapshot() {
        let dir = tmpdir("compact");
        let j = SharedJournal::open(
            &dir,
            JournalConfig {
                fsync_every: 1,
                compact_every: 3,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        assert!(!j.wants_compaction());
        for i in 0..3 {
            j.append(&rec(i)).unwrap();
        }
        assert!(j.wants_compaction());
        let snap = DaemonSnapshot {
            next_task: 42,
            cancelled: vec![0, 1, 2],
            ..DaemonSnapshot::default()
        };
        j.compact(&snap).unwrap();
        assert!(!j.wants_compaction());
        // appends after compaction land in the fresh WAL
        j.append(&rec(99)).unwrap();
        let replay = Journal::load(&dir).unwrap();
        assert_eq!(replay.snapshot.as_ref().unwrap().next_task, 42);
        assert_eq!(replay.records, vec![rec(99)]);
    }

    #[test]
    fn group_commit_buffers_until_batch_full() {
        let dir = tmpdir("group");
        let cfg = JournalConfig {
            fsync_every: 4,
            compact_every: 0,
            group_max_records: 4,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        for i in 0..3 {
            let out = j.append(&rec(i)).unwrap();
            assert!(!out.flushed, "batch not full yet");
            assert!(!out.fsynced);
        }
        assert_eq!(j.pending_records(), 3);
        // an unflushed batch is invisible to a reader (= lost on crash)
        assert_eq!(Journal::load(&dir).unwrap().records.len(), 0);
        let out = j.append(&rec(3)).unwrap();
        assert!(out.flushed, "4th record fills the batch");
        assert!(out.fsynced, "one fsync covers the whole batch");
        assert_eq!(j.pending_records(), 0);
        let replay = Journal::load(&dir).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.truncated_bytes, 0);
    }

    #[test]
    fn fsync_every_caps_the_batch() {
        let dir = tmpdir("group-cap");
        let cfg = JournalConfig {
            fsync_every: 2,
            compact_every: 0,
            group_max_records: 100,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        assert!(!j.append(&rec(0)).unwrap().flushed);
        let out = j.append(&rec(1)).unwrap();
        assert!(out.flushed, "fsync_every bounds the batch at 2");
        assert!(out.fsynced);
    }

    #[test]
    fn sync_flushes_pending_batch() {
        let dir = tmpdir("group-sync");
        let cfg = JournalConfig {
            fsync_every: 0,
            compact_every: 0,
            group_max_records: 8,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        j.append(&rec(0)).unwrap();
        j.append(&rec(1)).unwrap();
        assert_eq!(j.pending_records(), 2);
        j.sync().unwrap();
        assert_eq!(j.pending_records(), 0);
        assert_eq!(Journal::load(&dir).unwrap().records.len(), 2);
    }

    #[test]
    fn drop_without_flush_loses_only_the_batch() {
        let dir = tmpdir("group-drop");
        let cfg = JournalConfig {
            fsync_every: 0,
            compact_every: 0,
            group_max_records: 3,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        for i in 0..3 {
            j.append(&rec(i)).unwrap(); // full batch → flushed
        }
        j.append(&rec(3)).unwrap(); // buffered
        j.append(&rec(4)).unwrap(); // buffered
        drop(j); // simulated crash: Drop must NOT flush
        let replay = Journal::load(&dir).unwrap();
        assert_eq!(
            replay.records.len(),
            3,
            "only the flushed prefix survives a crash"
        );
        assert_eq!(replay.truncated_bytes, 0, "no torn frame, a clean prefix");
    }

    #[test]
    fn compaction_drops_the_unflushed_batch() {
        let dir = tmpdir("group-compact");
        let cfg = JournalConfig {
            fsync_every: 0,
            compact_every: 0,
            group_max_records: 10,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        j.append(&rec(0)).unwrap();
        j.append(&rec(1)).unwrap();
        let snap = DaemonSnapshot {
            next_task: 7,
            ..DaemonSnapshot::default()
        };
        j.compact(&snap).unwrap();
        assert_eq!(j.pending_records(), 0);
        let replay = Journal::load(&dir).unwrap();
        assert_eq!(replay.snapshot.as_ref().unwrap().next_task, 7);
        assert!(
            replay.records.is_empty(),
            "snapshot supersedes the buffered records; they must not \
             resurface in the fresh WAL"
        );
    }

    #[test]
    fn empty_directory_loads_empty() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let replay = Journal::load(&dir).unwrap();
        assert!(replay.snapshot.is_none());
        assert!(replay.records.is_empty());
    }

    #[test]
    fn shared_journal_group_commit_buffers_and_sync_drains() {
        let dir = tmpdir("shared-group");
        let cfg = JournalConfig {
            fsync_every: 4,
            compact_every: 0,
            group_max_records: 4,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        for i in 0..3 {
            let out = j.append(&rec(i)).unwrap();
            assert!(!out.flushed);
        }
        assert_eq!(j.pending_records(), 3);
        assert_eq!(Journal::load(&dir).unwrap().records.len(), 0);
        let out = j.append(&rec(3)).unwrap();
        assert!(out.flushed && out.fsynced, "4th record trips the batch");
        assert_eq!(j.pending_records(), 0);
        j.append(&rec(4)).unwrap();
        assert_eq!(j.unsynced_appends(), 1);
        j.sync().unwrap();
        assert_eq!(j.unsynced_appends(), 0);
        assert_eq!(Journal::load(&dir).unwrap().records.len(), 5);
    }

    #[test]
    fn shared_journal_concurrent_appends_all_land_intact() {
        let dir = tmpdir("shared-concurrent");
        let cfg = JournalConfig {
            fsync_every: 0, // keep the test off the fsync path for speed
            compact_every: 0,
            group_max_records: 7,
        };
        let j = std::sync::Arc::new(SharedJournal::open(&dir, cfg).unwrap());
        // Even threads pay for the batches they trip; odd threads defer
        // every append and call `sync` now and then, so all three ways into
        // the commit path race each other.
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let j = std::sync::Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        if t % 2 == 0 {
                            j.append(&rec(t * 1000 + i)).unwrap();
                        } else {
                            j.append_deferred(&rec(t * 1000 + i)).unwrap();
                            if i % 16 == 15 {
                                j.sync().unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        j.sync().unwrap();
        assert_eq!(j.pending_records(), 0);
        let replay = Journal::load(&dir).unwrap();
        assert_eq!(replay.records.len(), 400, "no record lost or torn");
        assert_eq!(replay.truncated_bytes, 0, "batches landed whole, in order");
        // Every thread's records appear in its own submission order.
        for t in 0..8u64 {
            let mine: Vec<u64> = replay
                .records
                .iter()
                .filter_map(|r| match r {
                    JournalRecord::TaskCancelled { id } if id / 1000 == t => Some(id % 1000),
                    _ => None,
                })
                .collect();
            assert_eq!(mine, (0..50).collect::<Vec<_>>(), "thread {t} order");
        }
    }

    #[test]
    fn deferred_append_parks_batch_and_next_writer_pays() {
        let dir = tmpdir("shared-deferred");
        let cfg = JournalConfig {
            fsync_every: 2,
            compact_every: 0,
            group_max_records: 2,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        j.enable_shipping().unwrap();
        // three deferred trips (records 1, 3, 5 each complete a batch of 2)
        for i in 0..6 {
            let out = j.append_deferred(&rec(i)).unwrap();
            assert!(
                !out.flushed && !out.fsynced,
                "a tripping deferred append leaves the batch for a payer"
            );
        }
        assert_eq!(j.pending_records(), 6);
        assert_eq!(
            Journal::load(&dir).unwrap().records.len(),
            0,
            "nothing on disk yet"
        );
        assert!(j.ship_fetch(0).is_empty(), "nothing shipped yet");
        // The next ordinary writer pays for everything buffered, at once.
        let out = j.append(&rec(6)).unwrap();
        assert!(out.flushed && out.fsynced);
        assert_eq!(j.pending_records(), 0);
        assert_eq!(j.unsynced_appends(), 0);
        let replay = Journal::load(&dir).unwrap();
        assert_eq!(
            replay.records,
            (0..7).map(rec).collect::<Vec<_>>(),
            "deferred records land before the payer's, in append order"
        );
        let shipped = j.ship_fetch(0);
        assert_eq!(shipped.len(), 1, "one write, one fsync, one batch event");
        assert_eq!(shipped[0].records(), 7);
    }

    #[test]
    fn sync_drains_deferred_batches() {
        let dir = tmpdir("shared-deferred-sync");
        let cfg = JournalConfig {
            fsync_every: 2,
            compact_every: 0,
            group_max_records: 2,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        for i in 0..3 {
            j.append_deferred(&rec(i)).unwrap();
        }
        assert_eq!(j.pending_records(), 3);
        j.sync().unwrap();
        assert_eq!(j.pending_records(), 0, "sync leaves nothing buffered");
        assert_eq!(j.unsynced_appends(), 0);
        assert_eq!(
            Journal::load(&dir).unwrap().records,
            vec![rec(0), rec(1), rec(2)]
        );
    }

    #[test]
    fn write_through_config_never_defers() {
        let dir = tmpdir("shared-deferred-wt");
        // group_max_records=1 is an explicit per-append durability request:
        // the deferred entry point must degrade to ordinary write-through.
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        let out = j.append_deferred(&rec(0)).unwrap();
        assert!(out.flushed && out.fsynced);
        assert_eq!(j.pending_records(), 0);
        assert_eq!(Journal::load(&dir).unwrap().records, vec![rec(0)]);
    }

    #[test]
    fn compact_covers_deferred_records_and_later_appends_land() {
        let dir = tmpdir("shared-deferred-compact");
        let cfg = JournalConfig {
            fsync_every: 0,
            compact_every: 0,
            group_max_records: 2,
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        j.append_deferred(&rec(0)).unwrap();
        j.append_deferred(&rec(1)).unwrap();
        assert_eq!(j.pending_records(), 2, "tripped batch still buffered");
        let snap = DaemonSnapshot {
            next_task: 9,
            ..DaemonSnapshot::default()
        };
        j.compact(&snap).unwrap();
        assert_eq!(j.pending_records(), 0);
        let replay = Journal::load(&dir).unwrap();
        assert_eq!(replay.snapshot.as_ref().unwrap().next_task, 9);
        assert!(
            replay.records.is_empty(),
            "snapshot covers the deferred records"
        );
        // later appends still land, in the fresh WAL
        j.append(&rec(2)).unwrap();
        j.sync().unwrap();
        assert_eq!(Journal::load(&dir).unwrap().records, vec![rec(2)]);
    }

    #[test]
    fn append_outcome_reports_compaction_want() {
        let dir = tmpdir("outcome-compaction");
        let cfg = JournalConfig {
            fsync_every: 1,
            compact_every: 2,
            ..JournalConfig::default()
        };
        let j = SharedJournal::open(&dir, cfg).unwrap();
        assert!(!j.append(&rec(0)).unwrap().wants_compaction);
        assert!(
            j.append(&rec(1)).unwrap().wants_compaction,
            "outcome carries the policy bit so callers skip a second buffer lock"
        );
    }

    /// After a snapshot, the rule stays off past `compact_every` (2) until
    /// the WAL holds the snapshot's size — also when `open` finds it.
    #[test]
    fn compaction_waits_for_a_snapshot_worth_of_wal() {
        let dir = tmpdir("compact-bytes");
        let cfg = JournalConfig {
            compact_every: 2,
            ..JournalConfig::default()
        };
        let mut j = SharedJournal::open(&dir, cfg).unwrap();
        let snap = DaemonSnapshot {
            cancelled: (0..100).collect(),
            ..DaemonSnapshot::default()
        };
        for reopen in [false, true] {
            j.compact(&snap).unwrap();
            if reopen {
                j = SharedJournal::open(&dir, cfg).unwrap();
            }
            let snap_bytes = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
            let (mut wal, mut i) = (0, 0);
            while wal < snap_bytes {
                assert!(!j.wants_compaction(), "{i} records, {wal} B");
                wal += j.append(&rec(i)).unwrap().bytes as u64;
                i += 1;
            }
            assert!(i > 2 && j.wants_compaction());
        }
    }

    /// A crash on either side of the snapshot's rename recovers the old
    /// snapshot with its WAL or the new one without it — never the new
    /// snapshot with the WAL it covers.
    #[test]
    fn an_install_cut_short_replays_the_wal_only_under_the_old_snapshot() {
        let dir = tmpdir("install-cut");
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        j.append(&rec(1)).unwrap();
        let new = DaemonSnapshot {
            next_task: 5,
            ..DaemonSnapshot::default()
        };
        let new = serde_json::to_string(&new).unwrap();
        let state = || {
            let replay = Journal::load(&dir).unwrap();
            (replay.snapshot.map(|s| s.next_task), replay.records)
        };
        let settle = || drop(SharedJournal::open(&dir, JournalConfig::default()).unwrap());
        // before the rename: the temp snapshot beside the set-aside WAL
        std::fs::write(dir.join(SNAPSHOT_TMP), &new).unwrap();
        std::fs::rename(dir.join(WAL_FILE), dir.join(COVERED_WAL)).unwrap();
        assert_eq!(state(), (None, vec![rec(1)]));
        settle();
        // after it: the install itself, stopped where a crash would stop it
        let crash = || Err(std::io::ErrorKind::Interrupted.into());
        assert!(install_snapshot(&dir, new.as_bytes(), crash).is_err());
        assert_eq!(state(), (Some(5), vec![]));
        settle();
        assert!(!dir.join(COVERED_WAL).exists());
    }

    // -- shipping ----------------------------------------------------------

    /// Ship every pending event from `j` into `f`, acking as `name`.
    fn pump(j: &SharedJournal, f: &mut FollowerReplica, name: &str) -> usize {
        let events = j.ship_fetch(f.ack().applied_seq);
        for ev in &events {
            j.ship_ack(name, f.apply(ev).unwrap());
        }
        events.len()
    }

    /// A shipping leader journal in a fresh `tag` directory, and a fresh
    /// follower directory for it.
    fn shipping_pair(tag: &str) -> (TmpDir, TmpDir, SharedJournal) {
        let (dir, fdir) = (tmpdir(tag), tmpdir(&format!("{tag}-follower")));
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        j.enable_shipping().unwrap();
        (dir, fdir, j)
    }

    #[test]
    fn shipped_batches_replicate_the_wal_byte_for_byte() {
        let (dir, fdir, j) = shipping_pair("ship-batches");
        let mut f = FollowerReplica::open(&fdir).unwrap();
        for i in 0..5 {
            j.append(&rec(i)).unwrap();
        }
        assert!(pump(&j, &mut f, "f0") >= 1);
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).unwrap(),
            std::fs::read(fdir.join(WAL_FILE)).unwrap(),
            "follower WAL must be bit-identical to the leader's"
        );
        let replay = Journal::load(&fdir).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records[3], rec(3));
        assert_eq!(j.ship_last_acked().unwrap(), f.ack());
        assert_eq!(j.ship_lag(), Some((0, 0)));
    }

    #[test]
    fn compaction_ships_the_snapshot_and_follower_resyncs() {
        let (_dir, fdir, j) = shipping_pair("ship-snap");
        let mut f = FollowerReplica::open(&fdir).unwrap();
        j.append(&rec(1)).unwrap();
        let snap = DaemonSnapshot {
            next_task: 42,
            ..DaemonSnapshot::default()
        };
        j.compact(&snap).unwrap();
        j.append(&rec(2)).unwrap();
        // The follower never saw the pre-compaction batch: the retained
        // window starts at the snapshot, and it re-bases on it.
        pump(&j, &mut f, "f0");
        let replay = Journal::load(&fdir).unwrap();
        assert_eq!(replay.snapshot.unwrap().next_task, 42);
        assert_eq!(replay.records, vec![rec(2)]);
    }

    #[test]
    fn follower_rejects_torn_reordered_and_misplaced_batches() {
        let (_dir, fdir, j) = shipping_pair("ship-reject");
        let mut f = FollowerReplica::open(&fdir).unwrap();
        j.append(&rec(1)).unwrap();
        j.append(&rec(2)).unwrap();
        let events = j.ship_fetch(0);
        assert_eq!(events.len(), 2);

        // bit-flip: checksum rejects before anything is applied
        let ShipEvent::Batch(good) = events[0].clone() else {
            panic!("expected batch")
        };
        let mut torn = good.clone();
        torn.bytes[10] ^= 0x40;
        let err = f.apply(&ShipEvent::Batch(torn)).unwrap_err();
        assert_eq!(err.reason(), "checksum");

        // out of order: the second batch before the first is a sequence gap
        let err = f.apply(&events[1]).unwrap_err();
        assert_eq!(err.reason(), "sequence");

        // the valid event still applies after the rejections
        let ack = f.apply(&events[0]).unwrap();
        assert_eq!(ack.applied_seq, 1);

        // a replay of an already-applied batch is rejected too
        let err = f.apply(&events[0]).unwrap_err();
        assert_eq!(err.reason(), "sequence");

        // and a batch whose offset skips bytes is caught even if the
        // sequence looks right
        let ShipEvent::Batch(second) = events[1].clone() else {
            panic!("expected batch")
        };
        let mut skewed = second.clone();
        skewed.offset += 8;
        skewed.checksum = wire::checksum(&skewed.bytes);
        let err = f.apply(&ShipEvent::Batch(skewed)).unwrap_err();
        assert_eq!(err.reason(), "offset");

        let ack = f.apply(&events[1]).unwrap();
        assert_eq!(ack.applied_seq, 2, "clean retransmissions catch back up");
    }

    #[test]
    fn follower_resumes_from_its_ack_after_disconnect() {
        let (_dir, fdir, j) = shipping_pair("ship-resume");
        {
            let mut f = FollowerReplica::open(&fdir).unwrap();
            j.append(&rec(1)).unwrap();
            pump(&j, &mut f, "f0");
        }
        // follower "disconnects"; the leader keeps appending
        j.append(&rec(2)).unwrap();
        j.append(&rec(3)).unwrap();
        // reconnect: the persisted cursor resumes exactly where it left off
        let mut f = FollowerReplica::open(&fdir).unwrap();
        assert_eq!(f.ack().applied_seq, 1);
        pump(&j, &mut f, "f0");
        let replay = Journal::load(&fdir).unwrap();
        assert_eq!(replay.records, vec![rec(1), rec(2), rec(3)]);
    }

    /// A cursor that does not parse beside a non-empty WAL must not restart
    /// the replica at sequence 0; one naming more WAL than there is is
    /// refused too.
    #[test]
    fn follower_refuses_an_unparseable_cursor() {
        let (_dir, fdir, j) = shipping_pair("ship-garbage");
        j.append(&rec(1)).unwrap();
        assert!(pump(&j, &mut FollowerReplica::open(&fdir).unwrap(), "f0") >= 1);
        for cursor in [r#"{"applied_se"#, r#"{"applied_seq":1,"wal_len":999}"#] {
            std::fs::write(fdir.join(REPLICA_META_FILE), cursor).unwrap();
            let refused = FollowerReplica::open(&fdir).map(|_| ());
            assert_eq!(refused.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        }
    }

    /// A crash between a round's WAL fsync and its cursor replace leaves
    /// the WAL a round ahead of the cursor: the re-shipped round applies.
    #[test]
    fn follower_takes_a_round_again_after_losing_its_cursor() {
        let (_dir, fdir, j) = shipping_pair("ship-rewind");
        j.append(&rec(1)).unwrap();
        let mut f = FollowerReplica::open(&fdir).unwrap();
        pump(&j, &mut f, "f0");
        let cursor = std::fs::read(fdir.join(REPLICA_META_FILE)).unwrap();
        j.append(&rec(2)).unwrap();
        let round = j.ship_fetch(f.ack().applied_seq);
        assert!(f.apply_all(&round).1.is_none());
        std::fs::write(fdir.join(REPLICA_META_FILE), cursor).unwrap();
        let mut f = FollowerReplica::open(&fdir).unwrap();
        assert!(f.apply_all(&round).1.is_none());
        assert_eq!(Journal::load(&fdir).unwrap().records, vec![rec(1), rec(2)]);
    }

    /// A cursor write that fails inside a snapshot round (a crash before
    /// the cursor lands) leaves a replica that reopens and re-bases.
    #[test]
    fn follower_reopens_after_a_crash_inside_a_snapshot_round() {
        let (_dir, fdir, j) = shipping_pair("ship-resnap");
        j.append(&rec(1)).unwrap();
        j.append(&rec(2)).unwrap();
        let mut f = FollowerReplica::open(&fdir).unwrap();
        pump(&j, &mut f, "f0");
        j.compact(&DaemonSnapshot::default()).unwrap();
        j.append(&rec(3)).unwrap();
        let round = j.ship_fetch(f.ack().applied_seq);
        let blocker = fdir.join(format!("{REPLICA_META_FILE}.tmp"));
        std::fs::create_dir(&blocker).unwrap();
        assert_eq!(f.apply_all(&round).1.unwrap().reason(), "io");
        std::fs::remove_dir(&blocker).unwrap();
        let mut f = FollowerReplica::open(&fdir).unwrap();
        assert!(f.apply_all(&j.ship_fetch(f.ack().applied_seq)).1.is_none());
        let replay = Journal::load(&fdir).unwrap();
        assert!(replay.snapshot.is_some(), "re-based on the snapshot");
        assert_eq!(replay.records, vec![rec(3)]);
    }

    #[test]
    fn enable_shipping_bootstraps_existing_state() {
        let dir = tmpdir("ship-bootstrap");
        let fdir = tmpdir("ship-bootstrap-follower");
        {
            let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
            let snap = DaemonSnapshot {
                next_task: 7,
                ..DaemonSnapshot::default()
            };
            j.compact(&snap).unwrap();
            j.append(&rec(9)).unwrap();
            j.append(&rec(10)).unwrap();
        }
        // a bit-flipped last frame: the bootstrap must count what recovery
        // replays, not every length-prefixed frame
        let wal_path = dir.join(WAL_FILE);
        let mut wal = std::fs::read(&wal_path).unwrap();
        *wal.last_mut().unwrap() ^= 0x01;
        std::fs::write(&wal_path, &wal).unwrap();
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        j.enable_shipping().unwrap();
        let shipped: u64 = j.ship_fetch(0).iter().map(|ev| ev.records()).sum();
        let replayed = Journal::load(&dir).unwrap().records.len();
        assert_eq!((shipped, replayed), (1, 1));
        let mut f = FollowerReplica::open(&fdir).unwrap();
        pump(&j, &mut f, "f0");
        let replay = Journal::load(&fdir).unwrap();
        assert_eq!(replay.snapshot.unwrap().next_task, 7);
        assert_eq!(replay.records, vec![rec(9)]);
    }

    #[test]
    fn ship_lag_tracks_the_most_behind_follower() {
        let (_dir, fa, j) = shipping_pair("ship-lag");
        let fb = tmpdir("ship-lag-b");
        let mut a = FollowerReplica::open(&fa).unwrap();
        let mut b = FollowerReplica::open(&fb).unwrap();
        // register both retention slots up front: a's acks must not trim
        // events b still needs
        j.ship_ack("a", a.ack());
        j.ship_ack("b", b.ack());
        j.append(&rec(1)).unwrap();
        j.append(&rec(2)).unwrap();
        pump(&j, &mut a, "a");
        // b applies only the first event
        let events = j.ship_fetch(0);
        j.ship_ack("b", b.apply(&events[0]).unwrap());
        let (records, bytes) = j.ship_lag().unwrap();
        assert_eq!(records, 1, "one batch not yet applied by the slowest");
        assert!(bytes > 0);
        assert_eq!(j.ship_last_acked().unwrap(), a.ack(), "bar is the best ack");
    }
}
