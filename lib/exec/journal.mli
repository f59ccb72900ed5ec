(** Write-ahead journal for crash-safe campaigns.

    A campaign run owns a journal directory holding one append-only log,
    [journal.log] (journal format 2). The log is a sequence of
    checksum-framed entries. The first frame is the {!manifest}: version,
    campaign fingerprint, job labels and case names, written atomically
    before any work starts. Every completed (job, case) repair is then
    appended as one frame holding the record and a fresh session snapshot
    of its job, with one [Unix.write] and one [fsync]: no file create,
    no rename, no directory fsync. One append is one durable unit, so a
    process killed at any frame boundary leaves a journal whose records
    and snapshots agree exactly, and a resume replays the journaled
    reports and recomputes nothing that was already verified.

    Each frame carries two MD5 digests. One covers its header and record,
    the other its snapshot. {!load} keeps the longest prefix of whole
    frames whose records verify; everything after it (a torn final frame,
    or rot) is dropped and counted, never fatal. A snapshot that fails its
    own digest is omitted, which costs its job a recompute, never a wrong
    report. {!attach} truncates the dropped tail so new appends start on a
    frame boundary.

    Only each job's latest snapshot is live. When the dead ones push the
    log past twice its live content plus 1 MiB, an append rewrites the log
    atomically without them ({!Rb_util.Fsfile.write_atomic}); every record
    stays.

    Format 1 (a [MANIFEST.json] plus one [rec-%06d.json] per record and
    one [snap-%03d.bin] per job) is recognised, never misread: {!exists}
    is true for it, {!load} and {!attach} refuse it with a "journal format
    1" error, and {!create}/{!wipe} remove its files.

    The writer is mutex-serialized so domain-parallel jobs can append
    concurrently; {!kill_after} arms a deterministic self-abort used by
    the chaos harness to kill the run at a chosen record boundary.

    Cost counters, in the ambient {!Obs.Metrics} registry:
    [journal.fsyncs] (one per append; two for {!create} and for each
    compaction, the file and its directory; one for a tail truncation),
    [journal.renames] (one for {!create} and each compaction, none per
    append), [journal.appends], [journal.snapshots] and
    [journal.compactions]. *)

exception Killed
(** Raised by {!append} once an armed {!kill_after} budget is exhausted —
    the simulated crash. Once raised, every later append on the same
    writer raises again (the "process" is dead). *)

type manifest = {
  version : int;        (** journal format version ({!version}) *)
  fingerprint : string; (** campaign fingerprint — see {!Checkpoint} *)
  jobs : string list;   (** job labels, scheduler order *)
  cases : string list;  (** case names, campaign order *)
}

type record = {
  job : string;      (** job label (manifest member) *)
  backend : string;  (** runner name, for human inspection *)
  seed : int;
  case : string;     (** case name *)
  cache_hits : int;  (** session cache stats after this case *)
  cache_misses : int;
  report : Rustbrain.Report.t;
}

type t
(** A serialized journal writer. *)

val version : int

val log_path : string -> string
(** [log_path dir] is the journal log in [dir]. *)

val exists : dir:string -> bool
(** A journal of either format is present in [dir]: a log, or a
    format-1 [MANIFEST.json] or [rec-*] file. *)

val format_1 : dir:string -> bool
(** [dir] holds a format-1 journal and no log. *)

val create : dir:string -> manifest -> t
(** Start a fresh journal: create [dir] if needed, remove any previous
    log or format-1 files, durably write a log holding the manifest. *)

val attach : dir:string -> (t, string) result
(** Open an existing journal for appending. A dropped tail is truncated
    so new appends start on a clean frame boundary. [Error] when no valid
    manifest exists, or the journal is format 1. *)

val cut_tail : dir:string -> string option
(** Truncate the log to its valid prefix, as {!attach} does, and return
    the bytes cut off; [None] when there were none (or no readable log).
    For fsck, which keeps those bytes for triage. *)

val manifest_of : t -> manifest

val kill_after : t -> int -> unit
(** [kill_after t n] lets [n] more appends complete, then makes the next
    one raise {!Killed} without persisting anything — a deterministic
    crash at a record boundary. *)

val append : t -> record -> snapshot:string -> unit
(** Durably persist one completed case: one frame holding the record and
    the owning job's session snapshot, tagged with that job's record
    count, appended with one write and one fsync. Thread-safe. Raises
    {!Killed} when armed by {!kill_after}; any other I/O failure
    propagates. *)

type loaded = {
  manifest : manifest;
  records : record list;  (** valid prefix, journal (append) order *)
  snapshots : (string * (int * string)) list;
      (** job label → (cases covered, marshaled session bytes) from the
          job's latest frame; omitted when that snapshot fails its
          digest *)
  dropped : int;
      (** frames after the valid prefix: each walkable frame header
          counts one, an unwalkable remainder one more *)
}

val load : dir:string -> (loaded, string) result
(** Read everything {!append} made durable. Never raises on corrupt
    content: a torn or unverifiable frame ends the valid prefix
    ([dropped] counts the rest), bad snapshots are omitted. [Error] when
    the log or its manifest frame is missing or unreadable, and for a
    format-1 journal. *)

val records : dir:string -> (record list * int, string) result
(** The valid records and the [dropped] count exactly as {!load} finds
    them, without reading snapshots: for callers that only need the
    journal's progress (the serve store and its fsck). *)

val wipe : dir:string -> unit
(** Remove the log and any format-1 files (for [--fresh]). The directory
    itself is kept. *)
