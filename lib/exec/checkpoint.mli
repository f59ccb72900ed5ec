(** Checkpoint/resume orchestration over the write-ahead {!Journal}.

    {!run} executes a {!Scheduler} job list under a journal directory.
    On a fresh start it records the campaign {!fingerprint} in the
    manifest and journals every completed case; on resume it replays the
    journaled reports, restores each job's session snapshot, and re-runs
    only the remainder — the stitched report list is byte-identical (as
    rendered by [Report.to_json]/[csv_row]) to the uninterrupted run, for
    any kill point at a record boundary and any domain count.

    The fingerprint digests the {!code_version} (running-image digest), every
    job's label, its runner fingerprint (backend name + config), its seed
    and its case-name list. Anything that could change a report changes
    the fingerprint, and a journal whose manifest disagrees is refused
    ({!Fingerprint_mismatch}) rather than silently replayed into a lying
    result.

    Recovery is conservative where the journal is imperfect: a snapshot
    that is missing, digest-corrupt, or out of step with the surviving
    records for its job (e.g. after a truncated tail) costs a recompute
    of that whole job from a fresh session — already-journaled cases are
    re-run without being re-appended, so determinism keeps the journal
    and the reports consistent. *)

type mode =
  | Fresh   (** discard any existing journal and start over *)
  | Resume  (** replay an existing journal; start fresh when none exists *)

exception Fingerprint_mismatch of { expected : string; found : string }
(** The journal on disk belongs to a different campaign (or a different
    build). [expected] is this run's fingerprint, [found] the manifest's. *)

exception Format_1_journal of string
(** [Resume] found a format-1 journal (one file per record) in this
    directory. It is never read: the caller either refuses it or starts
    {!Fresh}, which removes its files. *)

type outcome = {
  results : Scheduler.result list;
      (** job order, replayed prefix stitched before recomputed reports *)
  supervision : Scheduler.supervision;
  replayed : int;    (** reports taken from the journal, not re-run *)
  recomputed : int;  (** cases scheduled for (re-)execution this run *)
  dropped : int;     (** corrupt tail records the journal loader discarded *)
}

val running_image : unit -> string
(** Path of the executable image this process is running:
    [/proc/self/exe] where it exists, otherwise [Sys.executable_name].
    Exec'ing it starts the same inode {!code_version} digested, even after
    the binary was rebuilt on disk. *)

val unknown_version : string
(** What {!code_version} returns when the running image cannot be read. *)

val code_version : unit -> string
(** Hex MD5 of {!running_image}, computed once per process and memoized
    ({!unknown_version} when the image is unreadable; that placeholder is
    never memoized, so a later call, or a forked child, digests again).
    The first component of every {!fingerprint}. *)

val adopt_code_version : string -> unit
(** Seed the {!code_version} memo with a version computed elsewhere — a
    serve worker adopts its server's digest of the image both execute, so
    it does not digest the binary again. Later calls return [v]. *)

val fingerprint : Scheduler.job list -> string
(** The campaign fingerprint {!run} will stamp into (and demand from) the
    journal manifest. *)

val run :
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.registry ->
  ?kill_after:int ->
  dir:string ->
  mode:mode ->
  Scheduler.job list ->
  outcome
(** Execute the jobs journaled under [dir]. [cancel] is the scheduler's
    cooperative stop (see [Scheduler.run_jobs]) — under a watchdog abort
    the journal keeps every case already appended, so a later [Resume]
    continues from the same frontier. [kill_after n] arms the chaos
    self-abort: the journal persists [n] more records, then every job dies
    with [Journal.Killed] (isolated per job by the scheduler — inspect
    [Scheduler.failures], discard the results, and {!run} again with
    [mode = Resume] to recover). Raises {!Fingerprint_mismatch} on a
    foreign journal, {!Format_1_journal} on a format-1 one and [Failure]
    on an unreadable one. *)
