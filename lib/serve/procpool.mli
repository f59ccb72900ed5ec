(** Process-isolated runner pool: spawning, wire protocol and worker side.

    Each runner slot forks the server without exec ({!fork_worker}): the
    server is already an initialized image of the same binary, so an
    attempt pays neither exec nor runtime start-up. The child runs
    {!worker_main} and speaks the length-prefixed {!Wire} framing over a
    socketpair dup2'd onto its stdin. {!spawn} keeps the fork/exec
    flavour for tools that start a bare worker of another binary (the
    hidden [__rb_worker] subcommand). One worker process runs one job
    attempt, then exits: rlimit budgets are per-attempt by construction
    and no state bleeds between jobs. A wedged worker can always be
    reclaimed — the watchdog escalation ends in SIGKILL, which no
    userspace state can block — and every worker, of either flavour, gets
    SIGKILL from the kernel when its parent dies (PR_SET_PDEATHSIG), so a
    worker hung inside a case never outlives a killed server.

    Fork-safety invariants of the server that forks: it runs one domain
    and no other thread (OCaml 5's [Unix.fork] refuses otherwise), so it
    spawns no domain or thread and opens no knowledge base; it flushes
    stdout and stderr before each fork; and its
    {!Exec.Checkpoint.code_version} memo, which children inherit, is
    never the [unknown-binary] placeholder.

    Protocol, all frames JSON over {!Wire.encode} framing:
    - worker → server: [Hello {pid}] handshake, [Heartbeat] liveness,
      [Case_done] per repaired case (report spliced verbatim, the exact
      bytes the results file stores), [Job_done] only after the durable
      results file is written.
    - server → worker: [Job] (id, backend, cases,
      {!Exec.Campaign_opts.to_wire_json} opts, journal dir, results path,
      poison plan, optional [code_version]), [Cancel] (the cooperative
      rung of the escalation ladder). EOF on the channel tells the worker
      its supervisor is gone: it exits, so a dead server never strands
      orphans. *)

type job_spec = {
  id : int;
  backend : string;
  cases : string list;
  opts : Exec.Campaign_opts.t;  (** wire subset ({!Exec.Campaign_opts}) *)
  journal_dir : string;
  results_path : string;
  domains : int option;
  poison : (string * Jobrun.poison_mode) list;
  kb_dir : string option;
      (** per-tenant persistent KB store; server-chosen (never taken off the
          client wire) and carried on this server→worker frame only *)
  kb_readonly : bool;
  code_version : string option;
      (** the server's {!Exec.Checkpoint.code_version}, digested once per
          server from the image every worker runs. The worker adopts it
          ({!Exec.Checkpoint.adopt_code_version}) before running the job,
          so journal fingerprints match without digesting the binary per
          attempt. [None] (the field left off the frame) makes the worker
          digest its own image — never the [unknown-binary] placeholder. *)
}

type to_worker = Job of job_spec | Cancel

type to_server =
  | Hello of { pid : int }
  | Heartbeat
  | Case_done of { seq : int; case : string; seed : int; report_json : string }
  | Job_done of {
      cases : int;
      passed : int;
      failed : string option;
      replayed : int;
    }

val to_worker_string : to_worker -> string
val to_worker_of_string : string -> (to_worker, string) result
val to_server_string : to_server -> string
val to_server_of_string : string -> (to_server, string) result

val backoff_delay : failures:int -> Rb_util.Rng.t -> float
(** Respawn delay after the [failures]-th consecutive worker death:
    exponential from 0.25s doubling to a 30s cap, scaled by a seeded
    uniform ±25% jitter draw so crashed workers never respawn in
    lockstep. *)

type worker = {
  pid : int;
  fd : Unix.file_descr;  (** supervisor's socketpair end, nonblocking *)
  dec : Wire.decoder;
  mutable alive : bool;
      (** flips false on EOF/IO error; the process itself is reaped via
          SIGCHLD + [waitpid] *)
}

val fork_worker : ?mem_mb:int -> ?cpu_s:int -> unit -> (worker, string) result
(** Fork this process into a worker running {!worker_main}. The child,
    in order: dup2s the socketpair onto stdin; closes every other
    inherited descriptor above stderr; resets SIGCHLD, SIGTERM and SIGINT
    to their defaults; applies the caps ([mem_mb] > 0 caps RLIMIT_AS,
    [cpu_s] > 0 caps RLIMIT_CPU); arms SIGKILL on parent death and exits
    if the parent is already gone. Every path in the child ends in
    [Unix._exit], so no [at_exit] handler of the caller runs there. The
    caller must be single-domain. [Error] is the fork/socketpair failure
    message. A child that cannot start (a cap below the inherited
    footprint, say) is not an [Error]: it exits before its Hello. *)

val spawn :
  argv:string array -> ?mem_mb:int -> ?cpu_s:int -> unit ->
  (worker, string) result
(** Fork/exec [argv] with the socketpair on its stdin — the exec
    primitive, for tools that start a bare worker from another binary.
    [mem_mb] and [cpu_s] as for {!fork_worker}; they and the parent-death
    signal are applied in the child before exec. [Error] is the
    fork/socketpair failure message — the caller decides when to try
    again. An exec failure is not an [Error]: the child exits 127 before
    its Hello. *)

val send : worker -> to_worker -> bool
(** Best-effort framed write, bounded at ~0.5s: control frames are tiny
    and a healthy worker keeps its socket drained. [false] means the
    worker did not take the frame — exactly the worker the SIGTERM /
    SIGKILL rungs exist for. *)

val worker_main : unit -> 'a
(** The worker process entry point (hidden CLI subcommand): Hello, one
    Job, adopt its [code_version] when present, stream cases, write
    durable results, Job_done, exit. Never returns. *)
