(** The UB-detecting abstract machine — this repo's stand-in for Miri.

    [run] executes a (well-typed) MiniRust program under the full dynamic
    discipline: byte-level memory with provenance, stacked borrows, alignment
    and validity checks, allocation tracking (double free, layout mismatch,
    leaks), function-pointer signature checks, and vector-clock data-race
    detection over cooperatively scheduled threads (OCaml 5 effects).

    Two modes mirror how the paper uses Miri:
    - [Stop_first] (Miri's behaviour): execution aborts at the first UB.
    - [Collect n]: each UB is recorded, the failing operation is given a
      defined recovery result, and execution continues (up to [n]
      diagnostics). The paper's rollback analysis needs per-iteration error
      *counts* (its sequences N = \{n_0, n_1, ...\}); this mode produces them.

    Panics (failed asserts, arithmetic overflow, out-of-bounds checked
    indexing, explicit [panic]) are *defined* behaviour: they terminate the
    program with [Panicked] and are not UB diagnostics. The dataset's
    "panic"-category cases are judged on outcome, not on diags. *)

type mode = Stop_first | Collect of int

(** Which execution engine interprets the program. [Bytecode] (the default)
    lowers the typechecked AST to a flat pre-resolved instruction array and
    runs it on a step loop that allocates only what value boxing needs
    (8-26 minor words per step, pinned by the [cost] tests); [Tree_walk] is
    the original AST evaluator, kept as a differential-testing escape hatch
    (CLI [--tree-walk]). Both engines share every semantic judgment, so their
    results — diagnostics, outputs, step counts — are byte-identical. *)
type engine = Bytecode | Tree_walk

type config = {
  mode : mode;
  seed : int;            (** thread-scheduler seed *)
  max_steps : int;       (** statement budget before [Step_limit] *)
  inputs : int64 array;  (** values returned by [input(i)] *)
  trace : bool;          (** record allocation/retag/invalidation events *)
  max_allocs : int;      (** allocation-count fuel before [Resource_limit] *)
  max_alloc_bytes : int; (** cumulative allocated-byte fuel *)
  engine : engine;       (** bytecode VM (default) or tree-walker *)
}

val default_config : config
(** Allocation fuel defaults are generous (4M allocations, 64 MiB): no
    legitimate corpus program approaches them, so they only ever convert a
    pathological repaired candidate (an allocation bomb) into a diagnosed
    verdict instead of an effectively hung verification. *)

type outcome =
  | Finished
  | Panicked of string
  | Ub of Diag.t         (** fatal diagnostic ([Stop_first], or collect overflow) *)
  | Step_limit
  | Resource_limit of string  (** allocation fuel exhausted; message says which cap *)

type run_result = {
  outcome : outcome;
  output : string list;  (** chronological [print] trace *)
  diags : Diag.t list;   (** all recorded diagnostics, chronological *)
  steps : int;
  error_count : int;     (** |diags| + 1 if panicked or resource-limited — the paper's n_i *)
  events : string list;
      (** chronological borrow/allocation event trace — Miri's pointer-tag
          tracking equivalent; empty unless [config.trace] *)
}

val run : ?config:config -> Minirust.Ast.program -> Minirust.Typecheck.info -> run_result
(** Execute [main]. The program must have passed [Typecheck.check] (whose
    [info] is required here); running an ill-typed program is a programming
    error and may raise [Invalid_argument]. With [config.engine = Bytecode]
    the program is first lowered (under an Obs trace span named ["lower"]),
    then executed by the VM. *)

type lowered
(** A program lowered to bytecode, reusable across runs. *)

val lower : Minirust.Ast.program -> Minirust.Typecheck.info -> lowered
(** Compile to bytecode without running. Callers that profile phases wrap
    this in their own ["lower"] span and then time {!run_lowered}
    separately, so the interp span covers only VM execution. *)

val run_lowered :
  ?config:config -> Minirust.Ast.program -> Minirust.Typecheck.info -> lowered ->
  run_result
(** Execute pre-lowered bytecode on the VM (ignores [config.engine]). *)

type analysis = Compile_error of string | Ran of run_result

val analyze : ?config:config -> Minirust.Ast.program -> analysis
(** Typecheck then run: the one-call interface the repair pipeline uses. *)

val is_clean : run_result -> bool
(** No UB and no panic: the program "passes Miri". *)

val first_ub : run_result -> Diag.t option

(** {2 Verification memo-cache}

    Oracle candidate scoring re-analyzes structurally identical programs
    over and over (every candidate is judged against the same reference on
    the same probes, and rollback re-checks restored snapshots). The cache
    memoizes an {e id-free} digest of an analysis keyed on the pretty-printed
    program plus the full machine configuration (mode, scheduler seed, step
    budget, probe inputs), so a hit is valid for any parse of the same
    source. Hit/miss counters feed the bench harness's perf report.

    The cache is intentionally transparent: it stores only behaviour that is
    independent of node ids and borrow tags, so cached and uncached runs
    produce byte-identical results. It is not thread-safe; give each
    campaign session its own instance (lib/exec does). *)

type summary = {
  sm_compile_error : bool;
  sm_clean : bool;             (** no UB, no panic *)
  sm_panic : string option;
  sm_output : string list;     (** chronological [print] trace *)
  sm_ub_count : int;           (** UB diagnostics recorded *)
  sm_error_count : int;        (** the paper's n_i; type-error count if ill-typed *)
  sm_resource : string option; (** set when the run blew an allocation budget *)
}

val summarize : analysis -> summary

module Cache : sig
  type t

  type stats = { hits : int; misses : int }

  val create : ?enabled:bool -> unit -> t
  (** [enabled:false] makes a pass-through cache: every lookup recomputes
      and no entry is stored (for A/B-testing cache transparency). *)

  val enabled : t -> bool
  val stats : t -> stats
  val hit_rate : t -> float
  val reset_stats : t -> unit

  val record_hit : t -> unit
  (** Credit a hit from an external memo layer (e.g. the pipeline's
      canonical-program run memo) so {!hit_rate} covers all verification
      caching. *)

  val record_miss : t -> unit
  val clear : t -> unit

  val memo : t -> key:string -> (unit -> summary) -> summary
  (** Generic memoized lookup; used by [Dataset.Semantic] to cache
      reference observations under case-name keys (skipping even the
      reference re-parse on a hit). *)
end

val analyze_summary :
  ?cache:Cache.t -> ?fingerprint:string -> ?config:config ->
  Minirust.Ast.program -> summary
(** [analyze] reduced to its id-free digest, memoized when [cache] is given.
    [fingerprint] overrides the pretty-printed-program cache key component
    when the caller already computed it. *)
