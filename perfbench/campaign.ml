(* The `campaign` workload.

   The timed work runs in a child process of this binary (one per run, so
   its peak RSS and start-up are its own): the child builds its runner,
   reports "ready", makes one untimed warm-up call, then repeats campaign
   calls over the run's cases x seeds until the run's seconds are used.
   Each call reports one JSON line; the parent checks every report against
   an untimed serial reference and turns the lines into metrics. *)

open Util

let domains () = min 2 (Domain.recommended_domain_count ())

let runner seeds =
  let opts = { Exec.Campaign_opts.default with Exec.Campaign_opts.seeds } in
  match Exec.Campaign_opts.runner opts ~backend:"rustbrain" with
  | Ok r -> r
  | Error e -> fail "runner: %s" e

let report_digest r = Digest.to_hex (Digest.string (Rustbrain.Report.to_json r))

(* -- per-case observation ---------------------------------------------- *)

(* Top-level phase spans of one repair in the pipeline's own Obs trace;
   "lower" nests inside them. *)
let top_phases =
  [ "parse"; "typecheck"; "interpret"; "fast-think"; "slow-think"; "re-verify" ]

type case_obs = {
  dur : float;        (* seconds in repair_case *)
  fast_ms : float;    (* fast-think wall ms (traced calls) *)
  slow_ms : float;    (* slow-think wall ms (traced calls) *)
  phases_ms : float;  (* every top-level phase, wall ms (traced calls) *)
}

let observed : case_obs list ref = ref []
let observed_mu = Mutex.create ()

(* A runner identical to [M] except that each repair is timed and, on a
   traced call, recorded as a span with the pipeline's phase spans
   gathered from a wall-enabled Obs sink installed for that repair. *)
let wrap (type c) (module M : Exec.Runner.S with type config = c) (cfg : c)
    ~traced ~call_span =
  let module W = struct
    include M

    let repair_case s (case : Dataset.Case.t) =
      let start = now () in
      let report, fast_ms, slow_ms, phases_ms =
        if not traced then (M.repair_case s case, 0., 0., 0.)
        else begin
          let sink, records = Obs.Trace.memory ~wall:true () in
          let r = Obs.Trace.with_ambient sink (fun () -> M.repair_case s case) in
          let sum names =
            List.fold_left
              (fun acc (x : Obs.Trace.record) ->
                if x.Obs.Trace.kind = Obs.Trace.Span && List.mem x.name names then
                  acc +. x.wall_ms
                else acc)
              0. (records ())
          in
          (r, sum [ "fast-think" ], sum [ "slow-think" ], sum top_phases)
        end
      in
      let stop = now () in
      if traced then
        ignore
          (Spans.add ~parent:call_span ~key:case.Dataset.Case.name "core.repair"
             ~start ~stop);
      Mutex.protect observed_mu (fun () ->
          observed :=
            { dur = stop -. start; fast_ms; slow_ms; phases_ms }
            :: !observed);
      report
  end in
  Exec.Runner.pack (module W : Exec.Runner.S with type config = c) cfg

let wrap_job ~traced ~call_span (job : Exec.Scheduler.job) =
  let (Exec.Runner.Packed (m, cfg)) = job.Exec.Scheduler.runner in
  { job with Exec.Scheduler.runner = wrap m cfg ~traced ~call_span }

(* -- the child ----------------------------------------------------------- *)

let counter_names =
  [ "interp.steps"; "interp.runs"; "interp.allocs"; "llm.calls"; "llm.tokens";
    "journal.appends"; "journal.snapshots" ]

(* One campaign call: returns its JSON line. *)
let call ~(inp : Inputs.campaign) ~index ~traced =
  let packed = runner inp.Inputs.seeds in
  let call_span = Spans.fresh_id () in
  let jobs =
    Exec.Scheduler.seeded_jobs packed ~seeds:inp.seeds inp.cases
    |> List.map (wrap_job ~traced ~call_span)
  in
  let registry = Obs.Metrics.create () in
  Mutex.protect observed_mu (fun () -> observed := []);
  let gc0 = Gc.quick_stat () in
  let start = now () in
  let results, _ = Exec.Scheduler.run_jobs ~domains:(domains ()) ~metrics:registry jobs in
  let stop = now () in
  let gc1 = Gc.quick_stat () in
  if traced then
    ignore (Spans.add ~id:call_span ~key:(string_of_int index) "exec.campaign_call" ~start ~stop);
  let reports = List.concat_map (fun r -> r.Exec.Scheduler.reports) results in
  let stats =
    List.fold_left (fun a r -> Exec.Runner.add_stats a r.Exec.Scheduler.stats)
      Exec.Runner.no_stats results
  in
  let obs = Mutex.protect observed_mu (fun () -> !observed) in
  let open Rb_util.Json in
  let nums f = List (List.map (fun o -> Num (f o)) obs) in
  to_string
    (Obj
       [ ("call", Num (float_of_int index));
         ("traced", Bool traced);
         ("wall", Num (stop -. start));
         ("digests", List (List.map (fun r -> Str (report_digest r)) reports));
         ("passed",
          Num (float_of_int (List.length (List.filter (fun r -> r.Rustbrain.Report.passed) reports))));
         ("semantic",
          Num (float_of_int (List.length (List.filter (fun r -> r.Rustbrain.Report.semantic) reports))));
         ("case_s", nums (fun o -> o.dur));
         ("fast_ms", nums (fun o -> o.fast_ms));
         ("slow_ms", nums (fun o -> o.slow_ms));
         ("phases_ms", nums (fun o -> o.phases_ms));
         ("hits", Num (float_of_int stats.Exec.Runner.cache_hits));
         ("misses", Num (float_of_int stats.Exec.Runner.cache_misses));
         ("minor_words", Num (gc1.Gc.minor_words -. gc0.Gc.minor_words));
         ("major_collections",
          Num (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)));
         ("counts",
          Obj
            (List.map
               (fun n ->
                 (n, Num (float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter registry n)))))
               counter_names)) ])

let child ~seed ~seconds ~trace ~spans_out =
  let inp = Inputs.campaign seed in
  ignore (runner inp.seeds);
  print_endline "ready";
  match input_line stdin with
  | exception End_of_file -> exit 0
  | "go" ->
    ignore (call ~inp ~index:0 ~traced:false);
    let t_end = now () +. seconds in
    let rec loop i =
      if i <= 2 || now () < t_end then begin
        (* traced runs alternate traced and untraced calls so the tracing
           overhead is measured inside one run *)
        let traced = trace && i mod 2 = 0 in
        print_endline (call ~inp ~index:i ~traced);
        loop (i + 1)
      end
    in
    loop 1;
    if trace then Spans.write spans_out;
    Printf.printf "{\"end\":true,\"hwm_mb\":%.17g}\n%!" (self_hwm_mb ());
    exit 0
  | _ -> exit 0

(* -- the parent --------------------------------------------------------- *)

(* Set-ups timed per run; the last child does the timed work. *)
let setup_reps = 11

type call_line = {
  traced : bool;
  wall : float;
  digests : string list;
  passed : int;
  semantic : int;
  case_s : float list;
  fast_ms : float list;
  slow_ms : float list;
  phases_ms : float list;
  hits : int;
  misses : int;
  minor_words : float;
  major_collections : int;
  counts : (string * int) list;
}

let parse_call line =
  let open Rb_util.Json in
  let j = match parse line with Ok j -> j | Error e -> fail "child line: %s" e in
  let get k = match member k j with Some v -> v | None -> fail "child line: no %s" k in
  let num k = match to_float (get k) with Some f -> f | None -> fail "child line: %s" k in
  let int k = int_of_float (num k) in
  let floats k = List.filter_map to_float (Option.value ~default:[] (to_list (get k))) in
  { traced = to_bool (get "traced") = Some true;
    wall = num "wall";
    digests = List.filter_map to_str (Option.value ~default:[] (to_list (get "digests")));
    passed = int "passed"; semantic = int "semantic";
    case_s = floats "case_s"; fast_ms = floats "fast_ms"; slow_ms = floats "slow_ms";
    phases_ms = floats "phases_ms";
    hits = int "hits"; misses = int "misses";
    minor_words = num "minor_words"; major_collections = int "major_collections";
    counts =
      (match get "counts" with
      | Obj kvs -> List.map (fun (k, v) -> (k, Option.value ~default:(-1) (to_int v))) kvs
      | _ -> []) }

type outcome = {
  setup_s : float list;
  calls : call_line list;
  hwm_mb : float;
  attempted : int;
  failed : int;
  ref_passed : int;
  ref_semantic : int;
  ref_cases : int;
  count_drift : string list;
}

let run ~seed ~seconds ~trace ~spans_out =
  let inp = Inputs.campaign seed in
  (* untimed serial reference: one domain, in-memory KB, no journal *)
  let ref_reports, _ =
    Exec.Scheduler.run_seeded ~domains:1 (runner inp.seeds) ~seeds:inp.seeds
      inp.cases
  in
  let ref_digests = List.map report_digest ref_reports in
  let count f = List.length (List.filter f ref_reports) in
  let args =
    [| "--child"; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%.17g" seconds; "--trace"; (if trace then "1" else "0");
       "--spans-out"; spans_out |]
  in
  let start_child () =
    let t0 = now () in
    let c = spawn_self args in
    (match input_line c.from_child with
    | "ready" -> ()
    | l -> fail "child not ready: %s" l
    | exception End_of_file -> fail "child died during set-up");
    (c, now () -. t0)
  in
  let setups =
    List.init (setup_reps - 1) (fun _ ->
        let c, s = start_child () in
        send_line c "quit";
        finish_child c;
        s)
  in
  let c, s = start_child () in
  send_line c "go";
  let rec read acc =
    match input_line c.from_child with
    | exception End_of_file -> fail "campaign child died"
    | line when String.length line > 6 && String.sub line 0 6 = "{\"end\"" ->
      let hwm =
        match Rb_util.Json.parse line with
        | Ok j -> Option.value ~default:0. (Option.bind (Rb_util.Json.member "hwm_mb" j) Rb_util.Json.to_float)
        | Error _ -> 0.
      in
      (List.rev acc, hwm)
    | line -> read (parse_call line :: acc)
  in
  let calls, hwm_mb = read [] in
  finish_child c;
  (* every call's reports against the reference, report by report *)
  let n = List.length ref_digests in
  let failed_in call =
    let mismatched =
      let rec go a b acc =
        match (a, b) with
        | [], rest | rest, [] -> acc + List.length rest
        | x :: a, y :: b -> go a b (if x = y then acc else acc + 1)
      in
      go ref_digests call.digests 0
    in
    if call.passed <> count (fun r -> r.Rustbrain.Report.passed)
       || call.semantic <> count (fun r -> r.Rustbrain.Report.semantic)
    then max 1 mismatched
    else mismatched
  in
  let failed = List.fold_left (fun acc call -> acc + min n (failed_in call)) 0 calls in
  (* deterministic cost counts must repeat exactly from call to call *)
  let drift =
    match calls with
    | [] -> [ "no calls" ]
    | first :: rest ->
      let keyed c =
        ("cache.hits", c.hits) :: ("cache.misses", c.misses) :: c.counts
      in
      List.concat_map
        (fun c ->
          List.filter_map
            (fun (k, v) ->
              if List.assoc_opt k (keyed first) = Some v then None
              else Some (Printf.sprintf "%s: %d vs %d" k (List.assoc k (keyed first)) v))
            (keyed c))
        rest
  in
  { setup_s = s :: setups; calls; hwm_mb; attempted = n * List.length calls;
    failed; ref_passed = count (fun r -> r.Rustbrain.Report.passed);
    ref_semantic = count (fun r -> r.Rustbrain.Report.semantic); ref_cases = n;
    count_drift = drift }

let untraced o = List.filter (fun c -> not c.traced) o.calls
let traced_calls o = List.filter (fun c -> c.traced) o.calls

let cases_per_s o c = float_of_int o.ref_cases /. c.wall

let end_to_end o =
  let calls = untraced o in
  let walls = List.map (fun c -> c.wall) calls in
  [ metric "setup_s" "s" (median o.setup_s);
    metric "cases_per_s" "cases/s" (median (List.map (cases_per_s o) calls));
    metric "pass_rate" "ratio" (ratio o.ref_passed o.ref_cases);
    metric "exec_rate" "ratio" (ratio o.ref_semantic o.ref_cases);
    metric "job_p50_ms" "ms" (ms (median walls));
    metric "job_p90_ms" "ms" (ms (quantile 0.9 walls));
    metric "first_case_p50_ms" "ms"
      (ms (median (List.concat_map (fun c -> c.case_s) calls)));
    metric "jobs_per_s" "jobs/s" (float_of_int (List.length calls) /. sum walls);
    metric "peak_rss_mb" "MiB" o.hwm_mb ]

(* Per-layer numbers the campaign child measured; the parent's layer
   probes add the rest. *)
let layers o =
  let tr = traced_calls o and un = untraced o in
  let per_case f calls =
    median (List.map (fun c -> f c /. float_of_int o.ref_cases) calls)
  in
  let count name =
    match o.calls with
    | c :: _ -> float_of_int (Option.value ~default:0 (List.assoc_opt name c.counts))
    | [] -> 0.
  in
  let cases = float_of_int o.ref_cases in
  let all_cases f calls = List.concat_map f calls in
  let self_us =
    all_cases
      (fun c -> List.map2 (fun d p -> us d -. (p *. 1000.)) c.case_s c.phases_ms)
      tr
  in
  let first = List.hd o.calls in
  [ ("core.repair_us", median (List.map us (all_cases (fun c -> c.case_s) tr)));
    ("core.repair_self_us", median self_us);
    ("core.fast_think_ms", mean (all_cases (fun c -> c.fast_ms) tr));
    ("core.slow_think_ms", mean (all_cases (fun c -> c.slow_ms) tr));
    ("exec.domain_util", median
       (List.map
          (fun c -> sum c.case_s /. (float_of_int (domains ()) *. c.wall))
          un));
    ("gc.minor_words_per_case", per_case (fun c -> c.minor_words) un);
    ("gc.major_collections", median (List.map (fun c -> float_of_int c.major_collections) un));
    ("miri.cache_hit_rate", ratio first.hits (first.hits + first.misses));
    ("miri.runs_per_case", count "interp.runs" /. cases);
    ("llm_sim.calls_per_case", count "llm.calls" /. cases);
    ("llm_sim.tokens_per_case", count "llm.tokens" /. cases) ]
  @ List.map (fun n -> (n, count n)) counter_names
