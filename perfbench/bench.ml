(* perfbench: one command, four workloads, end-to-end metrics with tracing
   off and per-layer metrics with tracing on.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH --work DIR

   The last line of standard output is the result object
   {"correct","attempted","failed","metrics"}; the lines before it print
   every metric by name and unit. Infrastructure failures exit non-zero
   without a result. `perfbench/run.py` builds this binary and the CLI and
   supplies --cli and --work. *)

open Util

(* Every per-layer metric, in report order: name, unit, better. A traced
   run reports all of them on every workload; a layer the workload does
   not load reads 0. *)
let per_layer =
  [ ("minirust.parse_us", "us", "lower"); ("minirust.typecheck_us", "us", "lower");
    ("miri.lower_us", "us", "lower"); ("miri.vm_us", "us", "lower");
    ("miri.steps", "steps", "lower"); ("miri.allocs", "allocs", "lower");
    ("miri.runs_per_case", "runs", "lower"); ("miri.cache_hit_rate", "ratio", "higher");
    ("knowledge.featvec_us", "us", "lower"); ("knowledge.query_us", "us", "lower");
    ("knowledge.open_ms", "ms", "lower"); ("knowledge.append_us", "us", "lower");
    ("llm_sim.calls_per_case", "calls", "lower"); ("llm_sim.tokens_per_case", "tokens", "lower");
    ("core.repair_us", "us", "lower"); ("core.repair_self_us", "us", "lower");
    ("core.fast_think_ms", "ms", "lower"); ("core.slow_think_ms", "ms", "lower");
    ("exec.domain_util", "ratio", "higher"); ("gc.minor_words_per_case", "words", "lower");
    ("gc.major_collections", "count", "lower"); ("exec.snapshot_us", "us", "lower");
    ("exec.snapshot_bytes", "bytes", "lower"); ("exec.journal_append_ms", "ms", "lower");
    ("exec.bytes_written_per_case", "bytes", "lower"); ("exec.files_per_case", "files", "lower");
    ("rb_util.write_atomic_us", "us", "lower"); ("serve.job_alone_ms", "ms", "lower");
    ("serve.accept_ms", "ms", "lower");
    ("serve.queue_to_first_case_ms", "ms", "lower"); ("serve.spawn_handshake_ms", "ms", "lower");
    ("serve.jobrun_ms", "ms", "lower"); ("serve.store_admit_ms", "ms", "lower");
    ("serve.store_complete_ms", "ms", "lower"); ("serve.wire_us_per_frame", "us", "lower");
    ("serve.frames_per_job", "frames", "lower"); ("serve.unattributed_ms", "ms", "lower");
    ("serve.busy_responses", "count", "lower"); ("serve.jobs_in_flight_max", "jobs", "higher");
    ("loadgen.sent", "jobs", "higher"); ("loadgen.accepted", "jobs", "higher");
    ("loadgen.busy", "count", "lower"); ("loadgen.done", "jobs", "higher");
    ("loadgen.failed", "jobs", "lower"); ("loadgen.late_p90_ms", "ms", "lower");
    ("serve.case_frames_rerendered", "frames", "lower");
    ("obs.trace_overhead_pct", "%", "lower") ]
  @ List.map (fun n -> (n, "count", "lower")) Campaign.counter_names

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable cli : string;
  mutable work : string;
  mutable child : bool;
  mutable spans_out : string;
}

let parse_args () =
  let a =
    { workload = ""; seed = 1; seconds = 10.; trace = false; cli = ""; work = "";
      child = false; spans_out = "" }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a.workload <- v; go rest
    | "--seed" :: v :: rest -> a.seed <- int_of_string v; go rest
    | "--seconds" :: v :: rest -> a.seconds <- float_of_string v; go rest
    | "--trace" :: v :: rest -> a.trace <- v = "1"; go rest
    | "--cli" :: v :: rest -> a.cli <- v; go rest
    | "--work" :: v :: rest -> a.work <- v; go rest
    | "--child" :: rest -> a.child <- true; go rest
    | "--spans-out" :: v :: rest -> a.spans_out <- v; go rest
    | [] -> ()
    | x :: _ -> fail "unknown argument %s" x
  in
  go (List.tl (Array.to_list Sys.argv));
  a

let workload_of name =
  match Inputs.of_name name with Some w -> w | None -> fail "unknown workload %S" name

type result = {
  e2e : metric list;
  layers : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;  (* failed correctness or count checks *)
}

let run_campaign a =
  let o =
    Campaign.run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace
      ~spans_out:(Filename.remove_extension a.spans_out ^ "-child.jsonl")
  in
  let layers =
    if not a.trace then []
    else begin
      let cps calls = median (List.map (Campaign.cases_per_s o) calls) in
      let overhead =
        100. *. ((cps (Campaign.untraced o) /. cps (Campaign.traced_calls o)) -. 1.)
      in
      Campaign.layers o
      @ Layers.compute (Inputs.campaign a.seed).Inputs.cases
      @ [ ("obs.trace_overhead_pct", overhead) ]
    end
  in
  { e2e = Campaign.end_to_end o; layers; attempted = o.Campaign.attempted;
    failed = o.Campaign.failed;
    problems =
      List.map (fun d -> "count drift: " ^ d) o.Campaign.count_drift
      @ (if o.Campaign.failed > 0 then [ "reports differ from the reference" ] else []) }

let run_serve a =
  let o = Serving.run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~cli:a.cli
      ~work:a.work
  in
  List.iter
    (fun (n, v) -> Printf.printf "run %-28s %s\n" n (num_to_string v))
    (Serving.loadgen_counts o);
  let layers, drift =
    if not a.trace then ([], [])
    else begin
      let rows, drift = Serving.layers ~seed:a.seed ~cli:a.cli ~work:a.work o in
      let cases =
        List.sort_uniq compare
          (List.concat_map (fun (j : Serving.job) -> j.Serving.spec.Inputs.case_names) o.Serving.jobs)
        |> List.filter_map Dataset.Corpus.find
      in
      ( rows @ Serving.loadgen_counts o @ Layers.compute cases
        @ Layers.durable ~work:a.work cases,
        drift )
    end
  in
  List.iter
    (fun (j : Serving.job) ->
      match j.Serving.failed with
      | Some why -> Printf.eprintf "perfbench: job %d failed: %s\n" j.Serving.spec.Inputs.idx why
      | None -> ())
    o.Serving.jobs;
  let failed = Serving.failed o in
  { e2e = Serving.end_to_end o; layers; attempted = Serving.attempted o; failed;
    problems =
      List.map (fun d -> "count drift: " ^ d) drift
      @ (if failed > 0 then [ "failed jobs" ] else []) }

let main () =
  let a = parse_args () in
  if a.child then
    Campaign.child ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~spans_out:a.spans_out
  else begin
    let w = workload_of a.workload in
    if a.work = "" then fail "--work DIR is required";
    if a.cli = "" || not (Sys.file_exists a.cli) then fail "--cli must name the built rustbrain_cli";
    mkdir_p a.work;
    if a.spans_out = "" then
      a.spans_out <-
        Filename.concat a.work (Printf.sprintf "trace-%s-seed%d.jsonl" a.workload a.seed);
    (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
    let r =
      match w with
      | Inputs.Campaign -> run_campaign a
      | Inputs.Serve_burst -> run_serve a
    in
    List.iter (fun p -> Printf.eprintf "perfbench: %s\n" p) r.problems;
    let metrics =
      if not a.trace then r.e2e
      else begin
        Spans.write a.spans_out;
        List.map
          (fun (name, unit, _) ->
            let v =
              Option.value ~default:0. (List.assoc_opt name r.layers)
            in
            metric name unit v)
          per_layer
      end
    in
    List.iter
      (fun m -> Printf.printf "%-16s %-30s %16s %s\n" a.workload m.name (num_to_string m.value) m.unit)
      metrics;
    print_endline
      (result_line ~correct:(r.problems = []) ~attempted:(max 1 r.attempted)
         ~failed:r.failed metrics)
  end

let () =
  match main () with
  | () -> exit 0
  | exception Failure m ->
    prerr_endline ("perfbench: " ^ m);
    exit 1
