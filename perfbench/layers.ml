(* Per-layer probes for the traced run: the benchmark times calls into each
   lib/ module's public functions itself, around those calls only, and
   records each call as a span. Nothing under lib/ is instrumented for
   this. Every probe returns (metric name, value) rows; units live with the
   metric list in bench.ml. *)

open Util

type row = string * float

let span name key f = Spans.around ~key name f

(* Run [f] on every element, [passes] times over. Each call is a span;
   the per-call time is taken over a whole pass (pass time / calls), which
   keeps microsecond calls clear of the clock's resolution. Returns one
   per-call mean per pass. *)
let time_each ~passes name key_of xs f =
  let n = float_of_int (max 1 (List.length xs)) in
  List.init passes (fun _ ->
      let t0 = now () in
      List.iter (fun x -> ignore (span name (key_of x) (fun () -> f x))) xs;
      (now () -. t0) /. n)

(* -- compute layers: parse, typecheck, lower, VM, featvec, KB query ---- *)

let detect_config (case : Dataset.Case.t) =
  { Miri.Machine.default_config with
    Miri.Machine.mode = Miri.Machine.Collect 25; seed = 42; max_steps = 200_000;
    inputs = (match case.Dataset.Case.probes with [] -> [||] | p :: _ -> p) }

let compute (cases : Dataset.Case.t list) : row list =
  let passes = 5 in
  let key (c : Dataset.Case.t) = c.Dataset.Case.name in
  let parse =
    time_each ~passes "minirust.parse" key cases (fun c ->
        ignore (Minirust.Parser.parse c.Dataset.Case.buggy_src);
        ignore (Minirust.Parser.parse c.Dataset.Case.fixed_src))
  in
  (* programs, both buggy and fixed, parsed once for the later layers *)
  let progs =
    List.concat_map
      (fun c ->
        [ (c, Minirust.Parser.parse c.Dataset.Case.buggy_src);
          (c, Minirust.Parser.parse c.Dataset.Case.fixed_src) ])
      cases
  in
  let pkey (c, _) = key c in
  let typecheck =
    time_each ~passes "minirust.typecheck" pkey progs (fun (_, p) ->
        Minirust.Typecheck.check p)
  in
  let checked =
    List.filter_map
      (fun (c, p) ->
        match Minirust.Typecheck.check p with
        | Ok info -> Some (c, p, info)
        | Error _ -> None)
      progs
  in
  let ckey (c, _, _) = key c in
  let lower =
    time_each ~passes "miri.lower" ckey checked (fun (_, p, info) ->
        Miri.Machine.lower p info)
  in
  let lowered =
    List.map (fun (c, p, info) -> (c, p, info, Miri.Machine.lower p info)) checked
  in
  let registry = Obs.Metrics.create () in
  let steps = ref [] and diags = ref [] in
  let vm =
    Obs.Metrics.with_registry registry (fun () ->
        time_each ~passes:1 "miri.vm" (fun (c, _, _, _) -> key c) lowered
          (fun (c, p, info, code) ->
            let r = Miri.Machine.run_lowered ~config:(detect_config c) p info code in
            steps := float_of_int r.Miri.Machine.steps :: !steps;
            diags := (p, r.Miri.Machine.diags) :: !diags)
        @ time_each ~passes:(passes - 1) "miri.vm" (fun (c, _, _, _) -> key c) lowered
            (fun (c, p, info, code) ->
              Miri.Machine.run_lowered ~config:(detect_config c) p info code))
  in
  let counter n = Obs.Metrics.counter_value (Obs.Metrics.counter registry n) in
  let runs = counter "interp.runs" in
  let featvec =
    time_each ~passes "knowledge.featvec" (fun _ -> "") !diags (fun (p, d) ->
        Knowledge.Featvec.of_program p d)
  in
  let kb = Knowledge.Kb.create ~clock:(Rb_util.Simclock.create ()) () in
  Knowledge.Kb.seed_default kb;
  let vecs = List.map (fun (p, d) -> Knowledge.Featvec.of_program p d) !diags in
  let query =
    time_each ~passes "knowledge.query" (fun _ -> "") vecs (fun v ->
        Knowledge.Kb.query kb v)
  in
  let med_us xs = us (median xs) in
  [ ("minirust.parse_us", med_us parse);
    ("minirust.typecheck_us", med_us typecheck);
    ("miri.lower_us", med_us lower);
    ("miri.vm_us", med_us vm);
    ("miri.steps", mean !steps);
    ("miri.allocs", ratio (counter "interp.allocs") (max 1 runs));
    ("knowledge.featvec_us", med_us featvec);
    ("knowledge.query_us", med_us query) ]

(* -- durable layers: snapshot, journal append, atomic write, KB append -- *)

let runner () =
  match Exec.Campaign_opts.runner Exec.Campaign_opts.default ~backend:"rustbrain" with
  | Ok r -> r
  | Error e -> fail "runner: %s" e

let durable ~work (cases : Dataset.Case.t list) : row list =
  let cases = List.filteri (fun i _ -> i < 24) cases in
  let packed = runner () in
  let running = Exec.Runner.start packed in
  let snaps = ref [] and sizes = ref [] and records = ref [] in
  List.iter
    (fun (c : Dataset.Case.t) ->
      let report = Exec.Runner.step running c in
      let t0 = now () in
      let s = span "exec.snapshot" c.Dataset.Case.name (fun () -> Exec.Runner.snapshot running) in
      snaps := (now () -. t0) :: !snaps;
      sizes := float_of_int (String.length s) :: !sizes;
      records := (c, report, s) :: !records)
    cases;
  let records = List.rev !records in
  let jdir = fresh_dir work "probe-journal" in
  let manifest =
    { Exec.Journal.version = Exec.Journal.version; fingerprint = "perfbench-probe";
      jobs = [ "probe" ]; cases = List.map (fun (c : Dataset.Case.t) -> c.Dataset.Case.name) cases }
  in
  let j = Exec.Journal.create ~dir:jdir manifest in
  let appends =
    List.map
      (fun ((c : Dataset.Case.t), report, snapshot) ->
        let r =
          { Exec.Journal.job = "probe"; backend = Exec.Runner.name packed;
            seed = Exec.Runner.seed packed; case = c.Dataset.Case.name;
            cache_hits = 0; cache_misses = 0; report }
        in
        snd (timed (fun () ->
                 span "exec.journal_append" c.Dataset.Case.name (fun () ->
                     Exec.Journal.append j r ~snapshot))))
      records
  in
  rm_rf jdir;
  let wdir = fresh_dir work "probe-atomic" in
  let payload = String.make 1024 'x' in
  let writes =
    List.init 40 (fun i ->
        snd (timed (fun () ->
                 span "rb_util.write_atomic" (string_of_int i) (fun () ->
                     Rb_util.Fsfile.write_atomic
                       (Filename.concat wdir (Printf.sprintf "f%02d" (i mod 8)))
                       payload))))
  in
  rm_rf wdir;
  (* a fresh writable segment store: initialise and open, then append *)
  let kb_dir = fresh_dir work "probe-kb" in
  let kb, kb_open =
    timed (fun () ->
        span "knowledge.open" kb_dir (fun () ->
            Knowledge.Kb.open_dir ~readonly:false ~dir:kb_dir
              ~clock:(Rb_util.Simclock.create ()) ()))
  in
  let kb = match kb with Ok t -> t | Error e -> fail "kb probe: %s" e in
  let kb_append =
    List.map
      (fun ((c : Dataset.Case.t), _, _) ->
        let v = Knowledge.Featvec.of_program (Dataset.Case.buggy c) [] in
        let e =
          { Knowledge.Kb.category = c.Dataset.Case.category;
            advice = "probe " ^ c.Dataset.Case.name;
            recommended = Repairs.Rule.Replace }
        in
        snd (timed (fun () ->
                 span "knowledge.append" c.Dataset.Case.name (fun () ->
                     Knowledge.Kb.learn kb v e))))
      records
  in
  rm_rf kb_dir;
  [ ("exec.snapshot_us", us (median !snaps));
    ("exec.snapshot_bytes", mean !sizes);
    ("exec.journal_append_ms", ms (median appends));
    ("rb_util.write_atomic_us", us (median writes));
    ("knowledge.open_ms", ms kb_open);
    ("knowledge.append_us", us (median kb_append)) ]
