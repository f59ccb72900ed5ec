(* Golden-corpus diagnostics test.

   Runs every corpus case (buggy and fixed source) under the interpreter in
   both Stop_first and Collect modes with event tracing on, renders every
   observable — outcome, print trace, diagnostic strings (addresses, tags,
   messages), borrow/allocation events, step and error counts — and compares
   the result byte-for-byte against the checked-in
   [test/golden_diags.expected]. Any change to allocation addresses, borrow
   tags, scheduling, or diagnostic wording shows up here, which is what makes
   memory-representation swaps provably observation-preserving.

   Regenerate after an *intentional* observable change with:
     GOLDEN_REGEN=$PWD/test/golden_diags.expected dune exec test/test_main.exe -- test golden
*)

let render_result (r : Miri.Machine.run_result) =
  let b = Buffer.create 256 in
  let outcome =
    match r.Miri.Machine.outcome with
    | Miri.Machine.Finished -> "finished"
    | Miri.Machine.Panicked m -> "panicked: " ^ m
    | Miri.Machine.Ub d -> "ub: " ^ Miri.Diag.to_string d
    | Miri.Machine.Step_limit -> "step-limit"
    | Miri.Machine.Resource_limit m -> "resource-limit: " ^ m
  in
  Buffer.add_string b (Printf.sprintf "outcome: %s\n" outcome);
  Buffer.add_string b
    (Printf.sprintf "steps: %d errors: %d\n" r.Miri.Machine.steps
       r.Miri.Machine.error_count);
  List.iter
    (fun s -> Buffer.add_string b (Printf.sprintf "out: %s\n" s))
    r.Miri.Machine.output;
  List.iter
    (fun d ->
      Buffer.add_string b (Printf.sprintf "diag: %s\n" (Miri.Diag.to_string d)))
    r.Miri.Machine.diags;
  List.iter
    (fun e -> Buffer.add_string b (Printf.sprintf "event: %s\n" e))
    r.Miri.Machine.events;
  Buffer.contents b

let run_one ?(seed = 1) ?(trace = true) src ~mode ~inputs =
  let program = Minirust.Parser.parse src in
  match Minirust.Typecheck.check program with
  | Error errs -> "typecheck-error: " ^ Minirust.Typecheck.errors_to_string errs ^ "\n"
  | Ok info ->
    let config =
      { Miri.Machine.default_config with
        Miri.Machine.mode;
        seed;
        trace;
        inputs }
    in
    render_result (Miri.Machine.run ~config program info)

let generate () =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (c : Dataset.Case.t) ->
      let inputs = match c.Dataset.Case.probes with p :: _ -> p | [] -> [||] in
      List.iter
        (fun (variant, src) ->
          List.iter
            (fun (mode_name, mode) ->
              Buffer.add_string b
                (Printf.sprintf "=== %s/%s/%s ===\n" c.Dataset.Case.name variant
                   mode_name);
              Buffer.add_string b (run_one src ~mode ~inputs))
            [ ("stop-first", Miri.Machine.Stop_first);
              ("collect-5", Miri.Machine.Collect 5) ])
        [ ("buggy", c.Dataset.Case.buggy_src);
          ("fixed", c.Dataset.Case.fixed_src) ])
    Dataset.Corpus.all;
  Buffer.contents b

(* Under `dune runtest` the cwd is the sandboxed test dir (where the (deps)
   copy lives); under `dune exec` from the repo root it is the root. *)
let expected_file ?(name = "golden_diags.expected") () =
  let candidates =
    [ name; Filename.concat "test" name;
      Filename.concat (Filename.dirname Sys.executable_name) name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found; regenerate with GOLDEN_REGEN" name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Point at the first differing line, not a megabyte Alcotest string diff. *)
let first_divergence want got =
  let wl = String.split_on_char '\n' want and gl = String.split_on_char '\n' got in
  let rec go i = function
    | w :: ws, g :: gs -> if w = g then go (i + 1) (ws, gs) else (i, w, g)
    | w :: _, [] -> (i, w, "<end of generated output>")
    | [], g :: _ -> (i, "<end of expected file>", g)
    | [], [] -> (i, "", "")
  in
  go 1 (wl, gl)

let test_golden_corpus () =
  let got = generate () in
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc got;
    close_out oc;
    Printf.printf "regenerated %s (%d bytes)\n" path (String.length got)
  | None ->
    let want = read_file (expected_file ()) in
    if want <> got then begin
      let line, w, g = first_divergence want got in
      Alcotest.failf
        "golden corpus diagnostics diverge at line %d\n  expected: %s\n  got:      %s"
        line w g
    end

(* ------------------------------------------------------------------ *)
(* Schedule golden.

   Every data-race and concurrency case (buggy and fixed) plus a few
   schedule-sensitive programs, under scheduler seeds 1-8 and 42, in
   Stop_first and Collect 25, with tracing off: outcomes, outputs, diags and
   step counts pin the exact interleaving each seed produces. The
   VM-vs-tree-walker differential cannot catch a scheduler change, because
   both engines share [Rt.yield_point] and [Rt.drive]; this file can.

   Regenerate after an *intentional* scheduling change with:
     GOLDEN_REGEN=$PWD/test/golden_sched.expected dune exec test/test_main.exe -- test golden 1
   (this case only writes when GOLDEN_REGEN names a golden_sched.expected
   file). *)

let sched_programs =
  [ ( "sched_counters",
      (* main waits on a warm-up child, so for a while one thread runs
         alone; then two children and main print interleaved counters,
         and that print order depends on every scheduler draw before it *)
      {|
fn count(id: i64, n: i64) {
    let mut i = 0;
    while i < n {
        print(id * 100 + i);
        i = i + 1;
    }
}

fn main() {
    let w = spawn count(9, 6);
    join(w);
    let a = spawn count(1, 12);
    let b = spawn count(2, 12);
    let mut i = 0;
    while i < 12 {
        print(i);
        i = i + 1;
    }
    join(a);
    join(b);
}
|} );
    ( "sched_flag_spin",
      (* main spins on an atomic flag that never reaches its target: it
         prints every tick it observes while the child runs, then spins
         alone until the step limit *)
      {|
static mut TICKS: i64 = 0;

fn ticker(n: i64) {
    let mut i = 0;
    while i < n {
        unsafe {
            atomic_add(&raw mut TICKS, 1);
        }
        i = i + 1;
    }
}

fn main() {
    let h = spawn ticker(40);
    let mut seen = 0;
    let mut waiting = true;
    while waiting {
        unsafe {
            let t = atomic_load(&raw mut TICKS);
            if t != seen {
                print(t);
                seen = t;
            }
            if t == -1 {
                waiting = false;
            }
        }
    }
    join(h);
}
|} );
    ( "sched_racy_spin",
      (* the same handshake with plain accesses: where the race is caught
         depends on the interleaving *)
      {|
static mut TICKS: i64 = 0;

fn ticker(n: i64) {
    let mut i = 0;
    while i < n {
        unsafe {
            TICKS = TICKS + 1;
        }
        i = i + 1;
    }
}

fn main() {
    let h = spawn ticker(40);
    let mut seen = 0;
    let mut waiting = true;
    while waiting {
        unsafe {
            let t = TICKS;
            if t != seen {
                print(t);
                seen = t;
            }
            if t == -1 {
                waiting = false;
            }
        }
    }
    join(h);
}
|} ) ]

let sched_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 42 ]

let generate_sched () =
  let b = Buffer.create (1 lsl 16) in
  let runs name variant src inputs =
    List.iter
      (fun seed ->
        List.iter
          (fun (mode_name, mode) ->
            Buffer.add_string b
              (Printf.sprintf "=== %s/%s/seed-%d/%s ===\n" name variant seed mode_name);
            Buffer.add_string b (run_one ~seed ~trace:false src ~mode ~inputs))
          [ ("stop-first", Miri.Machine.Stop_first);
            ("collect-25", Miri.Machine.Collect 25) ])
      sched_seeds
  in
  List.iter
    (fun (c : Dataset.Case.t) ->
      if c.Dataset.Case.category = Miri.Diag.Data_race
         || c.Dataset.Case.category = Miri.Diag.Concurrency
      then begin
        let inputs = match c.Dataset.Case.probes with p :: _ -> p | [] -> [||] in
        runs c.Dataset.Case.name "buggy" c.Dataset.Case.buggy_src inputs;
        runs c.Dataset.Case.name "fixed" c.Dataset.Case.fixed_src inputs
      end)
    Dataset.Corpus.all;
  List.iter (fun (name, src) -> runs name "program" src [||]) sched_programs;
  Buffer.contents b

let test_golden_sched () =
  let name = "golden_sched.expected" in
  let got = generate_sched () in
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some path when Filename.basename path = name ->
    let oc = open_out_bin path in
    output_string oc got;
    close_out oc;
    Printf.printf "regenerated %s (%d bytes)\n" path (String.length got)
  | Some _ | None ->
    let want = read_file (expected_file ~name ()) in
    if want <> got then begin
      let line, w, g = first_divergence want got in
      Alcotest.failf
        "schedule golden diverges at line %d\n  expected: %s\n  got:      %s"
        line w g
    end

let suite =
  [ Alcotest.test_case "golden corpus diagnostics byte-identical" `Quick
      test_golden_corpus;
    Alcotest.test_case "golden schedules byte-identical" `Quick test_golden_sched ]
