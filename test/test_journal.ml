(* The durability layer: render-exact report round trips, write-ahead
   journal persistence, corrupt-tail recovery, checkpoint/resume and the
   campaign fingerprint guard. *)

module Journal = Exec.Journal

let with_dir f =
  let dir = Filename.temp_file "rustbrain-test-journal" "" in
  Sys.remove dir;
  Rb_util.Fsfile.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let mk_report ?(name = "case-a") ?(seconds = 12.5) ?(passed = true) () =
  { Rustbrain.Report.case_name = name;
    category = Miri.Diag.Validity;
    passed;
    semantic = false;
    seconds;
    llm_calls = 3;
    tokens = 1234;
    iterations = 2;
    solutions_tried = 1;
    rollbacks = 0;
    n_sequence = [ 3; 1; 0 ];
    winning_solution = Some "s1";
    feedback_hit = false;
    retries = 1;
    faults = 2;
    breaker_trips = 0;
    degraded = false;
    gave_up = false;
    trace = [ "line one"; "line \"two\"\twith\\escapes" ] }

(* -- report round trip -------------------------------------------------- *)

let gen_small_string =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 10)
         (oneofl
            [ "a"; "z"; "_"; " "; "\""; "\\"; "\n"; "\t"; ","; ";"; "{"; "[" ])))

let gen_report =
  QCheck.Gen.(
    let int_small = int_range 0 10_000 in
    let* case_name = gen_small_string in
    let* category = oneofl Miri.Diag.all_kinds in
    let* passed = bool in
    let* semantic = bool in
    (* bounded magnitude keeps %.6f printing in the regime where
       print→parse→print is idempotent (documented contract of of_json) *)
    let* seconds = map (fun i -> float_of_int i /. 1000.0) (int_range 0 10_000_000) in
    let* llm_calls = int_small in
    let* tokens = int_small in
    let* iterations = int_small in
    let* solutions_tried = int_small in
    let* rollbacks = int_small in
    let* n_sequence = list_size (int_range 0 6) int_small in
    let* winning_solution = opt gen_small_string in
    let* feedback_hit = bool in
    let* retries = int_small in
    let* faults = int_small in
    let* breaker_trips = int_small in
    let* degraded = bool in
    let* gave_up = bool in
    let* trace = list_size (int_range 0 4) gen_small_string in
    return
      { Rustbrain.Report.case_name; category; passed; semantic; seconds;
        llm_calls; tokens; iterations; solutions_tried; rollbacks; n_sequence;
        winning_solution; feedback_hit; retries; faults; breaker_trips;
        degraded; gave_up; trace })

let report_arb =
  QCheck.make ~print:(fun r -> Rustbrain.Report.to_json r) gen_report

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json r) is render-exact" ~count:300
    report_arb (fun r ->
      let json = Rustbrain.Report.to_json r in
      match Rustbrain.Report.of_json json with
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s on %s" e json
      | Ok r' ->
        Rustbrain.Report.to_json r' = json
        && Rustbrain.Report.csv_row r' = Rustbrain.Report.csv_row r)

let test_of_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Rustbrain.Report.of_json s with
      | Ok _ -> Alcotest.failf "of_json accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,2]"; "{\"case\":\"x\"}"; "null";
      (* truncated mid-string: a torn journal write *)
      (let j = Rustbrain.Report.to_json (mk_report ()) in
       String.sub j 0 (String.length j / 2)) ]

(* -- journal append/load ------------------------------------------------ *)

let manifest jobs cases =
  { Journal.version = Journal.version; fingerprint = "fp-test"; jobs; cases }

let record ~job ~case ?(seconds = 1.25) () =
  { Journal.job; backend = "rustbrain"; seed = 1; case; cache_hits = 2;
    cache_misses = 3; report = mk_report ~name:case ~seconds () }

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0"; "j1" ] [ "a"; "b" ]) in
      Journal.append j (record ~job:"j0" ~case:"a" ()) ~snapshot:"snap-a";
      Journal.append j (record ~job:"j1" ~case:"a" ~seconds:9.75 ()) ~snapshot:"snap-b";
      Journal.append j (record ~job:"j0" ~case:"b" ()) ~snapshot:"snap-c";
      match Journal.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok l ->
        Alcotest.(check int) "records" 3 (List.length l.Journal.records);
        Alcotest.(check int) "nothing dropped" 0 l.Journal.dropped;
        Alcotest.(check string) "manifest fingerprint" "fp-test"
          l.Journal.manifest.Journal.fingerprint;
        Alcotest.(check (list string)) "append order"
          [ "j0/a"; "j1/a"; "j0/b" ]
          (List.map
             (fun (r : Journal.record) -> r.Journal.job ^ "/" ^ r.Journal.case)
             l.Journal.records);
        (* replayed reports render exactly as the originals *)
        List.iter
          (fun (r : Journal.record) ->
            Alcotest.(check string) "render-exact replay"
              (Rustbrain.Report.to_json (mk_report ~name:r.Journal.case
                 ~seconds:r.Journal.report.Rustbrain.Report.seconds ()))
              (Rustbrain.Report.to_json r.Journal.report))
          l.Journal.records;
        (* latest snapshot per job, tagged with that job's record count *)
        Alcotest.(check (option (pair int string))) "j0 snapshot"
          (Some (2, "snap-c"))
          (List.assoc_opt "j0" l.Journal.snapshots);
        Alcotest.(check (option (pair int string))) "j1 snapshot"
          (Some (1, "snap-b"))
          (List.assoc_opt "j1" l.Journal.snapshots))

let log_path dir = Filename.concat dir "journal.log"

let truncate_to path n =
  let full = Option.get (Rb_util.Fsfile.read path) in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 n);
  close_out oc

let file_size path = String.length (Option.get (Rb_util.Fsfile.read path))

let test_corrupt_tail_dropped () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0" ] [ "a"; "b"; "c" ]) in
      Journal.append j (record ~job:"j0" ~case:"a" ()) ~snapshot:"s1";
      Journal.append j (record ~job:"j0" ~case:"b" ()) ~snapshot:"s2";
      let two = file_size (log_path dir) in
      Journal.append j (record ~job:"j0" ~case:"c" ()) ~snapshot:"s3";
      (* cut the tail frame mid-record: a torn write *)
      truncate_to (log_path dir) (file_size (log_path dir) - 7);
      (match Journal.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok l ->
        Alcotest.(check int) "valid prefix kept" 2 (List.length l.Journal.records);
        Alcotest.(check int) "tail dropped, not fatal" 1 l.Journal.dropped;
        (* record and snapshot share a frame, so the torn frame takes
           both: the surviving snapshot is the one of the last whole
           frame, and its count agrees with the records *)
        Alcotest.(check (option (pair int string))) "snapshot of the last whole frame"
          (Some (2, "s2"))
          (List.assoc_opt "j0" l.Journal.snapshots));
      (* attach clears the corrupt tail and continues after the prefix *)
      match Journal.attach ~dir with
      | Error e -> Alcotest.fail e
      | Ok j2 ->
        Alcotest.(check int) "torn frame truncated" two (file_size (log_path dir));
        Journal.append j2 (record ~job:"j0" ~case:"c" ()) ~snapshot:"s3'";
        (match Journal.load ~dir with
        | Error e -> Alcotest.fail e
        | Ok l2 ->
          Alcotest.(check int) "recomputed record landed" 3
            (List.length l2.Journal.records);
          Alcotest.(check int) "clean again" 0 l2.Journal.dropped;
          Alcotest.(check (option (pair int string))) "snapshot consistent again"
            (Some (3, "s3'"))
            (List.assoc_opt "j0" l2.Journal.snapshots)))

let flip_byte path i =
  let b = Bytes.of_string (Option.get (Rb_util.Fsfile.read path)) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_corrupt_snapshot_omitted () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0" ] [ "a" ]) in
      Journal.append j (record ~job:"j0" ~case:"a" ()) ~snapshot:"payload";
      (* rot in the snapshot bytes: the last byte of the log *)
      flip_byte (log_path dir) (file_size (log_path dir) - 1);
      match Journal.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok l ->
        Alcotest.(check int) "records intact" 1 (List.length l.Journal.records);
        Alcotest.(check bool) "bad snapshot omitted" true
          (List.assoc_opt "j0" l.Journal.snapshots = None))

let test_kill_after () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0" ] [ "a"; "b"; "c" ]) in
      Journal.kill_after j 2;
      Journal.append j (record ~job:"j0" ~case:"a" ()) ~snapshot:"s";
      Journal.append j (record ~job:"j0" ~case:"b" ()) ~snapshot:"s";
      (match Journal.append j (record ~job:"j0" ~case:"c" ()) ~snapshot:"s" with
      | () -> Alcotest.fail "expected Killed"
      | exception Journal.Killed -> ());
      (* a dead writer stays dead *)
      (match Journal.append j (record ~job:"j0" ~case:"c" ()) ~snapshot:"s" with
      | () -> Alcotest.fail "expected Killed again"
      | exception Journal.Killed -> ());
      match Journal.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok l ->
        Alcotest.(check int) "exactly the budgeted records durable" 2
          (List.length l.Journal.records))

let test_manifest_guard () =
  with_dir (fun dir ->
      Alcotest.(check bool) "no journal yet" false (Journal.exists ~dir);
      (match Journal.attach ~dir with
      | Ok _ -> Alcotest.fail "attach without manifest must fail"
      | Error _ -> ());
      let _ = Journal.create ~dir (manifest [ "j0" ] [ "a" ]) in
      Alcotest.(check bool) "journal exists" true (Journal.exists ~dir);
      Journal.wipe ~dir;
      Alcotest.(check bool) "wiped" false (Journal.exists ~dir))

(* -- snapshot/restore determinism --------------------------------------- *)

let two_cases () =
  match Dataset.Corpus.all with
  | a :: b :: _ -> (a, b)
  | _ -> Alcotest.fail "corpus too small"

let test_snapshot_restore_determinism () =
  let a, b = two_cases () in
  let runner = Exec.Backends.rustbrain () in
  let live = Exec.Runner.start runner in
  let _ = Exec.Runner.step live a in
  let frozen = Exec.Runner.snapshot live in
  (* continuing the live session and continuing the restored one must
     produce byte-identical reports: sessions accumulate cross-case state
     (tokens, RNG streams, feedback), so this is the property resume
     correctness stands on *)
  let r_live = Exec.Runner.step live b in
  let restored = Exec.Runner.restore runner frozen in
  let r_restored = Exec.Runner.step restored b in
  Alcotest.(check string) "restored session continues identically"
    (Rustbrain.Report.to_json r_live)
    (Rustbrain.Report.to_json r_restored)

(* -- checkpoint/resume --------------------------------------------------- *)

let quick_jobs ?(seeds = [ 1; 2 ]) () =
  let a, b = two_cases () in
  Exec.Scheduler.seeded_jobs (Exec.Backends.human_expert ()) ~seeds [ a; b ]

let render results =
  List.concat_map (fun r -> r.Exec.Scheduler.reports) results
  |> List.map Rustbrain.Report.to_json

let test_checkpoint_kill_resume () =
  with_dir (fun dir ->
      let baseline =
        let results, _ = Exec.Scheduler.run_jobs ~domains:1 (quick_jobs ()) in
        render results
      in
      let o1 =
        Exec.Checkpoint.run ~domains:1 ~kill_after:2 ~dir
          ~mode:Exec.Checkpoint.Fresh (quick_jobs ())
      in
      Alcotest.(check bool) "killed run crashed" true
        (Exec.Scheduler.failures o1.Exec.Checkpoint.results <> []);
      let o2 =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (quick_jobs ())
      in
      Alcotest.(check (list string)) "stitched == uninterrupted" baseline
        (render o2.Exec.Checkpoint.results);
      Alcotest.(check int) "journaled work replayed, not re-verified" 2
        o2.Exec.Checkpoint.replayed;
      Alcotest.(check int) "only the remainder recomputed" 2
        o2.Exec.Checkpoint.recomputed)

let test_checkpoint_fingerprint_mismatch () =
  with_dir (fun dir ->
      let _ =
        Exec.Checkpoint.run ~domains:1 ~kill_after:1 ~dir
          ~mode:Exec.Checkpoint.Fresh (quick_jobs ())
      in
      (match
         Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
           (quick_jobs ~seeds:[ 7; 8 ] ())
       with
      | _ -> Alcotest.fail "foreign journal accepted"
      | exception Exec.Checkpoint.Fingerprint_mismatch _ -> ());
      (* --fresh semantics: the same foreign jobs are fine when starting over *)
      let o =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Fresh
          (quick_jobs ~seeds:[ 7; 8 ] ())
      in
      Alcotest.(check int) "fresh run recomputes everything" 4
        o.Exec.Checkpoint.recomputed)

let test_checkpoint_truncated_tail_recomputes () =
  with_dir (fun dir ->
      let baseline =
        let results, _ = Exec.Scheduler.run_jobs ~domains:1 (quick_jobs ()) in
        render results
      in
      let _ =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Fresh
          (quick_jobs ())
      in
      (* tear the last frame: its record and snapshot are both lost, so
         that job resumes from its previous frame — and the final reports
         must still be byte-identical *)
      truncate_to (log_path dir) (file_size (log_path dir) - 5);
      let o =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (quick_jobs ())
      in
      Alcotest.(check int) "torn record detected" 1 o.Exec.Checkpoint.dropped;
      Alcotest.(check (list string)) "reports still byte-identical" baseline
        (render o.Exec.Checkpoint.results);
      (* the journal heals: a further resume replays everything *)
      let o2 =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (quick_jobs ())
      in
      Alcotest.(check int) "healed journal fully replays" 0
        o2.Exec.Checkpoint.recomputed)

(* [adopt_code_version] replaces this process's version for every later
   fingerprint; put the real one back so no other test sees a foreign
   version *)
let with_adopted_version f =
  let own = Exec.Checkpoint.code_version () in
  Fun.protect
    ~finally:(fun () -> Exec.Checkpoint.adopt_code_version own)
    (fun () -> f own)

let test_adopted_version_feeds_fingerprint () =
  with_adopted_version (fun own ->
      let fp () = Exec.Checkpoint.fingerprint (quick_jobs ()) in
      let own_fp = fp () in
      Exec.Checkpoint.adopt_code_version own;
      Alcotest.(check string) "adopting the own version changes nothing"
        own_fp (fp ());
      Exec.Checkpoint.adopt_code_version "version-a";
      Alcotest.(check string) "code_version returns the adopted value"
        "version-a" (Exec.Checkpoint.code_version ());
      let fp_a = fp () in
      Alcotest.(check bool) "adopted version changes the fingerprint" true
        (fp_a <> own_fp);
      Exec.Checkpoint.adopt_code_version "version-b";
      Alcotest.(check bool) "another version, another fingerprint" true
        (fp () <> fp_a);
      Exec.Checkpoint.adopt_code_version "version-a";
      Alcotest.(check string) "same version, same fingerprint" fp_a (fp ()))

let test_resume_under_other_version_refused () =
  with_adopted_version (fun _ ->
      with_dir (fun dir ->
          Exec.Checkpoint.adopt_code_version "version-a";
          let _ =
            Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Fresh
              (quick_jobs ())
          in
          Exec.Checkpoint.adopt_code_version "version-b";
          (match
             Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
               (quick_jobs ())
           with
          | _ -> Alcotest.fail "journal of another code version replayed"
          | exception Exec.Checkpoint.Fingerprint_mismatch _ -> ());
          Exec.Checkpoint.adopt_code_version "version-a";
          let o =
            Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
              (quick_jobs ())
          in
          Alcotest.(check int) "its own version replays it all" 0
            o.Exec.Checkpoint.recomputed))

(* -- the log: every prefix, every flipped byte --------------------------- *)

(* A 3-record log over two jobs, and the offset where each frame ends
   (the manifest's first). *)
let three_record_log dir =
  let j = Journal.create ~dir (manifest [ "j0"; "j1" ] [ "a"; "b" ]) in
  let ends = ref [ file_size (log_path dir) ] in
  List.iter
    (fun (job, case, snap) ->
      Journal.append j (record ~job ~case ()) ~snapshot:snap;
      ends := file_size (log_path dir) :: !ends)
    [ ("j0", "a", "s1"); ("j1", "a", "s2"); ("j0", "b", "s3") ];
  (Option.get (Rb_util.Fsfile.read (log_path dir)), List.rev !ends)

let labels (l : Journal.loaded) =
  List.map
    (fun (r : Journal.record) -> r.Journal.job ^ "/" ^ r.Journal.case)
    l.Journal.records

let all_labels = [ "j0/a"; "j1/a"; "j0/b" ]
let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

let write_log dir bytes =
  let oc = open_out_bin (log_path dir) in
  output_string oc bytes;
  close_out oc

(* A crash can cut the log at any byte. For every length: load never
   raises and returns exactly the whole frames, with each snapshot's
   count equal to its job's surviving records; attach truncates to the
   last whole frame and the next append lands cleanly after it. *)
let test_every_prefix () =
  with_dir (fun dir ->
      let full, ends = three_record_log dir in
      let manifest_end = List.hd ends in
      for n = 0 to String.length full do
        write_log dir (String.sub full 0 n);
        let whole = List.length (List.filter (fun e -> e <= n) ends) - 1 in
        match Journal.load ~dir with
        | exception e ->
          Alcotest.failf "load raised %s at length %d" (Printexc.to_string e) n
        | Error _ ->
          if n >= manifest_end then
            Alcotest.failf "whole manifest refused at length %d" n
        | Ok l -> (
          if n < manifest_end then Alcotest.failf "torn manifest read at %d" n;
          let want = take whole all_labels in
          Alcotest.(check (list string))
            (Printf.sprintf "whole frames at length %d" n)
            want (labels l);
          let boundary = List.nth ends whole in
          Alcotest.(check int)
            (Printf.sprintf "dropped at length %d" n)
            (if n = boundary then 0 else 1)
            l.Journal.dropped;
          (match Journal.records ~dir with
          | Ok (rs, dropped) ->
            Alcotest.(check (pair int int))
              (Printf.sprintf "records agrees with load at length %d" n)
              (List.length l.Journal.records, l.Journal.dropped)
              (List.length rs, dropped)
          | Error e -> Alcotest.failf "records at length %d: %s" n e);
          List.iter
            (fun (job, (count, _)) ->
              let mine =
                List.filter
                  (fun s -> String.length s > 2 && String.sub s 0 2 = job)
                  want
              in
              Alcotest.(check int)
                (Printf.sprintf "%s snapshot count at length %d" job n)
                (List.length mine) count)
            l.Journal.snapshots;
          match Journal.attach ~dir with
          | Error e -> Alcotest.failf "attach at length %d: %s" n e
          | Ok j ->
            Alcotest.(check int)
              (Printf.sprintf "attach truncates to a boundary at length %d" n)
              boundary
              (file_size (log_path dir));
            Journal.append j (record ~job:"j1" ~case:"b" ()) ~snapshot:"s4";
            (match Journal.load ~dir with
            | Error e -> Alcotest.failf "reload at length %d: %s" n e
            | Ok l2 ->
              Alcotest.(check (list string))
                (Printf.sprintf "append after attach at length %d" n)
                (want @ [ "j1/b" ]) (labels l2);
              Alcotest.(check int) "no tail after the append" 0
                l2.Journal.dropped))
      done)

(* Rot anywhere in a frame's header or record ends the valid prefix at
   that frame (a rotted manifest refuses the whole log); rot in a
   snapshot omits that snapshot and keeps every record. *)
let test_flipped_byte () =
  with_dir (fun dir ->
      let full, ends = three_record_log dir in
      let starts = 0 :: List.filteri (fun i _ -> i < 3) ends in
      let frames = List.combine starts ends in
      let snap_len = 2 (* "s1", "s2", "s3" *) in
      for pos = 0 to String.length full - 1 do
        write_log dir full;
        flip_byte (log_path dir) pos;
        let k, (a, b) =
          List.find (fun (_, (a, b)) -> a <= pos && pos < b)
            (List.mapi (fun i f -> (i, f)) frames)
        in
        let in_snapshot =
          (pos - a >= 20 && pos - a < 36) || (k > 0 && pos >= b - snap_len)
        in
        match Journal.load ~dir with
        | exception e ->
          Alcotest.failf "load raised %s at byte %d" (Printexc.to_string e) pos
        | Error _ ->
          if k > 0 || in_snapshot then
            Alcotest.failf "byte %d (frame %d) refused the whole log" pos k
        | Ok l ->
          if k = 0 && not in_snapshot then
            Alcotest.failf "rotted manifest byte %d accepted" pos;
          if in_snapshot then begin
            Alcotest.(check (list string))
              (Printf.sprintf "snapshot rot at byte %d keeps records" pos)
              all_labels (labels l);
            (* only a job's latest frame supplies its snapshot *)
            let latest_j0 = k = 3 and latest_j1 = k = 2 in
            Alcotest.(check bool)
              (Printf.sprintf "j0 snapshot at byte %d" pos)
              (not latest_j0)
              (List.mem_assoc "j0" l.Journal.snapshots);
            Alcotest.(check bool)
              (Printf.sprintf "j1 snapshot at byte %d" pos)
              (not latest_j1)
              (List.mem_assoc "j1" l.Journal.snapshots)
          end
          else begin
            Alcotest.(check (list string))
              (Printf.sprintf "prefix ends at frame %d (byte %d)" k pos)
              (take (k - 1) all_labels) (labels l);
            Alcotest.(check bool)
              (Printf.sprintf "rest dropped (byte %d)" pos)
              true (l.Journal.dropped >= 1)
          end
      done)

(* The cost gate: counted, not timed. A journaled run pays one fsync and
   no rename per case; creating the journal pays two fsyncs (the log and
   its directory entry) and one rename. *)
let test_cost_counters () =
  let count reg name = Obs.Metrics.(counter_value (counter reg name)) in
  with_dir (fun dir ->
      let reg = Obs.Metrics.create () in
      Obs.Metrics.with_registry reg (fun () ->
          ignore (Journal.create ~dir (manifest [ "j0" ] [ "a" ]) : Journal.t));
      Alcotest.(check (list int)) "create: fsyncs, renames, appends"
        [ 2; 1; 0 ]
        (List.map (count reg) [ "journal.fsyncs"; "journal.renames"; "journal.appends" ]));
  with_dir (fun dir ->
      let a, b = two_cases () in
      let c =
        match Dataset.Corpus.all with _ :: _ :: c :: _ -> c | _ -> assert false
      in
      let jobs =
        Exec.Scheduler.seeded_jobs (Exec.Backends.human_expert ()) ~seeds:[ 1 ]
          [ a; b; c ]
      in
      let reg = Obs.Metrics.create () in
      let o =
        Obs.Metrics.with_registry reg (fun () ->
            Exec.Checkpoint.run ~domains:1 ~metrics:reg ~dir
              ~mode:Exec.Checkpoint.Fresh jobs)
      in
      Alcotest.(check int) "three cases" 3 o.Exec.Checkpoint.recomputed;
      Alcotest.(check (list int))
        "3 appends: fsyncs = 2 (create) + 1 per append, renames = 1 (create)"
        [ 3; 5; 1; 0 ]
        (List.map (count reg)
           [ "journal.appends"; "journal.fsyncs"; "journal.renames";
             "journal.compactions" ]))

(* Dead snapshots are bounded: past twice the live content plus 1 MiB the
   log is rewritten with each job's latest snapshot only, and every record
   survives, in order. *)
let test_compaction_bounds_log () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0"; "j1" ] [ "c" ]) in
      let snap i = String.make 65536 (Char.chr (Char.code 'a' + (i mod 26))) in
      let reg = Obs.Metrics.create () in
      Obs.Metrics.with_registry reg (fun () ->
          for i = 0 to 39 do
            Journal.append j
              (record ~job:(if i mod 2 = 0 then "j0" else "j1")
                 ~case:(string_of_int i) ())
              ~snapshot:(snap i)
          done);
      Alcotest.(check bool) "compacted" true
        (Obs.Metrics.(counter_value (counter reg "journal.compactions")) > 0);
      (* live: two 64 KiB snapshots plus 40 small records *)
      Alcotest.(check bool) "bounded by 2 x live + 1 MiB + one frame" true
        (file_size (log_path dir) < (2 * 3 * 65536) + (1 lsl 20) + 65536 + 4096);
      let check_all () =
        match Journal.load ~dir with
        | Error e -> Alcotest.fail e
        | Ok l ->
          Alcotest.(check (list string)) "every record, in order"
            (List.init 40 string_of_int)
            (List.map (fun (r : Journal.record) -> r.Journal.case) l.Journal.records);
          Alcotest.(check int) "clean" 0 l.Journal.dropped;
          Alcotest.(check (option (pair int string))) "j0 latest snapshot"
            (Some (20, snap 38)) (List.assoc_opt "j0" l.Journal.snapshots);
          Alcotest.(check (option (pair int string))) "j1 latest snapshot"
            (Some (20, snap 39)) (List.assoc_opt "j1" l.Journal.snapshots)
      in
      check_all ();
      (* a compacted log attaches like any other *)
      match Journal.attach ~dir with
      | Error e -> Alcotest.fail e
      | Ok _ -> check_all ())

(* -- format 1: recognised, never misread -------------------------------- *)

let format_1_dir dir files =
  List.iter
    (fun f -> Rb_util.Fsfile.write_atomic (Filename.concat dir f) "{}")
    files

let test_format_1_exists () =
  List.iter
    (fun files ->
      with_dir (fun dir ->
          format_1_dir dir files;
          Alcotest.(check bool) "exists" true (Journal.exists ~dir);
          Alcotest.(check bool) "format 1" true (Journal.format_1 ~dir);
          let opts =
            { Exec.Campaign_opts.default with Exec.Campaign_opts.journal = Some dir }
          in
          (match Exec.Campaign_opts.journal_mode opts with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "format-1 journal run without --resume/--fresh");
          match
            Exec.Campaign_opts.journal_mode
              { opts with Exec.Campaign_opts.resume = true }
          with
          | Ok (Some (_, Exec.Checkpoint.Resume)) -> ()
          | _ -> Alcotest.fail "--resume must be let through to the refusal"))
    [ [ "MANIFEST.json" ]; [ "rec-000000.json" ];
      [ "MANIFEST.json"; "rec-000000.json"; "snap-000.bin" ] ]

let test_format_1_resume_refused () =
  with_dir (fun dir ->
      format_1_dir dir [ "MANIFEST.json"; "rec-000000.json"; "snap-000.bin" ];
      (match Journal.load ~dir with
      | Ok _ -> Alcotest.fail "format-1 journal loaded"
      | Error e ->
        Alcotest.(check bool) "names the format" true
          (Helpers.contains e "journal format 1"));
      (match Journal.attach ~dir with
      | Ok _ -> Alcotest.fail "format-1 journal attached"
      | Error _ -> ());
      match
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (quick_jobs ())
      with
      | _ -> Alcotest.fail "format-1 journal resumed"
      | exception Exec.Checkpoint.Format_1_journal d ->
        Alcotest.(check string) "names the directory" dir d)

let test_format_1_fresh_wipes () =
  with_dir (fun dir ->
      let files = [ "MANIFEST.json"; "rec-000000.json"; "rec-000001.json"; "snap-000.bin" ] in
      format_1_dir dir files;
      Journal.wipe ~dir;
      Alcotest.(check bool) "wipe removes format 1" false (Journal.exists ~dir);
      format_1_dir dir files;
      let o =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Fresh
          (quick_jobs ())
      in
      Alcotest.(check int) "fresh run recomputes everything" 4
        o.Exec.Checkpoint.recomputed;
      Alcotest.(check (list string)) "only the log remains" [ "journal.log" ]
        (Array.to_list (Sys.readdir dir));
      let o2 =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (quick_jobs ())
      in
      Alcotest.(check int) "and it resumes as format 2" 0
        o2.Exec.Checkpoint.recomputed)

let suite =
  [ QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "of_json rejects garbage" `Quick test_of_json_rejects_garbage;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "corrupt tail dropped" `Quick test_corrupt_tail_dropped;
    Alcotest.test_case "corrupt snapshot omitted" `Quick test_corrupt_snapshot_omitted;
    Alcotest.test_case "kill_after" `Quick test_kill_after;
    Alcotest.test_case "manifest guard" `Quick test_manifest_guard;
    Alcotest.test_case "snapshot/restore determinism" `Slow
      test_snapshot_restore_determinism;
    Alcotest.test_case "checkpoint kill+resume" `Quick test_checkpoint_kill_resume;
    Alcotest.test_case "fingerprint mismatch refused" `Quick
      test_checkpoint_fingerprint_mismatch;
    Alcotest.test_case "truncated tail recomputed" `Quick
      test_checkpoint_truncated_tail_recomputes;
    Alcotest.test_case "adopted code version feeds fingerprint" `Quick
      test_adopted_version_feeds_fingerprint;
    Alcotest.test_case "resume under another code version refused" `Quick
      test_resume_under_other_version_refused;
    Alcotest.test_case "every prefix length loads a clean prefix" `Quick
      test_every_prefix;
    Alcotest.test_case "flipped byte ends the prefix at its frame" `Quick
      test_flipped_byte;
    Alcotest.test_case "cost counters: one fsync, no rename per append" `Quick
      test_cost_counters;
    Alcotest.test_case "format 1 exists, refused without resume/fresh" `Quick
      test_format_1_exists;
    Alcotest.test_case "format 1 resume refused" `Quick
      test_format_1_resume_refused;
    Alcotest.test_case "format 1 fresh wipes" `Quick test_format_1_fresh_wipes;
    Alcotest.test_case "compaction bounds the log" `Quick
      test_compaction_bounds_log ]
