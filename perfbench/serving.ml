(* The `serve-burst` workload.

   Each run starts fresh repair servers (the real `rustbrain_cli serve`,
   default worker-process pool, 2 runners, 1 domain per job) on a fresh
   socket and state directory, drives one of them from a single-threaded
   [select] load generator over two connections, checks every job against
   an untimed serial reference, then drains the server and checks that
   neither it nor any worker it spawned survives. *)

open Util

(* Jobs per serve-burst round; within the per-tenant quota and the queue
   bound below, so admission never has to refuse one. *)
let burst_jobs = 80
let quota = 64
let max_queue = 128

(* BUSY replies honoured per job before it counts as failed. *)
let max_busy = 200

let setup_reps = 11

(* -- server lifecycle -------------------------------------------------- *)

type server = {
  pid : int;
  socket : string;  (* relative to the working directory: short for bind *)
  dir : string;
  mutable workers_seen : (int * int) list;  (* pid, largest VmHWM sampled *)
}

let counter = ref 0

let start_server ~cli ~work =
  incr counter;
  let dir = fresh_dir work "serve" in
  let socket = Printf.sprintf "%s/s%d-%d.sock" work (Unix.getpid ()) !counter in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let t0 = now () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--state-dir"; Filename.concat dir "state";
         "--runners"; "2"; "--domains"; "1"; "--quota"; string_of_int quota;
         "--max-queue"; string_of_int max_queue |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let srv = { pid; socket; dir; workers_seen = [] } in
  (* ready = bound and answering HEALTH with its worker pool *)
  (match Serve.Client.connect ~retries:10_000 ~retry_delay_s:0.001 socket with
  | Error e -> fail "server did not start: %s" e
  | Ok c ->
    (match Serve.Client.request ~timeout_s:30. c Serve.Wire.Health with
    | Ok (Serve.Wire.Health { pool = "workers"; _ }) -> ()
    | Ok _ -> fail "server is not running a worker pool"
    | Error e -> fail "HEALTH: %s" e);
    Serve.Client.close c);
  (srv, now () -. t0)

(* Sample the live workers' peak RSS (they exit after each job). *)
let sample_workers srv =
  List.iter
    (fun p ->
      let kb = vm_hwm_kb (string_of_int p) in
      let prev = Option.value ~default:0 (List.assoc_opt p srv.workers_seen) in
      srv.workers_seen <- (p, max prev kb) :: List.remove_assoc p srv.workers_seen)
    (children srv.pid)

(* A typical worker's peak: the median over the workers sampled. The
   largest one is a matter of which job a 0.1 s sample happened to catch
   (a dr_flag_spin repair can triple a worker's heap), so it would make
   the metric a lottery. *)
let worker_hwm_kb srv =
  match srv.workers_seen with
  | [] -> 0.
  | ws -> median (List.map (fun (_, kb) -> float_of_int kb) ws)

(* DRAIN, reap, and check the server and every worker seen are gone. *)
let stop_server srv =
  let hwm = vm_hwm_kb (string_of_int srv.pid) in
  (match Serve.Client.connect ~retries:100 ~retry_delay_s:0.01 srv.socket with
  | Ok c ->
    ignore (Serve.Client.request ~timeout_s:30. c Serve.Wire.Drain);
    Serve.Client.close c
  | Error e -> prerr_endline ("perfbench: drain: " ^ e));
  let st = wait_exit ~timeout:30. srv.pid in
  List.iter
    (fun p -> if pid_alive p then fail "worker %d survived its server" p)
    (srv.pid :: List.map fst srv.workers_seen);
  (try Unix.unlink srv.socket with Unix.Unix_error _ -> ());
  (match st with
  | Some (Unix.WEXITED 0) -> ()
  | _ -> fail "server %d did not exit cleanly" srv.pid);
  hwm

(* -- the load generator -------------------------------------------------- *)

type job = {
  spec : Inputs.job;
  sched : float;                 (* when it was due, absolute *)
  mutable next_send : float;     (* next (re)send time *)
  mutable sent : float;          (* last send *)
  mutable first_sent : float;
  mutable accepted : float;
  mutable id : int;
  mutable first_case : float;
  mutable done_at : float;
  mutable busy : int;
  mutable reports : (int * string) list;  (* seq, raw report bytes *)
  mutable failed : string option;
  mutable results : string option;  (* durable results file, read after the run *)
}

let new_job sched spec =
  { spec; sched; next_send = sched; sent = nan; first_sent = nan; accepted = nan;
    id = -1; first_case = nan; done_at = nan; busy = 0; reports = [];
    failed = None; results = None }

let finished j = j.failed <> None || not (Float.is_nan j.done_at)

type conn = {
  fd : Unix.file_descr;
  dec : Serve.Wire.decoder;
  out : Buffer.t;
  mutable out_off : int;
  awaiting : job Queue.t;  (* submits sent, ACCEPTED/BUSY not yet read *)
}

let connect srv =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX srv.socket);
  Unix.set_nonblock fd;
  { fd; dec = Serve.Wire.decoder (); out = Buffer.create 4096; out_off = 0;
    awaiting = Queue.create () }

(* The raw report bytes of a CASE frame, exactly as the server sent them:
   the frame renders "report" last, so they run from its marker to the
   frame's closing brace. *)
let report_marker = ",\"report\":"

let raw_report payload =
  let n = String.length payload and m = String.length report_marker in
  let rec matches i k = k = m || (payload.[i + k] = report_marker.[k] && matches i (k + 1)) in
  let rec find i = if i + m > n then None else if matches i 0 then Some (i + m) else find (i + 1) in
  match find 0 with
  | Some start -> String.sub payload start (n - 1 - start)
  | None -> ""

type stats = {
  mutable late : float list;      (* send - due, first sends *)
  mutable in_flight : int;
  mutable in_flight_max : int;
  mutable busy_total : int;
  mutable frames_total : int;
  mutable trace_s : float;        (* time spent recording spans *)
}

let new_stats () =
  { late = []; in_flight = 0; in_flight_max = 0; busy_total = 0; frames_total = 0;
    trace_s = 0. }

(* Drive [jobs] (each bound to connection [conn_of job]) until every one
   has finished or [deadline] passes. *)
let drive ~srv ~conns ~conn_of ~trace ~stats ~deadline (jobs : job list) =
  let by_id = Hashtbl.create 256 in
  let pending = ref (List.sort (fun a b -> compare a.next_send b.next_send) jobs) in
  let buf = Bytes.create 65536 in
  let last_sample = ref 0. in
  let record_spans j =
    let t0 = now () in
    let key = string_of_int j.id in
    let root = Spans.add ~key "serve.job" ~start:j.sched ~stop:j.done_at in
    ignore (Spans.add ~parent:root ~key "loadgen.late" ~start:j.sched ~stop:j.first_sent);
    ignore (Spans.add ~parent:root ~key "serve.accept" ~start:j.sent ~stop:j.accepted);
    ignore (Spans.add ~parent:root ~key "serve.queue_to_first_case" ~start:j.accepted
              ~stop:j.first_case);
    ignore (Spans.add ~parent:root ~key "serve.stream" ~start:j.first_case ~stop:j.done_at);
    stats.trace_s <- stats.trace_s +. (now () -. t0)
  in
  let fail_job j why =
    if not (finished j) then begin
      j.failed <- Some why;
      if not (Float.is_nan j.accepted) then stats.in_flight <- stats.in_flight - 1
    end
  in
  let handle conn payload =
    stats.frames_total <- stats.frames_total + 1;
    match Serve.Wire.parse_response payload with
    | Error e -> fail "bad frame from server: %s" e
    | Ok resp -> (
      let t = now () in
      match resp with
      | Serve.Wire.Accepted { id; _ } ->
        let j = Queue.pop conn.awaiting in
        j.id <- id;
        j.accepted <- t;
        Hashtbl.replace by_id id j;
        stats.in_flight <- stats.in_flight + 1;
        stats.in_flight_max <- max stats.in_flight_max stats.in_flight
      | Serve.Wire.Busy { retry_after_ms; _ } ->
        let j = Queue.pop conn.awaiting in
        j.busy <- j.busy + 1;
        stats.busy_total <- stats.busy_total + 1;
        if j.busy > max_busy then fail_job j "BUSY-exhausted"
        else begin
          j.next_send <- t +. (float_of_int (max 1 retry_after_ms) /. 1000.);
          pending := List.merge (fun a b -> compare a.next_send b.next_send) [ j ] !pending
        end
      | Serve.Wire.Rejected { reason } -> fail_job (Queue.pop conn.awaiting) ("rejected: " ^ reason)
      | Serve.Wire.Case { id; seq; _ } -> (
        match Hashtbl.find_opt by_id id with
        | None -> ()
        | Some j ->
          if Float.is_nan j.first_case then j.first_case <- t;
          if not (List.mem_assoc seq j.reports) then
            j.reports <- (seq, raw_report payload) :: j.reports)
      | Serve.Wire.Done { id; failed; _ } -> (
        match Hashtbl.find_opt by_id id with
        | None -> ()
        | Some j ->
          (match failed with
          | Some m -> fail_job j ("job failed: " ^ m)
          | None ->
            j.done_at <- t;
            stats.in_flight <- stats.in_flight - 1;
            if trace then record_spans j))
      | Serve.Wire.Quarantined_result { id; reason; _ } ->
        Option.iter (fun j -> fail_job j ("quarantined: " ^ reason)) (Hashtbl.find_opt by_id id)
      | Serve.Wire.Error_msg m -> fail "server error: %s" m
      | _ -> ())
  in
  let flush conn =
    let len = Buffer.length conn.out - conn.out_off in
    if len > 0 then
      match Unix.write_substring conn.fd (Buffer.contents conn.out) conn.out_off len with
      | k ->
        conn.out_off <- conn.out_off + k;
        if conn.out_off = Buffer.length conn.out then begin
          Buffer.clear conn.out;
          conn.out_off <- 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let rec loop () =
    let t = now () in
    (* send everything that is due *)
    let rec send_due () =
      match !pending with
      | j :: rest when j.next_send <= t ->
        pending := rest;
        if not (finished j) then begin
          let conn = conn_of j in
          let req =
            Serve.Wire.Submit
              { tenant = j.spec.Inputs.tenant; backend = "rustbrain";
                cases = Some j.spec.Inputs.case_names;
                opts = Some (Inputs.job_opts j.spec) }
          in
          Buffer.add_string conn.out
            (Serve.Wire.encode (Serve.Wire.request_to_string req));
          j.sent <- t;
          if Float.is_nan j.first_sent then begin
            j.first_sent <- t;
            stats.late <- (t -. j.sched) :: stats.late
          end;
          Queue.push j conn.awaiting
        end;
        send_due ()
      | _ -> ()
    in
    send_due ();
    List.iter flush conns;
    if List.for_all finished jobs || t > deadline then ()
    else begin
      if t -. !last_sample > 0.1 then begin
        last_sample := t;
        sample_workers srv
      end;
      let timeout =
        match !pending with
        | j :: _ -> Float.max 0. (Float.min 0.05 (j.next_send -. t))
        | [] -> 0.05
      in
      let writers = List.filter (fun c -> Buffer.length c.out > c.out_off) conns in
      let readable, _, _ =
        try
          Unix.select (List.map (fun c -> c.fd) conns)
            (List.map (fun c -> c.fd) writers) [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun conn ->
          if List.mem conn.fd readable then
            match Unix.read conn.fd buf 0 (Bytes.length buf) with
            | 0 -> fail "server closed the connection"
            | n -> (
              match Serve.Wire.feed conn.dec buf 0 n with
              | Ok frames -> List.iter (handle conn) frames
              | Error e -> fail "framing: %s" e)
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
        conns;
      loop ()
    end
  in
  loop ();
  List.iter (fun j -> if not (finished j) then fail_job j "missing") jobs

(* -- reference ----------------------------------------------------------- *)

(* The untimed serial reference for one job: run_seeded on one domain,
   in-memory, unjournaled, same cases and seed. *)
let reference (spec : Inputs.job) =
  let opts = Inputs.job_opts spec in
  let packed =
    match Exec.Campaign_opts.runner opts ~backend:"rustbrain" with
    | Ok r -> r
    | Error e -> fail "runner: %s" e
  in
  let cases =
    List.map
      (fun n ->
        match Dataset.Corpus.find n with Some c -> c | None -> fail "no case %s" n)
      spec.Inputs.case_names
  in
  fst (Exec.Scheduler.run_seeded ~domains:1 packed ~seeds:opts.Exec.Campaign_opts.seeds cases)

type checked = {
  cases : int;
  passed : int;
  semantic : int;
  rerendered : int;  (* CASE frames whose bytes differ from Report.to_json *)
}

(* Compare a finished job with the reference: the durable results file
   byte for byte, and every streamed CASE report by content (parsed and
   rendered again with Report.to_json, which round-trips render-exactly).
   Streamed frames whose raw bytes differ from Report.to_json are counted
   separately: that is a wire re-rendering, not a different report. *)
let check (j : job) =
  let refs = reference j.spec in
  let expected = List.map Rustbrain.Report.to_json refs in
  let got = List.sort compare j.reports |> List.map snd in
  let canonical raw =
    match Rustbrain.Report.of_json raw with
    | Ok r -> Rustbrain.Report.to_json r
    | Error e -> "unparsable report: " ^ e
  in
  let count f = List.length (List.filter f refs) in
  let same_length = List.length got = List.length expected in
  let why =
    if j.failed <> None then j.failed
    else if not same_length then Some "missing or extra CASE reports"
    else if not (List.for_all2 (fun g e -> canonical g = e) got expected) then
      Some "streamed report differs from the reference"
    else if j.results <> Some (String.concat "" (List.map (fun e -> e ^ "\n") expected))
    then Some "durable results file differs from the reference"
    else None
  in
  j.failed <- why;
  { cases = List.length refs; passed = count (fun r -> r.Rustbrain.Report.passed);
    semantic = count (fun r -> r.Rustbrain.Report.semantic);
    rerendered =
      (if same_length then
         List.length (List.filter (fun (g, e) -> g <> e) (List.combine got expected))
       else 0) }

(* -- runs ----------------------------------------------------------------- *)

type outcome = {
  setup_s : float list;
  jobs : job list;
  rounds : (float * int * int) list;  (* wall, jobs, cases per round *)
  checks : checked list;
  peak_rss_mb : float;
  stats : stats;
  wall : float;
}

let run ~seed ~seconds ~trace ~cli ~work =
  (* set-up servers' directories go only after the timed work *)
  let setups =
    List.init (setup_reps - 1) (fun _ ->
        let srv, s = start_server ~cli ~work in
        ignore (stop_server srv);
        (srv.dir, s))
  in
  let srv, s = start_server ~cli ~work in
  let stats = new_stats () in
  let t_start = now () in
  (* bursts of [burst_jobs], each offered at once when the last one is
     done, until the run's seconds are used; tenant i mod 2 on connection
     i mod 2 *)
  let specs = Array.of_list (Inputs.jobs seed (burst_jobs * 64)) in
  let conns = [| connect srv; connect srv |] in
  let t_end = now () +. seconds in
  let rec bursts b acc_jobs acc_rounds =
    if b >= 2 && (now () >= t_end || b >= 64) then (acc_jobs, List.rev acc_rounds)
    else begin
      let t0 = now () in
      let jobs = List.init burst_jobs (fun i -> new_job t0 specs.((b * burst_jobs) + i)) in
      drive ~srv ~conns:(Array.to_list conns)
        ~conn_of:(fun j -> conns.(j.spec.Inputs.idx mod 2))
        ~trace ~stats ~deadline:(t0 +. 120.) jobs;
      let last = List.fold_left (fun m j -> Float.max m j.done_at) t0 jobs in
      let cases =
        List.fold_left (fun a j -> a + List.length j.spec.Inputs.case_names) 0 jobs
      in
      bursts (b + 1) (acc_jobs @ jobs) ((last -. t0, burst_jobs, cases) :: acc_rounds)
    end
  in
  let jobs, rounds = bursts 0 [] [] in
  Array.iter (fun c -> Unix.close c.fd) conns;
  let wall = now () -. t_start in
  sample_workers srv;
  let server_kb = stop_server srv in
  let peak_rss_mb = (float_of_int server_kb +. worker_hwm_kb srv) /. 1024. in
  let state = Filename.concat srv.dir "state" in
  List.iter
    (fun j ->
      if j.id >= 0 then
        j.results <-
          Rb_util.Fsfile.read
            (Filename.concat state (Printf.sprintf "results/job-%06d.jsonl" j.id)))
    jobs;
  rm_rf srv.dir;
  List.iter (fun (d, _) -> rm_rf d) setups;
  let checks = List.map check jobs in
  { setup_s = s :: List.map snd setups; jobs; rounds; checks; peak_rss_mb; stats; wall }

let attempted o = List.length o.jobs
let failed o = List.length (List.filter (fun j -> j.failed <> None) o.jobs)

let done_jobs o = List.filter (fun j -> j.failed = None) o.jobs

let latencies o f = List.map (fun j -> f j) (done_jobs o)

let end_to_end o =
  let cases = List.fold_left (fun a c -> a + c.cases) 0 o.checks in
  let passed = List.fold_left (fun a c -> a + c.passed) 0 o.checks in
  let semantic = List.fold_left (fun a c -> a + c.semantic) 0 o.checks in
  (* every burst from its first submit to its last DONE *)
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 o.rounds) in
  let wall = sum (List.map (fun (wall, _, _) -> wall) o.rounds) in
  let jobs_per_s = total (fun (_, n, _) -> n) /. wall in
  let cases_per_s = total (fun (_, _, c) -> c) /. wall in
  [ metric "setup_s" "s" (median o.setup_s);
    metric "cases_per_s" "cases/s" cases_per_s;
    metric "pass_rate" "ratio" (ratio passed cases);
    metric "exec_rate" "ratio" (ratio semantic cases);
    metric "job_p50_ms" "ms" (ms (median (latencies o (fun j -> j.done_at -. j.sched))));
    metric "job_p90_ms" "ms" (ms (quantile 0.9 (latencies o (fun j -> j.done_at -. j.sched))));
    metric "first_case_p50_ms" "ms"
      (ms (median (latencies o (fun j -> j.first_case -. j.sched))));
    metric "jobs_per_s" "jobs/s" jobs_per_s;
    metric "peak_rss_mb" "MiB" o.peak_rss_mb ]

let loadgen_counts o =
  let count f = float_of_int (List.length (List.filter f o.jobs)) in
  [ ("loadgen.sent", count (fun j -> not (Float.is_nan j.first_sent)));
    ("loadgen.accepted", count (fun j -> j.id >= 0));
    ("loadgen.busy", float_of_int o.stats.busy_total);
    ("loadgen.done", count (fun j -> j.failed = None));
    ("loadgen.failed", count (fun j -> j.failed <> None));
    ("loadgen.late_p90_ms", ms (quantile 0.9 o.stats.late));
    ("serve.case_frames_rerendered", float_of_int (List.fold_left (fun a c -> a + c.rerendered) 0 o.checks)) ]

(* -- per-layer probes ----------------------------------------------------- *)

let probe_jobs seed = Inputs.jobs seed 8

(* Procpool.spawn -> Hello, through a worker child of this benchmark. *)
let spawn_handshake ~cli =
  List.init 8 (fun i ->
      let t0 = now () in
      match Serve.Procpool.spawn ~argv:[| cli; "__rb_worker" |] () with
      | Error e -> fail "spawn: %s" e
      | Ok w ->
        let buf = Bytes.create 4096 in
        let rec hello () =
          if now () -. t0 > 30. then fail "worker sent no Hello";
          match Unix.select [ w.Serve.Procpool.fd ] [] [] 1.0 with
          | [], _, _ -> hello ()
          | _ -> (
            match Unix.read w.Serve.Procpool.fd buf 0 (Bytes.length buf) with
            | 0 -> fail "worker closed before Hello"
            | n -> (
              match Serve.Wire.feed w.Serve.Procpool.dec buf 0 n with
              | Ok (p :: _) -> (
                match Serve.Procpool.to_server_of_string p with
                | Ok (Serve.Procpool.Hello _) -> ()
                | _ -> fail "worker's first frame is not Hello")
              | Ok [] -> hello ()
              | Error e -> fail "worker framing: %s" e)
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> hello ())
        in
        hello ();
        let t1 = now () in
        ignore (Spans.add ~key:(string_of_int i) "serve.spawn_handshake" ~start:t0 ~stop:t1);
        Unix.close w.Serve.Procpool.fd;
        ignore (wait_exit w.Serve.Procpool.pid);
        if pid_alive w.Serve.Procpool.pid then fail "probe worker survived";
        t1 -. t0)

(* Jobrun.execute in this process, counting into a fresh registry. *)
let jobrun ~work specs =
  let registry = Obs.Metrics.create () in
  let times =
    Obs.Metrics.with_registry registry (fun () ->
        List.map
          (fun (s : Inputs.job) ->
            let dir = fresh_dir work "probe-jobrun" in
            let (r : (Serve.Jobrun.outcome, string) result), t =
              timed (fun () ->
                  Layers.span "serve.jobrun" (string_of_int s.Inputs.idx) (fun () ->
                      Serve.Jobrun.execute ~backend:"rustbrain" ~case_names:s.Inputs.case_names
                        ~opts:(Inputs.job_opts s) ~label:(Printf.sprintf "job-%d" s.Inputs.idx)
                        ~journal_dir:dir ~domains:(Some 1) ~before:ignore
                        ~cancel:(fun () -> false)
                        ~observe:(fun ~seq:_ ~case:_ ~seed:_ ~report_json:_ -> ())
                        ()))
            in
            rm_rf dir;
            (match r with
            | Ok o when o.Serve.Jobrun.job_failed = None -> ()
            | Ok _ -> fail "jobrun probe: job failed"
            | Error e -> fail "jobrun probe: %s" e);
            t)
          specs)
  in
  let counts =
    List.map
      (fun n -> (n, Obs.Metrics.counter_value (Obs.Metrics.counter registry n)))
      Campaign.counter_names
  in
  (times, counts)

(* Store.admit, and Store.write_results + complete, on a scratch store. *)
let store ~work specs =
  let dir = fresh_dir work "probe-store" in
  let st = Serve.Store.open_dir ~dir () in
  let rows =
    List.map
      (fun (s : Inputs.job) ->
        let key = string_of_int s.Inputs.idx in
        let sub, admit =
          timed (fun () ->
              Layers.span "serve.store_admit" key (fun () ->
                  Serve.Store.admit st ~tenant:s.Inputs.tenant ~backend:"rustbrain"
                    ~cases:s.Inputs.case_names ~opts:(Inputs.job_opts s)))
        in
        let reports = reference s in
        let passed = List.length (List.filter (fun r -> r.Rustbrain.Report.passed) reports) in
        let (), complete =
          timed (fun () ->
              Layers.span "serve.store_complete" key (fun () ->
                  Serve.Store.write_results st sub.Serve.Store.id reports;
                  Serve.Store.complete st sub.Serve.Store.id
                    { Serve.Store.cases = List.length reports; passed; failed = None }))
        in
        (admit, complete, reports))
      specs
  in
  rm_rf dir;
  rows

(* Encode, frame-decode and parse every frame a job's client receives. *)
let wire rows =
  let frames =
    List.concat
      (List.mapi
         (fun id (_, _, reports) ->
           (Serve.Wire.Accepted { id; queued = 0 }
            :: List.mapi
                 (fun seq r ->
                   Serve.Wire.Case
                     { id; seq; case = r.Rustbrain.Report.case_name; seed = 1;
                       report_json = Rustbrain.Report.to_json r })
                 reports)
           @ [ Serve.Wire.Done { id; cases = List.length reports; passed = 0; failed = None } ])
         rows)
  in
  let n = List.length frames in
  let reps = 20 in
  let (), t =
    timed (fun () ->
        Layers.span "serve.wire" "frames" (fun () ->
            for _ = 1 to reps do
              let stream =
                String.concat ""
                  (List.map (fun f -> Serve.Wire.encode (Serve.Wire.response_to_string f)) frames)
              in
              let dec = Serve.Wire.decoder () in
              match Serve.Wire.feed dec (Bytes.unsafe_of_string stream) 0 (String.length stream) with
              | Ok payloads ->
                List.iter
                  (fun p ->
                    match Serve.Wire.parse_response p with
                    | Ok _ -> ()
                    | Error e -> fail "wire probe: %s" e)
                  payloads
              | Error e -> fail "wire probe: %s" e
            done))
  in
  us t /. float_of_int (reps * n)

(* The same fixed job slice through a fresh server, one job at a time:
   frames per job and the state directory's files and bytes per case, and
   each job's timings with nothing queued ahead of it. *)
let count_probe ~cli ~work specs =
  let srv, _ = start_server ~cli ~work in
  let stats = new_stats () in
  let conn = connect srv in
  let jobs =
    List.map
      (fun spec ->
        let j = new_job (now ()) spec in
        drive ~srv ~conns:[ conn ] ~conn_of:(fun _ -> conn) ~trace:false ~stats
          ~deadline:(now () +. 60.) [ j ];
        if j.failed <> None then fail "count probe job failed";
        j)
      specs
  in
  Unix.close conn.fd;
  ignore (stop_server srv);
  let files, bytes = disk_usage (Filename.concat srv.dir "state") in
  rm_rf srv.dir;
  let cases = List.fold_left (fun a j -> a + List.length j.spec.Inputs.case_names) 0 jobs in
  ( [ ("frames", stats.frames_total); ("files", files); ("bytes", bytes); ("cases", cases) ],
    jobs )

let layers ~seed ~cli ~work (o : outcome) =
  let specs = probe_jobs seed in
  let spawn = spawn_handshake ~cli in
  let jobrun_times, counts_a = jobrun ~work specs in
  let _, counts_b = jobrun ~work specs in
  let store_rows = store ~work specs in
  let wire_us = wire store_rows in
  let probe_a, alone_a = count_probe ~cli ~work specs in
  let probe_b, alone_b = count_probe ~cli ~work specs in
  let drift =
    List.filter_map
      (fun (k, v) ->
        let v' = List.assoc k (probe_b @ counts_b) in
        if v = v' then None else Some (Printf.sprintf "%s: %d vs %d" k v v'))
      (probe_a @ counts_a)
  in
  (* where an unqueued job's time goes: the probe jobs, sent one at a time *)
  let alone f = ms (median (List.map f (alone_a @ alone_b))) in
  let job_alone = alone (fun j -> j.done_at -. j.sched) in
  let accept = alone (fun j -> j.accepted -. j.sent) in
  let spawn_ms = ms (median spawn) in
  let jobrun_ms = ms (median jobrun_times) in
  let admit_ms = ms (median (List.map (fun (a, _, _) -> a) store_rows)) in
  let complete_ms = ms (median (List.map (fun (_, c, _) -> c) store_rows)) in
  let per_case k = ratio (List.assoc k probe_a) (List.assoc "cases" probe_a) in
  let cases = float_of_int (List.assoc "cases" probe_a) in
  let count n = float_of_int (List.assoc n counts_a) in
  let rows =
    [ ("serve.job_alone_ms", job_alone);
      ("serve.accept_ms", accept);
      ("serve.queue_to_first_case_ms", alone (fun j -> j.first_case -. j.accepted));
      ("serve.spawn_handshake_ms", spawn_ms);
      ("serve.jobrun_ms", jobrun_ms);
      ("serve.store_admit_ms", admit_ms);
      ("serve.store_complete_ms", complete_ms);
      ("serve.wire_us_per_frame", wire_us);
      ("serve.frames_per_job", ratio (List.assoc "frames" probe_a) (List.length specs));
      ("serve.unattributed_ms", job_alone -. (accept +. spawn_ms +. jobrun_ms +. complete_ms));
      ("serve.busy_responses", float_of_int o.stats.busy_total);
      ("serve.jobs_in_flight_max", float_of_int o.stats.in_flight_max);
      ("exec.bytes_written_per_case", per_case "bytes");
      ("exec.files_per_case", per_case "files");
      ("miri.runs_per_case", count "interp.runs" /. cases);
      ("llm_sim.calls_per_case", count "llm.calls" /. cases);
      ("llm_sim.tokens_per_case", count "llm.tokens" /. cases);
      ("obs.trace_overhead_pct", 100. *. o.stats.trace_s /. o.wall) ]
    @ List.map (fun (n, v) -> (n, float_of_int v)) counts_a
  in
  (rows, drift)
