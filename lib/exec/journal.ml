exception Killed

type manifest = {
  version : int;
  fingerprint : string;
  jobs : string list;
  cases : string list;
}

type record = {
  job : string;
  backend : string;
  seed : int;
  case : string;
  cache_hits : int;
  cache_misses : int;
  report : Rustbrain.Report.t;
}

let version = 2

(* -- layout ------------------------------------------------------------ *)

let log_path dir = Filename.concat dir "journal.log"

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let list_dir dir =
  match Sys.readdir dir with
  | files -> Array.to_list files
  | exception Sys_error _ -> []

(* Format 1 kept the manifest, one [rec-%06d.json] per record and one
   [snap-%03d.bin] per job as separate files. *)
let format_1_file f =
  f = "MANIFEST.json" || starts_with "rec-" f || starts_with "snap-" f

let format_1 ~dir =
  (not (Sys.file_exists (log_path dir)))
  && List.exists
       (fun f -> f = "MANIFEST.json" || starts_with "rec-" f)
       (list_dir dir)

let format_1_error dir =
  Printf.sprintf
    "journal %s is journal format 1 (one file per record), which this build \
     cannot read; pass --fresh to discard it"
    dir

let exists ~dir = Sys.file_exists (log_path dir) || format_1 ~dir

(* -- manifest ---------------------------------------------------------- *)

let render_manifest m =
  Rb_util.Json.(
    to_string
      (Obj
         [ ("version", Num (float_of_int m.version));
           ("fingerprint", Str m.fingerprint);
           ("jobs", List (List.map (fun s -> Str s) m.jobs));
           ("cases", List (List.map (fun s -> Str s) m.cases)) ]))

let parse_manifest s =
  match Rb_util.Json.parse s with
  | Error e -> Error e
  | Ok j ->
    let open Rb_util.Json in
    let strings k =
      match Option.bind (member k j) to_list with
      | None -> None
      | Some xs ->
        List.fold_right
          (fun x acc ->
            match (to_str x, acc) with
            | Some s, Some a -> Some (s :: a)
            | _ -> None)
          xs (Some [])
    in
    (match
       ( Option.bind (member "version" j) to_int,
         Option.bind (member "fingerprint" j) to_str,
         strings "jobs",
         strings "cases" )
     with
    | Some v, _, _, _ when v <> version ->
      Error (Printf.sprintf "unsupported journal version %d" v)
    | Some v, Some fingerprint, Some jobs, Some cases ->
      Ok { version = v; fingerprint; jobs; cases }
    | _ -> Error "missing manifest field")

(* -- records ----------------------------------------------------------- *)

(* The report is spliced in verbatim from [Report.to_json]. *)
let render_record (r : record) =
  Printf.sprintf
    {|{"job":%s,"backend":%s,"seed":%d,"case":%s,"cache_hits":%d,"cache_misses":%d,"report":%s}|}
    (Rb_util.Json.escape r.job)
    (Rb_util.Json.escape r.backend)
    r.seed
    (Rb_util.Json.escape r.case)
    r.cache_hits r.cache_misses
    (Rustbrain.Report.to_json r.report)

let parse_record s =
  match Rb_util.Json.parse s with
  | Error e -> Error e
  | Ok j ->
    let open Rb_util.Json in
    let str k = Option.bind (member k j) to_str in
    let int k = Option.bind (member k j) to_int in
    (match
       ( str "job", str "backend", int "seed", str "case", int "cache_hits",
         int "cache_misses", member "report" j )
     with
    | ( Some job, Some backend, Some seed, Some case, Some cache_hits,
        Some cache_misses, Some rep ) -> (
      match Rustbrain.Report.of_json (to_string rep) with
      | Ok report ->
        Ok { job; backend; seed; case; cache_hits; cache_misses; report }
      | Error e -> Error e)
    | _ -> Error "missing record field")

(* -- frames ------------------------------------------------------------ *)

(* One frame: magic, body digest, snapshot digest, kind, per-job count,
   body length, snapshot length, then the body and the snapshot bytes.
   The body digest covers everything from the kind byte to the end of the
   body, so a flipped length or kind fails it as surely as a flipped body
   byte. The snapshot has its own digest: rot inside a snapshot costs that
   job a recompute, never the record beside it. Kinds: the manifest (the
   first frame), a record with its job's session snapshot, and a record
   alone (what compaction leaves of a job's older appends). *)
let magic = "RBJ2"
let header_len = 49
let kind_manifest = 'M'
let kind_snapshot = 'A'
let kind_record = 'R'

let render_frame ~kind ~count body snapshot =
  let bl = String.length body and sl = String.length snapshot in
  let b = Bytes.create (header_len + bl + sl) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 36 kind;
  Bytes.set_int32_be b 37 (Int32.of_int count);
  Bytes.set_int32_be b 41 (Int32.of_int bl);
  Bytes.set_int32_be b 45 (Int32.of_int sl);
  Bytes.blit_string body 0 b header_len bl;
  Bytes.blit_string snapshot 0 b (header_len + bl) sl;
  Bytes.blit_string (Digest.subbytes b 36 (13 + bl)) 0 b 4 16;
  Bytes.blit_string (Digest.subbytes b (header_len + bl) sl) 0 b 20 16;
  b

type frame = {
  at : int;  (* offset of the frame in the log *)
  kind : char;
  count : int;
  body : string;
  snapshot : string option;  (* [None]: no snapshot, or a rotted one *)
}

let int_at s pos = Int32.to_int (String.get_int32_be s pos)

(* Body and snapshot lengths of the frame at [pos], when its header is
   whole and the frame fits in [s]. *)
let extent s pos =
  if String.length s - pos < header_len || String.sub s pos 4 <> magic then None
  else
    let bl = int_at s (pos + 41) and sl = int_at s (pos + 45) in
    if bl < 0 || sl < 0 || header_len + bl + sl > String.length s - pos then None
    else Some (bl, sl)

(* Frames after the valid prefix: each walkable header counts one; the
   first unwalkable byte run counts one more and ends the walk. *)
let rec tail_frames s pos =
  if pos >= String.length s then 0
  else
    match extent s pos with
    | Some (bl, sl) -> 1 + tail_frames s (pos + header_len + bl + sl)
    | None -> 1

let same_digest s pos ~digest_at ~off ~len =
  String.sub s (pos + digest_at) 16 = Digest.substring s (pos + off) len

(* The longest prefix of whole frames whose bodies verify, and the offset
   where it ends. Without [snapshots], snapshot bytes are neither
   digested nor copied. *)
let scan ~snapshots s =
  let rec go pos acc =
    match extent s pos with
    | Some (bl, sl)
      when same_digest s pos ~digest_at:4 ~off:36 ~len:(13 + bl) ->
      let kind = s.[pos + 36] in
      let snapshot =
        if
          snapshots && kind = kind_snapshot
          && same_digest s pos ~digest_at:20 ~off:(header_len + bl) ~len:sl
        then Some (String.sub s (pos + header_len + bl) sl)
        else None
      in
      let frame =
        { at = pos; kind; count = int_at s (pos + 37);
          body = String.sub s (pos + header_len) bl; snapshot }
      in
      go (pos + header_len + bl + sl) (frame :: acc)
    | _ -> (List.rev acc, pos)
  in
  go 0 []

(* -- loading ----------------------------------------------------------- *)

type loaded = {
  manifest : manifest;
  records : record list;
  snapshots : (string * (int * string)) list;
  dropped : int;
}

(* Everything a writer needs besides [loaded]: where the valid prefix
   ends, and the frames in it after the manifest. *)
type log = {
  loaded : loaded;
  valid_end : int;
  entries : (record * frame) list;
  file : string;
}

let read_log ?(snapshots = true) ~dir () =
  if format_1 ~dir then Error (format_1_error dir)
  else
    match Rb_util.Fsfile.read (log_path dir) with
    | None -> Error (Printf.sprintf "journal: no log in %s" dir)
    | Some s -> (
      match scan ~snapshots s with
      | first :: frames, end_ when first.kind = kind_manifest -> (
        match parse_manifest first.body with
        | Error e -> Error ("journal: bad manifest: " ^ e)
        | Ok manifest ->
          (* a frame that verifies but does not parse as a record (a
             second manifest, a foreign writer) ends the prefix too *)
          let rec take acc = function
            | [] -> (List.rev acc, end_)
            | f :: rest -> (
              match parse_record f.body with
              | Ok r when f.kind <> kind_manifest -> take ((r, f) :: acc) rest
              | Ok _ | Error _ -> (List.rev acc, f.at))
          in
          let entries, valid_end = take [] frames in
          let latest = Hashtbl.create 8 in
          List.iter
            (fun (r, f) -> Hashtbl.replace latest r.job (f.count, f.snapshot))
            entries;
          let snapshots =
            List.filter_map
              (fun label ->
                match Hashtbl.find_opt latest label with
                | Some (count, Some bytes) -> Some (label, (count, bytes))
                | _ -> None)
              manifest.jobs
          in
          Ok
            { loaded =
                { manifest; records = List.map fst entries; snapshots;
                  dropped = tail_frames s valid_end };
              valid_end; entries; file = s })
      | _ -> Error (Printf.sprintf "journal: unreadable manifest in %s" dir))

let manifest_end l =
  match l.entries with (_, f) :: _ -> f.at | [] -> l.valid_end

let load ~dir = Result.map (fun l -> l.loaded) (read_log ~dir ())

let records ~dir =
  Result.map
    (fun l -> (l.loaded.records, l.loaded.dropped))
    (read_log ~snapshots:false ~dir ())

let wipe ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Rb_util.Fsfile.remove_if_exists (log_path dir);
    List.iter
      (fun f ->
        if format_1_file f then
          Rb_util.Fsfile.remove_if_exists (Filename.concat dir f))
      (list_dir dir)
  end

(* -- writer ------------------------------------------------------------ *)

type t = {
  dir : string;
  manifest : manifest;
  counts : (string, int) Hashtbl.t;  (* job label -> records journaled *)
  mutex : Mutex.t;
  mutable size : int;        (* bytes in the log *)
  mutable live : int;        (* manifest and record bytes, no snapshots *)
  snap_bytes : (string, int) Hashtbl.t;
      (* job label -> size of its latest snapshot, the only live one *)
  mutable kill_budget : int option;
  mutable dead : bool;
}

let fsyncs n = Obs.Metrics.inc ~by:n "journal.fsyncs"

(* Dead snapshot bytes may grow the log to twice its live content plus
   this much before it is rewritten without them. *)
let compact_slack = 1 lsl 20

let live_bytes t = Hashtbl.fold (fun _ n acc -> acc + n) t.snap_bytes t.live

let write_log dir contents =
  Rb_util.Fsfile.write_atomic (log_path dir) contents;
  (* the file and its directory entry *)
  fsyncs 2;
  Obs.Metrics.inc "journal.renames"

let writer ~dir manifest ~size ~live =
  { dir; manifest; counts = Hashtbl.create 8; mutex = Mutex.create (); size;
    live; snap_bytes = Hashtbl.create 8;
    kill_budget = None; dead = false }

let note_append t ~job ~count ~body ~snapshot =
  Hashtbl.replace t.counts job count;
  t.live <- t.live + header_len + body;
  Hashtbl.replace t.snap_bytes job snapshot

let create ~dir manifest =
  Rb_util.Fsfile.mkdir_p dir;
  wipe ~dir;
  let frame =
    Bytes.unsafe_to_string
      (render_frame ~kind:kind_manifest ~count:0 (render_manifest manifest) "")
  in
  write_log dir frame;
  let n = String.length frame in
  writer ~dir manifest ~size:n ~live:n

(* Cut the log back to [keep] bytes, durably. *)
let truncate_log dir keep =
  let fd = Unix.openfile (log_path dir) [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd keep;
      Unix.fsync fd;
      fsyncs 1)

let cut_tail ~dir =
  match read_log ~snapshots:false ~dir () with
  | Ok l when l.valid_end < String.length l.file ->
    truncate_log dir l.valid_end;
    Some (String.sub l.file l.valid_end (String.length l.file - l.valid_end))
  | Ok _ | Error _ -> None

let attach ~dir =
  match read_log ~dir () with
  | Error _ as e -> e
  | Ok l ->
    (* drop the torn tail so fresh appends start on a frame boundary *)
    if l.valid_end < String.length l.file then truncate_log dir l.valid_end;
    let t =
      writer ~dir l.loaded.manifest ~size:l.valid_end ~live:(manifest_end l)
    in
    List.iter
      (fun ((r : record), f) ->
        note_append t ~job:r.job ~count:f.count ~body:(String.length f.body)
          ~snapshot:(Option.fold ~none:0 ~some:String.length f.snapshot))
      l.entries;
    Ok t

let manifest_of t = t.manifest

let kill_after t n =
  Mutex.protect t.mutex (fun () -> t.kill_budget <- Some n)

(* One append and one fsync: no file create, no rename, no directory
   fsync. A crash mid-write leaves a torn last frame, which [load] drops
   and [attach] truncates. *)
let append_frame dir frame =
  let fd =
    Unix.openfile (log_path dir) [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = Bytes.length frame in
      let rec go off =
        if off < n then
          go
            (off
            + Rb_util.Retry.on_eintr (fun () ->
                  Unix.write fd frame off (n - off)))
      in
      go 0;
      Unix.fsync fd;
      fsyncs 1)

(* Rewrite the log with only each job's latest snapshot; the records
   themselves all stay. *)
let compact t =
  match read_log ~dir:t.dir () with
  | Error _ -> ()
  | Ok l ->
    let last = Hashtbl.create 8 in
    List.iteri (fun i ((r : record), _) -> Hashtbl.replace last r.job i) l.entries;
    let buf = Buffer.create (live_bytes t) in
    Buffer.add_string buf (String.sub l.file 0 (manifest_end l));
    List.iteri
      (fun i ((r : record), f) ->
        let frame =
          match f.snapshot with
          | Some snap when Hashtbl.find last r.job = i ->
            String.sub l.file f.at
              (header_len + String.length f.body + String.length snap)
          | _ ->
            Bytes.unsafe_to_string
              (render_frame ~kind:kind_record ~count:f.count f.body "")
        in
        Buffer.add_string buf frame)
      l.entries;
    write_log t.dir (Buffer.contents buf);
    t.size <- Buffer.length buf;
    Obs.Metrics.inc "journal.compactions"

let append t record ~snapshot =
  Mutex.protect t.mutex (fun () ->
      if t.dead then raise Killed;
      (match t.kill_budget with
      | Some 0 ->
        t.dead <- true;
        raise Killed
      | Some n -> t.kill_budget <- Some (n - 1)
      | None -> ());
      let count =
        1 + Option.value ~default:0 (Hashtbl.find_opt t.counts record.job)
      in
      let body = render_record record in
      let frame = render_frame ~kind:kind_snapshot ~count body snapshot in
      append_frame t.dir frame;
      t.size <- t.size + Bytes.length frame;
      note_append t ~job:record.job ~count ~body:(String.length body)
        ~snapshot:(String.length snapshot);
      (* [count] is per-job, so the attrs are the same whatever order the
         domains interleaved their appends *)
      Obs.Metrics.inc "journal.appends";
      Obs.Trace.note "journal-append" (fun () ->
          [ ("job", Obs.Trace.S record.job);
            ("case", Obs.Trace.S record.case);
            ("count", Obs.Trace.I count) ]);
      Obs.Metrics.inc "journal.snapshots";
      Obs.Trace.note "journal-snapshot" (fun () ->
          [ ("job", Obs.Trace.S record.job);
            ("count", Obs.Trace.I count) ]);
      if t.size > (2 * live_bytes t) + compact_slack then compact t)
