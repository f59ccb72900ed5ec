(* Small helpers shared by the workloads: clocks, order statistics, files,
   processes and the result line. *)

let now () = Unix.gettimeofday ()

let ms s = s *. 1000.
let us s = s *. 1e6

(* Time one call. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* -- order statistics --------------------------------------------------- *)

(* Linear interpolation between closest ranks (numpy's default), so p50 of
   an even-length sample is the mean of the two middle values. *)
let quantile q = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

let mean = function [] -> nan | xs -> sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* -- files -------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Regular files under [path] and their total size in bytes. *)
let rec disk_usage path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> (0, 0)
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun (f, b) e ->
        let f', b' = disk_usage (Filename.concat path e) in
        (f + f', b + b'))
      (0, 0) (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (1, st_size)
  | _ -> (0, 0)

(* A fresh, empty directory under [root]. *)
let fresh_dir =
  let n = ref 0 in
  fun root tag ->
    incr n;
    let d =
      (* fixed width: a path recorded on disk must not change the bytes
         written as the counter gains digits *)
      Filename.concat root (Printf.sprintf "%s-%07d-%06d" tag (Unix.getpid ()) !n)
    in
    rm_rf d;
    mkdir_p d;
    d

(* -- processes ---------------------------------------------------------- *)

(* VmHWM (peak resident set) of a live process, in KiB; 0 when gone. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let v = try scan () with _ -> 0 in
    close_in_noerr ic;
    v

let self_hwm_mb () = float_of_int (vm_hwm_kb "self") /. 1024.

(* Direct children of [pid] (from /proc/<pid>/task/<pid>/children). *)
let children pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in_noerr ic;
    String.split_on_char ' ' line
    |> List.filter_map (fun s -> int_of_string_opt (String.trim s))

(* [kill -0]: false only on ESRCH. *)
let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* Reap [pid], waiting at most [timeout] seconds; SIGKILL it past that.
   Returns the exit status when it ended by itself. *)
let wait_exit ?(timeout = 20.) pid =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        None
      end
      else begin
        Unix.sleepf 0.005;
        go ()
      end
    | _, st -> Some st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
  in
  go ()

let fail fmt = Printf.ksprintf (fun m -> raise (Failure m)) fmt

(* -- result line -------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* All digits of a measured float; integers stay integers. *)
let num_to_string v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Rb_util.Json.escape m.name)
          (num_to_string m.value) (Rb_util.Json.escape m.unit))
      metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed (String.concat "," ms)

(* A child process of this binary talking line-JSON on its stdin/stdout. *)
type child = { pid : int; to_child : out_channel; from_child : in_channel }

let spawn_self args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_child = Unix.out_channel_of_descr in_w;
    from_child = Unix.in_channel_of_descr out_r }

let send_line c s =
  output_string c.to_child (s ^ "\n");
  flush c.to_child

(* Close both ends, reap the child and check it is gone (kill -0 -> ESRCH). *)
let finish_child c =
  close_out_noerr c.to_child;
  close_in_noerr c.from_child;
  let st = wait_exit c.pid in
  if pid_alive c.pid then fail "child %d survived" c.pid;
  match st with
  | Some (Unix.WEXITED 0) -> ()
  | _ -> fail "child %d did not exit cleanly" c.pid
