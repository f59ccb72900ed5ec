(* The traced run's span recorder. Spans are taken from the benchmark's own
   files around calls into each layer, kept in memory (one buffer per
   domain, so recording never takes a lock) and written out once, when the
   benchmark ends. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  key : string;  (* the request or case the span belongs to *)
  start : float; (* seconds since the epoch *)
  stop : float;
}

let next_id = Atomic.make 1

let buffers : span list ref list Atomic.t = Atomic.make []

let local : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      let rec register () =
        let cur = Atomic.get buffers in
        if not (Atomic.compare_and_set buffers cur (b :: cur)) then register ()
      in
      register ();
      b)

let fresh_id () = Atomic.fetch_and_add next_id 1

let add ?(parent = 0) ?id ~key name ~start ~stop =
  let id = match id with Some i -> i | None -> fresh_id () in
  let b = Domain.DLS.get local in
  b := { id; parent; name; key; start; stop } :: !b;
  id

(* Run [f] inside a span. *)
let around ?parent ~key name f =
  let id = fresh_id () in
  let start = Util.now () in
  let r = f () in
  ignore (add ?parent ~id ~key name ~start ~stop:(Util.now ()));
  r

let all () =
  List.concat_map (fun b -> !b) (Atomic.get buffers)
  |> List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id))

(* Self time: a span's duration minus the part of its interval that the
   union of its children's intervals covers. *)
let self_times spans =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) ivs
      in
      (s, s.stop -. s.start -. covered))
    spans

let write path =
  let spans = all () in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  Rb_util.Fsfile.write_channel path (fun oc ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%s,\"key\":%s,\"start_ms\":%.3f,\"end_ms\":%.3f,\"self_ms\":%.3f}\n"
            s.id s.parent (Rb_util.Json.escape s.name) (Rb_util.Json.escape s.key)
            (Util.ms (s.start -. t0)) (Util.ms (s.stop -. t0)) (Util.ms self))
        (self_times spans))
