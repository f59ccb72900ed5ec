module Json = Rb_util.Json

type entry = {
  category : Miri.Diag.ub_kind;
  advice : string;
  recommended : Repairs.Rule.fix_kind;
}

type persist = { dir : string; readonly : bool }

(* Marshal-safety invariant: sessions snapshot their whole state with
   [Marshal], so [t] may hold only plain data — the persistent store is
   referenced by directory name and its writer (lock fd, tail fd) lives in
   the process-global registry below, resolved on every learn. *)
type t = {
  store : entry Store.t;   (* the query snapshot, frozen at open *)
  clock : Rb_util.Simclock.t;
  query_cost : float;
  persist : persist option;
  q_base : int;            (* quarantined before the snapshot: load-time *)
}

let create ?(query_cost = 3.0) ~clock () =
  { store = Store.create (); clock; query_cost; persist = None; q_base = 0 }

let size t = Store.size t.store
let quarantined t = t.q_base + Store.quarantined t.store
let persistent_dir t = Option.map (fun p -> p.dir) t.persist

(* -- entry codec -------------------------------------------------------- *)

let all_fix_kinds = [ Repairs.Rule.Replace; Repairs.Rule.Assert; Repairs.Rule.Modify ]

let entry_to_json e =
  Json.Obj
    [ ("cat", Json.Str (Miri.Diag.kind_name e.category));
      ("advice", Json.Str e.advice);
      ("fix", Json.Str (Repairs.Rule.fix_kind_name e.recommended)) ]

let entry_of_json j =
  match
    ( Option.bind (Json.member "cat" j) Json.to_str,
      Option.bind (Json.member "advice" j) Json.to_str,
      Option.bind (Json.member "fix" j) Json.to_str )
  with
  | Some cat, Some advice, Some fix -> (
    match
      ( List.find_opt (fun k -> Miri.Diag.kind_name k = cat) Miri.Diag.all_kinds,
        List.find_opt (fun k -> Repairs.Rule.fix_kind_name k = fix) all_fix_kinds )
    with
    | Some category, Some recommended -> Some { category; advice; recommended }
    | _ -> None)
  | _ -> None

(* -- seeding ------------------------------------------------------------ *)

(* Build a representative sketch vector for a category from a tiny canonical
   program exhibiting it; the one-hot category block dominates matching, the
   hashed block adds structure sensitivity. *)
let seed_vec category =
  let sk = { Prune.kept_stmts = []; kept_fns = []; dropped = 0 } in
  Featvec.of_sketch sk (Some category)

let default_entries =
  [ (Miri.Diag.Stack_borrow,
     "a reference created after the raw pointer invalidated its tag; re-derive the \
      pointer or access the place directly", Repairs.Rule.Replace);
    (Miri.Diag.Unaligned_pointer,
     "the pointer's address is not a multiple of the access alignment; round the \
      offset or raise the allocation's alignment", Repairs.Rule.Modify);
    (Miri.Diag.Validity,
     "an invalid value was produced (uninitialized read or bad bool); initialize \
      the memory or derive the value with a comparison", Repairs.Rule.Modify);
    (Miri.Diag.Alloc,
     "allocation misuse: free exactly once, with the allocated layout, and free \
      everything before exit", Repairs.Rule.Modify);
    (Miri.Diag.Func_pointer,
     "the fn pointer's claimed signature disagrees with the callee; fix the \
      transmute target or call the item directly", Repairs.Rule.Modify);
    (Miri.Diag.Provenance,
     "an integer-derived pointer has no provenance; derive it from the original \
      place or expose the address first", Repairs.Rule.Replace);
    (Miri.Diag.Panic_bug,
     "a reachable panic: guard the failing operation or repair the arithmetic", Repairs.Rule.Modify);
    (Miri.Diag.Func_call,
     "the callee is not a function; route the call through the intended item", Repairs.Rule.Modify);
    (Miri.Diag.Dangling_pointer,
     "the pointee is dead or out of bounds; use checked indexing or extend the \
      pointee's lifetime", Repairs.Rule.Replace);
    (Miri.Diag.Both_borrow,
     "a shared reference was used after a conflicting mutable borrow; reorder the \
      uses or drop one borrow", Repairs.Rule.Modify);
    (Miri.Diag.Concurrency,
     "a thread was leaked or joined twice; join every spawned handle exactly once", Repairs.Rule.Modify);
    (Miri.Diag.Data_race,
     "unsynchronized conflicting accesses; join before accessing or make the \
      accesses atomic", Repairs.Rule.Replace) ]

(* -- persistent store registry ------------------------------------------ *)

(* One writer per directory per process. lockf record locks are per-process
   (a second fd in the same process would silently "win"), so in-process
   dedupe here plus the on-disk lock for cross-process exclusion together
   give true single-writer semantics. Writers live until process exit; the
   tail log is fsynced per append, so there is nothing to flush.

   The snapshot is frozen once per (process, directory) — NOT re-read per
   open. Every session a process opens on the same store retrieves from
   identical content, whatever has been learned meanwhile, which is what
   makes campaigns independent of session-creation order: sequential and
   domain-parallel schedules, and multi-seed sweeps, see the same KB and
   produce byte-identical reports. New content is visible to the next
   process (the next CLI invocation, the next worker). *)
type shared = {
  sh_writer : Segment.writer option;  (* None = read-only open *)
  sh_records : Segment.record list;   (* the frozen snapshot *)
  sh_quarantined : int;               (* load-time skips (read-only path) *)
}

let registry : (string, shared) Hashtbl.t = Hashtbl.create 7
let registry_mu = Mutex.create ()

let expect_stamp = (Featvec.dim, Featvec.version)

let with_registry f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

(* Assumes [registry_mu] is held: every writer touch — open, seed, append,
   snapshot — happens under the one mutex, because Segment writers are not
   themselves thread-safe and a domain-parallel campaign runs several
   sessions against the same store. A read-only entry is upgraded in place
   (a writer is attached) when a writable open or a learn needs one; its
   frozen snapshot is never replaced. *)
let locked_shared ~want_writer dir =
  let current = Hashtbl.find_opt registry dir in
  match current with
  | Some sh when (not want_writer) || Option.is_some sh.sh_writer -> Ok sh
  | _ ->
    if want_writer then (
      match Segment.open_writer ~expect:expect_stamp ~dir () with
      | Error e -> Error e
      | Ok (w, _report) ->
        if Segment.records w = [] then
          List.iter
            (fun (category, advice, recommended) ->
              let e = { category; advice; recommended } in
              match
                Segment.append w ~vec:(seed_vec category)
                  ~payload:(entry_to_json e)
              with
              | Ok _ -> ()
              | Error msg -> failwith ("Kb: seeding failed: " ^ msg))
            default_entries;
        let sh =
          match current with
          | Some sh -> { sh with sh_writer = Some w }
          | None ->
            { sh_writer = Some w; sh_records = Segment.records w;
              sh_quarantined = 0 }
        in
        Hashtbl.replace registry dir sh;
        Ok sh)
    else (
      match Segment.load ~expect:expect_stamp dir with
      | Error e -> Error e
      | Ok r ->
        let sh =
          { sh_writer = None;
            sh_records = r.records;
            sh_quarantined = r.mismatched + r.corrupt_segments }
        in
        Hashtbl.replace registry dir sh;
        Ok sh)

let append_dir dir vec payload =
  with_registry (fun () ->
      match locked_shared ~want_writer:true dir with
      | Error _ -> ()  (* the store went unwritable mid-session: drop *)
      | Ok { sh_writer = Some w; _ } -> ignore (Segment.append w ~vec ~payload)
      | Ok { sh_writer = None; _ } -> ())

(* -- construction ------------------------------------------------------- *)

let learn t vec entry =
  match t.persist with
  | None -> Store.add t.store vec entry
  | Some { readonly = true; _ } -> ()  (* frozen and unwritable: drop *)
  | Some { dir; _ } ->
    (* durably appended for future sessions; the open snapshot stays
       frozen so seeded campaigns remain deterministic *)
    append_dir dir vec (entry_to_json entry)

let seed_default t =
  match t.persist with
  | Some _ -> ()  (* persistent stores are seeded once, at creation *)
  | None ->
    List.iter
      (fun (category, advice, recommended) ->
        learn t (seed_vec category) { category; advice; recommended })
      default_entries

let snapshot_of_records records =
  let store = Store.create ~dim:Featvec.dim () in
  let undecodable = ref 0 in
  List.iter
    (fun (r : Segment.record) ->
      match entry_of_json r.Segment.payload with
      | Some e -> Store.add store r.Segment.vec e
      | None -> incr undecodable)
    records;
  (store, !undecodable)

let open_dir ?(query_cost = 3.0) ?(readonly = false) ~dir ~clock () =
  match
    with_registry (fun () -> locked_shared ~want_writer:(not readonly) dir)
  with
  | Error e -> Error e
  | Ok sh ->
    let store, undecodable = snapshot_of_records sh.sh_records in
    Ok
      { store; clock; query_cost;
        persist = Some { dir; readonly };
        q_base = sh.sh_quarantined + undecodable }

(* -- retrieval ---------------------------------------------------------- *)

let max_hits = 8
let hit_threshold = 0.35

let query t vec =
  let hits =
    Store.query_ids t.store vec ~k:max_hits
    |> List.filter (fun (s, _, _) -> s > hit_threshold)
    |> List.map (fun (s, _, e) -> (s, e))
  in
  (* size-dependent lookup cost: the paper reports KB overhead growing with
     the knowledge base. Charged per row actually scored, so the bucketed
     index on a large store buys back most of the historical full-scan
     cost (and on a small exact scan this is precisely the old
     query_cost + 0.05 * size). *)
  Rb_util.Simclock.charge t.clock
    (t.query_cost +. (0.05 *. float_of_int (Store.scanned_last t.store)));
  hits

let hints_text hits =
  String.concat "\n"
    (List.map
       (fun (score, e) ->
         Printf.sprintf "- [%s, sim %.2f] %s (recommended: %s)"
           (Miri.Diag.kind_name e.category) score e.advice
           (Repairs.Rule.fix_kind_name e.recommended))
       hits)

(* Canonical order: fix_kind declaration order, hit contributions summed in
   hit order (best first), zero-contribution classes dropped — the old
   remove_assoc + cons rebuild surfaced keys by last-touched, leaking
   retrieval order into downstream rule choice. *)
let kind_bias hits =
  List.filter_map
    (fun kind ->
      if not (List.exists (fun (_, e) -> e.recommended = kind) hits) then None
      else
        Some
          ( Repairs.Rule.fix_kind_name kind,
            List.fold_left
              (fun acc (score, e) ->
                if e.recommended = kind then acc +. (0.08 *. score) else acc)
              0.0 hits ))
    all_fix_kinds
