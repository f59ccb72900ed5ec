(* Shared runtime substrate of the two execution engines.

   Everything that defines the *semantics* of a MiniRust run — machine
   state, diagnostics, typed memory access, integer arithmetic, the
   value-level operation cores, cooperative threading and the scheduler —
   lives here and is shared verbatim between the tree-walking evaluator
   (Machine) and the bytecode VM (Vm). The two engines only differ in how
   they *drive* these cores, which is what keeps their diagnostics
   byte-identical by construction. *)

open Minirust

type mode = Stop_first | Collect of int

(* Which execution engine interprets the program. [Bytecode] lowers the
   typechecked AST to a flat pre-resolved instruction array (Compile/Vm);
   [Tree_walk] is the original AST evaluator, kept as a differential-testing
   escape hatch. *)
type engine = Bytecode | Tree_walk

type config = {
  mode : mode;
  seed : int;
  max_steps : int;
  inputs : int64 array;
  trace : bool;  (* record allocation/retag/invalidation events *)
  max_allocs : int;       (* allocation-count fuel *)
  max_alloc_bytes : int;  (* cumulative allocated-byte fuel *)
  engine : engine;
}

let default_config =
  { mode = Stop_first; seed = 1; max_steps = 200_000; inputs = [||]; trace = false;
    (* generous enough that no legitimate corpus program comes near them;
       they exist to turn an allocation bomb into a diagnosis *)
    max_allocs = 4_000_000; max_alloc_bytes = 64 * 1024 * 1024;
    engine = Bytecode }

type outcome =
  | Finished
  | Panicked of string
  | Ub of Diag.t
  | Step_limit
  | Resource_limit of string  (* allocation fuel exhausted: diagnosed, not hung *)

type run_result = {
  outcome : outcome;
  output : string list;
  diags : Diag.t list;
  steps : int;
  error_count : int;
  events : string list;  (* chronological trace, empty unless [config.trace] *)
}

(* ------------------------------------------------------------------ *)
(* Machine state *)

type thread_status =
  | T_runnable
  | T_blocked_on of int
  | T_done
  | T_joined

type thread = { tid : int; mutable clock : Vclock.t; mutable status : thread_status }

(* A suspended thread the scheduler can resume. *)
type pending = { p_tid : int; run : unit -> unit }

(* Growable queue of pendings kept in enqueue order: [pq_push] appends,
   [pq_take q i] removes the [i]th oldest and closes the gap. The seeded
   pick is an index into that order, so the order is part of the
   schedule. *)
type pqueue = { mutable items : pending array; mutable len : int }

let no_pending = { p_tid = -1; run = ignore }

let pq_create () = { items = [||]; len = 0 }

let pq_push q p =
  let cap = Array.length q.items in
  if q.len = cap then begin
    let bigger = Array.make (max 4 (2 * cap)) no_pending in
    Array.blit q.items 0 bigger 0 q.len;
    q.items <- bigger
  end;
  q.items.(q.len) <- p;
  q.len <- q.len + 1

let pq_take q i =
  let p = q.items.(i) in
  Array.blit q.items (i + 1) q.items i (q.len - i - 1);
  q.len <- q.len - 1;
  q.items.(q.len) <- no_pending;  (* drop the continuation for the GC *)
  p

type state = {
  config : config;
  program : Ast.program;
  info : Typecheck.info;
  mem : Mem.t;
  fn_table : Ast.fn_decl array;
  fn_index_tbl : (string, int) Hashtbl.t;  (* first index of each name *)
  statics_tbl : (string, Mem.allocation * Ast.ty) Hashtbl.t;
  threads : (int, thread) Hashtbl.t;
  mutable next_tid : int;
  mutable steps : int;
  mutable outputs : string list;  (* reversed *)
  mutable diags : Diag.t list;    (* reversed *)
  mutable events : string list;   (* reversed *)
  mutable stop : outcome option;  (* set when the run must end *)
  sched_rng : Rb_util.Rng.t;
  mutable cur_stmt : int;         (* node id of the statement being executed *)
  mutable allocs : int;           (* allocations performed so far *)
  mutable alloc_bytes : int;      (* cumulative bytes allocated *)
  runq : pqueue;                  (* runnable threads other than the running one *)
}

(* Per-thread evaluation context shared by both engines: the state plus the
   thread's id and cached record, so hot paths never pay a table lookup. *)
type ectx = { st : state; tid : int; thread : thread }

let make_ectx st tid = { st; tid; thread = Hashtbl.find st.threads tid }

exception Panic_exc of string
exception Ub_fatal of Diag.t
exception Step_limit_exc
exception Resource_exc of string
exception Return_exc of Value.t

(* Every machine allocation funnels through here so the fuel caps are
   checked *before* memory is created: an allocation bomb fails cleanly
   instead of first materialising a huge block. *)
let tracked_allocate (st : state) ~size ~align ~kind =
  if st.allocs >= st.config.max_allocs then
    raise
      (Resource_exc
         (Printf.sprintf "allocation budget exhausted (%d allocations)"
            st.config.max_allocs));
  if st.alloc_bytes + size > st.config.max_alloc_bytes then
    raise
      (Resource_exc
         (Printf.sprintf
            "allocation-byte budget exhausted (%d bytes requested, cap %d)"
            (st.alloc_bytes + size) st.config.max_alloc_bytes));
  st.allocs <- st.allocs + 1;
  st.alloc_bytes <- st.alloc_bytes + size;
  Mem.allocate st.mem ~size ~align ~kind

(* ------------------------------------------------------------------ *)
(* Diagnostics *)

let report (ec : ectx) (kind : Diag.ub_kind) (message : string) ~(recover : unit -> 'a) : 'a =
  let st = ec.st in
  let d = Diag.make ~thread:ec.tid ~stmt_hint:st.cur_stmt kind message in
  st.diags <- d :: st.diags;
  match st.config.mode with
  | Stop_first -> raise (Ub_fatal d)
  | Collect limit ->
    if List.length st.diags >= limit then raise (Ub_fatal d) else recover ()

let classify_access_error (err : Mem.access_error) : Diag.ub_kind * string =
  match err with
  | Mem.Dead msg | Mem.Oob msg | Mem.No_alloc msg -> (Diag.Dangling_pointer, msg)
  | Mem.Misaligned msg -> (Diag.Unaligned_pointer, msg)
  | Mem.Race msg -> (Diag.Data_race, msg)
  | Mem.Not_exposed msg -> (Diag.Provenance, msg)
  | Mem.Borrow_bad v ->
    let kind =
      if v.Borrow.write_through_ro then Diag.Both_borrow
      else
        match v.Borrow.missing_perm with
        | Borrow.Shared_ro -> Diag.Both_borrow
        | Borrow.Unique | Borrow.Shared_rw -> Diag.Stack_borrow
    in
    (kind, v.Borrow.detail)

let trace_event (st : state) fmt =
  (* test [trace] before formatting: with tracing off (benchmarks, campaign
     sweeps) the hot path must not pay for sprintf *)
  if st.config.trace then
    Printf.ksprintf (fun s -> st.events <- s :: st.events) fmt
  else Printf.ikfprintf (fun () -> ()) () fmt

let perm_name = function
  | Borrow.Unique -> "Unique"
  | Borrow.Shared_rw -> "SharedRW"
  | Borrow.Shared_ro -> "SharedRO"

let trace_popped (st : state) what popped =
  if st.config.trace then
    List.iter
      (fun (tag, perm) ->
        trace_event st "%s invalidated tag %d (%s)" what tag (perm_name perm))
      popped

(* ------------------------------------------------------------------ *)
(* Function table *)

let fn_addr_base = 0x7F00_0000_0000

let fn_index st name = Hashtbl.find_opt st.fn_index_tbl name

let fn_pointer st name : Value.pointer =
  match fn_index st name with
  | Some idx -> { Value.prov = Value.P_fn idx; addr = fn_addr_base + (idx * 16); tag = None }
  | None -> invalid_arg ("Machine: unknown function " ^ name)

let fn_sig (f : Ast.fn_decl) = Ast.T_fn (List.map snd f.Ast.params, f.Ast.ret)

(* ------------------------------------------------------------------ *)
(* Typed memory access *)

let base_pointer (a : Mem.allocation) : Value.pointer =
  { Value.prov = Value.P_alloc a.Mem.id; addr = a.Mem.base; tag = Some a.Mem.base_tag }

(* [_sized] variants take the layout precomputed: the bytecode compiler
   resolves [Layout.size_of]/[align_of] once per binding instead of once per
   access. The unsized wrappers recompute it, exactly as the tree-walker
   always did. *)
let typed_read_sized (ec : ectx) (ptr : Value.pointer) (ty : Ast.ty) ~len ~align ~atomic :
    Value.t =
  let st = ec.st in
  if len = 0 then Value.V_unit
  else begin
    let thread = ec.thread in
    match
      Mem.check_access st.mem ~ptr ~len ~align ~write:false ~tid:ec.tid
        ~clock:thread.clock ~atomic
    with
    | Error err ->
      let kind, msg = classify_access_error err in
      report ec kind msg ~recover:(fun () -> Value.zero st.program ty)
    | Ok (alloc, offset, popped) -> (
      if st.config.trace then
        trace_popped st (Printf.sprintf "read of alloc %d" alloc.Mem.id) popped;
      if atomic then begin
        (* acquire: merge the location's release clock into this thread *)
        let sync = Mem.sync_clock_of st.mem alloc offset in
        thread.clock <- Vclock.merge thread.clock sync
      end;
      match Mem.read_value st.program alloc ~offset ty with
      | Ok v -> v
      | Error msg ->
        report ec Diag.Validity msg ~recover:(fun () -> Value.zero st.program ty))
  end

let typed_read (ec : ectx) (ptr : Value.pointer) (ty : Ast.ty) ~atomic : Value.t =
  let len = Layout.size_of ec.st.program ty in
  let align = Layout.align_of ec.st.program ty in
  typed_read_sized ec ptr ty ~len ~align ~atomic

let typed_write_sized (ec : ectx) (ptr : Value.pointer) (ty : Ast.ty) (v : Value.t)
    ~len ~align ~atomic : unit =
  let st = ec.st in
  if len = 0 then ()
  else begin
    let thread = ec.thread in
    match
      Mem.check_access st.mem ~ptr ~len ~align ~write:true ~tid:ec.tid
        ~clock:thread.clock ~atomic
    with
    | Error err ->
      let kind, msg = classify_access_error err in
      report ec kind msg ~recover:(fun () -> ())
    | Ok (alloc, offset, popped) ->
      if st.config.trace then
        trace_popped st (Printf.sprintf "write to alloc %d" alloc.Mem.id) popped;
      Mem.write_value st.program ~fn_addr:(fn_pointer st) alloc ~offset ty v;
      if atomic then
        (* release: later writes by this thread must not appear ordered
           before the release an acquirer synchronized with *)
        thread.clock <- Vclock.tick thread.clock ec.tid
  end

let typed_write (ec : ectx) (ptr : Value.pointer) (ty : Ast.ty) (v : Value.t) ~atomic : unit =
  let len = Layout.size_of ec.st.program ty in
  let align = Layout.align_of ec.st.program ty in
  typed_write_sized ec ptr ty v ~len ~align ~atomic

(* ------------------------------------------------------------------ *)
(* Integer arithmetic with Rust overflow semantics (debug profile: panic) *)

let width_bits = function
  | Ast.I8 -> 8
  | Ast.I16 -> 16
  | Ast.I32 -> 32
  | Ast.I64 | Ast.Usize -> 64

let fits_width (n : int64) (w : Ast.int_width) =
  match w with
  | Ast.I64 -> true
  | Ast.Usize -> true (* 64-bit wrap handled by unsigned checks below *)
  | _ ->
    let bits = width_bits w in
    let lo = Int64.neg (Int64.shift_left 1L (bits - 1)) in
    let hi = Int64.sub (Int64.shift_left 1L (bits - 1)) 1L in
    Int64.compare n lo >= 0 && Int64.compare n hi <= 0

let truncate_to_width (n : int64) (w : Ast.int_width) =
  match w with
  | Ast.I64 | Ast.Usize -> n
  | _ ->
    let bits = width_bits w in
    let shift = 64 - bits in
    Int64.shift_right (Int64.shift_left n shift) shift

let arith_panic op = raise (Panic_exc (Printf.sprintf "attempt to %s with overflow" op))

(* overflow is checked on the untruncated result; only then is the value
   narrowed to the width (at which point narrowing is the identity). A
   top-level function rather than a closure over [op]/[a]/[b]/[w], which
   would be a heap block per arithmetic step. *)
let check_overflow (op : Ast.binop) a b (w : Ast.int_width) ~unsigned name result =
  if unsigned then begin
    (* unsigned 64-bit: overflow iff result is "less" than an operand for
       add, or borrow for sub, detected via unsigned compare *)
    match op with
    | Ast.Add -> if Int64.unsigned_compare result a < 0 then arith_panic name else result
    | Ast.Sub -> if Int64.unsigned_compare a b < 0 then arith_panic name else result
    | Ast.Mul ->
      if (not (Int64.equal a 0L)) && not (Int64.equal (Int64.unsigned_div result a) b)
      then arith_panic name
      else result
    | _ -> result
  end
  else if fits_width result w then result
  else arith_panic name

let eval_arith (op : Ast.binop) (a : int64) (b : int64) (w : Ast.int_width) : int64 =
  let unsigned = w = Ast.Usize in
  match op with
  | Ast.Add ->
    let r = Int64.add a b in
    if (not unsigned) && w = Ast.I64 && Int64.compare a 0L > 0 && Int64.compare b 0L > 0
       && Int64.compare r 0L < 0
    then arith_panic "add"
    else if (not unsigned) && w = Ast.I64 && Int64.compare a 0L < 0
            && Int64.compare b 0L < 0 && Int64.compare r 0L >= 0
    then arith_panic "add"
    else truncate_to_width (check_overflow op a b w ~unsigned "add" r) w
  | Ast.Sub ->
    let r = Int64.sub a b in
    if (not unsigned) && w = Ast.I64 && Int64.compare b 0L < 0 && Int64.compare a 0L > 0
       && Int64.compare r 0L < 0
    then arith_panic "subtract"
    else if (not unsigned) && w = Ast.I64 && Int64.compare b 0L > 0
            && Int64.compare a 0L < 0 && Int64.compare r 0L > 0
    then arith_panic "subtract"
    else truncate_to_width (check_overflow op a b w ~unsigned "subtract" r) w
  | Ast.Mul ->
    let r = Int64.mul a b in
    if (not unsigned) && w = Ast.I64 && (not (Int64.equal a 0L))
       && not (Int64.equal (Int64.div r a) b)
    then arith_panic "multiply"
    else truncate_to_width (check_overflow op a b w ~unsigned "multiply" r) w
  | Ast.Div ->
    if Int64.equal b 0L then raise (Panic_exc "attempt to divide by zero")
    else if unsigned then Int64.unsigned_div a b
    else if Int64.equal a Int64.min_int && Int64.equal b (-1L) then arith_panic "divide"
    else Int64.div a b
  | Ast.Rem ->
    if Int64.equal b 0L then
      raise (Panic_exc "attempt to calculate the remainder with a divisor of zero")
    else if unsigned then Int64.unsigned_rem a b
    else Int64.rem a b
  | Ast.Bit_and -> Int64.logand a b
  | Ast.Bit_or -> Int64.logor a b
  | Ast.Bit_xor -> Int64.logxor a b
  | Ast.Shl ->
    let bits = width_bits w in
    if Int64.compare b 0L < 0 || Int64.compare b (Int64.of_int bits) >= 0 then
      arith_panic "shift left"
    else truncate_to_width (Int64.shift_left a (Int64.to_int b)) w
  | Ast.Shr ->
    let bits = width_bits w in
    if Int64.compare b 0L < 0 || Int64.compare b (Int64.of_int bits) >= 0 then
      arith_panic "shift right"
    else if w = Ast.Usize then Int64.shift_right_logical a (Int64.to_int b)
    else truncate_to_width (Int64.shift_right a (Int64.to_int b)) w
  | Ast.And | Ast.Or | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    invalid_arg "Machine.eval_arith: not an arithmetic operator"

(* The two booleans as shared constants: a comparison allocates nothing. *)
let of_bool b = if b then Value.V_bool true else Value.V_bool false

let compare_ints (w : Ast.int_width) a b =
  if w = Ast.Usize then Int64.unsigned_compare a b else Int64.compare a b

(* ------------------------------------------------------------------ *)
(* Effects for cooperative threading *)

type _ Effect.t +=
  | Yield : unit Effect.t
  | Spawn_eff : (int -> unit) -> int Effect.t
  | Join_eff : int -> bool Effect.t
        (** resumes with [false] if the handle was invalid / already joined *)

(* Once a second thread has ever existed every step is a scheduling point.
   When no other thread is runnable the scheduler could only re-enqueue the
   yielder, draw [Rng.int sched_rng 1] and resume it, so that draw is made
   inline instead: same RNG stream, no effect, no continuation. *)
let yield_point (st : state) =
  st.steps <- st.steps + 1;
  if st.steps > st.config.max_steps then raise Step_limit_exc;
  if Hashtbl.length st.threads > 1 then
    if st.runq.len = 0 then ignore (Rb_util.Rng.int st.sched_rng 1 : int)
    else Effect.perform Yield

(* ------------------------------------------------------------------ *)
(* Value-level operation cores. Both engines dispatch differently (AST walk
   vs. instruction array) but land on these same functions, so every report
   string, recovery value and evaluation outcome is shared code. *)

let value_as_int ec (v : Value.t) : int64 =
  match v with
  | Value.V_int (n, _) -> n
  | Value.V_bool b -> if b then 1L else 0L
  | _ ->
    report ec Diag.Validity
      ("expected an integer value, found " ^ Value.to_display v)
      ~recover:(fun () -> 0L)

let rec ty_of_value st (v : Value.t) : Ast.ty =
  match v with
  | Value.V_unit -> Ast.T_unit
  | Value.V_bool _ -> Ast.T_bool
  | Value.V_int (_, w) -> Ast.T_int w
  | Value.V_ptr (_, ty) -> ty
  | Value.V_fn (name, _) -> (
    match Ast.lookup_fn st.program name with
    | Some f -> fn_sig f
    | None -> Ast.T_fn ([], Ast.T_unit))
  | Value.V_handle _ -> Ast.T_handle
  | Value.V_tuple vs -> Ast.T_tuple (List.map (ty_of_value st) vs)
  | Value.V_array [] -> Ast.T_array (Ast.T_unit, 0)
  | Value.V_array (v :: rest) -> Ast.T_array (ty_of_value st v, List.length rest + 1)
  | Value.V_bytes b -> Ast.T_array (Ast.T_int Ast.I8, Array.length b)

let apply_unop ec op (v : Value.t) : Value.t =
  match (op, v) with
  | Ast.Neg, Value.V_int (n, w) ->
    if (not (fits_width (Int64.neg n) w)) || (w <> Ast.Usize && Int64.equal n Int64.min_int)
    then raise (Panic_exc "attempt to negate with overflow")
    else Value.V_int (Int64.neg n, w)
  | Ast.Not, Value.V_bool b -> of_bool (not b)
  | Ast.Not, Value.V_int (n, w) -> Value.V_int (truncate_to_width (Int64.lognot n) w, w)
  | _ ->
    report ec Diag.Validity "invalid operand for unary operator"
      ~recover:(fun () -> v)

(* non-short-circuit binary operators; [And]/[Or] never reach here *)
let apply_binop ec op (va : Value.t) (vb : Value.t) : Value.t =
  match (va, vb) with
  | Value.V_int (x, w), Value.V_int (y, _) -> (
    match op with
    | Ast.Eq -> of_bool (Int64.equal x y)
    | Ast.Ne -> of_bool (not (Int64.equal x y))
    | Ast.Lt -> of_bool (compare_ints w x y < 0)
    | Ast.Le -> of_bool (compare_ints w x y <= 0)
    | Ast.Gt -> of_bool (compare_ints w x y > 0)
    | Ast.Ge -> of_bool (compare_ints w x y >= 0)
    | _ -> Value.V_int (eval_arith op x y w, w))
  | Value.V_bool x, Value.V_bool y -> (
    match op with
    | Ast.Eq -> of_bool (x = y)
    | Ast.Ne -> of_bool (x <> y)
    | _ ->
      report ec Diag.Validity "invalid bool operands" ~recover:(fun () -> va))
  | Value.V_ptr (p, _), Value.V_ptr (q, _) -> (
    match op with
    | Ast.Eq -> of_bool (p.Value.addr = q.Value.addr)
    | Ast.Ne -> of_bool (p.Value.addr <> q.Value.addr)
    | _ ->
      report ec Diag.Validity "invalid pointer operands" ~recover:(fun () -> va))
  | Value.V_unit, Value.V_unit -> (
    match op with
    | Ast.Eq -> Value.V_bool true
    | Ast.Ne -> Value.V_bool false
    | _ -> report ec Diag.Validity "invalid unit operands" ~recover:(fun () -> va))
  | _ ->
    report ec Diag.Validity "mismatched operand types at runtime"
      ~recover:(fun () -> va)

let retag_pointer ec (ptr : Value.pointer) (perm : Borrow.perm) : Value.pointer =
  match Mem.retag ec.st.mem ~ptr ~perm with
  | Ok (p, popped) ->
    if ec.st.config.trace then begin
      trace_event ec.st "retag: new tag %s (%s) at addr %d"
        (match p.Value.tag with Some t -> string_of_int t | None -> "?")
        (perm_name perm) p.Value.addr;
      trace_popped ec.st "retag" popped
    end;
    p
  | Error err ->
    let kind, msg = classify_access_error err in
    report ec kind msg ~recover:(fun () -> ptr)

let apply_cast ec (v : Value.t) (target : Ast.ty) : Value.t =
  match (v, target) with
  | Value.V_int (n, _), Ast.T_int w ->
    let truncated = truncate_to_width n w in
    let adjusted = if w = Ast.Usize then n else truncated in
    Value.V_int (adjusted, w)
  | Value.V_bool b, Ast.T_int w -> Value.V_int ((if b then 1L else 0L), w)
  | Value.V_ptr (p, src_ty), Ast.T_raw (_, _) -> (
    (* ref-to-raw is a retag; raw-to-raw just repaints the type *)
    match src_ty with
    | Ast.T_ref (m, _) ->
      let perm =
        match (m, target) with
        | Ast.Mut, Ast.T_raw (Ast.Mut, _) -> Borrow.Shared_rw
        | _, _ -> Borrow.Shared_ro
      in
      let retagged = retag_pointer ec p perm in
      Value.V_ptr (retagged, target)
    | _ -> Value.V_ptr (p, target))
  | Value.V_ptr (p, _), Ast.T_int w ->
    (* ptr-to-int observes the address and exposes the allocation *)
    Mem.expose ec.st.mem p;
    Value.V_int (truncate_to_width (Int64.of_int p.Value.addr) w, w)
  | Value.V_int (n, _), Ast.T_raw _ ->
    Value.V_ptr ({ Value.prov = Value.P_wild; addr = Int64.to_int n; tag = None }, target)
  | Value.V_fn (name, _), Ast.T_int w ->
    Value.V_int (Int64.of_int (fn_pointer ec.st name).Value.addr, w)
  | Value.V_fn (name, _), Ast.T_raw _ -> Value.V_ptr (fn_pointer ec.st name, target)
  | _ ->
    report ec Diag.Validity
      (Printf.sprintf "unsupported cast of %s to %s" (Value.to_display v)
         (Pretty.ty target))
      ~recover:(fun () -> Value.zero ec.st.program target)

let apply_transmute ec (v : Value.t) (target : Ast.ty) : Value.t =
  let st = ec.st in
  let bytes =
    match v with
    | Value.V_bytes b -> Array.map (function Some n -> Mem.B_int n | None -> Mem.B_uninit) b
    | _ -> Mem.encode st.program ~fn_addr:(fn_pointer st) (ty_of_value st v) v
  in
  if Array.length bytes <> Layout.size_of st.program target then
    report ec Diag.Validity "transmute size mismatch at runtime"
      ~recover:(fun () -> Value.zero st.program target)
  else
    match Mem.decode st.program target bytes with
    | Ok out -> out
    | Error msg ->
      report ec Diag.Validity ("transmute produced an invalid value: " ^ msg)
        ~recover:(fun () -> Value.zero st.program target)

(* [vn] has already been through [value_as_int], matching the evaluation
   order of the tree-walker (pointer first, count second, coercion third). *)
let apply_offset ec (vp : Value.t) (vn : int64) : Value.t =
  match vp with
  | Value.V_ptr (ptr, (Ast.T_raw (_, elem) as rty)) -> (
    let elem_size = max 1 (Layout.size_of ec.st.program elem) in
    let new_addr = ptr.Value.addr + (Int64.to_int vn * elem_size) in
    let moved = { ptr with Value.addr = new_addr } in
    match ptr.Value.prov with
    | Value.P_alloc id -> (
      match Mem.find_alloc ec.st.mem id with
      | Some a ->
        let off = new_addr - a.Mem.base in
        if off < 0 || off > a.Mem.size then
          report ec Diag.Dangling_pointer
            (Printf.sprintf
               "pointer arithmetic leaves the bounds of allocation %d (offset %d of %d)"
               id off a.Mem.size)
            ~recover:(fun () -> Value.V_ptr (moved, rty))
        else Value.V_ptr (moved, rty)
      | None ->
        report ec Diag.Dangling_pointer "offset of pointer to unknown allocation"
          ~recover:(fun () -> Value.V_ptr (moved, rty)))
    | Value.P_wild | Value.P_none | Value.P_fn _ -> Value.V_ptr (moved, rty))
  | _ ->
    report ec Diag.Validity "offset on a non-raw-pointer" ~recover:(fun () -> vp)

let apply_alloc ec ~size ~align : Value.t =
  let bad msg =
    report ec Diag.Alloc msg ~recover:(fun () ->
        Value.V_ptr (Value.null_pointer, Ast.T_raw (Ast.Mut, Ast.T_int Ast.I8)))
  in
  if size <= 0 then bad (Printf.sprintf "alloc with invalid size %d" size)
  else if align <= 0 || align land (align - 1) <> 0 then
    bad (Printf.sprintf "alloc with invalid alignment %d" align)
  else begin
    let a = tracked_allocate ec.st ~size ~align ~kind:Mem.Heap in
    trace_event ec.st "alloc: allocation %d (%d bytes, align %d, base tag %d)"
      a.Mem.id size align a.Mem.base_tag;
    Value.V_ptr (base_pointer a, Ast.T_raw (Ast.Mut, Ast.T_int Ast.I8))
  end

let len_of_place_ty ec (ty : Ast.ty) : Value.t =
  match ty with
  | Ast.T_array (_, n) -> Value.V_int (Int64.of_int n, Ast.Usize)
  | _ ->
    report ec Diag.Validity "len() of a non-array place"
      ~recover:(fun () -> Value.V_int (0L, Ast.Usize))

let len_of_value ec (v : Value.t) : Value.t =
  match v with
  | Value.V_array vs -> Value.V_int (Int64.of_int (List.length vs), Ast.Usize)
  | Value.V_ptr (_, Ast.T_ref (_, Ast.T_array (_, n))) ->
    Value.V_int (Int64.of_int n, Ast.Usize)
  | v ->
    report ec Diag.Validity ("len() of non-array value " ^ Value.to_display v)
      ~recover:(fun () -> Value.V_int (0L, Ast.Usize))

let input_value (st : state) idx : Value.t =
  let inputs = st.config.inputs in
  let v = if idx >= 0 && idx < Array.length inputs then inputs.(idx) else 0L in
  Value.V_int (v, Ast.I64)

let atomic_load_v ec (v : Value.t) : Value.t =
  match v with
  | Value.V_ptr (ptr, _) -> typed_read ec ptr (Ast.T_int Ast.I64) ~atomic:true
  | _ ->
    report ec Diag.Validity "atomic_load on a non-pointer"
      ~recover:(fun () -> Value.V_int (0L, Ast.I64))

(* fetch-and-add with acquire/release semantics: the load acquires the
   location's release clock, the store releases this thread's *)
let atomic_add_v ec (pv : Value.t) (delta : int64) : Value.t =
  match pv with
  | Value.V_ptr (ptr, _) -> (
    let old = typed_read ec ptr (Ast.T_int Ast.I64) ~atomic:true in
    match old with
    | Value.V_int (o, _) ->
      typed_write ec ptr (Ast.T_int Ast.I64)
        (Value.V_int (eval_arith Ast.Add o delta Ast.I64, Ast.I64))
        ~atomic:true;
      Value.V_int (o, Ast.I64)
    | other -> other)
  | _ ->
    report ec Diag.Validity "atomic_add on a non-pointer"
      ~recover:(fun () -> Value.V_int (0L, Ast.I64))

let atomic_store_v ec (pv : Value.t) (v : Value.t) : unit =
  match pv with
  | Value.V_ptr (ptr, _) -> typed_write ec ptr (Ast.T_int Ast.I64) v ~atomic:true
  | _ -> report ec Diag.Validity "atomic_store on a non-pointer" ~recover:(fun () -> ())

let dealloc_v ec (pv : Value.t) ~size ~align : unit =
  let st = ec.st in
  match pv with
  | Value.V_ptr (ptr, _) -> (
    let resolve () =
      match ptr.Value.prov with
      | Value.P_alloc id -> Mem.find_alloc st.mem id
      | Value.P_wild -> Mem.alloc_containing st.mem ptr.Value.addr
      | Value.P_fn _ | Value.P_none -> None
    in
    match resolve () with
    | None ->
      report ec Diag.Alloc "dealloc of a pointer that was never allocated"
        ~recover:(fun () -> ())
    | Some a ->
      if not a.Mem.live then
        report ec Diag.Alloc "double free" ~recover:(fun () -> ())
      else if a.Mem.kind <> Mem.Heap then
        report ec Diag.Alloc "dealloc of non-heap memory" ~recover:(fun () -> ())
      else if ptr.Value.addr <> a.Mem.base then
        report ec Diag.Alloc "dealloc of a pointer not at the allocation start"
          ~recover:(fun () -> ())
      else if size <> a.Mem.size || align <> a.Mem.align then
        report ec Diag.Alloc
          (Printf.sprintf
             "dealloc with wrong layout: (size %d, align %d) vs allocated (size %d, align %d)"
             size align a.Mem.size a.Mem.align)
          ~recover:(fun () -> ())
      else begin
        (* freeing is a write-like access for the race detector *)
        let thread = ec.thread in
        (match
           Mem.check_access st.mem ~ptr ~len:a.Mem.size ~align:1 ~write:true
             ~tid:ec.tid ~clock:thread.clock ~atomic:false
         with
        | Error err ->
          let kind, msg = classify_access_error err in
          report ec kind msg ~recover:(fun () -> ())
        | Ok _ -> ());
        trace_event st "dealloc: freed allocation %d (%d bytes)" a.Mem.id a.Mem.size;
        Mem.deallocate st.mem a
      end)
  | v ->
    report ec Diag.Alloc ("dealloc of non-pointer " ^ Value.to_display v)
      ~recover:(fun () -> ())

let join_v ec (v : Value.t) : unit =
  match v with
  | Value.V_handle tid -> (
    match Hashtbl.find_opt ec.st.threads tid with
    | None ->
      report ec Diag.Concurrency
        (Printf.sprintf "join of invalid thread handle %d" tid)
        ~recover:(fun () -> ())
    | Some t -> (
      match t.status with
      | T_joined ->
        report ec Diag.Concurrency
          (Printf.sprintf "thread %d joined twice" tid)
          ~recover:(fun () -> ())
      | T_runnable | T_blocked_on _ | T_done ->
        let ok = Effect.perform (Join_eff tid) in
        if ok then begin
          (* join synchronizes: acquire the child's final clock *)
          let self = ec.thread in
          self.clock <- Vclock.tick (Vclock.merge self.clock t.clock) ec.tid
        end
        else
          report ec Diag.Concurrency
            (Printf.sprintf "join of thread %d failed" tid)
            ~recover:(fun () -> ())))
  | _ ->
    report ec Diag.Concurrency "join of a non-handle value" ~recover:(fun () -> ())

(* ------------------------------------------------------------------ *)
(* Place projection cores: pointer+type pairs, engine-independent *)

let place_deref ec (v : Value.t) : Value.pointer * Ast.ty =
  match v with
  | Value.V_ptr (ptr, (Ast.T_ref (_, t) | Ast.T_raw (_, t))) -> (ptr, t)
  | Value.V_ptr (ptr, _) -> (ptr, Ast.T_unit)
  | _ ->
    report ec Diag.Validity
      ("dereference of non-pointer value " ^ Value.to_display v)
      ~recover:(fun () -> (Value.null_pointer, Ast.T_unit))

let place_index ec (bptr : Value.pointer) (bty : Ast.ty) (i : int) :
    Value.pointer * Ast.ty =
  match bty with
  | Ast.T_array (elem, n) ->
    if i < 0 || i >= n then
      raise
        (Panic_exc
           (Printf.sprintf "index out of bounds: the len is %d but the index is %d" n i))
    else
      let elem_size = Layout.size_of ec.st.program elem in
      ({ bptr with Value.addr = bptr.Value.addr + (i * elem_size) }, elem)
  | _ ->
    report ec Diag.Validity "indexing a non-array place"
      ~recover:(fun () -> (bptr, Ast.T_unit))

let place_index_unchecked ec (bptr : Value.pointer) (bty : Ast.ty) (i : int) :
    Value.pointer * Ast.ty =
  match bty with
  | Ast.T_array (elem, _) ->
    (* no bounds check: the access layer flags out-of-range addresses *)
    let elem_size = Layout.size_of ec.st.program elem in
    ({ bptr with Value.addr = bptr.Value.addr + (i * elem_size) }, elem)
  | _ ->
    report ec Diag.Validity "get_unchecked on a non-array place"
      ~recover:(fun () -> (bptr, Ast.T_unit))

let place_field ec (bptr : Value.pointer) (bty : Ast.ty) (i : int) :
    Value.pointer * Ast.ty =
  match bty with
  | Ast.T_tuple ts when i >= 0 && i < List.length ts ->
    let off = List.nth (Layout.tuple_offsets ec.st.program ts) i in
    ({ bptr with Value.addr = bptr.Value.addr + off }, List.nth ts i)
  | _ ->
    report ec Diag.Validity "tuple field access on a non-tuple place"
      ~recover:(fun () -> (bptr, Ast.T_unit))

let place_union_field ec (bptr : Value.pointer) (bty : Ast.ty) (fld : string) :
    Value.pointer * Ast.ty =
  match bty with
  | Ast.T_union u -> (
    match Ast.lookup_union ec.st.program u with
    | Some decl -> (
      match List.assoc_opt fld decl.Ast.ufields with
      | Some fty -> (bptr, fty)  (* all union fields live at offset 0 *)
      | None ->
        report ec Diag.Validity ("unknown union field " ^ fld)
          ~recover:(fun () -> (bptr, Ast.T_unit)))
    | None ->
      report ec Diag.Validity ("unknown union type " ^ u)
        ~recover:(fun () -> (bptr, Ast.T_unit)))
  | _ ->
    report ec Diag.Validity "union field access on a non-union place"
      ~recover:(fun () -> (bptr, Ast.T_unit))

(* ------------------------------------------------------------------ *)
(* Call-target resolution: the reporting half of [call_value], shared so
   both engines emit identical diagnostics; the actual frame push is
   engine-specific. *)

type callee_resolution =
  | Call_fn of int            (* index into [fn_table] *)
  | Call_recover of Value.t   (* a diagnostic was reported; use this value *)

let resolve_callee ec (callee : Value.t) : callee_resolution =
  let st = ec.st in
  match callee with
  | Value.V_fn (name, _) -> (
    match fn_index st name with
    | Some idx -> Call_fn idx
    | None ->
      Call_recover
        (report ec Diag.Func_call ("call of unknown function " ^ name)
           ~recover:(fun () -> Value.V_unit)))
  | Value.V_ptr (p, claimed) -> (
    match p.Value.prov with
    | Value.P_fn idx when idx >= 0 && idx < Array.length st.fn_table ->
      let f = st.fn_table.(idx) in
      let actual = fn_sig f in
      if not (Ast.equal_ty actual claimed) then
        Call_recover
          (report ec Diag.Func_pointer
             (Printf.sprintf
                "calling %s through a pointer of incompatible type %s (actual %s)"
                f.Ast.fname (Pretty.ty claimed) (Pretty.ty actual))
             ~recover:(fun () ->
               match claimed with
               | Ast.T_fn (_, ret) -> Value.zero st.program ret
               | _ -> Value.V_unit))
      else Call_fn idx
    | Value.P_fn _ ->
      Call_recover
        (report ec Diag.Func_call "call through a corrupt function-table pointer"
           ~recover:(fun () -> Value.V_unit))
    | Value.P_alloc _ | Value.P_wild | Value.P_none ->
      let what = if p.Value.addr = 0 then "a null pointer" else "a non-function pointer" in
      Call_recover
        (report ec Diag.Func_call ("attempting to call " ^ what)
           ~recover:(fun () ->
             match claimed with
             | Ast.T_fn (_, ret) -> Value.zero st.program ret
             | _ -> Value.V_unit)))
  | v ->
    Call_recover
      (report ec Diag.Func_call ("attempting to call value " ^ Value.to_display v)
         ~recover:(fun () -> Value.V_unit))

let call_arity_error ec fname ~got ~want (ret : Ast.ty) : Value.t =
  report ec Diag.Func_pointer
    (Printf.sprintf "function %s called with %d arguments (expects %d)" fname got want)
    ~recover:(fun () -> Value.zero ec.st.program ret)

let missing_return_value ec fname (ret : Ast.ty) : Value.t =
  report ec Diag.Validity
    (Printf.sprintf "function %s finished without returning a value" fname)
    ~recover:(fun () -> Value.zero ec.st.program ret)

(* ------------------------------------------------------------------ *)
(* Scheduler: the harness [drive] owns thread creation, the seeded pick
   loop, join bookkeeping and the post-run deadlock/leak sweep. An engine
   supplies [init_statics] and [main_body]; spawned threads enter through
   the [Spawn_eff] body closure the engine built. *)

let drive ~(config : config) ~(program : Ast.program) ~(info : Typecheck.info)
    ~(init_statics : state -> int -> unit) ~(main_body : state -> int -> unit) :
    run_result =
  (* deterministic tags per run: diagnostics mention tag numbers, and repair
     traces built from them must not depend on how many runs came before *)
  Borrow.reset_tags ();
  let fn_table = Array.of_list program.Ast.funcs in
  let fn_index_tbl = Hashtbl.create (Array.length fn_table) in
  Array.iteri
    (fun i (f : Ast.fn_decl) ->
      (* first declaration wins, as the linear scan it replaces did *)
      if not (Hashtbl.mem fn_index_tbl f.Ast.fname) then
        Hashtbl.add fn_index_tbl f.Ast.fname i)
    fn_table;
  let st =
    {
      config;
      program;
      info;
      mem = Mem.create ();
      fn_table;
      fn_index_tbl;
      statics_tbl = Hashtbl.create 8;
      threads = Hashtbl.create 8;
      next_tid = 0;
      steps = 0;
      outputs = [];
      diags = [];
      events = [];
      stop = None;
      sched_rng = Rb_util.Rng.create (config.seed * 2 + 1);
      cur_stmt = -1;
      allocs = 0;
      alloc_bytes = 0;
      runq = pq_create ();
    }
  in
  let enqueue p = pq_push st.runq p in
  (* joiners waiting on a tid, oldest first *)
  let waiters : (int, pqueue) Hashtbl.t = Hashtbl.create 8 in
  let wake_joiners tid =
    match Hashtbl.find_opt waiters tid with
    | Some ws ->
      Hashtbl.remove waiters tid;
      for i = 0 to ws.len - 1 do enqueue ws.items.(i) done
    | None -> ()
  in
  let new_thread () =
    let tid = st.next_tid in
    st.next_tid <- tid + 1;
    let t = { tid; clock = Vclock.tick Vclock.empty tid; status = T_runnable } in
    Hashtbl.replace st.threads tid t;
    t
  in
  let record_stop outcome = if st.stop = None then st.stop <- Some outcome in
  let rec spawn_thread (parent : thread option) (body : int -> unit) : int =
    let t = new_thread () in
    (* a second thread exists: start checking and recording race metadata
       (everything before this point is ordered before every new thread) *)
    if Hashtbl.length st.threads > 1 then Mem.set_racing st.mem;
    (match parent with
    | Some p ->
      (* child inherits the parent's history; both sides then advance *)
      t.clock <- Vclock.tick (Vclock.merge t.clock p.clock) t.tid;
      p.clock <- Vclock.tick p.clock p.tid
    | None -> ());
    enqueue { p_tid = t.tid; run = (fun () -> run_thread t body) };
    t.tid
  and run_thread (t : thread) (body : int -> unit) : unit =
    let open Effect.Deep in
    match_with
      (fun () -> body t.tid)
      ()
      {
        retc =
          (fun () ->
            t.status <- T_done;
            wake_joiners t.tid);
        exnc =
          (fun e ->
            t.status <- T_done;
            wake_joiners t.tid;
            match e with
            | Panic_exc msg -> record_stop (Panicked msg)
            | Ub_fatal d -> record_stop (Ub d)
            | Step_limit_exc -> record_stop Step_limit
            | Resource_exc msg -> record_stop (Resource_limit msg)
            | e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  enqueue { p_tid = t.tid; run = (fun () -> continue k ()) })
            | Spawn_eff body' ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let tid = spawn_thread (Some t) body' in
                  continue k tid)
            | Join_eff target ->
              Some
                (fun (k : (a, unit) continuation) ->
                  match Hashtbl.find_opt st.threads target with
                  | None -> continue k false
                  | Some tgt -> (
                    match tgt.status with
                    | T_done ->
                      tgt.status <- T_joined;
                      continue k true
                    | T_joined -> continue k false
                    | T_runnable | T_blocked_on _ ->
                      t.status <- T_blocked_on target;
                      let resume =
                        {
                          p_tid = t.tid;
                          run =
                            (fun () ->
                              t.status <- T_runnable;
                              (match Hashtbl.find_opt st.threads target with
                              | Some tgt2 when tgt2.status = T_done ->
                                tgt2.status <- T_joined
                              | _ -> ());
                              continue k true);
                        }
                      in
                      let ws =
                        match Hashtbl.find_opt waiters target with
                        | Some ws -> ws
                        | None ->
                          let ws = pq_create () in
                          Hashtbl.replace waiters target ws;
                          ws
                      in
                      pq_push ws resume))
            | _ -> None);
      }
  in
  (* initialize statics, then fall through into main on the same thread *)
  let static_error = ref None in
  let main_tid =
    spawn_thread None (fun tid ->
        (try init_statics st tid
         with (Panic_exc _ | Ub_fatal _ | Step_limit_exc | Resource_exc _) as e ->
           static_error := Some e);
        (match !static_error with Some e -> raise e | None -> ());
        main_body st tid)
  in
  (* scheduler loop *)
  let rec loop () =
    match st.stop with
    | Some _ -> ()
    | None ->
      let q = st.runq in
      if q.len > 0 then begin
        let idx = Rb_util.Rng.int st.sched_rng q.len in
        let chosen = pq_take q idx in
        chosen.run ();
        loop ()
      end
  in
  loop ();
  (* post-run checks *)
  let main_done =
    match Hashtbl.find_opt st.threads main_tid with
    | Some t -> t.status = T_done || t.status = T_joined
    | None -> false
  in
  let final_diags = ref [] in
  (match st.stop with
  | Some _ -> ()
  | None ->
    if not main_done then begin
      (* all remaining threads blocked on joins: deadlock *)
      let d =
        Diag.make ~thread:main_tid Diag.Concurrency
          "deadlock: every thread is blocked on a join"
      in
      final_diags := d :: !final_diags
    end
    else begin
      (* leaked threads: main finished while children still exist unjoined *)
      Hashtbl.iter
        (fun tid t ->
          if tid <> main_tid && t.status <> T_joined then
            final_diags :=
              Diag.make ~thread:tid Diag.Concurrency
                (Printf.sprintf "thread %d was never joined before main exited" tid)
              :: !final_diags)
        st.threads;
      (* leaked heap allocations *)
      List.iter
        (fun (a : Mem.allocation) ->
          final_diags :=
            Diag.make ~thread:main_tid Diag.Alloc
              (Printf.sprintf "memory leak: allocation %d (%d bytes) never freed"
                 a.Mem.id a.Mem.size)
            :: !final_diags)
        (Mem.live_heap_allocations st.mem)
    end);
  st.diags <- !final_diags @ st.diags;
  let outcome =
    match st.stop with
    | Some o -> o
    | None -> (
      match st.diags with
      | [] -> Finished
      | d :: _ -> (
        match config.mode with
        | Stop_first -> Ub d
        | Collect _ -> if !final_diags <> [] then Ub (List.hd !final_diags) else Finished))
  in
  let diags = List.rev st.diags in
  (* a panic or a blown resource budget each count as one error on top of
     the recorded UB diagnostics; a step-limit stop stays cost-free, as it
     always has (spin loops are scored by their diagnostics alone) *)
  let aborted = match outcome with Panicked _ | Resource_limit _ -> true | _ -> false in
  let result =
    {
      outcome;
      output = List.rev st.outputs;
      diags;
      steps = st.steps;
      error_count = List.length diags + (if aborted then 1 else 0);
      events = List.rev st.events;
    }
  in
  (* one event per run, never per step: the interpreter hot loop stays
     untouched and the counters ride along for free *)
  Obs.Trace.note "interp" (fun () ->
      [ ("steps", Obs.Trace.I st.steps);
        ("allocs", Obs.Trace.I st.allocs);
        ("alloc_bytes", Obs.Trace.I st.alloc_bytes);
        ("diags", Obs.Trace.I (List.length diags));
        ( "outcome",
          Obs.Trace.S
            (match outcome with
            | Finished -> "finished"
            | Panicked _ -> "panicked"
            | Ub _ -> "ub"
            | Step_limit -> "step-limit"
            | Resource_limit _ -> "resource-limit") ) ]);
  Obs.Metrics.inc "interp.runs";
  Obs.Metrics.inc ~by:st.steps "interp.steps";
  Obs.Metrics.inc ~by:st.allocs "interp.allocs";
  result
