(* The UB-detecting abstract machine.

   Since the bytecode lowering, this module is the public face over two
   engines sharing the [Rt] substrate:
   - [Vm] executes flat pre-resolved bytecode ([Minirust.Bytecode], lowered
     by [Minirust.Compile]) — the default, 8-26 minor words per step;
   - the tree-walking evaluator below, kept behind [config.engine =
     Tree_walk] as a differential-testing escape hatch.

   All semantics (typed access, arithmetic, diagnostics, scheduling) live in
   [Rt]; the walker here only decides evaluation order, which the compiler
   mirrors instruction-for-instruction, so the engines stay byte-identical. *)

open Minirust

type mode = Rt.mode = Stop_first | Collect of int
type engine = Rt.engine = Bytecode | Tree_walk

type config = Rt.config = {
  mode : mode;
  seed : int;
  max_steps : int;
  inputs : int64 array;
  trace : bool;
  max_allocs : int;
  max_alloc_bytes : int;
  engine : engine;
}

let default_config = Rt.default_config

type outcome = Rt.outcome =
  | Finished
  | Panicked of string
  | Ub of Diag.t
  | Step_limit
  | Resource_limit of string

type run_result = Rt.run_result = {
  outcome : outcome;
  output : string list;
  diags : Diag.t list;
  steps : int;
  error_count : int;
  events : string list;
}

(* ------------------------------------------------------------------ *)
(* Tree-walking evaluator *)

(* Execution context of one thread: the stack of lexical scopes of the
   function currently executing. Each local is its own stack allocation. *)
type local = { l_alloc : Mem.allocation; l_ty : Ast.ty }

type scope = (string * local) list ref

(* [locals] is the flat name->local view of [scopes], exploiting
   [Hashtbl.add]'s shadowing semantics: an inner binding is added after (and
   removed before) an outer one of the same name, so [Hashtbl.find_opt]
   always sees the innermost binding. The scope lists survive solely to
   drive deallocation and table cleanup at scope exit. *)
type ctx = {
  ec : Rt.ectx;
  mutable scopes : scope list;
  locals : (string, local) Hashtbl.t;
}

let make_ctx st tid =
  { ec = Rt.make_ectx st tid; scopes = []; locals = Hashtbl.create 16 }

let bind_local ctx scope name local =
  scope := (name, local) :: !scope;
  Hashtbl.add ctx.locals name local

let close_scope ctx scope =
  (* newest-first, so a same-name shadow's Hashtbl entries pop in order *)
  List.iter
    (fun (name, l) ->
      Hashtbl.remove ctx.locals name;
      Mem.deallocate ctx.ec.Rt.st.Rt.mem l.l_alloc)
    !scope

let lookup_local ctx name : local option = Hashtbl.find_opt ctx.locals name

let rec eval_expr (ctx : ctx) (e : Ast.expr) : Value.t =
  match e.Ast.e with
  | Ast.E_unit -> Value.V_unit
  | Ast.E_bool b -> Value.V_bool b
  | Ast.E_int (n, w) -> Value.V_int (n, w)
  | Ast.E_place p -> eval_place_read ctx p
  | Ast.E_unop (op, a) -> Rt.apply_unop ctx.ec op (eval_expr ctx a)
  | Ast.E_binop (op, a, b) -> eval_binop ctx op a b
  | Ast.E_tuple es -> Value.V_tuple (List.map (eval_expr ctx) es)
  | Ast.E_array es -> Value.V_array (List.map (eval_expr ctx) es)
  | Ast.E_repeat (x, n) ->
    let v = eval_expr ctx x in
    Value.V_array (List.init n (fun _ -> v))
  | Ast.E_ref (m, p) ->
    let ptr, ty = eval_place ctx p in
    let perm = match m with Ast.Mut -> Borrow.Unique | Ast.Imm -> Borrow.Shared_ro in
    let retagged = Rt.retag_pointer ctx.ec ptr perm in
    Value.V_ptr (retagged, Ast.T_ref (m, ty))
  | Ast.E_raw_of (m, p) ->
    let ptr, ty = eval_place ctx p in
    let perm = match m with Ast.Mut -> Borrow.Shared_rw | Ast.Imm -> Borrow.Shared_ro in
    let retagged = Rt.retag_pointer ctx.ec ptr perm in
    Value.V_ptr (retagged, Ast.T_raw (m, ty))
  | Ast.E_call (name, args) -> eval_call ctx name args
  | Ast.E_call_ptr (callee, args) ->
    let v = eval_expr ctx callee in
    let arg_vals = List.map (eval_expr ctx) args in
    call_value ctx v arg_vals
  | Ast.E_cast (a, target) -> Rt.apply_cast ctx.ec (eval_expr ctx a) target
  | Ast.E_transmute (target, a) ->
    let v = eval_expr ctx a in
    Rt.apply_transmute ctx.ec v target
  | Ast.E_offset (p, n) ->
    let vp = eval_expr ctx p in
    let vn = Rt.value_as_int ctx.ec (eval_expr ctx n) in
    Rt.apply_offset ctx.ec vp vn
  | Ast.E_alloc (size_e, align_e) ->
    let size = Int64.to_int (Rt.value_as_int ctx.ec (eval_expr ctx size_e)) in
    let align = Int64.to_int (Rt.value_as_int ctx.ec (eval_expr ctx align_e)) in
    Rt.apply_alloc ctx.ec ~size ~align
  | Ast.E_len a -> (
    match a.Ast.e with
    | Ast.E_place p ->
      let _, ty = eval_place ctx p in
      Rt.len_of_place_ty ctx.ec ty
    | _ -> Rt.len_of_value ctx.ec (eval_expr ctx a))
  | Ast.E_input i ->
    let idx = Int64.to_int (Rt.value_as_int ctx.ec (eval_expr ctx i)) in
    Rt.input_value ctx.ec.Rt.st idx
  | Ast.E_atomic_load p -> Rt.atomic_load_v ctx.ec (eval_expr ctx p)
  | Ast.E_atomic_add (p, n) ->
    let pv = eval_expr ctx p in
    let delta = Rt.value_as_int ctx.ec (eval_expr ctx n) in
    Rt.atomic_add_v ctx.ec pv delta

and eval_binop ctx op a b =
  match op with
  | Ast.And ->
    (* short-circuit *)
    let va = eval_expr ctx a in
    if Option.value (Value.as_bool va) ~default:false then eval_expr ctx b
    else Value.V_bool false
  | Ast.Or ->
    let va = eval_expr ctx a in
    if Option.value (Value.as_bool va) ~default:false then Value.V_bool true
    else eval_expr ctx b
  | _ ->
    let va = eval_expr ctx a in
    let vb = eval_expr ctx b in
    Rt.apply_binop ctx.ec op va vb

and eval_call ctx name args =
  (* name resolution: local fn-pointer first, then declared function *)
  match lookup_local ctx name with
  | Some local ->
    let callee =
      Rt.typed_read ctx.ec (Rt.base_pointer local.l_alloc) local.l_ty ~atomic:false
    in
    let arg_vals = List.map (eval_expr ctx) args in
    call_value ctx callee arg_vals
  | None -> (
    match Ast.lookup_fn ctx.ec.Rt.st.Rt.program name with
    | Some f ->
      let arg_vals = List.map (eval_expr ctx) args in
      call_fn ctx f arg_vals
    | None -> invalid_arg ("Machine: call to unknown function " ^ name))

and call_value ctx (callee : Value.t) (args : Value.t list) : Value.t =
  match Rt.resolve_callee ctx.ec callee with
  | Rt.Call_fn idx -> call_fn ctx ctx.ec.Rt.st.Rt.fn_table.(idx) args
  | Rt.Call_recover v -> v

and call_fn ctx (f : Ast.fn_decl) (args : Value.t list) : Value.t =
  let st = ctx.ec.Rt.st in
  if List.length args <> List.length f.Ast.params then
    Rt.call_arity_error ctx.ec f.Ast.fname ~got:(List.length args)
      ~want:(List.length f.Ast.params) f.Ast.ret
  else begin
    let callee_ctx = make_ctx st ctx.ec.Rt.tid in
    let scope : scope = ref [] in
    callee_ctx.scopes <- [ scope ];
    List.iter2
      (fun (pname, pty) v ->
        let size = Layout.size_of st.Rt.program pty in
        let align = max 1 (Layout.align_of st.Rt.program pty) in
        let a = Rt.tracked_allocate st ~size ~align ~kind:Mem.Stack in
        Rt.typed_write callee_ctx.ec (Rt.base_pointer a) pty v ~atomic:false;
        bind_local callee_ctx scope pname { l_alloc = a; l_ty = pty })
      f.Ast.params args;
    let finish () =
      (* leaving the function kills its parameter slots *)
      close_scope callee_ctx scope
    in
    match exec_block callee_ctx f.Ast.body with
    | () ->
      finish ();
      if Ast.equal_ty f.Ast.ret Ast.T_unit then Value.V_unit
      else Rt.missing_return_value ctx.ec f.Ast.fname f.Ast.ret
    | exception Rt.Return_exc v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Places *)

and eval_place (ctx : ctx) (p : Ast.place) : Value.pointer * Ast.ty =
  match p with
  | Ast.P_var name -> (
    match lookup_local ctx name with
    | Some l -> (Rt.base_pointer l.l_alloc, l.l_ty)
    | None -> (
      match Hashtbl.find_opt ctx.ec.Rt.st.Rt.statics_tbl name with
      | Some (a, ty) -> (Rt.base_pointer a, ty)
      | None -> invalid_arg ("Machine: unknown variable " ^ name)))
  | Ast.P_deref e -> Rt.place_deref ctx.ec (eval_expr ctx e)
  | Ast.P_index (base, idx) ->
    let bptr, bty = eval_place ctx base in
    let i = Int64.to_int (Rt.value_as_int ctx.ec (eval_expr ctx idx)) in
    Rt.place_index ctx.ec bptr bty i
  | Ast.P_index_unchecked (base, idx) ->
    let bptr, bty = eval_place ctx base in
    let i = Int64.to_int (Rt.value_as_int ctx.ec (eval_expr ctx idx)) in
    Rt.place_index_unchecked ctx.ec bptr bty i
  | Ast.P_field (base, i) ->
    let bptr, bty = eval_place ctx base in
    Rt.place_field ctx.ec bptr bty i
  | Ast.P_union_field (base, fld) ->
    let bptr, bty = eval_place ctx base in
    Rt.place_union_field ctx.ec bptr bty fld

and eval_place_read ctx p : Value.t =
  match p with
  | Ast.P_var name when lookup_local ctx name = None
                        && not (Hashtbl.mem ctx.ec.Rt.st.Rt.statics_tbl name) -> (
    (* a bare function name used as a value *)
    match Ast.lookup_fn ctx.ec.Rt.st.Rt.program name with
    | Some f -> Value.V_fn (name, Rt.fn_sig f)
    | None -> invalid_arg ("Machine: unknown variable " ^ name))
  | _ ->
    let ptr, ty = eval_place ctx p in
    Rt.typed_read ctx.ec ptr ty ~atomic:false

(* ------------------------------------------------------------------ *)
(* Statements *)

and exec_stmt (ctx : ctx) (stmt : Ast.stmt) : unit =
  let st = ctx.ec.Rt.st in
  st.Rt.cur_stmt <- stmt.Ast.sid;
  Rt.yield_point st;
  match stmt.Ast.s with
  | Ast.S_let (name, annot, e) ->
    let v = eval_expr ctx e in
    let ty =
      match annot with
      | Some t -> t
      | None -> (
        match Typecheck.ty_of_expr st.Rt.info e with
        | Some t -> t
        | None -> Rt.ty_of_value st v)
    in
    let size = Layout.size_of st.Rt.program ty in
    let align = max 1 (Layout.align_of st.Rt.program ty) in
    let a = Rt.tracked_allocate st ~size ~align ~kind:Mem.Stack in
    Rt.typed_write ctx.ec (Rt.base_pointer a) ty v ~atomic:false;
    (match ctx.scopes with
    | scope :: _ -> bind_local ctx scope name { l_alloc = a; l_ty = ty }
    | [] -> invalid_arg "Machine: let outside any scope")
  | Ast.S_assign (p, e) ->
    let v = eval_expr ctx e in
    let ptr, ty = eval_place ctx p in
    Rt.typed_write ctx.ec ptr ty v ~atomic:false
  | Ast.S_expr e -> ignore (eval_expr ctx e)
  | Ast.S_if (c, t, f) ->
    let cond = Option.value (Value.as_bool (eval_expr ctx c)) ~default:false in
    if cond then exec_block ctx t else exec_block ctx f
  | Ast.S_while (c, body) ->
    let rec loop () =
      Rt.yield_point st;
      let cond = Option.value (Value.as_bool (eval_expr ctx c)) ~default:false in
      if cond then begin
        exec_block ctx body;
        loop ()
      end
    in
    loop ()
  | Ast.S_block b | Ast.S_unsafe b -> exec_block ctx b
  | Ast.S_assert (e, msg) ->
    let ok = Option.value (Value.as_bool (eval_expr ctx e)) ~default:false in
    if not ok then raise (Rt.Panic_exc ("assertion failed: " ^ msg))
  | Ast.S_panic msg -> raise (Rt.Panic_exc msg)
  | Ast.S_return None -> raise (Rt.Return_exc Value.V_unit)
  | Ast.S_return (Some e) -> raise (Rt.Return_exc (eval_expr ctx e))
  | Ast.S_print e ->
    let v = eval_expr ctx e in
    st.Rt.outputs <- Value.to_display v :: st.Rt.outputs
  | Ast.S_dealloc (pe, size_e, align_e) ->
    let pv = eval_expr ctx pe in
    let size = Int64.to_int (Rt.value_as_int ctx.ec (eval_expr ctx size_e)) in
    let align = Int64.to_int (Rt.value_as_int ctx.ec (eval_expr ctx align_e)) in
    Rt.dealloc_v ctx.ec pv ~size ~align
  | Ast.S_spawn (handle, fname, args) -> exec_spawn ctx handle fname args
  | Ast.S_join e -> Rt.join_v ctx.ec (eval_expr ctx e)
  | Ast.S_atomic_store (pe, ve) ->
    let pv = eval_expr ctx pe in
    let v = eval_expr ctx ve in
    Rt.atomic_store_v ctx.ec pv v

and exec_spawn ctx handle fname args =
  let st = ctx.ec.Rt.st in
  match Ast.lookup_fn st.Rt.program fname with
  | None -> invalid_arg ("Machine: spawn of unknown function " ^ fname)
  | Some f ->
    let arg_vals = List.map (eval_expr ctx) args in
    let body tid =
      let child_ctx = make_ctx st tid in
      ignore (call_fn child_ctx f arg_vals)
    in
    let tid = Effect.perform (Rt.Spawn_eff body) in
    (* bind the handle as a local *)
    let ty = Ast.T_handle in
    let a = Rt.tracked_allocate st ~size:8 ~align:8 ~kind:Mem.Stack in
    Rt.typed_write ctx.ec (Rt.base_pointer a) ty (Value.V_handle tid) ~atomic:false;
    (match ctx.scopes with
    | scope :: _ -> bind_local ctx scope handle { l_alloc = a; l_ty = ty }
    | [] -> invalid_arg "Machine: spawn outside any scope")

and exec_block (ctx : ctx) (b : Ast.block) : unit =
  let scope : scope = ref [] in
  ctx.scopes <- scope :: ctx.scopes;
  let cleanup () =
    (* locals die at scope exit; pointers to them become dangling *)
    close_scope ctx scope;
    ctx.scopes <- (match ctx.scopes with [] -> [] | _ :: rest -> rest)
  in
  match List.iter (exec_stmt ctx) b with
  | () -> cleanup ()
  | exception e ->
    cleanup ();
    raise e

(* ------------------------------------------------------------------ *)
(* Engine dispatch *)

let run_tree ~config (program : Ast.program) (info : Typecheck.info) : run_result =
  Rt.drive ~config ~program ~info
    ~init_statics:(fun st tid ->
      let ctx = make_ctx st tid in
      ctx.scopes <- [ ref [] ];
      List.iter
        (fun (s : Ast.static_decl) ->
          let ty = s.Ast.sty in
          let size = Layout.size_of program ty in
          let align = max 1 (Layout.align_of program ty) in
          let a = Rt.tracked_allocate st ~size ~align ~kind:Mem.Global in
          Hashtbl.replace st.Rt.statics_tbl s.Ast.sname (a, ty);
          let v = eval_expr ctx s.Ast.sinit in
          Rt.typed_write ctx.ec (Rt.base_pointer a) ty v ~atomic:false)
        program.Ast.statics)
    ~main_body:(fun st tid ->
      let ctx = make_ctx st tid in
      match Ast.lookup_fn program "main" with
      | Some f -> ignore (call_fn ctx f [])
      | None -> invalid_arg "Machine: program has no main function")

type lowered = Bytecode.program_code

let lower (program : Ast.program) (info : Typecheck.info) : lowered =
  Compile.lower program info

let run_lowered ?(config = default_config) (program : Ast.program)
    (info : Typecheck.info) (code : lowered) : run_result =
  Vm.run ~config program info code

let run ?(config = default_config) (program : Ast.program) (info : Typecheck.info) :
    run_result =
  match config.engine with
  | Tree_walk -> run_tree ~config program info
  | Bytecode ->
    (* lowering is its own trace phase so profiles separate compile cost
       from execution cost *)
    let code = Obs.Trace.in_span "lower" (fun () -> Compile.lower program info) in
    Vm.run ~config program info code

type analysis = Compile_error of string | Ran of run_result

let analyze ?(config = default_config) program =
  match Typecheck.check program with
  | Error errors -> Compile_error (Typecheck.errors_to_string errors)
  | Ok info -> Ran (run ~config program info)

let is_clean r = r.outcome = Finished && r.diags = []

let first_ub (r : run_result) = match r.diags with [] -> None | d :: _ -> Some d

(* ------------------------------------------------------------------ *)
(* Verification memo-cache *)

(* An id-free digest of an analysis: everything the oracle scoring needs
   (outcome class, print trace, error counts) and nothing that embeds node
   ids or borrow tags, so a digest computed for one parse of a program is
   valid for any structurally identical parse. *)
type summary = {
  sm_compile_error : bool;
  sm_clean : bool;
  sm_panic : string option;
  sm_output : string list;
  sm_ub_count : int;      (* UB diagnostics recorded *)
  sm_error_count : int;   (* the paper's n_i; type-error count if ill-typed *)
  sm_resource : string option;  (* the run blew an allocation budget *)
}

let summarize = function
  | Compile_error msg ->
    { sm_compile_error = true; sm_clean = false; sm_panic = None; sm_output = [];
      sm_ub_count = 0;
      sm_error_count =
        (* one reported line per type error *)
        max 1 (List.length (String.split_on_char '\n' (String.trim msg)));
      sm_resource = None }
  | Ran r ->
    { sm_compile_error = false;
      sm_clean = is_clean r;
      sm_panic = (match r.outcome with Panicked m -> Some m | _ -> None);
      sm_output = r.output;
      sm_ub_count = List.length r.diags;
      sm_error_count = r.error_count;
      sm_resource = (match r.outcome with Resource_limit m -> Some m | _ -> None) }

module Cache = struct
  type stats = { hits : int; misses : int }

  type t = {
    table : (string, summary) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
    enabled : bool;
  }

  let create ?(enabled = true) () =
    { table = Hashtbl.create 256; hits = 0; misses = 0; enabled }

  let enabled t = t.enabled
  let stats t = { hits = t.hits; misses = t.misses }

  let hit_rate t =
    let total = t.hits + t.misses in
    if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

  let reset_stats t =
    t.hits <- 0;
    t.misses <- 0

  (* external memo layers (e.g. the pipeline's canonical-program run memo)
     report into the same counters so hit_rate covers all verification
     caching *)
  let record_hit t = t.hits <- t.hits + 1
  let record_miss t = t.misses <- t.misses + 1

  let clear t =
    Hashtbl.reset t.table;
    reset_stats t

  let memo t ~key compute =
    if not t.enabled then compute ()
    else
      match Hashtbl.find_opt t.table key with
      | Some s ->
        t.hits <- t.hits + 1;
        s
      | None ->
        t.misses <- t.misses + 1;
        let s = compute () in
        Hashtbl.add t.table key s;
        s
end

let config_key config =
  Printf.sprintf "%s|%d|%d|%b|%d|%d|%s|%s"
    (match config.mode with Stop_first -> "S" | Collect n -> "C" ^ string_of_int n)
    config.seed config.max_steps config.trace
    config.max_allocs config.max_alloc_bytes
    (match config.engine with Bytecode -> "B" | Tree_walk -> "T")
    (String.concat "," (Array.to_list (Array.map Int64.to_string config.inputs)))

let analyze_summary ?cache ?fingerprint ?(config = default_config) program =
  (* id-neutral so a cache hit (which skips compute entirely) and every
     uncached path consume identical node-id space — labels printed after a
     verification can not depend on whether it was cached *)
  let compute () =
    Minirust.Ast.id_preserving @@ fun () ->
    match Typecheck.check program with
    | Error errors ->
      { sm_compile_error = true; sm_clean = false; sm_panic = None; sm_output = [];
        sm_ub_count = 0; sm_error_count = List.length errors; sm_resource = None }
    | Ok info -> summarize (Ran (run ~config program info))
  in
  match cache with
  | None -> compute ()
  | Some c when not (Cache.enabled c) -> compute ()
  | Some c ->
    let fp =
      match fingerprint with
      | Some fp -> fp
      | None -> Minirust.Pretty.program program
    in
    Cache.memo c ~key:(config_key config ^ "\n" ^ fp) compute
