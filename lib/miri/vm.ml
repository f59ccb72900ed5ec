(* Bytecode execution engine.

   Executes [Minirust.Bytecode] programs over the shared [Rt] substrate.
   The hot loop is a tail-recursive dispatch over a flat instruction array.
   Its own bookkeeping allocates nothing per step: operand values, places
   (pointer+type), frame slots, live-local indices and scope marks all live
   in preallocated growable arrays owned by the per-thread [vctx], and slot
   entries and statics cache their base pointers. What a step does allocate
   is value boxing in the shared access path (a read's [int64], [V_int] and
   [Ok]): 7.7-25.5 minor words per step on the programs test/test_cost.ml
   pins. Every semantic judgment
   (typed access, retags, arithmetic, diagnostics) goes through the same
   [Rt] cores as the tree-walker, so results — including report strings,
   recovery values, step counts and scheduler interleavings — are
   byte-identical between the engines. *)

open Minirust

(* one bound local: its stack allocation plus its base pointer and layout,
   resolved once at bind time instead of once per access *)
type slot_entry = {
  sl_alloc : Mem.allocation;
  sl_ptr : Value.pointer;  (* [Rt.base_pointer sl_alloc] *)
  sl_ty : Ast.ty;
  sl_size : int;
  sl_align : int;
}

type vctx = {
  ec : Rt.ectx;
  code : Bytecode.program_code;
  statics : Value.pointer option array;
      (* base pointer of each static once allocated; shared across threads *)
  (* operand stack *)
  mutable ops : Value.t array;
  mutable osp : int;
  (* place stack: parallel pointer/type arrays *)
  mutable pptr : Value.pointer array;
  mutable pty : Ast.ty array;
  mutable psp : int;
  (* frame slots: call frames stack their slot windows at [frame_base] *)
  mutable slots : slot_entry option array;
  mutable frame_base : int;
  mutable slot_top : int;
  (* live locals (absolute slot indices, newest last) + scope marks *)
  mutable live : int array;
  mutable lsp : int;
  mutable marks : int array;
  mutable msp : int;
}

let make_vctx st code statics tid =
  {
    ec = Rt.make_ectx st tid;
    code;
    statics;
    ops = Array.make 64 Value.V_unit;
    osp = 0;
    pptr = Array.make 16 Value.null_pointer;
    pty = Array.make 16 Ast.T_unit;
    psp = 0;
    slots = Array.make 64 None;
    frame_base = 0;
    slot_top = 0;
    live = Array.make 64 0;
    lsp = 0;
    marks = Array.make 32 0;
    msp = 0;
  }

(* ------------------------------------------------------------------ *)
(* Stack helpers: amortized-growable, no per-step allocation *)

let push c v =
  let n = Array.length c.ops in
  if c.osp >= n then begin
    let bigger = Array.make (2 * n) Value.V_unit in
    Array.blit c.ops 0 bigger 0 n;
    c.ops <- bigger
  end;
  Array.unsafe_set c.ops c.osp v;
  c.osp <- c.osp + 1

let pop c =
  c.osp <- c.osp - 1;
  Array.unsafe_get c.ops c.osp

(* values produced by [I_to_int] are always [V_int] *)
let pop_int c =
  match pop c with
  | Value.V_int (n, _) -> n
  | _ -> assert false

(* pop [n] values into a list preserving push (evaluation) order *)
let rec pop_list c n acc = if n = 0 then acc else pop_list c (n - 1) (pop c :: acc)

let push_place c ptr ty =
  let n = Array.length c.pptr in
  if c.psp >= n then begin
    let bp = Array.make (2 * n) Value.null_pointer in
    Array.blit c.pptr 0 bp 0 n;
    c.pptr <- bp;
    let bt = Array.make (2 * n) Ast.T_unit in
    Array.blit c.pty 0 bt 0 n;
    c.pty <- bt
  end;
  c.pptr.(c.psp) <- ptr;
  c.pty.(c.psp) <- ty;
  c.psp <- c.psp + 1

let ensure_slots c top =
  let n = Array.length c.slots in
  if top > n then begin
    let bigger = Array.make (max (2 * n) top) None in
    Array.blit c.slots 0 bigger 0 n;
    c.slots <- bigger
  end

let get_slot c i =
  match c.slots.(c.frame_base + i) with Some e -> e | None -> assert false

let get_static c k =
  match c.statics.(k) with Some p -> p | None -> assert false

let push_live c idx =
  let n = Array.length c.live in
  if c.lsp >= n then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit c.live 0 bigger 0 n;
    c.live <- bigger
  end;
  c.live.(c.lsp) <- idx;
  c.lsp <- c.lsp + 1

let set_slot c idx e =
  c.slots.(idx) <- Some e;
  push_live c idx

let push_mark c =
  let n = Array.length c.marks in
  if c.msp >= n then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit c.marks 0 bigger 0 n;
    c.marks <- bigger
  end;
  c.marks.(c.msp) <- c.lsp;
  c.msp <- c.msp + 1

(* deallocate live locals newest-first down to [target]: the same order the
   tree-walker's nested [close_scope]s produce (inner scopes, then outer,
   then parameters) *)
let unwind_live c target =
  while c.lsp > target do
    c.lsp <- c.lsp - 1;
    match c.slots.(c.live.(c.lsp)) with
    | Some e -> Mem.deallocate c.ec.Rt.st.Rt.mem e.sl_alloc
    | None -> ()
  done

let truthy = function Value.V_bool b -> b | _ -> false

(* ------------------------------------------------------------------ *)
(* Instruction loop *)

let rec run_code c (f : Bytecode.fn_code) ~lsp0 pc : Value.t =
  let code = f.Bytecode.fc_code in
  if pc >= Array.length code then begin
    (* only the statics prologue falls off the end; functions end in
       [I_fn_end] *)
    unwind_live c lsp0;
    Value.V_unit
  end
  else
    let ec = c.ec in
    let st = ec.Rt.st in
    match Array.unsafe_get code pc with
    | Bytecode.I_push_unit ->
      push c Value.V_unit;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_push_bool b ->
      push c (Value.V_bool b);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_push_int (n, w) ->
      push c (Value.V_int (n, w));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_push_fn (name, sg) ->
      push c (Value.V_fn (name, sg));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_load_local slot ->
      let e = get_slot c slot in
      push c
        (Rt.typed_read_sized ec e.sl_ptr e.sl_ty ~len:e.sl_size
           ~align:e.sl_align ~atomic:false);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_store_local slot ->
      let v = pop c in
      let e = get_slot c slot in
      Rt.typed_write_sized ec e.sl_ptr e.sl_ty v ~len:e.sl_size
        ~align:e.sl_align ~atomic:false;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_load_deref_local slot ->
      let e = get_slot c slot in
      let pv =
        Rt.typed_read_sized ec e.sl_ptr e.sl_ty ~len:e.sl_size
          ~align:e.sl_align ~atomic:false
      in
      let ptr, ty = Rt.place_deref ec pv in
      push c (Rt.typed_read ec ptr ty ~atomic:false);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_store_deref_local slot ->
      let v = pop c in
      let e = get_slot c slot in
      let pv =
        Rt.typed_read_sized ec e.sl_ptr e.sl_ty ~len:e.sl_size
          ~align:e.sl_align ~atomic:false
      in
      let ptr, ty = Rt.place_deref ec pv in
      Rt.typed_write ec ptr ty v ~atomic:false;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_local_binop (slot, op, k, kw) ->
      let e = get_slot c slot in
      let va =
        Rt.typed_read_sized ec e.sl_ptr e.sl_ty ~len:e.sl_size ~align:e.sl_align
          ~atomic:false
      in
      let r = Rt.apply_binop ec op va (Value.V_int (k, kw)) in
      Rt.typed_write_sized ec e.sl_ptr e.sl_ty r ~len:e.sl_size ~align:e.sl_align
        ~atomic:false;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_load_static k ->
      let si = c.code.Bytecode.pc_statics.(k) in
      push c
        (Rt.typed_read_sized ec (get_static c k) si.Bytecode.si_ty
           ~len:si.Bytecode.si_size ~align:si.Bytecode.si_align ~atomic:false);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_store_static k ->
      let v = pop c in
      let si = c.code.Bytecode.pc_statics.(k) in
      Rt.typed_write_sized ec (get_static c k) si.Bytecode.si_ty v
        ~len:si.Bytecode.si_size ~align:si.Bytecode.si_align ~atomic:false;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_unop op ->
      push c (Rt.apply_unop ec op (pop c));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_binop op ->
      let vb = pop c in
      let va = pop c in
      push c (Rt.apply_binop ec op va vb);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_to_int ->
      push c (Value.V_int (Rt.value_as_int ec (pop c), Ast.I64));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_jump t -> run_code c f ~lsp0 t
    | Bytecode.I_br_false t ->
      if truthy (pop c) then run_code c f ~lsp0 (pc + 1) else run_code c f ~lsp0 t
    | Bytecode.I_cmp_br_false (op, t) ->
      let vb = pop c in
      let va = pop c in
      if truthy (Rt.apply_binop ec op va vb) then run_code c f ~lsp0 (pc + 1)
      else run_code c f ~lsp0 t
    | Bytecode.I_sc_and t ->
      if truthy (pop c) then run_code c f ~lsp0 (pc + 1)
      else begin
        push c (Value.V_bool false);
        run_code c f ~lsp0 t
      end
    | Bytecode.I_sc_or t ->
      if truthy (pop c) then begin
        push c (Value.V_bool true);
        run_code c f ~lsp0 t
      end
      else run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_tuple n ->
      push c (Value.V_tuple (pop_list c n []));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_array n ->
      push c (Value.V_array (pop_list c n []));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_repeat n ->
      let v = pop c in
      push c (Value.V_array (List.init n (fun _ -> v)));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_ref m ->
      c.psp <- c.psp - 1;
      let ptr = c.pptr.(c.psp) and ty = c.pty.(c.psp) in
      let perm = match m with Ast.Mut -> Borrow.Unique | Ast.Imm -> Borrow.Shared_ro in
      let retagged = Rt.retag_pointer ec ptr perm in
      push c (Value.V_ptr (retagged, Ast.T_ref (m, ty)));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_raw_of m ->
      c.psp <- c.psp - 1;
      let ptr = c.pptr.(c.psp) and ty = c.pty.(c.psp) in
      let perm = match m with Ast.Mut -> Borrow.Shared_rw | Ast.Imm -> Borrow.Shared_ro in
      let retagged = Rt.retag_pointer ec ptr perm in
      push c (Value.V_ptr (retagged, Ast.T_raw (m, ty)));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_call (idx, argc) | Bytecode.I_call_arity (idx, argc) ->
      let v = exec_call c idx argc in
      push c v;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_call_value argc ->
      let callee_pos = c.osp - argc - 1 in
      let callee = c.ops.(callee_pos) in
      (match Rt.resolve_callee ec callee with
      | Rt.Call_fn idx ->
        let v = exec_call c idx argc in
        (* the callee cell is now the stack top; replace it with the result *)
        c.ops.(callee_pos) <- v
      | Rt.Call_recover v ->
        c.osp <- callee_pos;
        push c v);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_call_unknown name ->
      invalid_arg ("Machine: call to unknown function " ^ name)
    | Bytecode.I_cast t ->
      push c (Rt.apply_cast ec (pop c) t);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_transmute t ->
      push c (Rt.apply_transmute ec (pop c) t);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_offset ->
      let vn = pop_int c in
      let vp = pop c in
      push c (Rt.apply_offset ec vp vn);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_alloc ->
      let align = Int64.to_int (pop_int c) in
      let size = Int64.to_int (pop_int c) in
      push c (Rt.apply_alloc ec ~size ~align);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_len_place ->
      c.psp <- c.psp - 1;
      let ty = c.pty.(c.psp) in
      push c (Rt.len_of_place_ty ec ty);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_len_value ->
      push c (Rt.len_of_value ec (pop c));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_input ->
      let idx = Int64.to_int (pop_int c) in
      push c (Rt.input_value st idx);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_atomic_load ->
      push c (Rt.atomic_load_v ec (pop c));
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_atomic_add ->
      let delta = pop_int c in
      let pv = pop c in
      push c (Rt.atomic_add_v ec pv delta);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_atomic_store ->
      let v = pop c in
      let pv = pop c in
      Rt.atomic_store_v ec pv v;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_local slot ->
      let e = get_slot c slot in
      push_place c e.sl_ptr e.sl_ty;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_static k ->
      let si = c.code.Bytecode.pc_statics.(k) in
      push_place c (get_static c k) si.Bytecode.si_ty;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_deref ->
      let v = pop c in
      let ptr, ty = Rt.place_deref ec v in
      push_place c ptr ty;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_index ->
      let i = Int64.to_int (pop_int c) in
      c.psp <- c.psp - 1;
      let bptr = c.pptr.(c.psp) and bty = c.pty.(c.psp) in
      let ptr, ty = Rt.place_index ec bptr bty i in
      push_place c ptr ty;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_index_unchecked ->
      let i = Int64.to_int (pop_int c) in
      c.psp <- c.psp - 1;
      let bptr = c.pptr.(c.psp) and bty = c.pty.(c.psp) in
      let ptr, ty = Rt.place_index_unchecked ec bptr bty i in
      push_place c ptr ty;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_field i ->
      c.psp <- c.psp - 1;
      let bptr = c.pptr.(c.psp) and bty = c.pty.(c.psp) in
      let ptr, ty = Rt.place_field ec bptr bty i in
      push_place c ptr ty;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_union_field fld ->
      c.psp <- c.psp - 1;
      let bptr = c.pptr.(c.psp) and bty = c.pty.(c.psp) in
      let ptr, ty = Rt.place_union_field ec bptr bty fld in
      push_place c ptr ty;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_read ->
      c.psp <- c.psp - 1;
      let ptr = c.pptr.(c.psp) and ty = c.pty.(c.psp) in
      push c (Rt.typed_read ec ptr ty ~atomic:false);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_place_unknown name ->
      invalid_arg ("Machine: unknown variable " ^ name)
    | Bytecode.I_stmt sid ->
      st.Rt.cur_stmt <- sid;
      Rt.yield_point st;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_loop_head ->
      Rt.yield_point st;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_pop ->
      c.osp <- c.osp - 1;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_let (slot, ty, size, align) ->
      let v = pop c in
      let a = Rt.tracked_allocate st ~size ~align:(max 1 align) ~kind:Mem.Stack in
      let ptr = Rt.base_pointer a in
      Rt.typed_write_sized ec ptr ty v ~len:size ~align ~atomic:false;
      set_slot c (c.frame_base + slot)
        { sl_alloc = a; sl_ptr = ptr; sl_ty = ty; sl_size = size; sl_align = align };
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_let_dyn slot ->
      let v = pop c in
      let ty = Rt.ty_of_value st v in
      let size = Layout.size_of st.Rt.program ty in
      let align = Layout.align_of st.Rt.program ty in
      let a = Rt.tracked_allocate st ~size ~align:(max 1 align) ~kind:Mem.Stack in
      let ptr = Rt.base_pointer a in
      Rt.typed_write_sized ec ptr ty v ~len:size ~align ~atomic:false;
      set_slot c (c.frame_base + slot)
        { sl_alloc = a; sl_ptr = ptr; sl_ty = ty; sl_size = size; sl_align = align };
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_assign ->
      c.psp <- c.psp - 1;
      let ptr = c.pptr.(c.psp) and ty = c.pty.(c.psp) in
      let v = pop c in
      Rt.typed_write ec ptr ty v ~atomic:false;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_push_scope ->
      push_mark c;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_pop_scope ->
      c.msp <- c.msp - 1;
      unwind_live c c.marks.(c.msp);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_assert msg ->
      if truthy (pop c) then run_code c f ~lsp0 (pc + 1)
      else raise (Rt.Panic_exc ("assertion failed: " ^ msg))
    | Bytecode.I_panic msg -> raise (Rt.Panic_exc msg)
    | Bytecode.I_ret ->
      let v = pop c in
      unwind_live c lsp0;
      v
    | Bytecode.I_ret_unit ->
      unwind_live c lsp0;
      Value.V_unit
    | Bytecode.I_fn_end ->
      unwind_live c lsp0;
      if f.Bytecode.fc_ret_unit then Value.V_unit
      else Rt.missing_return_value ec f.Bytecode.fc_name f.Bytecode.fc_ret
    | Bytecode.I_print ->
      let v = pop c in
      st.Rt.outputs <- Value.to_display v :: st.Rt.outputs;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_dealloc ->
      let align = Int64.to_int (pop_int c) in
      let size = Int64.to_int (pop_int c) in
      let pv = pop c in
      Rt.dealloc_v ec pv ~size ~align;
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_spawn (idx, argc, slot) ->
      let args = pop_list c argc [] in
      let body tid =
        let cc = make_vctx st c.code c.statics tid in
        ignore (exec_call_list cc idx args)
      in
      let tid = Effect.perform (Rt.Spawn_eff body) in
      (* bind the handle as a local *)
      let ty = Ast.T_handle in
      let a = Rt.tracked_allocate st ~size:8 ~align:8 ~kind:Mem.Stack in
      let ptr = Rt.base_pointer a in
      Rt.typed_write ec ptr ty (Value.V_handle tid) ~atomic:false;
      set_slot c (c.frame_base + slot)
        { sl_alloc = a; sl_ptr = ptr; sl_ty = ty;
          sl_size = Layout.size_of st.Rt.program ty;
          sl_align = Layout.align_of st.Rt.program ty };
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_spawn_unknown name ->
      invalid_arg ("Machine: spawn of unknown function " ^ name)
    | Bytecode.I_join ->
      Rt.join_v ec (pop c);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_static_alloc k ->
      let si = c.code.Bytecode.pc_statics.(k) in
      let a =
        Rt.tracked_allocate st ~size:si.Bytecode.si_size
          ~align:(max 1 si.Bytecode.si_align) ~kind:Mem.Global
      in
      c.statics.(k) <- Some (Rt.base_pointer a);
      run_code c f ~lsp0 (pc + 1)
    | Bytecode.I_static_store k ->
      let v = pop c in
      let si = c.code.Bytecode.pc_statics.(k) in
      Rt.typed_write_sized ec (get_static c k) si.Bytecode.si_ty v
        ~len:si.Bytecode.si_size ~align:si.Bytecode.si_align ~atomic:false;
      run_code c f ~lsp0 (pc + 1)

(* call with the arguments already on the operand stack *)
and exec_call c idx argc : Value.t =
  let f = c.code.Bytecode.pc_fns.(idx) in
  let nparams = Array.length f.Bytecode.fc_param_layout in
  if argc <> nparams then begin
    let v =
      Rt.call_arity_error c.ec f.Bytecode.fc_name ~got:argc ~want:nparams
        f.Bytecode.fc_ret
    in
    c.osp <- c.osp - argc;
    v
  end
  else
    let args_base = c.osp - argc in
    enter c f (fun i -> c.ops.(args_base + i)) ~args_base

(* call with an argument list (spawned thread bodies, main) *)
and exec_call_list c idx (args : Value.t list) : Value.t =
  let f = c.code.Bytecode.pc_fns.(idx) in
  let nparams = Array.length f.Bytecode.fc_param_layout in
  let argc = List.length args in
  if argc <> nparams then
    Rt.call_arity_error c.ec f.Bytecode.fc_name ~got:argc ~want:nparams
      f.Bytecode.fc_ret
  else begin
    let arr = Array.of_list args in
    enter c f (fun i -> arr.(i)) ~args_base:c.osp
  end

(* push a frame: slot window, parameter binding, body, epilogue. Parameters
   allocate and bind in declaration order, exactly like [call_fn]. *)
and enter c (f : Bytecode.fn_code) get_arg ~args_base : Value.t =
  let st = c.ec.Rt.st in
  let saved_base = c.frame_base
  and saved_top = c.slot_top
  and saved_lsp = c.lsp
  and saved_msp = c.msp in
  let new_base = c.slot_top in
  ensure_slots c (new_base + f.Bytecode.fc_nslots);
  c.frame_base <- new_base;
  c.slot_top <- new_base + f.Bytecode.fc_nslots;
  try
    let layouts = f.Bytecode.fc_param_layout in
    for i = 0 to Array.length layouts - 1 do
      let pty, size, align = layouts.(i) in
      let a = Rt.tracked_allocate st ~size ~align:(max 1 align) ~kind:Mem.Stack in
      let ptr = Rt.base_pointer a in
      Rt.typed_write_sized c.ec ptr pty (get_arg i) ~len:size ~align ~atomic:false;
      set_slot c (new_base + i)
        { sl_alloc = a; sl_ptr = ptr; sl_ty = pty; sl_size = size; sl_align = align }
    done;
    c.osp <- args_base;
    let v = run_code c f ~lsp0:saved_lsp 0 in
    c.frame_base <- saved_base;
    c.slot_top <- saved_top;
    c.msp <- saved_msp;
    v
  with e ->
    unwind_live c saved_lsp;
    c.frame_base <- saved_base;
    c.slot_top <- saved_top;
    c.msp <- saved_msp;
    c.osp <- args_base;
    raise e

(* ------------------------------------------------------------------ *)

let statics_frame (code : Bytecode.program_code) : Bytecode.fn_code =
  {
    Bytecode.fc_name = "<statics>";
    fc_param_layout = [||];
    fc_ret = Ast.T_unit;
    fc_ret_unit = true;
    fc_nslots = 0;
    fc_code = code.Bytecode.pc_statics_code;
  }

let run ~config (program : Ast.program) (info : Typecheck.info)
    (code : Bytecode.program_code) : Rt.run_result =
  let statics = Array.make (Array.length code.Bytecode.pc_statics) None in
  Rt.drive ~config ~program ~info
    ~init_statics:(fun st tid ->
      let c = make_vctx st code statics tid in
      ignore (run_code c (statics_frame code) ~lsp0:0 0))
    ~main_body:(fun st tid ->
      match code.Bytecode.pc_main with
      | Some idx ->
        let c = make_vctx st code statics tid in
        ignore (exec_call_list c idx [])
      | None -> invalid_arg "Machine: program has no main function")
