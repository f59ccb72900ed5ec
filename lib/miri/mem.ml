open Minirust

type alloc_kind = Heap | Stack | Global

type byte = B_uninit | B_int of int | B_frag of Value.pointer * int

type bucket = {
  mutable na_write : Vclock.t;
  mutable na_read : Vclock.t;
  mutable at_write : Vclock.t;
  mutable at_read : Vclock.t;
  mutable sync : Vclock.t;
}

(* Packed per-allocation contents. The payload always holds the concrete
   byte value — for a stored pointer fragment that is the corresponding
   address byte, matching what [byte_as_int] reports for [B_frag] — so the
   integer decode path never consults the fragment table. The bitmap tracks
   initialization (bit set = initialized, [uninit_count] makes the
   all-initialized fast path O(1)), and the sparse fragment table carries
   provenance for stored pointer bytes ([frag_count] = 0 means no lookup on
   reads). Race buckets live here too, one lazily-created bucket per 8-byte
   granule, so race checks are a plain array index instead of a tuple-keyed
   hash probe. *)
type store = {
  mutable data : Bytes.t;
  mutable initmap : Bytes.t;
  mutable uninit_count : int;
  mutable frag_ptr : Value.pointer array;
      (* parallel to [data]; entry meaningful only where [frag_idx] <> 255.
         [||] until the first pointer is stored in this allocation. *)
  mutable frag_idx : Bytes.t;  (* fragment index per byte; '\255' = none *)
  mutable frag_count : int;
  mutable buckets : bucket option array;
  (* Pre-racing fast path: before a second thread exists, every access is by
     thread 0 and [Vclock.set] just overwrites thread 0's epoch — so the
     whole bucket collapses to "last write epoch, last read epoch" per
     granule, two plain int stores instead of bucket records and clock
     updates. 0 = never accessed. A real bucket, seeded from these (a clock
     [{0: e}] per nonzero epoch, exactly what eager recording would have
     built), materializes lazily on the first atomic access or once racing
     is latched; a materialized bucket then owns the granule and the flat
     entries go stale. [||] until first accessed. *)
  mutable nw_epoch : int array;
  mutable nr_epoch : int array;
}

type allocation = {
  id : int;
  base : int;
  size : int;
  align : int;
  kind : alloc_kind;
  mutable live : bool;
  store : store;
  borrows : Borrow.t;
  base_tag : int;
  mutable exposed : bool;
}

type access_error =
  | Dead of string
  | Oob of string
  | No_alloc of string
  | Misaligned of string
  | Borrow_bad of Borrow.violation
  | Race of string
  | Not_exposed of string

(* One growable array indexes every allocation ever made, and it serves
   both lookups at once: ids are handed out densely from 1 in allocation
   order, so [index.(id - 1)] is the id lookup, and bases are handed out
   monotonically and never reused, so the same array is base-sorted and
   wildcard address resolution is a binary search. Dead allocations stay in
   the index so use-after-free keeps its precise diagnostic.

   [racing] starts false and is latched on by the interpreter when a second
   thread is spawned. While it is off, race buckets still record epochs
   (later diagnostics print whole bucket clocks, which may include pre-spawn
   accesses) but skip the conflict checks: a single thread cannot race, and
   any thread spawned later inherits the spawner's clock, which dominates
   every pre-spawn access. *)
type t = {
  mutable next_addr : int;
  mutable next_id : int;
  mutable index : allocation array;  (* sorted by base; length [index_len] *)
  mutable index_len : int;
  mutable racing : bool;
}

let create () =
  { next_addr = 0x1001; next_id = 1; index = [||]; index_len = 0;
    racing = false }

let set_racing t = t.racing <- true

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let fresh_store size =
  { data = Bytes.create size;
    initmap = Bytes.make ((size + 7) / 8) '\000';
    uninit_count = size;
    frag_ptr = [||];
    frag_idx = Bytes.empty;
    frag_count = 0;
    buckets = [||];
    nw_epoch = [||];
    nr_epoch = [||] }

let index_append t a =
  let cap = Array.length t.index in
  if t.index_len = cap then begin
    let bigger = Array.make (max 64 (2 * cap)) a in
    Array.blit t.index 0 bigger 0 t.index_len;
    t.index <- bigger
  end;
  t.index.(t.index_len) <- a;
  t.index_len <- t.index_len + 1

let allocate t ~size ~align ~kind =
  if size < 0 then invalid_arg "Mem.allocate: negative size";
  if not (is_power_of_two align) then invalid_arg "Mem.allocate: bad alignment";
  let base = Layout.round_up t.next_addr align in
  (* Guard gap so off-by-one pointers never fall into a neighbour. The odd
     37 also prevents low-alignment allocations from accidentally landing on
     8-byte boundaries, which would mask unaligned-access UB. *)
  t.next_addr <- base + size + 37;
  let id = t.next_id in
  t.next_id <- id + 1;
  let base_tag = Borrow.fresh_tag () in
  let a =
    { id; base; size; align; kind; live = true;
      store = fresh_store size;
      borrows = Borrow.create ~base_tag; base_tag; exposed = false }
  in
  index_append t a;
  a

let deallocate _t a =
  a.live <- false;
  (* Dead allocations are unreachable for every further access (the Dead
     check fires before any race/borrow/data consultation), so their race
     metadata would only leak across a campaign. Drop it now. *)
  a.store.buckets <- [||];
  a.store.nw_epoch <- [||];
  a.store.nr_epoch <- [||]

let find_alloc t id =
  if id >= 1 && id <= t.index_len then Some t.index.(id - 1) else None

let alloc_containing t addr =
  (* Greatest base <= addr, then the containment check. Ranges are disjoint
     (guard gaps, addresses never reused), so this finds the unique candidate
     the old newest-first linear scan would have found. Zero-size allocations
     claim one byte ([max size 1]) exactly as before. *)
  let arr = t.index in
  let n = t.index_len in
  if n = 0 then None
  else begin
    let lo = ref 0 and hi = ref n in
    (* invariant: arr.(i).base <= addr for i < lo; > addr for i >= hi *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid).base <= addr then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then None
    else
      let a = arr.(!lo - 1) in
      if addr < a.base + max a.size 1 then Some a else None
  end

let live_heap_allocations t =
  (* newest-first, as the leak check's diagnostic order depends on it *)
  let out = ref [] in
  for i = 0 to t.index_len - 1 do
    let a = t.index.(i) in
    if a.live && a.kind = Heap then out := a :: !out
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Packed-store primitives *)

let init_get s i =
  Char.code (Bytes.unsafe_get s.initmap (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_init s i =
  let j = i lsr 3 in
  let m = 1 lsl (i land 7) in
  let c = Char.code (Bytes.unsafe_get s.initmap j) in
  if c land m = 0 then begin
    Bytes.unsafe_set s.initmap j (Char.unsafe_chr (c lor m));
    s.uninit_count <- s.uninit_count - 1
  end

let clear_init s i =
  let j = i lsr 3 in
  let m = 1 lsl (i land 7) in
  let c = Char.code (Bytes.unsafe_get s.initmap j) in
  if c land m <> 0 then begin
    Bytes.unsafe_set s.initmap j (Char.unsafe_chr (c land lnot m));
    s.uninit_count <- s.uninit_count + 1
  end

let popcount8 n =
  let n = n - ((n lsr 1) land 0x55) in
  let n = (n land 0x33) + ((n lsr 2) land 0x33) in
  (n + (n lsr 4)) land 0x0F

let set_init_range s ~offset ~len =
  if s.uninit_count > 0 then
    if len = 8 && offset land 7 = 0 then begin
      (* whole bitmap byte: the overwhelmingly common 8-byte aligned store *)
      let j = offset lsr 3 in
      let c = Char.code (Bytes.unsafe_get s.initmap j) in
      if c <> 0xFF then begin
        Bytes.unsafe_set s.initmap j '\xFF';
        s.uninit_count <- s.uninit_count - popcount8 (0xFF lxor c)
      end
    end
    else for i = offset to offset + len - 1 do set_init s i done

let range_fully_init s ~offset ~len =
  s.uninit_count = 0
  || (len = 8 && offset land 7 = 0
      && Char.code (Bytes.unsafe_get s.initmap (offset lsr 3)) = 0xFF)
  ||
  let rec go i = i >= offset + len || (init_get s i && go (i + 1)) in
  go offset

let no_frag = '\255'

let ensure_frags s =
  if Array.length s.frag_ptr = 0 then begin
    let size = Bytes.length s.data in
    s.frag_ptr <- Array.make size Value.null_pointer;
    s.frag_idx <- Bytes.make size no_frag
  end

let frag_at s i =
  if s.frag_count = 0 then None
  else
    let c = Bytes.unsafe_get s.frag_idx i in
    if c = no_frag then None else Some (s.frag_ptr.(i), Char.code c)

let frag_remove s i =
  if s.frag_count > 0 && Bytes.unsafe_get s.frag_idx i <> no_frag then begin
    Bytes.unsafe_set s.frag_idx i no_frag;
    s.frag_count <- s.frag_count - 1
  end

let frag_set s i p idx =
  ensure_frags s;
  if Bytes.unsafe_get s.frag_idx i = no_frag then s.frag_count <- s.frag_count + 1;
  Bytes.unsafe_set s.frag_idx i (Char.unsafe_chr idx);
  s.frag_ptr.(i) <- p

let clear_frags_range s ~offset ~len =
  if s.frag_count > 0 then
    for i = offset to offset + len - 1 do frag_remove s i done

(* ------------------------------------------------------------------ *)
(* Race metadata *)

let fresh_bucket () =
  { na_write = Vclock.empty; na_read = Vclock.empty; at_write = Vclock.empty;
    at_read = Vclock.empty; sync = Vclock.empty }

let bucket_of a idx =
  let s = a.store in
  let n = Array.length s.buckets in
  if idx >= n then begin
    (* grow once to the allocation's full granule count: sizes are small and
       this keeps every later access a plain array index *)
    let needed = max (idx + 1) ((a.size + 7) / 8) in
    let bigger = Array.make needed None in
    Array.blit s.buckets 0 bigger 0 n;
    s.buckets <- bigger
  end;
  match s.buckets.(idx) with
  | Some b -> b
  | None ->
    let b = fresh_bucket () in
    (* seed from the pre-racing flat epochs: the clock eager recording
       would have left is exactly {0: last-epoch} per nonzero class *)
    (if Array.length s.nw_epoch > idx then begin
       let w = s.nw_epoch.(idx) in
       if w > 0 then b.na_write <- Vclock.set Vclock.empty 0 w;
       let r = s.nr_epoch.(idx) in
       if r > 0 then b.na_read <- Vclock.set Vclock.empty 0 r
     end);
    s.buckets.(idx) <- Some b;
    b

(* Top-level (not nested in [race_check]) so the per-access hot path does
   not allocate closure blocks. *)
let conflict vc ~clock ~tid ~write what =
  if not (Vclock.leq vc clock) then
    Some (Printf.sprintf
            "conflicting %s: earlier access %s not ordered before thread %d's %s"
            what (Vclock.to_string vc) tid
            (if write then "write" else "read"))
  else None

(* [check] is false until the interpreter latches racing on (second thread
   spawned): a single thread cannot conflict with itself, so the leq checks
   are skipped — but epochs are still RECORDED, because race diagnostics
   print the whole bucket clock and a pre-spawn epoch can legitimately
   appear in a later message. Recording is cheap in steady state: an
   unchanged epoch returns the clock physically unchanged. *)
let check_bucket b ~tid ~clock ~write ~atomic ~check =
  let issue =
    if not check then None
    else if atomic then
      if write then
        match conflict b.na_write ~clock ~tid ~write "non-atomic write vs atomic write" with
        | Some _ as s -> s
        | None -> conflict b.na_read ~clock ~tid ~write "non-atomic read vs atomic write"
      else conflict b.na_write ~clock ~tid ~write "non-atomic write vs atomic read"
    else if write then
      match conflict b.na_write ~clock ~tid ~write "write-after-write" with
      | Some _ as s -> s
      | None -> (
        match conflict b.na_read ~clock ~tid ~write "write-after-read" with
        | Some _ as s -> s
        | None -> (
          match conflict b.at_write ~clock ~tid ~write "write vs atomic write" with
          | Some _ as s -> s
          | None -> conflict b.at_read ~clock ~tid ~write "write vs atomic read"))
    else
      match conflict b.na_write ~clock ~tid ~write "read-after-write" with
      | Some _ as s -> s
      | None -> conflict b.at_write ~clock ~tid ~write "read vs atomic write"
  in
  match issue with
  | Some msg -> Error msg
  | None ->
    (* [Vclock.set] with an unchanged epoch returns the map unchanged
       (physically), so steady-state marking does not allocate *)
    let epoch = Vclock.get clock tid in
    (if atomic then
       if write then begin
         b.at_write <- Vclock.set b.at_write tid epoch;
         b.sync <- Vclock.merge b.sync clock
       end
       else b.at_read <- Vclock.set b.at_read tid epoch
     else if write then b.na_write <- Vclock.set b.na_write tid epoch
     else b.na_read <- Vclock.set b.na_read tid epoch);
    Ok ()

let rec check_buckets a idx last ~tid ~clock ~write ~atomic ~check =
  if idx > last then Ok ()
  else
    match check_bucket (bucket_of a idx) ~tid ~clock ~write ~atomic ~check with
    | Ok () -> check_buckets a (idx + 1) last ~tid ~clock ~write ~atomic ~check
    | Error _ as e -> e

(* Pre-racing non-atomic recording: two int stores per granule. A granule
   whose bucket already materialized (an atomic access touched it) records
   into the bucket so the later seed does not clobber it. *)
let rec record_flat a idx last ~tid ~write ~epoch =
  if idx <= last then begin
    let s = a.store in
    (match if Array.length s.buckets > idx then s.buckets.(idx) else None with
    | Some b ->
      if write then b.na_write <- Vclock.set b.na_write tid epoch
      else b.na_read <- Vclock.set b.na_read tid epoch
    | None ->
      if Array.length s.nw_epoch = 0 then begin
        let n = max (last + 1) ((a.size + 7) / 8) in
        s.nw_epoch <- Array.make n 0;
        s.nr_epoch <- Array.make n 0
      end;
      if write then s.nw_epoch.(idx) <- epoch else s.nr_epoch.(idx) <- epoch);
    record_flat a (idx + 1) last ~tid ~write ~epoch
  end

let race_check t a ~offset ~len ~tid ~clock ~write ~atomic =
  if len <= 0 then Ok ()
  else begin
    let first = offset / 8 and last = (offset + len - 1) / 8 in
    if (not t.racing) && not atomic then begin
      record_flat a first last ~tid ~write ~epoch:(Vclock.get clock tid);
      Ok ()
    end
    else check_buckets a first last ~tid ~clock ~write ~atomic ~check:t.racing
  end

let sync_clock_of _t a offset = (bucket_of a (offset / 8)).sync

(* ------------------------------------------------------------------ *)
(* Access validation *)

(* Top-level helpers (not closures over [ptr]): without flambda every
   closure that captures a variable is a heap block per access. *)
let fail_no_alloc (ptr : Value.pointer) =
  if ptr.Value.addr = 0 then Error (No_alloc "null pointer dereference")
  else Error (No_alloc (Printf.sprintf "no allocation at address %d" ptr.Value.addr))

let check_resolved t a ~(ptr : Value.pointer) ~len ~align ~write ~tid ~clock ~atomic =
  if not a.live then
    Error
      (Dead
         (Printf.sprintf "use of deallocated memory (allocation %d at address %d)"
            a.id ptr.Value.addr))
  else begin
    let offset = ptr.Value.addr - a.base in
    if offset < 0 || offset + len > a.size then
      Error
        (Oob
           (Printf.sprintf
              "out-of-bounds access: %d bytes at offset %d of %d-byte allocation %d"
              len offset a.size a.id))
    else if align > 1 && ptr.Value.addr mod align <> 0 then
      Error
        (Misaligned
           (Printf.sprintf "address %d is not aligned to %d bytes" ptr.Value.addr align))
    else if len = 0 then Ok (a, offset, [])
    else
      match Borrow.access a.borrows ~tag:ptr.Value.tag ~write with
      | Error v -> Error (Borrow_bad v)
      | Ok popped -> (
        match race_check t a ~offset ~len ~tid ~clock ~write ~atomic with
        | Error msg -> Error (Race msg)
        | Ok () -> Ok (a, offset, popped))
  end

let check_access t ~(ptr : Value.pointer) ~len ~align ~write ~tid ~clock ~atomic =
  match ptr.Value.prov with
  | Value.P_alloc id ->
    if id >= 1 && id <= t.index_len then
      check_resolved t t.index.(id - 1) ~ptr ~len ~align ~write ~tid ~clock ~atomic
    else fail_no_alloc ptr
  | Value.P_wild -> (
    match alloc_containing t ptr.Value.addr with
    | None -> fail_no_alloc ptr
    | Some a ->
      if a.exposed then check_resolved t a ~ptr ~len ~align ~write ~tid ~clock ~atomic
      else
        Error
          (Not_exposed
             (Printf.sprintf
                "wildcard pointer into allocation %d whose address was never exposed"
                a.id)))
  | Value.P_fn _ -> Error (No_alloc "data access through a function pointer")
  | Value.P_none -> fail_no_alloc ptr

(* ------------------------------------------------------------------ *)
(* Byte view (tests, transmute boundary) *)

let byte_at s i =
  if not (init_get s i) then B_uninit
  else
    match frag_at s i with
    | Some (p, idx) -> B_frag (p, idx)
    | None -> B_int (Char.code (Bytes.get s.data i))

let write_byte s i = function
  | B_uninit ->
    frag_remove s i;
    clear_init s i
  | B_int n ->
    frag_remove s i;
    Bytes.set s.data i (Char.chr (n land 0xFF));
    set_init s i
  | B_frag ((p : Value.pointer), idx) ->
    Bytes.set s.data i (Char.chr ((p.Value.addr lsr (8 * idx)) land 0xFF));
    frag_set s i p idx;
    set_init s i

let read_bytes a ~offset ~len = Array.init len (fun i -> byte_at a.store (offset + i))

let write_bytes a ~offset bytes =
  Array.iteri (fun i b -> write_byte a.store (offset + i) b) bytes

let expose t (ptr : Value.pointer) =
  match ptr.prov with
  | Value.P_alloc id -> (
    match find_alloc t id with Some a -> a.exposed <- true | None -> ())
  | Value.P_wild -> (
    match alloc_containing t ptr.addr with Some a -> a.exposed <- true | None -> ())
  | Value.P_fn _ | Value.P_none -> ()

let retag t ~(ptr : Value.pointer) ~perm =
  let open Value in
  match ptr.prov with
  | P_alloc id -> (
    match find_alloc t id with
    | None -> Error (No_alloc "retag of pointer to unknown allocation")
    | Some a ->
      if not a.live then Error (Dead "retag of pointer into deallocated memory")
      else (
        match Borrow.retag a.borrows ~parent:ptr.tag perm with
        | Error v -> Error (Borrow_bad v)
        | Ok (tag, popped) -> Ok ({ ptr with tag = Some tag }, popped)))
  | P_wild -> (
    match alloc_containing t ptr.addr with
    | None -> Error (No_alloc "retag of wildcard pointer outside any allocation")
    | Some a ->
      if not a.live then Error (Dead "retag of wildcard pointer into dead memory")
      else if not a.exposed then
        Error (Not_exposed "retag of wildcard pointer into a never-exposed allocation")
      else (
        match Borrow.retag a.borrows ~parent:None perm with
        | Error v -> Error (Borrow_bad v)
        | Ok (tag, popped) ->
          Ok ({ prov = P_alloc a.id; addr = ptr.addr; tag = Some tag }, popped)))
  | P_fn _ -> Error (No_alloc "retag of a function pointer")
  | P_none -> Error (No_alloc "retag of a pointer without provenance")

(* ------------------------------------------------------------------ *)
(* Typed encoding — pure byte-array form (transmute, tests) *)

let encode_int64 value len =
  Array.init len (fun i ->
      B_int (Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * i)) 0xFFL)))

let encode_pointer (ptr : Value.pointer) =
  Array.init 8 (fun i -> B_frag (ptr, i))

let width_len = function
  | Ast.I8 -> 1
  | Ast.I16 -> 2
  | Ast.I32 -> 4
  | Ast.I64 | Ast.Usize -> 8

let rec encode program ~fn_addr (ty : Ast.ty) (v : Value.t) : byte array =
  let open Value in
  match (ty, v) with
  | Ast.T_unit, _ -> [||]
  | Ast.T_bool, V_bool b -> [| B_int (if b then 1 else 0) |]
  | Ast.T_int w, V_int (n, _) -> encode_int64 n (width_len w)
  | (Ast.T_ref _ | Ast.T_raw _), V_ptr (p, _) -> encode_pointer p
  | Ast.T_fn _, V_ptr (p, _) -> encode_pointer p
  | Ast.T_fn _, V_fn (name, _) -> encode_pointer (fn_addr name)
  | Ast.T_handle, V_handle h -> encode_int64 (Int64.of_int h) 8
  | Ast.T_array (elem, n), V_array vs ->
    let elem_size = Layout.size_of program elem in
    let out = Array.make (elem_size * n) B_uninit in
    List.iteri
      (fun i v ->
        Array.blit (encode program ~fn_addr elem v) 0 out (i * elem_size) elem_size)
      vs;
    out
  | Ast.T_tuple ts, V_tuple vs ->
    let out = Array.make (Layout.size_of program ty) B_uninit in
    List.iter2
      (fun (t, off) v ->
        let enc = encode program ~fn_addr t v in
        Array.blit enc 0 out off (Array.length enc))
      (List.combine ts (Layout.tuple_offsets program ts))
      vs;
    out
  | Ast.T_union _, V_bytes bytes ->
    Array.map (function Some n -> B_int n | None -> B_uninit) bytes
  | _ ->
    (* A value/type mismatch is an interpreter invariant violation, not a
       program UB: the typechecker rules it out. *)
    invalid_arg
      (Printf.sprintf "Mem.encode: cannot encode %s at type %s" (Value.to_display v)
         (Pretty.ty ty))

let byte_as_int = function
  | B_int n -> Some n
  | B_frag (ptr, i) -> Some ((ptr.Value.addr lsr (8 * i)) land 0xFF)
  | B_uninit -> None

let decode_int bytes =
  let n = Array.length bytes in
  let rec go i acc =
    if i >= n then Ok acc
    else
      match byte_as_int bytes.(i) with
      | None -> Error "read of uninitialized memory"
      | Some b -> go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int b) (8 * i)))
  in
  go 0 0L

let sign_extend value bits =
  if bits >= 64 then value
  else
    let shift = 64 - bits in
    Int64.shift_right (Int64.shift_left value shift) shift

let decode_pointer bytes =
  (* Preserved provenance requires all 8 bytes to be consecutive fragments of
     the same pointer. Anything else reconstructs a wildcard address. *)
  let all_frags =
    Array.for_all (function B_frag _ -> true | B_int _ | B_uninit -> false) bytes
  in
  if all_frags && Array.length bytes = 8 then begin
    match bytes.(0) with
    | B_frag (p0, 0) ->
      let consistent = ref true in
      Array.iteri
        (fun i b ->
          match b with
          | B_frag (p, idx) when idx = i && p = p0 -> ()
          | B_frag _ | B_int _ | B_uninit -> consistent := false)
        bytes;
      if !consistent then Ok p0
      else
        Result.map
          (fun addr -> Value.{ prov = P_wild; addr = Int64.to_int addr; tag = None })
          (decode_int bytes)
    | B_frag _ | B_int _ | B_uninit ->
      Result.map
        (fun addr -> Value.{ prov = P_wild; addr = Int64.to_int addr; tag = None })
        (decode_int bytes)
  end
  else
    Result.map
      (fun addr -> Value.{ prov = P_wild; addr = Int64.to_int addr; tag = None })
      (decode_int bytes)

let rec decode program (ty : Ast.ty) (bytes : byte array) :
    (Value.t, string) result =
  let open Value in
  match ty with
  | Ast.T_unit -> Ok V_unit
  | Ast.T_bool -> (
    match byte_as_int bytes.(0) with
    | None -> Error "read of uninitialized memory at type bool"
    | Some 0 -> Ok (V_bool false)
    | Some 1 -> Ok (V_bool true)
    | Some n -> Error (Printf.sprintf "invalid bool byte %d (must be 0 or 1)" n))
  | Ast.T_int w -> (
    match decode_int bytes with
    | Error e -> Error e
    | Ok raw ->
      let bits = 8 * width_len w in
      let v = match w with Ast.Usize -> raw | _ -> sign_extend raw bits in
      Ok (V_int (v, w)))
  | Ast.T_raw _ -> (
    match decode_pointer bytes with
    | Error e -> Error e
    | Ok p -> Ok (V_ptr (p, ty)))
  | Ast.T_ref _ -> (
    match decode_pointer bytes with
    | Error e -> Error e
    | Ok p ->
      if p.addr = 0 then Error "constructed an invalid value: null reference"
      else Ok (V_ptr (p, ty)))
  | Ast.T_fn _ -> (
    match decode_pointer bytes with
    | Error e -> Error e
    | Ok p -> Ok (V_ptr (p, ty)))
  | Ast.T_handle -> (
    match decode_int bytes with
    | Error e -> Error e
    | Ok raw -> Ok (V_handle (Int64.to_int raw)))
  | Ast.T_array (elem, n) ->
    let elem_size = Layout.size_of program elem in
    let rec go i acc =
      if i >= n then Ok (V_array (List.rev acc))
      else
        match decode program elem (Array.sub bytes (i * elem_size) elem_size) with
        | Error e -> Error e
        | Ok v -> go (i + 1) (v :: acc)
    in
    go 0 []
  | Ast.T_tuple ts ->
    let offsets = Layout.tuple_offsets program ts in
    let rec go ts offs acc =
      match (ts, offs) with
      | [], [] -> Ok (V_tuple (List.rev acc))
      | t :: ts', off :: offs' -> (
        match decode program t (Array.sub bytes off (Layout.size_of program t)) with
        | Error e -> Error e
        | Ok v -> go ts' offs' (v :: acc))
      | _ -> Error "internal: tuple arity mismatch"
    in
    go ts offsets []
  | Ast.T_union _ ->
    Ok (V_bytes (Array.map byte_as_int bytes))

(* ------------------------------------------------------------------ *)
(* Typed access straight on the packed store — the interpreter hot path.
   These must produce exactly the values and error strings the byte-array
   [encode]/[decode] pair would: the golden-corpus test holds them to it. *)

let read_raw_int s ~offset ~len =
  if range_fully_init s ~offset ~len then
    if len = 8 then Some (Bytes.get_int64_le s.data offset)
    else begin
      let rec go i acc =
        if i >= len then acc
        else
          go (i + 1)
            (Int64.logor acc
               (Int64.shift_left
                  (Int64.of_int (Char.code (Bytes.unsafe_get s.data (offset + i))))
                  (8 * i)))
      in
      Some (go 0 0L)
    end
  else None

let read_raw_wildcard s ~offset =
  match read_raw_int s ~offset ~len:8 with
  | None -> Error "read of uninitialized memory"
  | Some addr -> Ok Value.{ prov = P_wild; addr = Int64.to_int addr; tag = None }

let read_raw_pointer s ~offset =
  (* Mirrors [decode_pointer]: provenance survives only when all 8 bytes are
     consecutive fragments of one pointer; otherwise the payload bytes (which
     for fragments are exactly the address bytes) rebuild a wildcard. The
     common case — a pointer stored whole, read whole — is 8 unhashed array
     probes and one physical-equality chain. *)
  if s.frag_count >= 8 && Bytes.unsafe_get s.frag_idx offset = '\000' then begin
    let p0 = s.frag_ptr.(offset) in
    let rec all i =
      i >= 8
      || (Char.code (Bytes.unsafe_get s.frag_idx (offset + i)) = i
          && (let p = s.frag_ptr.(offset + i) in
              p == p0 || p = p0)
          && all (i + 1))
    in
    if all 1 then Ok p0 else read_raw_wildcard s ~offset
  end
  else read_raw_wildcard s ~offset

let rec read_value program (a : allocation) ~offset (ty : Ast.ty) :
    (Value.t, string) result =
  let open Value in
  let s = a.store in
  match ty with
  | Ast.T_unit -> Ok V_unit
  | Ast.T_bool ->
    if not (init_get s offset) then Error "read of uninitialized memory at type bool"
    else (
      match Char.code (Bytes.unsafe_get s.data offset) with
      | 0 -> Ok (V_bool false)
      | 1 -> Ok (V_bool true)
      | n -> Error (Printf.sprintf "invalid bool byte %d (must be 0 or 1)" n))
  | Ast.T_int ((Ast.I64 | Ast.Usize) as w) when range_fully_init s ~offset ~len:8 ->
    (* the common 8-byte read, without [read_raw_int]'s intermediate option *)
    Ok (V_int (Bytes.get_int64_le s.data offset, w))
  | Ast.T_int w -> (
    let len = width_len w in
    match read_raw_int s ~offset ~len with
    | None -> Error "read of uninitialized memory"
    | Some raw ->
      let v = match w with Ast.Usize -> raw | _ -> sign_extend raw (8 * len) in
      Ok (V_int (v, w)))
  | Ast.T_raw _ -> (
    match read_raw_pointer s ~offset with
    | Error e -> Error e
    | Ok p -> Ok (V_ptr (p, ty)))
  | Ast.T_ref _ -> (
    match read_raw_pointer s ~offset with
    | Error e -> Error e
    | Ok p ->
      if p.addr = 0 then Error "constructed an invalid value: null reference"
      else Ok (V_ptr (p, ty)))
  | Ast.T_fn _ -> (
    match read_raw_pointer s ~offset with
    | Error e -> Error e
    | Ok p -> Ok (V_ptr (p, ty)))
  | Ast.T_handle -> (
    match read_raw_int s ~offset ~len:8 with
    | None -> Error "read of uninitialized memory"
    | Some raw -> Ok (V_handle (Int64.to_int raw)))
  | Ast.T_array (elem, n) ->
    let elem_size = Layout.size_of program elem in
    let rec go i acc =
      if i >= n then Ok (V_array (List.rev acc))
      else
        match read_value program a ~offset:(offset + (i * elem_size)) elem with
        | Error e -> Error e
        | Ok v -> go (i + 1) (v :: acc)
    in
    go 0 []
  | Ast.T_tuple ts ->
    let offsets = Layout.tuple_offsets program ts in
    let rec go ts offs acc =
      match (ts, offs) with
      | [], [] -> Ok (V_tuple (List.rev acc))
      | t :: ts', off :: offs' -> (
        match read_value program a ~offset:(offset + off) t with
        | Error e -> Error e
        | Ok v -> go ts' offs' (v :: acc))
      | _ -> Error "internal: tuple arity mismatch"
    in
    go ts offsets []
  | Ast.T_union _ ->
    let size = Layout.size_of program ty in
    Ok
      (V_bytes
         (Array.init size (fun i ->
              if init_get s (offset + i) then
                Some (Char.code (Bytes.get s.data (offset + i)))
              else None)))

let write_raw_int s ~offset ~len v =
  clear_frags_range s ~offset ~len;
  if len = 8 then Bytes.set_int64_le s.data offset v
  else
    for i = 0 to len - 1 do
      Bytes.unsafe_set s.data (offset + i)
        (Char.unsafe_chr
           (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
    done;
  set_init_range s ~offset ~len

let write_raw_pointer s ~offset (p : Value.pointer) =
  ensure_frags s;
  (* the payload of a stored pointer is its address bytes, so integer reads
     of pointer memory never need the fragment table *)
  Bytes.set_int64_le s.data offset (Int64.of_int p.Value.addr);
  for i = 0 to 7 do
    let j = offset + i in
    if Bytes.unsafe_get s.frag_idx j = no_frag then
      s.frag_count <- s.frag_count + 1;
    Bytes.unsafe_set s.frag_idx j (Char.unsafe_chr i);
    s.frag_ptr.(j) <- p
  done;
  set_init_range s ~offset ~len:8

let mark_uninit_range s ~offset ~len =
  clear_frags_range s ~offset ~len;
  for i = offset to offset + len - 1 do clear_init s i done

let rec write_value program ~fn_addr (a : allocation) ~offset (ty : Ast.ty)
    (v : Value.t) : unit =
  let open Value in
  let s = a.store in
  match (ty, v) with
  | Ast.T_unit, _ -> ()
  | Ast.T_bool, V_bool b -> write_raw_int s ~offset ~len:1 (if b then 1L else 0L)
  | Ast.T_int w, V_int (n, _) -> write_raw_int s ~offset ~len:(width_len w) n
  | (Ast.T_ref _ | Ast.T_raw _), V_ptr (p, _) -> write_raw_pointer s ~offset p
  | Ast.T_fn _, V_ptr (p, _) -> write_raw_pointer s ~offset p
  | Ast.T_fn _, V_fn (name, _) -> write_raw_pointer s ~offset (fn_addr name)
  | Ast.T_handle, V_handle h -> write_raw_int s ~offset ~len:8 (Int64.of_int h)
  | Ast.T_array (elem, n), V_array vs ->
    let elem_size = Layout.size_of program elem in
    (* the byte-array encoder starts from all-uninit, so missing/padding
       bytes must end up uninitialized here too *)
    mark_uninit_range s ~offset ~len:(elem_size * n);
    List.iteri
      (fun i v -> write_value program ~fn_addr a ~offset:(offset + (i * elem_size)) elem v)
      vs
  | Ast.T_tuple ts, V_tuple vs ->
    mark_uninit_range s ~offset ~len:(Layout.size_of program ty);
    List.iter2
      (fun (t, off) v -> write_value program ~fn_addr a ~offset:(offset + off) t v)
      (List.combine ts (Layout.tuple_offsets program ts))
      vs
  | Ast.T_union _, V_bytes bytes ->
    Array.iteri
      (fun i ob ->
        match ob with
        | Some n ->
          frag_remove s (offset + i);
          Bytes.set s.data (offset + i) (Char.chr (n land 0xFF));
          set_init s (offset + i)
        | None ->
          frag_remove s (offset + i);
          clear_init s (offset + i))
      bytes
  | _ ->
    invalid_arg
      (Printf.sprintf "Mem.encode: cannot encode %s at type %s" (Value.to_display v)
         (Pretty.ty ty))
