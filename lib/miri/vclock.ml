(* Sorted-by-tid immutable pair array. Thread counts are tiny (the corpus
   tops out at a handful), so linear scans beat a balanced map and, more
   importantly, the race-detector hot path ([set] with an unchanged epoch,
   [merge] with a dominated side) returns its argument physically instead of
   rebuilding map spines — steady-state race checking allocates nothing. *)

type t = (int * int) array

let empty : t = [||]

(* The scans below are top-level recursive functions, not local closures:
   without flambda a closure capturing [c]/[tid] is a heap block per call,
   and [get]/[set]/[leq] run on every racing access. *)
let rec get_from (c : t) n tid i =
  if i >= n then 0
  else
    let t, e = Array.unsafe_get c i in
    if t = tid then e else if t > tid then 0 else get_from c n tid (i + 1)

let get (c : t) tid = get_from c (Array.length c) tid 0

let rec index_of (c : t) n tid i =
  if i >= n then -1
  else
    let t, _ = Array.unsafe_get c i in
    if t = tid then i else if t > tid then -1 else index_of c n tid (i + 1)

let set (c : t) tid v =
  let n = Array.length c in
  let i = index_of c n tid 0 in
  if i >= 0 then
    if snd c.(i) = v then c  (* unchanged: physically the same clock *)
    else begin
      let out = Array.copy c in
      out.(i) <- (tid, v);
      out
    end
  else begin
    let out = Array.make (n + 1) (tid, v) in
    let rec fill src dst =
      if src < n then
        let ((t, _) as p) = c.(src) in
        if t < tid then begin
          out.(dst) <- p;
          fill (src + 1) (dst + 1)
        end
        else begin
          (* out.(dst) already holds (tid, v) *)
          Array.blit c src out (dst + 1) (n - src)
        end
    in
    fill 0 0;
    out
  end

let tick c tid = set c tid (get c tid + 1)

let merge (a : t) (b : t) =
  if a == b || Array.length b = 0 then a
  else if Array.length a = 0 then b
  else begin
    let na = Array.length a and nb = Array.length b in
    (* count the merged size, and whether one side already dominates *)
    let rec count i j n a_covers b_covers =
      if i >= na && j >= nb then (n, a_covers, b_covers)
      else if j >= nb then (n + (na - i), a_covers, false)
      else if i >= na then (n + (nb - j), false, b_covers)
      else
        let ta, ea = a.(i) and tb, eb = b.(j) in
        if ta = tb then
          count (i + 1) (j + 1) (n + 1) (a_covers && ea >= eb) (b_covers && eb >= ea)
        else if ta < tb then count (i + 1) j (n + 1) a_covers false
        else count i (j + 1) (n + 1) false b_covers
    in
    let n, a_covers, b_covers = count 0 0 0 true true in
    if a_covers then a
    else if b_covers then b
    else begin
      let out = Array.make n (0, 0) in
      let rec fill i j k =
        if i >= na then Array.blit b j out k (nb - j)
        else if j >= nb then Array.blit a i out k (na - i)
        else
          let ((ta, ea) as pa) = a.(i) and ((tb, eb) as pb) = b.(j) in
          if ta = tb then begin
            out.(k) <- (if ea >= eb then pa else pb);
            fill (i + 1) (j + 1) (k + 1)
          end
          else if ta < tb then begin
            out.(k) <- pa;
            fill (i + 1) j (k + 1)
          end
          else begin
            out.(k) <- pb;
            fill i (j + 1) (k + 1)
          end
      in
      fill 0 0 0;
      out
    end
  end

(* both sorted: advance through b once instead of a search per entry *)
let rec leq_from (a : t) na (b : t) nb i j =
  i >= na
  ||
  let ta, ea = Array.unsafe_get a i in
  if j >= nb then ea <= 0 && leq_from a na b nb (i + 1) j
  else
    let tb, eb = Array.unsafe_get b j in
    if tb < ta then leq_from a na b nb i (j + 1)
    else if tb = ta then ea <= eb && leq_from a na b nb (i + 1) (j + 1)
    else ea <= 0 && leq_from a na b nb (i + 1) j

let leq (a : t) (b : t) =
  a == b || leq_from a (Array.length a) b (Array.length b) 0 0

let to_string (c : t) =
  let entries =
    Array.to_list c |> List.map (fun (tid, e) -> Printf.sprintf "%d:%d" tid e)
  in
  "{" ^ String.concat ", " entries ^ "}"
