(* Every input a run uses. The serve jobs derive from --seed alone; the
   campaign's inputs are fixed (see [campaign]). The program under test
   only ever sees the generated inputs. *)

type workload = Campaign | Serve_burst

let of_name = function
  | "campaign" -> Some Campaign
  | "serve-burst" -> Some Serve_burst
  | _ -> None

type campaign = { cases : Dataset.Case.t list; seeds : int list }

(* The campaign workload runs fixed inputs: the corpus in its own order
   over campaign seeds 1..4, whatever --seed says. One case decides that: dr_flag_spin's repair costs 0 to 0.5 s
   depending on the session's RNG stream (both the campaign seed and the
   case order move it), against about 0.4 ms for a typical case, so a
   seeded case order or seed set swings a call's wall time by 2-5x and no
   run length averages that out. *)
let campaign (_ : int) = { cases = Dataset.Corpus.all; seeds = [ 1; 2; 3; 4 ] }

(* -- serve ------------------------------------------------------------- *)

let rng seed salt = Rb_util.Rng.create ((seed * 1_000_003) + salt)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rb_util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type job = {
  idx : int;                (* position in the workload's job stream *)
  tenant : string;
  case_names : string list; (* 1-4 cases, rotating through the corpus *)
  job_seed : int;           (* the job's single campaign seed *)
}

let tenants = [| "acme"; "zenith" |]

(* An endless-enough stream of jobs: sizes come in shuffled blocks of
   {1,2,3,4}, so every four jobs hold ten cases whatever the seed, and the
   case names rotate through a seeded order of the corpus. *)
let jobs seed n =
  let r = rng seed 2 in
  let order = Array.of_list (shuffle r Dataset.Corpus.all) in
  let next = ref 0 in
  let take k =
    List.init k (fun _ ->
        let c = order.(!next mod Array.length order) in
        incr next;
        c.Dataset.Case.name)
  in
  let sizes = ref [] in
  List.init n (fun idx ->
      if !sizes = [] then sizes := shuffle r [ 1; 2; 3; 4 ];
      let k = List.hd !sizes in
      sizes := List.tl !sizes;
      let case_names = take k in
      { idx; tenant = tenants.(idx mod 2); case_names;
        job_seed = 1 + Rb_util.Rng.int r 999_999 })

(* The opts a serve job carries, and the runner the reference uses for
   the same job: one seed, one domain. *)
let job_opts job =
  { Exec.Campaign_opts.default with
    Exec.Campaign_opts.seeds = [ job.job_seed ]; domains = Some 1 }
