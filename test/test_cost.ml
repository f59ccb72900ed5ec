(* Deterministic cost gates: minor-heap words allocated per VM step.

   Three fixed programs run to the step limit on the bytecode engine in the
   test's own domain, and [Gc.minor_words] over the run divided by the steps
   taken must stay under a pinned bound. Allocation counts do not depend on
   timing, so a regression in work done per step fails here without timing
   flake.

   Measured words per step (OCaml 5.1, no flambda, dev profile):
     program          before   after   bound
     local loop         60.0    25.5    28.1
     static spin        23.3     7.7     8.5
     racing spin        68.0    13.7    15.0
   "before" is the VM as it was when every step of a program that had ever
   spawned a thread performed the scheduler's Yield effect, each local
   access built a fresh base pointer, and the access path allocated
   closures and intermediate options. Each bound is 1.1x the "after" value;
   the racing spin's must also stay at most half of "before" (34). *)

let local_loop =
  {|
fn main() {
    let mut i = 0;
    while i >= 0 {
        i = i + 1;
    }
    print(i);
}
|}

let static_spin =
  {|
static mut READY: i64 = 0;

fn main() {
    let mut waiting = true;
    while waiting {
        unsafe {
            if READY == 1 {
                waiting = false;
            }
        }
    }
}
|}

(* dr_flag_spin's shape: in Collect mode the producer's racing store is
   reported and dropped, the producer exits, and main spins alone on a flag
   that never flips until the step limit *)
let racing_spin =
  {|
static mut READY: i64 = 0;
static mut PAYLOAD: i64 = 0;

fn producer(v: i64) {
    unsafe {
        PAYLOAD = v;
        READY = 1;
    }
}

fn main() {
    let h = spawn producer(9);
    let mut waiting = true;
    while waiting {
        unsafe {
            if READY == 1 {
                waiting = false;
            }
        }
    }
    unsafe {
        print(PAYLOAD);
    }
    join(h);
}
|}

let words_per_step src =
  let program = Minirust.Parser.parse src in
  let config =
    { Miri.Machine.default_config with
      Miri.Machine.mode = Miri.Machine.Collect 25;
      seed = 1;
      engine = Miri.Machine.Bytecode }
  in
  let before = Gc.minor_words () in
  match Miri.Machine.analyze ~config program with
  | Miri.Machine.Compile_error msg -> Alcotest.failf "compile error: %s" msg
  | Miri.Machine.Ran r ->
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "ran to the step limit" true
      (r.Miri.Machine.outcome = Miri.Machine.Step_limit);
    words /. float_of_int r.Miri.Machine.steps

let gate name src ~bound () =
  let w = words_per_step src in
  if w > bound then
    Alcotest.failf "%s: %.2f minor words per step, bound %.2f" name w bound

let suite =
  [ Alcotest.test_case "minor words per step: local loop" `Quick
      (gate "local loop" local_loop ~bound:28.1);
    Alcotest.test_case "minor words per step: static spin" `Quick
      (gate "static spin" static_spin ~bound:8.5);
    Alcotest.test_case "minor words per step: racing spin" `Quick
      (gate "racing spin" racing_spin ~bound:15.0) ]
