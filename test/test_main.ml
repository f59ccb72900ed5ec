(* Test entry point. `dune runtest` runs everything; the heavyweight
   campaign-level checks are marked `Slow and can be skipped with
   ALCOTEST_QUICK_TESTS=1. *)

let () =
  Alcotest.run "rustbrain-repro"
    [ ("rng", Test_rng.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("layout", Test_layout.suite);
      ("typecheck", Test_typecheck.suite);
      ("edit", Test_edit.suite);
      ("visit", Test_visit.suite);
      ("vclock", Test_vclock.suite);
      ("borrow", Test_borrow.suite);
      ("mem", Test_mem.suite);
      ("machine", Test_machine.suite);
      ("golden", Test_golden.suite);
      ("cost", Test_cost.suite);
      ("differential", Test_differential.suite);
      ("dataset", Test_dataset.suite);
      ("llm", Test_llm.suite);
      ("knowledge", Test_knowledge.suite);
      ("repairs", Test_repairs.suite);
      ("core", Test_core.suite);
      ("pipeline", Test_pipeline.suite);
      ("exec", Test_exec.suite);
      ("journal", Test_journal.suite);
      ("resilience", Test_resilience.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite) ]
