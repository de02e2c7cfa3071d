(* The packed execution path against the boxed ISA reference.

   Every engine executes packed micro-ops into a preallocated outcome
   buffer (Semantics.exec_into). The boxed Semantics.exec -> apply path is
   kept only as an independent reference: Dts_fuzz.Diff.run_boxed steps it,
   decoding straight from memory. This suite checks that the golden
   machine on the packed path and the boxed reference reach bit-identical
   end states (registers, flags, windows and memory), instruction and trap
   counts on every workload and every checked-in fuzz reproducer.

   The Primary Processor and the DTSVLIW machine run the same packed path;
   their timing and Stats are pinned by test/stats_4000.expected, and the
   machine's co-simulation checks them against the golden machine. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let workload_names =
  List.map (fun (w : Dts_workloads.Workloads.t) -> w.name)
    Dts_workloads.Workloads.all

let check_golden_vs_boxed ?(budget = 200_000) program =
  let a = Dts_asm.Program.boot program in
  ignore
    (Dts_golden.Golden.run ~max_instructions:budget
       (Dts_golden.Golden.of_state a));
  let b = Dts_asm.Program.boot program in
  Dts_fuzz.Diff.run_boxed b ~fuel:budget;
  check_int "instret" b.Dts_isa.State.instret a.Dts_isa.State.instret;
  check_int "traps" b.Dts_isa.State.traps a.Dts_isa.State.traps;
  check_bool "halted flag" b.Dts_isa.State.halted a.Dts_isa.State.halted;
  check_bool "end state (registers + memory)" true (Dts_isa.State.equal a b)

let test_workload name () =
  check_golden_vs_boxed
    (Dts_workloads.Workloads.program ~scale:1
       (Dts_workloads.Workloads.find name))

(* cwd is test/ under `dune runtest`, the repo root when run by hand *)
let corpus_dir =
  if Sys.file_exists "fuzz_corpus" then "fuzz_corpus" else "test/fuzz_corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".srisc")
  |> List.sort compare

let test_fuzz_corpus () =
  let files = corpus_files () in
  check_bool "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      (* reproducers halt within the generator's fuel bound; run to halt *)
      check_golden_vs_boxed
        ~budget:
          (Dts_fuzz.Gen.dynamic_bound ~max_insns:Dts_fuzz.Gen.default_max_insns)
        (Dts_fuzz.Repro.load (Filename.concat corpus_dir f)))
    files

let suite =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "%s identical on exec vs exec_into" name)
        `Slow (test_workload name))
    workload_names
  @ [ Alcotest.test_case "fuzz corpus identical on both paths" `Quick
        test_fuzz_corpus ]
