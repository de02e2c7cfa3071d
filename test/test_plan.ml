(* Install-time block compilation (Dts_vliw.Plan).

   The machine's co-simulation proves the plan executor architecturally
   correct at every engine switch, and test/stats_4000.expected pins its
   Stats on every workload. These tests cover the plan store itself: the
   plan counters, self-modifying-code invalidation, window-delta variants,
   and the two store schemes reaching the same end state. *)

open Dts_isa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_workload ~cfg ~budget name =
  let program =
    Dts_workloads.Workloads.program ~scale:1
      (Dts_workloads.Workloads.find name)
  in
  let m = Dts_core.Machine.create cfg program in
  let n = Dts_core.Machine.run ~max_instructions:budget m in
  (m, n)

(* the data-store-list scheme commits through the whole-range drain
   (satellite of the same PR); its end state must equal checkpoint
   recovery's on a store-heavy workload *)
let test_scheme_end_states_agree () =
  let run scheme =
    let cfg = { (Dts_core.Config.ideal ()) with store_scheme = scheme } in
    run_workload ~cfg ~budget:3_000 "compress"
  in
  let m1, n1 = run Dts_vliw.Engine.Checkpoint_recovery in
  let m2, n2 = run Dts_vliw.Engine.Data_store_list in
  check_int "same instruction count" n1 n2;
  check_bool "identical registers and memory" true
    (State.equal m1.Dts_core.Machine.st m2.Dts_core.Machine.st)

let test_plan_counters () =
  let m, _ =
    run_workload ~cfg:(Dts_core.Config.ideal ()) ~budget:20_000 "compress"
  in
  let s = Dts_core.Machine.stats m in
  check_bool "blocks were compiled" true (s.Dts_obs.Stats.plans_compiled > 0);
  check_bool "plans were reused from the cache" true
    (s.Dts_obs.Stats.plan_hits > 0);
  check_bool "at most one compile per installed block" true
    (s.Dts_obs.Stats.plans_compiled <= s.Dts_obs.Stats.vcache_insertions)

(* Self-modifying code must invalidate compiled plans: a hot loop executes
   long enough to be scheduled and compiled, then patches its own body
   ([add %o0, 1] -> [add %o0, 42]) and reruns. The write hook must drop the
   stale block (and plan), the machine reschedules the patched trace, and
   the co-simulation validates every switch along the way. *)
let add_imm ~rs1 ~imm ~rd =
  Instr.Alu { op = Instr.Add; cc = false; rs1; op2 = Instr.Imm imm; rd }

let test_smc_invalidates_plan () =
  let patched = Encode.encode ~pc:0 (add_imm ~rs1:8 ~imm:42 ~rd:8) in
  let src =
    Printf.sprintf
      {|
start:  mov   0, %%o5          ! phase flag: 0 = unpatched, 1 = patched
        set   %d, %%o1
        set   target, %%o2
        mov   0, %%o0
again:  mov   200, %%o4
loop:
target: add   %%o0, 1, %%o0
        sub   %%o4, 1, %%o4
        cmp   %%o4, 0
        bne   loop
        cmp   %%o5, 0
        bne   done
        mov   1, %%o5
        st    %%o1, [%%o2]
        ba    again
done:   halt
|}
      patched
  in
  let program = Dts_asm.Assembler.assemble src in
  let taddr = Dts_asm.Program.symbol program "target" in
  check_int "encoding is pc-independent" patched
    (Encode.encode ~pc:taddr (add_imm ~rs1:8 ~imm:42 ~rd:8));
  let m = Dts_core.Machine.create (Dts_core.Config.ideal ()) program in
  ignore (Dts_core.Machine.run m);
  let s = Dts_core.Machine.stats m in
  check_int "phase 1 added 1 x200, phase 2 added 42 x200"
    (200 + (200 * 42))
    (State.get_reg m.Dts_core.Machine.st ~cwp:m.Dts_core.Machine.st.cwp 8);
  check_bool "loop ran on the VLIW engine" true (m.Dts_core.Machine.vliw_cycles > 0);
  check_bool "the store dropped at least one cached block" true
    (s.Dts_obs.Stats.code_invalidations >= 1);
  check_bool "the patched loop was recompiled" true
    (s.Dts_obs.Stats.plans_compiled >= 2)

(* window-shifted plan variants: deep recursion re-enters the same cached
   block at different window deltas, so the per-wdelta variant cache must
   populate (and the co-simulation proves each variant exact) *)
let test_wdelta_variants_built () =
  let program =
    Dts_tinyc.Tinyc.compile
      {| int r;
         int down(int n, int acc) {
           if (n == 0) { return acc; }
           return down(n - 1, acc + n);
         }
         int main() {
           int i; int s;
           s = 0;
           for (i = 0; i < 20; i = i + 1) { s = s + down(60, 0); }
           r = s;
           return 0;
         } |}
  in
  let m = Dts_core.Machine.create (Dts_core.Config.ideal ()) program in
  ignore (Dts_core.Machine.run m);
  let s = Dts_core.Machine.stats m in
  check_bool "shifted variants compiled" true
    (s.Dts_obs.Stats.wdelta_variants > 0)

let suite =
  [
    Alcotest.test_case "store schemes reach identical end states" `Quick
      test_scheme_end_states_agree;
    Alcotest.test_case "plan counters" `Quick test_plan_counters;
    Alcotest.test_case "self-modifying code invalidates plans" `Quick
      test_smc_invalidates_plan;
    Alcotest.test_case "window-delta variants built" `Quick
      test_wdelta_variants_built;
  ]
