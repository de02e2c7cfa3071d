(* The traced pass: per-layer host time measured from outside the
   simulator, through its public interfaces only.

   - The Scheduler Unit (or DIF's scheduler) is wrapped in a
     [Machine.scheduler_iface] handed to [Machine.create ~scheduler], the
     pattern [Dif.machine] uses, and each call into it is timed.
   - The benchmark drives [Machine.step] itself and reads the public
     [t.mode]; the clock is stamped only when the mode changes, so the
     Primary-mode and VLIW-mode spans cost one stamp per engine switch.
   - [Machine.create] and the final golden drain (a [Machine.run] on the
     halted machine) are the other top-level spans of a run. Together the
     four partition each run's host time.
   - Golden, Primary and Plan are also timed standalone over the same
     programs and the blocks the run built.

   Simulated counters come from [Machine.stats]. *)

open Dts_core

type t = {
  mutable wall_ns : int;  (** traced passes, summed *)
  mutable passes : int;
  mutable create_ns : int;
  mutable creates : int;
  mutable primary_ns : int;
  mutable primary_steps : int;
  mutable vliw_ns : int;
  mutable vliw_steps : int;
  mutable final_ns : int;
  mutable tick_ns : int;
  mutable ticks : int;
  mutable insert_ns : int;
  mutable inserts : int;
  mutable insert_full : int;
  mutable finish_ns : int;
  mutable blocks : int;
  mutable dif_insert_ns : int;
  mutable dif_full : int;
  mutable dif_finish_ns : int;
  mutable dif_blocks : int;
  mutable captured : (int * Dts_sched.Schedtypes.block) list;
      (** (nwindows, block) of the first traced pass, for the standalone
          plan compilation *)
  mutable capture : bool;
}

let create () =
  {
    wall_ns = 0; passes = 0; create_ns = 0; creates = 0; primary_ns = 0;
    primary_steps = 0; vliw_ns = 0; vliw_steps = 0; final_ns = 0;
    tick_ns = 0; ticks = 0; insert_ns = 0; inserts = 0; insert_full = 0;
    finish_ns = 0; blocks = 0; dif_insert_ns = 0; dif_full = 0;
    dif_finish_ns = 0;
    dif_blocks = 0; captured = []; capture = true;
  }

let capture p nwindows b =
  (match b with
  | Some b when p.capture -> p.captured <- (nwindows, b) :: p.captured
  | _ -> ());
  b

let sched_unit p (cfg : Config.t) () =
  let u = Dts_sched.Sched_unit.create cfg.sched in
  {
    Machine.s_tick =
      (fun () ->
        let t0 = Clock.now () in
        ignore (Dts_sched.Sched_unit.tick u);
        p.tick_ns <- p.tick_ns + (Clock.now () - t0);
        p.ticks <- p.ticks + 1);
    s_insert =
      (fun r ->
        let t0 = Clock.now () in
        let res = Dts_sched.Sched_unit.insert u r in
        p.insert_ns <- p.insert_ns + (Clock.now () - t0);
        p.inserts <- p.inserts + 1;
        if res = `Full then p.insert_full <- p.insert_full + 1;
        res);
    s_finish =
      (fun ~nba_addr ->
        let t0 = Clock.now () in
        let b = Dts_sched.Sched_unit.finish_block u ~nba_addr in
        p.finish_ns <- p.finish_ns + (Clock.now () - t0);
        if Option.is_some b then p.blocks <- p.blocks + 1;
        capture p cfg.sched.nwindows b);
  }

(* DIF does no per-cycle work: its tick is a no-op, as in [Dif.machine]. *)
let dif_sched p (cfg : Config.t) () =
  let u = Dts_dif.Dif.create Dts_dif.Dif.default_config in
  {
    Machine.s_tick = (fun () -> ());
    s_insert =
      (fun r ->
        let t0 = Clock.now () in
        let res = Dts_dif.Dif.insert u r in
        p.dif_insert_ns <- p.dif_insert_ns + (Clock.now () - t0);
        if res = `Full then p.dif_full <- p.dif_full + 1;
        res);
    s_finish =
      (fun ~nba_addr ->
        let t0 = Clock.now () in
        let b = Dts_dif.Dif.finish_block u ~nba_addr in
        p.dif_finish_ns <- p.dif_finish_ns + (Clock.now () - t0);
        if Option.is_some b then p.dif_blocks <- p.dif_blocks + 1;
        capture p cfg.sched.nwindows b);
  }

let in_vliw (m : Machine.t) =
  match m.mode with Machine.M_vliw _ -> true | M_primary -> false

let run_sim p (s : Traffic.sim) =
  let scheduler =
    match s.engine with Dts -> sched_unit p s.cfg | Dif -> dif_sched p s.cfg
  in
  let t0 = Clock.now () in
  let m = Machine.create ~scheduler s.cfg s.program in
  let t1 = Clock.now () in
  p.create_ns <- p.create_ns + (t1 - t0);
  p.creates <- p.creates + 1;
  let last = ref t1 and vliw = ref false in
  while not m.halted do
    Machine.step m;
    if !vliw then p.vliw_steps <- p.vliw_steps + 1
    else p.primary_steps <- p.primary_steps + 1;
    if in_vliw m <> !vliw then begin
      let t = Clock.now () in
      if !vliw then p.vliw_ns <- p.vliw_ns + (t - !last)
      else p.primary_ns <- p.primary_ns + (t - !last);
      last := t;
      vliw := not !vliw
    end
  done;
  let t2 = Clock.now () in
  if !vliw then p.vliw_ns <- p.vliw_ns + (t2 - !last)
  else p.primary_ns <- p.primary_ns + (t2 - !last);
  (* on a halted machine [run] only performs the final golden drain and the
     full register and memory comparison *)
  ignore (Machine.run m);
  p.final_ns <- p.final_ns + (Clock.now () - t2);
  Machine.stats m

(* One traced pass over a sequential workload. *)
let pass p sims =
  let r, ns = Traffic.timed (fun () -> Traffic.sims_pass (run_sim p) sims) in
  p.wall_ns <- p.wall_ns + ns;
  p.passes <- p.passes + 1;
  p.capture <- false;
  r

(* ---------- standalone timings over the same programs ---------- *)

type standalone = {
  golden_ns : int;
  golden_instr : int;
  primary_step_ns : int;
  primary_run_ns : int;
  compile_ns : int;
}

let boot (s : Traffic.sim) =
  Dts_asm.Program.boot ~nwindows:s.cfg.sched.nwindows s.program

let primary (s : Traffic.sim) =
  Dts_primary.Primary.create ~timing:s.cfg.primary_timing
    ~icache:(Config.make_cache s.cfg.icache)
    ~dcache:(Config.make_cache s.cfg.dcache)
    (boot s)

let golden_run s =
  let g = Dts_golden.Golden.of_state (boot s) in
  let t0 = Clock.now () in
  let n = Dts_golden.Golden.run g in
  (n, Clock.now () - t0)

let primary_steps s =
  let pr = primary s in
  let t0 = Clock.now () in
  (try
     while true do
       ignore (Dts_primary.Primary.step pr)
     done
   with Dts_primary.Primary.Halted -> ());
  Clock.now () - t0

let primary_run s =
  let pr = primary s in
  let t0 = Clock.now () in
  (try ignore (Dts_primary.Primary.run pr)
   with Dts_primary.Primary.Halted -> ());
  Clock.now () - t0

(* One golden run and two Primary runs per simulation of the pass, each
   with that simulation's machine configuration; Plan compiles every block
   the first traced pass built. *)
let standalone p sims =
  let golden_ns, golden_instr, primary_step_ns, primary_run_ns =
    List.fold_left
      (fun (g, gi, ps, pr) s ->
        let n, gns = golden_run s in
        (g + gns, gi + n, ps + primary_steps s, pr + primary_run s))
      (0, 0, 0, 0) sims
  in
  let _, compile_ns =
    Traffic.timed (fun () ->
        List.iter
          (fun (nwindows, b) -> ignore (Dts_vliw.Plan.compile ~nwindows b))
          p.captured)
  in
  { golden_ns; golden_instr; primary_step_ns; primary_run_ns; compile_ns }
