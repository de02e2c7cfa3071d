(* The benchmark's three traffic shapes: what each one simulates, its
   set-up, and one closed-loop pass over it. Every run keeps the machine's
   test mode on (golden co-simulation with full-state comparison), and
   every machine is created fresh, so the simulated caches start empty, as
   in the paper's runs. *)

open Dts_core
module Stats = Dts_obs.Stats
module Pool = Dts_parallel.Pool
module Experiments = Dts_experiments.Experiments

let names = [ "thrash"; "genprog"; "campaign-j2" ]

(* Input sizes. [thrash] runs two analogues to Halt at [analogue_scale];
   [genprog] runs [genprog_programs] generated programs on three machines
   each; [campaign-j2] runs every paper figure plus the optimality-gap
   study at [campaign_budget] instructions per simulation on a
   [campaign_jobs]-worker pool. *)
let analogue_scale = 4
let genprog_programs = 1200
let campaign_budget = 50_000
let campaign_jobs = 2

(* [Experiments.all]'s components in its rendering order, then [optgap]
   (not part of [all]; the only user of the branch-and-bound oracle). *)
let campaign_figures =
  [ "table1"; "table2"; "fig5a"; "fig5"; "fig6"; "fig7"; "fig8"; "table3";
    "fig9"; "ablation"; "extensions"; "optgap" ]

(* The two analogues with the largest instruction working sets, on a
   48 KB direct-mapped VLIW Cache, keep evicting and rebuilding blocks. *)
let thrash_analogues = [ "gcc"; "go" ]

let thrash_cfg () =
  { (Config.feasible ()) with vliw_cache = { kb = 48; assoc = 1 } }

type engine = Dts | Dif

type sim = {
  label : string;
  engine : engine;
  cfg : Config.t;
  program : Dts_asm.Program.t;
}

(* What set-up hands to the measured loop. *)
type prepared = Sims of sim list | Campaign of Pool.t

type setup_times = { compile_ns : int; generate_ns : int; pool_spawn_ns : int }

let timed f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.now () - t0)

(* Direct compiles, not [Workloads.program]: that one memoizes, and set-up
   is repeated to take its median. *)
let compile_analogues names ~scale =
  List.map
    (fun n ->
      let w = Dts_workloads.Workloads.find n in
      (n, Dts_tinyc.Tinyc.compile (w.source scale)))
    names

let golden_halts program =
  let g = Dts_golden.Golden.of_state (Dts_asm.Program.boot program) in
  let fuel = Dts_fuzz.Gen.dynamic_bound ~max_insns:Dts_fuzz.Gen.default_max_insns in
  match Dts_golden.Golden.run ~max_instructions:fuel g with
  | _ -> (Dts_golden.Golden.state g).halted
  | exception _ -> false

(* Programs from per-index seeds derived from the benchmark's [seed], as
   the fuzzer derives them. A program the sequential reference itself
   cannot run to Halt is not valid traffic and is skipped; the count of
   kept programs is fixed. *)
let generate_programs ~seed =
  let rec go i acc k =
    if k = genprog_programs then List.rev acc
    else
      let p =
        Dts_fuzz.Gen.generate ~seed:(Dts_fuzz.Sprng.derive seed i) ()
      in
      if golden_halts p then go (i + 1) (p :: acc) (k + 1) else go (i + 1) acc k
  in
  go 0 [] 0

let thrash_sims () =
  let cfg = thrash_cfg () in
  let programs, ns =
    timed (fun () -> compile_analogues thrash_analogues ~scale:analogue_scale)
  in
  ( Sims
      (List.map (fun (n, program) -> { label = n; engine = Dts; cfg; program })
         programs),
    { compile_ns = ns; generate_ns = 0; pool_spawn_ns = 0 } )

let genprog_sims seed =
  let programs, ns = timed (fun () -> generate_programs ~seed) in
  let ideal = Config.ideal () and feasible = Config.feasible () in
  let dif = Dts_dif.Dif.fig9_machine_cfg () in
  let sims =
    List.concat
      (List.mapi
         (fun i program ->
           let label k = Printf.sprintf "prog%d-%s" i k in
           [
             { label = label "ideal"; engine = Dts; cfg = ideal; program };
             { label = label "feasible"; engine = Dts; cfg = feasible; program };
             { label = label "dif"; engine = Dif; cfg = dif; program };
           ])
         programs)
  in
  (Sims sims, { compile_ns = 0; generate_ns = ns; pool_spawn_ns = 0 })

let campaign_setup () =
  let _, compile_ns =
    timed (fun () ->
        compile_analogues Experiments.workload_names ~scale:1)
  in
  let pool, pool_spawn_ns =
    timed (fun () -> Pool.create ~jobs:campaign_jobs ())
  in
  (Campaign pool, { compile_ns; generate_ns = 0; pool_spawn_ns })

(* One set-up of [workload]. The caller repeats it to take a median and
   releases all but the last with {!release}. *)
let setup workload ~seed =
  match workload with
  | "thrash" -> thrash_sims ()
  | "genprog" -> genprog_sims seed
  | "campaign-j2" -> campaign_setup ()
  | w -> invalid_arg ("unknown workload " ^ w)

let release = function Sims _ -> () | Campaign pool -> Pool.shutdown pool

(* The figures read compiled analogues through [Workloads.program]'s memo;
   fill it once after the measured set-ups so no figure compiles. *)
let warm = function
  | Sims _ -> ()
  | Campaign _ ->
    List.iter
      (fun n -> ignore (Dts_workloads.Workloads.program (Dts_workloads.Workloads.find n)))
      Experiments.workload_names

(* ---------- one pass ---------- *)

(* The result of one pass over a workload: per attempted run, in
   submission order, its [Stats.t] or the failure. *)
type pass = {
  attempted : int;
  failed : int;
  runs : (Stats.t, string) result list;
  render : string;  (** campaign only; empty otherwise *)
  figure_ns : (string * int) list;  (** campaign only: host time per figure *)
}

let stats p = List.filter_map Result.to_option p.runs
let instructions p = List.fold_left (fun a (s : Stats.t) -> a + s.instructions) 0 (stats p)

let ipc_mean p =
  match stats p with
  | [] -> nan
  | l -> List.fold_left (fun a s -> a +. Stats.ipc s) 0. l /. float (List.length l)

(* The pass's stats_digest: every run's [Stats.t] as JSON (or its failure),
   and the campaign's render. Computed outside the timed region. *)
let digest p =
  let run = function Ok s -> Stats.to_json_string s | Error m -> m in
  Digest.to_hex (Digest.string (String.concat "\n" (p.render :: List.map run p.runs)))

let failure label e = Error (Printf.sprintf "FAILED %s: %s" label (Printexc.to_string e))

(* Run every sim through [run], counting exceptions (including
   [Machine.Test_mode_mismatch]) as failed runs. *)
let sims_pass run sims =
  let runs = List.map (fun s -> try Ok (run s) with e -> failure s.label e) sims in
  {
    attempted = List.length sims;
    failed = List.length (List.filter Result.is_error runs);
    runs;
    render = "";
    figure_ns = [];
  }

let run_sim s =
  let m =
    match s.engine with
    | Dts -> Machine.create s.cfg s.program
    | Dif -> fst (Dts_dif.Dif.machine ~machine_cfg:s.cfg s.program)
  in
  ignore (Machine.run m);
  Machine.stats m

(* Every campaign figure in order, each timed; a figure that raises is one
   failed run. *)
let campaign_pass ?pool () =
  let figs =
    List.map
      (fun name ->
        let gen = List.assoc name Experiments.by_name in
        match timed (fun () -> gen ?pool ~budget:campaign_budget ()) with
        | f, ns -> (name, Ok f, ns)
        | exception e -> (name, failure name e, 0))
      campaign_figures
  in
  let ok = List.filter_map (fun (_, r, _) -> Result.to_option r) figs in
  {
    attempted = List.length figs;
    failed = List.length figs - List.length ok;
    runs =
      List.concat_map
        (fun (_, r, _) ->
          match r with
          | Ok (f : Experiments.figure) ->
            List.map (fun (r : Experiments.run) -> Ok r.stats) f.rows
          | Error m -> [ Error m ])
        figs;
    render = String.concat "\n" (List.map (fun (f : Experiments.figure) -> f.render ()) ok);
    figure_ns = List.map (fun (name, _, ns) -> (name, ns)) figs;
  }

(* One untraced pass. *)
let pass = function
  | Sims sims -> sims_pass run_sim sims
  | Campaign pool -> campaign_pass ~pool ()
