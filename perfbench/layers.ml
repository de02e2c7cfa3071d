(* The traced run (--trace 1): untraced and traced passes alternate until
   the deadline, then the standalone timings run once. Reports every
   per-layer metric and cross-checks the benchmark's outside counts
   against the simulator's own counters. *)

module Stats = Dts_obs.Stats
module Pool = Dts_parallel.Pool

let fi = float_of_int
let ratio a b = if b = 0 then 0. else fi a /. fi b
let secs = Clock.seconds

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Every per-layer metric, in the order of [per_layer] in BENCHMARK.json.
   A metric whose layer a workload does not exercise, or that cannot be
   observed from outside on it, reads 0 (see perfbench/README.md). *)
let names =
  [
    ("machine.vliw_steps_s", "s"); ("machine.vliw_steps", "count");
    ("machine.syncs", "count"); ("machine.switches", "count");
    ("machine.vliw_cycle_fraction", "ratio");
    ("golden.run_s", "s"); ("golden.mips", "Minstr/s");
    ("engine.lis", "count"); ("engine.ops_per_li", "ops/li");
    ("engine.mispredicts", "count");
    ("machine.primary_steps_s", "s"); ("machine.primary_steps", "count");
    ("sched.tick_s", "s"); ("sched.ticks", "count");
    ("sched.insert_s", "s"); ("sched.inserts", "count");
    ("sched.insert_full", "count"); ("sched.finish_s", "s");
    ("sched.blocks", "count"); ("sched.slot_fill", "ratio");
    ("primary.step_s", "s"); ("primary.run_s", "s");
    ("plan.compile_s", "s"); ("plan.compiles", "count");
    ("plan.hit_ratio", "ratio");
    ("vcache.hit_ratio", "ratio"); ("vcache.evictions", "count");
    ("icache.miss_ratio", "ratio"); ("dcache.miss_ratio", "ratio");
    ("machine.create_s", "s"); ("machine.creates", "count");
    ("engine.rollbacks", "count"); ("engine.aliasing_exceptions", "count");
    ("dif.insert_s", "s"); ("dif.finish_s", "s"); ("dif.blocks", "count");
    ("pool.seq_wall_s", "s"); ("pool.speedup", "ratio");
    ("pool.efficiency", "ratio");
  ]
  @ List.map (fun f -> ("experiments." ^ f ^ "_s", "s")) Traffic.campaign_figures
  @ [
      ("setup.compile_s", "s"); ("setup.generate_s", "s");
      ("setup.pool_spawn_s", "s");
      ("machine.final_check_s", "s"); ("machine.other_s", "s");
      ("trace.overhead_ratio", "ratio");
    ]

type result = {
  values : (string * float) list;  (** any subset of [names] *)
  attempted : int;
  failed : int;
  problems : string list;  (** the failed checks, one line each *)
  digest : string;
}

(* Counters every workload reads from [Machine.stats]. *)
let counters (stats : Stats.t list) =
  let s f = List.fold_left (fun a x -> a + f x) 0 stats in
  let lis = s (fun x -> x.Stats.lis_executed) in
  let hits = s (fun x -> x.plan_hits) and compiles = s (fun x -> x.plans_compiled) in
  let miss_ratio h m = ratio (s m) (s h + s m) in
  [
    ("machine.syncs", fi (s (fun x -> x.syncs)));
    ("machine.switches", fi (s (fun x -> x.engine_switches)));
    ("machine.vliw_cycle_fraction", ratio (s (fun x -> x.vliw_cycles)) (s (fun x -> x.cycles)));
    ("engine.lis", fi lis);
    ("engine.ops_per_li", ratio (s (fun x -> x.ops_committed + x.copies_committed)) lis);
    ("engine.mispredicts", fi (s (fun x -> x.mispredicts)));
    ("sched.slot_fill", ratio (s (fun x -> x.slots_filled)) (s (fun x -> x.slots_total)));
    ("plan.compiles", fi compiles);
    ("plan.hit_ratio", ratio hits (hits + compiles));
    ("vcache.hit_ratio", 1. -. miss_ratio (fun x -> x.vcache_hits) (fun x -> x.vcache_misses));
    ("vcache.evictions", fi (s (fun x -> x.vcache_evictions)));
    ("icache.miss_ratio", miss_ratio (fun x -> x.icache_hits) (fun x -> x.icache_misses));
    ("dcache.miss_ratio", miss_ratio (fun x -> x.dcache_hits) (fun x -> x.dcache_misses));
    ("engine.rollbacks", fi (s (fun x -> x.block_exceptions)));
    ("engine.aliasing_exceptions", fi (s (fun x -> x.aliasing_exceptions)));
  ]

let check problems cond msg = if not cond then problems := msg :: !problems

(* The outside counts of [n] traced passes against [stats], the snapshot of
   one traced pass (every pass simulates identically: the digests say so). *)
let crosscheck (p : Probe.t) ~(traced : Traffic.pass) =
  let problems = ref [] in
  let n = p.passes and stats = Traffic.stats traced in
  let s f = n * List.fold_left (fun a x -> a + f x) 0 stats in
  let eq what outside inside =
    check problems (outside = inside)
      (Printf.sprintf "%s: outside %d <> Stats %d" what outside inside)
  in
  eq "sched.blocks + dif.blocks = blocks_flushed" (p.blocks + p.dif_blocks)
    (s (fun x -> x.Stats.blocks_flushed));
  eq "machine.vliw_steps = lis_executed" p.vliw_steps (s (fun x -> x.lis_executed));
  eq "sched.insert_full + DIF full = insert_full" (p.insert_full + p.dif_full)
    (s (fun x -> x.insert_full));
  eq "machine.creates = runs attempted" p.creates (n * traced.attempted);
  let spans = p.create_ns + p.primary_ns + p.vliw_ns + p.final_ns in
  let other = p.wall_ns - spans in
  check problems
    (other >= 0 && fi other <= 0.01 *. fi p.wall_ns)
    (Printf.sprintf
       "top-level spans do not partition the traced wall: spans %d ns, wall %d ns"
       spans p.wall_ns);
  List.rev !problems

(* Accounting shared by both runs: every pass counts toward attempted and
   failed, and must simulate exactly as the first traced pass did. Passes
   are dropped once checked, so the heap holds one round at a time. *)
type tally = {
  mutable digest : string;  (** of the first traced pass *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally () = { digest = ""; attempted = 0; failed = 0; problems = [] }

let note t what (p : Traffic.pass) =
  t.attempted <- t.attempted + p.attempted;
  t.failed <- t.failed + p.failed;
  let d = Traffic.digest p in
  if t.digest = "" then t.digest <- d
  else if d <> t.digest then
    t.problems <- (what ^ " stats_digest differs from the first traced pass") :: t.problems

let finish t values =
  let problems = List.rev t.problems in
  {
    values;
    attempted = t.attempted;
    failed = t.failed + List.length problems;
    problems;
    digest = t.digest;
  }

let sims_run ~deadline sims =
  let p = Probe.create () and t = tally () in
  let first = Probe.pass p sims in
  note t "traced" first;
  let rec loop walls =
    let u, u_ns = Traffic.timed (fun () -> Traffic.sims_pass Traffic.run_sim sims) in
    note t "untraced" u;
    let before = p.wall_ns in
    note t "traced" (Probe.pass p sims);
    let walls = (fi u_ns, fi (p.wall_ns - before)) :: walls in
    if Clock.now () < deadline then loop walls else walls
  in
  let walls = loop [] in
  let sa = Probe.standalone p sims in
  t.problems <- List.rev_append (crosscheck p ~traced:first) t.problems;
  let per x = secs x /. fi p.passes and cnt x = fi (x / p.passes) in
  let spans = p.create_ns + p.primary_ns + p.vliw_ns + p.final_ns in
  finish t
    (counters (Traffic.stats first)
    @ [
        ("machine.vliw_steps_s", per p.vliw_ns);
        ("machine.vliw_steps", cnt p.vliw_steps);
        ("machine.primary_steps_s", per p.primary_ns);
        ("machine.primary_steps", cnt p.primary_steps);
        ("golden.run_s", secs sa.golden_ns);
        ("golden.mips", fi sa.golden_instr /. secs sa.golden_ns /. 1e6);
        ("sched.tick_s", per p.tick_ns); ("sched.ticks", cnt p.ticks);
        ("sched.insert_s", per p.insert_ns); ("sched.inserts", cnt p.inserts);
        ("sched.insert_full", cnt p.insert_full);
        ("sched.finish_s", per p.finish_ns); ("sched.blocks", cnt p.blocks);
        ("primary.step_s", secs sa.primary_step_ns);
        ("primary.run_s", secs sa.primary_run_ns);
        ("plan.compile_s", secs sa.compile_ns);
        ("machine.create_s", per p.create_ns);
        ("machine.creates", cnt p.creates);
        ("dif.insert_s", per p.dif_insert_ns);
        ("dif.finish_s", per p.dif_finish_ns);
        ("dif.blocks", cnt p.dif_blocks);
        ("machine.final_check_s", per p.final_ns);
        ("machine.other_s", per (p.wall_ns - spans));
        ( "trace.overhead_ratio",
          median (List.map snd walls) /. median (List.map fst walls) );
      ])

(* The campaign's layers are the pool and the figures: every simulation
   runs inside [Experiments], so the machine-level spans are not
   observable from the benchmark's files, and its machine counters come
   from the figures' rows. Rounds of a traced j2 pass (figure spans), an
   untraced j2 pass and a sequential pass repeat until the deadline; the
   sequential render must equal the j2 render. *)
let campaign_run ~deadline pool =
  let t = tally () in
  let rec loop rounds =
    let traced, t_ns = Traffic.timed (fun () -> Traffic.campaign_pass ~pool ()) in
    note t "traced" traced;
    let u, u_ns = Traffic.timed (fun () -> Traffic.campaign_pass ~pool ()) in
    note t "untraced" u;
    let seq, s_ns = Traffic.timed (fun () -> Traffic.campaign_pass ()) in
    note t "sequential" seq;
    if seq.render <> traced.render then
      t.problems <- "j2 render differs from the sequential render" :: t.problems;
    let figures = List.map (fun (f, ns) -> (f, fi ns)) traced.figure_ns in
    let round = (fi u_ns, fi t_ns, fi s_ns, figures, traced) in
    if Clock.now () < deadline then loop (round :: rounds) else round :: rounds
  in
  let rounds = loop [] in
  let col f = median (List.map f rounds) in
  let u = col (fun (u, _, _, _, _) -> u) and j2 = col (fun (_, t, _, _, _) -> t)
  and seq = col (fun (_, _, s, _, _) -> s) in
  let figure f = col (fun (_, _, _, fs, _) -> List.assoc f fs) in
  let _, _, _, _, traced = List.hd rounds in
  let stats = Traffic.stats traced in
  let lis = List.fold_left (fun a (x : Stats.t) -> a + x.lis_executed) 0 stats in
  finish t
    (counters stats
    @ List.map (fun f -> ("experiments." ^ f ^ "_s", figure f *. 1e-9)) Traffic.campaign_figures
    @ [
        ("machine.vliw_steps", fi lis);
        ("machine.creates", fi (List.length stats));
        ("pool.seq_wall_s", seq *. 1e-9);
        ("pool.speedup", seq /. j2);
        ("pool.efficiency", seq /. j2 /. fi (Pool.jobs pool));
        ( "machine.other_s",
          1e-9 *. col (fun (_, t, _, fs, _) -> t -. List.fold_left (fun a (_, v) -> a +. v) 0. fs) );
        ("trace.overhead_ratio", j2 /. u);
      ])

let run ~deadline = function
  | Traffic.Sims sims -> sims_run ~deadline sims
  | Campaign pool -> campaign_run ~deadline pool
