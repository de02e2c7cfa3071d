(* The benchmark's own tests:

     dune exec ./perfbench/selftest.exe

   - on every sequential workload, the traced run's outside counts equal
     the simulator's counters, its [Stats.t] equal the untraced run's, and
     its top-level spans partition its wall time;
   - the cross-check notices a count that is off by one, and a span moved
     by 5% of the wall;
   - [genprog]: the same seed gives the same stats digest, another seed
     gives other programs;
   - [campaign-j2]: the j2 render equals the sequential render;
   - the host-speed yardstick allocates nothing, so it cannot move
     minor_words_per_instr or heap_peak_mb.

   Exits 1 if any test fails. *)

let failures = ref 0

let test name f =
  match f () with
  | [] -> Printf.printf "ok   %s\n%!" name
  | problems ->
    incr failures;
    List.iter (fun m -> Printf.printf "FAIL %s: %s\n%!" name m) problems

let expect cond msg = if cond then [] else [ msg ]

let sims workload ~seed =
  match fst (Traffic.setup workload ~seed) with
  | Traffic.Sims s -> s
  | Campaign _ -> assert false

let traced_vs_untraced workload () =
  let sims = sims workload ~seed:1 in
  let u = Traffic.sims_pass Traffic.run_sim sims in
  let p = Probe.create () in
  let t = Probe.pass p sims in
  expect (u.failed = 0 && t.failed = 0) "a run failed"
  @ expect (Traffic.digest u = Traffic.digest t) "traced Stats.t differ from untraced"
  @ Layers.crosscheck p ~traced:t

let crosscheck_catches_off_by_one () =
  let sims = sims "thrash" ~seed:1 in
  let p = Probe.create () in
  let t = Probe.pass p sims in
  let clean = Layers.crosscheck p ~traced:t in
  p.vliw_steps <- p.vliw_steps + 1;
  let bad = Layers.crosscheck p ~traced:t in
  expect (clean = []) "clean run flagged" @ expect (List.length bad = 1) "off-by-one not flagged"

(* Moving 5% of the wall into or out of one span leaves the spans short of
   the wall by more than the slack, or longer than it. *)
let crosscheck_catches_a_moved_span () =
  let sims = sims "thrash" ~seed:1 in
  let p = Probe.create () in
  let t = Probe.pass p sims in
  let flagged delta =
    let saved = p.primary_ns in
    p.primary_ns <- saved + delta;
    let bad = Layers.crosscheck p ~traced:t in
    p.primary_ns <- saved;
    List.length bad = 1
  in
  let shift = p.wall_ns / 20 in
  expect (Layers.crosscheck p ~traced:t = []) "clean run flagged"
  @ expect (flagged (-shift)) "a span 5% short of the wall not flagged"
  @ expect (flagged shift) "spans 5% longer than the wall not flagged"

let seeds () =
  let digest seed = Traffic.digest (Traffic.sims_pass Traffic.run_sim (sims "genprog" ~seed)) in
  let programs seed = Traffic.generate_programs ~seed in
  expect (digest 1 = digest 1) "same seed, different stats digest"
  @ expect (programs 1 <> programs 2) "seeds 1 and 2 give the same programs"

let campaign_render () =
  match fst (Traffic.setup "campaign-j2" ~seed:1) with
  | Sims _ -> assert false
  | Campaign pool as c ->
    Traffic.warm c;
    let j2 = Traffic.campaign_pass ~pool () in
    Traffic.release c;
    let seq = Traffic.campaign_pass () in
    expect (j2.failed = 0 && seq.failed = 0) "a figure failed"
    @ expect (j2.render = seq.render) "j2 render differs from the sequential render"
    @ expect (Traffic.digest j2 = Traffic.digest seq) "j2 stats digest differs"

let yardstick_allocates_nothing () =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Yardstick.sample ()));
  let words = Gc.minor_words () -. w0 in
  expect (words < 100.) (Printf.sprintf "a sample allocated %.0f words" words)

let () =
  List.iter
    (fun w -> test (w ^ ": traced = untraced, outside = Stats") (traced_vs_untraced w))
    [ "thrash"; "genprog" ];
  test "crosscheck catches an off-by-one count" crosscheck_catches_off_by_one;
  test "crosscheck catches a span moved by 5% of the wall" crosscheck_catches_a_moved_span;
  test "genprog seeds" seeds;
  test "campaign-j2 render = sequential render" campaign_render;
  test "yardstick allocates nothing" yardstick_allocates_nothing;
  if !failures > 0 then exit 1
