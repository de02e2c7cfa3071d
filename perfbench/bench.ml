(* The simulator's benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Sets the workload up, then runs closed-loop passes over it for S
   seconds, one simulation after another in one process, setting it up
   once more after every pass (the median set-up is [setup_s]). The
   end-to-end times are scaled by the {!Yardstick} timed next to each
   pass and set-up, so that they read in seconds of a host of fixed
   speed; the raw medians are printed beside them. With
   --trace 0 it prints the end-to-end metrics; with --trace 1 the
   per-layer metrics of {!Layers}. The last line of stdout is
   one JSON object: correct, attempted, failed, metrics. Exit 0 on a
   completed measurement (failures are reported in the JSON), 2 on bad
   arguments. *)

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {" ^ String.concat "|" Traffic.names
   ^ "} [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let parse argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let int_arg v r = match int_of_string_opt v with Some n -> r := n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> int_arg v seed; go rest
    | "--seconds" :: v :: rest -> int_arg v seconds; go rest
    | "--trace" :: v :: rest -> int_arg v trace; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if (not (List.mem !workload Traffic.names)) || !seconds < 1 || !trace < 0 || !trace > 1
  then usage ();
  (!workload, !seed, !seconds, !trace = 1)

(* Set-up runs [setup_runs] times before the passes; every set-up but
   the last is released. A fixed count keeps the heap the same from run to
   run. Their times give the traced run's setup.* metrics; [setup_s]
   comes from the set-ups timed between passes. *)
let setup_runs = 5

let setups workload ~seed =
  let rec go n times =
    let (prepared, (t : Traffic.setup_times)), ns =
      Traffic.timed (fun () -> Traffic.setup workload ~seed)
    in
    let times = (ns, t) :: times in
    if n + 1 = setup_runs then (prepared, times)
    else begin
      Traffic.release prepared;
      go (n + 1) times
    end
  in
  go 0 []

(* ---------- output ---------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-32s %s %s\n" n (json_float v) u) metrics;
  Printf.printf "  %-32s %s ratio\n" "failed_ratio"
    (json_float (float failed /. float (max 1 attempted)));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
          metrics))

let heap_peak_mb () =
  float ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---------- the untraced closed loop (--trace 0) ---------- *)

(* What a pass leaves behind; the pass itself is dropped, so the heap
   holds no more than one pass's results. *)
type sample = {
  wall : float;  (** host time of the pass *)
  nominal_wall : float;  (** [wall] scaled by the yardstick *)
  yard : float;  (** the yardstick's sample time, mean of before and after *)
  minor_words : float;
  attempted : int;
  failed : int;
  digest : string;
  instructions : int;
  ipc_mean : float;
  setup : float;  (** one more set-up after the pass, released at once *)
  nominal_setup : float;  (** [setup] scaled by the yardstick sampled just before *)
}

(* Minor words allocated by every domain so far. [Gc.quick_stat] counts a
   domain's allocations at its minor collections, so one is forced first
   (outside the timed region) to make the count exact. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).minor_words

(* At least three passes, then until the deadline. Timing a set-up after
   every pass makes [setup_s], like [wall_s], a median over the whole
   measured window, not over one instant of a host whose speed drifts.
   The yardstick is sampled before and after every pass, so its scale
   follows the drift within the window. *)
let measure prepared ~deadline ~resetup =
  let rec loop acc =
    let before = Yardstick.sample () in
    let w0 = minor_words () in
    let p, ns = Traffic.timed (fun () -> Traffic.pass prepared) in
    let minor_words = minor_words () -. w0 in
    let after = Yardstick.sample () in
    let yard = (before +. after) /. 2. in
    let wall = Clock.seconds ns and setup = Clock.seconds (resetup ()) in
    let s =
      {
        wall;
        nominal_wall = Yardstick.scale ~sample_s:yard wall;
        yard;
        minor_words;
        attempted = p.attempted;
        failed = p.failed;
        digest = Traffic.digest p;
        instructions = Traffic.instructions p;
        ipc_mean = Traffic.ipc_mean p;
        setup;
        nominal_setup = Yardstick.scale ~sample_s:after setup;
      }
    in
    if List.length acc < 2 || Clock.now () < deadline then loop (s :: acc)
    else List.rev (s :: acc)
  in
  loop []

let end_to_end prepared ~deadline ~resetup =
  let samples = measure prepared ~deadline ~resetup in
  let med f = Layers.median (List.map f samples) in
  Printf.printf "  %-32s %.6f s over %d passes\n" "raw wall_s" (med (fun s -> s.wall))
    (List.length samples);
  Printf.printf "  %-32s %.6f s\n" "raw setup_s" (med (fun s -> s.setup));
  Printf.printf "  %-32s %.6f s (nominal %g s)\n" "yardstick" (med (fun s -> s.yard))
    Yardstick.nominal_s;
  let first = List.hd samples in
  let mismatched =
    List.length (List.filter (fun s -> s.digest <> first.digest) samples)
  in
  if mismatched > 0 then
    Printf.eprintf "check failed: stats_digest differs in %d passes\n" mismatched;
  let attempted = List.fold_left (fun a s -> a + s.attempted) 0 samples in
  let failed = List.fold_left (fun a s -> a + s.failed) mismatched samples in
  let instr = float first.instructions in
  let wall = med (fun s -> s.nominal_wall) in
  ( attempted,
    failed,
    first.digest,
    [
      ("wall_s", wall, "s");
      ("sim_mips", instr /. wall /. 1e6, "Minstr/s");
      ("setup_s", med (fun s -> s.nominal_setup), "s");
      ("heap_peak_mb", heap_peak_mb (), "MiB");
      ( "minor_words_per_instr",
        Layers.median (List.map (fun s -> s.minor_words /. instr) samples),
        "words/instr" );
      ("ipc_mean", first.ipc_mean, "instr/cycle");
    ] )

(* ---------- the traced run (--trace 1) ---------- *)

let per_layer prepared ~deadline ~setup_med =
  let r = Layers.run ~deadline prepared in
  List.iter (fun m -> Printf.eprintf "check failed: %s\n" m) r.problems;
  let values =
    r.values
    @ [
        ("setup.compile_s", setup_med (fun _ (t : Traffic.setup_times) -> t.compile_ns));
        ("setup.generate_s", setup_med (fun _ (t : Traffic.setup_times) -> t.generate_ns));
        ("setup.pool_spawn_s", setup_med (fun _ (t : Traffic.setup_times) -> t.pool_spawn_ns));
      ]
  in
  ( r.attempted,
    r.failed,
    r.digest,
    List.map
      (fun (n, u) -> (n, Option.value ~default:0. (List.assoc_opt n values), u))
      Layers.names )

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  Printf.printf "workload %s seed %d seconds %d trace %d\n%!" workload seed seconds
    (Bool.to_int trace);
  let prepared, setup_times = setups workload ~seed in
  Traffic.warm prepared;
  let setup_med f =
    Layers.median (List.map (fun (ns, t) -> Clock.seconds (f ns t)) setup_times)
  in
  let deadline = Clock.now () + (seconds * 1_000_000_000) in
  let attempted, failed, digest, metrics =
    if trace then per_layer prepared ~deadline ~setup_med
    else
      let resetup () =
        let (p, _), ns = Traffic.timed (fun () -> Traffic.setup workload ~seed) in
        Traffic.release p;
        ns
      in
      end_to_end prepared ~deadline ~resetup
  in
  Traffic.release prepared;
  Printf.printf "  %-32s %s\n" "stats_digest" digest;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
