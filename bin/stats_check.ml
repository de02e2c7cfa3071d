(* CI validator for the simulator's machine-readable JSON surfaces.

   Default mode reads a stats JSON file produced by `dtsvliw_sim
   --stats-json`, checks that it parses, that the required sections and
   keys are present, and that the cycle-attribution invariant holds: the
   attribution categories sum to the machine cycle count (and the
   VLIW-side categories to the VLIW cycle count).

   `--bench` mode validates a BENCH_RESULTS.json baseline instead
   (schema v5): top-level budget/jobs/host_cores, one entry per figure
   with both wall clocks (parallel wall and the sequential pass) and the
   sequential pass's allocation counts (minor/major heap words),
   per-figure consistency (positive walls, attributed = cycles,
   non-negative allocation), and the mandatory "primary_only" row of
   standalone golden/primary interpreter throughput. A baseline written
   under a different schema version fails loudly — cross-schema baselines
   are not comparable and must be regenerated, not hand-edited.

   `--bench BASELINE --alloc FRESH` additionally gates allocation: FRESH
   is a document written by `experiments --alloc-json` at the baseline's
   budget, and any figure whose fresh minor-heap words exceed the
   committed baseline's by more than 25% fails the check. Simulation is
   deterministic, so the allocation counts are reproducible and the gate
   has no timing noise — it pins the sequential fast path's
   allocation-free property against silent erosion.

   `--optgap` mode validates an `experiments optgap --optgap-json`
   document: one row per workload under both geometries, every row's
   certified oracle bounds internally consistent.

   Exits non-zero with a diagnostic on any failure — wired into
   `dune runtest` as a smoke test of the observability path. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("stats_check: " ^ s); exit 1) fmt

let parse path =
  let text = In_channel.with_open_text path In_channel.input_all in
  try Dts_obs.Json.of_string text
  with Dts_obs.Json.Parse_error msg -> fail "%s does not parse: %s" path msg

let get ~path obj key =
  match Dts_obs.Json.member key obj with
  | Some v -> v
  | None -> fail "%s: missing key %S" path key

let int_of ~path obj key =
  match Dts_obs.Json.to_int (get ~path obj key) with
  | Some n -> n
  | None -> fail "%s: key %S is not an integer" path key

let float_of ~path obj key =
  match Dts_obs.Json.to_float (get ~path obj key) with
  | Some f -> f
  | None -> fail "%s: key %S is not a number" path key

let str_of ~path obj key =
  match Dts_obs.Json.to_str (get ~path obj key) with
  | Some s -> s
  | None -> fail "%s: key %S is not a string" path key

let check_stats path =
  let doc = parse path in
  let get = get ~path and int_of = int_of ~path in
  let schema = int_of doc "schema_version" in
  if schema <> Dts_obs.Stats.schema_version then
    fail "schema_version %d, expected %d" schema Dts_obs.Stats.schema_version;
  let cycles = int_of doc "cycles" in
  let vliw_cycles = int_of doc "vliw_cycles" in
  ignore (int_of doc "instructions");
  List.iter
    (fun section -> ignore (get doc section))
    [ "attribution"; "machine"; "plan"; "engine"; "caches"; "trace" ];
  let attribution = get doc "attribution" in
  let attributed =
    List.fold_left
      (fun acc cat -> acc + int_of attribution (Dts_obs.Attribution.name cat))
      0 Dts_obs.Attribution.all
  in
  if attributed <> cycles then
    fail "attribution sums to %d but cycles = %d" attributed cycles;
  let attributed_vliw =
    List.fold_left
      (fun acc cat -> acc + int_of attribution (Dts_obs.Attribution.name cat))
      0 Dts_obs.Attribution.vliw_categories
  in
  if attributed_vliw <> vliw_cycles then
    fail "VLIW attribution sums to %d but vliw_cycles = %d" attributed_vliw
      vliw_cycles;
  Printf.printf "stats_check: %s ok (%d cycles fully attributed)\n" path cycles

let bench_schema_version = 5
let alloc_slack = 1.25

(* Gate a fresh `experiments --alloc-json` document against the committed
   bench baseline: same budget required (allocation does not scale
   linearly with budget — fixed per-run costs dominate small budgets), and
   each fresh figure's minor words must stay within [alloc_slack] of the
   baseline's. Figures the baseline records with zero allocation (table
   lookups that simulate nothing) are exempt. *)
let check_alloc ~base_path ~base_budget ~base_minor fresh_path =
  let doc = parse fresh_path in
  let path = fresh_path in
  let get = get ~path and int_of = int_of ~path and str_of = str_of ~path in
  if int_of doc "alloc_schema_version" <> 1 then
    fail "%s: unsupported alloc_schema_version" path;
  let budget = int_of doc "budget" in
  if budget <> base_budget then
    fail
      "%s: budget %d but baseline %s was recorded at %d — allocation counts \
       are only comparable at the same budget"
      path budget base_path base_budget;
  let figures =
    match get doc "figures" with
    | Dts_obs.Json.List l -> l
    | _ -> fail "%s: \"figures\" is not an array" path
  in
  if figures = [] then fail "%s: no figures to gate" path;
  List.iter
    (fun fig ->
      let name = str_of fig "name" in
      let minor = int_of fig "minor_words" in
      if int_of fig "major_words" < 0 || minor < 0 then
        fail "%s: figure %s: negative allocation count" path name;
      match List.assoc_opt name base_minor with
      | None ->
        fail "%s: figure %s not present in baseline %s" path name base_path
      | Some base when base > 0 ->
        let limit = int_of_float (alloc_slack *. float_of_int base) in
        if minor > limit then
          fail
            "figure %s allocates %d minor words, more than %.0f%% over the \
             committed baseline's %d (limit %d) — the sequential fast \
             path's allocation win is eroding"
            name minor
            ((alloc_slack -. 1.) *. 100.)
            base limit;
        Printf.printf
          "stats_check: figure %s minor words %d within %d baseline limit\n"
          name minor limit
      | Some _ -> ())
    figures

let check_bench ?alloc path =
  let doc = parse path in
  let get = get ~path
  and int_of = int_of ~path
  and float_of = float_of ~path
  and str_of = str_of ~path in
  let schema = int_of doc "schema_version" in
  if schema <> bench_schema_version then
    fail
      "%s: bench schema_version %d, expected %d — baselines are not \
       comparable across schemas; regenerate the baseline with the current \
       `bench` binary rather than editing the version field"
      path schema bench_schema_version;
  ignore (str_of doc "generated_at");
  ignore (str_of doc "git_rev");
  if int_of doc "budget" <= 0 then fail "budget must be positive";
  let jobs = int_of doc "jobs" in
  if jobs < 1 then fail "jobs must be >= 1 (got %d)" jobs;
  if int_of doc "host_cores" < 1 then fail "host_cores must be >= 1";
  let figures =
    match get doc "figures" with
    | Dts_obs.Json.List l -> l
    | _ -> fail "%s: \"figures\" is not an array" path
  in
  if figures = [] then fail "no figures recorded";
  let check_figure fig =
    let name = str_of fig "name" in
    let wall = float_of fig "wall_s" in
    let seq_wall = float_of fig "seq_wall_s" in
    if wall < 0. || seq_wall < 0. then
      fail "figure %s: negative wall clock" name;
    ignore (float_of fig "instr_per_sec");
    ignore (float_of fig "mean_ipc");
    let runs = int_of fig "runs" in
    let instructions = int_of fig "instructions" in
    if runs > 0 && instructions <= 0 then
      fail "figure %s: %d runs but %d instructions" name runs instructions;
    let cycles = int_of fig "cycles" in
    let attributed = int_of fig "attributed_cycles" in
    if attributed <> cycles then
      fail "figure %s: attributed %d but cycles %d" name attributed cycles;
    let minor_words = int_of fig "minor_words" in
    let major_words = int_of fig "major_words" in
    if minor_words < 0 || major_words < 0 then
      fail "figure %s: negative allocation count" name;
    if runs > 0 && minor_words = 0 then
      fail "figure %s: %d runs but zero minor-heap allocation" name runs;
    name
  in
  let names = List.map check_figure figures in
  (* schema v5: the standalone-engine throughput row is mandatory — a
     baseline without it cannot gate interpreter regressions *)
  if not (List.mem "primary_only" names) then
    fail "%s: schema v%d requires a \"primary_only\" figure row" path
      bench_schema_version;
  let total = get doc "total" in
  ignore (float_of total "wall_s");
  ignore (float_of total "seq_wall_s");
  ignore (int_of total "instructions");
  ignore (float_of total "instr_per_sec");
  Printf.printf "stats_check: %s ok (bench schema v%d, %d figures: %s)\n" path
    bench_schema_version (List.length names)
    (String.concat " " names);
  match alloc with
  | None -> ()
  | Some fresh ->
    let base_minor =
      List.map
        (fun fig -> (str_of fig "name", int_of fig "minor_words"))
        figures
    in
    check_alloc ~base_path:path ~base_budget:(int_of doc "budget") ~base_minor
      fresh

(* --optgap: validate an `experiments optgap --optgap-json` document — one
   row per workload under each of the two geometries, each row's oracle
   numbers internally consistent: lower <= upper <= greedy lis, certified
   blocks within the block count, and a fully certified row pinned to
   lower = upper. *)
let check_optgap path =
  let doc = parse path in
  let get = get ~path and int_of = int_of ~path and str_of = str_of ~path in
  if int_of doc "optgap_schema_version" <> 1 then
    fail "%s: unsupported optgap_schema_version" path;
  if int_of doc "budget" <= 0 then fail "budget must be positive";
  if int_of doc "node_budget" <= 0 then fail "node_budget must be positive";
  let rows =
    match get doc "rows" with
    | Dts_obs.Json.List l -> l
    | _ -> fail "%s: \"rows\" is not an array" path
  in
  let workloads =
    List.map (fun (w : Dts_workloads.Workloads.t) -> w.name)
      Dts_workloads.Workloads.all
  in
  let expected =
    List.concat_map
      (fun geometry -> List.map (fun w -> (geometry, w)) workloads)
      [ "ideal"; "feasible" ]
  in
  if List.length rows <> List.length expected then
    fail "%s: %d rows, expected %d (every workload under both geometries)"
      path (List.length rows) (List.length expected);
  let certified_rows = ref 0 in
  List.iter2
    (fun (geometry, workload) row ->
      let where = Printf.sprintf "%s/%s" geometry workload in
      if str_of row "geometry" <> geometry then
        fail "%s: row %s: geometry %S out of order" path where
          (str_of row "geometry");
      if str_of row "workload" <> workload then
        fail "%s: row %s: workload %S out of order" path where
          (str_of row "workload");
      let blocks = int_of row "blocks" in
      let fcfs = int_of row "fcfs_lis" in
      let lower = int_of row "opt_lower" in
      let upper = int_of row "opt_upper" in
      let certified = int_of row "certified" in
      if blocks <= 0 then fail "%s: row %s: no blocks scheduled" path where;
      if not (0 < lower && lower <= upper && upper <= fcfs) then
        fail "%s: row %s: bounds %d <= %d <= %d violated" path where lower
          upper fcfs;
      if certified < 0 || certified > blocks then
        fail "%s: row %s: %d certified of %d blocks" path where certified
          blocks;
      if certified = blocks && lower <> upper then
        fail "%s: row %s: fully certified but lower %d <> upper %d" path
          where lower upper;
      if int_of row "search_nodes" < 0 then
        fail "%s: row %s: negative search-node count" path where;
      if certified = blocks then incr certified_rows)
    expected rows;
  Printf.printf
    "stats_check: %s ok (optgap: %d rows, %d fully certified)\n" path
    (List.length rows) !certified_rows

let () =
  match Sys.argv with
  | [| _; path |] -> check_stats path
  | [| _; "--bench"; path |] -> check_bench path
  | [| _; "--bench"; path; "--alloc"; fresh |] -> check_bench ~alloc:fresh path
  | [| _; "--optgap"; path |] -> check_optgap path
  | _ ->
    fail
      "usage: stats_check FILE.json | --bench FILE.json [--alloc FRESH.json] \
       | --optgap FILE.json"
