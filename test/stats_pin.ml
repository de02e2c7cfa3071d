(* Print the per-run Stats of every built-in workload on the ideal,
   feasible and DIF machines, one compact JSON line per cell:

     {"workload":"compress","machine":"ideal","stats":{...}}

   Each line is the --stats-json document of `dtsvliw_sim --workload W
   [--feasible | --dif] --budget N`, produced through the same path
   (Dts_job.Run.run) and re-rendered on one line. runtest diffs the output
   at budget 4000 against test/stats_4000.expected, so every Stats field —
   cycle and cache counters, the engine and plan counters, the cycle
   attribution — is pinned for every cell.

   Usage: stats_pin.exe BUDGET *)

open Dts_job

let machines =
  [
    ("ideal", Machine_opts.default);
    ("feasible", { Machine_opts.default with feasible = true });
    ("dif", { Machine_opts.default with dif = true });
  ]

let () =
  let budget = int_of_string Sys.argv.(1) in
  List.iter
    (fun (w : Dts_workloads.Workloads.t) ->
      List.iter
        (fun (mname, machine) ->
          let job = Job.workload ~budget ~machine (Job.Builtin w.name) in
          let stats =
            match (Run.run job).stats_json with
            | Some s -> Dts_obs.Json.of_string s
            | None -> failwith "workload job without a stats document"
          in
          print_endline
            (Dts_obs.Json.to_string
               (Obj
                  [
                    ("workload", String w.name);
                    ("machine", String mname);
                    ("stats", stats);
                  ])))
        machines)
    Dts_workloads.Workloads.all
