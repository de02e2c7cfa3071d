type source = Builtin of string | File of string

type kind =
  | Figure of { figure : string }
  | Fuzz_batch of {
      seed : int;
      count : int;
      max_insns : int;
      config : string;
      shrink : bool;
      out_dir : string option;
    }
  | Workload of {
      source : source;
      machine : Machine_opts.t;
      dump_blocks : int;
    }

type t = { kind : kind; budget : int; scale : int }

let default_budget = 500_000
let default_scale = 1

let figure ?(budget = default_budget) ?(scale = default_scale) name =
  { kind = Figure { figure = name }; budget; scale }

let fuzz_batch ?(max_insns = Dts_fuzz.Gen.default_max_insns)
    ?(config = "all") ?(shrink = true) ?out_dir ~seed ~count () =
  {
    kind = Fuzz_batch { seed; count; max_insns; config; shrink; out_dir };
    budget = default_budget;
    scale = default_scale;
  }

let workload ?(budget = default_budget) ?(scale = default_scale)
    ?(machine = Machine_opts.default) ?(dump_blocks = 0) source =
  { kind = Workload { source; machine; dump_blocks }; budget; scale }

let figure_names = List.map fst Dts_experiments.Experiments.by_name

let workload_names =
  List.map
    (fun (w : Dts_workloads.Workloads.t) -> w.name)
    Dts_workloads.Workloads.all

let validate t =
  let ( let* ) = Result.bind in
  let positive what n =
    if n > 0 then Ok ()
    else Error (Printf.sprintf "%s must be positive (got %d)" what n)
  in
  let* () = positive "budget" t.budget in
  let* () = positive "scale" t.scale in
  match t.kind with
  | Figure { figure } ->
    if List.mem figure figure_names then Ok ()
    else
      Error
        (Printf.sprintf "unknown figure %S (expected one of %s)" figure
           (String.concat ", " figure_names))
  | Fuzz_batch { seed = _; count; max_insns; config; shrink = _; out_dir = _ }
    -> (
    let* () = positive "count" count in
    let* () = positive "max_insns" max_insns in
    match Dts_fuzz.Diff.geoms_of_string config with
    | Some _ -> Ok ()
    | None ->
      Error
        (Printf.sprintf "unknown config %S (expected all, ideal or feasible)"
           config))
  | Workload { source; machine; dump_blocks } -> (
    let* () =
      if dump_blocks >= 0 then Ok ()
      else Error (Printf.sprintf "dump_blocks must be >= 0 (got %d)" dump_blocks)
    in
    let* () = Machine_opts.validate machine in
    match source with
    | Builtin name ->
      if List.mem name workload_names then Ok ()
      else
        Error
          (Printf.sprintf "unknown workload %S (expected one of %s)" name
             (String.concat ", " workload_names))
    | File "" -> Error "workload file path must not be empty"
    | File _ -> Ok ())
