(** Machine options for a single-workload run: exactly the knobs
    [dtsvliw_sim] exposes as flags, as one plain record. {!to_config}
    reproduces the CLI's flag→{!Dts_core.Config.t} mapping, so a [Job.t]
    carries everything needed to build the exact machine. *)

type t = {
  feasible : bool;  (** start from the §4.4 feasible machine *)
  dif : bool;  (** simulate the DIF baseline instead of DTSVLIW *)
  width : int option;  (** instructions per long instruction *)
  height : int option;  (** long instructions per block *)
  vcache_kb : int option;
  vcache_assoc : int option;
  renaming : bool;  (** instruction splitting (false = --no-renaming) *)
  store_list : bool;  (** §3.11 data-store-list exception scheme *)
  predict_next : bool;  (** §5 next-long-instruction prediction *)
  multicycle : bool;  (** ld 2, mul 3, div 8, fp 3 latencies *)
}

let default =
  {
    feasible = false;
    dif = false;
    width = None;
    height = None;
    vcache_kb = None;
    vcache_assoc = None;
    renaming = true;
    store_list = false;
    predict_next = false;
    multicycle = false;
  }

let validate t =
  let positive what = function
    | Some n when n <= 0 ->
      Error (Printf.sprintf "machine option %s must be positive (got %d)" what n)
    | _ -> Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = positive "width" t.width in
  let* () = positive "height" t.height in
  let* () = positive "vcache_kb" t.vcache_kb in
  let* () = positive "vcache_assoc" t.vcache_assoc in
  Ok ()

(** The DTSVLIW configuration these options denote (ignored when [dif] is
    set — the DIF baseline fixes its own machine, see {!Run}). *)
let to_config t =
  let base =
    if t.feasible then Dts_core.Config.feasible ()
    else Dts_core.Config.ideal ?width:t.width ?height:t.height ()
  in
  let base =
    match (t.vcache_kb, t.vcache_assoc) with
    | None, None -> base
    | kb, assoc ->
      {
        base with
        vliw_cache =
          {
            kb = Option.value kb ~default:base.vliw_cache.kb;
            assoc = Option.value assoc ~default:base.vliw_cache.assoc;
          };
      }
  in
  let base =
    if not t.renaming then
      { base with sched = { base.sched with renaming = false } }
    else base
  in
  let base =
    if t.store_list then
      { base with store_scheme = Dts_vliw.Engine.Data_store_list }
    else base
  in
  let base = { base with next_li_prediction = t.predict_next } in
  if t.multicycle then
    {
      base with
      sched = { base.sched with latencies = Dts_isa.Instr.multicycle_latencies };
      primary_timing =
        {
          base.primary_timing with
          latencies = Dts_isa.Instr.multicycle_latencies;
        };
    }
  else base
