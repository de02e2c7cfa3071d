(* Host time in nanoseconds from CLOCK_MONOTONIC.

   The stub comes from bechamel's monotonic-clock library; declaring the
   external here with an unboxed result keeps a stamp allocation-free,
   which matters for the per-call scheduler timings of the traced run. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_ns ())
let seconds ns = float_of_int ns *. 1e-9
