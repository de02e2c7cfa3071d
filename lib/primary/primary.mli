(** The Primary Processor (§3.1): the simple four-stage pipelined SRISC
    processor that executes code the first time it is seen and feeds the
    completed-instruction trace to the Scheduler Unit.

    Timing follows Table 1: one instruction per cycle plus a 3-cycle bubble
    for not-taken branches (no prediction hardware), a 1-cycle load-use
    bubble, cache miss penalties, multicycle execute latencies and trap
    service time. *)

type timing = {
  not_taken_branch_bubble : int;  (** Table 1: 3 *)
  load_use_bubble : int;  (** Table 1: 1 *)
  trap_service_cycles : int;  (** window spill/fill microroutine cost *)
  latencies : Dts_isa.Instr.latencies;
      (** execute-stage latencies of multicycle instructions *)
}

val default_timing : timing

(** One completed (retired) instruction together with everything the
    Scheduler Unit needs to know about its execution (§3.2, §3.9): the
    observed window pointer, control direction and effective address. *)
type retired = {
  instr : Dts_isa.Instr.t;
  addr : int;  (** the instruction's PC *)
  cwp : int;  (** window pointer observed at execution *)
  next_pc : int;
  taken : bool;  (** recorded direction of a control transfer *)
  mem : (int * int) option;  (** observed effective address and size *)
  rwsets : Dts_isa.Storage.t list * Dts_isa.Storage.t list;
      (** observed (reads, writes) from {!Dts_isa.Rwsets.of_instr}, computed
          once at retirement (with the executing state's window count, the
          observed window pointer and the observed effective address); the
          schedulers consume these instead of decoding the sets again.
          [([], [])] for a memory instruction with no observed access (a
          trapped occurrence — never handed to a scheduler). *)
  trapped : bool;  (** needed trap service — a non-schedulable occurrence *)
  cycles : int;  (** cycles this instruction consumed in the pipeline *)
  icache_stall : int;  (** of [cycles]: instruction-cache miss penalty *)
  dcache_stall : int;  (** of [cycles]: data-cache miss penalty *)
}

type t

val create :
  ?timing:timing ->
  icache:Dts_mem.Cache.t ->
  dcache:Dts_mem.Cache.t ->
  Dts_isa.State.t ->
  t
(** A Primary Processor over a shared architectural state — the DTSVLIW's
    engines share the register file and data cache ports (§3.6). It runs
    the allocation-free packed-op interpreter
    ({!Dts_isa.Semantics.exec_into}). *)

exception Halted

val step : t -> retired
(** Execute one instruction at the current PC. Traps are serviced in place
    and flagged in the result. @raise Halted when the program stops.

    [Halt] retires (instruction count and retirement count move) without
    touching the instruction cache or consuming pipeline cycles: its fetch
    stall can appear in no retirement record, so charging it would break
    the cycles-equal-sum-of-attributions invariant. *)

val run : ?max_instructions:int -> t -> int
(** Run until [Halt] or the budget, skipping retirement-record
    construction; returns instructions retired by this call. This
    allocates nothing per instruction. Timing accounting is
    identical to repeated {!step} (see {!total_cycles}). *)

val total_cycles : t -> int
(** Pipeline cycles consumed by every instruction retired so far (through
    {!step} or {!run}). *)

val reset_hazards : t -> unit
(** Forget pipeline-local hazard state; called when the machine swaps
    engines and the pipeline refills. *)
