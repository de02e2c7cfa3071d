(** The golden reference machine — the paper's "test machine" (§4).

    A purely sequential SRISC interpreter with no timing model, used to
    validate the DTSVLIW and DIF machines instruction by instruction and to
    count the sequential instructions that form the numerator of the
    instructions-per-cycle metric. *)

exception Program_halted

type t

val create : ?nwindows:int -> ?mem:Dts_mem.Memory.t -> unit -> t
(** A fresh machine; [nwindows] defaults to 32. It runs the
    allocation-free packed-op interpreter
    ({!Dts_isa.Semantics.exec_into}); the boxed {!Dts_isa.Semantics.exec}
    is the test-side reference it is checked against. *)

val of_state : Dts_isa.State.t -> t
(** Wrap an existing architectural state (used by the co-simulation, which
    boots two identical states and hands one to the golden machine). *)

val state : t -> Dts_isa.State.t

val step : t -> unit
(** Execute exactly one instruction, servicing traps in place.
    @raise Program_halted on [Halt]. *)

val run : ?max_instructions:int -> t -> int
(** Run until [Halt] or the budget; returns instructions retired by this
    call. *)

val run_until_pc : ?fuel:int -> t -> pc:int -> bool
(** Step until the PC equals [pc] ([false] if the fuel ran out first, or if
    the machine halted elsewhere) — the test-mode synchronisation
    primitive. Halted {e at} [pc] counts as reached whether the halt
    predates the call or happens during it. *)

val advance_to_pc : t -> pc:int -> fuel:int -> int
(** Advance to the next occurrence of [pc] (a no-op if already there),
    stopping on halt or fuel exhaustion; returns the unspent fuel. The
    co-simulation sync loop's inner primitive: one exception handler per
    run instead of per step. *)
