(** The golden reference machine — the paper's "test machine" (§4).

    A purely sequential SRISC interpreter with no timing model. It is used
    to (a) validate the DTSVLIW and DIF machines instruction-by-instruction
    in test mode, and (b) count the number of instructions needed for the
    sequential execution of a program, which is the numerator of the paper's
    instructions-per-cycle metric (a DTSVLIW alone cannot provide it because
    of copy instructions and speculation, §4).

    Instructions execute as packed micro-ops into a preallocated outcome
    buffer — zero allocation per instruction. *)

exception Program_halted

type t = {
  st : Dts_isa.State.t;
  buf : Dts_isa.Semantics.outcome_buf;  (** per-instruction outcome scratch *)
}

let create ?(nwindows = 32) ?mem () =
  {
    st = Dts_isa.State.create ~nwindows ?mem ();
    buf = Dts_isa.Semantics.make_buf ();
  }

let of_state st = { st; buf = Dts_isa.Semantics.make_buf () }

let state t = t.st

(* one instruction, without the halted-state test [step] adds *)
let step_unchecked t =
  let st = t.st in
  let pc = st.pc in
  let u = Dts_isa.Predecode.fetch_uop st.predecode ~addr:pc in
  if Dts_isa.Uop.opcode u = Dts_isa.Uop.u_halt then begin
    st.halted <- true;
    st.instret <- st.instret + 1;
    raise Program_halted
  end;
  let b = t.buf in
  Dts_isa.Semantics.exec_into st ~cwp:st.cwp ~pc u b;
  if b.b_trap <> 0 then
    Dts_isa.Semantics.service_and_exec_into st ~cwp:st.cwp ~pc u b;
  Dts_isa.Semantics.apply_buf st b

(** Execute exactly one instruction. Raises {!Program_halted} on [Halt]. *)
let step t =
  if t.st.halted then raise Program_halted;
  step_unchecked t

(** Run until [Halt] or until [max_instructions] more instructions have
    retired; returns the number retired by this call. *)
let run ?max_instructions t =
  let budget = match max_instructions with Some n -> n | None -> max_int in
  let st = t.st in
  let start = st.instret in
  let stop = if budget > max_int - start then max_int else start + budget in
  (* halt test hoisted out of the loop, as in {!advance_to_pc} *)
  (try
     if st.halted then raise Program_halted
     else
       while st.instret < stop do
         step_unchecked t
       done
   with Program_halted -> ());
  st.instret - start

(** Step until the golden PC equals [pc] or the budget runs out — the test
    mode synchronisation primitive ("runs until its PC becomes equal to the
    DTSVLIW PC"). Returns [false] if the budget was exhausted first, or if
    the machine halted away from [pc]. A machine sitting halted {e at} [pc]
    has reached it — the answer does not depend on whether the halt
    happened before or during this call. *)
let run_until_pc ?(fuel = 10_000_000) t ~pc =
  let rec go fuel =
    if t.st.pc = pc then true
    else if t.st.halted || fuel = 0 then false
    else begin
      (try step t with Program_halted -> ());
      go (fuel - 1)
    end
  in
  go fuel

(** Advance to the next occurrence of [pc] (a no-op if already there),
    stopping early on halt or when [fuel] runs out; returns the unspent
    fuel. The inner loop is the test-mode sync hot path: it runs
    {!step_unchecked} directly — one exception handler around the whole
    run instead of a handler and a halt test per step. *)
let advance_to_pc t ~pc ~fuel =
  let st = t.st in
  let fuel = ref fuel in
  (try
     while st.pc <> pc && not st.halted && !fuel > 0 do
       step_unchecked t;
       decr fuel
     done
   with Program_halted -> decr fuel);
  !fuel
