(** Install-time block compilation (§3.5, §3.8–3.11).

    The paper's premise is that scheduling work is paid {e once}, when the
    trace is scheduled into a block — replaying the block from the VLIW
    Cache is then cheap. Executing the scheduling structures directly would
    re-walk each scheduled op's association lists ([subs]/[redirect]),
    re-shift window-relative register positions and re-discover which ops
    are conditional branches every cycle. This module performs that
    analysis once per installed block and bakes the result into flat
    arrays the engine ({!Engine}) executes with array probes only.

    A plan is compiled against a specific window delta ([wdelta]): all
    window-relative integer-register positions in substitution and
    redirection maps, and the [cwp] each op executes under, are resolved at
    compile time. Blocks are entered at arbitrary call depths, so a plan
    holds one variant per {e observed} wdelta — the base variant (wdelta 0,
    by far the common case) plus a lazily built list of shifted variants.

    Plans carry no mutable execution state; the reusable scratch storage
    (renaming-register arena, buffered write/store vectors) lives in
    {!Engine.t}. A plan holds a pointer to the block it was compiled from,
    which the machine uses to detect staleness: the VLIW Cache owns blocks,
    and whenever a block leaves the cache (eviction, replacement,
    self-modifying-code invalidation) the plan compiled from it is dropped
    with it. *)

open Dts_sched.Schedtypes

(** A copy destination with the window shift already applied. [PT_mem] is a
    buffered store delivered from a memory renaming register; the address
    and size live in the source register at run time. *)
type ptarget = PT_ren of rref | PT_phys of int | PT_freg of int | PT_flags | PT_mem

type pmove = { pm_src : rref; pm_tgt : ptarget }

(** The source-substitution context of one op (§3.2 forwarding), probed by
    the engine's read overrides: positions in list order, so first-match
    semantics are preserved. A named record lets the engine publish a whole
    op's context with a single field write; ops with no substitutions share
    {!no_subs}. *)
type subs = {
  sp_pos : int array;  (** physical int reg positions (shifted) *)
  sp_rr : rref array;
  sf_pos : int array;
  sf_rr : rref array;
  s_icc : rref option;
}

let no_subs =
  { sp_pos = [||]; sp_rr = [||]; sf_pos = [||]; sf_rr = [||]; s_icc = None }

(** One slot op, pre-decoded. For an [P_op], the substitution and
    redirection association lists are split by storage kind into parallel
    position/register arrays (probed with integer compares, in list order so
    first-match semantics are preserved), and the per-op facts a direct
    walk would recompute each cycle — conditional-control?, trap
    deferrable?, store redirected?, execution cwp — are baked in. *)
type xop = {
  op : sop;
  x_cwp : int;  (** cwp this op executes under (shifted) *)
  x_uop : int;  (** packed decode of [op.instr] at [op.addr], for the
                    allocation-free {!Dts_isa.Semantics.exec_into_ov} *)
  subs : subs;  (** source-substitution context, shared when empty *)
  x_ovfree : bool;
      (** no substituted source and no memory read: the op reads
          architectural state only, so execution can skip the override
          closures entirely (the engine also skips them for
          substitution-free memory reads while the data store list is
          empty) *)
  red_phys_pos : int array;  (** redirected outputs, by kind *)
  red_phys_rr : rref array;
  red_freg_pos : int array;
  red_freg_rr : rref array;
  red_icc : rref option;
  red_win : bool;  (** a window-pointer output is redirected *)
  red_mem : rref option;  (** head-of-redirect memory output (§3.8) *)
  red_all : rref array;  (** every redirect target, for trap deferral *)
  deferrable : bool;
      (** every architectural output renamed — a trap defers into the
          renaming registers instead of ending the block (§3.11) *)
  is_cond : bool;  (** conditional control, re-evaluated against
                       [obs_next_pc] each execution (§3.5) *)
}

type pop =
  | P_op of xop  (** named, not inline: the executor passes the op record
                     to its evaluation helper *)
  | P_copy of { moves : pmove array; c_order : int }

(** One long instruction: ops in occupancy order with their branch tags.
    [p_cond] holds the indices of the conditional-control ops, so the
    per-execution misprediction scan touches only those. *)
type pli = { p_ops : pop array; p_tags : int array; p_cond : int array }

type variant = { v_wdelta : int; v_lis : pli array }

type t = {
  p_block : block;
  p_base : variant;  (** wdelta = 0 *)
  mutable p_variants : variant list;  (** shifted variants, lazily built *)
}

let shift_pos ~nwindows ~wdelta (pos : Dts_isa.Storage.t) : Dts_isa.Storage.t =
  match pos with
  | Int_reg p when p >= Dts_isa.State.n_globals ->
    let nw16 = nwindows * 16 in
    Int_reg
      (Dts_isa.State.n_globals
      + ((p - Dts_isa.State.n_globals + (wdelta * 16)) mod nw16))
  | Int_reg _ | Fp_reg _ | Flags | Win | Mem _ | Ren _ -> pos

(* Split an association list keyed by storage position into per-kind
   parallel arrays, preserving list order (= List.assoc_opt first-match
   order). Only integer-register keys are window-relative; Fp_reg/Flags
   keys are shift-invariant, and Win/Mem/Ren keys are never probed by
   position. *)
let split_assoc ~nwindows ~wdelta (l : (Dts_isa.Storage.t * rref) list) =
  let phys =
    List.filter_map
      (fun (p, rr) ->
        match shift_pos ~nwindows ~wdelta p with
        | Dts_isa.Storage.Int_reg q -> Some (q, rr)
        | _ -> None)
      l
  in
  let fregs =
    List.filter_map
      (fun (p, rr) ->
        match p with Dts_isa.Storage.Fp_reg f -> Some (f, rr) | _ -> None)
      l
  in
  let icc =
    List.find_map
      (fun ((p : Dts_isa.Storage.t), rr) ->
        match p with Flags -> Some rr | _ -> None)
      l
  in
  ( Array.of_list (List.map fst phys),
    Array.of_list (List.map snd phys),
    Array.of_list (List.map fst fregs),
    Array.of_list (List.map snd fregs),
    icc )

let build_op ~nwindows ~wdelta (s : sop) =
  let subs =
    if s.subs = [] then no_subs
    else
      let sp_pos, sp_rr, sf_pos, sf_rr, s_icc =
        split_assoc ~nwindows ~wdelta s.subs
      in
      { sp_pos; sp_rr; sf_pos; sf_rr; s_icc }
  in
  let red_phys_pos, red_phys_rr, red_freg_pos, red_freg_rr, red_icc =
    split_assoc ~nwindows ~wdelta s.redirect
  in
  let red_win =
    List.exists
      (fun ((p : Dts_isa.Storage.t), _) -> p = Win)
      s.redirect
  in
  let red_mem =
    match s.redirect with
    | (Dts_isa.Storage.Mem _, rr) :: _ -> Some rr
    | _ -> None
  in
  (* deferral is decided on the unshifted maps — membership is invariant
     under the uniform window shift *)
  let deferrable =
    s.redirect <> []
    && List.for_all (fun w -> List.mem_assoc w s.redirect) s.arch_writes
  in
  let x_uop = Dts_isa.Uop.of_instr ~pc:s.addr s.instr in
  let reads_mem =
    let opc = Dts_isa.Uop.opcode x_uop in
    opc lsr 4 = 2 || opc = Dts_isa.Uop.u_fload
  in
  P_op
    {
      op = s;
      x_cwp = (s.cwp + wdelta) mod nwindows;
      x_uop;
      subs;
      x_ovfree = subs == no_subs && not reads_mem;
      red_phys_pos;
      red_phys_rr;
      red_freg_pos;
      red_freg_rr;
      red_icc;
      red_win;
      red_mem;
      red_all = Array.of_list (List.map snd s.redirect);
      deferrable;
      is_cond = Dts_isa.Instr.is_conditional_ctrl s.instr;
    }

let build_move ~nwindows ~wdelta ((rr, tgt) : rref * wtarget) =
  let pm_tgt =
    match tgt with
    | T_ren dst -> PT_ren dst
    | T_arch pos -> (
      match shift_pos ~nwindows ~wdelta pos with
      | Int_reg p -> PT_phys p
      | Fp_reg f -> PT_freg f
      | Flags -> PT_flags
      | Mem _ -> PT_mem
      | Win -> invalid_arg "renamed window copy"
      | Ren _ -> invalid_arg "T_arch to a renaming register")
  in
  { pm_src = rr; pm_tgt }

let build_li ~nwindows ~wdelta (li : li) =
  let items =
    List.rev
      (li_fold
         (fun acc _k op tag ->
           let p =
             match op with
             | Op s -> build_op ~nwindows ~wdelta s
             | Copy c ->
               P_copy
                 {
                   moves =
                     Array.of_list
                       (List.map (build_move ~nwindows ~wdelta) c.c_moves);
                   c_order = c.c_order;
                 }
           in
           (p, tag) :: acc)
         [] li)
  in
  let p_ops = Array.of_list (List.map fst items) in
  let cond = ref [] in
  Array.iteri
    (fun i p -> match p with P_op o when o.is_cond -> cond := i :: !cond | _ -> ())
    p_ops;
  {
    p_ops;
    p_tags = Array.of_list (List.map snd items);
    p_cond = Array.of_list (List.rev !cond);
  }

let build_variant ~nwindows ~wdelta (b : block) =
  { v_wdelta = wdelta; v_lis = Array.map (build_li ~nwindows ~wdelta) b.lis }

(** Compile [b] into a plan with its base (wdelta 0) variant. *)
let compile ~nwindows (b : block) =
  { p_block = b; p_base = build_variant ~nwindows ~wdelta:0 b; p_variants = [] }

(** The variant of [t] for [wdelta], building and caching it on first
    observation. Returns [(variant, freshly_built)]. *)
let variant ~nwindows t ~wdelta =
  if wdelta = 0 then (t.p_base, false)
  else
    match List.find_opt (fun v -> v.v_wdelta = wdelta) t.p_variants with
    | Some v -> (v, false)
    | None ->
      let v = build_variant ~nwindows ~wdelta t.p_block in
      t.p_variants <- v :: t.p_variants;
      (v, true)
