(* The host-speed yardstick.

   The host this benchmark runs on is a few cores of a shared machine,
   and its speed drifts: the same pass of the same code takes anywhere
   from 0.8 s to 1.4 s within a minute, with CPU time equal to wall time
   (nothing preempts the process; the cores themselves get slower). So
   the end-to-end times divide every measured span by the time of a fixed
   piece of work, sampled next to it, and report the quotient in seconds
   of a host that does that work in [nominal_s].

   The work is the benchmark's own code and calls nothing in lib/, so no
   change to the simulator moves it. It does what the simulator does
   most, in two halves: hashed inserts and lookups at random in a table
   of half a megabyte, and an interpreter running a fixed random program
   with data-dependent branches over a register file and a memory of
   half a megabyte. Each half alone followed the host's drift less
   closely than their sum. Both keep their data outside the OCaml heap
   and allocate nothing, so the yardstick neither shows in heap_peak_mb
   or minor_words_per_instr nor leaves work for the garbage collector. *)

open Bigarray

(* About what the host measured in README.md takes when it is quiet. *)
let nominal_s = 0.020

let slots = 65536
let table = Array1.create int c_layout slots

(* The table half. Each iteration stores a pseudo-random key in an
   open-addressed table (a slot holds key lsl 40 lor the iteration that
   wrote it; a slot written 16384 or more iterations ago is free) and
   looks up another. The table starts empty on every call, so a call's
   cost depends only on [iters]. *)
let hash_table ~iters =
  Array1.fill table 0;
  let x = ref 12345 in
  for i = 1 to iters do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 0x3fff in
    let j = ref (((k * 0x9e3779b1) lsr 4) land (slots - 1)) in
    while
      let v = Array1.unsafe_get table !j in
      v <> 0 && v lsr 40 <> k && v land 0xffffffffff > i - 0x4000
    do
      j := (!j + 1) land (slots - 1)
    done;
    Array1.unsafe_set table !j ((k lsl 40) lor i);
    let q = (!x lsr 7) land 0x3fff in
    let v = Array1.unsafe_get table (((q * 0x9e3779b1) lsr 4) land (slots - 1)) in
    if v lsr 40 = q then x := !x + (v land 0xff)
  done;
  ignore (Sys.opaque_identity !x)

(* A random program for {!interp}: one instruction per word, an opcode
   in the low 4 bits, three register fields, an immediate above them. *)
let program =
  let p = Array1.create int c_layout 4096 and x = ref 99 in
  for i = 0 to 4095 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Array1.set p i !x
  done;
  p

let regs = Array1.create int c_layout 32
let memory = Array1.create int c_layout slots

(* Runs [steps] instructions of [program] from a reset state, so a call's
   cost depends only on [steps]. *)
let interp ~steps =
  Array1.fill regs 1;
  Array1.fill memory 0;
  let pc = ref 0 in
  for _ = 1 to steps do
    let w = Array1.unsafe_get program !pc in
    let rd = (w lsr 4) land 31 and imm = w lsr 19 in
    let a = Array1.unsafe_get regs ((w lsr 9) land 31)
    and b = Array1.unsafe_get regs ((w lsr 14) land 31) in
    let next = (!pc + 1) land 4095 in
    pc := next;
    match w land 15 with
    | 0 | 1 -> Array1.unsafe_set regs rd ((a + b) land 0xffffffff)
    | 2 -> Array1.unsafe_set regs rd ((a - b) land 0xffffffff)
    | 3 -> Array1.unsafe_set regs rd (a lxor (b lsl 3) land 0xffffffff)
    | 4 -> Array1.unsafe_set regs rd ((a * 2654435761) land 0xffffffff)
    | 5 | 6 -> Array1.unsafe_set regs rd (Array1.unsafe_get memory ((a + imm) land (slots - 1)))
    | 7 | 8 -> Array1.unsafe_set memory ((b + imm) land (slots - 1)) a
    | 9 -> if a land 1 = 0 then pc := imm land 4095
    | 10 -> if a < b then pc := (next + (imm land 63)) land 4095
    | 11 -> Array1.unsafe_set regs rd (if a > b then a else b)
    | 12 -> Array1.unsafe_set regs rd ((a lsr (b land 7)) lor 1)
    | 13 -> if a land 3 = b land 3 then pc := imm land 4095
    | _ -> Array1.unsafe_set regs rd ((a land b) lor imm)
  done

(* One sample, in seconds: 1M table iterations and 4M interpreted
   instructions, about 20 ms on a quiet host, 2% of the shortest pass. *)
let sample () =
  let t0 = Clock.now () in
  hash_table ~iters:1_000_000;
  interp ~steps:4_000_000;
  Clock.seconds (Clock.now () - t0)

(* [span_s], measured while a sample took [sample_s], in seconds of the
   nominal host. *)
let scale ~sample_s span_s = span_s *. nominal_s /. sample_s
