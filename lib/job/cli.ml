(** Shared CLI plumbing for [dtsvliw_sim], [experiments] and [dtsfuzz]
    (and the program-file error handler [dtsasm] and [tinycc] use too):
    the common flags spelled once, the common validation, and the common
    exit-code contract.

    Exit codes (documented in the README):
    - [0] — success;
    - [1] — the task itself failed (a fuzz divergence, a failed replay, an
      [--optcheck] violation);
    - [2] — usage errors rejected before any work starts: junk flag
      {e values} (non-positive budget/count, unknown config name, ...),
      flag combinations that cannot apply together, and malformed program
      files (see {!with_program_errors});
    - [124] — cmdliner's own exit for malformed command lines. *)

open Cmdliner

let version = "0.7.0"
(** Reported by every binary's [--version]. *)

let ok = 0
let task_failure = 1
let usage_error = 2

(** Print [msg] on stderr and exit {!usage_error}. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit usage_error)
    fmt

(** Exit {!usage_error} on [Error msg] — the flag-validation gate every
    binary runs before doing work. *)
let check = function Ok () -> () | Error msg -> die "%s" msg

let check_positive ~what n =
  if n <= 0 then die "%s must be positive (got %d)" what n

let check_non_negative ~what n =
  if n < 0 then die "%s must be >= 0 (got %d)" what n

(** Parse a [--config] geometry name or exit {!usage_error}. *)
let geoms_of_config config =
  match Dts_fuzz.Diff.geoms_of_string config with
  | Some geoms -> geoms
  | None -> die "unknown --config %s (expected all, ideal or feasible)" config

(** Run [f ()], which loads the program file [file]. A malformed program
    — an assembler, tinyc lexer, parser or code-generator error, or a
    malformed [.srisc] reproducer — prints ["file:line: msg"] (just
    ["file: msg"] for code-generator errors, which carry no line) and exits
    {!usage_error}. *)
let with_program_errors ~file f =
  try f () with
  | Dts_asm.Assembler.Error { line; msg }
  | Dts_fuzz.Repro.Parse_error { line; msg } ->
    die "%s:%d: %s" file line msg
  | Dts_tinyc.Lexer.Error { line; msg } ->
    die "%s:%d: lexical error: %s" file line msg
  | Dts_tinyc.Parser.Error { line; msg } ->
    die "%s:%d: parse error: %s" file line msg
  | Dts_tinyc.Codegen.Error msg -> die "%s: %s" file msg

(** [Cmd.info] with the shared [--version] string attached. *)
let cmd_info ?doc name = Cmd.info ?doc ~version name

(* ---------- the shared flags ---------- *)

let budget_arg ?(default = Job.default_budget) () =
  Arg.(
    value & opt int default
    & info [ "budget" ] ~docv:"N"
        ~doc:"Sequential-instruction budget per simulation run.")

let scale_arg =
  Arg.(
    value & opt int Job.default_scale
    & info [ "scale" ] ~docv:"N"
        ~doc:"Workload scale multiplier (outer iteration counts).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let jobs_arg ?(default = 1) ~doc () =
  Arg.(value & opt int default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let config_arg =
  Arg.(
    value & opt string "all"
    & info [ "config" ] ~docv:"GEOM"
        ~doc:"DTSVLIW geometries to exercise: all, ideal or feasible.")
