(* tinyc compiler CLI: compile to SRISC assembly, optionally run.

   Examples:
     tinycc prog.c            # print generated assembly
     tinycc prog.c --run      # compile, assemble, run on the golden machine *)

open Cmdliner

let run file run_it fuel =
  let src = In_channel.with_open_text file In_channel.input_all in
  let asm =
    Dts_job.Cli.with_program_errors ~file (fun () ->
        Dts_tinyc.Tinyc.compile_to_assembly src)
  in
  if not run_it then print_string asm
  else begin
    let program = Dts_asm.Assembler.assemble asm in
    let st = Dts_asm.Program.boot program in
    let g = Dts_golden.Golden.of_state st in
    let n = Dts_golden.Golden.run ~max_instructions:fuel g in
    Printf.printf "ran %d instructions; halted=%b; main returned %d\n" n
      st.halted
      (Dts_isa.State.get_reg st ~cwp:st.cwp 8)
  end

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c" ~doc:"tinyc source")

let run_arg = Arg.(value & flag & info [ "r"; "run" ] ~doc:"Run on the golden machine")
let fuel_arg = Arg.(value & opt int 50_000_000 & info [ "fuel" ] ~doc:"Max instructions")

let cmd =
  Cmd.v
    (Cmd.info "tinycc" ~doc:"tinyc to SRISC compiler")
    Term.(const run $ file_arg $ run_arg $ fuel_arg)

let () = exit (Cmd.eval cmd)
