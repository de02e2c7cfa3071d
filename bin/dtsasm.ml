(* SRISC assembler CLI: assemble, disassemble, optionally run on the golden
   machine.

   Examples:
     dtsasm prog.s --list
     dtsasm prog.s --run *)

open Cmdliner

let run file list_out run_it fuel =
  let src = In_channel.with_open_text file In_channel.input_all in
  let program =
    Dts_job.Cli.with_program_errors ~file (fun () ->
        Dts_asm.Assembler.assemble src)
  in
  Printf.printf "entry: %#x, %d instructions, %d data sections\n"
    program.entry
    (Array.length program.text)
    (List.length program.data);
  if list_out then
    Array.iter
      (fun (addr, instr) ->
        Printf.printf "%#08x  %08x  %s\n" addr
          (Dts_isa.Encode.encode ~pc:addr instr)
          (Dts_isa.Disasm.to_string instr))
      program.text;
  if run_it then begin
    let st = Dts_asm.Program.boot program in
    let g = Dts_golden.Golden.of_state st in
    let n = Dts_golden.Golden.run ~max_instructions:fuel g in
    Printf.printf "ran %d instructions; halted=%b; pc=%#x\n" n st.halted st.pc;
    for r = 8 to 15 do
      Printf.printf "  %s = %d\n" (Dts_isa.Disasm.reg_name r)
        (Dts_isa.State.get_reg st ~cwp:st.cwp r)
    done
  end

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s" ~doc:"Assembly source")

let list_arg = Arg.(value & flag & info [ "l"; "list" ] ~doc:"Print the listing")
let run_arg = Arg.(value & flag & info [ "r"; "run" ] ~doc:"Execute on the golden machine")
let fuel_arg = Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~doc:"Max instructions")

let cmd =
  Cmd.v
    (Cmd.info "dtsasm" ~doc:"SRISC assembler")
    Term.(const run $ file_arg $ list_arg $ run_arg $ fuel_arg)

let () = exit (Cmd.eval cmd)
