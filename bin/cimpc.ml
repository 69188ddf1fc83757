(* cimpc — the CIMP concrete-language tool: parse, typecheck,
   pretty-print, and explore programs written in the surface syntax.

     cimpc check FILE      parse + typecheck
     cimpc pp FILE         parse and pretty-print (round-trip aid)
     cimpc run FILE        explore the compiled system, checking asserts
     cimpc examples        list the bundled example programs
     cimpc run -e NAME     run a bundled example
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let source_term =
  let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE") in
  let example =
    Arg.(value & opt (some string) None & info [ "e"; "example" ] ~doc:"Use a bundled example.")
  in
  let get file example =
    match (file, example) with
    | Some f, None -> read_file f
    | None, Some e -> (
      match Cimp_lang.Examples.by_name e with
      | Some (_, src, _) -> src
      | None -> Fmt.failwith "unknown example %s" e)
    | _ -> Fmt.failwith "give exactly one of FILE or --example"
  in
  Term.(const get $ file $ example)

let check_cmd =
  let run src =
    let prog = Cimp_lang.Parser.program src in
    let chans = Cimp_lang.Typecheck.program prog in
    Fmt.pr "ok: %d processes, %d channels@." (List.length prog) (List.length chans)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and typecheck.") Term.(const run $ source_term)

let pp_cmd =
  let run src =
    let prog = Cimp_lang.Parser.program src in
    Fmt.pr "%a@." Cimp_lang.Ast.pp_program prog
  in
  Cmd.v (Cmd.info "pp" ~doc:"Parse and pretty-print.") Term.(const run $ source_term)

let obs_term =
  let doc = Fmt.str "Observability sink: %s." Obs.Reporter.spec_doc in
  let env = Cmd.Env.info "RELAXING_OBS" ~doc:"Default observability sink." in
  let spec = Arg.(value & opt (some string) None & info [ "obs" ] ~env ~docv:"SPEC" ~doc) in
  let resolve spec =
    try Ok (Obs.Reporter.resolve ?spec ()) with Invalid_argument msg -> Error msg
  in
  Term.(term_result' (const resolve $ spec))

let reduce_term =
  let doc = "State-space reduction: none, sym, por or all (surface programs support none only)." in
  let env = Cmd.Env.info "RELAXING_REDUCE" ~doc:"Default reduction mode." in
  let spec = Arg.(value & opt string "none" & info [ "reduce" ] ~env ~docv:"MODE" ~doc) in
  Term.(term_result' (const Reduce.Mode.of_string $ spec))

let run_cmd =
  let max_states =
    Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~doc:"State cap.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Worker domains for the work-stealing BFS (1 = a plain FIFO BFS).")
  in
  let run src max_states jobs reduce obs =
    let sys = Cimp_lang.Compile.of_source src in
    (* Surface-language systems carry no reduction spec (no symmetry
       classes, and user-chosen labels could collide with the POR
       policy's "...fence" convention), so anything but none degrades
       to unreduced checking — loudly, not silently. *)
    (match reduce with
    | Reduce.Mode.None_ -> ()
    | m ->
      Fmt.epr "warning: --reduce=%a is not available for surface programs; running unreduced@."
        Reduce.Mode.pp m);
    let o =
      Check.Explore.run ~jobs ~max_states ~obs
        ~invariants:[ ("assertions", Cimp_lang.Compile.assertions_hold) ]
        sys
    in
    Fmt.pr "%a@." Check.Explore.pp_outcome o;
    match o.Check.Explore.violation with
    | Some tr ->
      Fmt.pr "%a@." Check.Trace.pp tr;
      Obs.Reporter.emit obs "violation" [ ("trace", Check.Trace.to_json tr) ];
      Obs.Reporter.close obs;
      exit 1
    | None -> Obs.Reporter.close obs
  in
  Cmd.v (Cmd.info "run" ~doc:"Explore the compiled system, checking asserts.")
    Term.(const run $ source_term $ max_states $ jobs $ reduce_term $ obs_term)

let examples_cmd =
  let run () =
    List.iter (fun (n, _, note) -> Fmt.pr "%-18s %s@." n note) Cimp_lang.Examples.all
  in
  Cmd.v (Cmd.info "examples" ~doc:"List bundled examples.") Term.(const run $ const ())

let () =
  let info = Cmd.info "cimpc" ~doc:"CIMP concrete-language front-end." in
  exit (Cmd.eval (Cmd.group info [ check_cmd; pp_cmd; run_cmd; examples_cmd ]))
