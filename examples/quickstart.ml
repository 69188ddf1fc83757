(* Quickstart: build the paper's model, check it exhaustively, and watch an
   ablation fail.

     dune exec examples/quickstart.exe

   Steps:
   1. configure a small bounded instance (1 mutator, 2 references, one
      collection cycle, up to 2 heap operations);
   2. build the CIMP system  GC || M0 || Sys;
   3. explore every reachable state, checking the paper's full invariant
      catalogue (Sections 2.1 and 3.2);
   4. repeat with the deletion barrier removed and print the shortest
      counterexample schedule the checker finds. *)

let () =
  (* 1. configuration *)
  let cfg =
    {
      Core.Config.default with
      n_muts = 1;
      n_refs = 2;
      n_fields = 1;
      buf_bound = 1;
      max_cycles = 1;
      max_mut_ops = 2;
    }
  in
  let shape = Gcheap.Shapes.single ~n_refs:2 ~n_fields:1 in

  (* 2. the model: collector, mutators and the TSO system process *)
  let model = Core.Model.make cfg shape in
  Fmt.pr "model: %d processes (%s)@."
    (Cimp.System.n_procs model.Core.Model.system)
    (String.concat ", "
       (List.init (Cimp.System.n_procs model.Core.Model.system)
          (Cimp.System.name model.Core.Model.system)));

  (* 3. exhaustive check of the full invariant catalogue *)
  let invariants =
    List.map (fun i -> (i.Core.Invariants.name, Core.Invariants.check i)) (Core.Invariants.all cfg)
  in
  Fmt.pr "checking %d invariants, among them:@." (List.length invariants);
  List.iteri
    (fun i inv ->
      if i < 5 then Fmt.pr "  - %s: %s@." inv.Core.Invariants.name inv.Core.Invariants.doc)
    (Core.Invariants.all cfg);
  let outcome = Check.Explore.run ~max_states:5_000_000 ~invariants model.Core.Model.system in
  Fmt.pr "paper collector: %a@.@." Check.Explore.pp_outcome outcome;

  (* 4. the same instance without the deletion barrier *)
  let broken = { cfg with Core.Config.deletion_barrier = false; max_mut_ops = 3 } in
  let shape3 = Gcheap.Shapes.chain ~n_refs:3 ~n_fields:1 3 in
  let broken = { broken with Core.Config.n_refs = 3; mut_alloc = false; mut_discard = false } in
  let model' = Core.Model.make broken shape3 in
  let safety =
    List.map
      (fun i -> (i.Core.Invariants.name, Core.Invariants.check i))
      (Core.Invariants.safety_invariants broken)
  in
  let outcome' = Check.Explore.run ~max_states:5_000_000 ~invariants:safety model'.Core.Model.system in
  Fmt.pr "without the deletion barrier: %a@." Check.Explore.pp_outcome outcome';
  match outcome'.Check.Explore.violation with
  | Some trace ->
    Fmt.pr "@.shortest counterexample (%d atomic actions):@.%a@." (Check.Trace.length trace)
      (Core.Dump.pp_trace broken) trace
  | None -> Fmt.pr "unexpected: no violation found@."
