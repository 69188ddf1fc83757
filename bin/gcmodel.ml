(* gcmodel — command-line driver for the collector model: exhaustive and
   randomized checking, checkpoints, certificates, forensics, the mutation
   campaign, the concrete runtime harness and the generated manuals
   (`gcmodel --help` lists the subcommands). *)

open Cmdliner

(* -- the checked instance ------------------------------------------------------

   Every subcommand that checks a model takes it from [scenario_term]:
   the model flags resolve to one Core.Scenario.t, labelled with the
   variant (and the armed mutant, if any).  Checkpoint manifests and
   certificate headers store that scenario's JSON form, and resume and
   recheck rebuild the model from it (Core.Scenario.of_json), never by
   resolving flags a second time. *)

let arm_mutant cfg name =
  if String.starts_with ~prefix:"variant:" name then
    match Core.Variants.by_name (String.sub name 8 (String.length name - 8)) with
    | Some v -> Ok (v.Core.Variants.tweak cfg)
    | None -> Error (Fmt.str "unknown variant mutant %s" name)
  else (
    (* resolve against the instance, falling back to a site-rich
       configuration: arming a mutation whose site is absent is a
       harmless no-op, and triage stubs quote mutant names from the
       campaign's enumeration configuration *)
    let fat =
      {
        cfg with
        Core.Config.max_cycles = max 2 cfg.Core.Config.max_cycles;
        max_mut_ops = 3;
        mut_load = true;
        mut_store = true;
        mut_alloc = true;
        mut_discard = true;
      }
    in
    match
      match Mutate.Operators.by_name cfg name with
      | Some m -> Some m
      | None -> Mutate.Operators.by_name fat name
    with
    | Some m -> Ok (Mutate.Operators.tweak m cfg)
    | None -> Error (Fmt.str "unknown mutant %s (see `gcmodel campaign --list`)" name))

(* the model flags, resolved to (label, configuration) *)
let config_term =
  let muts = Arg.(value & opt int 1 & info [ "muts" ] ~doc:"Number of mutators.") in
  let refs = Arg.(value & opt int 3 & info [ "refs" ] ~doc:"Heap size (references).") in
  let fields = Arg.(value & opt int 1 & info [ "fields" ] ~doc:"Fields per object.") in
  let buf = Arg.(value & opt int 1 & info [ "buf" ] ~doc:"TSO store-buffer capacity.") in
  let cycles =
    Arg.(value & opt int 1 & info [ "cycles" ] ~doc:"Collector cycles (0 = unbounded).")
  in
  let ops =
    Arg.(value & opt int 2 & info [ "ops" ] ~doc:"Heap-operation budget per mutator (0 = unbounded).")
  in
  let variant =
    Arg.(value & opt string "paper" & info [ "variant" ] ~doc:"Collector variant (see $(b,variants)).")
  in
  let no_ops =
    Arg.(value & opt_all string [] & info [ "disable" ] ~doc:"Disable a mutator op: load, store, alloc, discard, mfence.")
  in
  let mutant =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            "Arm one campaign mutant (an operator mutant like \
             $(b,drop-fence:gc:hs2:store-fence), or $(b,variant:NAME) for an ablation) on \
             top of the configured instance.  Survivor triage stubs reference this flag.")
  in
  let resolve muts refs fields buf cycles ops variant no_ops mutant =
    let ( let* ) = Result.bind in
    let* v =
      Option.to_result ~none:(Fmt.str "unknown variant %s" variant) (Core.Variants.by_name variant)
    in
    let cfg =
      v.Core.Variants.tweak
        {
          Core.Config.default with
          n_muts = muts;
          n_refs = refs;
          n_fields = fields;
          buf_bound = buf;
          max_cycles = cycles;
          max_mut_ops = ops;
        }
    in
    let disable cfg = function
      | "load" -> Ok { cfg with Core.Config.mut_load = false }
      | "store" -> Ok { cfg with Core.Config.mut_store = false }
      | "alloc" -> Ok { cfg with Core.Config.mut_alloc = false }
      | "discard" -> Ok { cfg with Core.Config.mut_discard = false }
      | "mfence" -> Ok { cfg with Core.Config.mut_mfence = false }
      | s -> Error (Fmt.str "unknown op %s" s)
    in
    let* cfg = List.fold_left (fun acc n -> Result.bind acc (fun c -> disable c n)) (Ok cfg) no_ops in
    match mutant with
    | None -> Ok (variant, cfg)
    | Some name ->
      let* cfg = arm_mutant cfg name in
      Ok (variant ^ "+" ^ name, cfg)
  in
  Term.(
    term_result'
      (const resolve $ muts $ refs $ fields $ buf $ cycles $ ops $ variant $ no_ops $ mutant))

let shape_name sc = sc.Core.Scenario.shape.Gcheap.Shapes.name

let pp_instance ppf sc =
  let cfg = sc.Core.Scenario.cfg in
  Fmt.pf ppf "variant=%s shape=%s muts=%d refs=%d" sc.Core.Scenario.label (shape_name sc)
    cfg.Core.Config.n_muts cfg.Core.Config.n_refs

let scenario_term =
  let shape =
    Arg.(value & opt string "single" & info [ "shape" ] ~doc:"Initial heap shape (see $(b,shapes)).")
  in
  let make (label, cfg) shape = Core.Scenario.of_config ~label ~shape cfg in
  Term.(term_result' (const make $ config_term $ shape))

let obs_term =
  let doc = Fmt.str "Observability sink: %s." Obs.Reporter.spec_doc in
  let env = Cmd.Env.info "RELAXING_OBS" ~doc:"Default observability sink." in
  let spec = Arg.(value & opt (some string) None & info [ "obs" ] ~env ~docv:"SPEC" ~doc) in
  let resolve spec =
    try Ok (Obs.Reporter.resolve ?spec ()) with Invalid_argument msg -> Error msg
  in
  Term.(term_result' (const resolve $ spec))

let trace_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON timeline to $(docv) (load it in Perfetto or \
           chrome://tracing): one lane per worker domain, with expand/phase, steal, \
           steal-fail and termination-probe spans (explore) or per-walker spans (walk).")

(* finish the tracer and tell the user where the timeline went *)
let close_trace tracer trace_out =
  match Obs.Tracing.finish tracer ?out:trace_out () with
  | None -> ()
  | Some (events, drops) ->
    Fmt.pr "trace: %d events written to %s%s@." events
      (Option.value trace_out ~default:"?")
      (if drops > 0 then Fmt.str " (%d dropped: ring full)" drops else "")

(* --reduce / RELAXING_REDUCE.  The default differs per subcommand
   (explore: all — the reductions are proven-sound and the point of
   exhaustive closure is reach; walk: none — reduced walks sample a
   different schedule distribution per seed), so the parsed default
   string is a parameter. *)
let reduce_term ~default =
  let doc = Fmt.str "State-space reduction: none, sym, por or all (default %s)." default in
  let env = Cmd.Env.info "RELAXING_REDUCE" ~doc:"Default reduction mode." in
  let spec = Arg.(value & opt string default & info [ "reduce" ] ~env ~docv:"MODE" ~doc) in
  Term.(term_result' (const Reduce.Mode.of_string $ spec))

let safety_only =
  Arg.(value & flag & info [ "safety-only" ] ~doc:"Check only the safety invariants.")

let max_states =
  Arg.(value & opt int 10_000_000 & info [ "max-states" ] ~doc:"State cap for exploration.")

let jobs =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for the work-stealing BFS (explore, crosscheck; 1, the default, is a \
           plain FIFO BFS) or the random-walk swarm (walk).")

(* -- tiered store / checkpoint flags (lib/store) ----------------------------- *)

let byte_size_conv =
  let parse s =
    let n = String.length s in
    if n = 0 then Error (`Msg "empty size")
    else
      let mult, digits =
        match s.[n - 1] with
        | 'k' | 'K' -> (1 lsl 10, String.sub s 0 (n - 1))
        | 'm' | 'M' -> (1 lsl 20, String.sub s 0 (n - 1))
        | 'g' | 'G' -> (1 lsl 30, String.sub s 0 (n - 1))
        | _ -> (1, s)
      in
      match int_of_string_opt digits with
      | Some v when v > 0 -> Ok (v * mult)
      | _ -> Error (`Msg (Fmt.str "invalid size %S (expected e.g. 512M, 2G, 65536)" s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.pf ppf "%d" v)

let mem_budget_term =
  Arg.(
    value
    & opt (some byte_size_conv) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Resident-byte budget for the seen-set (suffixes k, M, G).  Shards that cross \
           their slice of the budget freeze into Bloom-fronted sorted segments on disk \
           (see $(b,--spill-dir)); membership stays exact, so verdicts are unchanged.  \
           Absent, the seen-set stays entirely in RAM.")

let spill_dir_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:"Directory for spilled segment files (default: a fresh temporary directory).")

let checkpoint_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Snapshot the full exploration state into $(docv) periodically (atomic: a \
           half-written snapshot is never visible) and once more on completion.  Continue \
           an interrupted run with $(b,gcmodel resume) $(docv).")

let checkpoint_every_term =
  Arg.(
    value
    & opt int 50_000
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"States between checkpoints (with $(b,--checkpoint); default 50000).")

(* One exhaustive exploration: the instance plus the run parameters.
   Checkpoint manifests store exactly this, so resume continues with the
   interrupted run's settings. *)
type exploration = {
  sc : Core.Scenario.t;
  safety_only : bool;
  max_states : int;
  jobs : int;
  reduce : Reduce.Mode.t;
  mem_budget : int option;
  checkpoint_every : int;
}

let manifest_json e =
  Obs.Json.Obj
    [
      ("scenario", Core.Scenario.to_json e.sc);
      ("safety_only", Obs.Json.Bool e.safety_only);
      ("max_states", Obs.Json.Int e.max_states);
      ("jobs", Obs.Json.Int e.jobs);
      ("reduce", Obs.Json.String (Reduce.Mode.to_string e.reduce));
      ("mem_budget", match e.mem_budget with None -> Obs.Json.Null | Some b -> Obs.Json.Int b);
      ("checkpoint_every", Obs.Json.Int e.checkpoint_every);
    ]

let exploration_of_manifest json =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let field name conv =
    Option.to_result
      ~none:(Fmt.str "manifest field %S missing or ill-typed" name)
      (Option.bind (member name json) conv)
  in
  let* scenario =
    Option.to_result
      ~none:
        "manifest has no \"scenario\" object: the checkpoint predates the scenario \
         manifest format and cannot be resumed; re-run explore --checkpoint"
      (member "scenario" json)
  in
  let* sc = Result.map_error (Fmt.str "manifest: %s") (Core.Scenario.of_json scenario) in
  let* safety_only = field "safety_only" to_bool in
  let* max_states = field "max_states" to_int in
  let* jobs = field "jobs" to_int in
  let* reduce = Result.bind (field "reduce" to_string_opt) Reduce.Mode.of_string in
  let* mem_budget =
    field "mem_budget" (function Null -> Some None | Int b -> Some (Some b) | _ -> None)
  in
  let* checkpoint_every = field "checkpoint_every" to_int in
  Ok { sc; safety_only; max_states; jobs; reduce; mem_budget; checkpoint_every }

let report cfg obs (violation : _ Check.Trace.t option) =
  match violation with
  | None -> ()
  | Some tr ->
    Fmt.pr "%a@." (Core.Dump.pp_trace cfg) tr;
    (* the counterexample as a replayable artifact *)
    Obs.Reporter.emit obs "violation" [ ("trace", Check.Trace.to_json tr) ]

(* -- counterexample forensics (lib/explain) ---------------------------------- *)

let explain_last =
  Arg.(
    value
    & opt int 8
    & info [ "last" ]
        ~doc:"How many steps touching the witness refs the explanation shows.")

let explain_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"FILE"
        ~doc:"On a violation, write a counterexample forensics HTML report to $(docv).")

let write_explanation ?(last = 8) ~html ~obs cfg (tr : Explain.Report.trace) =
  let rep = Explain.Report.analyze cfg tr in
  Obs.Reporter.emit obs "explanation" [ ("report", Explain.Report.to_json rep) ];
  (match html with
  | None -> ()
  | Some path ->
    Explain.Report.write_html ~last path rep;
    Fmt.pr "explain: HTML report written to %s@." path);
  rep

(* the --explain=FILE rider on explore / walk / crosscheck *)
let explain_violation ?last ~html ~obs cfg violation =
  match (html, violation) with
  | None, _ -> ()
  | Some _, None -> Fmt.pr "explain: no violation — no report written@."
  | Some _, Some tr -> ignore (write_explanation ?last ~html ~obs cfg tr)

let certificate_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "certificate" ] ~docv:"DIR"
        ~doc:
          "On a closed, violation-free run, write a proof-witness certificate into $(docv): \
           the reach table (canonical fingerprint, BFS depth, invariant verdict per state) \
           in the delta-compressed segment format, under a header binding the configuration \
           hash, reduction mode and closure obligations.  Validate it later — without \
           re-running the explorer — with $(b,gcmodel recheck) $(docv).  Refused (exit 1) \
           on truncated or violating runs.  See docs/CERTIFICATES.md.")

(* The run shared by explore and resume.  [resume] continues a loaded
   snapshot; [checkpoint] names the directory to keep snapshotting into. *)
let run_exploration e ~resume ~spill_dir ~checkpoint ~certificate ~explain ~trace_out ~obs =
  let { sc; safety_only; max_states; jobs; reduce; mem_budget; checkpoint_every } = e in
  let cfg = sc.Core.Scenario.cfg in
  let system = (Core.Scenario.model sc).Core.Model.system in
  let reducer = Core.Reduction.reducer cfg reduce in
  let invariants = Core.Scenario.invariants ~safety_only sc in
  let tracer = Obs.Tracing.resolve ?out:trace_out ~domains:(max 1 jobs) () in
  (* at jobs = 1 the certificate table is dumped straight from the
     seen-set (the one-worker pool is a FIFO BFS, so its depth stamps
     are BFS distances) *)
  let cert_dump = ref None in
  let on_store =
    if certificate <> None && jobs <= 1 then
      Some (fun store -> cert_dump := Some (Certify.Writer.of_store store))
    else None
  in
  let o =
    Check.Explore.run ~jobs ~max_states ~obs ~tracer ?reducer ?mem_budget ?spill_dir
      ?checkpoint:(Option.map (fun dir -> (dir, checkpoint_every)) checkpoint)
      ?resume ?on_store ~run_config:(manifest_json e) ~invariants system
  in
  Fmt.pr "%a@." Check.Explore.pp_outcome o;
  report cfg obs o.Check.Explore.violation;
  explain_violation ~html:explain ~obs cfg o.Check.Explore.violation;
  let certify dir =
    let ( let* ) = Result.bind in
    let* () =
      if o.Check.Explore.truncated then Error "run truncated (state cap reached)"
      else if o.Check.Explore.violation <> None then Error "run found a violation"
      else Ok ()
    in
    let* entries, max_depth =
      if jobs <= 1 then
        Option.value !cert_dump ~default:(Error "internal error: seen-set dump not captured")
      else begin
        (* parallel schedules can drift at the symmetry reduction's
           local-automorphism boundary: re-derive the canonical quotient
           table at jobs=1 so the certificate is byte-identical to a
           jobs=1 run's *)
        Fmt.pr "certificate: re-deriving the table at jobs=1 (jobs=%d order is \
                schedule-dependent)@."
          jobs;
        Certify.Writer.derive ~reducer ~invariants system
      end
    in
    let* h =
      Certify.Writer.write ~dir ~config_hash:(Core.Config.hash cfg)
        ~reduce:(Reduce.Mode.to_string reduce) ~invariant_names:(List.map fst invariants)
        ~scenario:(Core.Scenario.to_json sc) ~safety_only ~max_depth entries
    in
    Fmt.pr "certificate: %d states (max depth %d, config %s) written to %s@."
      h.Certify.Certificate.states h.Certify.Certificate.max_depth
      h.Certify.Certificate.config_hash dir;
    Ok ()
  in
  let certified = Option.fold ~none:(Ok ()) ~some:certify certificate in
  close_trace tracer trace_out;
  Obs.Reporter.close obs;
  match certified with
  | Error msg ->
    Fmt.epr "certificate refused: %s@." msg;
    exit 1
  | Ok () -> ()

let explore_cmd =
  let exploration sc safety_only max_states jobs reduce mem_budget checkpoint_every =
    { sc; safety_only; max_states; jobs; reduce; mem_budget; checkpoint_every }
  in
  let run e spill_dir checkpoint certificate explain trace_out obs =
    let cfg = e.sc.Core.Scenario.cfg in
    Fmt.pr "exploring %a cycles=%d ops=%d jobs=%d reduce=%a%a@." pp_instance e.sc
      cfg.Core.Config.max_cycles cfg.Core.Config.max_mut_ops e.jobs Reduce.Mode.pp e.reduce
      Fmt.(option (fmt " mem-budget=%d"))
      e.mem_budget;
    run_exploration e ~resume:None ~spill_dir ~checkpoint ~certificate ~explain ~trace_out ~obs
  in
  Cmd.v (Cmd.info "explore" ~doc:"Exhaustive BFS with invariant checking.")
    Term.(
      const run
      $ (const exploration $ scenario_term $ safety_only $ max_states $ jobs
        $ reduce_term ~default:"all" $ mem_budget_term $ checkpoint_every_term)
      $ spill_dir_term $ checkpoint_term $ certificate_term $ explain_file $ trace_out_term
      $ obs_term)

let resume_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Checkpoint directory written by $(b,explore --checkpoint).")
  in
  let jobs_override =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ]
          ~doc:"Worker domains (default: the interrupted run's setting from the manifest).")
  in
  let run dir jobs_override explain trace_out obs =
    let fail msg =
      Fmt.epr "gcmodel resume: %s@." msg;
      exit 1
    in
    let e =
      match Result.bind (Store.Checkpoint.manifest dir) (fun (_seq, m) -> exploration_of_manifest m) with
      | Error msg -> fail msg
      | Ok e -> { e with jobs = Option.value jobs_override ~default:e.jobs }
    in
    let snap =
      match Store.Checkpoint.load ?mem_budget:e.mem_budget ~fingerprint_scheme:Check.Fingerprint.scheme dir with
      | Error msg -> fail msg
      | Ok snap -> snap
    in
    Fmt.pr "resuming %a jobs=%d reduce=%a: snapshot %d (%d states, frontier %d)@." pp_instance
      e.sc e.jobs Reduce.Mode.pp e.reduce snap.Store.Checkpoint.seq snap.Store.Checkpoint.states
      (Array.fold_left (fun acc l -> acc + List.length l) 0 snap.Store.Checkpoint.frontier);
    run_exploration e ~resume:(Some snap) ~spill_dir:None ~checkpoint:(Some dir)
      ~certificate:None ~explain ~trace_out ~obs
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue an interrupted $(b,explore --checkpoint) run from its latest snapshot.  \
          The scenario, invariant selection and run parameters are rebuilt from the \
          checkpoint manifest; the resumed run reaches the same verdict, violated invariant \
          and counterexample length as an uninterrupted one, and keeps checkpointing into the \
          same directory.")
    Term.(const run $ dir $ jobs_override $ explain_file $ trace_out_term $ obs_term)

let recheck_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Certificate directory written by $(b,explore --certificate).")
  in
  let run dir obs =
    let fail msg =
      Fmt.epr "gcmodel recheck: FAILED — %s@." msg;
      exit 1
    in
    match Certify.Certificate.read_header dir with
    | Error msg -> fail msg
    | Ok h ->
      (* the instance comes from the scenario the header embeds; the
         reduction mode from the header field the certificate binds *)
      let sc =
        match Core.Scenario.of_json h.Certify.Certificate.scenario with
        | Ok sc -> sc
        | Error e -> fail (Fmt.str "%s: header field \"config.scenario\": %s" Certify.Certificate.header_file e)
      in
      let reduce =
        match Reduce.Mode.of_string h.Certify.Certificate.reduce with
        | Ok m -> m
        | Error e -> fail (Fmt.str "header field \"reduce\": %s" e)
      in
      let cfg = sc.Core.Scenario.cfg in
      let reducer = Core.Reduction.reducer cfg reduce in
      let invariants = Core.Scenario.invariants ~safety_only:h.Certify.Certificate.safety_only sc in
      Fmt.pr "rechecking %s: %a reduce=%a (%d states claimed)@." dir pp_instance sc
        Reduce.Mode.pp reduce h.Certify.Certificate.states;
      (match
         Certify.Recheck.validate ~reducer ~invariants ~config_hash:(Core.Config.hash cfg)
           ~dir (Core.Scenario.model sc).Core.Model.system
       with
      | Error msg -> fail msg
      | Ok (_, st) ->
        let rate =
          if st.Certify.Recheck.elapsed_s > 0. then
            float_of_int st.Certify.Recheck.states /. st.Certify.Recheck.elapsed_s
          else 0.
        in
        Fmt.pr
          "recheck: OK — %d states, %d transitions, max depth %d validated in %.3fs (%.0f \
           states/s, %.1f table bytes/state)@."
          st.Certify.Recheck.states st.Certify.Recheck.transitions
          st.Certify.Recheck.max_depth st.Certify.Recheck.elapsed_s rate
          (float_of_int st.Certify.Recheck.table_bytes /. float_of_int (max 1 st.Certify.Recheck.states));
        Obs.Reporter.emit obs "recheck"
          [
            ("dir", Obs.Json.String dir);
            ("states", Obs.Json.Int st.Certify.Recheck.states);
            ("transitions", Obs.Json.Int st.Certify.Recheck.transitions);
            ("max_depth", Obs.Json.Int st.Certify.Recheck.max_depth);
            ("elapsed_s", Obs.Json.Float st.Certify.Recheck.elapsed_s);
            ("table_bytes", Obs.Json.Int st.Certify.Recheck.table_bytes);
          ]);
      Obs.Reporter.close obs
  in
  Cmd.v
    (Cmd.info "recheck"
       ~doc:
         "Validate a certificate written by $(b,explore --certificate) without running the \
          explorer: rebuild the instance from the scenario the header embeds, stream the \
          table, re-evaluate the invariant selection on every state, re-derive every depth \
          stamp, and discharge transition closure by regenerating each state's successors \
          and probing table membership.  Any miss, tamper or configuration mismatch fails \
          closed (exit 1) naming the offending fingerprint or header field.")
    Term.(const run $ dir $ obs_term)

let certdiff_cmd =
  let dir_a =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc:"First certificate.")
  in
  let dir_b =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc:"Second certificate.")
  in
  let run a b =
    match Certify.Diff.run a b with
    | Error msg ->
      Fmt.epr "gcmodel certdiff: %s@." msg;
      exit 2
    | Ok d ->
      Fmt.pr "%a@." Certify.Diff.pp d;
      if not (Certify.Diff.identical d) then exit 1
  in
  Cmd.v
    (Cmd.info "certdiff"
       ~doc:
         "Compare two certificates structurally: header fields, then a linear merge of the \
          sorted tables (states only in one, depth or verdict changes).  Exits 0 iff \
          identical — the CI no-change gate between consecutive runs.")
    Term.(const run $ dir_a $ dir_b)

let walk_cmd =
  let steps = Arg.(value & opt int 100_000 & info [ "steps" ] ~doc:"Scheduled steps.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run sc safety_only steps seed jobs reduce explain trace_out obs =
    let cfg = sc.Core.Scenario.cfg in
    let model = Core.Scenario.model sc in
    Fmt.pr "random walk variant=%s shape=%s steps=%d seed=%d jobs=%d reduce=%a@."
      sc.Core.Scenario.label (shape_name sc) steps seed jobs Reduce.Mode.pp reduce;
    let reducer = Core.Reduction.reducer cfg reduce in
    let tracer = Obs.Tracing.resolve ?out:trace_out ~domains:(max 1 jobs) () in
    let o =
      Check.Random_walk.swarm ~jobs ~seed ~steps ~obs ~tracer ?reducer
        ~invariants:(Core.Scenario.invariants ~safety_only sc) model.Core.Model.system
    in
    Fmt.pr "%a@." Check.Random_walk.pp_outcome o;
    report cfg obs o.Check.Random_walk.violation;
    explain_violation ~html:explain ~obs cfg o.Check.Random_walk.violation;
    close_trace tracer trace_out;
    Obs.Reporter.close obs
  in
  Cmd.v (Cmd.info "walk" ~doc:"Randomized deep run with invariant checking.")
    Term.(
      const run $ scenario_term $ safety_only $ steps $ seed $ jobs
      $ reduce_term ~default:"none" $ explain_file $ trace_out_term $ obs_term)

let crosscheck_cmd =
  let run sc safety_only max_states jobs reduce mem_budget explain obs =
    let cfg = sc.Core.Scenario.cfg in
    let system = (Core.Scenario.model sc).Core.Model.system in
    let invariants = Core.Scenario.invariants ~safety_only sc in
    (match reduce with
    | Reduce.Mode.None_ -> Fmt.failwith "crosscheck needs --reduce=sym|por|all, not none"
    | _ -> ());
    Fmt.pr "cross-checking %a cycles=%d ops=%d reduce=%a@." pp_instance sc
      cfg.Core.Config.max_cycles cfg.Core.Config.max_mut_ops Reduce.Mode.pp reduce;
    let reducer = Option.get (Core.Reduction.reducer cfg reduce) in
    let r = Reduce.Crosscheck.run ~max_states ~obs ~reducer ~invariants system in
    Fmt.pr "%a@." Reduce.Crosscheck.pp r;
    (* what two runs must agree on; state counts are comparable only
       between runs at one worker count *)
    let signature ~states (o : _ Check.Explore.outcome) =
      match o.Check.Explore.violation with
      | None when states -> Fmt.str "clean, %d states" o.Check.Explore.states
      | None -> "clean"
      | Some tr ->
        Fmt.str "violates %s, counterexample length %d" tr.Check.Trace.broken
          (Check.Trace.length tr)
    in
    (* --jobs N extends the agreement obligation to N workers: verdict,
       violated invariant and counterexample length must match the
       jobs=1 full run at N domains, both unreduced and under the
       reducer *)
    let jobs_errors =
      if jobs <= 1 then []
      else begin
        let base = signature ~states:false (Check.Explore.run ~max_states ~invariants system) in
        let par_run ?reducer label =
          let pv =
            signature ~states:false (Check.Explore.run ~jobs ~max_states ?reducer ~invariants system)
          in
          if pv = base then begin
            Fmt.pr "jobs equivalence OK (jobs=%d, %s)@." jobs label;
            []
          end
          else [ Fmt.str "jobs=%d %s: %s, but jobs=1: %s" jobs label pv base ]
        in
        par_run "unreduced" @ par_run ~reducer "reduced"
      end
    in
    (* --mem-budget B extends the obligation to the tiered store: a
       forced-spill run (most states on disk) and a checkpoint/resume
       round-trip must both report the all-RAM verdict, violated
       invariant, counterexample length and (clean runs) state count *)
    let store_errors =
      match mem_budget with
      | None -> []
      | Some budget ->
        let signature = signature ~states:true in
        let base_sig = signature (Check.Explore.run ~jobs:1 ~max_states ~invariants system) in
        let spill_legs =
          List.concat_map
            (fun j ->
              let s =
                signature (Check.Explore.run ~jobs:j ~max_states ~mem_budget:budget ~invariants system)
              in
              if s = base_sig then begin
                Fmt.pr "spill equivalence OK (jobs=%d, budget=%d): %s@." j budget s;
                []
              end
              else
                [
                  Fmt.str "spill jobs=%d budget=%d: %s, but all-RAM: %s" j budget s base_sig;
                ])
            [ 1; 4 ]
        in
        let resume_leg =
          let dir =
            Filename.concat (Filename.get_temp_dir_name ())
              (Fmt.str "gcmodel-crosscheck-ckpt-%d" (Unix.getpid ()))
          in
          let o =
            Check.Explore.run ~jobs:1 ~max_states ~mem_budget:budget
              ~checkpoint:(dir, 500) ~invariants system
          in
          let errs =
            match Store.Checkpoint.load ~mem_budget:budget ~fingerprint_scheme:Check.Fingerprint.scheme dir with
            | Error msg -> [ Fmt.str "resume: cannot load checkpoint: %s" msg ]
            | Ok snap ->
              let r =
                Check.Explore.run ~jobs:1 ~max_states ~mem_budget:budget ~resume:snap
                  ~invariants system
              in
              let so = signature o and sr = signature r in
              if so = base_sig && sr = base_sig then begin
                Fmt.pr "resume equivalence OK (budget=%d, snapshot %d): %s@." budget
                  snap.Store.Checkpoint.seq sr;
                []
              end
              else
                [
                  Fmt.str "resume budget=%d: checkpointed %s, resumed %s, but all-RAM: %s"
                    budget so sr base_sig;
                ]
          in
          (try
             let rec rm p =
               if Sys.is_directory p then begin
                 Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
                 Unix.rmdir p
               end
               else Sys.remove p
             in
             if Sys.file_exists dir then rm dir
           with Sys_error _ | Unix.Unix_error _ -> ());
          errs
        in
        spill_legs @ resume_leg
    in
    (* the cross-check aggregates outcomes but keeps no trace; regenerate
       the reduced counterexample (deterministic) if a report was asked for *)
    (match explain with
    | None -> ()
    | Some _ ->
      let o = Check.Explore.run ~max_states ~reducer ~invariants system in
      explain_violation ~html:explain ~obs cfg o.Check.Explore.violation);
    Obs.Reporter.close obs;
    match Reduce.Crosscheck.errors r @ jobs_errors @ store_errors with
    | [] -> Fmt.pr "cross-check OK@."
    | errs ->
      List.iter (Fmt.epr "cross-check FAILED: %s@.") errs;
      exit 1
  in
  Cmd.v
    (Cmd.info "crosscheck"
       ~doc:
         "Run reduced and unreduced exploration on the same instance and verify they agree \
          (verdict, violated invariant, counterexample length, reduced <= full states). \
          With --jobs N, also verify the explorer reports the jobs=1 verdict, invariant and \
          counterexample length at N domains, unreduced and reduced. \
          With --mem-budget B, also verify a forced-spill run (tiered store under budget B, \
          at 1 and 4 domains) and a checkpoint/resume round-trip report the all-RAM verdict \
          and state count. Exits 1 on mismatch.")
    Term.(
      const run $ scenario_term $ safety_only $ max_states $ jobs
      $ reduce_term ~default:"all" $ mem_budget_term $ explain_file $ obs_term)

let explain_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Explain an exported trace: $(docv) holds a trace object as written by the \
             $(b,violation) observability record (either the record itself or its \
             \"trace\" payload).  The schedule is validated against the configured \
             instance and replayed.  Without $(b,--trace), the instance is explored \
             until a violation is found.")
  in
  let html_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Also write a self-contained HTML report to $(docv).")
  in
  let run sc safety_only max_states reduce trace_file html_file last obs =
    let cfg = sc.Core.Scenario.cfg in
    let model = Core.Scenario.model sc in
    let trace =
      match trace_file with
      | Some path ->
        let fail msg =
          Fmt.epr "gcmodel explain: %s@." msg;
          exit 1
        in
        let raw = In_channel.with_open_bin path In_channel.input_all in
        let json =
          match Obs.Json.of_string raw with
          | Error msg -> fail (Fmt.str "%s: not JSON: %s" path msg)
          | Ok (Obs.Json.Obj fields as j) ->
            (* accept a whole "violation" record or the bare trace object *)
            (match List.assoc_opt "trace" fields with Some t -> t | None -> j)
          | Ok j -> j
        in
        (match Explain.Replay.import_and_replay model.Core.Model.system json with
        | Ok tr -> tr
        | Error msg -> fail (Fmt.str "%s: %s" path msg))
      | None ->
        Fmt.pr "explaining %a (searching for a violation)@." pp_instance sc;
        let reducer = Core.Reduction.reducer cfg reduce in
        let o =
          Check.Explore.run ~jobs:1 ~max_states ~obs ?reducer
            ~invariants:(Core.Scenario.invariants ~safety_only sc) model.Core.Model.system
        in
        (match o.Check.Explore.violation with
        | Some tr -> tr
        | None ->
          Fmt.epr "gcmodel explain: no violation found (%d states explored) — nothing to explain@."
            o.Check.Explore.states;
          exit 1)
    in
    let rep = write_explanation ~last ~html:html_file ~obs cfg trace in
    Fmt.pr "%s@." (Explain.Report.render ~last rep);
    Obs.Reporter.close obs
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Counterexample forensics: replay a trace (or explore to a violation), then print \
          the violated conjunct and witness, a per-process lane timeline, and the per-step \
          state-diff narrative.")
    Term.(
      const run $ scenario_term $ safety_only $ max_states
      $ reduce_term ~default:"all" $ trace_file $ html_file $ explain_last $ obs_term)

let variants_cmd =
  let run () =
    List.iter
      (fun v ->
        Fmt.pr "%-32s %-16s %s@." v.Core.Variants.name
          (match v.Core.Variants.expectation with
          | Core.Variants.Safe -> "safe"
          | Core.Variants.Unsafe -> "unsafe"
          | Core.Variants.Conjectured_safe -> "conjectured-safe")
          v.Core.Variants.description)
      Core.Variants.all
  in
  Cmd.v (Cmd.info "variants" ~doc:"List collector variants.") Term.(const run $ const ())

let shapes_cmd =
  let run () =
    List.iter
      (fun (s : Gcheap.Shapes.t) ->
        Fmt.pr "%-10s roots=%a@." s.Gcheap.Shapes.name
          Fmt.(list ~sep:sp (brackets (list ~sep:comma int)))
          s.Gcheap.Shapes.roots)
      (Gcheap.Shapes.all ~n_refs:4 ~n_fields:1)
  in
  Cmd.v (Cmd.info "shapes" ~doc:"List initial heap shapes.") Term.(const run $ const ())

let dump_cmd =
  let run sc =
    let cfg = sc.Core.Scenario.cfg in
    let model = Core.Scenario.model sc in
    Fmt.pr "%a@." (Core.Dump.pp_state cfg) model.Core.Model.system
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print the initial state.") Term.(const run $ scenario_term)

let program_cmd =
  (* Print a process's CIMP control skeleton — the model-side counterpart
     of the paper's Figs. 2, 5 and 6, for eyeball correspondence. *)
  let which =
    Arg.(value & pos 0 string "gc" & info [] ~docv:"PROC" ~doc:"gc, mut, or sys.")
  in
  let run (_, cfg) which =
    let programs = Core.Model.programs cfg in
    let com =
      match which with
      | "gc" -> List.nth programs Core.Config.pid_gc
      | "sys" -> List.nth programs (Core.Config.pid_sys cfg)
      | "mut" | "mut0" -> List.nth programs (Core.Config.pid_mut cfg 0)
      | s -> Fmt.failwith "unknown process %s (expected gc, mut, sys)" s
    in
    Fmt.pr "%a@." Cimp.Pretty.pp com
  in
  Cmd.v
    (Cmd.info "program" ~doc:"Pretty-print a process's CIMP program (cf. the paper's Figs. 2, 5, 6).")
    Term.(const run $ config_term $ which)

(* -- mutation-testing campaign (lib/mutate) ---------------------------------- *)

let campaign_cmd =
  let operators =
    Arg.(
      value
      & opt_all string []
      & info [ "operators" ] ~docv:"FAMILY"
          ~doc:
            "Restrict the campaign to these operator families (repeatable): drop-fence, \
             weaken-cas, elide-barrier, skip-hs-wait, swap-mark-loads, alloc-color-off, or \
             variant (the hand-written ablations).  Default: all of them.")
  in
  let budget =
    Arg.(value & opt int 300_000 & info [ "budget" ] ~doc:"State cap per mutant/scenario run.")
  in
  let muts =
    Arg.(value & opt int 1 & info [ "muts" ] ~doc:"Mutators in the campaign scenarios.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON campaign report (kill-matrix) to $(docv).")
  in
  let html =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Write the self-contained HTML kill-matrix to $(docv).")
  in
  let stubs =
    Arg.(
      value
      & opt (some string) None
      & info [ "stubs" ] ~docv:"DIR"
          ~doc:"Write a markdown triage stub per surviving mutant into $(docv).")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List the selected mutants and exit.")
  in
  let certificates =
    Arg.(
      value
      & opt (some string) None
      & info [ "certificates" ] ~docv:"DIR"
          ~doc:
            "Close surviving equivalent mutants by certificate: for each survivor whose \
             applicable scenarios all closed, write one proof-witness certificate per \
             scenario into $(docv)/(mutant)/(scenario), each validatable with \
             $(b,gcmodel recheck).")
  in
  let run operators budget muts jobs reduce out html stubs certificates list_only obs =
    let known = Mutate.Operators.families @ [ "variant" ] in
    List.iter
      (fun f -> if not (List.mem f known) then Fmt.failwith "unknown operator family %s" f)
      operators;
    let mutants =
      let all = Mutate.Campaign.default_mutants ~muts () in
      if operators = [] then all
      else List.filter (fun m -> List.mem m.Mutate.Campaign.operator operators) all
    in
    if list_only then
      List.iter
        (fun (m : Mutate.Campaign.mutant) ->
          Fmt.pr "%-44s %-16s %s%s@." m.Mutate.Campaign.name m.Mutate.Campaign.operator
            m.Mutate.Campaign.doc
            (if m.Mutate.Campaign.expected_equivalent then " [expected equivalent]" else ""))
        mutants
    else begin
      let scenarios = Mutate.Campaign.scenarios ~muts () in
      Fmt.pr "campaign: %d mutants x %d scenarios, budget %d, jobs %d, reduce %a@."
        (List.length mutants) (List.length scenarios) budget jobs Reduce.Mode.pp reduce;
      let o = Mutate.Campaign.run ~obs ~budget ~jobs ~reduce ~scenarios ?certificates ~mutants () in
      print_string (Mutate.Kill_matrix.summary o);
      (match certificates with
      | Some dir -> Fmt.pr "campaign: survivor certificates under %s@." dir
      | None -> ());
      (match out with
      | None -> ()
      | Some path ->
        Mutate.Kill_matrix.write_json path o;
        Fmt.pr "campaign: JSON report written to %s@." path);
      (match html with
      | None -> ()
      | Some path ->
        Mutate.Kill_matrix.write_html path o;
        Fmt.pr "campaign: HTML kill-matrix written to %s@." path);
      (match stubs with
      | None -> ()
      | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (e : Mutate.Campaign.entry) ->
            match e.Mutate.Campaign.classification with
            | Mutate.Campaign.Survived _ ->
              let fname =
                String.map (fun c -> if c = ':' then '-' else c) e.Mutate.Campaign.mutant.Mutate.Campaign.name
                ^ ".md"
              in
              let path = Filename.concat dir fname in
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc (Mutate.Campaign.triage_stub e));
              Fmt.pr "campaign: triage stub written to %s@." path
            | _ -> ())
          o.Mutate.Campaign.entries);
      Obs.Reporter.close obs;
      (* the ablation assertion: the five hand-written unsafe variants are
         the campaign's known-answer tests — a survivor among them means
         the harness, not the catalogue, is broken *)
      let s = Mutate.Kill_matrix.stats o in
      if s.Mutate.Kill_matrix.ablations_killed < s.Mutate.Kill_matrix.ablations_total then begin
        Fmt.epr "campaign FAILED: %d/%d ablations killed@."
          s.Mutate.Kill_matrix.ablations_killed s.Mutate.Kill_matrix.ablations_total;
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Mutation-testing campaign: check every catalogue mutant (plus the five ablations) \
          against the scenario suite and classify each as killed / survived / errored, with a \
          kill-matrix in JSON and HTML.  Exits 1 if any ablation survives.")
    Term.(
      const run $ operators $ budget $ muts $ jobs $ reduce_term ~default:"all" $ out $ html
      $ stubs $ certificates $ list_only $ obs_term)

(* -- generated reference manuals (lib/mutate/doc_gen) ------------------------ *)

let doc_invariants_cmd =
  let run () = print_string (Mutate.Doc_gen.invariants_md ()) in
  Cmd.v
    (Cmd.info "doc-invariants"
       ~doc:
         "Emit the invariant reference manual (docs/INVARIANTS.md) to stdout.  CI diffs the \
          committed file against this output.")
    Term.(const run $ const ())

let doc_variants_cmd =
  let run () = print_string (Mutate.Doc_gen.variants_md ()) in
  Cmd.v
    (Cmd.info "doc-variants"
       ~doc:
         "Emit the variant and mutation-operator reference manual (docs/VARIANTS.md) to \
          stdout.  CI diffs the committed file against this output.")
    Term.(const run $ const ())

let doc_certificates_cmd =
  let run () = print_string (Mutate.Doc_gen.certificates_md ()) in
  Cmd.v
    (Cmd.info "doc-certificates"
       ~doc:
         "Emit the certificate format specification (docs/CERTIFICATES.md) to stdout.  CI \
          diffs the committed file against this output.")
    Term.(const run $ const ())

(* -- concrete runtime stress harness (lib/runtime) --------------------------- *)

let harness_cmd =
  let muts = Arg.(value & opt int 2 & info [ "muts" ] ~doc:"Mutator domains.") in
  let slots = Arg.(value & opt int 256 & info [ "slots" ] ~doc:"Heap slots.") in
  let fields = Arg.(value & opt int 2 & info [ "fields" ] ~doc:"Fields per object.") in
  let duration =
    Arg.(value & opt float 1.0 & info [ "duration" ] ~doc:"Wall-clock seconds to run.")
  in
  let workload =
    Arg.(
      value
      & opt (enum [ ("uniform", Runtime.Rmutator.Uniform); ("lists", Runtime.Rmutator.Lists) ])
          Runtime.Rmutator.Uniform
      & info [ "workload" ] ~docv:"KIND" ~doc:"Mutator workload: $(b,uniform) or $(b,lists).")
  in
  let no_barriers =
    Arg.(
      value & flag
      & info [ "no-barriers" ]
          ~doc:"Ablate the write barriers (the lists workload then faults within cycles).")
  in
  let trace_pause =
    Arg.(
      value & opt float 0.
      & info [ "trace-pause" ]
          ~doc:"Seconds the collector sleeps between greys (widens the race window).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let no_latency =
    Arg.(
      value & flag
      & info [ "no-latency" ] ~doc:"Disable the HDR latency instrumentation (lib/obs/latency).")
  in
  let co_interval =
    Arg.(
      value & opt int 0
      & info [ "co-interval" ] ~docv:"NS"
          ~doc:
            "Expected handshake-round interval in nanoseconds; when positive, the round \
             history gets coordinated-omission back-fill (a stalled round also records the \
             rounds it swallowed).")
  in
  let run muts slots fields duration workload no_barriers trace_pause seed no_latency
      co_interval trace_out obs =
    let tracer = Obs.Tracing.resolve ?out:trace_out ~domains:(muts + 1) () in
    let s =
      Runtime.Harness.run ~n_muts:muts ~n_slots:slots ~n_fields:fields ~duration
        ~barriers:(not no_barriers) ~seed ~workload ~trace_pause ~obs ~tracer
        ~latency:(not no_latency) ~co_interval_ns:co_interval ()
    in
    Fmt.pr "%a@." Runtime.Harness.pp_stats s;
    close_trace tracer trace_out;
    Obs.Reporter.close obs;
    if s.Runtime.Harness.violation <> None then exit 1
  in
  Cmd.v
    (Cmd.info "harness"
       ~doc:
         "Stress the concrete concurrent collector: one collector domain cycling against \
          $(b,--muts) mutator domains for $(b,--duration) seconds, with on-line root \
          validation.  With $(b,--obs), emits per-cycle $(b,gc-cycle) records, periodic \
          $(b,runtime-heartbeat) records with live HDR latency percentiles (handshake \
          rounds and per-mutator acks, gc pauses, allocation, stalls), and a final \
          $(b,harness) record carrying the structured latency section; $(b,--obs=live) \
          renders the runtime dashboard panel.  With $(b,--trace-out), lane 0 carries the \
          collector's handshake/mark/sweep/gc-cycle spans and lanes 1..n the mutators'.  \
          Exits 1 on a safety violation.")
    Term.(
      const run $ muts $ slots $ fields $ duration $ workload $ no_barriers $ trace_pause
      $ seed $ no_latency $ co_interval $ trace_out_term $ obs_term)

let () =
  let info = Cmd.info "gcmodel" ~doc:"Executable model of the verified on-the-fly GC for x86-TSO." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            explore_cmd; resume_cmd; recheck_cmd; certdiff_cmd; walk_cmd; crosscheck_cmd;
            explain_cmd; campaign_cmd; harness_cmd;
            variants_cmd; shapes_cmd; dump_cmd; program_cmd; doc_invariants_cmd;
            doc_variants_cmd; doc_certificates_cmd;
          ]))
