(* Randomized deep runs: where exhaustive exploration is infeasible (larger
   heaps, more mutators), schedule transitions uniformly at random for many
   steps, evaluating the invariants at every state.  Probabilistic rather
   than exhaustive, but it drives the model through thousands of collection
   cycles on instances the BFS cannot close. *)

type ('a, 'v, 's) outcome = {
  steps_taken : int;
  runs : int;  (* walks performed (includes every restart) *)
  restarts : int;  (* restarts forced by dead ends, specifically *)
  violation : ('a, 'v, 's) Trace.t option;
  elapsed : float;
}

let pp_outcome ppf o =
  Fmt.pf ppf "steps=%d runs=%d dead-ends=%d %s (%.2fs)" o.steps_taken o.runs o.restarts
    (match o.violation with None -> "all invariants hold" | Some t -> "VIOLATION: " ^ t.Trace.broken)
    o.elapsed

let run ?(seed = 42) ?(steps = 100_000) ?(max_run_length = 5_000) ?(normal_form = true)
    ?(trace_tail = 1000) ?(obs = Obs.Reporter.null) ?(tracer = Obs.Tracing.null)
    ?(heartbeat_every = 20_000) ?(should_stop = fun () -> false) ?domain ?reducer ~invariants
    initial =
  let domain_field = match domain with None -> [] | Some d -> [ ("domain", Obs.Json.Int d) ] in
  (* one tracer lane per walker, indexed by the swarm domain (lane 0 for a
     solo walk): a span per heartbeat interval of stepping, plus one rich
     span over the whole walk *)
  let lane = match domain with None -> 0 | Some d -> d in
  let tr_on = Obs.Tracing.enabled tracer && lane < Obs.Tracing.lanes tracer in
  let n_steps_span = if tr_on then Obs.Tracing.intern tracer "walk-steps" else 0 in
  let n_walk = if tr_on then Obs.Tracing.intern tracer "walk" else 0 in
  if tr_on then
    Obs.Tracing.set_lane tracer ~dom:lane
      (match domain with None -> "walk" | Some d -> Fmt.str "walker %d" d);
  let tr_t0 = Obs.Tracing.now tracer in
  let tr_taken = ref 0 in
  let tr_start = ref tr_t0 in
  let trace_tail = max 1 trace_tail in
  let t0 = Obs.Clock.monotonic_ns () in
  (* per-phase wall-time attribution for the "profile" record (no
     fingerprinting here: the walk keeps no seen-set) *)
  let profiling = Obs.Reporter.enabled obs in
  let gc0 = Gc.quick_stat () in
  let succ_ns = ref 0 and succ_calls = ref 0 in
  let norm_ns = ref 0 and norm_calls = ref 0 in
  let timed acc calls f =
    if profiling then begin
      let t = Obs.Clock.monotonic_ns () in
      let r = f () in
      acc := !acc + (Obs.Clock.monotonic_ns () - t);
      incr calls;
      r
    end
    else f ()
  in
  let norm sys = if normal_form then Cimp.System.normalize sys else sys in
  let initial = norm initial in
  let rng = Random.State.make [| seed |] in
  let iv = Inv_stats.make ~obs invariants in
  let check_state = iv.Inv_stats.check in
  let violation = ref None in
  let taken = ref 0 in
  let runs = ref 0 in
  let restarts = ref 0 in
  let hb_taken = ref 0 in
  let hb_time = ref t0 in
  let heartbeat () =
    if Obs.Reporter.enabled obs && !taken - !hb_taken >= heartbeat_every then begin
      let now = Obs.Clock.monotonic_ns () in
      let interval = Obs.Clock.ns_to_s (now - !hb_time) in
      let rate =
        if interval > 0. then float_of_int (!taken - !hb_taken) /. interval else 0.
      in
      let gc = Gc.quick_stat () in
      Obs.Reporter.emit obs "heartbeat"
        (("checker", Obs.Json.String "walk")
         :: domain_field
        @ [
            ("steps", Obs.Json.Int !taken);
            ("runs", Obs.Json.Int !runs);
            ("dead_end_restarts", Obs.Json.Int !restarts);
            ("steps_per_sec", Obs.Json.Float rate);
            ("heap_words", Obs.Json.Int gc.Gc.heap_words);
          ]);
      hb_taken := !taken;
      hb_time := now
    end;
    if tr_on && !taken - !tr_taken >= heartbeat_every then begin
      let now_ns = Obs.Tracing.now tracer in
      Obs.Tracing.span_between tracer ~dom:lane ~name:n_steps_span ~start_ns:!tr_start
        ~stop_ns:now_ns;
      tr_taken := !taken;
      tr_start := now_ns
    end
  in
  (match check_state initial with
  | Some name -> violation := Some { Trace.initial; steps = []; broken = name }
  | None -> ());
  while !violation = None && !taken < steps && not (should_stop ()) do
    incr runs;
    let sys = ref initial in
    let len = ref 0 in
    (* counterexample memory is bounded: keep only the newest [trace_tail]
       (amortized: truncate on reaching twice that) of the walk, newest
       first — deep walks would otherwise retain every intermediate state *)
    let rev_steps = ref [] in
    let tail_len = ref 0 in
    let continue = ref true in
    while
      !continue && !violation = None && !taken < steps && !len < max_run_length
      && not (should_stop ())
    do
      match timed succ_ns succ_calls (fun () -> Reducer.succs_of reducer !sys) with
      | [] ->
        (* dead end; restart *)
        incr restarts;
        continue := false
      | succs ->
        let event, sys' = List.nth succs (Random.State.int rng (List.length succs)) in
        let sys' = timed norm_ns norm_calls (fun () -> norm sys') in
        sys := sys';
        incr taken;
        incr len;
        rev_steps := { Trace.event; state = sys' } :: !rev_steps;
        incr tail_len;
        if !tail_len >= 2 * trace_tail then begin
          rev_steps := List.filteri (fun i _ -> i < trace_tail) !rev_steps;
          tail_len := trace_tail
        end;
        heartbeat ();
        (match check_state sys' with
        | Some name ->
          let tail = List.filteri (fun i _ -> i < trace_tail) !rev_steps in
          violation := Some { Trace.initial; steps = List.rev tail; broken = name }
        | None -> ())
    done
  done;
  let elapsed = Obs.Clock.elapsed_s ~since:t0 in
  if tr_on then
    Obs.Tracing.span_args tracer ~dom:lane ~name:n_walk ~start_ns:tr_t0
      ~stop_ns:(Obs.Tracing.now tracer)
      ~args:
        [
          ("steps", Obs.Json.Int !taken);
          ("runs", Obs.Json.Int !runs);
          ("dead_end_restarts", Obs.Json.Int !restarts);
        ];
  let first_violation = Option.map (fun tr -> tr.Trace.broken) !violation in
  Inv_stats.report obs ~first_violation [ iv ];
  (* the walk has no seen-set, so "states" is the steps taken *)
  Reducer.report obs ~checker:"walk" reducer ~states:!taken ~transitions:!taken ~elapsed;
  if profiling then begin
    let inv_evals, inv_s = Inv_stats.totals [ iv ] in
    let gc1 = Gc.quick_stat () in
    let succ_s = Obs.Clock.ns_to_s !succ_ns and norm_s = Obs.Clock.ns_to_s !norm_ns in
    let other = Float.max 0. (elapsed -. succ_s -. norm_s -. inv_s) in
    Obs.Reporter.emit obs "profile"
      (("checker", Obs.Json.String "walk")
       :: domain_field
      @ [
          ("states", Obs.Json.Int !taken);
          ("transitions", Obs.Json.Int !taken);
          ("elapsed_s", Obs.Json.Float elapsed);
          ("succ_gen_s", Obs.Json.Float succ_s);
          ("succ_gen_calls", Obs.Json.Int !succ_calls);
          ("normalize_s", Obs.Json.Float norm_s);
          ("fingerprint_s", Obs.Json.Float 0.);
          ("fingerprint_calls", Obs.Json.Int 0);
          ("invariant_s", Obs.Json.Float inv_s);
          ("invariant_evals", Obs.Json.Int inv_evals);
          ("other_s", Obs.Json.Float other);
          ("minor_words", Obs.Json.Float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
          ("promoted_words", Obs.Json.Float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
          ("major_words", Obs.Json.Float (gc1.Gc.major_words -. gc0.Gc.major_words));
          ( "minor_collections",
            Obs.Json.Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
          ( "major_collections",
            Obs.Json.Int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
          ("heap_words", Obs.Json.Int gc1.Gc.heap_words);
        ])
  end;
  if Obs.Reporter.enabled obs then
    Obs.Reporter.emit obs "outcome"
      (("checker", Obs.Json.String "walk")
       :: domain_field
      @ [
          ("steps", Obs.Json.Int !taken);
          ("runs", Obs.Json.Int !runs);
          ("dead_end_restarts", Obs.Json.Int !restarts);
          ( "violation",
            match first_violation with
            | None -> Obs.Json.Null
            | Some name -> Obs.Json.String name );
          ("elapsed_s", Obs.Json.Float elapsed);
          ( "steps_per_sec",
            Obs.Json.Float (if elapsed > 0. then float_of_int !taken /. elapsed else 0.) );
        ]);
  { steps_taken = !taken; runs = !runs; restarts = !restarts; violation = !violation; elapsed }

(* -- the swarm --------------------------------------------------------------

   [jobs] domains walk the same root concurrently, each with a seed derived
   from the root seed and its domain index, so the swarm covers [jobs]
   independent schedule streams.  The first domain to find a violation
   raises a shared stop flag that the others poll every step.  Counters are
   summed from the joined per-domain outcomes into the swarm's outcome
   record, which has the single walker's fields. *)

let derive_seed seed k = seed lxor ((k + 1) * 0x9E3779B1)

let swarm ?(jobs = 1) ?(seed = 42) ?(steps = 100_000) ?(max_run_length = 5_000)
    ?(normal_form = true) ?(trace_tail = 1000) ?(obs = Obs.Reporter.null)
    ?(tracer = Obs.Tracing.null) ?(heartbeat_every = 20_000) ?reducer ~invariants initial =
  let jobs = max 1 (min jobs 64) in
  if jobs = 1 then
    run ~seed ~steps ~max_run_length ~normal_form ~trace_tail ~obs ~tracer ~heartbeat_every
      ?reducer ~invariants initial
  else begin
    let t0 = Obs.Clock.monotonic_ns () in
    let stop = Atomic.make false in
    let should_stop () = Atomic.get stop in
    (* split the step budget across domains; the first [steps mod jobs]
       domains take the remainder, so the total is exactly [steps] *)
    let budget k = (steps / jobs) + if k < steps mod jobs then 1 else 0 in
    let worker k () =
      let o =
        run ~seed:(derive_seed seed k) ~steps:(budget k) ~max_run_length ~normal_form
          ~trace_tail ~obs ~tracer ~heartbeat_every ~should_stop ~domain:k ?reducer ~invariants
          initial
      in
      if o.violation <> None then Atomic.set stop true;
      o
    in
    let doms = Array.init (jobs - 1) (fun j -> Domain.spawn (worker (j + 1))) in
    let o0 = worker 0 () in
    let outcomes = o0 :: Array.to_list (Array.map Domain.join doms) in
    (* lowest-domain-index winner; when no domain found one, None *)
    let violation = List.find_map (fun o -> o.violation) outcomes in
    let elapsed = Obs.Clock.elapsed_s ~since:t0 in
    let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
    let steps_taken = sum (fun o -> o.steps_taken) in
    let runs = sum (fun o -> o.runs) in
    let restarts = sum (fun o -> o.restarts) in
    if Obs.Reporter.enabled obs then begin
      let rate = if elapsed > 0. then float_of_int steps_taken /. elapsed else 0. in
      Obs.Reporter.emit obs "outcome"
        [
          ("checker", Obs.Json.String "walk-swarm");
          ("jobs", Obs.Json.Int jobs);
          ("steps", Obs.Json.Int steps_taken);
          ("runs", Obs.Json.Int runs);
          ("dead_end_restarts", Obs.Json.Int restarts);
          ( "violation",
            match violation with
            | None -> Obs.Json.Null
            | Some tr -> Obs.Json.String tr.Trace.broken );
          ("elapsed_s", Obs.Json.Float elapsed);
          ("steps_per_sec", Obs.Json.Float rate);
        ]
    end;
    { steps_taken; runs; restarts; violation; elapsed }
  end
