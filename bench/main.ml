(* Benchmark harness (Bechamel).

   The paper has no performance tables — its evaluation is the invariant
   catalogue and the necessity of each mechanism — so this harness produces
   (a) the shape results each figure's experiment reports (who is safe, who
   breaks, which litmus outcomes appear), and (b) one Bechamel timing group
   per figure for the costs the paper argues about qualitatively: the
   double-checked mark's fast path vs its CAS (Fig. 5, Section 2.3), the
   write-barrier overhead on stores (Fig. 6), TSO vs SC simulation
   (Fig. 9), handshake/cycle costs on the concrete runtime (Figs. 2-4),
   parsing/compiling CIMP (Fig. 7), rendezvous exploration (Fig. 8), and
   checker throughput (Fig. 10). *)

open Bechamel
open Toolkit

(* -- shape results (the "rows the paper reports") -------------------------- *)

let shape_results () =
  Fmt.pr "=== shape results (see EXPERIMENTS.md for the full grids) ===@.";
  Fmt.pr "@.-- Fig. 9: x86-TSO litmus catalogue --@.";
  List.iter (fun v -> Fmt.pr "  %a@." Tso.Litmus.pp_verdict v) (Tso.Catalog.run_all ());
  Fmt.pr "@.-- Fig. 10: safety grid (bounded exhaustive) --@.";
  let row sc safety_only =
    let o = Core.Scenario.explore ~max_states:3_000_000 ~safety_only sc in
    Fmt.pr "  %-34s %a@." sc.Core.Scenario.label Check.Explore.pp_outcome o
  in
  row Core.Scenario.baseline false;
  row Core.Scenario.two_mutators false;
  row Core.Scenario.chain false;
  Fmt.pr "@.-- Fig. 1/6: ablations (each must break) --@.";
  List.iter
    (fun v -> row (Core.Scenario.witness_for v) true)
    [
      Core.Variants.no_deletion_barrier;
      Core.Variants.no_insertion_barrier;
      Core.Variants.alloc_white;
    ];
  Fmt.pr "@."

(* -- timing groups ---------------------------------------------------------- *)

(* Fig. 5: the mark operation.  Fast path: the flag test sees an
   already-marked object and skips the CAS.  CAS path: mark an unmarked
   object (and reset it, so each run pays one CAS + one plain store). *)
let fig5_tests () =
  (* latency:false — the figure measures the paper's bare mechanism (and
     stays comparable with pre-observatory reports); the instrumented
     slow-path cost is the runtime_latency group's business *)
  let sh = Runtime.Rshared.make ~latency:false ~n_slots:16 ~n_fields:1 ~n_muts:0 () in
  Atomic.set sh.Runtime.Rshared.phase Runtime.Rshared.Mark;
  let marked = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_m) in
  let white =
    Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(not (Atomic.get sh.Runtime.Rshared.f_m))
  in
  [
    Test.make ~name:"mark-fast-path"
      (Staged.stage (fun () -> ignore (Runtime.Rshared.mark sh marked [])));
    Test.make ~name:"mark-cas-roundtrip"
      (Staged.stage (fun () ->
           ignore (Runtime.Rshared.mark sh white []);
           (* reset so the next run races the CAS again *)
           Atomic.set sh.Runtime.Rshared.heap.Runtime.Rheap.marks.(white)
             (not (Atomic.get sh.Runtime.Rshared.f_m))));
  ]

(* Fig. 6: store with/without barriers (the mutator-throughput argument for
   the double-checked barrier). *)
let fig6_tests () =
  let sh = Runtime.Rshared.make ~latency:false ~n_slots:16 ~n_fields:1 ~n_muts:1 () in
  let a = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_m) in
  let b = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_m) in
  let with_b = Runtime.Rmutator.make sh 0 ~roots:[ a; b ] in
  let without_b = Runtime.Rmutator.make ~barriers:false sh 0 ~roots:[ a; b ] in
  let sh_marking = Runtime.Rshared.make ~latency:false ~n_slots:16 ~n_fields:1 ~n_muts:1 () in
  Atomic.set sh_marking.Runtime.Rshared.phase Runtime.Rshared.Mark;
  let a' = Runtime.Rheap.alloc sh_marking.Runtime.Rshared.heap ~mark:(Atomic.get sh_marking.Runtime.Rshared.f_m) in
  let b' = Runtime.Rheap.alloc sh_marking.Runtime.Rshared.heap ~mark:(Atomic.get sh_marking.Runtime.Rshared.f_m) in
  let with_b' = Runtime.Rmutator.make sh_marking 0 ~roots:[ a'; b' ] in
  [
    Test.make ~name:"store-no-barriers"
      (Staged.stage (fun () -> Runtime.Rmutator.store without_b a 0 b));
    Test.make ~name:"store-barriers-idle"
      (Staged.stage (fun () -> Runtime.Rmutator.store with_b a 0 b));
    (* during marking, targets already marked: both barriers fast-path *)
    Test.make ~name:"store-barriers-marking"
      (Staged.stage (fun () -> Runtime.Rmutator.store with_b' a' 0 b'));
  ]

(* Figs. 2-4: a full concrete collection cycle, including all handshake
   rounds, against one promptly-polling mutator. *)
let fig2_cycle () =
  let sh = Runtime.Rshared.make ~n_slots:64 ~n_fields:1 ~n_muts:1 () in
  let a = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_a) in
  (* a small rooted chain to trace *)
  let m = Runtime.Rmutator.make sh 0 ~roots:[ a ] in
  let prev = ref a in
  for _ = 1 to 16 do
    let n = Runtime.Rmutator.alloc m in
    if n <> Runtime.Rheap.null then begin
      Runtime.Rmutator.store m !prev 0 n;
      prev := n
    end
  done;
  let stop = Atomic.make false in
  let poller =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Runtime.Rmutator.poll m;
          Domain.cpu_relax ()
        done)
  in
  let test =
    Test.make ~name:"concrete-gc-cycle" (Staged.stage (fun () -> Runtime.Rcollector.cycle sh))
  in
  (test, fun () -> Atomic.set stop true; Domain.join poller)

(* Fig. 7: parse + typecheck + compile a CIMP surface program. *)
let fig7_tests () =
  let _, src, _ = Cimp_lang.Examples.handshake_sketch in
  [
    Test.make ~name:"parse" (Staged.stage (fun () -> ignore (Cimp_lang.Parser.program src)));
    Test.make ~name:"parse-check-compile"
      (Staged.stage (fun () -> ignore (Cimp_lang.Compile.of_source src)));
  ]

(* Fig. 8: exhaustively explore a rendezvous system. *)
let fig8_tests () =
  let _, src, _ = Cimp_lang.Examples.handshake_sketch in
  let sys = Cimp_lang.Compile.of_source src in
  [
    Test.make ~name:"explore-handshake-sketch"
      (Staged.stage (fun () -> ignore (Check.Explore.run ~invariants:[] sys)));
  ]

(* Fig. 9: enumerate all outcomes of SB under both memory models. *)
let fig9_tests () =
  [
    Test.make ~name:"litmus-SB-tso"
      (Staged.stage (fun () -> ignore (Tso.Litmus.outcomes ~mode:Tso.Machine.TSO Tso.Catalog.sb)));
    Test.make ~name:"litmus-SB-sc"
      (Staged.stage (fun () -> ignore (Tso.Litmus.outcomes ~mode:Tso.Machine.SC Tso.Catalog.sb)));
  ]

(* Fig. 10: checker throughput on the GC model — exhaustive closure of a
   small instance and a fixed-length random walk. *)
let fig10_tests () =
  let sc = Core.Scenario.make ~label:"bench" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let model = Core.Scenario.model sc in
  let invs = Core.Scenario.invariants sc in
  let walk_sc =
    Core.Scenario.make ~label:"bench-walk" ~n_refs:3 ~shape:"chain3" ~max_cycles:0 ~max_mut_ops:0 ()
  in
  let walk_model = Core.Scenario.model walk_sc in
  let walk_invs = Core.Scenario.invariants walk_sc in
  [
    Test.make ~name:"exhaustive-closure-3k-states"
      (Staged.stage (fun () -> ignore (Check.Explore.run ~invariants:invs model.Core.Model.system)));
    Test.make ~name:"random-walk-2k-steps"
      (Staged.stage (fun () ->
           ignore
             (Check.Random_walk.run ~steps:2_000 ~invariants:walk_invs walk_model.Core.Model.system)));
  ]

(* -- the Bechamel driver ----------------------------------------------------- *)

(* Run one named group; print the human lines and return the rows for the
   machine-readable report. *)
let run_group (gname, test) =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let results = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock results in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  let rows =
    List.map
      (fun (name, ols_result) ->
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] ->
          Fmt.pr "  %-44s %12.1f ns/run@." name est;
          (name, Some est)
        | _ ->
          Fmt.pr "  %-44s (no estimate)@." name;
          (name, None))
      (List.sort compare rows)
  in
  (gname, rows)

(* Checker throughput on the fig10 instances, measured directly (states/sec
   and steps/sec are the units every perf PR reports against; ns/run of a
   whole closure is not comparable across instance sizes). *)
let checker_throughput () =
  let sc = Core.Scenario.make ~label:"bench" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let o = Core.Scenario.explore sc in
  let walk_sc =
    Core.Scenario.make ~label:"bench-walk" ~n_refs:3 ~shape:"chain3" ~max_cycles:0 ~max_mut_ops:0 ()
  in
  let w = Core.Scenario.random_walk ~steps:50_000 walk_sc in
  let explore_rate =
    if o.Check.Explore.elapsed > 0. then
      float_of_int o.Check.Explore.states /. o.Check.Explore.elapsed
    else 0.
  in
  let walk_rate =
    if w.Check.Random_walk.elapsed > 0. then
      float_of_int w.Check.Random_walk.steps_taken /. w.Check.Random_walk.elapsed
    else 0.
  in
  Fmt.pr "  %-44s %12.0f states/s@." "checker-explore-throughput" explore_rate;
  Fmt.pr "  %-44s %12.0f steps/s@." "checker-walk-throughput" walk_rate;
  Obs.Json.Obj
    [
      ("explore_states", Obs.Json.Int o.Check.Explore.states);
      ("explore_elapsed_s", Obs.Json.Float o.Check.Explore.elapsed);
      ("explore_states_per_sec", Obs.Json.Float explore_rate);
      ("walk_steps", Obs.Json.Int w.Check.Random_walk.steps_taken);
      ("walk_elapsed_s", Obs.Json.Float w.Check.Random_walk.elapsed);
      ("walk_steps_per_sec", Obs.Json.Float walk_rate);
    ]

(* -- checker-par: speedup vs domains ----------------------------------------

   Work-stealing parallel BFS on the fig10 exhaustive-closure instance,
   exploring the identical state space at 1, 2 and 4 domains.  The
   speedup column (jobs=N states/sec over jobs=1 states/sec) is
   what perf PRs diff; the same rows are emitted into the report under
   "checker_par", and benchdiff tracks both states_per_sec and
   speedup_vs_seq per job count. *)

let checker_par_jobs = [ 1; 2; 4 ]

let checker_par () =
  let sc =
    Core.Scenario.make ~label:"fig10/exhaustive-closure" ~n_refs:2 ~shape:"single"
      ~max_mut_ops:2 ()
  in
  let rate (o : _ Check.Explore.outcome) =
    if o.Check.Explore.elapsed > 0. then
      float_of_int o.Check.Explore.states /. o.Check.Explore.elapsed
    else 0.
  in
  (* run through a memory reporter so the parallel runs' scaling-detail
     record (serial fraction, lock waits, steal and termination-probe
     counters — see Check.Explore) lands in the report next to the
     measured speedup it predicts *)
  let explore_with_detail jobs =
    let obs, snapshot = Obs.Reporter.memory () in
    let o = Core.Scenario.explore ~jobs ~obs sc in
    let detail =
      List.find_opt
        (fun r ->
          match Obs.Json.member "event" r with
          | Some (Obs.Json.String "scaling-detail") -> true
          | _ -> false)
        (snapshot ())
    in
    (o, Option.value detail ~default:Obs.Json.Null)
  in
  let seq, _ = explore_with_detail 1 in
  let seq_rate = rate seq in
  let rows =
    List.map
      (fun jobs ->
        let o, detail = if jobs = 1 then (seq, Obs.Json.Null) else explore_with_detail jobs in
        let r = rate o in
        let speedup = if seq_rate > 0. then r /. seq_rate else 0. in
        Fmt.pr "  %-44s %12.0f states/s  %5.2fx@."
          (Fmt.str "checker-par-jobs-%d (%d states)" jobs o.Check.Explore.states)
          r speedup;
        if o.Check.Explore.states <> seq.Check.Explore.states then
          Fmt.pr "  WARNING: jobs=%d visited %d states, jobs=1 visited %d@." jobs
            o.Check.Explore.states seq.Check.Explore.states;
        Obs.Json.Obj
          [
            ("jobs", Obs.Json.Int jobs);
            ("states", Obs.Json.Int o.Check.Explore.states);
            ("transitions", Obs.Json.Int o.Check.Explore.transitions);
            ("elapsed_s", Obs.Json.Float o.Check.Explore.elapsed);
            ("states_per_sec", Obs.Json.Float r);
            ("speedup_vs_seq", Obs.Json.Float speedup);
            ("scaling_detail", detail);
          ])
      checker_par_jobs
  in
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.String sc.Core.Scenario.label);
      ("rows", Obs.Json.List rows);
    ]

(* recommended_domains, derived from measurement rather than from
   [Domain.recommended_domain_count]: the largest measured job count
   whose measured speedup is >= 1.1x and whose own Amdahl estimate
   agrees — predicted speedup 1/(s + (1-s)/jobs) >= 1.1, with s the
   serial fraction the run's scaling-detail record measured.  A row
   without a scaling-detail estimate falls back to the measurement
   alone.  1 if no row qualifies (running the checker parallel is not
   worth it on this host).  The rule is documented in README's
   benchmark section. *)
let recommended_domains par =
  let amdahl_ok jobs speedup row =
    match
      Option.bind (Obs.Json.member "scaling_detail" row) (fun d ->
          Option.bind (Obs.Json.member "serial_fraction" d) Obs.Json.to_float)
    with
    | Some s when s >= 0. && s <= 1. ->
      1. /. (s +. ((1. -. s) /. float_of_int jobs)) >= 1.1
    | _ -> speedup >= 1.1
  in
  let qualifies row =
    match
      ( Option.bind (Obs.Json.member "jobs" row) Obs.Json.to_int,
        Option.bind (Obs.Json.member "speedup_vs_seq" row) Obs.Json.to_float )
    with
    | Some jobs, Some speedup when jobs > 1 && speedup >= 1.1 && amdahl_ok jobs speedup row ->
      Some jobs
    | _ -> None
  in
  let rows =
    match Obs.Json.member "rows" par with Some (Obs.Json.List l) -> l | _ -> []
  in
  List.fold_left
    (fun acc row -> match qualifies row with Some j -> max acc j | None -> acc)
    1 rows

(* -- checker-store: states per GB under a memory budget ----------------------

   The tiered seen-set ([lib/store]) on the checker-par instance: an
   all-RAM row (the pool with an effectively unbounded budget, so peak
   resident bytes is the honest full-store footprint) against
   forced-spill rows whose budgets push most states into on-disk
   segments.  The headline metric is states-per-GB of peak resident
   memory — the capacity the budget buys — next to the throughput cost
   of the disk probes; both land under "checker_store" in the report and
   benchdiff tracks them (higher is better). *)

let checker_store_budgets = [ ("all-ram", max_int / 2); ("budget-256k", 256 * 1024); ("budget-64k", 64 * 1024) ]

let checker_store () =
  let sc =
    Core.Scenario.make ~label:"fig10/exhaustive-closure" ~n_refs:2 ~shape:"single"
      ~max_mut_ops:2 ()
  in
  let model = Core.Scenario.model sc in
  let invs = Core.Scenario.invariants sc in
  let detail_int d k = Option.bind (Obs.Json.member k d) Obs.Json.to_int in
  let run mem_budget =
    let obs, snapshot = Obs.Reporter.memory () in
    let o =
      Check.Explore.run ~jobs:1 ~mem_budget ~obs ~invariants:invs model.Core.Model.system
    in
    let detail =
      Option.value ~default:Obs.Json.Null
        (List.find_opt
           (fun r ->
             match Obs.Json.member "event" r with
             | Some (Obs.Json.String "scaling-detail") -> true
             | _ -> false)
           (snapshot ()))
    in
    (o, detail)
  in
  let baseline = ref 0 in
  let rows =
    List.map
      (fun (label, budget) ->
        let o, detail = run budget in
        let rate =
          if o.Check.Explore.elapsed > 0. then
            float_of_int o.Check.Explore.states /. o.Check.Explore.elapsed
          else 0.
        in
        let peak = Option.value ~default:0 (detail_int detail "peak_bytes_resident") in
        let spilled = Option.value ~default:0 (detail_int detail "spilled_states") in
        let segments = Option.value ~default:0 (detail_int detail "segments") in
        let disk_bytes = Option.value ~default:0 (detail_int detail "disk_bytes") in
        let states_per_gb =
          if peak > 0 then float_of_int o.Check.Explore.states /. (float_of_int peak /. 1e9)
          else 0.
        in
        if label = "all-ram" then baseline := o.Check.Explore.states
        else if o.Check.Explore.states <> !baseline then
          Fmt.pr "  WARNING: %s visited %d states, all-RAM visited %d@." label
            o.Check.Explore.states !baseline;
        Fmt.pr "  %-44s %10.0f states/GB %10.0f states/s  peak %s, %d spilled, %d segs@."
          (Fmt.str "checker-store-%s (%d states)" label o.Check.Explore.states)
          states_per_gb rate
          (Fmt.str "%.1fMB" (float_of_int peak /. 1048576.))
          spilled segments;
        Obs.Json.Obj
          [
            ("label", Obs.Json.String label);
            ( "mem_budget",
              if label = "all-ram" then Obs.Json.Null else Obs.Json.Int budget );
            ("states", Obs.Json.Int o.Check.Explore.states);
            ("elapsed_s", Obs.Json.Float o.Check.Explore.elapsed);
            ("states_per_sec", Obs.Json.Float rate);
            ("peak_bytes_resident", Obs.Json.Int peak);
            ("states_per_gb", Obs.Json.Float states_per_gb);
            ("spilled_states", Obs.Json.Int spilled);
            ("segments", Obs.Json.Int segments);
            ("disk_bytes", Obs.Json.Int disk_bytes);
          ])
      checker_store_budgets
  in
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.String sc.Core.Scenario.label);
      ("domains_available", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("rows", Obs.Json.List rows);
    ]

(* -- runtime-latency: the concrete runtime's latency observatory ------------

   Short harness runs per mutator-domain count, reporting allocation
   throughput and the HDR handshake/pause percentiles the latency
   section (Harness.stats.latency) carries, plus a single-threaded
   barrier-overhead measurement.  Rows are keyed by the *requested*
   mutator count (1/2/4/8) so the series stays diffable across hosts;
   each row records the count actually run, clamped to
   domains_available, so cross-host diffs are honest about what was
   measured.  benchdiff gates alloc_per_sec/ops_per_sec (higher better)
   and the hs/pause percentiles (lower better, with a widened noise
   allowance on the tails). *)

let runtime_latency_muts = [ 1; 2; 4; 8 ]

let runtime_latency_duration = 0.6

(* (store-with-barriers - store-without) / store-without on the idle
   phase, single-threaded and with the latency instrumentation off, so
   the number is the barrier's cost alone — not clock reads, not
   scheduling noise from the harness's other domains. *)
let barrier_overhead_pct () =
  let sh = Runtime.Rshared.make ~latency:false ~n_slots:16 ~n_fields:1 ~n_muts:1 () in
  let a = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_m) in
  let b = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_m) in
  let with_b = Runtime.Rmutator.make sh 0 ~roots:[ a; b ] in
  let without_b = Runtime.Rmutator.make ~barriers:false sh 0 ~roots:[ a; b ] in
  let time m =
    for _ = 1 to 100_000 do
      Runtime.Rmutator.store m a 0 b
    done;
    let t0 = Obs.Clock.monotonic_ns () in
    for _ = 1 to 1_000_000 do
      Runtime.Rmutator.store m a 0 b
    done;
    Obs.Clock.monotonic_ns () - t0
  in
  let without_ns = time without_b in
  let with_ns = time with_b in
  if without_ns > 0 then 100. *. float_of_int (with_ns - without_ns) /. float_of_int without_ns
  else 0.

let runtime_latency () =
  let domains_available = Domain.recommended_domain_count () in
  let overhead = barrier_overhead_pct () in
  Fmt.pr "  %-44s %11.1f %%@." "runtime-barrier-overhead (idle stores)" overhead;
  let pct h k =
    match Option.bind (Obs.Json.member k h) Obs.Json.to_int with Some v -> v | None -> 0
  in
  let rows =
    List.map
      (fun requested ->
        let actual = max 1 (min requested domains_available) in
        let s =
          Runtime.Harness.run ~n_muts:actual ~n_slots:512 ~n_fields:2
            ~duration:runtime_latency_duration ()
        in
        let lat = s.Runtime.Harness.latency in
        let sect k = Option.value ~default:Obs.Json.Null (Obs.Json.member k lat) in
        let hs = sect "hs_round" and pause = sect "pause" in
        let alloc_rate = float_of_int s.Runtime.Harness.allocs /. runtime_latency_duration in
        let ops_rate = float_of_int s.Runtime.Harness.ops /. runtime_latency_duration in
        Fmt.pr
          "  %-44s %10.0f allocs/s %10.0f ops/s  hs p50/p99/p99.9/max %.2f/%.2f/%.2f/%.2f \
           ms  stalls %d@."
          (Fmt.str "runtime-latency-muts-%d (ran %d)" requested actual)
          alloc_rate ops_rate
          (float_of_int (pct hs "p50_ns") /. 1e6)
          (float_of_int (pct hs "p99_ns") /. 1e6)
          (float_of_int (pct hs "p999_ns") /. 1e6)
          (float_of_int (pct hs "max_ns") /. 1e6)
          s.Runtime.Harness.alloc_stalls;
        (match s.Runtime.Harness.violation with
        | None -> ()
        | Some m -> Fmt.pr "  WARNING: runtime-latency muts=%d run was UNSAFE: %s@." requested m);
        Obs.Json.Obj
          [
            ("n_muts_requested", Obs.Json.Int requested);
            ("n_muts", Obs.Json.Int actual);
            ("duration_s", Obs.Json.Float runtime_latency_duration);
            ("cycles", Obs.Json.Int s.Runtime.Harness.cycles);
            ("ops", Obs.Json.Int s.Runtime.Harness.ops);
            ("allocs", Obs.Json.Int s.Runtime.Harness.allocs);
            ("alloc_per_sec", Obs.Json.Float alloc_rate);
            ("ops_per_sec", Obs.Json.Float ops_rate);
            ("alloc_stalls", Obs.Json.Int s.Runtime.Harness.alloc_stalls);
            ("hs", hs);
            ("hs_by_type", sect "hs_round_by_type");
            ("pause", pause);
            ("mark", sect "mark");
            ("sweep", sect "sweep");
            ("barrier_slow", sect "barrier_slow");
            ("barrier_fast_fraction", sect "barrier_fast_fraction");
          ])
      runtime_latency_muts
  in
  Obs.Json.Obj
    [
      ("domains_available", Obs.Json.Int domains_available);
      ("barrier_overhead_pct", Obs.Json.Float overhead);
      ("rows", Obs.Json.List rows);
    ]

(* -- checker-reduce: state-space reduction ----------------------------------

   Distinct states and wall-clock for each reduction mode on closing
   scenarios.  The "states" column is the subsystem's whole point (how
   much of the space the reducers collapse); states/sec shows what the
   canonicalization costs per visited state.  Same rows under
   "checker_reduce" in the report. *)

let checker_reduce () =
  let scenario sc =
    let rows =
      List.map
        (fun mode ->
          let o = Core.Scenario.explore ~max_states:5_000_000 ~reduce:mode sc in
          let rate =
            if o.Check.Explore.elapsed > 0. then
              float_of_int o.Check.Explore.states /. o.Check.Explore.elapsed
            else 0.
          in
          Fmt.pr "  %-44s %10d states %8.2f s  %10.0f states/s@."
            (Fmt.str "checker-reduce-%s (%s)" (Reduce.Mode.to_string mode) sc.Core.Scenario.label)
            o.Check.Explore.states o.Check.Explore.elapsed rate;
          if o.Check.Explore.violation <> None || o.Check.Explore.truncated then
            Fmt.pr "  WARNING: reduce=%s on %s did not close clean@."
              (Reduce.Mode.to_string mode) sc.Core.Scenario.label;
          Obs.Json.Obj
            [
              ("reduce", Obs.Json.String (Reduce.Mode.to_string mode));
              ("states", Obs.Json.Int o.Check.Explore.states);
              ("transitions", Obs.Json.Int o.Check.Explore.transitions);
              ("elapsed_s", Obs.Json.Float o.Check.Explore.elapsed);
              ("states_per_sec", Obs.Json.Float rate);
            ])
        Reduce.Mode.all_modes
    in
    Obs.Json.Obj
      [
        ("scenario", Obs.Json.String sc.Core.Scenario.label);
        ("rows", Obs.Json.List rows);
      ]
  in
  Obs.Json.List [ scenario Core.Scenario.baseline; scenario Core.Scenario.two_mutators ]

(* -- checker-certify: recheck cost vs explore, certificate size --------------

   The certifying checker's two headline numbers on the two-mutator
   closing instance: how much of a certifying explore's wall time the
   independent recheck costs, and how many table bytes the certificate
   spends per state.  The validator re-derives every verdict and every
   closure edge semantically, so the ratio is a constant fraction of the
   explore by construction (~0.8 on this host — DESIGN.md §14 discusses
   why, and where the <=0.5 regimes are); the point of tracking it is
   catching a *relative* regression in either direction — a jump toward
   1.0 means the validator grew overhead, a drop toward 0 means it
   stopped re-deriving something.  Rows land under "checker_certify". *)

let checker_certify () =
  let sc = Core.Scenario.two_mutators in
  let mode = Reduce.Mode.All in
  let reducer = Core.Reduction.reducer sc.Core.Scenario.cfg mode in
  let invariants = Core.Scenario.invariants sc in
  let initial = (Core.Scenario.model sc).Core.Model.system in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) (Fmt.str "bench-cert-%d" (Unix.getpid ()))
  in
  let dump = ref None in
  let on_store st = dump := Some (Certify.Writer.of_store st) in
  let t0 = Unix.gettimeofday () in
  let o = Check.Explore.run ~jobs:1 ~on_store ?reducer ~invariants initial in
  let entries, max_depth =
    match !dump with
    | Some (Ok r) -> r
    | Some (Error e) -> Fmt.failwith "checker-certify: certificate dump failed: %s" e
    | None -> Fmt.failwith "checker-certify: on_store never fired"
  in
  (match
     Certify.Writer.write ~dir ~config_hash:(Core.Config.hash sc.Core.Scenario.cfg)
       ~reduce:(Reduce.Mode.to_string mode)
       ~invariant_names:(List.map fst invariants)
       ~run_config:(Obs.Json.Obj [ ("bench", Obs.Json.String "checker-certify") ])
       ~max_depth entries
   with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "checker-certify: write failed: %s" e);
  let explore_certify_s = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let stats =
    match
      Certify.Recheck.validate ~reducer ~invariants
        ~config_hash:(Core.Config.hash sc.Core.Scenario.cfg) ~dir initial
    with
    | Ok (_, st) -> st
    | Error e -> Fmt.failwith "checker-certify: recheck failed: %s" e
  in
  let recheck_s = Unix.gettimeofday () -. t1 in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  let ratio = if explore_certify_s > 0. then recheck_s /. explore_certify_s else 0. in
  let bytes_per_state =
    if o.Check.Explore.states > 0 then
      float_of_int stats.Certify.Recheck.table_bytes /. float_of_int o.Check.Explore.states
    else 0.
  in
  Fmt.pr "  %-44s %10d states %8.2f s@."
    (Fmt.str "checker-certify-explore (%s)" sc.Core.Scenario.label)
    o.Check.Explore.states explore_certify_s;
  Fmt.pr "  %-44s %10d states %8.2f s  ratio %.2f@." "checker-certify-recheck"
    stats.Certify.Recheck.states recheck_s ratio;
  Fmt.pr "  %-44s %10d bytes  %8.1f bytes/state@." "checker-certify-table"
    stats.Certify.Recheck.table_bytes bytes_per_state;
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.String sc.Core.Scenario.label);
      ("reduce", Obs.Json.String (Reduce.Mode.to_string mode));
      ("states", Obs.Json.Int o.Check.Explore.states);
      ("explore_certify_s", Obs.Json.Float explore_certify_s);
      ("recheck_s", Obs.Json.Float recheck_s);
      ("recheck_ratio", Obs.Json.Float ratio);
      ("recheck_states_per_sec", Obs.Json.Float
         (if recheck_s > 0. then float_of_int stats.Certify.Recheck.states /. recheck_s else 0.));
      ("table_bytes", Obs.Json.Int stats.Certify.Recheck.table_bytes);
      ("bytes_per_state", Obs.Json.Float bytes_per_state);
    ]

(* -- campaign: mutation kills, states and wall-time to detection -------------

   The armed mutant population (every site the static analysis expects the
   checker to kill) plus the five ablations, against the default campaign
   suite.  The per-mutant states-to-kill / time-to-kill / counterexample
   length are the numbers a detection-latency regression would move; the
   expected-equivalent mutants are excluded because their cost is just
   "explore the whole space N times" (that is checker-reduce's job). *)

let campaign_bench () =
  let mutants =
    List.filter
      (fun (m : Mutate.Campaign.mutant) -> not m.Mutate.Campaign.expected_equivalent)
      (Mutate.Campaign.default_mutants ())
  in
  let o = Mutate.Campaign.run ~budget:400_000 ~mutants () in
  let s = Mutate.Kill_matrix.stats o in
  List.iter
    (fun (e : Mutate.Campaign.entry) ->
      match e.Mutate.Campaign.classification with
      | Mutate.Campaign.Killed k ->
        Fmt.pr "  %-44s %8d states %8.3f s  ce=%d  (%s/%s)@."
          e.Mutate.Campaign.mutant.Mutate.Campaign.name k.Mutate.Campaign.states_to_kill
          k.Mutate.Campaign.time_to_kill k.Mutate.Campaign.ce_length k.Mutate.Campaign.invariant
          k.Mutate.Campaign.conjunct
      | Mutate.Campaign.Survived _ ->
        Fmt.pr "  WARNING: armed mutant %s survived@." e.Mutate.Campaign.mutant.Mutate.Campaign.name
      | Mutate.Campaign.Errored msg ->
        Fmt.pr "  WARNING: mutant %s errored: %s@." e.Mutate.Campaign.mutant.Mutate.Campaign.name msg)
    o.Mutate.Campaign.entries;
  Fmt.pr "  %-44s %8d/%d killed@." "campaign-armed-kill-count" s.Mutate.Kill_matrix.armed_killed
    s.Mutate.Kill_matrix.armed;
  Obs.Json.Obj
    [
      ("budget", Obs.Json.Int o.Mutate.Campaign.budget);
      ("summary", Mutate.Kill_matrix.stats_json s);
      ( "mutants",
        Obs.Json.List
          (List.map
             (fun (e : Mutate.Campaign.entry) ->
               Obs.Json.Obj
                 ([
                    ("mutant", Obs.Json.String e.Mutate.Campaign.mutant.Mutate.Campaign.name);
                    ("operator", Obs.Json.String e.Mutate.Campaign.mutant.Mutate.Campaign.operator);
                  ]
                 @ Mutate.Campaign.classification_fields e.Mutate.Campaign.classification
                 @ [
                     ("states_total", Obs.Json.Int e.Mutate.Campaign.states_total);
                     ("elapsed_total", Obs.Json.Float e.Mutate.Campaign.elapsed_total);
                   ]))
             o.Mutate.Campaign.entries) );
    ]

(* The machine-readable report: one record per Bechamel group, the checker
   throughput block, and the checker-par / checker-reduce / campaign
   blocks.  Written next to the text output so perf PRs can diff
   BENCH_*.json across revisions.  The path is a CLI flag (-o FILE) so
   revisions can write side by side. *)
let bench_report_file = ref "BENCH_10.json"
let force_gap = ref false
let against_file : string option ref = ref None

let parse_cli () =
  Arg.parse
    [
      ("-o", Arg.Set_string bench_report_file, "FILE  report path (default BENCH_10.json)");
      ("--out", Arg.Set_string bench_report_file, "FILE  same as -o");
      ( "--force",
        Arg.Set force_gap,
        "  write the report even if earlier BENCH_<n>.json files in the series are missing" );
      ( "--against",
        Arg.String (fun f -> against_file := Some f),
        "FILE  after writing, diff the new report against FILE (see `gcmodel benchdiff`); \
         exits 1 on a regression past the noise threshold" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [-o FILE] [--force] [--against FILE]"

(* BENCH_<n>.json reports form a per-revision series that perf PRs diff
   pairwise; a missing predecessor is a silent hole those diffs then skip
   over (PR 3's run defaulted BENCH_2.json away exactly like that).
   Refuse the write up front — before minutes of benchmarking — unless
   --force acknowledges the gap. *)
let series_index file =
  let base = Filename.basename file in
  if
    String.length base > 11
    && String.sub base 0 6 = "BENCH_"
    && Filename.check_suffix base ".json"
  then int_of_string_opt (String.sub base 6 (String.length base - 11))
  else None

let check_series () =
  match series_index !bench_report_file with
  | None -> ()
  | Some n ->
    let dir = Filename.dirname !bench_report_file in
    let missing =
      List.filter
        (fun k -> not (Sys.file_exists (Filename.concat dir (Fmt.str "BENCH_%d.json" k))))
        (List.init (max 0 (n - 1)) (fun i -> i + 1))
    in
    if missing <> [] && not !force_gap then
      Fmt.failwith
        "refusing to write %s: missing earlier report%s in the series: %s — regenerate with \
         `bench -o BENCH_<n>.json`, or pass --force to accept the gap"
        !bench_report_file
        (if List.length missing = 1 then "" else "s")
        (String.concat ", " (List.map (Fmt.str "BENCH_%d.json") missing))

let write_report groups checker checker_par checker_store runtime_latency checker_reduce
    checker_certify campaign =
  let group_record (gname, rows) =
    Obs.Json.Obj
      [
        ("group", Obs.Json.String gname);
        ( "tests",
          Obs.Json.List
            (List.map
               (fun (name, est) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.String name);
                     ( "ns_per_run",
                       match est with Some e -> Obs.Json.Float e | None -> Obs.Json.Null );
                   ])
               rows) );
      ]
  in
  (* provenance (schema v3): benchmark numbers are only comparable on the
     same machine, and a diff against an unknown revision is uninterpretable
     — benchdiff refuses cross-hostname comparisons outright *)
  let git_commit =
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, c when c <> "" -> c
      | _ -> "unknown"
    with _ -> "unknown"
  in
  let report =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "relaxing-safely-bench-v3");
        ("ocaml_version", Obs.Json.String Sys.ocaml_version);
        ("git_commit", Obs.Json.String git_commit);
        ("hostname", Obs.Json.String (Unix.gethostname ()));
        ("domains_available", Obs.Json.Int (Domain.recommended_domain_count ()));
        (* measured, not the runtime heuristic — see [recommended_domains] *)
        ("recommended_domains", Obs.Json.Int (recommended_domains checker_par));
        ("groups", Obs.Json.List (List.map group_record groups));
        ("checker", checker);
        ("checker_par", checker_par);
        ("checker_store", checker_store);
        ("runtime_latency", runtime_latency);
        ("checker_reduce", checker_reduce);
        ("checker_certify", checker_certify);
        ("campaign", campaign);
      ]
  in
  let oc = open_out !bench_report_file in
  output_string oc (Obs.Json.to_string report);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." !bench_report_file

let () =
  parse_cli ();
  check_series ();
  shape_results ();
  Fmt.pr "=== timings (Bechamel, monotonic clock) ===@.";
  let cycle_test, cleanup = fig2_cycle () in
  let groups =
    List.map run_group
      [
        ("fig5", Test.make_grouped ~name:"fig5" (fig5_tests ()));
        ("fig6", Test.make_grouped ~name:"fig6" (fig6_tests ()));
        ("fig2", Test.make_grouped ~name:"fig2" [ cycle_test ]);
        ("fig7", Test.make_grouped ~name:"fig7" (fig7_tests ()));
        ("fig8", Test.make_grouped ~name:"fig8" (fig8_tests ()));
        ("fig9", Test.make_grouped ~name:"fig9" (fig9_tests ()));
        ("fig10", Test.make_grouped ~name:"fig10" (fig10_tests ()));
      ]
  in
  cleanup ();
  let checker = checker_throughput () in
  Fmt.pr "=== checker-par (speedup vs domains, %d available) ===@."
    (Domain.recommended_domain_count ());
  let checker_par = checker_par () in
  Fmt.pr "  %-44s %12d@." "recommended-domains (measured)" (recommended_domains checker_par);
  if Domain.recommended_domain_count () < 4 then
    Fmt.pr
      "  NOTE: only %d domain%s available on this host — the checker-par speedup rows (and \
       the >2x-at-4-domains expectation) need a >=4-core host to be meaningful@."
      (Domain.recommended_domain_count ())
      (if Domain.recommended_domain_count () = 1 then "" else "s");
  Fmt.pr "=== checker-store (states per GB under a memory budget) ===@.";
  let checker_store = checker_store () in
  Fmt.pr "=== runtime-latency (allocation throughput, handshake/pause percentiles) ===@.";
  if Domain.recommended_domain_count () < 4 then
    Fmt.pr
      "  NOTE: only %d domain%s available on this host — the runtime-latency rows clamp \
       their mutator counts to it (each row records the n_muts actually run), so the \
       1/2/4/8-mutator spread needs a >=4-core host to be meaningful@."
      (Domain.recommended_domain_count ())
      (if Domain.recommended_domain_count () = 1 then "" else "s");
  let runtime_latency = runtime_latency () in
  Fmt.pr "=== checker-reduce (states and wall-clock per mode) ===@.";
  let checker_reduce = checker_reduce () in
  Fmt.pr "=== checker-certify (recheck cost vs explore, certificate size) ===@.";
  let checker_certify = checker_certify () in
  Fmt.pr "=== campaign (mutation kills: states and time to detection) ===@.";
  let campaign = campaign_bench () in
  write_report groups checker checker_par checker_store runtime_latency checker_reduce
    checker_certify campaign;
  (match !against_file with
  | None -> ()
  | Some old_path -> (
    Fmt.pr "=== benchdiff vs %s ===@." old_path;
    match Obs.Benchcmp.compare_files ~old_path !bench_report_file with
    | Error msg ->
      Fmt.epr "benchdiff: %s@." msg;
      exit 2
    | Ok r ->
      print_string
        (Obs.Benchcmp.render ~old_name:(Filename.basename old_path)
           ~new_name:(Filename.basename !bench_report_file) r);
      if Obs.Benchcmp.has_regressions r then exit 1));
  Fmt.pr "done.@."
