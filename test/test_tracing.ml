(* Tests for the concurrency-telemetry layer: the per-domain span tracer
   (deterministic output under a stubbed clock, Chrome trace-event shape,
   ring overflow), domain-safe histograms under real domains, contention
   probes and the serial-fraction estimate, the scaling-detail record of
   the parallel checker, the live dashboard's plain renderer, and the
   BENCH regression gate. *)

(* -- span tracer -------------------------------------------------------------- *)

(* a deterministic clock: 1 us per read *)
let stub_clock () =
  let t = ref 0 in
  fun () ->
    t := !t + 1_000;
    !t

(* one fixed recording sequence, used by both determinism runs *)
let record_fixture tr =
  let n_a = Obs.Tracing.intern tr "alpha" in
  let n_b = Obs.Tracing.intern tr "beta" in
  Obs.Tracing.set_lane tr ~dom:0 "worker 0";
  Obs.Tracing.set_lane tr ~dom:1 "worker 1";
  let s0 = Obs.Tracing.now tr in
  Obs.Tracing.span tr ~dom:0 ~name:n_a ~start_ns:s0;
  Obs.Tracing.span_between tr ~dom:1 ~name:n_b ~start_ns:2_000 ~stop_ns:5_000;
  Obs.Tracing.span_args tr ~dom:0 ~name:n_a ~start_ns:6_000 ~stop_ns:9_000
    ~args:[ ("level", Obs.Json.Int 3) ];
  Obs.Tracing.instant tr ~dom:1 ~name:n_b

let contains s affix =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_tracer_byte_stable () =
  let render () =
    let tr = Obs.Tracing.create ~capacity:64 ~clock:(stub_clock ()) ~domains:2 () in
    record_fixture tr;
    Obs.Json.to_string (Obs.Tracing.to_json tr)
  in
  let a = render () and b = render () in
  Alcotest.(check string) "identical runs render byte-identically" a b;
  Alcotest.(check bool) "traceEvents array present" true (contains a "\"traceEvents\"")

let test_tracer_chrome_shape () =
  let tr = Obs.Tracing.create ~capacity:64 ~clock:(stub_clock ()) ~domains:2 () in
  record_fixture tr;
  let doc = Obs.Tracing.to_json tr in
  let events =
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "events recorded" true (List.length events > 0);
  List.iter
    (fun ev ->
      let has k =
        match Obs.Json.member k ev with
        | Some _ -> ()
        | None -> Alcotest.failf "event lacks %s: %s" k (Obs.Json.to_string ev)
      in
      has "ph";
      has "ts";
      has "pid";
      has "tid";
      match Obs.Json.member "ph" ev with
      | Some (Obs.Json.String "X") ->
        has "dur";
        has "name"
      | Some (Obs.Json.String ("i" | "M")) -> ()
      | ph ->
        Alcotest.failf "unexpected ph %s"
          (match ph with Some j -> Obs.Json.to_string j | None -> "?"))
    events;
  (* the parse/print round trip keeps the document loadable *)
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "trace JSON does not reparse: %s" msg

let test_tracer_ring_overflow () =
  let tr = Obs.Tracing.create ~capacity:4 ~clock:(stub_clock ()) ~domains:1 () in
  let n_first = Obs.Tracing.intern tr "first" in
  let n_rest = Obs.Tracing.intern tr "rest" in
  Obs.Tracing.span_between tr ~dom:0 ~name:n_first ~start_ns:0 ~stop_ns:1_000;
  for _ = 2 to 10 do
    Obs.Tracing.span_between tr ~dom:0 ~name:n_rest ~start_ns:0 ~stop_ns:1_000
  done;
  Alcotest.(check int) "buffer holds exactly its capacity" 4 (Obs.Tracing.events tr);
  Alcotest.(check int) "overflow counted as drops" 6 (Obs.Tracing.drops tr);
  let s = Obs.Json.to_string (Obs.Tracing.to_json tr) in
  Alcotest.(check bool) "earliest event survives the overflow" true (contains s "\"first\"")

let test_tracer_null_is_inert () =
  let tr = Obs.Tracing.null in
  Alcotest.(check bool) "disabled" false (Obs.Tracing.enabled tr);
  Alcotest.(check int) "no lanes" 0 (Obs.Tracing.lanes tr);
  Alcotest.(check int) "now is 0" 0 (Obs.Tracing.now tr);
  (* recording into the null tracer must be a no-op, not a crash *)
  Obs.Tracing.span tr ~dom:0 ~name:0 ~start_ns:0;
  Obs.Tracing.instant tr ~dom:0 ~name:0;
  Alcotest.(check int) "nothing recorded" 0 (Obs.Tracing.events tr)

(* -- contention probes -------------------------------------------------------- *)

let test_lock_uncontended_counts () =
  let l = Obs.Contention.make_lock () in
  for _ = 1 to 100 do
    Obs.Contention.with_lock l (fun () -> ())
  done;
  let s = Obs.Contention.lock_stats l in
  Alcotest.(check int) "acquires" 100 s.Obs.Contention.acquires;
  Alcotest.(check int) "no contention alone" 0 s.Obs.Contention.contended;
  Alcotest.(check int) "no wait alone" 0 s.Obs.Contention.wait_ns

let test_lock_contended_measures_wait () =
  let l = Obs.Contention.make_lock () in
  let holding = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Obs.Contention.with_lock l (fun () ->
            Atomic.set holding true;
            Unix.sleepf 0.02))
  in
  while not (Atomic.get holding) do
    Domain.cpu_relax ()
  done;
  Obs.Contention.with_lock l (fun () -> ());
  Domain.join d;
  let s = Obs.Contention.lock_stats l in
  Alcotest.(check int) "both acquires counted" 2 s.Obs.Contention.acquires;
  Alcotest.(check int) "the blocked acquire is contended" 1 s.Obs.Contention.contended;
  Alcotest.(check bool) "wait time measured (>= 10ms)" true
    (s.Obs.Contention.wait_ns >= 10_000_000);
  Alcotest.(check bool) "max wait <= total wait" true
    (s.Obs.Contention.max_wait_ns <= s.Obs.Contention.wait_ns);
  let total, per_shard = Obs.Contention.shard_summary [| l |] in
  Alcotest.(check int) "shard summary aggregates" 2 total.Obs.Contention.acquires;
  Alcotest.(check int) "one shard" 1 (Array.length per_shard);
  Alcotest.(check bool) "per-shard wait in seconds" true (per_shard.(0) >= 0.01)

let test_serial_fraction_estimate () =
  (* 4 domains, 1s wall, 2.5s of busy time: serial s = (4 - 2.5)/3 = 0.5,
     f = 0.5/2.5 = 0.2, effective parallelism 2.5 — and Amdahl at n=4
     reproduces the measured speedup: 1/(0.2 + 0.8/4) = 2.5 *)
  let est =
    Obs.Contention.estimate ~jobs:4 ~wall_s:1.0 ~busy_per_domain:[| 1.0; 0.5; 0.5; 0.5 |]
  in
  Alcotest.(check (float 1e-9)) "serial seconds" 0.5 est.Obs.Contention.serial_s;
  Alcotest.(check (float 1e-9)) "serial fraction" 0.2 est.Obs.Contention.serial_fraction;
  Alcotest.(check (float 1e-9)) "effective parallelism" 2.5
    est.Obs.Contention.effective_parallelism;
  Alcotest.(check (float 1e-9)) "Amdahl consistency at n=jobs" 2.5
    (Obs.Contention.predicted_speedup est 4);
  let seq = Obs.Contention.estimate ~jobs:1 ~wall_s:1.0 ~busy_per_domain:[| 1.0 |] in
  Alcotest.(check (float 1e-9)) "jobs=1 has no serial component" 0.
    seq.Obs.Contention.serial_fraction

(* -- parallel checker: tracer + scaling-detail -------------------------------- *)

let field_names = List.map fst

let test_par_explore_traces_and_scaling_detail () =
  let sc = Core.Scenario.baseline in
  let model = Core.Scenario.model sc in
  let invariants = Core.Scenario.invariants sc in
  let obs, dump = Obs.Reporter.memory () in
  let tracer = Obs.Tracing.create ~domains:2 () in
  let o = Check.Explore.run ~jobs:2 ~obs ~tracer ~invariants model.Core.Model.system in
  Obs.Reporter.close obs;
  let seq = Check.Explore.run ~jobs:1 ~invariants model.Core.Model.system in
  Alcotest.(check int) "jobs=2 visits the jobs=1 state count" seq.Check.Explore.states
    o.Check.Explore.states;
  (* spans: both worker lanes carry events, and the work-stealing span
     taxonomy replaces the old barrier one (every worker ends its run
     with a steal-fail + termination-probe pair, so those are always
     present; a successful [steal] is exercised deterministically by the
     dedicated test below) *)
  Alcotest.(check bool) "spans recorded" true (Obs.Tracing.events tracer > 0);
  let s = Obs.Json.to_string (Obs.Tracing.to_json tracer) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " span present") true (contains s ("\"" ^ affix ^ "\"")))
    [ "expand"; "successor-gen"; "seen-insert"; "deque-push"; "steal-fail"; "termination-probe";
      "worker 1" ];
  (* the scaling-detail record carries the attribution schema *)
  let detail =
    List.filter_map
      (fun r ->
        match r with
        | Obs.Json.Obj fields
          when List.assoc_opt "event" fields = Some (Obs.Json.String "scaling-detail") ->
          Some fields
        | _ -> None)
      (dump ())
  in
  Alcotest.(check int) "one scaling-detail record" 1 (List.length detail);
  let fields = List.hd detail in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("scaling-detail has " ^ k) true (List.mem k (field_names fields)))
    [
      "jobs"; "wall_s"; "busy_s"; "serial_s"; "serial_fraction"; "effective_parallelism";
      "busy_per_domain_s"; "idle_wait_s"; "idle_per_domain_s"; "steals"; "steal_fails";
      "stolen_tasks"; "termination_probes"; "lock_acquires"; "lock_contended"; "lock_wait_s";
      "shard_wait_s"; "deque_wait_s";
    ];
  (match List.assoc_opt "serial_fraction" fields with
  | Some (Obs.Json.Float f) ->
    Alcotest.(check bool) "serial fraction in [0,1]" true (f >= 0. && f <= 1.)
  | _ -> Alcotest.fail "serial_fraction is not a float");
  match List.assoc_opt "busy_per_domain_s" fields with
  | Some (Obs.Json.List l) -> Alcotest.(check int) "one busy entry per domain" 2 (List.length l)
  | _ -> Alcotest.fail "busy_per_domain_s is not a list"

(* A deterministic successful steal: a 16-way branching counter (the
   While root unfolds by a tau step at depth 1, then the Local_op fans
   out 16 successors at depth 2), worker 0 is held (scheduler hook) at
   its first depth-2 expansion until some worker has stolen.  At the
   hold point either a steal already happened (releasing instantly) or
   worker 0's deque still holds the 8 depth-2 tasks its batch pop left
   behind, so worker 1's steal must succeed.  The [steal] span and the
   scaling-detail steal counters follow. *)
let test_par_explore_steal_span () =
  let open Cimp in
  let p : (int, int, int) Com.t =
    Com.While
      ( ("w" : Cimp.Label.t),
        (fun s -> s < 400),
        Com.Local_op ("step", fun s -> List.init 16 (fun i -> s + i + 1)) )
  in
  let sys () = System.make [| "p" |] [| Com.make [ p ] 0 |] in
  let stole = Atomic.make false in
  let held = Atomic.make false in
  let hooks =
    {
      Check.Explore.no_hooks with
      on_expand =
        (fun ~worker ~depth ->
          if worker = 0 && depth = 2 && not (Atomic.exchange held true) then
            while not (Atomic.get stole) do
              Domain.cpu_relax ()
            done);
      on_steal = (fun ~worker:_ ~victim:_ ~stolen:_ -> Atomic.set stole true);
    }
  in
  let obs, dump = Obs.Reporter.memory () in
  let tracer = Obs.Tracing.create ~domains:2 () in
  let seq = Check.Explore.run ~normal_form:false ~invariants:[] (sys ()) in
  let par =
    Check.Explore.run ~jobs:2 ~normal_form:false ~obs ~tracer ~hooks ~invariants:[] (sys ())
  in
  Obs.Reporter.close obs;
  Alcotest.(check bool) "a steal happened" true (Atomic.get stole);
  Alcotest.(check int) "states still the jobs=1 count" seq.Check.Explore.states par.Check.Explore.states;
  Alcotest.(check int) "transitions still the jobs=1 count" seq.Check.Explore.transitions
    par.Check.Explore.transitions;
  let s = Obs.Json.to_string (Obs.Tracing.to_json tracer) in
  Alcotest.(check bool) "steal span present" true (contains s "\"steal\"");
  let steals =
    List.find_map
      (fun r ->
        match r with
        | Obs.Json.Obj fields
          when List.assoc_opt "event" fields = Some (Obs.Json.String "scaling-detail") ->
          List.assoc_opt "steals" fields
        | _ -> None)
      (dump ())
  in
  match steals with
  | Some (Obs.Json.Int n) -> Alcotest.(check bool) "steals counted" true (n >= 1)
  | _ -> Alcotest.fail "scaling-detail must count steals"

(* -- live dashboard (plain renderer) ------------------------------------------ *)

let test_dashboard_plain_renders () =
  let buf = Buffer.create 256 in
  let d = Obs.Dashboard.create ~mode:Obs.Dashboard.Plain ~out:(Buffer.add_string buf) () in
  Obs.Dashboard.update d "heartbeat"
    [
      ("checker", Obs.Json.String "explore");
      ("states", Obs.Json.Int 1234);
      ("max_states", Obs.Json.Int 10_000);
      ("states_per_sec", Obs.Json.Float 500.);
    ];
  Obs.Dashboard.update d "scaling-detail"
    [
      ("shard_wait_s", Obs.Json.List [ Obs.Json.Float 0.2; Obs.Json.Float 0.8 ]);
      ("lock_wait_s", Obs.Json.Float 1.0);
      ("busy_s", Obs.Json.Float 4.0);
      ("serial_fraction", Obs.Json.Float 0.25);
    ];
  Obs.Dashboard.update d "outcome" [ ("states", Obs.Json.Int 2000) ];
  Obs.Dashboard.finish d;
  let out = Buffer.contents buf in
  Alcotest.(check bool) "panel mentions the checker" true (contains out "explore");
  Alcotest.(check bool) "progress rendered" true (contains out "2000");
  Alcotest.(check bool) "verdict rendered" true (contains out "ok");
  Alcotest.(check bool) "shard heat rendered" true (contains out "shards");
  Alcotest.(check bool) "plain mode emits no ANSI escapes" false (contains out "\027[")

let test_reporter_live_spec () =
  match Obs.Reporter.of_spec "live" with
  | Ok t ->
    Alcotest.(check bool) "live reporter is enabled" true (Obs.Reporter.enabled t);
    Obs.Reporter.close t
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "tracer: byte-stable under a stubbed clock" `Quick
      test_tracer_byte_stable;
    Alcotest.test_case "tracer: Chrome trace-event shape" `Quick test_tracer_chrome_shape;
    Alcotest.test_case "tracer: ring overflow drops, never corrupts" `Quick
      test_tracer_ring_overflow;
    Alcotest.test_case "tracer: null tracer is inert" `Quick test_tracer_null_is_inert;
    Alcotest.test_case "contention: uncontended probe is exact" `Quick
      test_lock_uncontended_counts;
    Alcotest.test_case "contention: contended acquire measures its wait" `Quick
      test_lock_contended_measures_wait;
    Alcotest.test_case "contention: Amdahl estimate round-trips" `Quick
      test_serial_fraction_estimate;
    Alcotest.test_case "par-explore: deterministic steal span" `Quick test_par_explore_steal_span;
    Alcotest.test_case "par-explore: spans + scaling-detail schema" `Quick
      test_par_explore_traces_and_scaling_detail;
    Alcotest.test_case "dashboard: plain renderer" `Quick test_dashboard_plain_renders;
    Alcotest.test_case "reporter: --obs=live spec" `Quick test_reporter_live_spec;
  ]
