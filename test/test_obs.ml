(* Tests for the observability layer: the JSON codec, reporter sinks and
   spec parsing, Trace JSON export round-trips, and the instrumentation
   wired into the checkers and the multicore harness. *)

open Cimp

type com = (int, int, int) Com.t

let proc c data = Com.make [ c ] data

(* -- Json -------------------------------------------------------------------- *)

let rec json_equal (a : Obs.Json.t) (b : Obs.Json.t) =
  match (a, b) with
  | Obs.Json.Null, Obs.Json.Null -> true
  | Obs.Json.Bool x, Obs.Json.Bool y -> x = y
  | Obs.Json.Int x, Obs.Json.Int y -> x = y
  | Obs.Json.Float x, Obs.Json.Float y -> abs_float (x -. y) < 1e-9
  | Obs.Json.Int x, Obs.Json.Float y | Obs.Json.Float y, Obs.Json.Int x ->
    abs_float (float_of_int x -. y) < 1e-9
  | Obs.Json.String x, Obs.Json.String y -> x = y
  | Obs.Json.List xs, Obs.Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2) xs ys
  | _ -> false

let json : Obs.Json.t Alcotest.testable =
  Alcotest.testable (Fmt.of_to_string Obs.Json.to_string) json_equal

let parse_exn s =
  match Obs.Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("null", Null);
          ("bool", Bool true);
          ("int", Int (-42));
          ("float", Float 1.5);
          ("string", String "quote \" backslash \\ newline \n tab \t unicode \xc3\xa9");
          ("list", List [ Int 1; String "two"; Obj [ ("three", Bool false) ] ]);
          ("empty_obj", Obj []);
          ("empty_list", List []);
        ])
  in
  Alcotest.check json "print/parse round-trip" v (parse_exn (Obs.Json.to_string v));
  Alcotest.check json "pretty-print/parse round-trip" v
    (parse_exn (Obs.Json.to_string_pretty v))

let test_json_parses_plain_forms () =
  Alcotest.check json "exponent" (Obs.Json.Float 1000.) (parse_exn "1e3");
  Alcotest.check json "negative float" (Obs.Json.Float (-2.5)) (parse_exn "-2.5");
  Alcotest.check json "escaped unicode" (Obs.Json.String "\xc2\xa9") (parse_exn {|"©"|});
  Alcotest.check json "whitespace tolerated"
    (Obs.Json.Obj [ ("a", Obs.Json.List [ Obs.Json.Int 1 ]) ])
    (parse_exn " { \"a\" : [ 1 ] } ")

let test_json_rejects_garbage () =
  let bad s =
    match Obs.Json.of_string s with
    | Ok _ -> Alcotest.failf "parser accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "1 2";
  bad "tru";
  bad "\"unterminated"

let test_json_nonfinite_floats () =
  (* non-finite floats must not produce unparseable output *)
  let s = Obs.Json.to_string (Obs.Json.List [ Obs.Json.Float nan; Obs.Json.Float infinity ]) in
  match Obs.Json.of_string s with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "nan/inf serialization unparseable (%s): %s" s msg

(* -- Reporter ---------------------------------------------------------------- *)

let test_reporter_memory_sink () =
  Alcotest.(check bool) "null is disabled" false (Obs.Reporter.enabled Obs.Reporter.null);
  let obs, dump = Obs.Reporter.memory () in
  Alcotest.(check bool) "memory is enabled" true (Obs.Reporter.enabled obs);
  Obs.Reporter.emit obs "ping" [ ("n", Obs.Json.Int 1) ];
  (match dump () with
  | [ Obs.Json.Obj ping ] ->
    Alcotest.check json "event name" (Obs.Json.String "ping") (List.assoc "event" ping);
    Alcotest.(check bool) "base fields present" true
      (List.mem_assoc "ts" ping && List.mem_assoc "rel_s" ping)
  | records -> Alcotest.failf "expected 1 record, got %d" (List.length records));
  Obs.Reporter.close obs;
  Alcotest.(check bool) "closed reporter is disabled" false (Obs.Reporter.enabled obs);
  Obs.Reporter.emit obs "late" [];
  Alcotest.(check int) "emits after close are dropped" 1 (List.length (dump ()))

let test_reporter_spec_parsing () =
  (match Obs.Reporter.of_spec "off" with
  | Ok t -> Alcotest.(check bool) "off is disabled" false (Obs.Reporter.enabled t)
  | Error msg -> Alcotest.fail msg);
  (match Obs.Reporter.of_spec "nonsense" with
  | Ok _ -> Alcotest.fail "bad spec accepted"
  | Error _ -> ());
  let path = Filename.temp_file "obs_spec" ".jsonl" in
  (match Obs.Reporter.of_spec ("json:" ^ path) with
  | Ok t ->
    Obs.Reporter.emit t "hello" [];
    Obs.Reporter.close t;
    let ic = open_in path in
    let line = input_line ic in
    close_in ic;
    ignore (parse_exn line)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* -- Trace JSON export ------------------------------------------------------- *)

let test_event_json_roundtrip () =
  let check_event ev =
    match Check.Trace.event_of_json (Check.Trace.event_to_json ev) with
    | Ok ev' -> Alcotest.(check bool) "event survives the round-trip" true (ev = ev')
    | Error msg -> Alcotest.fail msg
  in
  check_event (System.Tau (0, "mark"));
  check_event
    (System.Rendezvous
       { requester = 1; req_label = "req-read"; responder = 0; resp_label = "serve-read" })

let test_trace_json_roundtrip () =
  (* a deterministic 3-step violation gives a non-trivial schedule *)
  let p : com =
    Com.seq
      [
        Com.Local_op ("a", fun s -> [ s + 1 ]);
        Com.Local_op ("b", fun s -> [ s * 2 ]);
        Com.Local_op ("c", fun s -> [ s + 5 ]);
      ]
  in
  let sys = System.make [| "p" |] [| proc p 3 |] in
  let o =
    Check.Explore.run ~normal_form:false
      ~invariants:[ ("never-13", fun sys -> (System.proc sys 0).Com.data <> 13) ]
      sys
  in
  match o.Check.Explore.violation with
  | None -> Alcotest.fail "13 = (3+1)*2+5 must be reached"
  | Some tr -> (
    let reparsed = parse_exn (Obs.Json.to_string (Check.Trace.to_json tr)) in
    match Check.Trace.schedule_of_json reparsed with
    | Error msg -> Alcotest.fail msg
    | Ok (broken, schedule) ->
      Alcotest.(check string) "broken invariant survives" "never-13" broken;
      let original = List.map (fun (s : _ Check.Trace.step) -> s.Check.Trace.event) tr.Check.Trace.steps in
      Alcotest.(check bool) "schedule survives" true (schedule = original))

(* -- Checker instrumentation ------------------------------------------------- *)

let record_fields name = function
  | Obs.Json.Obj fields -> fields
  | j -> Alcotest.failf "%s record is not an object: %s" name (Obs.Json.to_string j)

let records_of_event name records =
  List.filter_map
    (fun r ->
      let fields = record_fields name r in
      match List.assoc_opt "event" fields with
      | Some (Obs.Json.String e) when e = name -> Some fields
      | _ -> None)
    records

let int_field fields k =
  match List.assoc_opt k fields with
  | Some (Obs.Json.Int n) -> n
  | Some j -> Alcotest.failf "field %s is not an int: %s" k (Obs.Json.to_string j)
  | None -> Alcotest.failf "field %s missing" k

let test_explore_per_invariant_evals () =
  (* ISSUE acceptance: on the baseline scenario, every invariant must be
     evaluated at every visited state — eval counts == states *)
  let obs, dump = Obs.Reporter.memory () in
  let o = Core.Scenario.explore ~obs Core.Scenario.baseline in
  Obs.Reporter.close obs;
  let records = dump () in
  let n_invariants = List.length (Core.Scenario.invariants Core.Scenario.baseline) in
  let inv_records = records_of_event "invariant" records in
  Alcotest.(check int) "one record per invariant" n_invariants (List.length inv_records);
  List.iter
    (fun fields ->
      Alcotest.(check int)
        (Fmt.str "invariant %s evaluated at every state"
           (match List.assoc_opt "name" fields with
           | Some (Obs.Json.String n) -> n
           | _ -> "?"))
        o.Check.Explore.states (int_field fields "evals"))
    inv_records;
  let outcomes = records_of_event "outcome" records in
  Alcotest.(check int) "exactly one outcome record" 1 (List.length outcomes);
  Alcotest.(check int) "outcome states agrees with the result" o.Check.Explore.states
    (int_field (List.hd outcomes) "states")

let test_explore_invariant_records_summed () =
  (* two workers keep separate accounts; the run still reports one
     record per invariant, whose evals add up to the profile's total *)
  let obs, dump = Obs.Reporter.memory () in
  let sc = Core.Scenario.two_mutators in
  ignore (Core.Scenario.explore ~jobs:2 ~obs ~reduce:Reduce.Mode.All sc);
  Obs.Reporter.close obs;
  let records = dump () in
  let inv_records = records_of_event "invariant" records in
  Alcotest.(check int) "one record per invariant"
    (List.length (Core.Scenario.invariants sc))
    (List.length inv_records);
  let profile =
    match records_of_event "profile" records with
    | [ p ] -> p
    | ps -> Alcotest.failf "expected one profile record, got %d" (List.length ps)
  in
  Alcotest.(check int) "evals sum to the profile's invariant_evals"
    (int_field profile "invariant_evals")
    (List.fold_left (fun acc f -> acc + int_field f "evals") 0 inv_records)

let test_explore_jsonl_stream () =
  let path = Filename.temp_file "obs_explore" ".jsonl" in
  let p : com = Com.Loop (Com.Local_op ("inc", fun s -> [ s + 1; s + 2 ])) in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let obs = Obs.Reporter.jsonl path in
  let o =
    Check.Explore.run ~max_states:500 ~heartbeat_every:100 ~obs
      ~invariants:[ ("true", fun _ -> true) ]
      sys
  in
  Obs.Reporter.close obs;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let records = List.rev_map parse_exn !lines in
  Sys.remove path;
  Alcotest.(check bool) "heartbeats streamed" true
    (List.length (records_of_event "heartbeat" records) >= 1);
  Alcotest.(check int) "one invariant record" 1
    (List.length (records_of_event "invariant" records));
  let outcome = List.hd (records_of_event "outcome" records) in
  Alcotest.(check int) "states in the stream" o.Check.Explore.states (int_field outcome "states")

let test_coverage_sorted_and_gaps () =
  let p : com =
    Com.If
      ( "branch",
        (fun s -> s = 0),
        Com.assign "then" (fun s -> s + 1),
        Com.assign "else" (fun s -> s - 1) )
  in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o = Check.Explore.run ~normal_form:false ~track_coverage:true ~invariants:[] sys in
  Alcotest.(check (list (pair int string)))
    "covered is sorted and complete"
    [ (0, "branch"); (0, "then") ]
    o.Check.Explore.covered;
  Alcotest.(check (list (pair int string)))
    "the dead branch is the one gap"
    [ (0, "else") ]
    (Check.Explore.coverage_gaps sys ~covered:o.Check.Explore.covered)

let test_random_walk_trace_tail () =
  (* single deterministic path to a violation at depth 500; only the last
     [trace_tail] steps must be retained *)
  let p : com = Com.Loop (Com.Local_op ("step", fun s -> [ s + 1 ])) in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o =
    Check.Random_walk.run ~normal_form:false ~steps:10_000 ~trace_tail:10
      ~invariants:[ ("below-500", fun sys -> (System.proc sys 0).Com.data < 500) ]
      sys
  in
  match o.Check.Random_walk.violation with
  | None -> Alcotest.fail "the walk must reach 500"
  | Some tr ->
    Alcotest.(check int) "trace bounded to the tail" 10 (Check.Trace.length tr);
    Alcotest.(check int) "final state is the offender" 500
      (System.proc (Check.Trace.final tr) 0).Com.data;
    Alcotest.(check int) "no dead ends on an infinite path" 0 o.Check.Random_walk.restarts

let test_random_walk_counts_restarts () =
  (* a terminating program dead-ends every walk, forcing restarts *)
  let p : com =
    Com.seq
      [
        Com.assign "a" (fun s -> s + 1);
        Com.assign "b" (fun s -> s + 1);
        Com.assign "c" (fun s -> s + 1);
      ]
  in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o = Check.Random_walk.run ~normal_form:false ~steps:50 ~invariants:[] sys in
  Alcotest.(check bool) "dead ends recorded" true (o.Check.Random_walk.restarts > 0);
  Alcotest.(check bool) "every restart is also a run" true
    (o.Check.Random_walk.runs > o.Check.Random_walk.restarts)

let str_field fields k =
  match List.assoc_opt k fields with
  | Some (Obs.Json.String v) -> v
  | Some j -> Alcotest.failf "field %s is not a string: %s" k (Obs.Json.to_string j)
  | None -> Alcotest.failf "field %s missing" k

let test_swarm_outcome_schema () =
  (* the swarm's outcome carries the single walker's counter fields, each
     the sum of the per-domain walkers' outcomes *)
  let p : com =
    Com.seq
      [
        Com.assign "a" (fun s -> s + 1);
        Com.assign "b" (fun s -> s + 1);
        Com.assign "c" (fun s -> s + 1);
      ]
  in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let obs, dump = Obs.Reporter.memory () in
  let o =
    Check.Random_walk.swarm ~jobs:3 ~steps:100 ~normal_form:false ~obs ~invariants:[] sys
  in
  Obs.Reporter.close obs;
  let outcomes = records_of_event "outcome" (dump ()) in
  let by_checker c = List.filter (fun f -> str_field f "checker" = c) outcomes in
  let swarm = by_checker "walk-swarm" and walkers = by_checker "walk" in
  Alcotest.(check int) "one swarm outcome" 1 (List.length swarm);
  Alcotest.(check int) "one walker outcome per domain" 3 (List.length walkers);
  let fields = List.hd swarm in
  Alcotest.(check int) "steps is the whole budget" 100 (int_field fields "steps");
  Alcotest.(check bool) "no nested metrics object" false (List.mem_assoc "metrics" fields);
  List.iter
    (fun k ->
      Alcotest.(check int)
        (k ^ " sums the domains")
        (List.fold_left (fun n f -> n + int_field f k) 0 walkers)
        (int_field fields k))
    [ "steps"; "runs"; "dead_end_restarts" ];
  Alcotest.(check int) "record agrees with the result" o.Check.Random_walk.restarts
    (int_field fields "dead_end_restarts")

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let test_explore_heartbeat_store_schema () =
  (* a budget small enough to spill: each heartbeat reports tier-0
     occupancy as one integer per seen-set shard *)
  let p : com =
    Com.While (("w" : Label.t), (fun s -> s < 60), Com.Local_op ("step", fun s -> [ s + 1; s + 3 ]))
  in
  let sys = System.make [| "p"; "q" |] [| proc p 0; proc p 0 |] in
  let dir = Filename.temp_file "obs_spill" "" in
  Sys.remove dir;
  let obs, dump = Obs.Reporter.memory () in
  let _ =
    Check.Explore.run ~normal_form:false ~heartbeat_every:200
      ~mem_budget:(Store.Tiered.n_shards * 20 * Store.Tiered.entry_bytes) ~spill_dir:dir ~obs
      ~invariants:[] sys
  in
  Obs.Reporter.close obs;
  rm_rf dir;
  let heartbeats = records_of_event "heartbeat" (dump ()) in
  Alcotest.(check bool) "heartbeats fired" true (heartbeats <> []);
  List.iter
    (fun fields ->
      Alcotest.(check bool) "no nested store object" false (List.mem_assoc "store" fields);
      match List.assoc_opt "bytes_resident_per_shard" fields with
      | Some (Obs.Json.List bs) ->
        Alcotest.(check int) "one entry per shard" Store.Tiered.n_shards (List.length bs);
        List.iter
          (function
            | Obs.Json.Int b -> Alcotest.(check bool) "occupancy is non-negative" true (b >= 0)
            | j -> Alcotest.failf "shard occupancy is not an int: %s" (Obs.Json.to_string j))
          bs
      | _ -> Alcotest.fail "heartbeat lacks bytes_resident_per_shard")
    heartbeats

(* -- Runtime instrumentation ------------------------------------------------- *)

let test_harness_emits_records () =
  let obs, dump = Obs.Reporter.memory () in
  let stats = Runtime.Harness.run ~n_muts:2 ~duration:0.3 ~obs () in
  Obs.Reporter.close obs;
  let records = dump () in
  let harness = records_of_event "harness" records in
  Alcotest.(check int) "one harness record" 1 (List.length harness);
  let fields = List.hd harness in
  Alcotest.(check int) "cycle count agrees" stats.Runtime.Harness.cycles
    (int_field fields "cycles");
  Alcotest.(check int) "handshake rounds agree" stats.Runtime.Harness.hs_rounds
    (int_field fields "hs_rounds");
  let cycles = records_of_event "gc-cycle" records in
  Alcotest.(check int) "one record per completed cycle" stats.Runtime.Harness.cycles
    (List.length cycles);
  List.iter
    (fun fields ->
      match List.assoc_opt "hs_latency_s" fields with
      | Some (Obs.Json.List ls) ->
        Alcotest.(check bool) "each cycle logs its handshake latencies" true
          (List.length ls > 0)
      | _ -> Alcotest.fail "gc-cycle record lacks hs_latency_s")
    cycles

let suite =
  [
    Alcotest.test_case "json: print/parse round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: plain forms parse" `Quick test_json_parses_plain_forms;
    Alcotest.test_case "json: garbage rejected" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json: non-finite floats stay parseable" `Quick test_json_nonfinite_floats;
    Alcotest.test_case "reporter: memory sink and lifecycle" `Quick test_reporter_memory_sink;
    Alcotest.test_case "reporter: spec parsing" `Quick test_reporter_spec_parsing;
    Alcotest.test_case "trace: event JSON round-trip" `Quick test_event_json_roundtrip;
    Alcotest.test_case "trace: schedule JSON round-trip" `Quick test_trace_json_roundtrip;
    Alcotest.test_case "explore: per-invariant evals == states (baseline)" `Quick
      test_explore_per_invariant_evals;
    Alcotest.test_case "explore: jobs=2 sums invariant records over workers" `Quick
      test_explore_invariant_records_summed;
    Alcotest.test_case "explore: JSONL stream is well-formed" `Quick test_explore_jsonl_stream;
    Alcotest.test_case "explore: coverage sorted, gaps found" `Quick
      test_coverage_sorted_and_gaps;
    Alcotest.test_case "walk: counterexample memory bounded by trace_tail" `Quick
      test_random_walk_trace_tail;
    Alcotest.test_case "walk: dead-end restarts counted" `Quick test_random_walk_counts_restarts;
    Alcotest.test_case "walk: swarm outcome has the walker's fields" `Quick
      test_swarm_outcome_schema;
    Alcotest.test_case "explore: heartbeat reports per-shard residency" `Quick
      test_explore_heartbeat_store_schema;
    Alcotest.test_case "harness: gc-cycle and harness records" `Quick test_harness_emits_records;
  ]
