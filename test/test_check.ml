(* Tests for the checking harness: exact state counts on hand-built
   systems, shortest-counterexample reconstruction, the random walker, and
   fingerprint discipline. *)

open Cimp

type com = (int, int, int) Com.t

let proc c data = Com.make [ c ] data

(* A diamond: two independent one-step processes => exactly 4 states. *)
let diamond () =
  let p : com = Com.Local_op ("p", fun s -> [ s + 1 ]) in
  System.make [| "p"; "q" |] [| proc p 0; proc p 0 |]

let test_exact_state_count () =
  let o = Check.Explore.run ~normal_form:false ~invariants:[] (diamond ()) in
  Alcotest.(check int) "diamond has 4 states" 4 o.Check.Explore.states;
  Alcotest.(check int) "4 transitions" 4 o.Check.Explore.transitions;
  Alcotest.(check int) "depth 2" 2 o.Check.Explore.depth;
  Alcotest.(check int) "one terminal" 1 o.Check.Explore.deadlocks;
  Alcotest.(check bool) "closed" false o.Check.Explore.truncated

let test_normal_form_collapses_diamond () =
  (* with eager definite taus the whole diamond collapses into one state *)
  let o = Check.Explore.run ~normal_form:true ~invariants:[] (diamond ()) in
  Alcotest.(check int) "single normal form" 1 o.Check.Explore.states

let test_truncation () =
  (* an unbounded counter never closes *)
  let p : com = Com.Loop (Com.Local_op ("inc", fun s -> [ s + 1; s + 2 ])) in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o = Check.Explore.run ~max_states:50 ~invariants:[] sys in
  Alcotest.(check bool) "truncated" true o.Check.Explore.truncated;
  Alcotest.(check int) "capped" 50 o.Check.Explore.states

let test_shortest_counterexample () =
  (* two routes to the bad value: length 3 (via +1 steps) and length 1
     (via +3); BFS must return the short one *)
  let p : com = Com.Loop (Com.Local_op ("step", fun s -> [ s + 1; s + 3 ])) in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o =
    Check.Explore.run ~invariants:[ ("not-three", fun sys -> (System.proc sys 0).Com.data <> 3) ] sys
  in
  match o.Check.Explore.violation with
  | Some tr ->
    Alcotest.(check string) "names the invariant" "not-three" tr.Check.Trace.broken;
    Alcotest.(check int) "shortest trace" 1 (Check.Trace.length tr);
    Alcotest.(check int) "final state violates" 3 (System.proc (Check.Trace.final tr) 0).Com.data
  | None -> Alcotest.fail "violation expected"

let test_trace_replays () =
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
  | Some tr ->
    Alcotest.(check int) "3 steps" 3 (Check.Trace.length tr);
    (* events in order *)
    let labels =
      List.map
        (fun (s : _ Check.Trace.step) ->
          match s.Check.Trace.event with System.Tau (_, l) -> l | _ -> "?")
        tr.Check.Trace.steps
    in
    Alcotest.(check (list string)) "schedule order" [ "a"; "b"; "c" ] labels
  | None -> Alcotest.fail "13 = (3+1)*2+5 must be reached"

let test_initial_state_checked () =
  let sys = diamond () in
  let o = Check.Explore.run ~invariants:[ ("no", fun _ -> false) ] sys in
  match o.Check.Explore.violation with
  | Some tr -> Alcotest.(check int) "violation at depth 0" 0 (Check.Trace.length tr)
  | None -> Alcotest.fail "initial state must be checked"

let test_random_walk_finds_violation () =
  let p : com = Com.Loop (Com.Local_op ("step", fun s -> [ s + 1; s + 2 ])) in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o =
    Check.Random_walk.run ~steps:1_000
      ~invariants:[ ("below-20", fun sys -> (System.proc sys 0).Com.data < 20) ]
      sys
  in
  (match o.Check.Random_walk.violation with
  | Some tr ->
    Alcotest.(check bool) "final state is the offender" true
      ((System.proc (Check.Trace.final tr) 0).Com.data >= 20)
  | None -> Alcotest.fail "walker must trip the bound");
  Alcotest.(check bool) "steps counted" true (o.Check.Random_walk.steps_taken > 0)

let test_random_walk_deterministic_seed () =
  let p : com = Com.Loop (Com.Local_op ("step", fun s -> [ s + 1; s + 2 ])) in
  let sys () = System.make [| "p" |] [| proc p 0 |] in
  let run seed =
    (Check.Random_walk.run ~seed ~steps:100 ~invariants:[] (sys ())).Check.Random_walk.steps_taken
  in
  Alcotest.(check int) "same seed, same walk" (run 7) (run 7)

let test_fingerprints () =
  let sys0 = diamond () in
  let fp0 = Check.Fingerprint.of_system sys0 in
  let hash = Check.Fingerprint.hash in
  Alcotest.(check int) "reflexive" (hash fp0) (hash (Check.Fingerprint.of_system (diamond ())));
  match System.steps sys0 with
  | (_, sys1) :: _ ->
    Alcotest.(check bool) "progress changes the fingerprint" false
      (hash fp0 = hash (Check.Fingerprint.of_system sys1))
  | [] -> Alcotest.fail "diamond must step"

(* Collision/determinism discipline for the compact structural hash:
   distinct small systems must get distinct fingerprints, and
   recomputing from a freshly built equal system must reproduce them
   exactly. *)
let test_fingerprint_hashes_distinct_and_stable () =
  (* vary data only *)
  let data_sys v : (int, int, int) System.t =
    System.make [| "p" |] [| proc (Com.Local_op ("x", fun s -> [ s ])) v |]
  in
  (* vary control only (the label spine) *)
  let control_sys l : (int, int, int) System.t =
    System.make [| "p" |] [| proc (Com.Local_op (l, fun s -> [ s ])) 0 |]
  in
  let fps =
    List.init 128 (fun v -> Check.Fingerprint.of_system (data_sys v))
    @ List.init 128 (fun i -> Check.Fingerprint.of_system (control_sys ("l" ^ string_of_int i)))
  in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  Alcotest.(check bool) "256 distinct systems, 256 distinct fingerprints" true
    (distinct (List.map Check.Fingerprint.fp64 fps));
  Alcotest.(check bool) "fp64 is never zero" true
    (List.for_all (fun fp -> Check.Fingerprint.fp64 fp <> 0L) fps);
  (* stability: a rebuilt equal system reproduces the fingerprint *)
  List.iteri
    (fun v fp ->
      let fp' = Check.Fingerprint.of_system (data_sys v) in
      Alcotest.(check int64) "fp64 stable across rebuilds" (Check.Fingerprint.fp64 fp)
        (Check.Fingerprint.fp64 fp');
      Alcotest.(check int) "hash stable across rebuilds" (Check.Fingerprint.hash fp)
        (Check.Fingerprint.hash fp'))
    (List.filteri (fun i _ -> i < 128) fps)

(* Fingerprints are a pure function of state content: two equal systems
   whose label strings were made in different orders (and are different
   heap objects) fingerprint equal. *)
let test_fingerprint_label_order_independent () =
  let names = [ "alpha"; "beta:loop"; "gamma:a-much-longer-label-text" ] in
  let prog labels : com =
    Com.Loop (Com.seq (List.map (fun l -> Com.Local_op (l, fun s -> [ s + 1 ])) labels))
  in
  let fresh l = String.init (String.length l) (String.get l) in
  let forward = List.map fresh names in
  let backward = List.rev (List.map fresh (List.rev names)) in
  let sys labels : (int, int, int) System.t =
    System.make [| "p"; "q" |] [| proc (prog labels) 0; proc (prog (List.rev labels)) 1 |]
  in
  let q_first labels : (int, int, int) System.t =
    let q = proc (prog (List.rev labels)) 1 in
    let p = proc (prog labels) 0 in
    System.make [| "p"; "q" |] [| p; q |]
  in
  let fp s = Check.Fingerprint.hash (Check.Fingerprint.of_system s) in
  Alcotest.(check int) "labels made in reverse order" (fp (sys forward)) (fp (sys backward));
  Alcotest.(check int) "programs built in reverse order" (fp (sys forward)) (fp (q_first backward))

(* -- several workers ------------------------------------------------------- *)

(* A bounded branching counter: wide enough to exercise multi-state
   levels, and it closes, so jobs=1 and jobs=N outcomes must agree on
   every count. *)
let bounded_counter () : (int, int, int) System.t =
  let p : com =
    Com.While (("w" : Cimp.Label.t), (fun s -> s < 40), Com.Local_op ("step", fun s -> [ s + 1; s + 2 ]))
  in
  System.make [| "p" |] [| proc p 0 |]

let test_par_matches_seq_counts () =
  let seq = Check.Explore.run ~normal_form:false ~invariants:[] (bounded_counter ()) in
  let par = Check.Explore.run ~jobs:4 ~normal_form:false ~invariants:[] (bounded_counter ()) in
  Alcotest.(check int) "states" seq.Check.Explore.states par.Check.Explore.states;
  Alcotest.(check int) "transitions" seq.Check.Explore.transitions par.Check.Explore.transitions;
  Alcotest.(check int) "depth" seq.Check.Explore.depth par.Check.Explore.depth;
  Alcotest.(check int) "deadlocks" seq.Check.Explore.deadlocks par.Check.Explore.deadlocks;
  Alcotest.(check bool) "closed" false par.Check.Explore.truncated;
  Alcotest.(check bool) "no violation" true (par.Check.Explore.violation = None)

let test_par_matches_seq_gc_scenario () =
  (* a real GC-model instance: wide frontiers (hundreds of states per
     level) actually fan out across domains and through the sharded
     seen-set; every count and the verdict must match the jobs=1 run *)
  let sc = Core.Scenario.make ~label:"par-eq" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let seq = Core.Scenario.explore sc in
  let par = Core.Scenario.explore ~jobs:4 sc in
  Alcotest.(check int) "states" seq.Check.Explore.states par.Check.Explore.states;
  Alcotest.(check int) "transitions" seq.Check.Explore.transitions par.Check.Explore.transitions;
  Alcotest.(check int) "depth" seq.Check.Explore.depth par.Check.Explore.depth;
  Alcotest.(check int) "deadlocks" seq.Check.Explore.deadlocks par.Check.Explore.deadlocks;
  Alcotest.(check bool) "verdict" (seq.Check.Explore.violation = None)
    (par.Check.Explore.violation = None)

let test_par_violation_same_name_and_length () =
  (* seeded violations: --jobs 1 and --jobs 4 must report the same
     invariant and a shortest trace of the same length, at depth 1 and at
     depth 3 *)
  let sys () : (int, int, int) System.t =
    let p : com = Com.Loop (Com.Local_op ("step", fun s -> [ s + 1; s + 3 ])) in
    System.make [| "p" |] [| proc p 0 |]
  in
  let check_both name pred expected_len =
    let seq = Check.Explore.run ~invariants:[ (name, pred) ] (sys ()) in
    (match seq.Check.Explore.violation with
    | Some str ->
      Alcotest.(check string) "same invariant (seq)" name str.Check.Trace.broken;
      Alcotest.(check int) "seq trace is shortest" expected_len (Check.Trace.length str)
    | None -> Alcotest.fail "jobs=1 must find the violation");
    List.iter
      (fun jobs ->
        let par = Check.Explore.run ~jobs ~invariants:[ (name, pred) ] (sys ()) in
        match par.Check.Explore.violation with
        | Some ptr ->
          Alcotest.(check string) "same invariant (par)" name ptr.Check.Trace.broken;
          Alcotest.(check int) "par trace has the same length" expected_len (Check.Trace.length ptr)
        | None -> Alcotest.fail "jobs>1 must find the violation")
      [ 2; 4 ]
  in
  check_both "not-three" (fun sys -> (System.proc sys 0).Com.data <> 3) 1;
  check_both "not-five" (fun sys -> (System.proc sys 0).Com.data <> 5) 3

let test_par_coverage_matches_seq () =
  let sc = Core.Scenario.make ~label:"par-cov" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let run jobs =
    (Check.Explore.run ~jobs ~track_coverage:true ~invariants:[]
       (Core.Scenario.model sc).Core.Model.system)
      .Check.Explore.covered
  in
  Alcotest.(check int) "same covered set, same order" 0 (compare (run 1) (run 4))

(* -- work-stealing seen-set and termination-detection edge cases ------------ *)

(* Satellite audit companion: the 70%-load doubling path runs entirely
   under the shard mutex, so concurrent inserts that trigger resizes on
   the same shard must never lose an entry.  Four domains hammer ONE
   shard (every fingerprint has zero low bits) through dozens of
   doublings from a deliberately tiny initial capacity. *)
let test_seen_resize_hammer () =
  let module Seen = Store.Tiered in
  let seen = Seen.create ~shard_cap:64 () in
  let initial_capacity = Seen.capacity seen in
  let n_domains = 4 and per_domain = 4_000 in
  (* low 6 bits zero => all fingerprints land in shard 0; never 0 *)
  let fp d i = ((d * per_domain) + i + 1) lsl 6 in
  let insert d =
    for i = 0 to per_domain - 1 do
      match Seen.add seen (fp d i) ~parent:1 ~event:d ~depth:(i + 1) with
      | Seen.Fresh -> ()
      | Seen.Improved _ | Seen.Stale ->
        Alcotest.fail "hammer fingerprints are distinct: every add must be Fresh"
    done
  in
  let doms = Array.init (n_domains - 1) (fun d -> Domain.spawn (fun () -> insert (d + 1))) in
  insert 0;
  Array.iter Domain.join doms;
  Alcotest.(check int) "no insert lost across concurrent resizes" (n_domains * per_domain)
    (Seen.count seen);
  Alcotest.(check bool) "the shard actually resized (several doublings)" true
    (Seen.capacity seen >= initial_capacity + (8 * 1024));
  for d = 0 to n_domains - 1 do
    for i = 0 to per_domain - 1 do
      if Seen.depth_of seen (fp d i) <> Some (i + 1) then
        Alcotest.failf "entry (%d,%d) lost or corrupted by a resize" d i
    done
  done;
  (* depth relaxation across a resized table: improve, then refuse stale *)
  (match Seen.add seen (fp 0 7) ~parent:1 ~event:0 ~depth:2 with
  | Seen.Improved v -> Alcotest.(check int) "no violation recorded" (-1) v
  | _ -> Alcotest.fail "smaller depth must improve the entry");
  Alcotest.(check (option int)) "depth stamp relaxed" (Some 2) (Seen.depth_of seen (fp 0 7));
  (match Seen.add seen (fp 0 7) ~parent:1 ~event:0 ~depth:9 with
  | Seen.Stale -> ()
  | _ -> Alcotest.fail "larger depth must be stale")

(* Termination edge case: the invariant already fails at the root, so
   best-depth pruning drains the pool without expanding anything. *)
let test_par_violation_at_root () =
  let run jobs = Check.Explore.run ~jobs ~invariants:[ ("no", fun _ -> false) ] (diamond ()) in
  let seq = run 1 in
  List.iter
    (fun jobs ->
      let par = run jobs in
      (match par.Check.Explore.violation with
      | Some tr ->
        Alcotest.(check string) "names the invariant" "no" tr.Check.Trace.broken;
        Alcotest.(check int) "empty counterexample" 0 (Check.Trace.length tr)
      | None -> Alcotest.fail "root violation expected");
      Alcotest.(check int) "only the root is counted" seq.Check.Explore.states
        par.Check.Explore.states)
    [ 2; 4 ]

(* Termination edge case: a reducer whose ample set collapses every
   successor list to nothing — the root expansion publishes zero tasks,
   the frontier is empty immediately, and the pool must still reach
   quiescence (a regression here hangs the test). *)
let test_par_empty_frontier_after_reduction () =
  let collapse : (int, int, int) Check.Reducer.t =
    {
      Check.Reducer.name = "collapse-all";
      fingerprint = Check.Fingerprint.of_system;
      successors = (fun _ -> []);
      canon_state = Fun.id;
      sym_permuted = Atomic.make 0;
      reg_nulled = Atomic.make 0;
      deferred = Atomic.make 0;
    }
  in
  let run jobs =
    Check.Explore.run ~jobs ~reducer:collapse ~invariants:[] (bounded_counter ())
  in
  let seq = run 1 in
  Alcotest.(check int) "root only" 1 seq.Check.Explore.states;
  List.iter
    (fun jobs ->
      let par = run jobs in
      Alcotest.(check int) "root only" seq.Check.Explore.states par.Check.Explore.states;
      Alcotest.(check int) "root is the only deadlock" seq.Check.Explore.deadlocks
        par.Check.Explore.deadlocks;
      Alcotest.(check int) "depth 0" 0 par.Check.Explore.depth;
      Alcotest.(check bool) "clean verdict" true (par.Check.Explore.violation = None))
    [ 2; 4 ]

(* Termination edge case: a straight-line chain has exactly one pending
   task at any moment, so with --jobs 4 three workers spend the whole run
   probing for termination (and stealing at most the single task) — the
   counts must still be exactly the jobs=1 ones. *)
let test_par_chain_starved_workers () =
  let p : com =
    Com.While (("w" : Cimp.Label.t), (fun s -> s < 30), Com.Local_op ("step", fun s -> [ s + 1 ]))
  in
  let sys () = System.make [| "p" |] [| proc p 0 |] in
  let seq = Check.Explore.run ~normal_form:false ~invariants:[] (sys ()) in
  let par = Check.Explore.run ~jobs:4 ~normal_form:false ~invariants:[] (sys ()) in
  Alcotest.(check int) "states" seq.Check.Explore.states par.Check.Explore.states;
  Alcotest.(check int) "transitions" seq.Check.Explore.transitions par.Check.Explore.transitions;
  Alcotest.(check int) "depth" seq.Check.Explore.depth par.Check.Explore.depth;
  Alcotest.(check int) "deadlocks" seq.Check.Explore.deadlocks par.Check.Explore.deadlocks;
  Alcotest.(check bool) "closed" false par.Check.Explore.truncated

(* Steal-during-termination-probe interleaving, made deterministic with
   scheduler hooks: whichever worker claims the root expansion (either
   can — a fast-spawning worker 1 may steal the root before worker 0
   pops it) holds it (pending stays at 1 with every deque empty) until
   the other worker's quiescence probe has run with pending > 0.  The
   probe must NOT terminate the run — when the holder resumes and
   publishes successors, the prober goes back to stealing, and the final
   counts prove no worker exited early. *)
let test_par_steal_during_termination_probe () =
  let probed_nonzero = Atomic.make false in
  let holder = Atomic.make (-1) in
  let hooks =
    {
      Check.Explore.no_hooks with
      on_expand =
        (fun ~worker ~depth ->
          if depth = 0 then begin
            Atomic.set holder worker;
            while not (Atomic.get probed_nonzero) do
              Domain.cpu_relax ()
            done
          end);
      on_probe =
        (fun ~worker ~pending ->
          let h = Atomic.get holder in
          if h >= 0 && worker <> h && pending > 0 then Atomic.set probed_nonzero true);
    }
  in
  let seq = Check.Explore.run ~normal_form:false ~invariants:[] (bounded_counter ()) in
  let par =
    Check.Explore.run ~jobs:2 ~normal_form:false ~hooks ~invariants:[] (bounded_counter ())
  in
  Alcotest.(check bool) "a probe observed pending work" true (Atomic.get probed_nonzero);
  Alcotest.(check int) "states" seq.Check.Explore.states par.Check.Explore.states;
  Alcotest.(check int) "transitions" seq.Check.Explore.transitions par.Check.Explore.transitions;
  Alcotest.(check int) "depth" seq.Check.Explore.depth par.Check.Explore.depth;
  Alcotest.(check int) "deadlocks" seq.Check.Explore.deadlocks par.Check.Explore.deadlocks

(* Acceptance: verdict, violated invariant and counterexample length are
   identical across --jobs 1/2/4, with and without --reduce all, on a GC
   instance. *)
let test_par_jobs_equivalence_with_reduce () =
  let sc = Core.Scenario.make ~label:"par-eq-red" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let verdict (o : _ Check.Explore.outcome) =
    match o.Check.Explore.violation with
    | None -> ("safe", -1)
    | Some tr -> (tr.Check.Trace.broken, Check.Trace.length tr)
  in
  List.iter
    (fun reduce ->
      let base = verdict (Core.Scenario.explore ~jobs:1 ~reduce sc) in
      List.iter
        (fun jobs ->
          Alcotest.(check (pair string int))
            (Fmt.str "verdict equivalence at jobs=%d reduce=%s" jobs (Reduce.Mode.to_string reduce))
            base
            (verdict (Core.Scenario.explore ~jobs ~reduce sc)))
        [ 2; 4 ])
    [ Reduce.Mode.None_; Reduce.Mode.All ]

(* -- the random-walk swarm -------------------------------------------------- *)

let test_swarm_finds_violation () =
  let p : com = Com.Loop (Com.Local_op ("step", fun s -> [ s + 1; s + 2 ])) in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o =
    Check.Random_walk.swarm ~jobs:3 ~steps:3_000
      ~invariants:[ ("below-20", fun sys -> (System.proc sys 0).Com.data < 20) ]
      sys
  in
  match o.Check.Random_walk.violation with
  | Some tr ->
    Alcotest.(check bool) "final state is the offender" true
      ((System.proc (Check.Trace.final tr) 0).Com.data >= 20)
  | None -> Alcotest.fail "swarm must trip the bound"

let test_swarm_deterministic_totals () =
  (* without a violation every domain consumes exactly its budget share,
     so aggregate counters are deterministic in (seed, jobs) *)
  let p : com = Com.Loop (Com.Local_op ("step", fun s -> [ s + 1; s + 2 ])) in
  let sys () = System.make [| "p" |] [| proc p 0 |] in
  let run () = Check.Random_walk.swarm ~jobs:3 ~seed:7 ~steps:100 ~invariants:[] (sys ()) in
  let a = run () and b = run () in
  Alcotest.(check int) "all 100 steps taken" 100 a.Check.Random_walk.steps_taken;
  Alcotest.(check int) "same total steps" a.Check.Random_walk.steps_taken b.Check.Random_walk.steps_taken;
  Alcotest.(check int) "same total runs" a.Check.Random_walk.runs b.Check.Random_walk.runs

(* qcheck: exploration of a random branching counter visits exactly the
   values representable as ordered sums of the branch increments, and the
   state count equals the number of distinct reachable values (+ control). *)
let prop_explore_counts_reachable_values =
  QCheck.Test.make ~name:"explorer visits each reachable value once" ~count:50
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (a, b) ->
      let p : com = Com.Local_op ("x", fun s -> [ s + a; s + b ]) in
      let sys = System.make [| "p" |] [| proc p 0 |] in
      let o = Check.Explore.run ~normal_form:false ~invariants:[] sys in
      let expected = if a = b then 2 else 3 in
      o.Check.Explore.states = expected)

let suite =
  [
    Alcotest.test_case "exact state counts" `Quick test_exact_state_count;
    Alcotest.test_case "normal form collapses invisible steps" `Quick test_normal_form_collapses_diamond;
    Alcotest.test_case "truncation at the cap" `Quick test_truncation;
    Alcotest.test_case "BFS returns a shortest counterexample" `Quick test_shortest_counterexample;
    Alcotest.test_case "traces replay the schedule in order" `Quick test_trace_replays;
    Alcotest.test_case "the initial state is checked" `Quick test_initial_state_checked;
    Alcotest.test_case "random walks find violations" `Quick test_random_walk_finds_violation;
    Alcotest.test_case "walks are seed-deterministic" `Quick test_random_walk_deterministic_seed;
    Alcotest.test_case "fingerprint discipline" `Quick test_fingerprints;
    Alcotest.test_case "fingerprint: independent of label construction order" `Quick
      test_fingerprint_label_order_independent;
    Alcotest.test_case "fingerprint hashes: distinct and stable" `Quick
      test_fingerprint_hashes_distinct_and_stable;
    Alcotest.test_case "par explorer matches jobs=1 counts" `Quick test_par_matches_seq_counts;
    Alcotest.test_case "par explorer matches jobs=1 on a GC instance" `Quick
      test_par_matches_seq_gc_scenario;
    Alcotest.test_case "par violation: same invariant, same shortest length" `Quick
      test_par_violation_same_name_and_length;
    Alcotest.test_case "par coverage matches jobs=1" `Quick test_par_coverage_matches_seq;
    Alcotest.test_case "seen shard resize hammer" `Quick test_seen_resize_hammer;
    Alcotest.test_case "par violation at the root" `Quick test_par_violation_at_root;
    Alcotest.test_case "par empty frontier after reduction collapse" `Quick
      test_par_empty_frontier_after_reduction;
    Alcotest.test_case "par starved workers on a chain" `Quick test_par_chain_starved_workers;
    Alcotest.test_case "steal during termination probe" `Quick
      test_par_steal_during_termination_probe;
    Alcotest.test_case "par jobs equivalence with and without reduce" `Slow
      test_par_jobs_equivalence_with_reduce;
    Alcotest.test_case "swarm finds violations" `Quick test_swarm_finds_violation;
    Alcotest.test_case "swarm totals are (seed, jobs)-deterministic" `Quick
      test_swarm_deterministic_totals;
    QCheck_alcotest.to_alcotest prop_explore_counts_reachable_values;
  ]
