(* Tests for the state-space reduction subsystem (lib/reduce and its
   Core.Reduction instantiation): symmetry canonicalization, the POR
   independence argument on concrete reachable states, differential
   reduced-vs-unreduced verdicts over the closing scenarios, and the
   cross-check harness itself. *)

let witness name = Core.Scenario.witness_for (Option.get (Core.Variants.by_name name))

(* Collect up to [limit] distinct reachable normal-form states by BFS —
   raw material for the property tests below. *)
let collect ?(limit = 4_000) sc =
  let sys0 = Cimp.System.normalize (Core.Scenario.model sc).Core.Model.system in
  let seen = Hashtbl.create 1024 in
  let q = Queue.create () in
  let out = ref [] in
  let visit s =
    let fp = Check.Fingerprint.hash (Check.Fingerprint.of_system s) in
    if not (Hashtbl.mem seen fp) then begin
      Hashtbl.add seen fp ();
      Queue.add s q;
      out := s :: !out
    end
  in
  visit sys0;
  while (not (Queue.is_empty q)) && Hashtbl.length seen < limit do
    let s = Queue.pop q in
    List.iter (fun (_e, s') -> visit (Cimp.System.normalize s')) (Cimp.System.steps s)
  done;
  List.rev !out

(* -- Mode parsing --------------------------------------------------------- *)

let test_mode_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("roundtrip " ^ Reduce.Mode.to_string m)
        true
        (Reduce.Mode.of_string (Reduce.Mode.to_string m) = Ok m))
    Reduce.Mode.all_modes;
  match Reduce.Mode.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_string accepted \"bogus\""

let test_permutations () =
  let ps = Reduce.Symmetry.permutations [ 0; 1; 2 ] in
  Alcotest.(check int) "3! permutations" 6 (List.length ps);
  Alcotest.(check int) "all distinct" 6 (List.length (List.sort_uniq compare ps));
  List.iter
    (fun p -> Alcotest.(check (list int)) "is a permutation" [ 0; 1; 2 ] (List.sort compare p))
    ps

(* -- Symmetry: canonical fingerprint is a permutation invariant ------------ *)

(* For every reachable state outside the handshake signal window and every
   permutation pi of the mutator indices, the canonical fingerprint of the
   state and of its concrete pi-image coincide — this is exactly what makes
   dedup-by-canonical-fingerprint collapse the orbit. *)
let sym_invariance n_muts () =
  let sc =
    Core.Scenario.make ~label:"sym-prop" ~n_muts ~n_refs:2 ~shape:"single" ~max_mut_ops:1 ()
  in
  let cfg = sc.Core.Scenario.cfg in
  let spec = Core.Reduction.spec cfg in
  let canon_fp s =
    let fp, _, _ = Reduce.Symmetry.canonical_fingerprint spec s in
    Check.Fingerprint.hash fp
  in
  let perms = Reduce.Symmetry.permutations (List.init n_muts Fun.id) in
  let states = collect ~limit:4_000 sc in
  (* class-count oracle: the structural canonical form of a state is the
     Stdlib.compare-least permuted image of its nulled representative
     (identity only where the permutation is ruled out), as plain
     (spine, data) lists.  Equal forms are exactly one orbit, so the
     fingerprint must map forms to fingerprints one-to-one: a form with
     two fingerprints is a split orbit, fewer fingerprints than forms a
     merged one. *)
  let plain s =
    List.init (Cimp.System.n_procs s) (fun p ->
        let c = Cimp.System.proc s p in
        (Cimp.Com.stack_labels c.Cimp.Com.stack, c.Cimp.Com.data))
  in
  let form s =
    let c = Reduce.Symmetry.canon_state spec s in
    if spec.Reduce.Symmetry.permute_ok s then
      List.fold_left
        (fun m p -> min m (plain (Core.Reduction.permute_muts cfg c (fun m -> List.nth p m))))
        (plain c) perms
    else plain c
  in
  let fp_of_form = Hashtbl.create 4096 and fps = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      let f = form s and fp = canon_fp s in
      (match Hashtbl.find_opt fp_of_form f with
      | Some fp' when fp' <> fp -> Alcotest.fail "one orbit got two canonical fingerprints"
      | Some _ -> ()
      | None -> Hashtbl.add fp_of_form f fp);
      Hashtbl.replace fps fp ())
    states;
  Alcotest.(check int) "as many fingerprint classes as structural orbits"
    (Hashtbl.length fp_of_form) (Hashtbl.length fps);
  Alcotest.(check bool) "the sample merges some orbits" true
    (Hashtbl.length fp_of_form < List.length states);
  let tested = ref 0 and buffered = ref 0 and permuted = ref 0 in
  List.iter
    (fun s ->
      if spec.Reduce.Symmetry.permute_ok s then begin
        incr tested;
        let sd = Core.State.sys (Cimp.System.proc s (Core.Config.pid_sys cfg)).Cimp.Com.data in
        let bufs =
          List.init n_muts (fun m -> Core.State.buf_of sd (Core.Config.pid_mut cfg m))
        in
        (* distinct non-empty store buffers are the delicate case: the
           per-pid Sys slices must travel with the permutation *)
        if List.exists (fun b -> b <> []) bufs && List.length (List.sort_uniq compare bufs) > 1
        then incr buffered;
        let fp = canon_fp s in
        (let _, moved, _ = Reduce.Symmetry.canonical_fingerprint spec s in
         if moved then incr permuted);
        List.iter
          (fun p ->
            let s' = Core.Reduction.permute_muts cfg s (fun m -> List.nth p m) in
            if fp <> canon_fp s' then
              Alcotest.fail
                (Fmt.str "canonical fingerprint not invariant under %a"
                   Fmt.(brackets (list ~sep:semi int))
                   p))
          perms
      end)
    states;
  Alcotest.(check bool) "sampled permutable states" true (!tested > 100);
  Alcotest.(check bool) "covered distinct non-empty buffers" true (!buffered > 0);
  Alcotest.(check bool) "the sort actually moves processes" true (!permuted > 0)

(* -- Pinned fingerprint values ------------------------------------------------

   Fingerprints are persisted (certificate tables, checkpoint frontiers)
   and read back by other processes, so their values are part of the
   format.  A change here must come with a certificate format bump
   (Certify.Certificate.format_tag) and a new Check.Fingerprint.scheme. *)
let test_pinned_fingerprint () =
  let sc = Core.Scenario.two_mutators in
  let sys0 = Cimp.System.normalize (Core.Scenario.model sc).Core.Model.system in
  let red = Option.get (Core.Reduction.reducer sc.Core.Scenario.cfg Reduce.Mode.All) in
  Alcotest.(check string) "scheme" "components-1" Check.Fingerprint.scheme;
  Alcotest.(check string) "certificate format" "GCCERT003" Certify.Certificate.format_tag;
  Alcotest.(check int) "of_system" (-2705838864266156011) (Check.Fingerprint.hash (Check.Fingerprint.of_system sys0));
  Alcotest.(check int) "canonical (reduce all)" (-1159039186717444571)
    (Check.Fingerprint.hash (red.Check.Reducer.fingerprint sys0))

let test_sym_invariance_2 () = sym_invariance 2 ()
let test_sym_invariance_3 () = sym_invariance 3 ()

(* -- POR: deferrable transitions commute on reachable states --------------- *)

(* Wherever [ample] defers, the selected fence must commute (execution
   oracle, both orders, normalized) with every other enabled transition —
   the C1 base case, validated concretely rather than assumed. *)
let test_por_commutation () =
  let sc = Core.Scenario.two_mutators in
  let states = collect ~limit:4_000 sc in
  let checked = ref 0 in
  List.iter
    (fun s ->
      let succs = Cimp.System.steps s in
      let ample, deferred = Reduce.Por.ample Core.Reduction.por_policy succs in
      if deferred > 0 then begin
        incr checked;
        if ample = [] || List.length ample >= List.length succs then
          Alcotest.fail "deferred > 0 but the ample set is not a strict non-empty subset";
        (* the persistent set is the union of deferrable singletons: every
           member must be policy-deferrable and commute with every other
           enabled transition — other ample members included (pairwise
           independence is part of C1 for a multi-owner set) *)
        List.iter
          (fun (f, _) ->
            Alcotest.(check bool) "policy marks every ample event deferrable" true
              (Core.Reduction.por_policy.Reduce.Por.deferrable f);
            List.iter
              (fun (e, _) ->
                if e <> f then
                  Alcotest.(check bool) "fence commutes with concurrent transition" true
                    (Reduce.Independence.commute_at s f e))
              succs)
          ample
      end)
    states;
  Alcotest.(check bool) "found deferral points in the sample" true (!checked > 10)

let test_disjoint_footprints () =
  (* footprint disjointness on events straight out of the model *)
  let sc = Core.Scenario.two_mutators in
  let s = Cimp.System.normalize (Core.Scenario.model sc).Core.Model.system in
  let events = List.map fst (Cimp.System.steps s) in
  List.iter
    (fun e1 ->
      List.iter
        (fun e2 ->
          let expect =
            not
              (List.exists
                 (fun p -> List.mem p (Cimp.System.event_pids e2))
                 (Cimp.System.event_pids e1))
          in
          Alcotest.(check bool) "disjoint agrees with event_pids" expect
            (Reduce.Independence.disjoint e1 e2))
        events)
    events

(* -- Differential: reduced and unreduced agree on every closing scenario --- *)

let differential_modes = [ Reduce.Mode.Sym; Reduce.Mode.Por; Reduce.Mode.All ]

let differential ?safety_only ?(max_states = 5_000_000) name sc =
  let full = Core.Scenario.explore ~max_states ?safety_only sc in
  Alcotest.(check bool) (name ^ ": full run closes") false full.Check.Explore.truncated;
  let verdict o = Option.map (fun tr -> tr.Check.Trace.broken) o.Check.Explore.violation in
  let ce_length o =
    Option.map (fun tr -> List.length tr.Check.Trace.steps) o.Check.Explore.violation
  in
  List.iter
    (fun m ->
      let red = Core.Scenario.explore ~max_states ?safety_only ~reduce:m sc in
      let tag = name ^ "/" ^ Reduce.Mode.to_string m in
      Alcotest.(check bool) (tag ^ ": closes") false red.Check.Explore.truncated;
      Alcotest.(check bool) (tag ^ ": visits no more states") true
        (red.Check.Explore.states <= full.Check.Explore.states);
      Alcotest.(check (option string)) (tag ^ ": same verdict") (verdict full) (verdict red);
      Alcotest.(check (option int))
        (tag ^ ": same counterexample length")
        (ce_length full) (ce_length red))
    differential_modes

let test_diff_baseline () = differential "baseline" Core.Scenario.baseline
let test_diff_two_cycles () = differential "two-cycles" Core.Scenario.two_cycles
let test_diff_two_mutators () = differential "two-mutators" Core.Scenario.two_mutators
let test_diff_fig1 () = differential "fig1" Core.Scenario.fig1
let test_diff_chain () = differential "chain3" Core.Scenario.chain
let test_diff_deep_buffers () = differential "deep-buffers" Core.Scenario.deep_buffers

let test_diff_witnesses () =
  (* violating instances: the reduced run must find the same broken
     invariant by an equally short counterexample *)
  List.iter
    (fun name -> differential ~safety_only:true name (witness name))
    [ "no-deletion-barrier"; "no-insertion-barrier"; "no-barriers"; "alloc-white" ]

(* -- The cross-check harness ----------------------------------------------- *)

let test_crosscheck_two_mutators () =
  let r = Core.Scenario.crosscheck Core.Scenario.two_mutators in
  Alcotest.(check (list string)) "no mismatches" [] (Reduce.Crosscheck.errors r);
  (* the headline acceptance number: >= 50% of distinct states saved *)
  Alcotest.(check bool) "saves at least half the states" true
    (2 * r.Reduce.Crosscheck.reduced_states <= r.Reduce.Crosscheck.full_states)

let test_crosscheck_violation () =
  let r = Core.Scenario.crosscheck ~safety_only:true (witness "no-deletion-barrier") in
  Alcotest.(check (list string)) "no mismatches" [] (Reduce.Crosscheck.errors r);
  Alcotest.(check bool) "found the violation" true (r.Reduce.Crosscheck.full_violation <> None)

let test_crosscheck_flags_mismatches () =
  (* the harness itself: fabricated disagreements must be reported *)
  let ok =
    {
      Reduce.Crosscheck.reduce = "all";
      full_states = 100;
      reduced_states = 40;
      full_transitions = 300;
      reduced_transitions = 100;
      full_truncated = false;
      reduced_truncated = false;
      full_violation = Some "inv";
      reduced_violation = Some "inv";
      full_ce_length = Some 7;
      reduced_ce_length = Some 7;
      elapsed = 0.;
    }
  in
  Alcotest.(check (list string)) "clean result passes" [] (Reduce.Crosscheck.errors ok);
  let count r = List.length (Reduce.Crosscheck.errors r) in
  Alcotest.(check bool) "verdict mismatch flagged" true
    (count { ok with Reduce.Crosscheck.reduced_violation = None } > 0);
  Alcotest.(check bool) "different invariant flagged" true
    (count { ok with Reduce.Crosscheck.reduced_violation = Some "other" } > 0);
  Alcotest.(check bool) "state blow-up flagged" true
    (count { ok with Reduce.Crosscheck.reduced_states = 101 } > 0);
  Alcotest.(check bool) "longer counterexample flagged" true
    (count { ok with Reduce.Crosscheck.reduced_ce_length = Some 9 } > 0);
  Alcotest.(check bool) "longer counterexample tolerated when relaxed" true
    (Reduce.Crosscheck.errors ~allow_longer_ce:true
       { ok with Reduce.Crosscheck.reduced_ce_length = Some 9 }
    = []);
  Alcotest.(check bool) "shorter counterexample never tolerated" true
    (count { ok with Reduce.Crosscheck.reduced_ce_length = Some 5 } > 0);
  Alcotest.(check bool) "vacuous (truncated full) run flagged" true
    (count { ok with Reduce.Crosscheck.full_truncated = true } > 0);
  Alcotest.(check bool) "truncated reduced run flagged" true
    (count { ok with Reduce.Crosscheck.reduced_truncated = true } > 0)

let test_reducer_counters () =
  (* the observability counters move when the reducers do *)
  let sc =
    Core.Scenario.make ~label:"tiny2" ~n_muts:2 ~n_refs:2 ~shape:"single"
      ~tweak:(fun c ->
        { c with Core.Config.mut_load = false; mut_store = false; mut_alloc = false; mut_discard = false })
      ()
  in
  let reducer = Option.get (Core.Reduction.reducer sc.Core.Scenario.cfg Reduce.Mode.All) in
  let o =
    Check.Explore.run ~max_states:1_000_000 ~reducer
      ~invariants:(Core.Scenario.invariants sc)
      (Core.Scenario.model sc).Core.Model.system
  in
  Alcotest.(check bool) "clean" true (o.Check.Explore.violation = None);
  Alcotest.(check bool) "closed" false o.Check.Explore.truncated;
  Alcotest.(check bool) "permutations happened" true
    (Atomic.get reducer.Check.Reducer.sym_permuted > 0);
  Alcotest.(check bool) "registers were nulled" true
    (Atomic.get reducer.Check.Reducer.reg_nulled > 0);
  Alcotest.(check bool) "transitions were deferred" true
    (Atomic.get reducer.Check.Reducer.deferred > 0)

let test_jobs1_parallel_agree () =
  (* same reducer semantics at every jobs: verdicts and closure agree
     (exact state counts may differ — orbit representatives are chosen
     by arrival order, and canonicalization pauses in the handshake
     signal window) *)
  let sc = Core.Scenario.two_mutators in
  let seq = Core.Scenario.explore ~reduce:Reduce.Mode.All sc in
  let par = Core.Scenario.explore ~jobs:2 ~reduce:Reduce.Mode.All sc in
  Alcotest.(check bool) "seq closes" false seq.Check.Explore.truncated;
  Alcotest.(check bool) "par closes" false par.Check.Explore.truncated;
  Alcotest.(check bool) "same verdict" true
    (Option.map (fun tr -> tr.Check.Trace.broken) seq.Check.Explore.violation
    = Option.map (fun tr -> tr.Check.Trace.broken) par.Check.Explore.violation)

(* -- The headline reach extension ------------------------------------------ *)

let test_three_mutators_closes () =
  (* beyond the seed checker at the default cap (measured: >10M states,
     truncated); closes reduced in ~1.2M *)
  let o = Core.Scenario.explore ~max_states:2_000_000 ~reduce:Reduce.Mode.All
      Core.Scenario.three_mutators
  in
  Alcotest.(check bool) "closes" false o.Check.Explore.truncated;
  Alcotest.(check bool) "clean" true (o.Check.Explore.violation = None)

let suite =
  [
    Alcotest.test_case "mode: parse/print roundtrip" `Quick test_mode_roundtrip;
    Alcotest.test_case "permutations: 3! distinct" `Quick test_permutations;
    Alcotest.test_case "sym: canonical fp invariant (2 mutators)" `Quick test_sym_invariance_2;
    Alcotest.test_case "sym: canonical fp invariant (3 mutators)" `Quick test_sym_invariance_3;
    Alcotest.test_case "fingerprint: pinned values (two mutators)" `Quick test_pinned_fingerprint;
    Alcotest.test_case "por: deferred fences commute (oracle)" `Quick test_por_commutation;
    Alcotest.test_case "por: disjointness matches footprints" `Quick test_disjoint_footprints;
    Alcotest.test_case "differential: baseline" `Slow test_diff_baseline;
    Alcotest.test_case "differential: two cycles" `Slow test_diff_two_cycles;
    Alcotest.test_case "differential: two mutators" `Slow test_diff_two_mutators;
    Alcotest.test_case "differential: fig1" `Slow test_diff_fig1;
    Alcotest.test_case "differential: chain" `Quick test_diff_chain;
    Alcotest.test_case "differential: deep buffers" `Slow test_diff_deep_buffers;
    Alcotest.test_case "differential: ablation witnesses" `Quick test_diff_witnesses;
    Alcotest.test_case "crosscheck: two mutators, >= 50% saved" `Slow test_crosscheck_two_mutators;
    Alcotest.test_case "crosscheck: violating instance" `Quick test_crosscheck_violation;
    Alcotest.test_case "crosscheck: harness flags mismatches" `Quick test_crosscheck_flags_mismatches;
    Alcotest.test_case "reducer: counters move" `Quick test_reducer_counters;
    Alcotest.test_case "reducer: jobs=1 and parallel agree" `Slow test_jobs1_parallel_agree;
    Alcotest.test_case "reach: three mutators close under reduction" `Slow test_three_mutators_closes;
  ]
