(* Discrimination tests for the invariant catalogue: every auxiliary
   invariant must be *refutable* — we build a concrete global state that
   violates it and check that the predicate says no, and that its first
   witness names the expected conjunct.  (The positive
   direction — all invariants hold on every reachable state — is covered by
   the exhaustive runs in test_safety.ml; these tests guard against an
   invariant silently degenerating to [fun _ -> true].) *)

open Core.Types
module St = Core.State
module Cfg = Core.Config

let cfg = { Cfg.default with n_muts = 2; n_refs = 3 }

let shape = Gcheap.Shapes.single ~n_refs:3 ~n_fields:1

let base () = (Core.Model.make cfg shape).Core.Model.system

let pid_sys = Cfg.pid_sys cfg
let mut0 = Cfg.pid_mut cfg 0
let mut1 = Cfg.pid_mut cfg 1

(* Rebuild the system with a doctored sys_data. *)
let with_sys f sys = Cimp.System.map_data sys pid_sys (St.map_sys f)
let with_mut m f sys = Cimp.System.map_data sys (Cfg.pid_mut cfg m) (St.map_mut f)

let find name =
  match Core.Invariants.find cfg name with
  | None -> Alcotest.fail ("unknown invariant " ^ name)
  | Some i -> i

let witnessed_conjuncts name sys =
  List.map (fun w -> w.Core.Invariants.conjunct) (Core.Invariants.witness (find name) sys)

(* On a refuted state, [conjunct] is the conjunct the first witness names:
   the one the campaign's kill-matrix records. *)
let check_inv ?conjunct name sys expected =
  Alcotest.(check bool) name expected (Core.Invariants.check (find name) sys);
  Option.iter
    (fun c ->
      Alcotest.(check (option string))
        (name ^ ": first witness") (Some c)
        (List.nth_opt (witnessed_conjuncts name sys) 0))
    conjunct

let refutes name conjunct sys = check_inv ~conjunct name sys false
let violates name conjunct f = refutes name conjunct (with_sys f (base ()))

let test_valid_refs_refutable () =
  (* a rooted reference with no object *)
  let sys = with_mut 0 (fun d -> { d with St.m_roots = [ 2 ] }) (base ()) in
  refutes "valid_refs_inv" "reachable-implies-valid" sys

let test_no_dangling_refutable () = violates "no_dangling_access" "no-dangling-access" (fun sd -> { sd with St.s_dangling = true })

let test_worklists_disjoint_refutable () =
  violates "worklists_disjoint" "grey-ownership-exclusive" (fun sd -> St.set_wl (St.set_wl sd mut0 [ 0 ]) mut1 [ 0 ])

let test_worklists_dup_refutable () =
  violates "worklists_disjoint" "no-duplicate-grey" (fun sd ->
      { sd with St.s_W = List.mapi (fun i w -> if i = mut0 then [ 0; 0 ] else w) sd.St.s_W })

let test_valid_w_refutable () =
  (* a grey whose object is unmarked, lock not held *)
  violates "valid_W_inv" "greys-marked-unless-locked" (fun sd ->
      let heap = Gcheap.Heap.set_mark sd.St.s_mem.St.heap 0 (not sd.St.s_mem.St.fM) in
      St.set_wl { sd with St.s_mem = { sd.St.s_mem with St.heap } } mut0 [ 0 ])

let test_valid_w_lock_exemption () =
  (* same state but the owner holds the lock: the exemption applies *)
  let sys =
    with_sys
      (fun sd ->
        let heap = Gcheap.Heap.set_mark sd.St.s_mem.St.heap 0 (not sd.St.s_mem.St.fM) in
        { (St.set_wl { sd with St.s_mem = { sd.St.s_mem with St.heap } } mut0 [ 0 ]) with
          St.s_lock = Some mut0 })
      (base ())
  in
  (* the lock-scope invariant now fails instead (lock held outside a CAS),
     but valid_W_inv itself must accept *)
  check_inv "valid_W_inv" sys true;
  refutes "tso_lock_scope" "lock-only-in-cas" sys

let test_valid_w_both_conjuncts () =
  (* an unmarked grey on mutator 0 and a wrong-sense pending mark on
     mutator 1: both conjuncts fail, and the witnesses list the first
     conjunct's before the second's *)
  let sys =
    with_sys
      (fun sd ->
        let fM = sd.St.s_mem.St.fM in
        let heap = Gcheap.Heap.set_mark sd.St.s_mem.St.heap 0 (not fM) in
        let sd = St.set_wl { sd with St.s_mem = { sd.St.s_mem with St.heap } } mut0 [ 0 ] in
        St.set_buf sd mut1 [ W_mark (0, not fM) ])
      (base ())
  in
  refutes "valid_W_inv" "greys-marked-unless-locked" sys;
  Alcotest.(check (list string))
    "one witness per conjunct, in declared order"
    [ "greys-marked-unless-locked"; "pending-marks-use-fM" ]
    (witnessed_conjuncts "valid_W_inv" sys)

let test_tso_ownership_refutable () =
  violates "tso_ownership" "mutators-write-no-control-vars" (fun sd -> St.set_buf sd mut0 [ W_phase Ph_mark ])

let test_gc_fm_refutable () =
  violates "gc_fM_coherent" "gc-fM-coherent" (fun sd -> { sd with St.s_mem = { sd.St.s_mem with St.fM = true } })

let test_phase_inv_refutable () =
  (* hs_type = nop1 but phase = Mark in memory *)
  violates "sys_phase_inv" "phase-span-nop1" (fun sd ->
      { sd with St.s_hs_type = Hs_nop1; s_mem = { sd.St.s_mem with St.phase = Ph_mark } })

let test_fa_fm_refutable () =
  (* nop4 span with differing senses and no pending write *)
  violates "fA_fM_relation" "fA-fM-span-nop4" (fun sd ->
      { sd with St.s_hs_type = Hs_nop4; s_mem = { sd.St.s_mem with St.fA = true; fM = false } })

let test_no_black_refs_refutable () =
  (* nop2 span, senses differ, and a marked non-grey (= black) object *)
  violates "no_black_refs_init" "no-black-before-fA-commit" (fun sd ->
      let heap = Gcheap.Heap.set_mark sd.St.s_mem.St.heap 0 true in
      { sd with St.s_hs_type = Hs_nop2; s_mem = { sd.St.s_mem with St.heap; fM = true; fA = false } })

let test_idle_uniform_refutable () =
  (* nop1 span with a grey reference *)
  violates "idle_heap_uniform" "idle-grey-free" (fun sd -> St.set_wl { sd with St.s_hs_type = Hs_nop1 } mut0 [ 0 ])

let test_marked_insertions_refutable () =
  (* mutator past nop3 with an unmarked insertion in flight *)
  violates "marked_insertions" "insertions-marked" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap } } in
      let sd = St.set_buf sd mut0 [ W_field (0, 0, Some 1) ] in
      { sd with St.s_hs_mut_hs = List.mapi (fun i h -> if i = 0 then Hs_nop3 else h) sd.St.s_hs_mut_hs })

let test_marked_deletions_refutable () =
  (* black mutator overwrites a field whose current value is white *)
  violates "marked_deletions" "deletions-marked" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
      let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap } } in
      St.set_buf sd mut0 [ W_field (0, 0, None) ])

let test_snapshot_refutable () =
  (* a black mutator reaching an unprotected white *)
  violates "reachable_snapshot_inv" "snapshot-reachable-protected" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
      { sd with St.s_mem = { sd.St.s_mem with St.heap } })

let test_gc_w_empty_refutable () =
  (* active get-work round: completed mutator holds grey work, the waiting
     one does not, and the collector's W is empty *)
  violates "gc_W_empty_mut_inv" "grey-work-accounted" (fun sd ->
      let sd = { sd with St.s_hs_type = Hs_get_work; s_hs_done = [ true; false ] } in
      St.set_wl sd mut0 [ 0 ])

let test_weak_tricolor_refutable () =
  (* black -> white edge with no grey anywhere *)
  violates "weak_tricolor_inv" "black-to-white-protected" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
      { sd with St.s_mem = { sd.St.s_mem with St.heap } })

let test_weak_tricolor_accepts_protected () =
  (* the same white but grey-protected: must pass *)
  let sys =
    with_sys
      (fun sd ->
        let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
        let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
        St.set_wl { sd with St.s_mem = { sd.St.s_mem with St.heap } } mut1 [ 1 ])
      (base ())
  in
  check_inv "weak_tricolor_inv" sys true

let test_strong_tricolor_refutable () =
  (* marking span (nop4, senses equal) with a black -> white edge *)
  violates "strong_tricolor_inv" "no-black-to-white-after-fA-commit" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
      { sd with St.s_hs_type = Hs_nop4; s_mem = { sd.St.s_mem with St.heap } })

let test_free_only_garbage_vacuous_off_label () =
  (* the at-label invariant is vacuously true away from gc:free *)
  check_inv "free_only_garbage" (base ()) true

let test_ablated_guards_disable () =
  (* with the barriers ablated, the barrier invariants go vacuous (their
     guards consult the configuration) *)
  let cfg' = { cfg with Cfg.deletion_barrier = false; insertion_barrier = false } in
  let sys = (Core.Model.make cfg' shape).Core.Model.system in
  List.iter
    (fun name ->
      match Core.Invariants.find cfg' name with
      | Some i -> Alcotest.(check bool) (name ^ " vacuous") true (Core.Invariants.check i sys)
      | None -> Alcotest.fail name)
    [ "marked_insertions"; "marked_deletions"; "reachable_snapshot_inv"; "weak_tricolor_inv" ]

let test_catalogue_metadata () =
  let invs = Core.Invariants.all cfg in
  Alcotest.(check int) "18 invariants" 18 (List.length invs);
  Alcotest.(check int) "3 safety invariants" 3
    (List.length (List.filter (fun i -> i.Core.Invariants.safety) invs));
  (* names unique, docs non-empty *)
  let names = List.map (fun i -> i.Core.Invariants.name) invs in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter (fun i -> Alcotest.(check bool) "doc" true (String.length i.Core.Invariants.doc > 0)) invs

let suite =
  [
    Alcotest.test_case "valid_refs_inv is refutable" `Quick test_valid_refs_refutable;
    Alcotest.test_case "no_dangling is refutable" `Quick test_no_dangling_refutable;
    Alcotest.test_case "worklists_disjoint: overlap" `Quick test_worklists_disjoint_refutable;
    Alcotest.test_case "worklists_disjoint: duplicates" `Quick test_worklists_dup_refutable;
    Alcotest.test_case "valid_W_inv is refutable" `Quick test_valid_w_refutable;
    Alcotest.test_case "valid_W_inv honours the lock exemption" `Quick test_valid_w_lock_exemption;
    Alcotest.test_case "valid_W_inv: both conjuncts, two mutators" `Quick test_valid_w_both_conjuncts;
    Alcotest.test_case "tso_ownership is refutable" `Quick test_tso_ownership_refutable;
    Alcotest.test_case "gc_fM_coherent is refutable" `Quick test_gc_fm_refutable;
    Alcotest.test_case "sys_phase_inv is refutable" `Quick test_phase_inv_refutable;
    Alcotest.test_case "fA_fM_relation is refutable" `Quick test_fa_fm_refutable;
    Alcotest.test_case "no_black_refs_init is refutable" `Quick test_no_black_refs_refutable;
    Alcotest.test_case "idle_heap_uniform is refutable" `Quick test_idle_uniform_refutable;
    Alcotest.test_case "marked_insertions is refutable" `Quick test_marked_insertions_refutable;
    Alcotest.test_case "marked_deletions is refutable" `Quick test_marked_deletions_refutable;
    Alcotest.test_case "reachable_snapshot_inv is refutable" `Quick test_snapshot_refutable;
    Alcotest.test_case "gc_W_empty_mut_inv is refutable" `Quick test_gc_w_empty_refutable;
    Alcotest.test_case "weak_tricolor is refutable" `Quick test_weak_tricolor_refutable;
    Alcotest.test_case "weak_tricolor accepts grey protection" `Quick test_weak_tricolor_accepts_protected;
    Alcotest.test_case "strong_tricolor is refutable" `Quick test_strong_tricolor_refutable;
    Alcotest.test_case "free_only_garbage vacuous off-label" `Quick test_free_only_garbage_vacuous_off_label;
    Alcotest.test_case "ablated guards disable cleanly" `Quick test_ablated_guards_disable;
    Alcotest.test_case "catalogue metadata" `Quick test_catalogue_metadata;
  ]
