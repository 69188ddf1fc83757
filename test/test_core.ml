(* Unit tests for the collector model's building blocks: the Sys process's
   responses (TSO reads/writes, fences, the lock, allocation, work-lists,
   handshake ghosts), the colour interpretation, and model assembly across
   every variant. *)

open Core.Types
module St = Core.State
module Cfg = Core.Config

let cfg = { Cfg.default with n_muts = 2; n_refs = 3; n_fields = 1 }

let shape = Gcheap.Shapes.single ~n_refs:3 ~n_fields:1

let sd0 () = Core.Model.initial_sys_data cfg shape

let sys_of sd = St.L_sys sd

(* Run one response and project the new sys data and value. *)
let respond sd req ~from =
  match Core.Sysproc.respond cfg (from, req) (sys_of sd) with
  | [ (St.L_sys sd', v) ] -> (sd', v)
  | [] -> Alcotest.fail "request unexpectedly blocked"
  | _ -> Alcotest.fail "expected a single deterministic response"

let blocked sd req ~from = Core.Sysproc.respond cfg (from, req) (sys_of sd) = []

let gc = Cfg.pid_gc
let mut0 = Cfg.pid_mut cfg 0
let mut1 = Cfg.pid_mut cfg 1

(* -- TSO reads and writes -------------------------------------------------- *)

let test_write_buffers_then_commits () =
  let sd, _ = respond (sd0 ()) (Req_write (W_mark (0, true))) ~from:mut0 in
  Alcotest.(check int) "buffered" 1 (List.length (St.buf_of sd mut0));
  Alcotest.(check (option bool)) "memory stale" (Some false) (Gcheap.Heap.mark sd.St.s_mem.St.heap 0);
  match Core.Sysproc.dequeue cfg (sys_of sd) with
  | [ St.L_sys sd' ] ->
    Alcotest.(check (option bool)) "committed" (Some true) (Gcheap.Heap.mark sd'.St.s_mem.St.heap 0);
    Alcotest.(check int) "drained" 0 (List.length (St.buf_of sd' mut0))
  | _ -> Alcotest.fail "one dequeue expected"

let test_read_forwards_own_buffer () =
  let sd, _ = respond (sd0 ()) (Req_write (W_mark (0, true))) ~from:mut0 in
  let _, v = respond sd (Req_read (L_mark 0)) ~from:mut0 in
  Alcotest.(check bool) "own buffered value" true (v = V_bool true);
  let _, v' = respond sd (Req_read (L_mark 0)) ~from:mut1 in
  Alcotest.(check bool) "other thread reads memory" true (v' = V_bool false)

let test_buffer_bound_blocks () =
  let sd, _ = respond (sd0 ()) (Req_write (W_mark (0, true))) ~from:mut0 in
  (* default bound in this cfg is 2 *)
  let sd, _ = respond sd (Req_write (W_mark (1, true))) ~from:mut0 in
  Alcotest.(check bool) "third write blocks" true
    (blocked sd (Req_write (W_mark (2, true))) ~from:mut0)

let test_mfence_requires_empty_buffer () =
  let sd = sd0 () in
  let sd', _ = respond sd (Req_write (W_fA true)) ~from:gc in
  Alcotest.(check bool) "fence blocked" true (blocked sd' Req_mfence ~from:gc);
  Alcotest.(check bool) "fence passes when empty" false (blocked sd Req_mfence ~from:gc)

let test_lock_protocol () =
  let sd, _ = respond (sd0 ()) Req_lock ~from:mut0 in
  Alcotest.(check (option int)) "held" (Some mut0) sd.St.s_lock;
  Alcotest.(check bool) "relock blocked" true (blocked sd Req_lock ~from:mut1);
  Alcotest.(check bool) "reads of others blocked" true (blocked sd (Req_read L_fA) ~from:mut1);
  Alcotest.(check bool) "holder reads fine" false (blocked sd (Req_read L_fA) ~from:mut0);
  (* unlock with pending write is blocked; drain first *)
  let sd, _ = respond sd (Req_write (W_mark (0, true))) ~from:mut0 in
  Alcotest.(check bool) "unlock needs empty buffer" true (blocked sd Req_unlock ~from:mut0);
  let sd = match Core.Sysproc.dequeue cfg (sys_of sd) with [ St.L_sys s ] -> s | _ -> Alcotest.fail "?" in
  let sd, _ = respond sd Req_unlock ~from:mut0 in
  Alcotest.(check (option int)) "released" None sd.St.s_lock

let test_lock_blocks_other_commits () =
  let sd, _ = respond (sd0 ()) (Req_write (W_mark (0, true))) ~from:mut1 in
  let sd, _ = respond sd Req_lock ~from:mut0 in
  Alcotest.(check int) "mut1's commit blocked while mut0 holds the lock" 0
    (List.length (Core.Sysproc.dequeue cfg (sys_of sd)))

let test_sc_memory_commits_at_once () =
  let cfg_sc = { cfg with Cfg.sc_memory = true } in
  match Core.Sysproc.respond cfg_sc (mut0, Req_write (W_mark (0, true))) (sys_of (sd0 ())) with
  | [ (St.L_sys sd', V_unit) ] ->
    Alcotest.(check (option bool)) "visible" (Some true) (Gcheap.Heap.mark sd'.St.s_mem.St.heap 0);
    Alcotest.(check int) "no buffering" 0 (List.length (St.buf_of sd' mut0))
  | _ -> Alcotest.fail "single response expected"

let test_dangling_access_flagged () =
  let sd, v = respond (sd0 ()) (Req_read (L_mark 2)) ~from:mut0 in
  Alcotest.(check bool) "default value" true (v = V_bool false);
  Alcotest.(check bool) "dangling recorded" true sd.St.s_dangling

(* -- Allocation and free ---------------------------------------------------- *)

let test_alloc_nondet_over_free_refs () =
  let sd = sd0 () in
  let succs = Core.Sysproc.respond cfg (mut0, Req_alloc true) (sys_of sd) in
  (* refs 1 and 2 are free in the "single" shape *)
  Alcotest.(check int) "one successor per free ref" 2 (List.length succs);
  List.iter
    (fun (s, v) ->
      match (s, v) with
      | St.L_sys sd', V_ref (Some r) ->
        Alcotest.(check bool) "installed" true (Gcheap.Heap.valid_ref sd'.St.s_mem.St.heap r);
        Alcotest.(check (option bool)) "mark" (Some true) (Gcheap.Heap.mark sd'.St.s_mem.St.heap r)
      | _ -> Alcotest.fail "alloc shape")
    succs

let test_alloc_full_heap_returns_null () =
  let sd = sd0 () in
  let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap = (Gcheap.Shapes.chain ~n_refs:3 ~n_fields:1 3).Gcheap.Shapes.heap } } in
  let _, v = respond sd (Req_alloc false) ~from:mut0 in
  Alcotest.(check bool) "NULL on exhaustion" true (v = V_ref None)

let test_free_removes () =
  let sd, _ = respond (sd0 ()) (Req_free 0) ~from:gc in
  Alcotest.(check bool) "gone" false (Gcheap.Heap.valid_ref sd.St.s_mem.St.heap 0)

(* -- Work-lists and ghost honorary grey ------------------------------------- *)

let test_wl_add_dedup_and_ghg_clear () =
  let sd = St.set_ghg (sd0 ()) mut0 (Some 0) in
  let sd, _ = respond sd (Req_wl_add 0) ~from:mut0 in
  let sd, _ = respond sd (Req_wl_add 0) ~from:mut0 in
  Alcotest.(check (list int)) "deduplicated" [ 0 ] (St.wl_of sd mut0);
  Alcotest.(check (option int)) "ghg retired" None (St.ghg_of sd mut0)

let test_wl_transfer_is_atomic_union () =
  let sd = St.set_wl (St.set_wl (sd0 ()) mut0 [ 1; 2 ]) gc [ 0 ] in
  let sd, _ = respond sd Req_wl_transfer ~from:mut0 in
  Alcotest.(check (list int)) "collector union" [ 0; 1; 2 ] (St.wl_of sd gc);
  Alcotest.(check (list int)) "mutator emptied" [] (St.wl_of sd mut0)

let test_wl_pick_nondet_no_removal () =
  let sd = St.set_wl (sd0 ()) gc [ 1; 2 ] in
  let succs = Core.Sysproc.respond cfg (gc, Req_wl_pick) (sys_of sd) in
  Alcotest.(check int) "one pick per grey" 2 (List.length succs);
  List.iter
    (fun (s, _) ->
      match s with
      | St.L_sys sd' -> Alcotest.(check (list int)) "no removal" [ 1; 2 ] (St.wl_of sd' gc)
      | _ -> Alcotest.fail "sys state expected")
    succs;
  let _, v = respond (St.set_wl (sd0 ()) gc []) Req_wl_pick ~from:gc in
  Alcotest.(check bool) "empty pick is None" true (v = V_ref None)

let test_wl_remove_blackens () =
  let sd = St.set_wl (sd0 ()) gc [ 1; 2 ] in
  let sd, _ = respond sd (Req_wl_remove 1) ~from:gc in
  Alcotest.(check (list int)) "removed" [ 2 ] (St.wl_of sd gc)

let test_write_ghg_atomic () =
  let sd, _ = respond (sd0 ()) (Req_write_ghg (W_mark (0, true), 0)) ~from:mut0 in
  Alcotest.(check (option int)) "ghg set with the store" (Some 0) (St.ghg_of sd mut0);
  Alcotest.(check int) "store buffered" 1 (List.length (St.buf_of sd mut0))

(* -- Handshake ghost structure ---------------------------------------------- *)

let test_handshake_ghosts () =
  let sd = sd0 () in
  Alcotest.(check bool) "initially done" true (St.hs_done sd 0 && St.hs_done sd 1);
  let sd, _ = respond sd (Req_hs_begin Hs_nop1) ~from:gc in
  Alcotest.(check bool) "begin clears done" false (St.hs_done sd 0 || St.hs_done sd 1);
  let sd, _ = respond sd (Req_hs_set 0) ~from:gc in
  Alcotest.(check bool) "bit up" true (St.hs_bit sd 0);
  let _, v = respond sd Req_hs_poll ~from:gc in
  Alcotest.(check bool) "poll sees pending" true (v = V_bool true);
  let _, v = respond sd Req_hs_read ~from:mut0 in
  Alcotest.(check bool) "mutator reads type+bit" true (v = V_hs (Hs_nop1, true));
  let sd, _ = respond sd Req_hs_done ~from:mut0 in
  Alcotest.(check bool) "bit down" false (St.hs_bit sd 0);
  Alcotest.(check bool) "done recorded" true (St.hs_done sd 0);
  Alcotest.(check bool) "mut0 now in hp_Idle" true (St.mut_hp sd 0 = Hp_idle);
  Alcotest.(check bool) "mut1 still pre-round" true (St.mut_hp sd 1 = Hp_idle_mark_sweep);
  let sd, _ = respond sd (Req_hs_set 1) ~from:gc in
  let sd, _ = respond sd Req_hs_done ~from:mut1 in
  let _, v = respond sd Req_hs_poll ~from:gc in
  Alcotest.(check bool) "poll clear after both" true (v = V_bool false)

let test_mut_black_transitions () =
  let sd = sd0 () in
  Alcotest.(check bool) "initially black (pre-cycle)" true (St.mut_black sd 0);
  let sd, _ = respond sd (Req_hs_begin Hs_nop1) ~from:gc in
  let sd, _ = respond sd (Req_hs_set 0) ~from:gc in
  let sd, _ = respond sd Req_hs_done ~from:mut0 in
  Alcotest.(check bool) "white after idle sync" false (St.mut_black sd 0);
  let sd, _ = respond sd (Req_hs_begin Hs_get_roots) ~from:gc in
  let sd, _ = respond sd (Req_hs_set 0) ~from:gc in
  Alcotest.(check bool) "still white mid-round" false (St.mut_black sd 0);
  let sd, _ = respond sd Req_hs_done ~from:mut0 in
  Alcotest.(check bool) "black after roots sampled" true (St.mut_black sd 0)

(* -- Colours ----------------------------------------------------------------- *)

let test_colour_interpretation () =
  let sd = sd0 () in
  (* object 0 exists with mark=false, fM=false: marked, not grey => black *)
  Alcotest.(check bool) "black" true (Core.Color.is_black cfg sd 0);
  let sd = St.set_wl sd mut0 [ 0 ] in
  Alcotest.(check bool) "greyed by the work-list" true (Core.Color.is_grey cfg sd 0);
  Alcotest.(check bool) "no longer black" false (Core.Color.is_black cfg sd 0);
  (* flip the sense: 0 becomes white while still grey — the CAS window *)
  let sd = { sd with St.s_mem = { sd.St.s_mem with St.fM = true } } in
  Alcotest.(check bool) "white" true (Core.Color.is_white sd 0);
  Alcotest.(check bool) "white and grey overlap" true (Core.Color.is_grey cfg sd 0)

let test_ghg_counts_as_grey () =
  let sd = St.set_ghg (sd0 ()) mut1 (Some 0) in
  Alcotest.(check bool) "honorary grey" true (Core.Color.is_grey cfg sd 0);
  Alcotest.(check (list int)) "in the grey set" [ 0 ] (Core.Color.greys cfg sd)

let test_grey_protection_in_colours () =
  (* heap: grey 0 -> white 1; white 2 unprotected *)
  let heap = (Gcheap.Shapes.chain ~n_refs:3 ~n_fields:1 2).Gcheap.Shapes.heap in
  let heap = Gcheap.Heap.alloc heap 2 ~mark:false in
  let heap = Gcheap.Heap.set_mark heap 0 true in
  let sd = sd0 () in
  let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap; St.fM = true } } in
  let sd = St.set_wl sd gc [ 0 ] in
  Alcotest.(check bool) "1 protected" true (Core.Color.is_grey_protected cfg sd 1);
  Alcotest.(check bool) "2 not protected" false (Core.Color.is_grey_protected cfg sd 2)

(* -- Buffered insertions/deletions ------------------------------------------ *)

let test_buffered_deletions_with_overrides () =
  (* heap: 0.f0 = 1 committed.  Buffer: write 0.f0 := 2 then 0.f0 := NULL.
     Deletions: 1 (overwritten by the first write) and 2 (overwritten by
     the second, after the first's effect). *)
  let heap = (Gcheap.Shapes.single ~n_refs:3 ~n_fields:1).Gcheap.Shapes.heap in
  let heap = Gcheap.Heap.alloc (Gcheap.Heap.alloc heap 1 ~mark:false) 2 ~mark:false in
  let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
  let sd = sd0 () in
  let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap } } in
  let sd = St.set_buf sd mut0 [ W_field (0, 0, Some 2); W_field (0, 0, None) ] in
  Alcotest.(check (list int)) "both deletions seen" [ 1; 2 ]
    (Core.Invariants.buffered_deletions sd mut0);
  Alcotest.(check (list int)) "insertion seen" [ 2 ] (Core.Invariants.buffered_insertions sd mut0)

(* -- Model assembly ----------------------------------------------------------- *)

let test_model_builds_for_all_variants () =
  List.iter
    (fun (v : Core.Variants.t) ->
      let c = v.Core.Variants.tweak { cfg with Cfg.n_muts = 2 } in
      let m = Core.Model.make c shape in
      Alcotest.(check int)
        (v.Core.Variants.name ^ " process count")
        4
        (Cimp.System.n_procs m.Core.Model.system))
    Core.Variants.all

let test_initial_invariants_hold_on_all_shapes () =
  List.iter
    (fun (s : Gcheap.Shapes.t) ->
      let c = { cfg with Cfg.n_refs = 4 } in
      let m = Core.Model.make c s in
      List.iter
        (fun (i : Core.Invariants.t) ->
          Alcotest.(check bool)
            (s.Gcheap.Shapes.name ^ " / " ^ i.Core.Invariants.name)
            true
            (Core.Invariants.check i m.Core.Model.system))
        (Core.Invariants.all c))
    (Gcheap.Shapes.all ~n_refs:4 ~n_fields:1)

let test_dangling_root_caught () =
  (* a shape whose mutator roots point at nothing must violate safety *)
  let s = Gcheap.Shapes.empty ~n_refs:3 ~n_fields:1 in
  let s = { s with Gcheap.Shapes.roots = [ [ 1 ] ] } in
  let m = Core.Model.make { cfg with Cfg.n_muts = 1 } s in
  let v = Core.Invariants.valid_refs_inv { cfg with Cfg.n_muts = 1 } in
  Alcotest.(check bool) "violation detected" false (Core.Invariants.check v m.Core.Model.system)

let test_hp_mapping () =
  Alcotest.(check bool) "nop1 -> Idle" true (hp_of_hs Hs_nop1 = Hp_idle);
  Alcotest.(check bool) "nop2 -> IdleInit" true (hp_of_hs Hs_nop2 = Hp_idle_init);
  Alcotest.(check bool) "nop3 -> InitMark" true (hp_of_hs Hs_nop3 = Hp_init_mark);
  Alcotest.(check bool) "roots -> IdleMarkSweep" true (hp_of_hs Hs_get_roots = Hp_idle_mark_sweep);
  (* pred walks the cycle of Fig. 3 backwards *)
  Alcotest.(check bool) "pred nop1 = get-work (cycle wrap)" true (hs_pred Hs_nop1 = Hs_get_work);
  Alcotest.(check bool) "pred nop2 = nop1" true (hs_pred Hs_nop2 = Hs_nop1);
  Alcotest.(check bool) "pred nop3 = nop2" true (hs_pred Hs_nop3 = Hs_nop2);
  Alcotest.(check bool) "pred nop4 = nop3" true (hs_pred Hs_nop4 = Hs_nop3);
  Alcotest.(check bool) "pred roots = nop4" true (hs_pred Hs_get_roots = Hs_nop4)

let suite =
  [
    Alcotest.test_case "writes buffer then commit" `Quick test_write_buffers_then_commits;
    Alcotest.test_case "reads forward from the own buffer" `Quick test_read_forwards_own_buffer;
    Alcotest.test_case "bounded buffers block" `Quick test_buffer_bound_blocks;
    Alcotest.test_case "mfence waits for the buffer" `Quick test_mfence_requires_empty_buffer;
    Alcotest.test_case "lock protocol (Fig. 9)" `Quick test_lock_protocol;
    Alcotest.test_case "lock blocks other commits" `Quick test_lock_blocks_other_commits;
    Alcotest.test_case "SC ablation commits at once" `Quick test_sc_memory_commits_at_once;
    Alcotest.test_case "dangling access is flagged" `Quick test_dangling_access_flagged;
    Alcotest.test_case "allocation is nondeterministic over free refs" `Quick test_alloc_nondet_over_free_refs;
    Alcotest.test_case "allocation returns NULL when full" `Quick test_alloc_full_heap_returns_null;
    Alcotest.test_case "free removes from the domain" `Quick test_free_removes;
    Alcotest.test_case "wl-add dedups and retires the ghg" `Quick test_wl_add_dedup_and_ghg_clear;
    Alcotest.test_case "wl-transfer is an atomic union" `Quick test_wl_transfer_is_atomic_union;
    Alcotest.test_case "wl-pick is nondeterministic, no removal" `Quick test_wl_pick_nondet_no_removal;
    Alcotest.test_case "wl-remove blackens" `Quick test_wl_remove_blackens;
    Alcotest.test_case "the marking store sets ghg atomically" `Quick test_write_ghg_atomic;
    Alcotest.test_case "handshake bits and ghosts" `Quick test_handshake_ghosts;
    Alcotest.test_case "mutators blacken at get-roots" `Quick test_mut_black_transitions;
    Alcotest.test_case "colour interpretation incl. overlap" `Quick test_colour_interpretation;
    Alcotest.test_case "honorary greys are grey" `Quick test_ghg_counts_as_grey;
    Alcotest.test_case "grey protection" `Quick test_grey_protection_in_colours;
    Alcotest.test_case "buffered deletions respect FIFO overrides" `Quick test_buffered_deletions_with_overrides;
    Alcotest.test_case "every variant assembles" `Quick test_model_builds_for_all_variants;
    Alcotest.test_case "initial states satisfy the catalogue" `Quick test_initial_invariants_hold_on_all_shapes;
    Alcotest.test_case "dangling roots violate valid_refs_inv" `Quick test_dangling_root_caught;
    Alcotest.test_case "handshake-phase mapping" `Quick test_hp_mapping;
  ]
