(* Tests for the CIMP core: the small-step rules of Fig. 7, the system
   semantics of Fig. 8, frame-stack normalisation, label discipline, and
   the definite-tau normal form. *)

open Cimp

(* A tiny instantiation: messages and replies are ints, local state is an
   int. *)
type com = (int, int, int) Com.t

let mkcfg (c : com) data = Com.make [ c ] data

let tau_targets cfg = List.map snd (Com.tau_steps cfg)
let datas cfgs = List.map (fun (c : (int, int, int) Com.config) -> c.Com.data) cfgs

let test_skip () =
  let cfg = mkcfg (Com.Skip "a") 7 in
  match Com.tau_steps cfg with
  | [ ("a", cfg') ] ->
    Alcotest.(check bool) "terminated" true (Com.terminated cfg');
    Alcotest.(check int) "data unchanged" 7 cfg'.Com.data
  | _ -> Alcotest.fail "skip must have exactly one tau step"

let test_local_op_nondet () =
  let c : com = Com.Local_op ("a", fun s -> [ s + 1; s + 2; s + 3 ]) in
  let cfg = mkcfg c 0 in
  Alcotest.(check (list int)) "three successors" [ 1; 2; 3 ] (datas (tau_targets cfg))

let test_local_op_blocked () =
  let c : com = Com.Local_op ("a", fun _ -> []) in
  Alcotest.(check int) "no successors" 0 (List.length (Com.tau_steps (mkcfg c 0)))

let test_seq_normalisation () =
  (* Fig. 7's frame-stack rule: (c1 ;; c2) . cs steps as c1 . c2 . cs. *)
  let c = Com.seq [ Com.Skip "a"; Com.Skip "b"; Com.Skip "c" ] in
  let cfg = mkcfg c 0 in
  Alcotest.(check (list string)) "label spine" [ "a"; "b"; "c" ] (Com.stack_labels cfg.Com.stack);
  match Com.tau_steps cfg with
  | [ ("a", cfg') ] ->
    Alcotest.(check (list string)) "after one step" [ "b"; "c" ] (Com.stack_labels cfg'.Com.stack)
  | _ -> Alcotest.fail "expected one step"

let test_if_branches () =
  let c : com = Com.If ("i", (fun s -> s > 0), Com.Skip "t", Com.Skip "f") in
  let head cfg = List.hd (Com.stack_labels cfg.Com.stack) in
  (match Com.tau_steps (mkcfg c 1) with
  | [ ("i", cfg') ] -> Alcotest.(check string) "then" "t" (head cfg')
  | _ -> Alcotest.fail "if must step");
  match Com.tau_steps (mkcfg c 0) with
  | [ ("i", cfg') ] -> Alcotest.(check string) "else" "f" (head cfg')
  | _ -> Alcotest.fail "if must step"

let test_while_unfolds () =
  let c : com = Com.While ("w", (fun s -> s < 2), Com.Local_op ("inc", fun s -> [ s + 1 ])) in
  let rec drive cfg n =
    if n > 20 then Alcotest.fail "while did not terminate"
    else if Com.terminated cfg then cfg.Com.data
    else
      match Com.tau_steps cfg with
      | [ (_, cfg') ] -> drive cfg' (n + 1)
      | _ -> Alcotest.fail "deterministic loop expected"
  in
  Alcotest.(check int) "loop counts to 2" 2 (drive (mkcfg c 0) 0)

let test_choose_external () =
  (* External choice offers the union of its branches' actions and commits
     only when a branch acts. *)
  let c : com =
    Com.Choose
      [ Com.Local_op ("a", fun s -> [ s + 10 ]); Com.Local_op ("b", fun s -> [ s + 20 ]) ]
  in
  let steps = Com.tau_steps (mkcfg c 0) in
  Alcotest.(check int) "two offers" 2 (List.length steps);
  Alcotest.(check (list int)) "both branches" [ 10; 20 ] (List.sort compare (datas (List.map snd steps)))

let test_choose_blocked_branch () =
  let c : com =
    Com.Choose [ Com.Local_op ("a", fun _ -> []); Com.Local_op ("b", fun s -> [ s + 1 ]) ]
  in
  Alcotest.(check int) "only enabled branch offers" 1 (List.length (Com.tau_steps (mkcfg c 0)))

let test_loop_transparent () =
  (* Loop unfolds without consuming a step: the first step comes from the
     body. *)
  let c : com = Com.Loop (Com.Local_op ("body", fun s -> [ s + 1 ])) in
  match Com.tau_steps (mkcfg c 0) with
  | [ ("body", cfg') ] ->
    Alcotest.(check int) "body ran" 1 cfg'.Com.data;
    (* and the loop restores itself as the continuation *)
    (match Com.tau_steps cfg' with
    | [ ("body", cfg'') ] -> Alcotest.(check int) "second iteration" 2 cfg''.Com.data
    | _ -> Alcotest.fail "loop must offer the body again")
  | _ -> Alcotest.fail "loop must step via its body"

let test_labels_and_duplicates () =
  let c = Com.seq [ Com.Skip "a"; Com.Skip "b"; Com.Skip "a" ] in
  Alcotest.(check (list string)) "dup found" [ "a" ] (Com.duplicate_labels c);
  let c' = Com.seq [ Com.Skip "a"; Com.Skip "b" ] in
  Alcotest.(check (list string)) "no dups" [] (Com.duplicate_labels c')

let test_at_labels_choose () =
  let c : com =
    Com.Choose [ Com.Skip "a"; Com.If ("i", (fun _ -> true), Com.Skip "t", Com.Skip "f") ]
  in
  Alcotest.(check (list string)) "all branch heads" [ "a"; "i" ] (Com.at_labels (mkcfg c 0))

(* -- Rendezvous (Fig. 7 last two rules; Fig. 8 second rule) ---------------- *)

let requester : com =
  Com.Request ("req", (fun s -> s * 2), fun v s -> s + v)

let responder : com =
  Com.Response ("resp", fun alpha s -> [ (s + alpha, alpha + 1) ])

let test_request_offer () =
  match Com.requests (mkcfg requester 21) with
  | [ ("req", alpha, k) ] ->
    Alcotest.(check int) "alpha from state" 42 alpha;
    let cfg' = k 5 in
    Alcotest.(check int) "reply applied" 26 cfg'.Com.data
  | _ -> Alcotest.fail "one request offer expected"

let test_response_offer () =
  match Com.responses 42 (mkcfg responder 1) with
  | [ ("resp", cfg', beta) ] ->
    Alcotest.(check int) "responder state" 43 cfg'.Com.data;
    Alcotest.(check int) "beta" 43 beta
  | _ -> Alcotest.fail "one response offer expected"

let test_system_rendezvous () =
  let sys = System.make [| "p"; "q" |] [| mkcfg requester 21; mkcfg responder 1 |] in
  match System.steps sys with
  | [ (System.Rendezvous { requester = 0; responder = 1; _ }, sys') ] ->
    (* p sent alpha = 42; q replied beta = 43; p adds it. *)
    Alcotest.(check int) "p after" (21 + 43) (System.proc sys' 0).Com.data;
    Alcotest.(check int) "q after" (1 + 42) (System.proc sys' 1).Com.data
  | l -> Alcotest.fail (Printf.sprintf "expected one rendezvous, got %d steps" (List.length l))

let test_system_no_self_rendezvous () =
  let both = Com.Choose [ requester; responder ] in
  let sys = System.make [| "p" |] [| mkcfg both 0 |] in
  Alcotest.(check int) "a process cannot rendezvous with itself" 0 (List.length (System.steps sys))

let test_system_interleaving_union () =
  (* First rule of Fig. 8: the system's tau steps are the union over
     processes. *)
  let p : com = Com.Local_op ("p", fun s -> [ s + 1 ]) in
  let q : com = Com.Local_op ("q", fun s -> [ s + 1; s + 2 ]) in
  let sys = System.make [| "p"; "q" |] [| mkcfg p 0; mkcfg q 0 |] in
  Alcotest.(check int) "1 + 2 interleavings" 3 (List.length (System.steps sys))

let test_rendezvous_preserves_third_party () =
  let bystander : com = Com.Skip "by" in
  let sys =
    System.make [| "p"; "q"; "r" |] [| mkcfg requester 21; mkcfg responder 1; mkcfg bystander 99 |]
  in
  let rendezvous =
    List.filter (function System.Rendezvous _, _ -> true | _ -> false) (System.steps sys)
  in
  List.iter
    (fun (_, sys') -> Alcotest.(check int) "bystander untouched" 99 (System.proc sys' 2).Com.data)
    rendezvous;
  Alcotest.(check int) "one rendezvous" 1 (List.length rendezvous)

(* -- Definite-tau normal form --------------------------------------------- *)

let test_definite_tau_chain () =
  let c = Com.seq [ Com.Skip "a"; Com.Local_op ("b", fun s -> [ s + 1 ]); Com.Skip "c" ] in
  let sys = System.make [| "p" |] [| mkcfg c 0 |] in
  let sys' = System.normalize sys in
  Alcotest.(check bool) "fully collapsed" true (Com.terminated (System.proc sys' 0));
  Alcotest.(check int) "effects applied" 1 (System.proc sys' 0).Com.data

let test_definite_tau_stops_at_choose () =
  let c = Com.seq [ Com.Skip "a"; Com.Choose [ Com.Skip "x"; Com.Skip "y" ] ] in
  let sys = System.normalize (System.make [| "p" |] [| mkcfg c 0 |]) in
  Alcotest.(check (list string)) "choice not committed" [ "x"; "y" ]
    (Com.at_labels (System.proc sys 0))

let test_definite_tau_stops_at_nondet () =
  let c : com = Com.Local_op ("n", fun s -> [ s + 1; s + 2 ]) in
  let sys = System.normalize (System.make [| "p" |] [| mkcfg c 0 |]) in
  Alcotest.(check int) "nondet op retained" 0 (System.proc sys 0).Com.data

let test_definite_tau_stops_at_request () =
  let c = Com.seq [ Com.Skip "a"; requester ] in
  let sys = System.normalize (System.make [| "p" |] [| mkcfg c 5 |]) in
  Alcotest.(check (list string)) "parked at the request" [ "req" ]
    (Com.at_labels (System.proc sys 0))

let test_control_fingerprint_distinguishes () =
  let c = Com.seq [ Com.Skip "a"; Com.Skip "b" ] in
  let sys0 = System.make [| "p" |] [| mkcfg c 0 |] in
  let sys1 =
    match System.steps sys0 with [ (_, s) ] -> s | _ -> Alcotest.fail "one step"
  in
  Alcotest.(check bool) "fingerprints differ" false
    (Check.Fingerprint.control (System.proc sys0 0).Com.stack
    = Check.Fingerprint.control (System.proc sys1 0).Com.stack)

(* Control fingerprints mix label hashes, so a system whose distinct
   labels share a hash is refused by name. *)
let test_label_hash_collisions () =
  Label.check_distinct_hashes [ "a"; "b"; "a"; "mut:hs-read"; "mut:hs-done" ];
  Alcotest.check_raises "same-length labels collide under a length hash"
    (Label.Hash_collision ("ab", "cd"))
    (fun () -> Label.check_distinct_hashes ~hash:String.length [ "ab"; "ab"; "cd" ])

let suite =
  [
    Alcotest.test_case "skip steps once" `Quick test_skip;
    Alcotest.test_case "local op is data-nondeterministic" `Quick test_local_op_nondet;
    Alcotest.test_case "empty local op blocks" `Quick test_local_op_blocked;
    Alcotest.test_case "seq decomposes via the frame stack" `Quick test_seq_normalisation;
    Alcotest.test_case "if takes one step per branch" `Quick test_if_branches;
    Alcotest.test_case "while iterates and exits" `Quick test_while_unfolds;
    Alcotest.test_case "choose is external choice" `Quick test_choose_external;
    Alcotest.test_case "choose skips blocked branches" `Quick test_choose_blocked_branch;
    Alcotest.test_case "loop unfolds transparently" `Quick test_loop_transparent;
    Alcotest.test_case "duplicate labels are caught" `Quick test_labels_and_duplicates;
    Alcotest.test_case "at_labels sees all choice heads" `Quick test_at_labels_choose;
    Alcotest.test_case "request computes alpha, applies beta" `Quick test_request_offer;
    Alcotest.test_case "response consumes alpha, returns beta" `Quick test_response_offer;
    Alcotest.test_case "system rendezvous (Fig. 8)" `Quick test_system_rendezvous;
    Alcotest.test_case "no self-rendezvous" `Quick test_system_no_self_rendezvous;
    Alcotest.test_case "interleaving is the union of process steps" `Quick test_system_interleaving_union;
    Alcotest.test_case "rendezvous preserves bystanders" `Quick test_rendezvous_preserves_third_party;
    Alcotest.test_case "normalize collapses definite taus" `Quick test_definite_tau_chain;
    Alcotest.test_case "normalize never commits a choice" `Quick test_definite_tau_stops_at_choose;
    Alcotest.test_case "normalize keeps data nondeterminism" `Quick test_definite_tau_stops_at_nondet;
    Alcotest.test_case "normalize parks at communications" `Quick test_definite_tau_stops_at_request;
    Alcotest.test_case "control fingerprints track progress" `Quick test_control_fingerprint_distinguishes;
    Alcotest.test_case "label hash collisions are refused" `Quick test_label_hash_collisions;
  ]
