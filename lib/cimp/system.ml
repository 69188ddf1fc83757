(* The CIMP system semantics of Fig. 8: flat parallel composition with
   top-level interleaving and rendezvous, no action hiding.

   A global state maps process names to their local states; we index
   processes by small integers and keep display names alongside.  All
   processes share one local data-state type ['s] (as in the Isabelle
   development, where a single record covers the collector, the mutators,
   and the system process). *)

type ('a, 'v, 's) t = {
  names : string array;  (* display names, e.g. "gc", "mut0", "sys" *)
  procs : ('a, 'v, 's) Com.config array;
}

type pid = int

(* What a global step did, for trace reconstruction (Check.Trace). *)
type event =
  | Tau of pid * Label.t
  | Rendezvous of { requester : pid; req_label : Label.t; responder : pid; resp_label : Label.t }

(* The process that initiated an event: the stepping process for a tau,
   the requester for a rendezvous.  The owner is the only process whose
   *program* advances past a choice point — responders are reactive. *)
let event_owner = function
  | Tau (p, _) -> p
  | Rendezvous { requester; _ } -> requester

(* Every process whose configuration a step may change: the stepping
   process for a tau, both parties of a rendezvous.  This is the write
   footprint at the granularity of process configurations, which (with
   per-process data isolation) is what the independence relation of
   partial-order reduction needs. *)
let event_pids = function
  | Tau (p, _) -> [ p ]
  | Rendezvous { requester; responder; _ } -> [ requester; responder ]

let pp_event names ppf = function
  | Tau (p, l) -> Fmt.pf ppf "%s: %s" names.(p) l
  | Rendezvous { requester; req_label; responder; resp_label } ->
    Fmt.pf ppf "%s: %s <-> %s: %s" names.(requester) req_label names.(responder) resp_label

(* Control fingerprints mix label hashes in place of label texts, so two
   distinct labels of one system must not share a hash: refuse to build
   such a system rather than silently merge control states. *)
let make names procs =
  if Array.length names <> Array.length procs then invalid_arg "System.make: length mismatch";
  Label.check_distinct_hashes
    (Array.fold_left
       (fun acc cfg -> List.fold_left (fun acc c -> List.rev_append (Com.labels c) acc) acc cfg.Com.stack)
       [] procs);
  { names; procs }

let n_procs sys = Array.length sys.procs
let proc sys p = sys.procs.(p)
let name sys p = sys.names.(p)

(* Functional update of one or two processes. *)
let set1 sys p cfg =
  let procs = Array.copy sys.procs in
  procs.(p) <- cfg;
  { sys with procs }

let set2 sys p cfg_p q cfg_q =
  let procs = Array.copy sys.procs in
  procs.(p) <- cfg_p;
  procs.(q) <- cfg_q;
  { sys with procs }

(* All successors of a global state, with the event that produced each.

   First rule of Fig. 8: any process takes a tau step.  Second rule:
   a requester p and a distinct responder q synchronise; p's REQUEST
   computes alpha from p's state, q's RESPONSE non-deterministically picks a
   successor state and a value beta, and p's continuation absorbs beta. *)
let steps sys =
  let acc = ref [] in
  let n = n_procs sys in
  for p = n - 1 downto 0 do
    let cfg = sys.procs.(p) in
    List.iter
      (fun (l, cfg') -> acc := (Tau (p, l), set1 sys p cfg') :: !acc)
      (Com.tau_steps cfg);
    List.iter
      (fun (req_label, alpha, k) ->
        for q = 0 to n - 1 do
          if q <> p then
            List.iter
              (fun (resp_label, cfg_q', beta) ->
                let ev = Rendezvous { requester = p; req_label; responder = q; resp_label } in
                acc := (ev, set2 sys p (k beta) q cfg_q') :: !acc)
              (Com.responses alpha sys.procs.(q))
        done)
      (Com.requests cfg)
  done;
  !acc

(* Successors restricted to one scheduled process [p]: p's tau steps and the
   rendezvous in which p is the requester.  Responders are passive, matching
   the intuition that Sys is reactive; used by the random-walk scheduler. *)
let steps_of sys p =
  let acc = ref [] in
  let n = n_procs sys in
  let cfg = sys.procs.(p) in
  List.iter
    (fun (l, cfg') -> acc := (Tau (p, l), set1 sys p cfg') :: !acc)
    (Com.tau_steps cfg);
  List.iter
    (fun (req_label, alpha, k) ->
      for q = 0 to n - 1 do
        if q <> p then
          List.iter
            (fun (resp_label, cfg_q', beta) ->
              let ev = Rendezvous { requester = p; req_label; responder = q; resp_label } in
              acc := (ev, set2 sys p (k beta) q cfg_q') :: !acc)
            (Com.responses alpha sys.procs.(q))
      done)
    (Com.requests cfg);
  !acc

let deadlocked sys = steps sys = []

(* Normal form under definite local steps: run every process's definite tau
   steps to quiescence.  States in normal form never rest at a
   deterministic register/control operation; see Com.definite_tau for the
   soundness argument.  The checker explores normal forms only, which is
   the atomicity coarsening the paper's evaluation-context semantics
   licenses. *)
let normalize sys =
  let procs = Array.copy sys.procs in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to Array.length procs - 1 do
      match Com.definite_tau procs.(p) with
      | Some cfg ->
        procs.(p) <- cfg;
        changed := true
      | None -> ()
    done
  done;
  { sys with procs }

(* The paper's [at p l]: does control of process p reside at label l? *)
let at sys p l = Com.exists_at (Label.equal l) sys.procs.(p)

(* Surgical replacement of one process's data state (testing and
   experiment drivers; the step functions never need it). *)
let map_data sys p f =
  let cfg = sys.procs.(p) in
  set1 sys p { cfg with Com.data = f cfg.Com.data }

