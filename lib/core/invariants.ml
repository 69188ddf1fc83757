(* Executable renditions of the paper's invariant catalogue (Sections 2.1
   and 3.2).  Each invariant is a conjunction over a global CIMP state; the
   checker evaluates all of them at every reachable state, replacing the
   Isabelle induction with exhaustive evaluation on bounded instances.

   The first three are the *safety* properties (the headline theorem and
   its direct operational manifestations); the rest are the auxiliary
   invariants the proof composes, each guarded exactly as the paper guards
   them (by handshake phase, by pending-write status, etc.).  Guards that
   only hold for the unablated algorithm consult the configuration: e.g.
   the phase-protocol invariants presume the handshake fences.

   Every conjunct is stated once, as a [conjunct] value: its name, a
   one-line statement, and its failure condition, which returns the
   offending witnesses (which references and processes, and a one-sentence
   account) and [[]] when the conjunct holds.  A failure condition formats
   its detail sentence only on the failing branch.  The rest is read off
   those values: [check], the checker's hot path, stops at the first
   failing conjunct; [witness] concatenates every conjunct's witnesses in
   declared order; and the names and statements are the conjunct catalogue
   of docs/INVARIANTS.md and the campaign kill-matrix. *)

open Types
open State

type witness = {
  conjunct : string;  (* the failing conjunct of the invariant *)
  refs : rf list;  (* heap references witnessing the failure *)
  pids : int list;  (* processes involved *)
  detail : string;  (* one sentence naming the witness *)
}

type conjunct = {
  label : string;  (* the name every witness of this conjunct carries *)
  statement : string;  (* one-line informal statement *)
  fails : Model.sys -> witness list;  (* [[]] exactly when the conjunct holds *)
}

type t = {
  name : string;
  doc : string;
  safety : bool;  (* part of the headline safety statement? *)
  paper : string;  (* the paper's name/section for this invariant *)
  conjuncts : conjunct list;
}

let rec holds sys = function
  | [] -> true
  | c :: cs -> ( match c.fails sys with [] -> holds sys cs | _ :: _ -> false)

let check inv sys = holds sys inv.conjuncts
let witness inv sys = List.concat_map (fun c -> c.fails sys) inv.conjuncts

let witness_to_json wit =
  Obs.Json.Obj
    [
      ("conjunct", Obs.Json.String wit.conjunct);
      ("refs", Obs.Json.List (List.map (fun r -> Obs.Json.Int r) wit.refs));
      ("pids", Obs.Json.List (List.map (fun p -> Obs.Json.Int p) wit.pids));
      ("detail", Obs.Json.String wit.detail);
    ]

let pp_witness ppf wit =
  Fmt.pf ppf "@[<h>[%s]%a%a %s@]" wit.conjunct
    (fun ppf -> function [] -> () | rs -> Fmt.pf ppf " refs=%a" Fmt.(Dump.list int) rs)
    wit.refs
    (fun ppf -> function [] -> () | ps -> Fmt.pf ppf " pids=%a" Fmt.(Dump.list int) ps)
    wit.pids wit.detail

(* The witness builder [conjunct] hands a failure condition: it stamps
   the conjunct's name on every witness, so no witness restates it. *)
type mk = ?refs:rf list -> ?pids:int list -> string -> witness

let conjunct label statement (fails : mk -> Model.sys -> witness list) =
  let w ?(refs = []) ?(pids = []) detail = { conjunct = label; refs; pids; detail } in
  { label; statement; fails = fails w }

let invariant ~name ~doc ~safety ~paper conjuncts = { name; doc; safety; paper; conjuncts }

(* [mk x] for every [x] of [xs] that is not [ok]. *)
let violators ok mk xs = List.filter_map (fun x -> if ok x then None else Some (mk x)) xs

(* A conjunct of a handshake-indexed invariant, named [prefix-<hs>]: it
   constrains only the states whose current handshake type is [hs], and
   only under the handshake fences. *)
let span_conjunct cfg prefix hs statement (fails : mk -> sys_data -> witness list) =
  conjunct (Fmt.str "%s-%a" prefix pp_hs hs) statement (fun w sys ->
      let sd = Model.sys_data sys cfg in
      if cfg.Config.handshake_fences && sd.s_hs_type = hs then fails w sd else [])

(* The protection the barriers owe a reference: marked, or grey.  The grey
   set is built once per state, and only if some reference is unmarked. *)
let marked_or_grey cfg sd =
  let greys = lazy (Color.greys cfg sd) in
  fun r -> Color.is_marked sd r || List.mem r (Lazy.force greys)

(* The guard shared by the invariants that hold only for the unablated
   barrier and allocation discipline. *)
let full_barriers cfg =
  cfg.Config.deletion_barrier && cfg.Config.insertion_barrier && cfg.Config.handshake_fences
  && not cfg.Config.alloc_white

(* -- Root sets ------------------------------------------------------------ *)

(* Buffered insertions: references being written into objects by pending
   field writes (Section 3.2 "Initialization"). *)
let buffered_insertions sd p =
  List.filter_map (function W_field (_, _, Some r) -> Some r | _ -> None) (buf_of sd p)

(* Buffered deletions for process p: for each pending field write, the
   value it will overwrite — the committed heap value as updated by the
   *earlier* writes to the same field in p's own (FIFO) buffer. *)
let buffered_deletions sd p =
  let field_now overrides (r, f) =
    match List.assoc_opt (r, f) overrides with
    | Some v -> v
    | None -> Gcheap.Heap.field sd.s_mem.heap r f
  in
  let _, dels =
    List.fold_left
      (fun (overrides, dels) w ->
        match w with
        | W_field (r, f, v) ->
          let old = field_now overrides (r, f) in
          (((r, f), v) :: overrides, match old with Some d -> d :: dels | None -> dels)
        | W_fA _ | W_fM _ | W_phase _ | W_mark _ -> (overrides, dels))
      ([], []) (buf_of sd p)
  in
  List.sort_uniq compare dels

(* The extended root set of Section 3.2: mutator roots, grey references
   (work-lists and ghost honorary greys), references pending in TSO store
   buffers, and the reference held by an in-flight deletion barrier. *)
let extended_roots cfg sys =
  let sd = Model.sys_data sys cfg in
  let mut_roots =
    List.concat (List.init cfg.Config.n_muts (fun m -> (Model.mut_data sys cfg m).m_roots))
  in
  let buffer_refs =
    List.concat
      (List.init (Config.n_software cfg) (fun p ->
           List.filter_map
             (function W_field (_, _, v) -> v | W_mark (r, _) -> Some r | _ -> None)
             (buf_of sd p)))
  in
  let in_flight_deletions =
    List.filter_map
      (fun m ->
        let pid = Config.pid_mut cfg m in
        if Model.at_prefix sys pid "mut:bar-del" || Model.at_prefix sys pid "mut:del-target" then
          (Model.mut_data sys cfg m).m_loaded
        else None)
      (List.init cfg.Config.n_muts Fun.id)
  in
  List.sort_uniq compare (mut_roots @ Color.greys cfg sd @ buffer_refs @ in_flight_deletions)

let reachable_from_roots cfg sys =
  let sd = Model.sys_data sys cfg in
  Gcheap.Reach.reachable_set sd.s_mem.heap (extended_roots cfg sys)

(* -- Safety --------------------------------------------------------------- *)

(* The headline theorem: [] (forall r. reachable r --> valid_ref r). *)
let valid_refs_inv cfg =
  invariant ~name:"valid_refs_inv"
    ~doc:"every reference reachable from the (extended) roots denotes a heap object"
    ~safety:true
    ~paper:"valid_refs_inv — the headline theorem, Section 2.1 (Theorem 1) and Section 3.2"
    [
      conjunct "reachable-implies-valid"
        "every reference reachable from the extended roots denotes an allocated heap object"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          violators (Gcheap.Heap.valid_ref sd.s_mem.heap)
            (fun r ->
              w ~refs:[ r ]
                (Fmt.str
                   "reference %d is reachable from the extended roots but denotes no heap \
                    object (it has been freed)"
                   r))
            (reachable_from_roots cfg sys));
    ]

(* Operational manifestation: no load/store/commit ever touched a freed
   cell (the Sys process records such accesses in ghost state). *)
let no_dangling cfg =
  invariant ~name:"no_dangling_access" ~doc:"no memory access or commit has hit a freed cell"
    ~safety:true
    ~paper:"operational corollary of the headline theorem, Section 2.1"
    [
      conjunct "no-dangling-access"
        "no load, store or store-buffer commit has ever hit a freed cell"
        (fun w sys ->
          if not (Model.sys_data sys cfg).s_dangling then []
          else
            [
              w
                "a load, store or commit has touched a freed cell (the Sys process's ghost \
                 s_dangling flag is set)";
            ]);
    ]

(* Fig. 2 lines 41-44: when the collector is about to free [ref], the
   object is white and unreachable.  Every conjunct constrains only the
   collector at gc:free, and is passed its candidate reference. *)
let free_only_garbage cfg =
  let at_free (fails : mk -> Model.sys -> rf option -> witness list) w sys =
    if Cimp.System.at sys Config.pid_gc "gc:free" then fails w sys (Model.gc_data sys).g_ref
    else []
  in
  invariant ~name:"free_only_garbage"
    ~doc:"at the free statement, the victim is white and unreachable" ~safety:true
    ~paper:"the sweep-safety clause, Section 2.1 / Fig. 2 lines 41-44"
    [
      conjunct "victim-chosen" "the collector at gc:free has actually chosen a candidate reference"
        (at_free (fun w _ -> function
           | Some _ -> []
           | None ->
             [
               w ~pids:[ Config.pid_gc ]
                 "the collector is at gc:free with no candidate reference in g_ref";
             ]));
      conjunct "victim-white" "the candidate's committed mark disagrees with f_M (it is white)"
        (at_free (fun w sys -> function
           | Some r when not (Color.is_white (Model.sys_data sys cfg) r) ->
             [
               w ~refs:[ r ] ~pids:[ Config.pid_gc ]
                 (Fmt.str
                    "the collector is about to free reference %d, which is not white (its \
                     committed mark agrees with f_M)"
                    r);
             ]
           | _ -> []));
      conjunct "victim-unreachable" "the candidate is unreachable from the extended roots"
        (at_free (fun w sys -> function
           | Some r when List.mem r (reachable_from_roots cfg sys) ->
             [
               w ~refs:[ r ] ~pids:[ Config.pid_gc ]
                 (Fmt.str
                    "the collector is about to free reference %d, which is still reachable \
                     from the extended roots"
                    r);
             ]
           | _ -> []));
    ]

(* -- valid_W_inv (Section 3.2 "Marking") ---------------------------------- *)

(* Process p's grey set: its work-list plus its ghost honorary grey. *)
let greys_of sd p = match ghg_of sd p with None -> wl_of sd p | Some r -> wl_of sd p @ [ r ]

let rec first_dup = function
  | [] -> None
  | r :: rest -> if List.mem r rest then Some r else first_dup rest

let worklists_disjoint cfg =
  let pids = List.init (Config.n_software cfg) Fun.id in
  invariant ~name:"worklists_disjoint"
    ~doc:"grey ownership is exclusive: work-lists (and honorary greys) are pairwise disjoint"
    ~safety:false
    ~paper:"the disjointness half of valid_W_inv, Section 3.2 \"Marking\""
    [
      conjunct "no-duplicate-grey" "no reference appears twice in one process's grey set"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          List.filter_map
            (fun p ->
              match first_dup (greys_of sd p) with
              | None -> None
              | Some r ->
                Some
                  (w ~refs:[ r ] ~pids:[ p ]
                     (Fmt.str "reference %d appears twice in process %d's grey set" r p)))
            pids);
      conjunct "grey-ownership-exclusive"
        "no reference is grey for two different processes at once (the LOCK'd CAS guarantees \
         a unique winner)"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          List.concat_map
            (fun p ->
              match greys_of sd p with
              | [] -> []
              | s ->
                List.concat_map
                  (fun q ->
                    if q <= p then []
                    else
                      let s' = greys_of sd q in
                      violators
                        (fun r -> not (List.mem r s'))
                        (fun r ->
                          w ~refs:[ r ] ~pids:[ p; q ]
                            (Fmt.str "reference %d is grey for both process %d and process %d"
                               r p q))
                        s)
                  pids)
            pids);
    ]

let valid_w_inv cfg =
  let pids = List.init (Config.n_software cfg) Fun.id in
  invariant ~name:"valid_W_inv"
    ~doc:
      "work-list/ghg entries are marked on the heap unless their owner holds the TSO lock; \
       pending mark writes use f_M"
    ~safety:false
    ~paper:"valid_W_inv, Section 3.2 \"Marking\" / Fig. 5"
    [
      conjunct "greys-marked-unless-locked"
        "every grey reference is marked on the committed heap, except while its owner is \
         inside the CAS critical section"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          List.concat_map
            (fun p ->
              if sd.s_lock = Some p then []
              else
                violators (Color.is_marked sd)
                  (fun r ->
                    w ~refs:[ r ] ~pids:[ p ]
                      (Fmt.str
                         "reference %d is grey for process %d but unmarked on the committed \
                          heap, and process %d does not hold the TSO lock"
                         r p p))
                  (greys_of sd p))
            pids);
      conjunct "pending-marks-use-fM"
        "every mark write in flight in a store buffer carries the current f_M sense"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          List.concat_map
            (fun p ->
              List.filter_map
                (function
                  | W_mark (r, b) when b <> sd.s_mem.fM ->
                    Some
                      (w ~refs:[ r ] ~pids:[ p ]
                         (Fmt.str "process %d has a pending mark of %d with the wrong sense (not f_M)"
                            p r))
                  | _ -> None)
                (buf_of sd p))
            pids);
    ]

(* -- Coarse TSO invariants ------------------------------------------------ *)

let tso_ownership cfg =
  let gc_ok = function W_fA _ | W_fM _ | W_phase _ | W_mark _ -> true | W_field _ -> false in
  let mut_ok = function W_mark _ | W_field _ -> true | W_fA _ | W_fM _ | W_phase _ -> false in
  let offending (w : mk) sd p ok who =
    violators ok
      (fun wr ->
        w ~pids:[ p ]
          (Fmt.str "%s (pid %d) has %a pending in its store buffer" (who ()) p pp_write wr))
      (buf_of sd p)
  in
  let muts = List.init cfg.Config.n_muts Fun.id in
  invariant ~name:"tso_ownership"
    ~doc:"only the collector has control-variable writes in flight; mutators only write marks and fields"
    ~safety:false
    ~paper:"write-ownership discipline of the Sys encoding, Section 3.1"
    [
      conjunct "collector-writes-no-fields"
        "the collector's store buffer only ever holds f_A, f_M, phase and mark writes"
        (fun w sys ->
          offending w (Model.sys_data sys cfg) Config.pid_gc gc_ok (fun () -> "the collector"));
      conjunct "mutators-write-no-control-vars"
        "a mutator's store buffer only ever holds field and mark writes"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          List.concat_map
            (fun m ->
              offending w sd (Config.pid_mut cfg m) mut_ok (fun () -> Fmt.str "mutator %d" m))
            muts);
    ]

let tso_lock_scope cfg =
  let in_cas_section sys p =
    p < Config.n_software cfg
    && List.exists
         (fun lbl ->
           let has sub =
             let n = String.length sub and ln = String.length lbl in
             let rec go i = i + n <= ln && (String.sub lbl i n = sub || go (i + 1)) in
             go 0
           in
           has ":cas-" || has ":unlock")
         (Cimp.Com.at_labels (Cimp.System.proc sys p))
  in
  invariant ~name:"tso_lock_scope"
    ~doc:"the TSO lock is only ever held inside a mark operation's CAS section" ~safety:false
    ~paper:"the LOCK'd CMPXCHG scope, Section 3.1 / Fig. 5 lines 5-11"
    [
      conjunct "lock-only-in-cas"
        "whenever a process holds the TSO bus lock its control point is inside a mark \
         operation's CAS section"
        (fun w sys ->
          match (Model.sys_data sys cfg).s_lock with
          | None -> []
          | Some p ->
            if in_cas_section sys p then []
            else
              [
                w ~pids:[ p ]
                  (Fmt.str "process %d holds the TSO lock while at %a, outside any CAS section" p
                     Fmt.(Dump.list string)
                     (if p < Cimp.System.n_procs sys then
                        Cimp.Com.at_labels (Cimp.System.proc sys p)
                      else []));
              ]);
    ]

let gc_fm_coherent cfg =
  let pending_fM sd =
    List.fold_left
      (fun acc wr -> match wr with W_fM b -> Some b | _ -> acc)
      None (buf_of sd Config.pid_gc)
  in
  invariant ~name:"gc_fM_coherent"
    ~doc:"the collector's local f_M agrees with memory, modulo its own pending write"
    ~safety:false
    ~paper:"the collector's view of the sense flip, Section 3.2 \"Initialization\" / Fig. 2 line 5"
    [
      conjunct "gc-fM-coherent"
        "the collector's register copy of f_M equals its pending f_M write if one is in \
         flight, else the committed f_M"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          let g = Model.gc_data sys in
          (* between the local flip (Fig. 2 line 5's register update) and
             the issuing of the store, the collector is at the write itself *)
          if
            Model.at_prefix sys Config.pid_gc "gc:write-fM"
            || match pending_fM sd with Some b -> b = g.g_fM | None -> sd.s_mem.fM = g.g_fM
          then []
          else
            [
              w ~pids:[ Config.pid_gc ]
                (Fmt.str
                   "the collector's local f_M is %b but memory has f_M=%b and its pending f_M \
                    write is %s"
                   g.g_fM sd.s_mem.fM
                   (match pending_fM sd with None -> "absent" | Some b -> string_of_bool b));
            ]);
    ]

(* -- The phase protocol (Fig. 3 / sys_phase_inv) -------------------------- *)

let pending_phase_writes sd =
  List.filter_map (function W_phase p -> Some p | _ -> None) (buf_of sd Config.pid_gc)

let pending_fA sd =
  List.exists (function W_fA _ -> true | _ -> false) (buf_of sd Config.pid_gc)

(* Phase values consistent with each handshake span, taking the collector's
   pending writes into account.  Presumes the handshake fences. *)
let phase_inv cfg =
  let span hs statement ok =
    span_conjunct cfg "phase-span" hs statement (fun w sd ->
        let mem_phase = sd.s_mem.phase in
        let pend = pending_phase_writes sd in
        if ok sd mem_phase pend then []
        else
          [
            w ~pids:[ Config.pid_gc ]
              (Fmt.str
                 "during the %a handshake span memory has phase=%a with pending phase writes \
                  [%a], which the Fig. 3 protocol forbids"
                 pp_hs hs pp_phase mem_phase
                 Fmt.(list ~sep:comma pp_phase)
                 pend);
          ])
  in
  (* The mark loop can terminate with zero get-work rounds (an empty
     snapshot, Fig. 2 line 25), so sweep's phase writes can already be in
     flight while the last round's type is still current.  During an
     active round, though, phase is stable. *)
  let marking_round sd mem_phase pend =
    if List.exists not sd.s_hs_done then mem_phase = Ph_mark && pend = []
    else List.for_all (fun p -> p = Ph_sweep || p = Ph_idle) pend
  in
  invariant ~name:"sys_phase_inv"
    ~doc:"the phase variable (memory + pending writes) tracks the handshake structure of Fig. 3"
    ~safety:false
    ~paper:"sys_phase_inv / handshake_phase_inv, Section 3.2 / Fig. 3"
    [
      span Hs_nop1
        "during the idle-sync span memory has phase Idle and no phase write is in flight"
        (fun _ mem_phase pend ->
          if cfg.Config.skip_init_handshakes then
            (* O1: all the initialization writes happen during this span *)
            (mem_phase = Ph_idle || mem_phase = Ph_init || mem_phase = Ph_mark)
            && List.for_all (fun p -> p = Ph_init || p = Ph_mark) pend
          else mem_phase = Ph_idle && pend = []);
      span Hs_nop2 "during the nop2 span the phase is Idle or Init, with only Init writes in flight"
        (fun _ mem_phase pend ->
          (mem_phase = Ph_idle || mem_phase = Ph_init) && List.for_all (fun p -> p = Ph_init) pend);
      span Hs_nop3 "during the nop3 span the phase is Init or Mark, with only Mark writes in flight"
        (fun _ mem_phase pend ->
          (mem_phase = Ph_init || mem_phase = Ph_mark) && List.for_all (fun p -> p = Ph_mark) pend);
      span Hs_nop4 "during the nop4 span memory has phase Mark and no phase write is in flight"
        (fun _ mem_phase pend -> mem_phase = Ph_mark && pend = []);
      span Hs_get_roots
        "during an active root handshake the phase is a committed Mark; once the round is over \
         only Sweep/Idle writes may be in flight"
        marking_round;
      span Hs_get_work
        "during an active termination handshake the phase is a committed Mark; once the round \
         is over only Sweep/Idle writes may be in flight"
        marking_round;
    ]

let fa_fm_relation cfg =
  let span hs statement ok =
    span_conjunct cfg "fA-fM-span" hs statement (fun w sd ->
        let pending = pending_fA sd in
        if ok sd.s_mem.fA sd.s_mem.fM pending then []
        else
          [
            w ~pids:[ Config.pid_gc ]
              (Fmt.str
                 "during the %a span memory has fA=%b fM=%b with %s pending fA write, violating \
                  the allocation-sense protocol"
                 pp_hs hs sd.s_mem.fA sd.s_mem.fM
                 (if pending then "a" else "no"));
          ])
  in
  let agreed = "from nop4 on the senses agree in memory with no f_A write in flight" in
  let agree fA fM pending = (not pending) && fA = fM in
  invariant ~name:"fA_fM_relation"
    ~doc:"f_A tracks f_M per handshake span: distinct across initialization, equal from nop4 on"
    ~safety:false
    ~paper:"fA_fM_relation (allocation-sense protocol), Section 3.2 / Fig. 2 lines 5-12"
    [
      span Hs_nop1
        "the sense flip lands mid-span: both relations are legitimate (never a witness)"
        (fun _ _ _ -> true);
      (* the sense flip committed before this round began; fA is rewritten
         only at line 12, much later *)
      span Hs_nop2
        "the flip committed before the round began: f_A and f_M differ in memory and no f_A \
         write is in flight"
        (fun fA fM pending -> (not pending) && fA <> fM);
      span Hs_nop3
        "the f_A := f_M write happens within this span: the senses agree in memory only once \
         it has committed"
        (fun fA fM pending -> not (fA = fM && pending));
      span Hs_nop4 agreed agree;
      span Hs_get_roots agreed agree;
      span Hs_get_work agreed agree;
    ]

(* -- Colour structure per phase ------------------------------------------ *)

(* hp_IdleInit / hp_InitMark: no black references until the write to f_A is
   committed (mutator allocate white until then). *)
let no_black_refs_init cfg =
  invariant ~name:"no_black_refs_init"
    ~doc:"between the sense flip and the commit of fA := fM there are no black references"
    ~safety:false
    ~paper:"hp_IdleInit / hp_InitMark colour structure, Section 3.2 \"Initialization\""
    [
      conjunct "no-black-before-fA-commit"
        "while f_A and f_M still differ during initialization, no reference is black \
         (allocation still produces white)"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          match sd.s_hs_type with
          | (Hs_nop2 | Hs_nop3) when cfg.Config.handshake_fences && sd.s_mem.fA <> sd.s_mem.fM ->
            List.map
              (fun r ->
                w ~refs:[ r ]
                  (Fmt.str "reference %d is black before the fA := fM write has committed" r))
              (Color.blacks cfg sd)
          | Hs_nop1 | Hs_nop2 | Hs_nop3 | Hs_nop4 | Hs_get_roots | Hs_get_work -> []);
    ]

(* hp_Idle: the heap is uniformly black (before the flip commits) or
   uniformly white (after), and there are no greys.  Under O1 the barriers
   can already fire during the nop1 span, so the invariant is off there. *)
let idle_heap_uniform cfg =
  let idle fails sys =
    let sd = Model.sys_data sys cfg in
    if cfg.Config.handshake_fences && (not cfg.Config.skip_init_handshakes)
       && sd.s_hs_type = Hs_nop1
    then fails sd
    else []
  in
  invariant ~name:"idle_heap_uniform"
    ~doc:"during the idle-sync span the heap is uniformly coloured and grey-free" ~safety:false
    ~paper:"hp_Idle colour structure, Section 3.2 \"Initialization\""
    [
      conjunct "idle-grey-free" "no reference is grey during the idle-sync span" (fun w ->
          idle (fun sd ->
              List.map
                (fun r ->
                  w ~refs:[ r ] (Fmt.str "reference %d is grey during the idle-sync span" r))
                (Color.greys cfg sd)));
      conjunct "idle-uniform-colour"
        "during the idle-sync span the heap is uniformly black (before the flip commits) or \
         uniformly white (after)"
        (fun w ->
          idle (fun sd ->
              violators
                (if sd.s_mem.fA = sd.s_mem.fM then Color.is_marked sd else Color.is_white sd)
                (fun r ->
                  w ~refs:[ r ]
                    (Fmt.str "reference %d breaks the idle span's uniform heap colouring" r))
                (Gcheap.Heap.domain sd.s_mem.heap)));
    ]

(* -- Write-barrier invariants (mutator_phase_inv) ------------------------- *)

let marked_insertions cfg =
  let muts = List.init cfg.Config.n_muts Fun.id in
  invariant ~name:"marked_insertions"
    ~doc:"mutators past the insertion-barrier handshake have only marked references in flight"
    ~safety:false
    ~paper:"the insertion half of mutator_phase_inv, Section 3.2 / Fig. 6 line 9"
    [
      conjunct "insertions-marked"
        "every reference a post-initialization mutator is inserting (a pending field write) \
         is already marked or grey"
        (fun w sys ->
          if not (cfg.Config.insertion_barrier && cfg.Config.handshake_fences) then []
          else
            let sd = Model.sys_data sys cfg in
            let ok = marked_or_grey cfg sd in
            List.concat_map
              (fun m ->
                match mut_hp sd m with
                | Hp_init_mark | Hp_idle_mark_sweep ->
                  violators ok
                    (fun r ->
                      w ~refs:[ r ] ~pids:[ Config.pid_mut cfg m ]
                        (Fmt.str
                           "mutator %d has the unmarked reference %d in a pending field write \
                            past the insertion-barrier handshake"
                           m r))
                    (buffered_insertions sd (Config.pid_mut cfg m))
                | Hp_idle | Hp_idle_init -> [])
              muts);
    ]

let marked_deletions cfg =
  let muts = List.init cfg.Config.n_muts Fun.id in
  invariant ~name:"marked_deletions"
    ~doc:"mutators past the snapshot handshakes only overwrite marked references" ~safety:false
    ~paper:"the deletion half of mutator_phase_inv, Section 3.2 / Fig. 6 line 8"
    [
      conjunct "deletions-marked"
        "every reference a post-snapshot mutator is overwriting (deleted by a pending field \
         write) is already marked or grey"
        (fun w sys ->
          if not (cfg.Config.deletion_barrier && cfg.Config.handshake_fences) then []
          else
            let sd = Model.sys_data sys cfg in
            let ok = marked_or_grey cfg sd in
            List.concat_map
              (fun m ->
                match mut_hp sd m with
                | Hp_idle_mark_sweep ->
                  violators ok
                    (fun r ->
                      w ~refs:[ r ] ~pids:[ Config.pid_mut cfg m ]
                        (Fmt.str
                           "mutator %d is overwriting the unmarked reference %d (a pending \
                            field write deletes it) past the snapshot handshake"
                           m r))
                    (buffered_deletions sd (Config.pid_mut cfg m))
                | Hp_idle | Hp_idle_init | Hp_init_mark -> [])
              muts);
    ]

(* -- The snapshot invariant (Section 3.2 "Initialization") ---------------- *)

(* For every mutator whose roots have been sampled this cycle ("black"
   mutators), everything reachable from its roots is black, grey, or a
   grey-protected white. *)
let reachable_snapshot_inv cfg =
  let guard = full_barriers cfg in
  let muts = List.init cfg.Config.n_muts Fun.id in
  invariant ~name:"reachable_snapshot_inv"
    ~doc:"black mutators only reach black, grey, or grey-protected white objects" ~safety:false
    ~paper:"the snapshot invariant, Section 3.2 \"Initialization\" / Fig. 2 lines 15-20"
    [
      conjunct "snapshot-reachable-protected"
        "everything reachable from a root-sampled (black) mutator is black, grey, or a white \
         protected by a grey chain"
        (fun w sys ->
          if not guard then []
          else
            let sd = Model.sys_data sys cfg in
            let ok = marked_or_grey cfg sd in
            let protected_whites = lazy (Color.grey_protected_whites cfg sd) in
            List.concat_map
              (fun m ->
                if not (mut_black sd m) then []
                else
                  violators
                    (fun r -> ok r || List.mem r (Lazy.force protected_whites))
                    (fun r ->
                      w ~refs:[ r ] ~pids:[ Config.pid_mut cfg m ]
                        (Fmt.str
                           "black mutator %d reaches reference %d, which is an unprotected \
                            white (neither marked, grey, nor grey-protected)"
                           m r))
                    (Gcheap.Reach.reachable_set sd.s_mem.heap (Model.mut_data sys cfg m).m_roots))
              muts);
    ]

(* -- Mark-loop termination (gc_W_empty_mut_inv) --------------------------- *)

let gc_w_empty_mut_inv cfg =
  let guard = full_barriers cfg in
  let muts = List.init cfg.Config.n_muts Fun.id in
  invariant ~name:"gc_W_empty_mut_inv"
    ~doc:
      "over root/termination handshakes: a completed mutator with leftover grey work implies \
       some yet-to-complete mutator also holds grey work"
    ~safety:false
    ~paper:"gc_W_empty_mut_inv (mark-loop termination), Section 3.2 / Fig. 2 lines 24-34"
    [
      conjunct "grey-work-accounted"
        "when the collector's W is empty mid-round, any grey work still held by a completed \
         mutator is covered by a yet-to-complete one"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          match sd.s_hs_type with
          | (Hs_get_roots | Hs_get_work)
            when guard && List.exists not sd.s_hs_done && wl_of sd Config.pid_gc = [] ->
            (* The paper notes this predicate "is only invariant over those
               handshakes, when the collector's W is known to start empty":
               outside a round the collector itself drains W while barriers
               may grey new work.  Grey work includes an in-flight honorary
               grey (its owner is about to publish it). *)
            let grey_work m = greys_of sd (Config.pid_mut cfg m) in
            if List.exists (fun m -> (not (hs_done sd m)) && grey_work m <> []) muts then []
            else
              List.filter_map
                (fun m ->
                  match grey_work m with
                  | work when hs_done sd m && work <> [] ->
                    Some
                      (w ~refs:work ~pids:[ Config.pid_mut cfg m ]
                         (Fmt.str
                            "mutator %d completed the %a round but still holds grey work, and \
                             no yet-to-complete mutator holds any"
                            m pp_hs sd.s_hs_type))
                  | _ -> None)
                muts
          | Hs_get_roots | Hs_get_work | Hs_nop1 | Hs_nop2 | Hs_nop3 | Hs_nop4 -> []);
    ]

(* -- Tricolor invariants (Section 2.1) ------------------------------------ *)

(* Every heap edge from a black object to a white one, as (black, white). *)
let black_to_white_edges cfg sd =
  List.concat_map
    (fun b ->
      match Gcheap.Heap.get sd.s_mem.heap b with
      | None -> []
      | Some o ->
        List.filter_map
          (fun c -> if Color.is_white sd c then Some (b, c) else None)
          (Gcheap.Obj.children o))
    (Color.blacks cfg sd)

(* Weak tricolor over the heap: any white object referred to by a black
   object is grey-protected (Fig. 1).  Holds unconditionally for the real
   collector. *)
let weak_tricolor cfg =
  let guard = full_barriers cfg in
  invariant ~name:"weak_tricolor_inv"
    ~doc:"white objects pointed to by black objects are grey-protected" ~safety:false
    ~paper:"the weak tricolor invariant, Section 2.1 / Fig. 1"
    [
      conjunct "black-to-white-protected"
        "every white object directly pointed to by a black object is protected by a grey chain"
        (fun w sys ->
          if not guard then []
          else
            let sd = Model.sys_data sys cfg in
            match black_to_white_edges cfg sd with
            | [] -> []
            | edges ->
              let protected_whites = Color.grey_protected_whites cfg sd in
              violators
                (fun (_, c) -> List.mem c protected_whites)
                (fun (b, c) ->
                  w ~refs:[ b; c ]
                    (Fmt.str
                       "black object %d points to white object %d, which no grey chain protects"
                       b c))
                edges);
    ]

(* Strong tricolor over the heap, on the spans where the paper claims it:
   from the commit of fA := fM through the end of the cycle. *)
let strong_tricolor cfg =
  let guard =
    cfg.Config.insertion_barrier && cfg.Config.handshake_fences
    && (not cfg.Config.alloc_white)
    && not cfg.Config.insertion_skip_after_roots
  in
  invariant ~name:"strong_tricolor_inv"
    ~doc:"no black-to-white heap edges from the fA commit through the cycle's end"
    ~safety:false
    ~paper:"the strong tricolor invariant, Section 2.1"
    [
      conjunct "no-black-to-white-after-fA-commit"
        "from the f_A := f_M commit through the cycle's end there is no black-to-white heap \
         edge at all"
        (fun w sys ->
          let sd = Model.sys_data sys cfg in
          match sd.s_hs_type with
          | (Hs_nop4 | Hs_get_roots | Hs_get_work) when guard && sd.s_mem.fA = sd.s_mem.fM ->
            List.map
              (fun (b, c) ->
                w ~refs:[ b; c ]
                  (Fmt.str "black object %d points to white object %d after the fA := fM commit"
                     b c))
              (black_to_white_edges cfg sd)
          | Hs_nop1 | Hs_nop2 | Hs_nop3 | Hs_nop4 | Hs_get_roots | Hs_get_work -> []);
    ]

(* -- Catalogue ------------------------------------------------------------ *)

let safety_invariants cfg = [ valid_refs_inv cfg; no_dangling cfg; free_only_garbage cfg ]

let auxiliary_invariants cfg =
  [
    worklists_disjoint cfg;
    valid_w_inv cfg;
    tso_ownership cfg;
    tso_lock_scope cfg;
    gc_fm_coherent cfg;
    phase_inv cfg;
    fa_fm_relation cfg;
    no_black_refs_init cfg;
    idle_heap_uniform cfg;
    marked_insertions cfg;
    marked_deletions cfg;
    reachable_snapshot_inv cfg;
    gc_w_empty_mut_inv cfg;
    weak_tricolor cfg;
    strong_tricolor cfg;
  ]

let all cfg = safety_invariants cfg @ auxiliary_invariants cfg

let find cfg name = List.find_opt (fun i -> i.name = name) (all cfg)
