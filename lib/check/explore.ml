(* Exhaustive explicit-state exploration.

   Breadth-first search over the CIMP system's reachable states, evaluating
   every supplied invariant at every state.  This is the executable
   substitute for the paper's induction over the reachable-state set
   (Section 3.2): on a bounded instance it *is* that induction, carried out
   by enumeration, and it additionally produces a shortest counterexample
   schedule when an invariant fails.

   One engine at every [jobs]: an asynchronous work-stealing BFS across
   OCaml 5 domains.  A persistent pool of [jobs] worker domains is
   spawned once per run.  Each worker expands states from its own deque
   (a growable ring guarded by a contention-probed mutex), pushes fresh
   successors locally, and, when its deque runs dry, steals half of the
   first non-empty victim deque it finds.  There is no level barrier:
   termination is detected by an atomic active-task counter — the
   counter is incremented before a task is published and decremented
   only after its expansion (including the publication of its
   successors) completes, so a worker that observes zero pending tasks
   knows the whole exploration is quiescent.  With one worker the pool
   is a single FIFO deque: a plain, deterministic BFS.

   Correctness without level synchronization rests on depth stamps.
   Every seen-set entry carries the length of the shortest discovered
   path from the root; when a shorter path to a known state is found the
   entry's (depth, parent, event) triple is atomically improved and the
   state is re-enqueued, so stamps relax down to true BFS distances by
   the time the counter reaches zero (a fixpoint: any improvement
   re-publishes work, so quiescence implies no improvement is possible).
   Violations update an atomic best-(depth, fingerprint) cell with
   min-tie-break; expansions at depth >= best are pruned.  Because every
   state at the minimal violating depth d* has all its ancestors at
   depths < d* <= best, the relaxation chain leading to each minimal
   violation is never pruned, so the cell converges to the minimal
   (depth, fingerprint) violation and the parent chain of that
   fingerprint has exactly best-depth edges — the counterexample replay
   returns a shortest trace.

   Memory layout (cf. "Reducing State Explosion for Software Model
   Checking with Relaxed Memory Consistency Models"): full states live
   only in the deques.  The seen-set is the tiered store of [lib/store]
   ({!Store.Tiered}): 64 independently-locked open-addressing shards over
   unboxed int bigarrays — 32 bytes/state regardless of state size — and,
   under [mem_budget], Bloom-fronted sorted on-disk segments that shards
   freeze into, keeping membership exact while bounding resident bytes.

   Checkpoint/resume rides on the same segment format.  With
   [checkpoint], worker 0 coordinates a stop-the-world rendezvous every
   [every] states: workers park at batch boundaries (they hold no
   popped-but-unprocessed tasks there, so the deques plus the pending
   counter are the entire frontier), worker 0 snapshots the store, the
   deques as (fingerprint, depth) pairs, the violation cell and the
   counters via {!Store.Checkpoint.write}, then releases the pool.
   Frontier states are not serialized — CIMP systems embed closures — but
   rebuilt at resume by parent-chain replay with a memo cache, exactly
   the mechanism counterexample reconstruction already trusts.

   Determinism: on a non-truncated run with no violation, {states,
   transitions, depth, deadlocks, covered} are equal for every [jobs]
   (every reachable state is inserted exactly once, and
   transitions/deadlocks are counted only on a state's first expansion;
   re-expansions triggered by depth improvement recount nothing).
   Spilling preserves all of that except that [depth] may overstate when
   a spilled entry is later depth-improved (the stale deep copy remains
   on disk until a merge).  On a violating run the verdict, the violated
   invariant and the counterexample length are deterministic across
   [jobs] (minimal depth, smallest fingerprint as tie-break); state
   counts of violating runs are not comparable across [jobs] because
   pruning races with discovery. *)

type ('a, 'v, 's) outcome = {
  states : int;  (* distinct states visited *)
  transitions : int;  (* transitions traversed *)
  depth : int;  (* BFS depth reached *)
  deadlocks : int;  (* states with no successors *)
  truncated : bool;  (* hit max_states before closure *)
  violation : ('a, 'v, 's) Trace.t option;  (* first (shortest) violation *)
  elapsed : float;  (* seconds *)
  covered : (int * Cimp.Label.t) list;
      (* (pid, label) pairs that fired, when coverage tracking is on:
         program locations never exercised indicate dead model code *)
}

let pp_outcome ppf o =
  Fmt.pf ppf "states=%d transitions=%d depth=%d deadlocks=%d%s %s (%.2fs)" o.states o.transitions
    o.depth o.deadlocks
    (if o.truncated then " TRUNCATED" else "")
    (match o.violation with None -> "all invariants hold" | Some t -> "VIOLATION: " ^ t.Trace.broken)
    o.elapsed

(* Coverage diffs must be stable across runs, so order deterministically:
   by pid, then label. *)
let sort_coverage pairs =
  List.sort
    (fun (p1, l1) (p2, l2) ->
      match compare (p1 : int) p2 with 0 -> Cimp.Label.compare l1 l2 | c -> c)
    pairs

let coverage_gaps sys ~covered =
  let fired = Hashtbl.create 256 in
  List.iter (fun pair -> Hashtbl.replace fired pair ()) covered;
  let gaps = ref [] in
  for p = 0 to Cimp.System.n_procs sys - 1 do
    let labels =
      List.concat_map Cimp.Com.labels (Cimp.System.proc sys p).Cimp.Com.stack
    in
    List.iter
      (fun l ->
        if not (Hashtbl.mem fired (p, l)) then begin
          Hashtbl.replace fired (p, l) ();  (* dedupe within the program *)
          gaps := (p, l) :: !gaps
        end)
      labels
  done;
  sort_coverage !gaps

(* Forward replay of recorded transitions, shared by counterexample
   reconstruction and checkpoint resume.  An event alone does not
   determine the successor (a Local_op may offer several successors under
   one label), so each step also matches the recorded key — the engine's
   compact fingerprint hash — of the state it must land in. *)
let replay_step ~norm ~matches sys (key, ev) =
  List.find_map
    (fun (e, s') ->
      if e = ev then
        let s' = norm s' in
        if matches s' key then Some s' else None
      else None)
    (Cimp.System.steps sys)

let replay_chain ~norm ~matches initial chain =
  let rec replay sys chain acc =
    match chain with
    | [] -> List.rev acc
    | (key, ev) :: rest -> (
      match replay_step ~norm ~matches sys (key, ev) with
      | Some s' -> replay s' rest ({ Trace.event = ev; state = s' } :: acc)
      | None -> List.rev acc (* unreachable: the chain records real transitions *))
  in
  replay initial chain []

(* -- scheduler hooks ---------------------------------------------------------

   Observation points on the worker scheduler, injectable from tests to
   pin down termination-detection interleavings (e.g. force a worker to
   sit in its quiescence probe while another publishes work).  The
   default hooks do nothing and cost one call per event. *)

type hooks = {
  on_expand : worker:int -> depth:int -> unit;
  on_idle : worker:int -> unit;
  on_steal : worker:int -> victim:int -> stolen:int -> unit;
  on_probe : worker:int -> pending:int -> unit;
}

let no_hooks =
  {
    on_expand = (fun ~worker:_ ~depth:_ -> ());
    on_idle = (fun ~worker:_ -> ());
    on_steal = (fun ~worker:_ ~victim:_ ~stolen:_ -> ());
    on_probe = (fun ~worker:_ ~pending:_ -> ());
  }

(* -- per-worker deques -------------------------------------------------------

   A growable ring of tasks guarded by a contention-probed mutex; the
   owner pops small batches from the front (FIFO keeps expansion close to
   BFS order, which minimizes depth-improvement re-expansions), thieves
   take half (rounded up) from the front.  A mutex per deque is ample
   here: the owner amortizes it over a batch, and steals are rare
   compared to expansions. *)

module Deque = struct
  type 'task t = {
    lock : Obs.Contention.lock;
    mutable buf : 'task array;
    mutable head : int;
    mutable len : int;
    dummy : 'task;
  }

  let create ~dummy =
    { lock = Obs.Contention.make_lock (); buf = Array.make 64 dummy; head = 0; len = 0; dummy }

  (* racy size read: victim-selection hint only, re-checked under lock *)
  let size d = d.len

  let ensure d extra =
    let cap = Array.length d.buf in
    if d.len + extra > cap then begin
      let cap' = ref (2 * cap) in
      while d.len + extra > !cap' do
        cap' := 2 * !cap'
      done;
      let buf = Array.make !cap' d.dummy in
      for i = 0 to d.len - 1 do
        buf.(i) <- d.buf.((d.head + i) mod cap)
      done;
      d.buf <- buf;
      d.head <- 0
    end

  let push_list d tasks =
    Obs.Contention.lock d.lock;
    ensure d (List.length tasks);
    let cap = Array.length d.buf in
    List.iter
      (fun t ->
        d.buf.((d.head + d.len) mod cap) <- t;
        d.len <- d.len + 1)
      tasks;
    Obs.Contention.unlock d.lock

  (* [m] front tasks in order; caller locks.  Slots are cleared so popped
     states do not outlive their expansion. *)
  let take_front_locked d m =
    let cap = Array.length d.buf in
    let out = ref [] in
    for i = m - 1 downto 0 do
      let j = (d.head + i) mod cap in
      out := d.buf.(j) :: !out;
      d.buf.(j) <- d.dummy
    done;
    d.head <- (d.head + m) mod cap;
    d.len <- d.len - m;
    !out

  let pop_batch d k =
    Obs.Contention.lock d.lock;
    let r = take_front_locked d (min k d.len) in
    Obs.Contention.unlock d.lock;
    r

  let steal d =
    Obs.Contention.lock d.lock;
    let r = take_front_locked d ((d.len + 1) / 2) in
    Obs.Contention.unlock d.lock;
    r

  (* non-destructive snapshot, for checkpoints (the pool is parked) *)
  let to_list d =
    Obs.Contention.lock d.lock;
    let cap = Array.length d.buf in
    let r = List.init d.len (fun i -> d.buf.((d.head + i) mod cap)) in
    Obs.Contention.unlock d.lock;
    r

  let locks ds = Array.map (fun d -> d.lock) ds
end

(* -- the explorer ------------------------------------------------------------ *)

let max_jobs = 64
let pop_batch_size = 8
let ilist a = Obs.Json.List (Array.to_list (Array.map (fun v -> Obs.Json.Int v) a))

let run ?(jobs = 1) ?(max_states = 1_000_000) ?(normal_form = true) ?(track_coverage = false)
    ?(obs = Obs.Reporter.null) ?(tracer = Obs.Tracing.null) ?(heartbeat_every = 20_000)
    ?(hooks = no_hooks) ?reducer ?mem_budget ?spill_dir ?checkpoint ?resume ?on_store
    ?(run_config = Obs.Json.Null) ~invariants initial =
  let jobs = max 1 (min jobs max_jobs) in
  let t0_ns = Obs.Clock.monotonic_ns () in
  let base_elapsed =
    match resume with Some s -> s.Store.Checkpoint.elapsed_s | None -> 0.
  in
  let norm sys = if normal_form then Cimp.System.normalize sys else sys in
  let fp_of sys = Reducer.fp_of reducer sys in
  let canon sys = Reducer.canon_of reducer sys in
  (* expand the executable canonical representative of each class
     (root included), not whichever concrete state arrived first: the
     explored graph is then the quotient graph, and the visited class set
     is independent of which worker reaches a class first *)
  let initial = canon (norm initial) in
  let codec = Store.Event_codec.of_system initial in
  let seen =
    match resume with
    | Some snap -> snap.Store.Checkpoint.store
    | None -> Store.Tiered.create ?mem_budget ?spill_dir ()
  in
  let inv_names = Array.of_list (List.map fst invariants) in
  if Array.length inv_names > Store.Tiered.max_violation_index + 1 then
    invalid_arg "Explore.run: too many invariants to pack";
  let inv_index =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i name -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name i) inv_names;
    fun name -> match Hashtbl.find_opt tbl name with Some i -> i | None -> 0
  in
  (* phase timing per state is only paid when a trace is being recorded
     or a reporter wants the [profile] record; per-worker busy/idle
     accounting (two clock reads per batch, one per idle episode) is
     always on, so the scaling-detail record is available to any obs
     sink *)
  let tr_on = Obs.Tracing.enabled tracer && Obs.Tracing.lanes tracer >= jobs in
  let profiling = Obs.Reporter.enabled obs in
  let timing = tr_on || profiling in
  let gc0 = if profiling then Some (Gc.quick_stat ()) else None in
  let n_expand = if tr_on then Obs.Tracing.intern tracer "expand" else 0 in
  let n_succ = if tr_on then Obs.Tracing.intern tracer "successor-gen" else 0 in
  let n_fp = if tr_on then Obs.Tracing.intern tracer "normalize+fingerprint" else 0 in
  let n_ins = if tr_on then Obs.Tracing.intern tracer "seen-insert" else 0 in
  let n_inv = if tr_on then Obs.Tracing.intern tracer "invariants" else 0 in
  let n_push = if tr_on then Obs.Tracing.intern tracer "deque-push" else 0 in
  let n_steal = if tr_on then Obs.Tracing.intern tracer "steal" else 0 in
  let n_steal_fail = if tr_on then Obs.Tracing.intern tracer "steal-fail" else 0 in
  let n_probe = if tr_on then Obs.Tracing.intern tracer "termination-probe" else 0 in
  let n_spill = if tr_on then Obs.Tracing.intern tracer "store-spill" else 0 in
  let n_merge = if tr_on then Obs.Tracing.intern tracer "store-merge" else 0 in
  let n_disk = if tr_on then Obs.Tracing.intern tracer "store-disk-probe" else 0 in
  if tr_on then
    for d = 0 to jobs - 1 do
      Obs.Tracing.set_lane tracer ~dom:d (Fmt.str "worker %d" d)
    done;
  (* spill/merge/probe spans happen under a shard lock deep in the
     store, on whichever worker triggered them; a domain-local worker
     id routes them into that worker's single-writer lane *)
  let dls_worker = Domain.DLS.new_key (fun () -> -1) in
  if tr_on then
    Store.Tiered.set_hooks seen
      {
        Store.Tiered.on_spill =
          (fun ~shard:_ ~entries ~bytes ~start_ns ~stop_ns ->
            let w = Domain.DLS.get dls_worker in
            if w >= 0 then
              Obs.Tracing.span_args tracer ~dom:w ~name:n_spill ~start_ns ~stop_ns
                ~args:[ ("entries", Obs.Json.Int entries); ("bytes", Obs.Json.Int bytes) ]);
        on_merge =
          (fun ~shard:_ ~segments ~entries ~start_ns ~stop_ns ->
            let w = Domain.DLS.get dls_worker in
            if w >= 0 then
              Obs.Tracing.span_args tracer ~dom:w ~name:n_merge ~start_ns ~stop_ns
                ~args:
                  [ ("segments", Obs.Json.Int segments); ("entries", Obs.Json.Int entries) ]);
        on_disk_probe =
          (fun ~shard:_ ~hit ~start_ns ~stop_ns ->
            let w = Domain.DLS.get dls_worker in
            if w >= 0 then
              Obs.Tracing.span_args tracer ~dom:w ~name:n_disk ~start_ns ~stop_ns
                ~args:[ ("hit", Obs.Json.Bool hit) ]);
      };
  let busy_ns = Array.make jobs 0 in
  let idle_ns = Array.make jobs 0 in
  let steals = Array.make jobs 0 in
  let steal_fails = Array.make jobs 0 in
  let stolen_tasks = Array.make jobs 0 in
  let term_probes = Array.make jobs 0 in
  (* each worker's (successor-gen ns, calls, normalize ns, fingerprint
     ns, calls), stored when it exits, for the [profile] record *)
  let phases = Array.make jobs (0, 0, 0, 0, 0) in
  let resume_int f = match resume with Some s -> f s | None -> 0 in
  let states = Atomic.make (resume_int (fun s -> s.Store.Checkpoint.states)) in
  let transitions = Atomic.make (resume_int (fun s -> s.Store.Checkpoint.transitions)) in
  let deadlocks = Atomic.make (resume_int (fun s -> s.Store.Checkpoint.deadlocks)) in
  let truncated =
    Atomic.make (match resume with Some s -> s.Store.Checkpoint.truncated | None -> false)
  in
  (* best violation: (depth, fingerprint) with min-tie-break.  The depth
     mirror is atomic so the expansion fast path can prune without
     taking the mutex; fp/inv are only read after the pool joins. *)
  let best_lock = Mutex.create () in
  let best_depth = Atomic.make max_int in
  let best_fp = ref 0 in
  let best_inv = ref (-1) in
  (match resume with
  | Some { Store.Checkpoint.best = Some (d, fp, inv); _ } ->
    Atomic.set best_depth d;
    best_fp := fp;
    best_inv := inv
  | _ -> ());
  let offer ~depth ~fp ~inv =
    if depth <= Atomic.get best_depth then begin
      Mutex.lock best_lock;
      let d0 = Atomic.get best_depth in
      if depth < d0 || (depth = d0 && fp < !best_fp) then begin
        best_fp := fp;
        best_inv := inv;
        Atomic.set best_depth depth
      end;
      Mutex.unlock best_lock
    end
  in
  (* termination detection: [pending] counts published-but-unfinished
     tasks.  It is incremented before tasks become visible in any deque
     and decremented only after a task's expansion (successor
     publication included) completes, so pending = 0 observed by any
     worker means the exploration is quiescent and can never wake up. *)
  let pending = Atomic.make 0 in
  (* worker-indexed so each domain owns its instrumentation arrays *)
  let ivs = Array.init jobs (fun _ -> Inv_stats.make ~obs invariants) in
  let coverage =
    Array.init jobs (fun _ -> Hashtbl.create (if track_coverage then 512 else 1))
  in
  (match resume with
  | Some snap ->
    List.iter (fun pair -> Hashtbl.replace coverage.(0) pair ()) snap.Store.Checkpoint.covered
  | None -> ());
  let record_event w ev =
    if track_coverage then begin
      match ev with
      | Cimp.System.Tau (p, l) -> Hashtbl.replace coverage.(w) (p, l) ()
      | Cimp.System.Rendezvous { requester; req_label; responder; resp_label } ->
        Hashtbl.replace coverage.(w) (requester, req_label) ();
        Hashtbl.replace coverage.(w) (responder, resp_label) ()
    end
  in
  let merged_covered () =
    let merged = Hashtbl.create 512 in
    Array.iter (fun tbl -> Hashtbl.iter (fun k () -> Hashtbl.replace merged k ()) tbl) coverage;
    sort_coverage (Hashtbl.fold (fun k () acc -> k :: acc) merged [])
  in
  let fp0 = Fingerprint.hash (fp_of initial) in
  let dummy_task = (fp0, initial, 0) in
  let deques = Array.init jobs (fun _ -> Deque.create ~dummy:dummy_task) in
  let publish w tasks =
    ignore (Atomic.fetch_and_add pending (List.length tasks));
    Deque.push_list deques.(w) tasks
  in
  (* replay lands on canonical representatives, keyed by fingerprint *)
  let replay_norm s = canon (norm s) in
  let replay_matches s' fp' = Fingerprint.hash (fp_of s') = fp' in
  let reconstruct fp broken =
    (* chain of (fingerprint, event) from the root to [fp], replayed
       forward by [replay_chain] (same-label successors disambiguated by
       the recorded fingerprint); cost is O(depth * branching) *)
    let rec back fp acc =
      match Store.Tiered.find seen fp with
      | Some (parent, ev) when parent <> 0 ->
        back parent ((fp, Store.Event_codec.decode codec ev) :: acc)
      | _ -> acc
    in
    let steps = replay_chain ~norm:replay_norm ~matches:replay_matches initial (back fp []) in
    { Trace.initial; steps; broken }
  in
  (* -- checkpoint rendezvous ---------------------------------------------

     Worker 0 coordinates.  When due, it raises [ckpt_req]; the other
     workers notice at a batch boundary (or inside the idle-steal spin)
     and park in [ckpt_wait] until the snapshot is written.  A parked
     worker holds no popped-but-unprocessed task and no lock, so at
     full rendezvous the deques plus the atomic counters are the whole
     exploration state, and pending equals the sum of deque lengths.
     If the coordinator observes pending = 0 while gathering the pool
     it aborts (workers may already be exiting through quiescence; the
     post-join final snapshot covers that case). *)
  let ckpt = Option.map (fun (dir, every) -> (dir, max 1 every)) checkpoint in
  let ckpt_req = Atomic.make false in
  let ckpt_arrived = Atomic.make 0 in
  let ckpt_gen = Atomic.make 0 in
  let ckpt_seq = ref (match resume with Some s -> s.Store.Checkpoint.seq + 1 | None -> 1) in
  let last_ckpt_states = ref (Atomic.get states) in
  let do_snapshot dir =
    let elapsed_now = base_elapsed +. Obs.Clock.elapsed_s ~since:t0_ns in
    let frontier =
      Array.map (fun d -> List.map (fun (fp, _, dep) -> (fp, dep)) (Deque.to_list d)) deques
    in
    let best =
      if Atomic.get best_depth = max_int then None
      else Some (Atomic.get best_depth, !best_fp, !best_inv)
    in
    Store.Checkpoint.write ~dir ~seq:!ckpt_seq ~fingerprint_scheme:Fingerprint.scheme
      ~config:run_config ~store:seen
      ~states:(Atomic.get states) ~transitions:(Atomic.get transitions)
      ~deadlocks:(Atomic.get deadlocks) ~truncated:(Atomic.get truncated)
      ~elapsed_s:elapsed_now ~best ~frontier ~covered:(merged_covered ());
    if Obs.Reporter.enabled obs then
      Obs.Reporter.emit obs "checkpoint"
        [
          ("checker", Obs.Json.String "explore");
          ("seq", Obs.Json.Int !ckpt_seq);
          ("states", Obs.Json.Int (Atomic.get states));
          ("frontier", Obs.Json.Int (Atomic.get pending));
          ("dir", Obs.Json.String dir);
        ];
    incr ckpt_seq;
    last_ckpt_states := Atomic.get states
  in
  let ckpt_wait w =
    if w > 0 && Atomic.get ckpt_req then begin
      let gen = Atomic.get ckpt_gen in
      Atomic.incr ckpt_arrived;
      while Atomic.get ckpt_req && Atomic.get ckpt_gen = gen do
        Domain.cpu_relax ()
      done;
      Atomic.decr ckpt_arrived
    end
  in
  let maybe_checkpoint w =
    match ckpt with
    | None -> ()
    | Some (dir, every) ->
      if w > 0 then ckpt_wait w
      else if Atomic.get states - !last_ckpt_states >= every then begin
        if jobs = 1 then do_snapshot dir
        else begin
          Atomic.set ckpt_req true;
          let parked = ref false in
          let quiescent = ref false in
          while not (!parked || !quiescent) do
            if Atomic.get ckpt_arrived >= jobs - 1 then parked := true
            else if Atomic.get pending = 0 then quiescent := true
            else Domain.cpu_relax ()
          done;
          if !parked then do_snapshot dir;
          Atomic.incr ckpt_gen;
          Atomic.set ckpt_req false;
          while Atomic.get ckpt_arrived > 0 do
            Domain.cpu_relax ()
          done
        end
      end
  in
  (* One worker: expand tasks from the own deque, steal when dry, exit
     at quiescence.  Each worker emits its own heartbeats (tagged with
     its domain index) and writes spans only into its own lane, so the
     single-writer-per-lane tracing discipline holds without any
     coordinator involvement. *)
  let worker w () =
    Domain.DLS.set dls_worker w;
    let iv = ivs.(w) in
    let own = deques.(w) in
    (* cumulative per-phase nanoseconds, clocked only when [timing].  A
       flush lays each phase's growth since the previous flush out as
       one [expand] span (phase children back to back inside it) every
       heartbeat interval and when the worker goes idle; the totals feed
       the [profile] record *)
    let span_start = ref (Obs.Clock.monotonic_ns ()) in
    let span_states = ref 0 in
    let succ_ns = ref 0 and norm_ns = ref 0 and fp_ns = ref 0 and ins_ns = ref 0 in
    let inv_ns = ref 0 and push_ns = ref 0 in
    let succ_calls = ref 0 and fp_calls = ref 0 in
    let flushed = Array.make 5 0 in
    let expanded = ref 0 in
    let hb_expanded = ref 0 in
    let hb_time = ref !span_start in
    let timed acc f =
      if timing then begin
        let t = Obs.Clock.monotonic_ns () in
        let r = f () in
        acc := !acc + (Obs.Clock.monotonic_ns () - t);
        r
      end
      else f ()
    in
    let flush_span () =
      if tr_on && !span_states > 0 then begin
        let stop = Obs.Clock.monotonic_ns () in
        Obs.Tracing.span_args tracer ~dom:w ~name:n_expand ~start_ns:!span_start ~stop_ns:stop
          ~args:[ ("states", Obs.Json.Int !span_states) ];
        let cursor = ref !span_start in
        List.iteri
          (fun i (name, total) ->
            let d = total - flushed.(i) in
            if d > 0 then begin
              Obs.Tracing.span_between tracer ~dom:w ~name ~start_ns:!cursor ~stop_ns:(!cursor + d);
              cursor := !cursor + d;
              flushed.(i) <- total
            end)
          [
            (n_succ, !succ_ns);
            (n_fp, !norm_ns + !fp_ns);
            (n_ins, !ins_ns);
            (n_inv, !inv_ns);
            (n_push, !push_ns);
          ];
        span_states := 0
      end;
      span_start := Obs.Clock.monotonic_ns ()
    in
    let heartbeat () =
      if !expanded - !hb_expanded >= heartbeat_every then begin
        let now_ns = Obs.Clock.monotonic_ns () in
        if Obs.Reporter.enabled obs then begin
          let interval = float_of_int (now_ns - !hb_time) *. 1e-9 in
          let rate =
            if interval > 0. then float_of_int (!expanded - !hb_expanded) /. interval else 0.
          in
          let gc = Gc.quick_stat () in
          let st = Store.Tiered.stats seen in
          Obs.Reporter.emit obs "heartbeat"
            [
              ("checker", Obs.Json.String "explore");
              ("domain", Obs.Json.Int w);
              ("frontier", Obs.Json.Int (Atomic.get pending));
              ("states", Obs.Json.Int (Atomic.get states));
              ("max_states", Obs.Json.Int max_states);
              ("transitions", Obs.Json.Int (Atomic.get transitions));
              ("states_per_sec", Obs.Json.Float rate);
              ("heap_words", Obs.Json.Int gc.Gc.heap_words);
              ("bytes_resident", Obs.Json.Int st.Store.Tiered.resident_bytes);
              ("mem_budget", Obs.Json.Int (Store.Tiered.mem_budget seen));
              ("segments", Obs.Json.Int st.Store.Tiered.segments);
              ( "spilled_states",
                Obs.Json.Int
                  (max 0 (Store.Tiered.count seen - st.Store.Tiered.resident_entries)) );
              ("bytes_resident_per_shard", ilist (Store.Tiered.resident_bytes_per_shard seen));
            ]
        end;
        flush_span ();
        hb_expanded := !expanded;
        hb_time := now_ns
      end
    in
    let process (fp, sys, d_task) =
      (match Store.Tiered.begin_expand seen fp ~depth:d_task with
      | `Stale -> ()
      | (`First d | `Again d) as claim ->
        if (not (Atomic.get truncated)) && d < Atomic.get best_depth then begin
          let first = match claim with `First _ -> true | `Again _ -> false in
          hooks.on_expand ~worker:w ~depth:d;
          let succs = timed succ_ns (fun () -> Reducer.succs_of reducer sys) in
          incr succ_calls;
          if succs = [] && first then Atomic.incr deadlocks;
          let out = ref [] in
          List.iter
            (fun (event, sys') ->
              if Atomic.get states < max_states then begin
                if first then Atomic.incr transitions;
                record_event w event;
                let sys' = timed norm_ns (fun () -> norm sys') in
                let fp' = timed fp_ns (fun () -> Fingerprint.hash (fp_of sys')) in
                incr fp_calls;
                let d' = d + 1 in
                (* depth > best can neither beat the violation nor lie on
                   a minimal chain (ancestors of minimal violations stay
                   strictly below best); depth = best must still be
                   inserted and checked for the fingerprint tie-break *)
                if d' <= Atomic.get best_depth then begin
                  let added =
                    timed ins_ns (fun () ->
                        Store.Tiered.add seen fp' ~parent:fp
                          ~event:(Store.Event_codec.encode codec event)
                          ~depth:d')
                  in
                  match added with
                  | Store.Tiered.Fresh ->
                    let n = Atomic.fetch_and_add states 1 + 1 in
                    if n >= max_states then Atomic.set truncated true;
                    (* evaluate and expand the canonical representative
                       of the fresh class (canonicalization is paid
                       once per class, not per generated successor) *)
                    let sys' = canon sys' in
                    (match timed inv_ns (fun () -> iv.Inv_stats.check sys') with
                    | Some name ->
                      let idx = inv_index name in
                      Store.Tiered.mark_violation seen fp' idx;
                      offer ~depth:d' ~fp:fp' ~inv:idx
                    | None -> ());
                    if d' < Atomic.get best_depth then out := (fp', sys', d') :: !out
                  | Store.Tiered.Improved viol ->
                    if viol >= 0 then offer ~depth:d' ~fp:fp' ~inv:viol;
                    if d' < Atomic.get best_depth then out := (fp', canon sys', d') :: !out
                  | Store.Tiered.Stale -> ()
                end
              end
              else Atomic.set truncated true)
            succs;
          if !out <> [] then timed push_ns (fun () -> publish w (List.rev !out));
          incr expanded;
          incr span_states;
          heartbeat ()
        end);
      Atomic.decr pending
    in
    (* round-robin sweep from w+1; steal half of the first victim that
       yields anything *)
    let try_steal () =
      let rec go k =
        if k >= jobs then None
        else begin
          let v = (w + k) mod jobs in
          if Deque.size deques.(v) = 0 then go (k + 1)
          else
            match Deque.steal deques.(v) with
            | [] -> go (k + 1)
            | ts -> Some (v, ts)
        end
      in
      go 1
    in
    let backoff = ref 0 in
    let rec main () =
      maybe_checkpoint w;
      match Deque.pop_batch own pop_batch_size with
      | [] -> idle ()
      | tasks ->
        let t0 = Obs.Clock.monotonic_ns () in
        List.iter process tasks;
        busy_ns.(w) <- busy_ns.(w) + (Obs.Clock.monotonic_ns () - t0);
        main ()
    and idle () =
      flush_span ();
      hooks.on_idle ~worker:w;
      let ep_start = Obs.Clock.monotonic_ns () in
      let sweeps = ref 0 in
      let rec spin () =
        maybe_checkpoint w;
        let t_sweep = Obs.Clock.monotonic_ns () in
        match try_steal () with
        | Some (v, ts) ->
          let now = Obs.Clock.monotonic_ns () in
          let n = List.length ts in
          steals.(w) <- steals.(w) + 1;
          stolen_tasks.(w) <- stolen_tasks.(w) + n;
          Deque.push_list own ts;
          hooks.on_steal ~worker:w ~victim:v ~stolen:n;
          if tr_on then begin
            if !sweeps > 0 then
              Obs.Tracing.span_between tracer ~dom:w ~name:n_steal_fail ~start_ns:ep_start
                ~stop_ns:t_sweep;
            Obs.Tracing.span_between tracer ~dom:w ~name:n_steal ~start_ns:t_sweep ~stop_ns:now
          end;
          idle_ns.(w) <- idle_ns.(w) + (now - ep_start);
          backoff := 0;
          span_start := Obs.Clock.monotonic_ns ();
          main ()
        | None ->
          incr sweeps;
          steal_fails.(w) <- steal_fails.(w) + 1;
          term_probes.(w) <- term_probes.(w) + 1;
          let t_probe = Obs.Clock.monotonic_ns () in
          let p = Atomic.get pending in
          hooks.on_probe ~worker:w ~pending:p;
          if p = 0 then begin
            (* quiescent: no published task anywhere, and new tasks are
               only published by task expansions, so none can appear *)
            let now = Obs.Clock.monotonic_ns () in
            if tr_on then begin
              Obs.Tracing.span_between tracer ~dom:w ~name:n_steal_fail ~start_ns:ep_start
                ~stop_ns:t_probe;
              Obs.Tracing.span_between tracer ~dom:w ~name:n_probe ~start_ns:t_probe
                ~stop_ns:now
            end;
            idle_ns.(w) <- idle_ns.(w) + (now - ep_start)
          end
          else begin
            (* exponential-ish backoff: spin first, then sleep so a
               core-limited host gives the busy domains the CPU *)
            incr backoff;
            if !backoff < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002;
            spin ()
          end
      in
      spin ()
    in
    main ();
    phases.(w) <- (!succ_ns, !succ_calls, !norm_ns, !fp_ns, !fp_calls)
  in
  (* root (or restored frontier): published before the pool spawns, so
     no worker can observe pending = 0 before the first task exists *)
  (match resume with
  | None ->
    ignore (Store.Tiered.add seen fp0 ~parent:0 ~event:0 ~depth:0);
    Atomic.set states 1;
    (match ivs.(0).Inv_stats.check initial with
    | Some name ->
      let idx = inv_index name in
      Store.Tiered.mark_violation seen fp0 idx;
      offer ~depth:0 ~fp:fp0 ~inv:idx
    | None -> ());
    publish 0 [ (fp0, initial, 0) ]
  | Some snap ->
    (* frontier states were snapshotted as (fingerprint, depth) only;
       rebuild each by memoized parent-chain replay — the trusted
       counterexample mechanism — and redistribute round-robin *)
    if Store.Tiered.find seen fp0 = None then
      invalid_arg "Explore.run: checkpoint does not match this model configuration";
    let cache = Hashtbl.create 4096 in
    Hashtbl.add cache fp0 initial;
    let rec state_of fp =
      match Hashtbl.find_opt cache fp with
      | Some s -> s
      | None -> (
        match Store.Tiered.find seen fp with
        | Some (parent, code) when parent <> 0 -> (
          let ev = Store.Event_codec.decode codec code in
          match
            replay_step ~norm:replay_norm ~matches:replay_matches (state_of parent) (fp, ev)
          with
          | Some s ->
            Hashtbl.add cache fp s;
            s
          | None ->
            invalid_arg
              "Explore.run: cannot replay a checkpointed frontier state (model mismatch?)")
        | _ ->
          invalid_arg "Explore.run: frontier fingerprint missing from the checkpoint store"
      )
    in
    let i = ref 0 in
    Array.iter
      (fun tasks ->
        List.iter
          (fun (fp, d) ->
            publish (!i mod jobs) [ (fp, state_of fp, d) ];
            incr i)
          tasks)
      snap.Store.Checkpoint.frontier);
  let doms = Array.init (jobs - 1) (fun j -> Domain.spawn (worker (j + 1))) in
  worker 0 ();
  Array.iter Domain.join doms;
  (* a final snapshot (frontier empty) makes resume-after-completion
     report the finished verdict instead of failing *)
  (match ckpt with Some (dir, _) -> do_snapshot dir | None -> ());
  let elapsed = base_elapsed +. Obs.Clock.elapsed_s ~since:t0_ns in
  let violation =
    if Atomic.get best_depth = max_int then None
    else Some (reconstruct !best_fp inv_names.(!best_inv))
  in
  let depth =
    if violation = None then Store.Tiered.max_depth seen else Atomic.get best_depth
  in
  let first_violation = Option.map (fun tr -> tr.Trace.broken) violation in
  Inv_stats.report obs ~first_violation (Array.to_list ivs);
  let states = Atomic.get states in
  let transitions = Atomic.get transitions in
  Reducer.report obs ~checker:"explore" reducer ~states ~transitions ~elapsed;
  let deadlocks = Atomic.get deadlocks in
  let truncated = Atomic.get truncated in
  (match gc0 with
  | None -> ()
  | Some gc0 ->
    (* phases summed over workers; the root's fingerprint is the one
       call outside them *)
    let succ_ns, succ_calls, norm_ns, fp_ns, fp_calls =
      Array.fold_left
        (fun (a, b, c, d, e) (a', b', c', d', e') -> (a + a', b + b', c + c', d + d', e + e'))
        (0, 0, 0, 0, 1) phases
    in
    let inv_evals, inv_s = Inv_stats.totals (Array.to_list ivs) in
    let s ns = float_of_int ns *. 1e-9 in
    let gc1 = Gc.quick_stat () in
    let other = Float.max 0. (elapsed -. s succ_ns -. s norm_ns -. s fp_ns -. inv_s) in
    Obs.Reporter.emit obs "profile"
      [
        ("checker", Obs.Json.String "explore");
        ("states", Obs.Json.Int states);
        ("transitions", Obs.Json.Int transitions);
        ("elapsed_s", Obs.Json.Float elapsed);
        ("succ_gen_s", Obs.Json.Float (s succ_ns));
        ("succ_gen_calls", Obs.Json.Int succ_calls);
        ("normalize_s", Obs.Json.Float (s norm_ns));
        ("fingerprint_s", Obs.Json.Float (s fp_ns));
        ("fingerprint_calls", Obs.Json.Int fp_calls);
        ("invariant_s", Obs.Json.Float inv_s);
        ("invariant_evals", Obs.Json.Int inv_evals);
        ("other_s", Obs.Json.Float other);
        ("minor_words", Obs.Json.Float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
        ("promoted_words", Obs.Json.Float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
        ("major_words", Obs.Json.Float (gc1.Gc.major_words -. gc0.Gc.major_words));
        ("minor_collections", Obs.Json.Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("major_collections", Obs.Json.Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("heap_words", Obs.Json.Int gc1.Gc.heap_words);
      ]);
  if Obs.Reporter.enabled obs then begin
    let rate = if elapsed > 0. then float_of_int states /. elapsed else 0. in
    Obs.Reporter.emit obs "outcome"
      [
        ("checker", Obs.Json.String "explore");
        ("jobs", Obs.Json.Int jobs);
        ("states", Obs.Json.Int states);
        ("omission_bound", Obs.Json.Float (Fingerprint.omission_bound states));
        ("transitions", Obs.Json.Int transitions);
        ("depth", Obs.Json.Int depth);
        ("deadlocks", Obs.Json.Int deadlocks);
        ("truncated", Obs.Json.Bool truncated);
        ( "violation",
          match first_violation with
          | None -> Obs.Json.Null
          | Some name -> Obs.Json.String name );
        ("elapsed_s", Obs.Json.Float elapsed);
        ("states_per_sec", Obs.Json.Float rate);
      ];
    (* contention attribution + Amdahl decomposition of this run *)
    let lock_stats, shard_wait_s = Obs.Contention.shard_summary (Store.Tiered.locks seen) in
    let _, deque_wait_s = Obs.Contention.shard_summary (Deque.locks deques) in
    let ns_s a = Array.map (fun ns -> float_of_int ns *. 1e-9) a in
    let busy_s = ns_s busy_ns and idle_s = ns_s idle_ns in
    let isum a = Array.fold_left ( + ) 0 a in
    let est = Obs.Contention.estimate ~jobs ~wall_s:elapsed ~busy_per_domain:busy_s in
    let flist a = Obs.Json.List (Array.to_list (Array.map (fun v -> Obs.Json.Float v) a)) in
    let st = Store.Tiered.stats seen in
    Obs.Reporter.emit obs "scaling-detail"
      ([
         ("checker", Obs.Json.String "explore");
         ("states", Obs.Json.Int states);
         ("transitions", Obs.Json.Int transitions);
         ("states_per_sec", Obs.Json.Float rate);
       ]
      @ Obs.Contention.estimate_json est
      @ [
          ("busy_per_domain_s", flist busy_s);
          ("idle_wait_s", Obs.Json.Float (Array.fold_left ( +. ) 0. idle_s));
          ("idle_per_domain_s", flist idle_s);
          ("steals", Obs.Json.Int (isum steals));
          ("steal_fails", Obs.Json.Int (isum steal_fails));
          ("stolen_tasks", Obs.Json.Int (isum stolen_tasks));
          ("termination_probes", Obs.Json.Int (isum term_probes));
          ("lock_acquires", Obs.Json.Int lock_stats.Obs.Contention.acquires);
          ("lock_contended", Obs.Json.Int lock_stats.Obs.Contention.contended);
          ( "lock_wait_s",
            Obs.Json.Float (float_of_int lock_stats.Obs.Contention.wait_ns *. 1e-9) );
          ( "lock_max_wait_s",
            Obs.Json.Float (float_of_int lock_stats.Obs.Contention.max_wait_ns *. 1e-9) );
          ("shard_wait_s", flist shard_wait_s);
          ( "deque_wait_s",
            Obs.Json.Float (Array.fold_left ( +. ) 0. deque_wait_s) );
          (* tiered-store spill attribution *)
          ("mem_budget", Obs.Json.Int (Store.Tiered.mem_budget seen));
          ("bytes_resident", Obs.Json.Int st.Store.Tiered.resident_bytes);
          ( "bytes_resident_per_shard",
            ilist (Store.Tiered.resident_bytes_per_shard seen) );
          ("peak_bytes_resident", Obs.Json.Int st.Store.Tiered.peak_resident_bytes);
          ("spills", Obs.Json.Int st.Store.Tiered.spills);
          ("merges", Obs.Json.Int st.Store.Tiered.merges);
          ("segments", Obs.Json.Int st.Store.Tiered.segments);
          ("spilled_entries", Obs.Json.Int st.Store.Tiered.spilled_entries);
          ( "spilled_states",
            Obs.Json.Int (max 0 (Store.Tiered.count seen - st.Store.Tiered.resident_entries))
          );
          ("disk_bytes", Obs.Json.Int st.Store.Tiered.disk_bytes);
          ("disk_probes", Obs.Json.Int st.Store.Tiered.disk_probes);
          ("disk_hits", Obs.Json.Int st.Store.Tiered.disk_hits);
          ("bloom_checks", Obs.Json.Int st.Store.Tiered.bloom_checks);
          ("bloom_negatives", Obs.Json.Int st.Store.Tiered.bloom_negatives);
          ("segment_mem_bytes", Obs.Json.Int st.Store.Tiered.segment_mem_bytes);
        ])
  end;
  (* certificate writers read the store after the run settles but before
     it goes out of scope (the snapshot above already flushed nothing:
     the store is complete in RAM + segments at this point) *)
  (match on_store with None -> () | Some f -> f seen);
  let covered = merged_covered () in
  {
    states;
    transitions;
    depth;
    deadlocks;
    truncated;
    violation;
    elapsed;
    covered;
  }
