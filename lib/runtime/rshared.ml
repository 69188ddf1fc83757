(* Shared control state between the concrete collector and its mutators:
   the three control variables of Fig. 2, the handshake request slots, and
   the global work-list.

   The handshake protocol follows Fig. 4: the collector publishes the round
   type into each mutator's request slot; the mutator notices it at a
   GC-safe point, does the round's work (marking its own roots, or
   transferring its private work-list), and clears the slot; the collector
   waits for all slots to clear.  Atomics provide the fences the paper
   requires of the pthread primitives. *)

type phase = Idle | Init | Mark | Sweep

type hs = Hs_none | Hs_nop | Hs_get_roots | Hs_get_work

(* The latency observatory: HDR histograms (lib/obs/latency) threaded
   through the hot paths.  Recording is lock-free, so mutators write
   their own ack/alloc observations without synchronising with the
   collector; everything is merged at snapshot time by [latency_json].
   [lat_on = false] reduces every instrumentation site to one branch and
   no clock reads. *)
type lat = {
  lat_on : bool;
  co_interval_ns : int;
    (* > 0: coordinated-omission back-fill for the collector's round
       latency — rounds are periodic, so a stalled round hides the
       rounds that never ran while it lasted *)
  hs_round : Obs.Latency.t;  (* whole round: request -> slowest ack (collector writer) *)
  hs_round_nop : Obs.Latency.t;  (* per round type = per protocol phase *)
  hs_round_roots : Obs.Latency.t;
  hs_round_work : Obs.Latency.t;
  hs_ack : Obs.Latency.t array;  (* per mutator: request publish -> own ack *)
  hs_req_ns : int Atomic.t array;
    (* publish timestamp, stamped by the collector before each request
       slot is set, read by the acking mutator *)
  barrier_slow : Obs.Latency.t;  (* mark-CAS slow path (barriers + collector drain) *)
  alloc : Obs.Latency.t;  (* successful allocations *)
  alloc_stall_wait : Obs.Latency.t;  (* free-list-empty episode durations *)
  alloc_stalls : int Atomic.t;  (* episodes begun *)
  pause : Obs.Latency.t;  (* whole gc cycle (the on-the-fly "pause" proxy) *)
  mark_phase : Obs.Latency.t;
  sweep_phase : Obs.Latency.t;
  hs_in_cycle : Obs.Latency.t;  (* summed handshake wait per cycle *)
}

type t = {
  heap : Rheap.t;
  f_m : bool Atomic.t;  (* sense of the marks *)
  f_a : bool Atomic.t;  (* sense used by allocation *)
  phase : phase Atomic.t;
  hs_req : hs Atomic.t array;  (* per mutator *)
  global_w_lock : Mutex.t;
  mutable global_w : Rheap.rf list;  (* the collector's W *)
  trace_pause : float;
    (* seconds to pause between greys while tracing: 0 in production; the
       stress harness widens the tracing window with it so that the barrier
       ablations become observable on few-core machines (the abstract model
       checker needs no such help) *)
  stop : bool Atomic.t;  (* harness: collector should stop after this cycle *)
  stop_muts : bool Atomic.t;
    (* harness: mutators may exit — raised only after the collector has
       stopped, since a live collector blocks on their handshake acks *)
  (* statistics: atomic, so instrumentation adds no synchronisation beyond
     the fetch-and-adds the paper's ghost counters already imply *)
  cycles : int Atomic.t;
  cas_attempts : int Atomic.t;
  cas_wins : int Atomic.t;
  barrier_fast_path : int Atomic.t;
  hs_rounds : int Atomic.t;  (* handshake rounds completed *)
  (* observability: an event reporter used by the collector for per-cycle
     records *)
  obs : Obs.Reporter.t;
  tracer : Obs.Tracing.t;
    (* span tracer; lane 0 is the collector's timeline (handshake rounds,
       mark/sweep stages, whole cycles), lanes 1..n_muts the mutators' *)
  lat : lat;
  hb_every_ns : int;  (* min interval between runtime-heartbeat records *)
}

let make_lat ~latency ~co_interval_ns ~n_muts =
  (* Lane counts follow the writer sets: single-writer histograms
     (collector timelines, per-mutator acks) get one lane; the ones every
     domain writes (barrier slow path, allocation) keep the default. *)
  let solo name = Obs.Latency.create ~lanes:1 name in
  {
    lat_on = latency;
    co_interval_ns;
    hs_round = solo "hs_round_ns";
    hs_round_nop = solo "hs_round_nop_ns";
    hs_round_roots = solo "hs_round_get_roots_ns";
    hs_round_work = solo "hs_round_get_work_ns";
    hs_ack = Array.init n_muts (fun i -> solo (Printf.sprintf "hs_ack_%d_ns" i));
    hs_req_ns = Array.init n_muts (fun _ -> Atomic.make 0);
    barrier_slow = Obs.Latency.create "barrier_slow_ns";
    alloc = Obs.Latency.create "alloc_ns";
    alloc_stall_wait = Obs.Latency.create "alloc_stall_wait_ns";
    alloc_stalls = Atomic.make 0;
    pause = solo "gc_pause_ns";
    mark_phase = solo "gc_mark_ns";
    sweep_phase = solo "gc_sweep_ns";
    hs_in_cycle = solo "gc_hs_ns";
  }

let make ?(trace_pause = 0.) ?(obs = Obs.Reporter.null) ?(tracer = Obs.Tracing.null)
    ?(latency = true) ?(co_interval_ns = 0) ?(heartbeat_every_s = 0.1) ~n_slots
    ~n_fields ~n_muts () =
  {
    heap = Rheap.make ~n_slots ~n_fields;
    trace_pause;
    f_m = Atomic.make false;
    f_a = Atomic.make false;
    phase = Atomic.make Idle;
    hs_req = Array.init n_muts (fun _ -> Atomic.make Hs_none);
    global_w_lock = Mutex.create ();
    global_w = [];
    stop = Atomic.make false;
    stop_muts = Atomic.make false;
    cycles = Atomic.make 0;
    cas_attempts = Atomic.make 0;
    cas_wins = Atomic.make 0;
    barrier_fast_path = Atomic.make 0;
    hs_rounds = Atomic.make 0;
    obs;
    tracer;
    lat = make_lat ~latency ~co_interval_ns ~n_muts;
    hb_every_ns = int_of_float (heartbeat_every_s *. 1e9);
  }

let n_muts sh = Array.length sh.hs_req

(* Atomic W <- W u Wm (Fig. 2 lines 20/34); called by the owner of [wm]. *)
let transfer sh wm =
  if wm <> [] then begin
    Mutex.lock sh.global_w_lock;
    sh.global_w <- List.rev_append wm sh.global_w;
    Mutex.unlock sh.global_w_lock
  end

let take_global sh =
  Mutex.lock sh.global_w_lock;
  let w = sh.global_w in
  sh.global_w <- [];
  Mutex.unlock sh.global_w_lock;
  w

(* The mark operation of Fig. 5, shared by the collector and every barrier:
   double-checked so that the expensive CAS runs only when the flag test
   and the phase test both pass.  Appends to the caller's private
   work-list; returns it. *)
let mark sh r wm =
  if r = Rheap.null || not (Rheap.is_allocated sh.heap r) then wm
  else begin
    let sense = Atomic.get sh.f_m in
    if Rheap.mark sh.heap r <> sense then begin
      if Atomic.get sh.phase <> Idle then begin
        Atomic.incr sh.cas_attempts;
        (* the slow path is where a barrier actually pays: time it (the
           fast path above stays clock-free).  Like the fast-path
           counter, this conflates barrier marks with the collector's
           own drain marks — latency_json reports the split via the
           counters. *)
        let t0 = if sh.lat.lat_on then Obs.Clock.monotonic_ns () else 0 in
        let won = Rheap.try_mark sh.heap r ~sense in
        if sh.lat.lat_on then
          Obs.Latency.record sh.lat.barrier_slow (Obs.Clock.monotonic_ns () - t0);
        if won then begin
          Atomic.incr sh.cas_wins;
          r :: wm
        end
        else wm  (* some other thread won and greyed it *)
      end
      else wm
    end
    else begin
      Atomic.incr sh.barrier_fast_path;
      wm
    end
  end

(* The structured latency section: attached to the final [harness] record,
   summarised by runtime-heartbeat records, and surfaced in Harness.stats.
   All histograms are merged-on-read, so this is safe to call while the
   runtime is still executing. *)
let latency_json sh =
  let l = sh.lat in
  let fast = Atomic.get sh.barrier_fast_path in
  let cas = Atomic.get sh.cas_attempts in
  let tests = fast + cas in
  Obs.Json.Obj
    [
      ("enabled", Obs.Json.Bool l.lat_on);
      ("hs_round", Obs.Latency.to_json l.hs_round);
      ( "hs_round_by_type",
        Obs.Json.Obj
          [
            ("nop", Obs.Latency.to_json l.hs_round_nop);
            ("get_roots", Obs.Latency.to_json l.hs_round_roots);
            ("get_work", Obs.Latency.to_json l.hs_round_work);
          ] );
      ( "hs_ack",
        Obs.Json.List (Array.to_list (Array.map Obs.Latency.to_json l.hs_ack)) );
      ("barrier_slow", Obs.Latency.to_json l.barrier_slow);
      ("barrier_fast_path", Obs.Json.Int fast);
      ("cas_attempts", Obs.Json.Int cas);
      ( "barrier_fast_fraction",
        if tests > 0 then Obs.Json.Float (float_of_int fast /. float_of_int tests)
        else Obs.Json.Null );
      ("alloc", Obs.Latency.to_json l.alloc);
      ("alloc_stall_wait", Obs.Latency.to_json l.alloc_stall_wait);
      ("alloc_stalls", Obs.Json.Int (Atomic.get l.alloc_stalls));
      ("pause", Obs.Latency.to_json l.pause);
      ("mark", Obs.Latency.to_json l.mark_phase);
      ("sweep", Obs.Latency.to_json l.sweep_phase);
      ("hs_in_cycle", Obs.Latency.to_json l.hs_in_cycle);
    ]
