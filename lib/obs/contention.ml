(* Timed mutexes and the Amdahl serial-fraction estimate; see contention.mli. *)

type lock = {
  m : Mutex.t;
  (* all counters are mutated while holding [m], so plain fields are exact *)
  mutable acquires : int;
  mutable contended : int;
  mutable wait_ns : int;
  mutable max_wait_ns : int;
}

let make_lock () = { m = Mutex.create (); acquires = 0; contended = 0; wait_ns = 0; max_wait_ns = 0 }

let lock l =
  if Mutex.try_lock l.m then l.acquires <- l.acquires + 1
  else begin
    let t0 = Clock.monotonic_ns () in
    Mutex.lock l.m;
    let dt = Clock.monotonic_ns () - t0 in
    l.acquires <- l.acquires + 1;
    l.contended <- l.contended + 1;
    l.wait_ns <- l.wait_ns + dt;
    if dt > l.max_wait_ns then l.max_wait_ns <- dt
  end

let unlock l = Mutex.unlock l.m

let with_lock l f =
  lock l;
  match f () with
  | v ->
    unlock l;
    v
  | exception e ->
    unlock l;
    raise e

type lock_stats = { acquires : int; contended : int; wait_ns : int; max_wait_ns : int }

let lock_stats (l : lock) =
  { acquires = l.acquires; contended = l.contended; wait_ns = l.wait_ns; max_wait_ns = l.max_wait_ns }

let shard_summary locks =
  let acquires = ref 0 and contended = ref 0 and wait = ref 0 and mx = ref 0 in
  let waits =
    Array.map
      (fun l ->
        let s = lock_stats l in
        acquires := !acquires + s.acquires;
        contended := !contended + s.contended;
        wait := !wait + s.wait_ns;
        if s.max_wait_ns > !mx then mx := s.max_wait_ns;
        Clock.ns_to_s s.wait_ns)
      locks
  in
  ({ acquires = !acquires; contended = !contended; wait_ns = !wait; max_wait_ns = !mx }, waits)

(* -- serial fraction ---------------------------------------------------------- *)

type estimate = {
  jobs : int;
  wall_s : float;
  busy_s : float;
  serial_s : float;
  serial_fraction : float;
  effective_parallelism : float;
}

let estimate ~jobs ~wall_s ~busy_per_domain =
  let busy_s = Array.fold_left ( +. ) 0. busy_per_domain in
  (* busy time cannot exceed jobs * wall (each domain is busy at most the
     whole run); clamp measurement noise *)
  let busy_s = Float.min busy_s (float_of_int jobs *. wall_s) in
  if jobs <= 1 || wall_s <= 0. then
    {
      jobs;
      wall_s;
      busy_s;
      serial_s = 0.;
      serial_fraction = 0.;
      effective_parallelism = (if wall_s > 0. then busy_s /. wall_s else 1.);
    }
  else begin
    let n = float_of_int jobs in
    (* T = s + p/n and W = s + p  =>  s = (n*T - W) / (n - 1) *)
    let serial_s = Float.max 0. (((n *. wall_s) -. busy_s) /. (n -. 1.)) in
    let work = Float.max busy_s 1e-12 in
    let serial_fraction = Float.min 1. (serial_s /. work) in
    { jobs; wall_s; busy_s; serial_s; serial_fraction; effective_parallelism = busy_s /. wall_s }
  end

let predicted_speedup e n =
  if n <= 0 then 0.
  else begin
    let f = e.serial_fraction in
    1. /. (f +. ((1. -. f) /. float_of_int n))
  end

let estimate_json e =
  [
    ("jobs", Json.Int e.jobs);
    ("wall_s", Json.Float e.wall_s);
    ("busy_s", Json.Float e.busy_s);
    ("serial_s", Json.Float e.serial_s);
    ("serial_fraction", Json.Float e.serial_fraction);
    ("effective_parallelism", Json.Float e.effective_parallelism);
    ("amdahl_speedup_at_jobs", Json.Float (predicted_speedup e e.jobs));
  ]
