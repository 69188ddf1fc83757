(** Contention attribution: timed mutexes and the serial-fraction estimate.

    A {!lock} is a mutex with an acquire probe: the uncontended path is a
    single [Mutex.try_lock] (no clock read, no extra synchronisation), so
    wrapping a hot lock costs nothing measurable; only a contended acquire
    pays two monotonic-clock reads to measure the wait.  Counters are
    updated while holding the lock, so they are exact without atomics.

    {!estimate} turns per-domain busy/wait attribution into an Amdahl
    serial-fraction figure: with [jobs] domains over wall time [T] doing
    [W = sum busy_i] seconds of useful work, the serial component is
    [s = (jobs*T - W) / (jobs - 1)] (the time during which, on average,
    the other domains idled), the serial fraction [f = s / (s + p)] with
    [p = W - s], and the effective parallelism [W / T] — which is also
    Amdahl's predicted speedup over one domain doing the same work.
    DESIGN.md section 10 derives this and lists the caveats (per-state
    cost inflation under memory pressure is attributed to busy time, so
    the estimate explains scheduling losses, not cache losses). *)

type lock

val make_lock : unit -> lock
val lock : lock -> unit
val unlock : lock -> unit
val with_lock : lock -> (unit -> 'a) -> 'a

type lock_stats = {
  acquires : int;
  contended : int;  (** acquires that found the lock held *)
  wait_ns : int;  (** total time blocked in contended acquires *)
  max_wait_ns : int;
}

(** Snapshot of the probe counters.  Exact only when no domain is
    currently racing the lock (e.g. after a join). *)
val lock_stats : lock -> lock_stats

(** Aggregate stats over a shard array, plus a per-shard wait breakdown
    (seconds, index-aligned with the input). *)
val shard_summary : lock array -> lock_stats * float array

(** {1 Serial fraction / effective parallelism} *)

type estimate = {
  jobs : int;
  wall_s : float;
  busy_s : float;  (** sum of per-domain busy time *)
  serial_s : float;  (** Amdahl serial component, [>= 0] *)
  serial_fraction : float;  (** [serial_s / (serial_s + parallel_s)], in [0,1] *)
  effective_parallelism : float;  (** [busy_s / wall_s]; predicted speedup over 1 domain *)
}

(** [estimate ~jobs ~wall_s ~busy_per_domain].  [jobs = 1] degenerates to
    a zero serial fraction (nothing to serialize against). *)
val estimate : jobs:int -> wall_s:float -> busy_per_domain:float array -> estimate

(** Amdahl speedup [1 / (f + (1-f)/n)] predicted by the estimate at [n]
    domains. *)
val predicted_speedup : estimate -> int -> float

val estimate_json : estimate -> (string * Json.t) list
