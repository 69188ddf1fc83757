(** Atomic checkpoints of an exploration, on the segment format.

    A checkpoint directory holds numbered snapshots [snap-N] plus a
    [MANIFEST.json] naming the latest complete one.  A snapshot is
    self-contained: every live segment hard-linked in (segments are
    immutable and fsynced at freeze time, so a link is a durable copy;
    falls back to a byte copy across filesystems), the tier-0 contents
    of every shard dumped as per-shard segment files, and a [state.json]
    with the counters, the best-violation cell, the frontier (as
    (fingerprint, depth) pairs per worker — states are replayed from
    parent chains at resume, because CIMP systems embed closures and
    cannot be marshalled) and the coverage set.  The tool configuration
    is echoed verbatim into [MANIFEST.json] only.

    Atomicity protocol: everything is written into a [tmp-snap]
    directory and fsynced, the directory is renamed to [snap-N], and
    only then is [MANIFEST.json] replaced (write-tmp + rename, fsync).
    A crash at any point leaves the manifest naming the previous
    complete snapshot; stale [tmp-snap] and superseded [snap-K]
    directories are garbage-collected on the next write. *)

type snapshot = {
  seq : int;  (** this snapshot's sequence number *)
  states : int;
  transitions : int;
  deadlocks : int;
  truncated : bool;
  elapsed_s : float;  (** exploration seconds before the snapshot *)
  best : (int * int * int) option;  (** best violation: depth, fp, invariant index *)
  frontier : (int * int) list array;  (** (fp, depth) tasks per worker *)
  covered : (int * string) list;  (** coverage pairs when tracking was on *)
  store : Tiered.t;  (** the rebuilt store (populated on {!load} only) *)
}

(** Write snapshot [seq] of [store] (must be quiescent) into [dir].
    [fingerprint_scheme] names the scheme of every fingerprint in the
    snapshot and goes into [MANIFEST.json]. *)
val write :
  dir:string ->
  seq:int ->
  fingerprint_scheme:string ->
  config:Obs.Json.t ->
  store:Tiered.t ->
  states:int ->
  transitions:int ->
  deadlocks:int ->
  truncated:bool ->
  elapsed_s:float ->
  best:(int * int * int) option ->
  frontier:(int * int) list array ->
  covered:(int * string) list ->
  unit

(** Latest complete snapshot's sequence number and echoed configuration,
    without loading the store (so a resuming tool can rebuild the model
    first). *)
val manifest : string -> (int * Obs.Json.t, string) result

(** Load the latest complete snapshot.  The store is rebuilt with the
    given parameters (normally those echoed in the manifest config);
    snapshot segments are hard-linked into the live spill directory, so
    later merges can never destroy the snapshot's own files.  Refuses,
    naming the manifest field, a checkpoint whose recorded
    [fingerprint_scheme] is missing or differs from the given one. *)
val load :
  ?shard_cap:int ->
  ?mem_budget:int ->
  ?spill_dir:string ->
  ?merge_fanout:int ->
  fingerprint_scheme:string ->
  string ->
  (snapshot, string) result
