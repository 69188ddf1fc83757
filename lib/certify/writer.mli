(** Certificate emission: turn a finished run's reach table into a
    certificate directory ({!Certificate}). *)

val of_store : Store.Tiered.t -> (Store.Segment.entry array * int, string) result
(** Dump the explorer's tiered seen-set — tier-0 shards merged with any
    spilled segments, min-depth per fingerprint — into a certificate
    table (sorted, parent/event zeroed) with its max depth.  Only valid
    after a jobs = 1 run (a FIFO BFS), whose depth stamps are BFS
    distances; producers that ran with more workers use {!derive}
    instead.  [Error] if any state records a violation or was never
    expanded (truncated run) — such runs are not certifiable. *)

val derive :
  reducer:('a, 'v, 's) Check.Reducer.t option ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  (Store.Segment.entry array * int, string) result
(** [derive ~reducer ~invariants initial] re-derives the certificate
    table of [initial]: {!Check.Explore.run} at [jobs = 1] with no state
    cap, then {!of_store} on its seen-set.  The table is a function of
    (configuration, reduction mode) alone, so certificates stay
    byte-identical however many workers the producing run used. *)

val write :
  dir:string ->
  config_hash:string ->
  reduce:string ->
  invariant_names:string list ->
  scenario:Obs.Json.t ->
  safety_only:bool ->
  max_depth:int ->
  Store.Segment.entry array ->
  (Certificate.header, string) result
(** Emit [table.seg] then [CERT.json] into [dir] (created if missing).
    [scenario] and [safety_only] are the instance the header binds
    ({!Certificate.header}).
    The header is written last, so a crash mid-write never leaves a
    parsable certificate.  [Error] on an empty table or a table without
    a unique depth-0 root entry. *)
