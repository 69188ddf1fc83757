(** The tiered state store: the checker's seen-set behind a bounded
    memory budget.

    Tier 0 is the sharded open-addressing table the parallel explorer
    has always used — 64 independently-locked shards over unboxed int
    bigarrays, four words (32 bytes) per state: fingerprint, parent
    fingerprint, packed event, and a meta word (depth stamp |
    violated-invariant index | expanded bit).  Every operation,
    including the 70%-load doubling, runs entirely under the owning
    shard's mutex, so the lost-insert resize race is impossible by
    construction (the multi-domain hammer test drives dozens of
    concurrent resizes on one shard).

    With a [mem_budget], a shard whose measured occupancy
    (entries x {!entry_bytes}) crosses its slice of the budget freezes
    into a sorted, delta-compressed on-disk {!Segment} fronted by a
    resident Bloom filter, and its tier-0 table is reset.  Membership
    stays exact: a tier-0 miss consults each segment's Bloom filter
    (RAM) and pays a single-block disk read only on the rare positive,
    so a fresh insert is never misclassified.  When a shard accumulates
    [merge_fanout] segments they are merged into one (newest copy of a
    fingerprint wins), bounding lookup fan-out at the cost of a
    sequential rewrite.

    Mutation of a disk-resident entry (depth improvement, first
    expansion, violation marking) shadow-inserts the updated copy into
    tier 0; lookups consult tier 0 first and segments newest-first, so
    the newest copy always wins, and merges deduplicate the stale ones.
    Consequence: {!max_depth} may overstate the true BFS eccentricity
    after a depth improvement of a spilled entry (the deep stale copy is
    still on disk); verdict, invariant, counterexample length and state
    counts are unaffected, which is what the equivalence crosscheck
    pins. *)

type t

(** Verdict of an {!add}: [Fresh] (never seen), [Improved v] (seen, but
    this path is shorter; [v] is the recorded violated-invariant index,
    [-1] if none), or [Stale] (seen at an equal-or-shorter depth). *)
type add_result = Fresh | Improved of int | Stale

(** Spill/merge/probe observation hooks (for tracing spans); they run
    under the shard lock, so they must not call back into the store. *)
type hooks = {
  on_spill : shard:int -> entries:int -> bytes:int -> start_ns:int -> stop_ns:int -> unit;
  on_merge : shard:int -> segments:int -> entries:int -> start_ns:int -> stop_ns:int -> unit;
  on_disk_probe : shard:int -> hit:bool -> start_ns:int -> stop_ns:int -> unit;
}

val no_hooks : hooks
(** Hooks that do nothing (the default). *)

type stats = {
  spills : int;  (** shard freezes performed *)
  merges : int;  (** segment merges performed *)
  segments : int;  (** live segments right now *)
  spilled_entries : int;  (** entries written by freezes (cumulative) *)
  disk_probes : int;  (** segment reads that passed a Bloom filter *)
  disk_hits : int;  (** probes that found the fingerprint *)
  bloom_checks : int;  (** per-segment Bloom tests on the miss path *)
  bloom_negatives : int;  (** tests answered without touching disk *)
  resident_entries : int;  (** tier-0 entries across shards *)
  resident_bytes : int;  (** resident_entries x entry_bytes *)
  peak_resident_bytes : int;  (** sum of per-shard occupancy peaks *)
  disk_bytes : int;  (** live segment file bytes *)
  segment_mem_bytes : int;  (** resident Bloom + index bytes *)
}

val n_shards : int
(** Number of independently-locked shards (64); fingerprints are
    distributed by their low bits. *)

(** Bytes per tier-0 entry (4 words). *)
val entry_bytes : int

(** Largest violated-invariant index the meta words can carry (bounded
    by the 8-bit slot of the segment meta word). *)
val max_violation_index : int

(** [create ()] is the all-RAM store (bit-for-bit the old seen-set).
    [mem_budget] (bytes, > 0) arms spilling: each shard freezes when its
    occupancy reaches [mem_budget / n_shards] (with a small floor).
    Segments go to [spill_dir] (created if missing; a fresh temp
    directory when omitted).  [shard_cap] is the initial (and
    post-freeze) slots per shard, a power of two. *)
val create :
  ?shard_cap:int -> ?mem_budget:int -> ?spill_dir:string -> ?merge_fanout:int -> unit -> t

val set_hooks : t -> hooks -> unit
(** Install observation hooks (replacing {!no_hooks}); call before
    concurrent use begins. *)

(** The armed spill directory, if any. *)
val spill_dir : t -> string option

val mem_budget : t -> int
(** The armed resident-byte budget, 0 when spilling is off. *)

(** [add t fp ~parent ~event ~depth]: [Fresh] if [fp] is in neither
    tier, [Improved v] if present with a larger depth stamp (the triple
    is rewritten, shadow-inserting if the copy was on disk; [v] is the
    entry's violated-invariant index, -1 if none), [Stale] otherwise.
    [fp] must be non-zero. *)
val add : t -> int -> parent:int -> event:int -> depth:int -> add_result

(** Record that [fp] violates invariant [idx] (kept in the meta word so
    a later depth improvement can re-offer the violation). *)
val mark_violation : t -> int -> int -> unit

(** A task's claim to expand [fp] at stamp [depth]: [`Stale] when the
    entry has since improved below [depth], otherwise the entry's
    current depth, tagged [`First] exactly once per state so
    transition/deadlock counts are first-expansion-only. *)
val begin_expand : t -> int -> depth:int -> [ `Stale | `First of int | `Again of int ]

(** [(parent, packed event)] of a present fingerprint. *)
val find : t -> int -> (int * int) option

val depth_of : t -> int -> int option
(** Current depth stamp of a present fingerprint. *)

(** Distinct states stored (both tiers; shadow copies not counted). *)
val count : t -> int

(** Total tier-0 slots across shards. *)
val capacity : t -> int

(** Largest depth stamp on record; may overstate after a depth
    improvement of a spilled entry (see above). *)
val max_depth : t -> int

val locks : t -> Obs.Contention.lock array
(** The per-shard instrumented locks, for contention attribution. *)

(** Racy sums, safe to read concurrently (heartbeats). *)
val resident_bytes : t -> int

val resident_bytes_per_shard : t -> int array
(** Racy per-shard occupancy, one entry per shard (heartbeat and
    outcome [bytes_resident_per_shard]). *)

val stats : t -> stats
(** Racy counter snapshot ({!type:stats}); exact once quiescent. *)

(** {1 Checkpoint support} — callers must guarantee quiescence (all
    workers parked); these take the shard locks but snapshot multi-shard
    state non-atomically. *)

(** Depth stamp carried by a segment-layout (32-bit) meta word. *)
val meta32_depth : int -> int

val meta32_violation : int -> int
(** Violated-invariant index carried by a segment-layout meta word, [-1]
    if the state violates no invariant (the slot stores [index + 1]). *)

val meta32_expanded : int -> bool
(** Expanded bit of a segment-layout meta word: the state's successors
    were generated (a closed run has it set on every entry). *)

val meta32_make : depth:int -> violation:int -> int
(** Pack a segment-layout meta word with the expanded bit set, for
    certificate writers that synthesize entries outside any store
    ([violation] is an index, [-1] for none).  Raises [Invalid_argument]
    if either field overflows its slot. *)

(** Tier-0 contents of one shard, sorted by fingerprint, meta packed to
    the 32-bit segment layout. *)
val tier0_dump : t -> shard:int -> Segment.entry array

(** Live segments of one shard, newest first. *)
val segments_of : t -> shard:int -> Segment.t list

(** [(distinct, next_seq)] of one shard. *)
val shard_meta : t -> shard:int -> int * int

(** Rebuild one shard from a snapshot: [tier0] raw entries (segment meta
    layout) are re-inserted, [segs] (newest first) attached as-is. *)
val restore_shard :
  t ->
  shard:int ->
  distinct:int ->
  next_seq:int ->
  tier0:Segment.entry array ->
  segs:Segment.t list ->
  unit

(** The spill directory, creating a fresh temp directory on demand when
    the store was created without one. *)
val ensure_spill_dir : t -> string
